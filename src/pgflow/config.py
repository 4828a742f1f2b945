"""Flat key/value experiment configs and the builders that realize them.

The format is one `section.key = value` pair per line, `#` comments, no
nesting.  Catalog pieces are named by `problem.set`, `problem.objective`,
and `problem.schedule`; their parameters live under `set.*`, `objective.*`,
and `schedule.*`.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .analysis import CLAIM_NAMES, claim_premises
from .errors import InvalidInputError
from .flow import (
    DEFAULT_HORIZON,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_STEP,
    FlowProblem,
    check_numerics,
    check_replay,
)
from .geometry import (
    AffineHyperplane,
    Ball,
    Box,
    ConvexSet,
    HalfSpace,
    Simplex,
    WholeSpace,
    as_point,
    contains_ball,
)
from .objectives import (
    HolderErrorBound,
    Objective,
    Optimum,
    even_quartic,
    flat_bottom,
    make_power_objective,
    quadratic,
    singleton,
)
from .schedules import Constant, Power, PowerGE1, Schedule

SET_KINDS = ("wholespace", "box", "ball", "halfspace", "hyperplane", "simplex")
OBJECTIVE_KINDS = ("quadratic", "even_quartic", "flat_bottom", "power")
SCHEDULE_FAMILIES = ("constant", "power", "power_ge1")
# Keys that only one kind of system reads.
NUMERICS_KEYS = ("numerics.step", "numerics.horizon", "numerics.sample_every")
DISCRETE_KEYS = ("discrete.alpha", "discrete.steps")

_MISSING = object()


class ConfigError(InvalidInputError):
    """Malformed or inconsistent experiment configuration."""


def parse_pairs(text: str) -> dict:
    """Parse flat `key = value` lines into an ordered dict."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


class _KeyBag:
    """Tracks consumption so unknown keys surface as errors, not silence."""

    def __init__(self, pairs: dict):
        self.pairs = dict(pairs)
        self.used = set()

    def take(self, key, default=_MISSING):
        if key in self.pairs:
            self.used.add(key)
            return self.pairs[key]
        if default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def has(self, key) -> bool:
        return key in self.pairs

    def assert_exhausted(self):
        extra = sorted(set(self.pairs) - self.used)
        if extra:
            raise ConfigError(f"unknown config keys: {', '.join(extra)}")


def _as_float(key, raw) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key}: value must be finite")
    return val


def _as_int(key, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _as_vector(key, raw) -> np.ndarray:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated vector")
    return np.array([_as_float(key, p) for p in parts], dtype=float)


def _as_names(raw) -> tuple:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


@dataclass(eq=False)
class ExperimentConfig:
    """A built run: its problem, its numerics, what to check, and where to
    write. A discrete run takes ``discrete.steps`` Euler steps of size 1,
    one per sample."""

    name: str
    problem: FlowProblem
    step: float
    horizon: float
    sample_every: float
    window_fraction: float
    reference_z: Optional[np.ndarray]
    expect: tuple
    requested_theta: Optional[float]
    trajectory_path: str
    report_path: str

    @property
    def system(self) -> str:
        return self.problem.system


def _build_set(bag: _KeyBag, kind: str) -> ConvexSet:
    if kind == "wholespace":
        return WholeSpace(_as_int("set.dim", bag.take("set.dim")))
    if kind == "box":
        return Box(_as_vector("set.lo", bag.take("set.lo")),
                   _as_vector("set.hi", bag.take("set.hi")))
    if kind == "ball":
        return Ball(_as_vector("set.center", bag.take("set.center")),
                    _as_float("set.radius", bag.take("set.radius")))
    if kind == "halfspace":
        return HalfSpace(_as_vector("set.normal", bag.take("set.normal")),
                         _as_float("set.offset", bag.take("set.offset")))
    if kind == "hyperplane":
        return AffineHyperplane(_as_vector("set.normal", bag.take("set.normal")),
                                _as_float("set.offset", bag.take("set.offset")))
    if kind == "simplex":
        return Simplex(_as_int("set.dim", bag.take("set.dim")),
                       scale=_as_float("set.scale", bag.take("set.scale", "1")))
    raise ConfigError(f"problem.set: unknown kind {kind!r} (choose from {SET_KINDS})")


def _check_dim(key: str, dim: int, domain: ConvexSet, set_kind: str) -> None:
    if domain.dim is not None and dim != domain.dim:
        raise ConfigError(
            f"{key}: dimension {dim} does not match the {set_kind} set's dimension {domain.dim}")


def _center(bag: _KeyBag, domain: ConvexSet, set_kind: str) -> np.ndarray:
    center = _as_vector("objective.center", bag.take("objective.center"))
    _check_dim("objective.center", center.size, domain, set_kind)
    return center


def _quadratic_params(bag: _KeyBag, domain: ConvexSet, set_kind: str):
    center = _center(bag, domain, set_kind)
    diag = None
    if bag.has("objective.diag"):
        diag = _as_vector("objective.diag", bag.take("objective.diag"))
    shift = _as_float("objective.shift", bag.take("objective.shift", "0"))
    isotropic = diag is None or bool(np.all(diag == diag[0]))
    return center, diag, shift, isotropic


def _constrain_quadratic_family(obj: Objective, domain: ConvexSet,
                                center: np.ndarray, isotropic: bool) -> Objective:
    """Swap the free-space optimum for the feasible one.

    For an isotropic quadratic (or a power of one) the constrained argmin is
    exactly the projection of the center, so exact metadata survives; an
    anisotropic center outside the set has no closed-form argmin and the
    metadata is dropped rather than guessed.
    """
    if domain.contains(center):
        return obj
    if not isotropic:
        return dataclasses.replace(obj, optimum=None)
    p = domain.project(center)
    return dataclasses.replace(obj, optimum=Optimum(obj.value(p), singleton(p)))


def _build_objective(bag: _KeyBag, domain: ConvexSet, set_kind: str) -> Objective:
    kind = bag.take("problem.objective").lower()
    if kind == "quadratic":
        center, diag, shift, isotropic = _quadratic_params(bag, domain, set_kind)
        obj = quadratic(center, diag=diag, shift=shift)
        obj = _constrain_quadratic_family(obj, domain, center, isotropic)
    elif kind == "power":
        center, diag, shift, isotropic = _quadratic_params(bag, domain, set_kind)
        theta = _as_float("objective.theta", bag.take("objective.theta"))
        base = quadratic(center, diag=diag, shift=shift)
        obj = make_power_objective(base, theta)
        obj = _constrain_quadratic_family(obj, domain, center, isotropic)
    elif kind == "even_quartic":
        obj = even_quartic(_as_int("objective.dim", bag.take("objective.dim")))
        _check_dim("objective.dim", obj.dim, domain, set_kind)
        if not domain.contains(np.zeros(obj.dim)):
            obj = dataclasses.replace(obj, optimum=None)
    elif kind == "flat_bottom":
        center = _center(bag, domain, set_kind)
        rho = _as_float("objective.rho", bag.take("objective.rho"))
        obj = flat_bottom(center, rho)
        if not contains_ball(domain, center, rho):
            obj = dataclasses.replace(obj, optimum=None)
    else:
        raise ConfigError(
            f"problem.objective: unknown kind {kind!r} (choose from {OBJECTIVE_KINDS})")

    if bag.has("objective.kappa"):
        kappa = _as_float("objective.kappa", bag.take("objective.kappa"))
        if obj.holder is None:
            raise ConfigError("objective.kappa override needs an objective with a certificate")
        obj = dataclasses.replace(obj, holder=HolderErrorBound(kappa, obj.holder.theta))
    return obj


def _build_schedule(bag: _KeyBag) -> Optional[Schedule]:
    if not bag.has("problem.schedule"):
        return None
    family = bag.take("problem.schedule").lower()
    K = _as_float("schedule.K", bag.take("schedule.K", "1"))
    if family == "constant":
        return Constant(K=K)
    if family == "power":
        return Power(K=K, alpha=_as_float("schedule.alpha", bag.take("schedule.alpha", "0.5")))
    if family == "power_ge1":
        return PowerGE1(K=K, alpha=_as_float("schedule.alpha", bag.take("schedule.alpha", "1")))
    raise ConfigError(
        f"problem.schedule: unknown family {family!r} (choose from {SCHEDULE_FAMILIES})")


def _build_discrete(bag: _KeyBag) -> tuple:
    """The clock Constant(K=discrete.alpha) and the horizon discrete.steps."""
    if not (bag.has("discrete.alpha") or bag.has("discrete.steps")):
        raise ConfigError("discrete runs need discrete.alpha and discrete.steps")
    alpha = _as_float("discrete.alpha", bag.take("discrete.alpha"))
    count = _as_int("discrete.steps", bag.take("discrete.steps"))
    if alpha <= 0:
        raise ConfigError("discrete.alpha must be positive")
    if count <= 0:
        raise ConfigError("discrete.steps must be positive")
    return Constant(K=alpha), float(count)


def build_config(pairs: dict, name: str = "experiment") -> ExperimentConfig:
    """Validate raw pairs and build the run they describe.

    FlowProblem alone rules which set, objective, schedule, start and system
    make a run; ``problem.system = unscaled`` spells the scaled system on
    the unit clock, Constant(K=1), and ``problem.system = discrete`` the
    clock Constant(K=discrete.alpha) stepped discrete.steps times at
    step 1; neither takes a schedule. numerics.* keys are read for
    continuous systems only, discrete.* keys for the discrete one; any
    other key is an error.
    """
    bag = _KeyBag(pairs)
    name = bag.take("name", name)

    set_kind = bag.take("problem.set").lower()
    domain = _build_set(bag, set_kind)
    objective = _build_objective(bag, domain, set_kind)
    schedule = _build_schedule(bag)
    system = bag.take("problem.system", "projected").lower()
    if system == "unscaled":
        if schedule is not None:
            raise ConfigError("problem: the unscaled system runs on the unit clock; "
                              "it takes no schedule")
        schedule = Constant(K=1.0)
    elif system == "discrete":
        if schedule is not None:
            raise ConfigError("problem: the discrete system takes its step from discrete.alpha; "
                              "it takes no schedule")
        schedule, horizon = _build_discrete(bag)
        step = sample_every = 1.0
    x0 = _as_vector("problem.x0", bag.take("problem.x0"))
    try:
        problem = FlowProblem(domain, objective, schedule, x0,
                              "scaled" if system == "unscaled" else system)
    except InvalidInputError as exc:
        raise ConfigError(f"problem: {exc}") from None

    if system != "discrete":
        step = _as_float("numerics.step", bag.take("numerics.step", repr(DEFAULT_STEP)))
        horizon = _as_float(
            "numerics.horizon", bag.take("numerics.horizon", repr(DEFAULT_HORIZON)))
        sample_every = _as_float(
            "numerics.sample_every", bag.take("numerics.sample_every", repr(DEFAULT_SAMPLE_EVERY)))
    try:
        check_numerics(domain, horizon, step, sample_every)
        if "time_rescaling_equivalence" not in claim_premises(problem):
            check_replay(problem.schedule, horizon, step)
    except InvalidInputError as exc:
        key = "discrete.steps" if system == "discrete" else "numerics"
        raise ConfigError(f"{key}: {exc}") from None

    window_fraction = _as_float(
        "analysis.window_fraction", bag.take("analysis.window_fraction", "0.5"))
    if not 0.0 < window_fraction <= 1.0:
        raise ConfigError("analysis.window_fraction must lie in (0, 1]")
    reference_z = None
    if bag.has("analysis.reference_z"):
        reference_z = as_point(
            _as_vector("analysis.reference_z", bag.take("analysis.reference_z")),
            dim=objective.dim)
    expect = _as_names(bag.take("analysis.expect", ""))
    for claim in expect:
        if claim not in CLAIM_NAMES:
            raise ConfigError(
                f"analysis.expect: unknown claim {claim!r} (choose from {CLAIM_NAMES})")
    requested_theta = None
    if bag.has("analysis.theta"):
        requested_theta = _as_float("analysis.theta", bag.take("analysis.theta"))
        if not 0.0 < requested_theta <= 1.0:
            raise ConfigError("analysis.theta must lie in (0, 1]")

    trajectory_path = bag.take("output.trajectory_path", "trajectory.csv")
    report_path = bag.take("output.report_path", "report.csv")

    foreign, reader = ((NUMERICS_KEYS, "a continuous problem.system (projected, scaled, unscaled)")
                       if system == "discrete" else (DISCRETE_KEYS, "problem.system = discrete"))
    misplaced = [key for key in foreign if bag.has(key)]
    if misplaced:
        raise ConfigError(f"{', '.join(misplaced)}: read only by {reader}, "
                          f"not by problem.system = {system}")
    bag.assert_exhausted()
    return ExperimentConfig(
        name=name,
        problem=problem,
        step=step,
        horizon=horizon,
        sample_every=sample_every,
        window_fraction=window_fraction,
        reference_z=reference_z,
        expect=expect,
        requested_theta=requested_theta,
        trajectory_path=trajectory_path,
        report_path=report_path,
    )


def list_presets() -> tuple:
    root = resources.files("pgflow") / "presets"
    return tuple(sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg")))


def load_preset_text(name: str) -> str:
    path = resources.files("pgflow") / "presets" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(
            f"no preset named {name!r}; shipped presets: {', '.join(list_presets())}")
    return path.read_text(encoding="utf-8")


def load_pairs(source: str) -> dict:
    """Read raw pairs from a config file path or a shipped preset name."""
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            return parse_pairs(fh.read())
    base = os.path.basename(source)
    stem = base[:-4] if base.endswith(".cfg") else base
    if os.sep not in source and stem in list_presets():
        return parse_pairs(load_preset_text(stem))
    raise ConfigError(f"config file not found: {source}")


def load_config(source: str) -> ExperimentConfig:
    pairs = load_pairs(source)
    stem = os.path.splitext(os.path.basename(str(source)))[0]
    return build_config(pairs, name=stem)
