"""Workload definitions: the configs each workload feeds pgflow, and its commands.

Every workload starts from canonical configs (the shipped presets, or
configs generated from a fixed generator seed) and applies one signed
coordinate permutation per config, drawn from the benchmark seed. The
flow, the sets and the objectives used here are all equivariant under
such a map, so every seed gives a different input whose correct outputs
are the canonical outputs mapped through the same permutation. That is
what lets one set of references check every seed.

This module imports only numpy, never pgflow: the benchmark generates
inputs without loading the program it measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("preset_suite", "alpha_sweep", "highdim_sets")
SIZES = ("full", "tiny")
# The host-clock kernel that resembles each workload's hot path (see
# hostclock.py): 2-D per-call dispatch, or per-element work at n = 1000.
HOST_KERNEL = {"preset_suite": "small", "alpha_sweep": "small", "highdim_sets": "wide"}

PRESET_DIR = os.path.join("src", "pgflow", "presets")
SWEEP_PRESET = "rate_theta25_alpha50"
SWEEP_VALUES = "0.25,0.5,0.75"

# Canonical high-dimensional configs come from this generator seed; the
# benchmark seed only permutes and reflects their coordinates.
HIGHDIM_CANON_SEED = 1808
HIGHDIM_SETS = ("wholespace", "box", "ball", "halfspace", "hyperplane", "simplex")
HIGHDIM_SIZE = {"full": dict(dim=1000, horizon=2.0, step=0.01, sample_every=0.1),
                "tiny": dict(dim=40, horizon=1.0, step=0.02, sample_every=0.1)}
# The tiny size shortens every preset horizon so a smoke pass takes seconds.
TINY_HORIZON = "2"
TINY_DISCRETE_STEPS = "20"

# Keys whose value is a point or a direction: they map through T directly.
POINT_KEYS = ("problem.x0", "objective.center", "set.center", "analysis.reference_z",
              "set.normal")


@dataclass(frozen=True)
class SignedPermutation:
    """(T x)_i = sign_i * x_{perm_i}: orthogonal, so norms and dots survive."""

    perm: np.ndarray
    sign: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.sign * np.asarray(x, dtype=float)[self.perm]

    def invert_columns(self, xs: np.ndarray) -> np.ndarray:
        """Map rows of transformed points back to canonical coordinates."""
        out = np.empty_like(xs)
        out[:, self.perm] = self.sign * xs
        return out


def draw_transform(rng: np.random.Generator, dim: int, reflect: bool) -> SignedPermutation:
    perm = rng.permutation(dim)
    sign = rng.choice([-1.0, 1.0], size=dim) if reflect else np.ones(dim)
    return SignedPermutation(perm, sign)


def _vec(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.replace(",", " ").split()], dtype=float)


def _fmt(vec) -> str:
    return ", ".join(repr(float(v)) for v in vec)


def parse_cfg(text: str) -> dict:
    pairs = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def format_cfg(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def config_dim(pairs: dict) -> int:
    return _vec(pairs["problem.x0"]).size


def transform_pairs(pairs: dict, T: SignedPermutation) -> dict:
    """The same experiment in the coordinates y = T x."""
    out = dict(pairs)
    for key in POINT_KEYS:
        if key in out:
            out[key] = _fmt(T.apply(_vec(out[key])))
    if "objective.diag" in out:
        out["objective.diag"] = _fmt(_vec(out["objective.diag"])[T.perm])
    if "set.lo" in out:
        lo, hi = T.apply(_vec(out["set.lo"])), T.apply(_vec(out["set.hi"]))
        out["set.lo"], out["set.hi"] = _fmt(np.minimum(lo, hi)), _fmt(np.maximum(lo, hi))
    return out


@dataclass(frozen=True)
class Command:
    """One pgflow invocation and the outputs the gate compares."""

    key: str            # stable name, also the key into the references
    argv: tuple         # pgflow arguments without --out-dir
    config: str         # generated config file the command reads
    trajectories: tuple  # trajectory CSV names written into --out-dir
    report: str         # report CSV name, "" for check


@dataclass(frozen=True)
class Workload:
    commands: tuple
    transforms: dict    # config stem -> SignedPermutation
    config_files: tuple


def _shipped_presets(root: str) -> dict:
    pdir = os.path.join(root, PRESET_DIR)
    names = sorted(f[:-4] for f in os.listdir(pdir) if f.endswith(".cfg"))
    out = {}
    for name in names:
        with open(os.path.join(pdir, f"{name}.cfg"), encoding="utf-8") as fh:
            out[name] = parse_cfg(fh.read())
    return out


def _shrink_preset(pairs: dict) -> dict:
    out = dict(pairs)
    if out.get("problem.system") == "discrete":
        out["discrete.steps"] = TINY_DISCRETE_STEPS
    else:
        out["numerics.horizon"] = TINY_HORIZON
    return out


def highdim_canonical(size: str) -> dict:
    """One canonical config per set kind, quadratic objective, seeded center."""
    p = HIGHDIM_SIZE[size]
    n = p["dim"]
    rng = np.random.default_rng(HIGHDIM_CANON_SEED)
    center = rng.normal(0.0, 1.0, n)
    zeros = np.zeros(n)
    common = {
        "problem.objective": "quadratic",
        "objective.center": _fmt(center),
        "problem.schedule": "power",
        "schedule.K": "1",
        "schedule.alpha": "0.5",
        "numerics.step": repr(p["step"]),
        "numerics.horizon": repr(p["horizon"]),
        "numerics.sample_every": repr(p["sample_every"]),
    }
    normal = rng.normal(0.0, 1.0, n)
    if normal @ center < 0:
        normal = -normal
    plane_normal = rng.normal(0.0, 1.0, n)
    sets = {
        "wholespace": ({"set.dim": str(n)}, zeros, "scaled"),
        "box": ({"set.lo": _fmt(-rng.uniform(0.5, 1.5, n)),
                 "set.hi": _fmt(rng.uniform(0.5, 1.5, n))}, zeros, "projected"),
        "ball": ({"set.center": _fmt(zeros), "set.radius": repr(0.5 * float(np.sqrt(n)))},
                 zeros, "projected"),
        "halfspace": ({"set.normal": _fmt(normal),
                       "set.offset": repr(0.5 * float(normal @ center))}, zeros, "projected"),
        "hyperplane": ({"set.normal": _fmt(plane_normal), "set.offset": "1.0"},
                       plane_normal / float(plane_normal @ plane_normal), "projected"),
        "simplex": ({"set.dim": str(n), "set.scale": "1"}, np.full(n, 1.0 / n), "projected"),
    }
    out = {}
    for kind in HIGHDIM_SETS:
        set_pairs, x0, system = sets[kind]
        name = f"highdim_{kind}"
        out[name] = {"name": name, "problem.set": kind, **set_pairs, **common,
                     "problem.x0": _fmt(x0), "problem.system": system,
                     "output.trajectory_path": f"{name}_trajectory.csv",
                     "output.report_path": f"{name}_report.csv"}
    return out


def canonical_configs(workload: str, size: str, root: str) -> dict:
    """Config stem -> pairs, in the order the workload runs them."""
    if workload == "highdim_sets":
        return highdim_canonical(size)
    presets = _shipped_presets(root)
    if workload == "alpha_sweep":
        presets = {SWEEP_PRESET: presets[SWEEP_PRESET]}
    if size == "tiny":
        presets = {k: _shrink_preset(v) for k, v in presets.items()}
    return presets


def _sweep_trajectory(path: str, value: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_alpha_{float(value):g}{ext}"


def build(workload: str, seed: int, size: str, root: str, config_dir: str) -> Workload:
    """Write the seed's configs into config_dir and list the workload's commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    canon = canonical_configs(workload, size, root)
    rng = np.random.default_rng(seed)
    os.makedirs(config_dir, exist_ok=True)
    commands, transforms, files = [], {}, []
    for stem, pairs in canon.items():
        reflect = pairs.get("problem.set") != "simplex"
        T = draw_transform(rng, config_dim(pairs), reflect)
        transforms[stem] = T
        path = os.path.join(config_dir, f"{stem}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_cfg(transform_pairs(pairs, T)))
        files.append(path)
        traj = pairs.get("output.trajectory_path", "trajectory.csv")
        report = pairs.get("output.report_path", "report.csv")
        if workload == "alpha_sweep":
            commands.append(Command(
                f"sweep:{stem}",
                ("sweep", path, "--param", "alpha", "--values", SWEEP_VALUES),
                path, tuple(_sweep_trajectory(traj, v) for v in SWEEP_VALUES.split(",")),
                report))
            continue
        commands.append(Command(f"check:{stem}", ("check", path, "--seed", str(seed)),
                                path, (), ""))
        run_argv = ("run", path, "--strict") if workload == "preset_suite" else ("run", path)
        commands.append(Command(f"run:{stem}", run_argv, path, (traj,), report))
    return Workload(tuple(commands), transforms, tuple(files))
