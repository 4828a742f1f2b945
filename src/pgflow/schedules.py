"""Step-size schedules, their cumulative clocks, and integrability checks.

Only analytically integrable families ship, so the cumulative step size
and the derivative are exact closed forms and contribute no quadrature
error to rate experiments. The validator classifies each schedule
against the integrability conditions that the convergence guarantees
need: an unbounded cumulative clock, finite total variation, and the
tail-integrability conditions tied to the error-bound exponent theta.
Its verdicts are analytic; the tail integrals it reports as evidence come
from ``quad``, a fixed tanh-sinh rule in numpy.

Every schedule exposes ``K``, ``alpha``, ``value``, ``derivative``,
``gamma``, ``gamma_limit`` and ``monotone``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError

EXP_TAIL_CS = (0.1, 1.0, 10.0)


def _tanh_sinh_rule():
    """Nodes and weights of the tanh-sinh (double-exponential) rule on
    [-1, 1] (Takahasi & Mori, 1974), as (1 - |x|, sign of x, weight).

    x(t) = tanh(u) with u = pi/2 sinh(t), at t = k h for |k| <= 256 and
    h = 2^-6, so |t| <= 4. The nodes crowd the endpoints doubly
    exponentially, which resolves endpoint singularities and boundary
    layers with one fixed set of nodes. 1 - |x| is kept as
    2 e^(-2|u|) / (1 + e^(-2|u|)), free of the cancellation in
    1 - tanh(|u|), so nodes next to an endpoint stay distinct from it. At
    |t| <= 4 the smallest gap and weight are about 1e-37, so all 513
    nodes carry weight.
    """
    h = 2.0**-6
    t = np.arange(-256, 257) * h
    e = np.exp(-np.pi * np.sinh(np.abs(t)))  # e^(-2|u|)
    weight = h * (0.5 * np.pi) * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2  # h dx/dt
    return 2.0 * e / (1.0 + e), np.sign(t), weight


_TS_GAP, _TS_SIGN, _TS_WEIGHT = _tanh_sinh_rule()


def quad(f, a: float, b: float) -> float:
    """The integral of f over [a, b] by the tanh-sinh rule.

    f takes the array of nodes, all in [a, b], and returns f at each. A
    node is an offset from its nearer endpoint, down to about 1e-37 (b - a)
    next to it, so nodes round onto an endpoint unless it is 0: f may be
    infinite at an endpoint 0 but must be finite at a nonzero one. For an
    integrand analytic inside the interval the error falls like
    exp(-C/h) as the node step h shrinks, even with an integrable
    singularity or a thin layer at an endpoint; at h = 2^-6 it is near
    rounding for the validator's tails.
    """
    half = 0.5 * (b - a)
    # a node's offset from its nearer endpoint, so no node rounds onto the other end
    s = np.where(_TS_SIGN < 0, a + half * _TS_GAP, b - half * _TS_GAP)
    return float(half * np.dot(_TS_WEIGHT, f(s)))


def _gamma_at(schedule: "Schedule", s: np.ndarray) -> np.ndarray:
    """The closed-form clock at each node of an array."""
    return np.array([schedule.gamma(v) for v in s])


def _check_time(t) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise InvalidInputError("time must be finite and >= 0")
    return t


@dataclass(frozen=True)
class Schedule:
    """Base for the shipped families. All have non-increasing lambda."""

    K: float

    def __post_init__(self):
        if not (np.isfinite(self.K) and self.K > 0):
            raise InvalidInputError("K must be positive and finite")

    @property
    def monotone(self) -> bool:
        """lambda' <= 0 everywhere for every shipped family."""
        return True

    def value(self, t) -> float:
        raise NotImplementedError

    def derivative(self, t) -> float:
        raise NotImplementedError

    def gamma(self, t) -> float:
        """Cumulative step size: the integral of lambda from 0 to t."""
        raise NotImplementedError

    def gamma_limit(self) -> float:
        """Limit of gamma at infinity; inf when the clock is unbounded."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Schedule):
    """lambda(t) = K."""

    @property
    def alpha(self) -> float:
        return 0.0

    def value(self, t) -> float:
        _check_time(t)
        return self.K

    def derivative(self, t) -> float:
        _check_time(t)
        return 0.0

    def gamma(self, t) -> float:
        return self.K * _check_time(t)

    def gamma_limit(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Power(Schedule):
    """lambda(t) = K (1+t)^(-alpha) with alpha in (0, 1).

    The workhorse family: the clock grows like t^(1-alpha), unbounded,
    and every integrability condition below holds.
    """

    alpha: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.alpha < 1):
            raise InvalidInputError("Power needs alpha in (0, 1); use PowerGE1 for alpha >= 1")

    def value(self, t) -> float:
        return self.K * (1.0 + _check_time(t)) ** (-self.alpha)

    def derivative(self, t) -> float:
        return -self.alpha * self.K * (1.0 + _check_time(t)) ** (-self.alpha - 1.0)

    def gamma(self, t) -> float:
        t = _check_time(t)
        return self.K * ((1.0 + t) ** (1.0 - self.alpha) - 1.0) / (1.0 - self.alpha)

    def gamma_limit(self) -> float:
        return math.inf


@dataclass(frozen=True)
class PowerGE1(Schedule):
    """lambda(t) = K (1+t)^(-alpha) with alpha >= 1.

    Ships to exhibit failure modes: for alpha > 1 the clock saturates at
    K/(alpha-1), which sinks the guarantees assuming an unbounded clock.
    The integrator accepts it regardless.
    """

    alpha: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 1:
            raise InvalidInputError("PowerGE1 needs alpha >= 1")

    def value(self, t) -> float:
        return self.K * (1.0 + _check_time(t)) ** (-self.alpha)

    def derivative(self, t) -> float:
        return -self.alpha * self.K * (1.0 + _check_time(t)) ** (-self.alpha - 1.0)

    def gamma(self, t) -> float:
        t = _check_time(t)
        if self.alpha == 1.0:
            return self.K * math.log1p(t)
        return self.K * (1.0 - (1.0 + t) ** (1.0 - self.alpha)) / (self.alpha - 1.0)

    def gamma_limit(self) -> float:
        if self.alpha == 1.0:
            return math.inf
        return self.K / (self.alpha - 1.0)


@dataclass(frozen=True)
class ConditionVerdict:
    status: str  # "pass" | "fail" | "not-applicable"
    evidence: dict

    def __post_init__(self):
        if self.status not in ("pass", "fail", "not-applicable"):
            raise InvalidInputError(f"unknown verdict status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the schedule validators.

    gamma_unbounded: the cumulative clock diverges.
    variation_finite: lambda has finite total variation.
    power_tail_integrable: the tail integral of Gamma^(-theta/(1-2 theta))/(1+t)
        converges; the condition behind the power decay rates, theta < 1/2 only.
    exp_tail_integrable: the tail integral of exp(-c Gamma)/(1+t) converges for
        every probed c; the theta = 1/2 counterpart.
    """

    gamma_unbounded: ConditionVerdict
    variation_finite: ConditionVerdict
    power_tail_integrable: ConditionVerdict
    exp_tail_integrable: ConditionVerdict
    monotone: bool


def validate(schedule: Schedule, theta: Optional[float] = None, horizon: float = 100.0) -> ConditionReport:
    """Classify a schedule against the integrability conditions.

    Verdicts come from the analytic criteria for the shipped families;
    closed forms and tail quadratures up to ``horizon`` ride along as
    diagnostic evidence.
    ``theta`` selects which tail condition applies: values below 1/2 engage
    the power tail, exactly 1/2 engages the exponential tail, None skips
    both. The power-tail integrand can blow up at t = 0 for theta >= 1/3
    even when its tail converges, so the quadrature evidence starts at
    t = 1; the verdict reads the condition as a statement about the tail.
    """
    if theta is not None and not (0 < theta <= 0.5):
        raise InvalidInputError("theta must lie in (0, 1/2] when provided")
    if not (np.isfinite(horizon) and horizon > 0):
        raise InvalidInputError("horizon must be positive and finite")

    alpha = schedule.alpha
    K = schedule.K
    clock_bounded = math.isfinite(schedule.gamma_limit())

    # Clock divergence.
    ev = {"alpha": alpha, "K": K, "gamma_at_horizon": schedule.gamma(horizon)}
    if clock_bounded:
        ev["gamma_limit"] = schedule.gamma_limit()
        gamma_unbounded = ConditionVerdict("fail", ev)
    else:
        gamma_unbounded = ConditionVerdict("pass", ev)

    # Total variation: the families are non-increasing with lambda -> 0
    # (or constant), so TV = lambda(0) - lim lambda, always finite, and
    # the variation up to the horizon is lambda(0) - lambda(horizon).
    lam_inf = 0.0 if alpha > 0 else K
    lam0 = schedule.value(0.0)
    variation_finite = ConditionVerdict(
        "pass", {"total_variation": lam0 - lam_inf,
                 "abs_derivative_integral_to_horizon": lam0 - schedule.value(horizon)}
    )

    # Power tail, theta < 1/2.
    if theta is None or theta == 0.5:
        power_tail = ConditionVerdict("not-applicable", {})
    else:
        q = theta / (1.0 - 2.0 * theta)
        if clock_bounded:
            status = "fail"  # Gamma^-q bottoms out, leaving a divergent 1/(1+t) tail
        elif isinstance(schedule, PowerGE1) and alpha == 1.0:
            # Gamma grows like log t; t^-1 (log t)^-q integrates iff q > 1.
            status = "pass" if q > 1.0 else "fail"
        else:
            status = "pass"  # Gamma grows like a positive power of t
        tail = quad(lambda s: _gamma_at(schedule, s) ** (-q) / (1.0 + s), 1.0, horizon)
        power_tail = ConditionVerdict(status, {"exponent": q, "tail_quadrature_from_1": tail})

    # Exponential tail, theta = 1/2, probed over a spread of c values.
    if theta == 0.5:
        ev = {}
        for c in EXP_TAIL_CS:
            ev[f"quadrature_c_{c:g}"] = quad(
                lambda s, c=c: np.exp(-c * _gamma_at(schedule, s)) / (1.0 + s), 0.0, horizon)
        # Bounded clock: integrand ~ const/(1+t), divergent for every c.
        # Unbounded clock: exp(-c Gamma) eventually beats every power of t
        # for the polynomial clocks, and for the log clock gives the
        # integrable exponent 1 + c K.
        status = "fail" if clock_bounded else "pass"
        exp_tail = ConditionVerdict(status, ev)
    else:
        exp_tail = ConditionVerdict("not-applicable", {})

    return ConditionReport(
        gamma_unbounded=gamma_unbounded,
        variation_finite=variation_finite,
        power_tail_integrable=power_tail,
        exp_tail_integrable=exp_tail,
        monotone=schedule.monotone,
    )
