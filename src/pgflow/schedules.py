"""Step-size schedules, their cumulative clocks, and a quadrature rule.

Every schedule is lambda(t) = K (1+t)^(-alpha), so the cumulative step
size Gamma(t) is an exact closed form and contributes no quadrature error
to rate experiments. The three families, Constant (alpha = 0), Power
(0 < alpha < 1) and PowerGE1 (alpha >= 1), are ranges of alpha that build
the one Schedule class. Whether a schedule meets the paper's hypotheses
on lambda is decided in ``analysis.schedule_premises``, in closed form;
the tail integrals it shows as evidence come from ``quad``, a fixed
tanh-sinh rule in numpy.

A Schedule exposes ``K``, ``alpha``, ``value`` and ``gamma`` (each on a
time or an array of times) and ``gamma_limit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fragments import Fragment, inlined


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
    rounding for the tails of ``analysis.schedule_premises``.
    """
    half = 0.5 * (b - a)
    # a node's offset from its nearer endpoint, so no node rounds onto the other end
    s = np.where(_TS_SIGN < 0, a + half * _TS_GAP, b - half * _TS_GAP)
    return float(half * np.dot(_TS_WEIGHT, f(s)))


_BAD_TIME = "time must be finite and >= 0"
_INF = math.inf


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < _INF)):
        raise InvalidInputError(_BAD_TIME) from None
    return t


def _check_time(t):
    """t as a float, or an array of times as a float array; raise unless
    every time is finite and >= 0."""
    try:
        t = float(t)
    except TypeError:  # float() refuses an array of times
        return _check_times(t)
    if not 0.0 <= t < _INF:
        raise InvalidInputError(_BAD_TIME)
    return t


def _check_K(K) -> None:
    if not (math.isfinite(K) and K > 0):
        raise InvalidInputError("K must be positive and finite")


@dataclass(frozen=True, repr=False)
class Schedule:
    """lambda(t) = K (1+t)^(-alpha) with K > 0 and alpha >= 0, both finite.

    Non-increasing for every such K and alpha. ``value`` and ``gamma`` take
    a time, computed in Python's float arithmetic, or an array of times,
    computed elementwise in numpy, whose ``pow`` may round a few ulp
    differently. The family constructors Constant, Power and PowerGE1
    build it for their ranges of alpha, and its repr names the one that
    builds it.
    """

    K: float
    alpha: float = 0.0

    def __post_init__(self):
        _check_K(self.K)
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidInputError("alpha must be finite and >= 0")

    def __repr__(self) -> str:
        if self.alpha == 0.0:
            return f"Constant(K={self.K!r})"
        family = "Power" if self.alpha < 1.0 else "PowerGE1"
        return f"{family}(K={self.K!r}, alpha={self.alpha!r})"

    # The Fragment skips the time check: flow's loop takes its times from a
    # validated sample grid. (1+t) >= 1 to a power <= 0 cannot overflow.
    @inlined(Fragment("clock", "{k}_K, {k}_power = {k}",
                      "{out} = {k}_K * (1.0 + ({x})) ** {k}_power"),
             lambda schedule: (schedule.K, -schedule.alpha))
    def value(self, t):
        """lambda(t); Constant's (1+t) ** -0.0 is exactly 1."""
        # _check_time inlined: an RK4 loop that calls this calls it 3 times per step
        try:
            t = float(t)
        except TypeError:
            t = _check_times(t)
        else:
            if not 0.0 <= t < _INF:
                raise InvalidInputError(_BAD_TIME)
        return self.K * (1.0 + t) ** (-self.alpha)

    def gamma(self, t):
        """Cumulative step size: the integral of lambda from 0 to t.

        Off alpha = 0 and 1 it is K ((1+t)^b - 1)/b with b = 1 - alpha.
        The rise (1+t)^b - 1 is taken as expm1(x), x = b log1p(t), where
        |x| < 1, since the difference cancels there (by 8.9e-5 relative at
        t = 1e-12, alpha = 1/2), and as the difference elsewhere, since
        expm1(x) carries the rounding of x, about |x| ulp. Either way gamma
        is within a few ulp of the exact clock.
        """
        t = _check_time(t)
        a = self.alpha
        if a == 0.0:
            return self.K * t
        on_float = type(t) is float
        log1p = math.log1p if on_float else np.log1p
        if a == 1.0:
            return self.K * log1p(t)
        b = 1.0 - a
        x = b * log1p(t)
        if on_float:
            rise = math.expm1(x) if abs(x) < 1.0 else (1.0 + t) ** b - 1.0
        else:
            rise = np.where(np.abs(x) < 1.0, np.expm1(x), (1.0 + t) ** b - 1.0)
        return self.K * rise / b

    def gamma_limit(self) -> float:
        """Limit of gamma at infinity: K/(alpha-1) for alpha > 1, inf otherwise."""
        return self.K / (self.alpha - 1.0) if self.alpha > 1.0 else math.inf


def Constant(K: float) -> Schedule:
    """lambda(t) = K."""
    return Schedule(K)


def Power(K: float, alpha: float = 0.5) -> Schedule:
    """lambda(t) = K (1+t)^(-alpha) with alpha in (0, 1).

    The workhorse family: the clock grows like t^(1-alpha), unbounded,
    and every integrability condition of the paper holds.
    """
    _check_K(K)
    if not (0 < alpha < 1):
        raise InvalidInputError("Power needs alpha in (0, 1); use PowerGE1 for alpha >= 1")
    return Schedule(K, alpha)


def PowerGE1(K: float, alpha: float = 1.0) -> Schedule:
    """lambda(t) = K (1+t)^(-alpha) with alpha >= 1.

    Ships to exhibit failure modes: for alpha > 1 the clock saturates at
    K/(alpha-1), which sinks the guarantees assuming an unbounded clock.
    The integrator accepts it regardless.
    """
    _check_K(K)
    if alpha < 1:
        raise InvalidInputError("PowerGE1 needs alpha >= 1")
    return Schedule(K, alpha)
