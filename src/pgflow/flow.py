"""Integration of the projected gradient flow and of its discrete iteration.

A problem is a set, an objective, a schedule and a start; every run
integrates its one vector field

    F(t, x) = P(x - lambda(t) grad f(x)) - x

which on WholeSpace is -lambda(t) grad f(x), and -grad f(x) on the unit
clock Constant(K=1). The method belongs to the numerics: ``integrate``
steps F with "rk4", fixed-step classic Runge-Kutta, for the flow
x' + x = P(x - lambda(t) grad f(x)), or with "euler", forward Euler at
h = 1 (_euler_rows), whose step x + F(x) is the projected point itself:
on the clock Constant(K=a), the iteration x_{k+1} = P(x_k - a grad f(x_k)).
The method and the set decide which of the paper's claims a run can
witness (``analysis.claim_premises``). On a set, a whole RK4 step is a
convex combination of the current state and the four projected stage
points (see PROJECTED_STEP_MAX), so in exact arithmetic it does not
leave the set. Only rounding can, so feasibility is restored once per
sample rather than per substep: the sample's distance from the set is
recorded as feas_drift and the state is replaced by its projection
whenever that distance is positive. On WholeSpace, and for Euler, it is 0.

A run at a floating-point equilibrium x stops stepping and fills its
remaining samples with x and feas_drift 0, the bytes stepping writes: RK4
once a segment's last step returns x and _settles holds, Euler on a
constant clock once an iterate repeats its predecessor bit for bit.

An RK4 run of at most FLOAT_MAX_DIM coordinates, whose ``grad_fn``
and ``_project`` are marked as taking floats (``geometry.takes_floats``),
steps Python floats in a loop generated for its width and kernels
(_rk4_floats). Those of the catalog's own ``grad_fn``, ``_project`` and
``Schedule.value`` that carry a source fragment (``fragments.Fragment``)
are spliced into it, with the kernel's float operations in the kernel's
order; any other point kernel, and any wrapper, such as a traced run's,
is called there on a list. Per RK4 step on box + quadratic at n = 2 the
spliced loop takes 1.6 us, the loop that calls the kernels 8.7 and the
row loop 32; at n = 7, 5.5, 14 and 39 (2-core Xeon VM, Python 3.11.7,
numpy 2.4.6).
A wider run, or one whose kernels a caller passed in, steps a one-row
array through the row kernels ``grad_rows`` and ``_project_rows``
(_rk4_rows), which takes lambda from ``Schedule.value``. Up to
FLOAT_MAX_DIM columns a row kernel sums in the order of its point kernel
(see ``geometry``), so where both loops apply they yield the same
floats, bit for bit. A run's record evaluates the clock and lambda at
all its sample times in one array call each.
"""

from __future__ import annotations

import functools
import linecache
import math
import textwrap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .geometry import (
    FLOAT_MAX_DIM,
    MEMBERSHIP_TOL,
    ConvexSet,
    WholeSpace,
    _rounding,
    _row_dots,
    _row_norms,
    _sum_sq,
    as_point,
    contains_ball,
    takes_floats,
)
from .fragments import Fragment, inline, source
from .objectives import Objective, row_blocks
from .schedules import Constant, Schedule

RK4 = "rk4"
EULER = "euler"
METHODS = (RK4, EULER)

DIVERGENCE_NORM = 1e12
_GUARD_SQ = DIVERGENCE_NORM * DIVERGENCE_NORM
_TWO = np.array(2.0)  # RK4's weight on k2 + k3, a 0-d array like the step sizes in _rk4_rows
DEFAULT_STEP = 1e-3
DEFAULT_HORIZON = 50.0
DEFAULT_SAMPLE_EVERY = 0.1

# Classic RK4 on x' = P(y(t, x)) - x gives, per step of size h,
#   x_new = c0 x + c1 P(y1) + c2 P(y2) + c3 P(y3) + c4 P(y4)
# with c1 = -h (h^3 - 2h^2 + 4h - 4) / 24, c2 = h (h^2 - 2h + 4) / 12,
# c3 = h (2 - h) / 6, c4 = h / 6 and c0 = 1 - c1 - c2 - c3 - c4. The
# weights sum to one and are all nonnegative while h is at most the real
# root 1.29559774... of h^3 - 2h^2 + 4h - 4 (c1 is the first to turn
# negative), so up to that step the exact RK4 step stays in the convex
# set. The bound is that root rounded down.
PROJECTED_STEP_MAX = 1.2955

# Run-length limits, checked before anything is allocated. The largest
# shipped config needs 40,400 steps and 2k samples.
MAX_RK4_STEPS = 10_000_000
MAX_SAMPLES = 1_000_000

BEST_SEEN = "best-seen (diagnostic-only)"
ANALYTIC = "analytic"


@dataclass(eq=False)
class FlowProblem:
    domain: ConvexSet
    objective: Objective
    schedule: Schedule
    x0: np.ndarray

    def __post_init__(self):
        self.x0 = as_point(self.x0, self.objective.dim)
        if self.domain.dim is not None and self.domain.dim != self.x0.size:
            raise InvalidInputError("domain and starting point dimensions differ")


@dataclass(eq=False)
class Trajectory:
    """Sampled run: row k holds the state and diagnostics at time t[k]."""

    t: np.ndarray
    x: np.ndarray
    f_gap: np.ndarray
    gamma: np.ndarray
    feas_drift: np.ndarray
    speed: np.ndarray
    dist_argmin: Optional[np.ndarray]
    problem: FlowProblem
    f_star_source: str = ANALYTIC
    method: str = RK4

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    def __len__(self) -> int:
        return self.t.size


def _field(problem: FlowProblem):
    """G(l, X) = P(X - l grad f(X)) - X, the vector field with lambda(t)
    already evaluated, on one state per row of X through the row kernels;
    l is one lambda, or a column of one lambda per row."""
    grad, proj = problem.objective.grad_rows, problem.domain._project_rows

    def G(lam, X):
        return proj(X - lam * grad(X)) - X

    return G


def _sample_grid(horizon: float, sample_every: float) -> np.ndarray:
    n_full = int(math.floor(horizon / sample_every + 1e-9))
    times = [k * sample_every for k in range(n_full + 1)]
    if horizon - times[-1] > 1e-9 * max(1.0, horizon):
        times.append(horizon)
    else:
        times[-1] = horizon
    return np.asarray(times)


def check_numerics(domain: ConvexSet, horizon: float, step: float, sample_every: float,
                   method: str = RK4) -> None:
    """Raise InvalidInputError unless a run fits the integrator.

    It needs a positive finite horizon and ``0 < step <= sample_every``.
    On any set but WholeSpace, ``step <= PROJECTED_STEP_MAX``; the whole
    space has no set to leave. A run may take at most MAX_RK4_STEPS steps,
    RK4 or Euler, and MAX_SAMPLES samples.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidInputError("horizon must be positive and finite")
    if not (0 < step <= sample_every):
        raise InvalidInputError("need 0 < step <= sample_every")
    if not isinstance(domain, WholeSpace) and step > PROJECTED_STEP_MAX:
        raise InvalidInputError(
            f"a run on a constrained set needs step <= {PROJECTED_STEP_MAX} "
            f"(the RK4 convexity bound), got {step:g}")
    if horizon / step > MAX_RK4_STEPS:
        raise InvalidInputError(
            f"horizon {horizon:g} / step {step:g} = {horizon / step:.3g} "
            f"{'Euler' if method == EULER else 'RK4'} steps, "
            f"above the limit of {MAX_RK4_STEPS:.0e}")
    if horizon / sample_every > MAX_SAMPLES:
        raise InvalidInputError(
            f"horizon {horizon:g} / sample_every {sample_every:g} = {horizon / sample_every:.3g} "
            f"samples, above the limit of {MAX_SAMPLES:.0e}")


def _diverged(t: float) -> DivergenceError:
    return DivergenceError(f"state norm left the trust region near t = {t:.6g}", time=t)


# _settles's margin for a later lambda or substep a few ulp above this step's
_WIDEN = 1.0 + 2.0**-20


def _settles(domain: ConvexSet, x, g, lam_t: float, step: float) -> bool:
    """Whether every later RK4 step from x returns x, bit for bit, once (a)
    a step at time t from x, with g = grad f(x), returned x's values.

    Every Schedule is K (1+t)^-alpha, alpha >= 0, so a later lambda is at
    most lam = lambda(t) _WIDEN and a later substep at most h = step _WIDEN.
    It holds when (c) the ball about x of radius 2 lambda(t) |g| plus x's
    rounding (geometry._rounding) lies in the set, asked of contains_ball
    with its MEMBERSHIP_TOL added, so P returns each later stage point
    x - lambda' g as it is (never on a hyperplane or simplex, always on
    WholeSpace); and (b) k = (x - lam g) - x moves x neither as a stage
    input x + h k nor as a step x + (h/6)(k + 2(k + k) + k), and x has no
    -0.0, which x + 0.0 turns to 0.0. As x stays, so does g; rounding is
    monotone, so each later stage vector lies between 0 and k, coordinate
    by coordinate, and each later stage input and step between x + 0.0 and
    the moves tested: all are x, and each sample's feas_drift is 0.
    """
    radius = 2.0 * lam_t * math.sqrt(_sum_sq(g)) + _rounding(len(x), math.sqrt(_sum_sq(x)))
    if not (radius < math.inf and contains_ball(domain, x, radius + MEMBERSHIP_TOL)):
        return False
    lam, h = lam_t * _WIDEN, step * _WIDEN
    k = [(v - lam * d) - v for v, d in zip(x, g)]
    sixth_h = h / 6.0
    return ([v + h * a for v, a in zip(x, k)] == x
            and [v + sixth_h * (a + 2.0 * (a + a) + a) for v, a in zip(x, k)] == x
            and not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in x))


def _rk4_rows(problem: FlowProblem, times: np.ndarray, step: float) -> tuple:
    """Classic fixed-step RK4 on one state held as a (1, n) array, stepped
    with the row field from times[0] through every later sample time.

    Each inter-sample segment is split into equal substeps no larger than
    ``step``, and lambda comes from ``Schedule.value``, 3 times per step.
    Per sample the state's distance from the set is its feas_drift, and
    the state is replaced by its projection whenever that distance is
    positive. A run that _settles stops stepping and fills the remaining
    samples with its state. Returns the (m, n) samples and their drifts. A
    step whose state's squared norm passes the guard or is not a number
    raises its DivergenceError.
    """
    G, proj, lam = _field(problem), problem.domain._project_rows, problem.schedule.value
    grad = problem.objective.grad_rows
    states = np.empty((times.size, problem.x0.size))
    states[0] = problem.x0
    drifts = np.zeros(times.size)
    X = states[:1].copy()
    grid = times.tolist()
    t0 = grid[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, len(grid)):
            span = grid[j] - t0
            n_sub = max(1, math.ceil(span / step - 1e-12))
            h = span / n_sub
            # 0-d arrays: numpy multiplies by them faster than by Python floats
            half_h, full_h, sixth_h = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
            for i in range(n_sub):
                t = t0 + i * h
                lam_mid = lam(t + 0.5 * h)
                lam_t, X_in, g = lam(t), X, grad(X)
                k1 = proj(X - lam_t * g) - X
                k2 = G(lam_mid, X + half_h * k1)
                k3 = G(lam_mid, X + half_h * k2)
                k4 = G(lam(t + h), X + full_h * k3)
                X = X + sixth_h * (k1 + _TWO * (k2 + k3) + k4)
                if not _row_dots(X, X)[0] <= _GUARD_SQ:
                    raise _diverged(t + h)
            P = proj(X)
            drift = _row_norms(X - P)[0]
            if drift > 0.0:
                X = P
            states[j] = X[0]
            drifts[j] = drift
            t0 = grid[j]
            if np.array_equal(X, X_in) and _settles(problem.domain, X_in[0].tolist(),
                                                    g[0].tolist(), lam_t, step):
                states[j + 1:] = X[0]
                break
    return states, drifts


# The Fragments of _rk4_floats's roles (grad_fn, _project, Schedule.value)
# that call a kernel that does not inline: the kernel is bound to the role's
# local, and called on a list of the locals x.., or on the time x
_CALL_POINT = Fragment("call", "", "{vec:{out}@} = {k}([{vec:{x}@}])")
_CALLS = (_CALL_POINT, _CALL_POINT, Fragment("call", "", "{out} = {k}({x})"))


# _rk4_floats's loop: a template of fragments.source, whose slots hold the
# Fragments' source (_float_loop_source)
_FLOAT_LOOP = """\
def rk4_floats(problem, times, step, grad, proj, lam):
{setup}
    project = problem.domain._project
    states = np.empty((times.size, {n}))
    states[0] = problem.x0
    drifts = np.zeros(times.size)
    {vec:x@} = problem.x0.tolist()
    grid = times.tolist()
    t0 = grid[0]
    for j in range(1, len(grid)):
        span = grid[j] - t0
        n_sub = max(1, math.ceil(span / step - 1e-12))
        h = span / n_sub
        half_h, sixth_h = 0.5 * h, h / 6.0
        for i in range(n_sub):
            t = t0 + i * h
{lam_mid}
{lam_t}
            {vec:s@} = {vec:x@}
{stage_a}
            {vec:y@} = {vec:x@ + half_h * a@}
{stage_b}
            {vec:y@} = {vec:x@ + half_h * b@}
{stage_c}
{lam_end}
            {vec:y@} = {vec:x@ + h * c@}
{stage_d}
            {vec:x@} = {vec:x@ + sixth_h * (a@ + 2.0 * (b@ + c@) + d@)}
            if not {sum:x@ * x@} <= _GUARD_SQ:
                raise _diverged(t + h)
        x = [{vec:x@}]
        p = project(x)
        {vec:e@} = {vec:x@ - p[@]}
        drift = math.sqrt({sum:e@ * e@})
        if drift > 0.0:
            x = p
            {vec:x@} = p
        states[j] = x
        drifts[j] = drift
        t0 = grid[j]
        if x == [{vec:s@}] and _settles(problem.domain, [{vec:s@}], [{vec:g@}], lam_t, step):
            states[j + 1:] = x
            break
    return states, drifts"""


# A stage of _FLOAT_LOOP, out = P(x - lam grad f(x)) - x, whose slots grad
# and proj hold the gradient's and the projection's source
_STAGE = """\
{grad}
            {vec:z@} = {vec:{x}@ - {lam} * {g}@}
{proj}
            {vec:{out}@} = {vec:{out}@ - {x}@}"""


def _float_loop_source(n: int, grad: Fragment, proj: Fragment, lam: Fragment) -> str:
    """Source of _rk4_floats's loop for n <= FLOAT_MAX_DIM coordinates with
    the Fragments of a problem's grad_fn, _project and Schedule.value
    spliced in: each vector is n scalar locals (state x.., its value s.. at
    the step's start, stages a.. to d.., stage input y.., projection input
    z.., gradient g.. at x and u.. at y, drift e..) and each vector
    statement one tuple assignment; the guard and drift sums add from -0.0
    left to right, as _sum_sq adds. The loop binds each fragment's consts
    to the local named after its role (grad, proj, lam)."""

    def put(frag, role, x, out):  # frag's body from x to out, at the inner loop's depth
        return textwrap.indent(source(n, frag.body, k=role, x=x, out=out), " " * 12)

    def stage(out, x, g, lam):
        return source(n, _STAGE, grad=put(grad, "grad", x, g), proj=put(proj, "proj", "z", out),
                      out=out, x=x, g=g, lam=lam)

    return source(
        n, _FLOAT_LOOP,
        setup="\n".join(textwrap.indent(source(n, frag.setup, k=role), "    ")
                        for frag, role in ((grad, "grad"), (proj, "proj"), (lam, "lam"))
                        if frag.setup),
        lam_mid=put(lam, "lam", "t + 0.5 * h", "lam_mid"), lam_t=put(lam, "lam", "t", "lam_t"),
        lam_end=put(lam, "lam", "t + h", "lam_end"), stage_a=stage("a", "x", "g", "lam_t"),
        stage_b=stage("b", "y", "u", "lam_mid"), stage_c=stage("c", "y", "u", "lam_mid"),
        stage_d=stage("d", "y", "u", "lam_end"))


@functools.cache
def _float_loop(n: int, grad: Fragment, proj: Fragment, lam: Fragment):
    """_rk4_floats's loop for n coordinates with these Fragments, compiled
    on its first run; its file name names n and the fragments' kinds."""
    name = f"<pgflow rk4 floats n={n} grad={grad.kind} proj={proj.kind} lam={lam.kind}>"
    text = _float_loop_source(n, grad, proj, lam)
    linecache.cache[name] = (len(text), None, text.splitlines(True), name)  # for tracebacks
    scope = {}
    exec(compile(text, name, "exec"), globals(), scope)
    return scope["rk4_floats"]


def _rk4_floats(problem: FlowProblem, times: np.ndarray, step: float) -> tuple:
    """_rk4_rows's arithmetic on at most FLOAT_MAX_DIM Python floats, in the
    loop generated for that width and the problem's kernels
    (_float_loop_source). The kernels that carry a Fragment are spliced in
    (fragments.inline); any other kernel, and any wrapper, is called as
    found, so a wrapper sees every call that _rk4_rows makes. It returns
    and raises as _rk4_rows does; the float kernels let an overflow become inf, as numpy
    does, and carry a NaN through to the guard."""
    kernels = (problem.objective.grad_fn, problem.domain._project, problem.schedule.value)
    parts = [inline(kernel) or (call, kernel) for kernel, call in zip(kernels, _CALLS)]
    loop = _float_loop(problem.x0.size, *(frag for frag, _ in parts))
    return loop(problem, times, step, *(consts for _, consts in parts))


def _euler_rows(problem: FlowProblem, times: np.ndarray) -> tuple:
    """Forward Euler at h = 1, x + F(t, x), on one state held as a (1, n)
    array, one step per sample, with the RK4 loops' lambda and guard.
    x + (P(y) - x) is P(y) in exact arithmetic, and the loop takes P(y)
    itself: the classical iterate P(x - lambda grad f(x)), bit for bit.
    A sample is thus already the projection's output, and its feas_drift
    is 0; projecting it again would only add the projection's rounding.
    On a constant clock the map depends on x alone, so once an iterate
    repeats its predecessor bit for bit it fills the remaining samples."""
    grad, proj, lam = problem.objective.grad_rows, problem.domain._project_rows, problem.schedule.value
    states = np.empty((times.size, problem.x0.size))
    states[0] = problem.x0
    X = states[:1]
    grid = times.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, len(grid)):
            X, X_prev = proj(X - lam(grid[j - 1]) * grad(X)), X
            if not _row_dots(X, X)[0] <= _GUARD_SQ:
                raise _diverged(grid[j])
            states[j] = X[0]
            if problem.schedule.alpha == 0.0 and X.tobytes() == X_prev.tobytes():
                states[j + 1:] = X[0]
                break
    return states, np.zeros(times.size)


def _on_floats(problem: FlowProblem) -> bool:
    """Whether a run of ``problem`` steps Python floats (_rk4_floats)."""
    return (problem.x0.size <= FLOAT_MAX_DIM and takes_floats(problem.objective.grad_fn)
            and takes_floats(problem.domain._project))


def integrate(
    problem: FlowProblem,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
    sample_every: float = DEFAULT_SAMPLE_EVERY,
    method: str = RK4,
) -> Trajectory:
    """Run ``method`` up to ``horizon``: classic fixed-step RK4, or forward
    Euler at h = 1, the discrete iteration.

    Samples land on multiples of ``sample_every`` plus t=0 and t=horizon;
    each inter-sample segment is subdivided into equal substeps no larger
    than ``step``. The numerics must pass check_numerics. Euler takes
    ``horizon`` steps of size 1, one per sample, so it needs a whole
    horizon and step = sample_every = 1. Raises DivergenceError, carrying
    the failure time, as soon as the state norm passes 1e12 or stops being
    finite. An RK4 run of at most FLOAT_MAX_DIM coordinates whose kernels
    take floats steps as Python floats; any other run as a one-row
    array, with the same RK4 floats where both apply. A run at a
    floating-point equilibrium stops stepping and fills its remaining
    samples as stepping would (_settles). The trajectory records its method.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}, expected one of {METHODS}")
    check_numerics(problem.domain, horizon, step, sample_every, method)
    if method == EULER and not (step == sample_every == 1.0 and horizon % 1.0 == 0.0):
        raise InvalidInputError(
            "the discrete iteration takes a whole horizon of Euler steps of size 1, one per "
            f"sample; got horizon {horizon:g}, step {step:g}, sample_every {sample_every:g}")
    # every run starts in the set; `pgflow check` reports this as a row instead
    if problem.domain.residual(problem.x0) > 1e-12:
        raise InvalidInputError("starting point must lie in the feasible set")
    sample_times = _sample_grid(horizon, sample_every)
    if method == EULER:
        states, drifts = _euler_rows(problem, sample_times)
    else:
        loop = _rk4_floats if _on_floats(problem) else _rk4_rows
        states, drifts = loop(problem, sample_times, step)
    return _assemble(problem, sample_times, states, drifts, method)


def _assemble(problem, times, states, drifts, method) -> Trajectory:
    """Build the Trajectory record of a sampled run from its (m, n) states,
    with the row kernels for f, dist_argmin and an RK4 run's speed |F|,
    called on blocks of rows (objectives.row_blocks) so that their
    temporaries stay small whatever n is. An Euler run's speed is the
    step that reached each sample, |x_k - x_{k-1}|, and 0 at the start."""
    obj, opt = problem.objective, problem.objective.optimum
    xs = np.ascontiguousarray(states, dtype=float)
    fvals = np.empty(len(xs))
    dist_argmin = None if opt is None else np.empty(len(xs))
    if method == EULER:
        field, speed = None, np.concatenate([[0.0], np.linalg.norm(np.diff(xs, axis=0), axis=1)])
    else:
        field, speed = _field(problem), np.empty(len(xs))
        lam = problem.schedule.value(times)[:, None]
    for b in row_blocks(*xs.shape):
        X = xs[b]
        fvals[b] = obj.fn_rows(X)
        if opt is not None:
            dist_argmin[b] = _row_norms(X - opt.argmin._project_rows(X))
        if field is not None:
            speed[b] = _row_norms(field(lam[b], X))
    if opt is not None:
        f_star, source = opt.f_star, ANALYTIC
    else:
        f_star, source = float(np.min(fvals)), BEST_SEEN
    return Trajectory(
        t=np.asarray(times, dtype=float),
        x=xs,
        f_gap=fvals - f_star,
        gamma=problem.schedule.gamma(times),
        feas_drift=np.asarray(drifts, dtype=float),
        speed=speed,
        dist_argmin=dist_argmin,
        problem=problem,
        f_star_source=source,
        method=method,
    )


def check_replay(schedule: Schedule, horizon: float, step: float) -> tuple:
    """Clock end gamma(horizon) and step of reparam_check's unscaled replay.

    The replay is sampled at every step, so it must pass check_numerics
    with sample_every equal to its step.
    """
    g_end = schedule.gamma(horizon)
    if g_end <= 0:
        raise InvalidInputError("schedule accumulates no time over the horizon")
    h = min(step, g_end / 10.0)
    try:
        check_numerics(WholeSpace(), g_end, h, h)
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"the time-rescaling replay runs the unscaled flow to Gamma(horizon) = {g_end:g}, "
            f"sampled at every step: {exc}") from None
    return g_end, h


def reparam_check(
    objective: Objective,
    schedule: Schedule,
    x0,
    horizon: float = 10.0,
    step: float = DEFAULT_STEP,
) -> float:
    """Largest gap between the scaled flow and the unscaled flow on the
    rescaled clock.

    Integrates x' = -lambda(t) grad f(x) up to ``horizon`` and replays
    y' = -grad f(y) up to gamma(horizon), sampled at every step, then
    compares x(t) with y(gamma(t)) at every sample of the scaled run,
    interpolating the replay linearly. The two are the same curve up to
    integrator and interpolation error.
    """
    space = WholeSpace(as_point(x0).size)
    g_end, h = check_replay(schedule, horizon, step)
    scaled = integrate(
        FlowProblem(space, objective, schedule, x0),
        horizon=horizon,
        step=step,
        sample_every=max(step, horizon / 500.0),
    )
    unscaled = integrate(FlowProblem(space, objective, Constant(K=1.0), x0),
                         horizon=g_end, step=h, sample_every=h)
    # np.interp's formula on every coordinate of a block of samples at
    # once; g = gamma(horizon) is the replay's last sample and takes it exactly.
    tp, yp = unscaled.t, unscaled.x
    worst = 0.0
    for b in row_blocks(*scaled.x.shape):
        g = scaled.gamma[b]
        j = np.minimum(np.searchsorted(tp, g, side="right") - 1, tp.size - 2)
        slope = (yp[j + 1] - yp[j]) / (tp[j + 1] - tp[j])[:, None]
        y = slope * (g - tp[j])[:, None] + yp[j]
        y[g >= tp[-1]] = yp[-1]
        # np.max keeps a NaN gap wherever it falls
        worst = float(np.max(np.linalg.norm(scaled.x[b] - y, axis=1), initial=worst))
    return worst


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: t,gamma,f_gap,dist_argmin,feas_drift,speed,x_0..x_{n-1}.

    Floats are written with repr so identical runs produce byte-identical
    files. dist_argmin is left empty when the objective has no argmin
    metadata.
    """
    header = ["t", "gamma", "f_gap", "dist_argmin", "feas_drift", "speed"]
    header += [f"x_{j}" for j in range(traj.x.shape[1])]
    scalars = (traj.t, traj.gamma, traj.f_gap, traj.dist_argmin, traj.feas_drift, traj.speed)
    columns = [[""] * len(traj) if c is None else list(map(repr, c.tolist())) for c in scalars]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k, x in enumerate(traj.x):
            fh.write(",".join([*(col[k] for col in columns), *map(repr, x.tolist())]) + "\n")
