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

RK4 steps one loop text (_rk4_source), rendered on Python floats, each
vector n scalar locals, for a run of n <= FLOAT_MAX_DIM coordinates whose
``grad_fn`` and ``_project`` take floats (``geometry.takes_floats``),
and otherwise on one (1, n) row through ``grad_rows`` and
``_project_rows``. The float rendering splices in the templates
(``fragments.Fragment``) of the catalog's ``grad_fn`` and ``_project``,
and both splice in ``Schedule.value``'s; any other kernel, and any
wrapper, such as a traced run's, is called, with the same floats. The
renderings differ in three lines: the start state, the step sizes and the
settle test. Per RK4 step on box + quadratic the spliced float loop takes
1.2 us, the float loop that calls the kernels 6.8 and the row loop 24 at
n = 2, and 4.2, 11 and 27 at n = 7 (2-core Xeon VM, Python 3.11.7, numpy
2.4.6). Where both renderings apply they yield the same floats, bit for
bit (see ``fragments``). A run's record evaluates the clock and lambda at
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
from .fragments import FLOAT_MAX_DIM, Fragment, _row_dots, inline, source
from .geometry import (MEMBERSHIP_TOL, ConvexSet, WholeSpace, _dot, _rounding, _row_norms,
                       as_point, contains_ball, takes_floats)
from .objectives import Objective, row_blocks
from .schedules import Constant, Schedule

RK4 = "rk4"
EULER = "euler"
METHODS = (RK4, EULER)

DIVERGENCE_NORM = 1e12
_GUARD_SQ = DIVERGENCE_NORM * DIVERGENCE_NORM
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
    radius = 2.0 * lam_t * math.sqrt(_dot(g, g)) + _rounding(len(x), math.sqrt(_dot(x, x)))
    if not (radius < math.inf and contains_ball(domain, x, radius + MEMBERSHIP_TOL)):
        return False
    lam, h = lam_t * _WIDEN, step * _WIDEN
    k = [(v - lam * d) - v for v, d in zip(x, g)]
    sixth_h = h / 6.0
    return ([v + h * a for v, a in zip(x, k)] == x
            and [v + sixth_h * (a + 2.0 * (a + a) + a) for v, a in zip(x, k)] == x
            and not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in x))


# The Fragments of the loop's roles (grad, proj, lam) that call a kernel
# that does not inline: the kernel is bound to the role's local, and called
# on a list of the float locals x.., or on the one name x: a row, or the time
_CALL_POINT = Fragment("call", "", "{vec:{out}@} = {k}([{vec:{x}@}])")
_CALL = Fragment("call", "", "{out} = {k}({x})")


# The RK4 loop: a template of fragments.source, rendered on n scalar locals
# or on one (1, n) row, whose slots hold the Fragments' source and the lines
# where the two renderings differ (_rk4_source)
_RK4_LOOP = """\
def rk4(problem, times, step, grad, proj, lam):
{setup}
    states = np.empty((times.size, problem.x0.size))
    states[0] = problem.x0
    drifts = np.zeros(times.size)
{start}
    grid = times.tolist()
    t0 = grid[0]
    for j in range(1, len(grid)):
        span = grid[j] - t0
        n_sub = max(1, math.ceil(span / step - 1e-12))
        h = span / n_sub
{steps}
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
            {vec:y@} = {vec:x@ + full_h * c@}
{stage_d}
            {vec:x@} = {vec:x@ + sixth_h * (a@ + 2.0 * (b@ + c@) + d@)}
            if not {sum:x@ * x@} <= _GUARD_SQ:
                raise _diverged(t + h)
{project}
        {vec:e@} = {vec:x@ - p@}
        drift = math.sqrt({sum:e@ * e@})
        if drift > 0.0:
            {vec:x@} = {vec:p@}
        states[j] = {vec:x@}
        drifts[j] = drift
        t0 = grid[j]
        if {settled}:
            states[j + 1:] = {vec:x@}
            break
    return states, drifts"""


# A stage of _RK4_LOOP, out = P(x - lam grad f(x)) - x, whose slots grad
# and proj hold the gradient's and the projection's source
_STAGE = """\
{grad}
            {vec:z@} = {vec:{x}@ - {lam} * {g}@}
{proj}
            {vec:{out}@} = {vec:{out}@ - {x}@}"""


# The lines of _RK4_LOOP where its renderings differ. On floats the state
# is n locals, listed for the settle test; on rows one (1, n) array, and
# the step sizes 0-d arrays, faster numpy operands.
_ON_FLOATS = dict(
    start="    {vec:x@} = problem.x0.tolist()",
    steps="        half_h, full_h, sixth_h = 0.5 * h, h, h / 6.0",
    settled="({vec:x@}) == ({vec:s@}) and _settles(problem.domain, [{vec:s@}], [{vec:g@}], "
            "lam_t, step)")
_ON_ROWS = dict(
    start="    x = states[:1].copy()",
    steps="        half_h, full_h, sixth_h = np.array(0.5 * h), np.array(h), np.array(h / 6.0)",
    settled="np.array_equal(x, s) and _settles(problem.domain, s[0].tolist(), g[0].tolist(), "
            "lam_t, step)")


def _rk4_source(n: Optional[int], grad: Fragment, proj: Fragment, lam: Fragment) -> str:
    """Source of the RK4 loop for n <= FLOAT_MAX_DIM floats, or for one row
    if n is None, with the Fragments of a problem's gradient, projection
    and clock spliced in, each bound to the local named after its role
    (grad, proj, lam). The vectors are the state x.., its value s.. at the
    step's start, stages a.. to d.., stage input y.., projection input z..,
    gradients g.. at x and u.. at y and drift e..; the per-sample
    projection goes from x to p.. through the proj role, as the stages'
    do. _ON_FLOATS and _ON_ROWS fill the slots where the renderings differ."""

    def put(frag, role, x, out, depth=12):  # frag's body from x to out, by default in the steps
        return textwrap.indent(source(n, frag.body, k=role, x=x, out=out), " " * depth)

    def stage(out, x, g, lam):
        return source(n, _STAGE, grad=put(grad, "grad", x, g), proj=put(proj, "proj", "z", out),
                      out=out, x=x, g=g, lam=lam)

    lines = _ON_FLOATS if n is not None else _ON_ROWS
    return source(
        n, _RK4_LOOP, **{slot: source(n, text) for slot, text in lines.items()},
        setup="\n".join(textwrap.indent(source(n, frag.setup, k=role), "    ")
                        for frag, role in ((grad, "grad"), (proj, "proj"), (lam, "lam"))
                        if frag.setup),
        lam_mid=put(lam, "lam", "t + 0.5 * h", "lam_mid"), lam_t=put(lam, "lam", "t", "lam_t"),
        lam_end=put(lam, "lam", "t + h", "lam_end"), stage_a=stage("a", "x", "g", "lam_t"),
        stage_b=stage("b", "y", "u", "lam_mid"), stage_c=stage("c", "y", "u", "lam_mid"),
        stage_d=stage("d", "y", "u", "lam_end"), project=put(proj, "proj", "x", "p", depth=8))


@functools.cache
def _rk4_loop(n: Optional[int], grad: Fragment, proj: Fragment, lam: Fragment):
    """The RK4 loop for n coordinates, or for rows, with these Fragments,
    compiled on first use under a file name of the rendering and kinds."""
    shape = "rows" if n is None else f"floats n={n}"
    name = f"<pgflow rk4 {shape} grad={grad.kind} proj={proj.kind} lam={lam.kind}>"
    text = _rk4_source(n, grad, proj, lam)
    linecache.cache[name] = (len(text), None, text.splitlines(True), name)  # for tracebacks
    scope = {}
    exec(compile(text, name, "exec"), globals(), scope)
    return scope["rk4"]


def _rk4(problem: FlowProblem, times: np.ndarray, step: float, floats: bool) -> tuple:
    """Classic fixed-step RK4 from times[0] through every later sample
    time, in the loop rendered (_rk4_source) on Python floats if ``floats``
    (see _on_floats), else on one (1, n) row, each segment split into equal
    substeps no larger than ``step``. Returns the (m, n) samples and their
    feas_drifts. A step whose state's squared norm passes the guard or is
    not a number, an overflow's inf included, raises its DivergenceError.
    """
    objective, domain = problem.objective, problem.domain
    if floats:
        n, kernels, call = problem.x0.size, (objective.grad_fn, domain._project), _CALL_POINT
    else:  # on rows the loop splices in the clock alone
        n, kernels, call = None, (objective.grad_rows, domain._project_rows), _CALL
    parts = [inline(kernel) or (frag, kernel)
             for kernel, frag in zip((*kernels, problem.schedule.value), (call, call, _CALL))]
    loop = _rk4_loop(n, *(frag for frag, _ in parts))
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Whether a run of ``problem`` steps Python floats (_rk4)."""
    return (problem.x0.size <= FLOAT_MAX_DIM and takes_floats(problem.objective.grad_fn)
            and takes_floats(problem.domain._project))


def integrate(
    problem: FlowProblem,
    horizon: float = DEFAULT_HORIZON,
    step: float = DEFAULT_STEP,
    sample_every: float = DEFAULT_SAMPLE_EVERY,
    method: str = RK4,
) -> Trajectory:
    """Run ``method`` up to ``horizon``: classic fixed-step RK4 (_rk4), or
    forward Euler at h = 1, the discrete iteration (_euler_rows).

    Samples land on multiples of ``sample_every`` plus t=0 and t=horizon;
    each inter-sample segment is subdivided into equal substeps no larger
    than ``step``. The numerics must pass check_numerics. Euler takes
    ``horizon`` steps of size 1, one per sample, so it needs a whole
    horizon and step = sample_every = 1. Raises DivergenceError, carrying
    the failure time, as soon as the state norm passes 1e12 or stops being
    finite. The trajectory records its method.
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
        states, drifts = _rk4(problem, sample_times, step, _on_floats(problem))
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
    run: Optional[Trajectory] = None,
) -> float:
    """Largest gap between the scaled flow and the unscaled flow on the
    rescaled clock.

    Integrates x' = -lambda(t) grad f(x) up to ``horizon``, sampled every
    max(step, horizon / 500), and replays y' = -grad f(y) up to
    gamma(horizon), sampled at every step, then compares x(t) with
    y(gamma(t)) at every sample of the scaled run, interpolating the replay
    linearly. The two are the same curve up to integrator and
    interpolation error. ``run``, an RK4 run of this objective, clock and
    start on the whole space at this step, is the scaled run when its
    samples are those times; otherwise the scaled flow is integrated here.
    """
    space = WholeSpace(as_point(x0).size)
    g_end, h = check_replay(schedule, horizon, step)
    sample_every = max(step, horizon / 500.0)
    if run is not None and np.array_equal(run.t, _sample_grid(horizon, sample_every)):
        scaled = run
    else:
        scaled = integrate(FlowProblem(space, objective, schedule, x0),
                           horizon=horizon, step=step, sample_every=sample_every)
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


# write_trajectory_csv formats and writes at most this many floats at a
# time, about 0.1 MB of text
CSV_BLOCK_FLOATS = 4096


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Trajectory CSV: t,gamma,f_gap,dist_argmin,feas_drift,speed,x_0..x_{n-1}.

    Floats are written with repr so identical runs produce byte-identical
    files. dist_argmin is left empty when the objective has no argmin
    metadata. Rows are formatted and written a block at a time, as many as
    fit in CSV_BLOCK_FLOATS floats and at least one: its floats and row
    strings are freed before its text is written, then the last newline.
    """
    n = traj.x.shape[1]
    header = ["t", "gamma", "f_gap", "dist_argmin", "feas_drift", "speed"]
    header += [f"x_{j}" for j in range(n)]
    scalars = [traj.t, traj.gamma, traj.f_gap, traj.dist_argmin, traj.feas_drift, traj.speed]
    empty = traj.dist_argmin is None  # then the block skips the column, and each row its cell
    if empty:
        del scalars[3]
    rows = max(1, CSV_BLOCK_FLOATS // (len(scalars) + n))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj), rows):
            part = slice(start, start + rows)
            block = np.column_stack([*(c[part] for c in scalars), traj.x[part]])
            if empty:
                fh.write("\n".join([",".join(map(repr, r[:3])) + ",," + ",".join(map(repr, r[3:]))
                                    for r in block.tolist()]))
            else:
                fh.write("\n".join([",".join(map(repr, r)) for r in block.tolist()]))
            fh.write("\n")
