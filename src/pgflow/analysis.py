"""Premises, Lyapunov diagnostics and rate regression for runs.

``schedule_premises`` and ``claim_premises`` decide, from a problem and
its method, what holds before anything is integrated. The rest is pure
post-processing: functions consume an immutable Trajectory, never mutate
it, and are safe to call concurrently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .flow import EULER, RK4, FlowProblem, Trajectory
from .geometry import Ball, Box, ConvexSet, WholeSpace, as_point, contains_ball
from .objectives import Desingularizer, row_blocks
from .schedules import Schedule, quad

R2_THRESHOLD = 0.99
EXPONENT_SLACK = 0.15
CAUCHY_TOL = 1e-4
RESCALING_TOL = 1e-5
GAMMA_GAP_MIN_CLOCK = 10.0
GAMMA_GAP_TAIL_RATIO = 0.01
GAMMA_GAP_WINDOW = 0.1
EXP_TAIL_CS = (0.1, 1.0, 10.0)

F_GAP = "f_gap"
TRAJ_ERR = "traj_err"
QUANTITIES = (F_GAP, TRAJ_ERR)

POWER_MODEL = "power-in-t"
EXP_MODEL = "exp-in-Gamma"

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

REPORT_HEADER = "quantity,model,fitted,theoretical,r2,verdict,reason"

CLAIM_NAMES = (
    "objective_gap_vanishes_in_gamma_time",
    "strong_convergence_symmetric_even",
    "strong_convergence_interior_argmin",
    "power_decay_rates",
    "exponential_decay_rates",
    "stationary_above_half_theta",
    "time_rescaling_equivalence",
)
# Claim 5 keeps its report row, always inapplicable, because the
# benchmark's references pin it; a re-record deletes the row.
STATIONARY_REASON = "the paper assumes 0 < theta <= 1/2: no run witnesses theta above one half"


@dataclass(frozen=True, eq=False)
class DiagnosticSeries:
    """Pointwise Lyapunov quantities evaluated at the trajectory samples."""

    t: np.ndarray
    phi_z: np.ndarray        # half squared distance to the reference point
    psi: np.ndarray          # phi_z + lambda(t) * f_gap
    gamma_gap: np.ndarray    # Gamma(t) * f_gap
    lojasiewicz_h: Optional[np.ndarray]  # phi(f_gap) when a desingularizer is given

    def __len__(self) -> int:
        return len(self.t)


def diagnostics(traj: Trajectory, z, desing: Optional[Desingularizer] = None) -> DiagnosticSeries:
    """Evaluate the Lyapunov series of a run against a reference point z.

    Monotonicity of phi_z and psi is only meaningful when z lies in the
    argmin set; the caller picks z.  The f-gap is clamped at zero so every
    series stays nonnegative despite sub-epsilon rounding in the samples.
    """
    z = as_point(z, dim=traj.problem.objective.dim)
    lam = traj.problem.schedule.value(traj.t)
    gap = np.maximum(traj.f_gap, 0.0)
    phi = _per_row(traj.x, lambda X: 0.5 * np.sum((X - z) ** 2, axis=1))
    psi = phi + lam * gap
    gamma_gap = traj.gamma * gap
    loj = None
    if desing is not None:
        loj = np.array([desing.value(float(g)) for g in gap])
    return DiagnosticSeries(t=traj.t, phi_z=phi, psi=psi, gamma_gap=gamma_gap, lojasiewicz_h=loj)


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    max_violation: float


def check_monotone(series, tol: float) -> MonotoneReport:
    """Pass iff every forward difference of the series is at most tol."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise InvalidInputError("monotone check needs a nonempty 1-d series")
    if len(arr) == 1:
        return MonotoneReport(passed=True, max_violation=0.0)
    diffs = np.diff(arr)
    worst = float(max(0.0, float(diffs.max())))
    return MonotoneReport(passed=bool(diffs.max() <= tol), max_violation=worst)


@dataclass(frozen=True)
class GammaGapReport:
    status: str   # pass / fail / inapplicable
    tail_mean: float
    peak: float
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


def check_gamma_gap_limit(
    gamma_gap,
    gamma_end: float,
    window_fraction: float = GAMMA_GAP_WINDOW,
) -> GammaGapReport:
    """Tail test for Gamma(t) * f_gap -> 0.

    Inapplicable unless the run reaches Gamma(horizon) >= 10; otherwise the
    tail has not separated from the transient and the verdict would be noise.
    Passes iff the mean over the final window_fraction of samples is at most
    1% of the series maximum (an all-zero series passes).
    """
    arr = np.asarray(gamma_gap, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise InvalidInputError("gamma-gap check needs a nonempty 1-d series")
    if not 0.0 < window_fraction <= 1.0:
        raise InvalidInputError("window_fraction must lie in (0, 1]")
    peak = float(arr.max())
    k = max(1, int(math.ceil(window_fraction * len(arr))))
    tail = float(arr[-k:].mean())
    if gamma_end < GAMMA_GAP_MIN_CLOCK:
        return GammaGapReport(
            status=INAPPLICABLE, tail_mean=tail, peak=peak,
            reason=f"gamma({gamma_end:g}) at the horizon is below {GAMMA_GAP_MIN_CLOCK:g}",
        )
    ok = tail <= GAMMA_GAP_TAIL_RATIO * peak
    return GammaGapReport(status=PASS if ok else FAIL, tail_mean=tail, peak=peak)


@dataclass(frozen=True)
class RateReport:
    """Outcome of one log-space least-squares fit.

    For the power model `fitted` is the log-log slope; passing requires
    R^2 >= 0.99 and decay at least as fast as the theoretical exponent minus
    15% slack (the published rates are upper bounds, so faster is fine).
    For the exponential model `fitted` is mu = -slope against Gamma and
    passing requires mu > 0 with the same R^2 bar.
    """

    quantity: str
    model: str
    fitted: float
    r_squared: float
    theoretical: Optional[float]
    verdict: str
    fit_window: tuple
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def _ols_loglin(xs: np.ndarray, ys: np.ndarray):
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(r2)


def _per_row(X: np.ndarray, fn) -> np.ndarray:
    """fn of X's rows, one block of rows (objectives.row_blocks) at a time,
    so that fn's temporaries stay a block's size. Each row's value is the
    one fn gives on all rows at once."""
    out = np.empty(len(X))
    for b in row_blocks(*X.shape):
        out[b] = fn(X[b])
    return out


def _series_for(traj: Trajectory, quantity: str) -> np.ndarray:
    if quantity == F_GAP:
        return traj.f_gap
    if quantity == TRAJ_ERR:
        # terminal state stands in for the unknown limit point
        return _per_row(traj.x, lambda X: np.linalg.norm(X - traj.x[-1], axis=1))
    raise InvalidInputError(f"unknown fit quantity {quantity!r}")


def _fit_window(traj: Trajectory, quantity: str, window_fraction: float):
    if not 0.0 < window_fraction <= 1.0:
        raise InvalidInputError("window_fraction must lie in (0, 1]")
    horizon = traj.horizon
    lo = max(1.0, horizon * (1.0 - window_fraction))
    # proxy error would bend the tail of traj_err, so its window stops early
    hi = horizon / 2.0 if quantity == TRAJ_ERR else horizon
    return lo, hi


def _theoretical_power(traj: Trajectory, quantity: str) -> Optional[float]:
    if not power_rates_apply(traj.problem):
        return None
    theta, alpha = traj.problem.objective.holder.theta, traj.problem.schedule.alpha
    if quantity == F_GAP:
        return -(1.0 - alpha) / (1.0 - 2.0 * theta)
    return -(1.0 - alpha) * theta / (1.0 - 2.0 * theta)


def _masked(traj, quantity, window_fraction):
    series = _series_for(traj, quantity)
    lo, hi = _fit_window(traj, quantity, window_fraction)
    mask = (traj.t >= lo - 1e-12) & (traj.t <= hi + 1e-12)
    return series, mask, (lo, hi)


def fit_power(traj: Trajectory, quantity: str, window_fraction: float = 0.5) -> RateReport:
    """OLS slope of log(quantity) against log(t) over the tail window."""
    series, mask, window = _masked(traj, quantity, window_fraction)
    theoretical = _theoretical_power(traj, quantity)
    if int(mask.sum()) < 3:
        return RateReport(quantity, POWER_MODEL, math.nan, 0.0, theoretical,
                          INAPPLICABLE, window, reason="fit window holds fewer than 3 samples")
    vals = series[mask]
    if float(vals.min()) <= 0.0:
        return RateReport(quantity, POWER_MODEL, math.nan, 0.0, theoretical,
                          INAPPLICABLE, window, reason="converged exactly")
    slope, r2 = _ols_loglin(np.log(traj.t[mask]), np.log(vals))
    verdict, reason = PASS, ""
    if r2 < R2_THRESHOLD:
        verdict, reason = FAIL, f"r_squared {r2:.4f} below {R2_THRESHOLD}"
    elif theoretical is not None and slope > theoretical * (1.0 - EXPONENT_SLACK):
        verdict = FAIL
        reason = f"decay slower than theoretical {theoretical:g} beyond {EXPONENT_SLACK:.0%} slack"
    return RateReport(quantity, POWER_MODEL, slope, r2, theoretical, verdict, window, reason)


def fit_exponential(traj: Trajectory, quantity: str, window_fraction: float = 0.5) -> RateReport:
    """OLS of log(quantity) against Gamma(t); fitted value is mu = -slope."""
    series, mask, window = _masked(traj, quantity, window_fraction)
    if int(mask.sum()) < 3:
        return RateReport(quantity, EXP_MODEL, math.nan, 0.0, None,
                          INAPPLICABLE, window, reason="fit window holds fewer than 3 samples")
    vals = series[mask]
    if float(vals.min()) <= 0.0:
        return RateReport(quantity, EXP_MODEL, math.nan, 0.0, None,
                          INAPPLICABLE, window, reason="converged exactly")
    slope, r2 = _ols_loglin(traj.gamma[mask], np.log(vals))
    mu = -slope
    verdict, reason = PASS, ""
    if r2 < R2_THRESHOLD:
        verdict, reason = FAIL, f"r_squared {r2:.4f} below {R2_THRESHOLD}"
    elif mu <= 0.0:
        verdict, reason = FAIL, "fitted mu is not positive"
    return RateReport(quantity, EXP_MODEL, mu, r2, None, verdict, window, reason)


@dataclass(frozen=True)
class ClaimVerdict:
    name: str
    status: str   # pass / fail / inapplicable
    detail: str = ""
    value: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _find_fit(fits: Sequence[RateReport], quantity: str, model: str) -> Optional[RateReport]:
    for rep in fits:
        if rep.quantity == quantity and rep.model == model:
            return rep
    return None


def _cauchy_gap(traj: Trajectory) -> float:
    mid = int(np.argmin(np.abs(traj.t - traj.horizon / 2.0)))
    return float(np.linalg.norm(traj.x[-1] - traj.x[mid]))


def _argmin_strictly_inside(domain: ConvexSet, argmin: ConvexSet) -> Optional[bool]:
    margin = 1e-9
    if isinstance(argmin, Ball):
        return contains_ball(domain, argmin.center, argmin.radius + margin)
    if isinstance(argmin, Box) and np.array_equal(argmin.lo, argmin.hi):
        return contains_ball(domain, argmin.lo, margin)
    return None


def _rate_pair_status(fits, model):
    pair = [_find_fit(fits, F_GAP, model), _find_fit(fits, TRAJ_ERR, model)]
    if any(rep is None for rep in pair):
        return INAPPLICABLE, "required fits were not computed"
    if any(rep.verdict == INAPPLICABLE for rep in pair):
        return INAPPLICABLE, "; ".join(f"{r.quantity}: {r.reason}" for r in pair
                                       if r.verdict == INAPPLICABLE)
    if all(rep.passed for rep in pair):
        return PASS, ""
    return FAIL, "; ".join(f"{r.quantity}: {r.reason}" for r in pair if not r.passed)


def _clock_bounded(schedule: Schedule) -> bool:
    """Whether the clock Gamma has a finite limit, which alpha > 1 gives."""
    return math.isfinite(schedule.gamma_limit())


def power_rates_apply(problem: FlowProblem) -> bool:
    """Whether the paper's power decay rates apply to a run of ``problem``:
    a sub-linear power clock, 0 < alpha < 1, and a certified theta below
    one half. The power fits, their theoretical slopes and claim 3 read it."""
    hol = problem.objective.holder
    return 0.0 < problem.schedule.alpha < 1.0 and hol is not None and hol.theta < 0.5


def schedule_premises(problem: FlowProblem, horizon: float, method: str) -> tuple:
    """``pgflow check``'s rows on the paper's hypotheses about lambda, as
    (label, status, evidence), the evidence taken at the run's ``horizon``.
    An Euler run, whose lambda is its constant step, gets one row.

    Each status is closed-form in alpha and the certified theta: the clock
    is unbounded iff alpha <= 1; for theta < 1/2 the tail of
    Gamma^(-q)/(1+t), q = theta/(1-2 theta), converges iff the clock is
    unbounded and, on the log clock alpha = 1, q > 1; at theta = 1/2 the
    tail of exp(-c Gamma)/(1+t) converges iff the clock is unbounded.
    """
    sched, hol = problem.schedule, problem.objective.holder
    if method == EULER:
        return (("schedule conditions", "not-applicable",
                 f"the step is the constant discrete.alpha = {sched.K:g}"),)
    theta = hol.theta if hol is not None else None
    if theta is not None and not (0 < theta <= 0.5):
        raise InvalidInputError("theta must lie in (0, 1/2] when provided")
    bounded = _clock_bounded(sched)
    clock = {"alpha": sched.alpha, "K": sched.K, "gamma_at_horizon": sched.gamma(horizon)}
    if bounded:
        clock["gamma_limit"] = sched.gamma_limit()
    lam0 = sched.value(0.0)  # lambda falls from lam0 to 0, or is constant at alpha = 0
    variation = {"total_variation": lam0 if sched.alpha > 0.0 else 0.0,
                 "abs_derivative_integral_to_horizon": lam0 - sched.value(horizon)}
    power = exp_tail = ("not-applicable", {})
    if theta is not None and theta < 0.5:
        q = theta / (1.0 - 2.0 * theta)
        ev = {"exponent": q}
        if horizon > 1.0:  # from t = 1, since Gamma^-q can be infinite at 0
            ev["tail_quadrature_from_1"] = quad(
                lambda s: sched.gamma(s) ** (-q) / (1.0 + s), 1.0, horizon)
        power = ("pass" if not bounded and (sched.alpha != 1.0 or q > 1.0) else "fail", ev)
    elif theta == 0.5:
        exp_tail = ("fail" if bounded else "pass", {
            f"quadrature_c_{c:g}": quad(lambda s, c=c: np.exp(-c * sched.gamma(s)) / (1.0 + s),
                                        0.0, horizon) for c in EXP_TAIL_CS})
    return (
        ("clock unbounded", "fail" if bounded else "pass", clock),
        # This row and "schedule monotone" hold for every K and alpha. They
        # stay only because the benchmark's check references pin every row;
        # ROADMAP items 1 and 9 delete them with a re-record.
        ("variation finite", "pass", variation),
        ("power tail integrable", *power),
        ("exp tail integrable", *exp_tail),
        ("schedule monotone", "pass", {}),
    )


def claim_premises(problem: FlowProblem, method: str) -> dict:
    """The claims a run of ``problem`` by ``method`` cannot witness, each
    with the first premise it lacks, decided before anything is integrated:
    an RK4 run on a set, a bounded clock, set symmetry and evenness, the
    argmin metadata and its interior test, the power schedule and theta,
    and an RK4 run on WholeSpace off the unit clock. Claim 5 is always
    listed. A claim missing from the result goes to its witness on the
    run. ``theorem_verdict`` reports a listed claim as inapplicable,
    ``pgflow check`` fails an expected one, and the rescaling replay runs
    only when its claim is not listed.
    """
    domain, obj, sched = problem.domain, problem.objective, problem.schedule
    hol = obj.holder
    bounded = _clock_bounded(sched)
    whole = isinstance(domain, WholeSpace)
    out = {}
    if method != RK4 or whole:
        # claims 0-2 hold on WholeSpace, Q = H, too; they stay inapplicable
        # there only because the benchmark's references pin those rows
        for name in CLAIM_NAMES[:3]:
            out[name] = "requires an RK4 run on a set other than WholeSpace"
    else:
        if bounded:
            # every shipped schedule has finite variation, so the clock decides
            out[CLAIM_NAMES[0]] = "schedule clock is bounded"
        if not (domain.is_symmetric() and obj.is_even):
            out[CLAIM_NAMES[1]] = "needs an origin-symmetric set and an even objective"
        if obj.optimum is None:
            out[CLAIM_NAMES[2]] = "objective carries no argmin metadata"
        else:
            inside = _argmin_strictly_inside(domain, obj.optimum.argmin)
            if inside is None:
                out[CLAIM_NAMES[2]] = "no interior test for this argmin shape"
            elif not inside:
                out[CLAIM_NAMES[2]] = "argmin is not strictly inside the set"
    if not power_rates_apply(problem):
        out[CLAIM_NAMES[3]] = "needs a sub-linear power schedule and theta below one half"
    if hol is None or hol.theta != 0.5:
        out[CLAIM_NAMES[4]] = "needs a certified theta of exactly one half"
    elif bounded:
        out[CLAIM_NAMES[4]] = "schedule clock is bounded"
    out[CLAIM_NAMES[5]] = STATIONARY_REASON
    if method != RK4 or not whole:
        out[CLAIM_NAMES[6]] = "requires an RK4 run on WholeSpace"
    elif sched.alpha == 0.0 and sched.K == 1.0:
        out[CLAIM_NAMES[6]] = "the unit clock has nothing to rescale"
    return out


def _witness(name: str, traj: Trajectory, fits, reparam_gap) -> ClaimVerdict:
    """The verdict of one claim whose premises hold, read off the run."""
    if name == CLAIM_NAMES[0]:
        gg = traj.gamma * np.maximum(traj.f_gap, 0.0)
        rep = check_gamma_gap_limit(gg, float(traj.gamma[-1]))
        detail = rep.reason or f"tail mean {rep.tail_mean:.3e} vs peak {rep.peak:.3e}"
        return ClaimVerdict(name, rep.status, detail, rep.tail_mean)
    if name in CLAIM_NAMES[1:3]:
        gap = _cauchy_gap(traj)
        return ClaimVerdict(name, PASS if gap <= CAUCHY_TOL else FAIL,
                            f"terminal Cauchy gap {gap:.3e}", gap)
    if name == CLAIM_NAMES[3]:
        return ClaimVerdict(name, *_rate_pair_status(fits, POWER_MODEL))
    if name == CLAIM_NAMES[4]:
        return ClaimVerdict(name, *_rate_pair_status(fits, EXP_MODEL))
    if reparam_gap is None:
        return ClaimVerdict(name, INAPPLICABLE, "no rescaling comparison was supplied")
    return ClaimVerdict(name, PASS if reparam_gap <= RESCALING_TOL else FAIL,
                        f"max interpolation gap {reparam_gap:.3e}", reparam_gap)


def theorem_verdict(
    traj: Trajectory,
    fits: Sequence[RateReport] = (),
    *,
    reparam_gap: Optional[float] = None,
) -> tuple:
    """Map one run onto the convergence claims it can witness.

    Each claim is pass, fail, or inapplicable with a reason; inapplicable
    means the run's premises, its problem and recorded method, do not
    match the claim (see claim_premises), never that it failed.
    """
    premises = claim_premises(traj.problem, traj.method)
    return tuple(ClaimVerdict(name, INAPPLICABLE, premises[name]) if name in premises
                 else _witness(name, traj, fits, reparam_gap)
                 for name in CLAIM_NAMES)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


def write_report_csv(path, fits: Sequence[RateReport], claims: Sequence[ClaimVerdict] = ()) -> None:
    """Serialize fit rows and claim rows under the shared 7-column header;
    the last column is a fit's reason or a claim's detail."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER.split(","))
        for rep in fits:
            writer.writerow([rep.quantity, rep.model, _cell(rep.fitted),
                             _cell(rep.theoretical), _cell(rep.r_squared), rep.verdict, rep.reason])
        for claim in claims:
            writer.writerow([claim.name, "claim", _cell(claim.value), "", "", claim.status,
                             claim.detail])
