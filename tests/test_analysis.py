"""Diagnostics and rate-fit behavior, anchored on closed forms and synthetic data."""

import dataclasses
import math

import numpy as np
import pytest

from pgflow.analysis import (
    CAUCHY_TOL,
    CLAIM_NAMES,
    EXP_MODEL,
    F_GAP,
    FAIL,
    INAPPLICABLE,
    PASS,
    POWER_MODEL,
    REPORT_HEADER,
    STATIONARY_REASON,
    TRAJ_ERR,
    ClaimVerdict,
    RateReport,
    check_gamma_gap_limit,
    check_monotone,
    claim_premises,
    diagnostics,
    fit_exponential,
    fit_power,
    theorem_verdict,
    write_report_csv,
)
from pgflow.errors import InvalidInputError
from pgflow.flow import ANALYTIC, EULER, RK4, FlowProblem, Trajectory, integrate
from pgflow.geometry import Ball, Box, WholeSpace
from pgflow.objectives import (
    Desingularizer,
    Optimum,
    flat_bottom,
    make_power_objective,
    quadratic,
    singleton,
)
from pgflow.schedules import Constant, Power, PowerGE1


def synth_traj(t, f_gap, problem, x=None, gamma=None):
    t = np.asarray(t, dtype=float)
    n = len(t)
    if x is None:
        x = np.zeros((n, problem.objective.dim))
    if gamma is None:
        if problem.schedule is not None:
            gamma = np.array([problem.schedule.gamma(float(s)) for s in t])
        else:
            gamma = t.copy()
    return Trajectory(
        t=t,
        x=np.asarray(x, dtype=float),
        f_gap=np.asarray(f_gap, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        feas_drift=np.zeros(n),
        speed=np.zeros(n),
        dist_argmin=None,
        problem=problem,
        f_star_source=ANALYTIC,
    )


def wholespace_problem(schedule=Power(K=1.0, alpha=0.5), x0=(1.0, 0.0)):
    return FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]), schedule, list(x0))


class TestDiagnostics:
    def test_stationary_run_all_series_zero(self):
        obj = quadratic([1.0, 2.0])
        prob = FlowProblem(WholeSpace(2), obj, Constant(K=1.0), [1.0, 2.0])
        traj = integrate(prob, horizon=1.0, step=1e-2, sample_every=0.1)
        series = diagnostics(traj, [1.0, 2.0], desing=Desingularizer(1.0, 0.5))
        assert np.all(series.phi_z == 0.0)
        assert np.all(series.psi == 0.0)
        assert np.all(series.gamma_gap == 0.0)
        assert np.all(series.lojasiewicz_h == 0.0)

    def test_closed_form_phi_and_psi(self):
        # x(t) = e^{-2t} x0 so phi = 0.5 e^{-4t} and psi = 1.5 e^{-4t}
        prob = wholespace_problem(schedule=Constant(K=1.0))
        traj = integrate(prob, horizon=1.0, step=1e-3, sample_every=0.1)
        series = diagnostics(traj, [0.0, 0.0])
        expect_phi = 0.5 * np.exp(-4.0 * traj.t)
        expect_psi = 1.5 * np.exp(-4.0 * traj.t)
        assert np.max(np.abs(series.phi_z - expect_phi)) <= 1e-5
        assert np.max(np.abs(series.psi - expect_psi)) <= 1e-5

    def test_gamma_gap_uses_trajectory_clock(self):
        prob = wholespace_problem(schedule=Constant(K=1.0))
        traj = integrate(prob, horizon=1.0, step=1e-3, sample_every=0.1)
        series = diagnostics(traj, [0.0, 0.0])
        assert np.allclose(series.gamma_gap, traj.t * np.maximum(traj.f_gap, 0.0), atol=1e-15)

    def test_lojasiewicz_series_is_phi_of_gap(self):
        prob = wholespace_problem(schedule=Constant(K=1.0))
        traj = integrate(prob, horizon=1.0, step=1e-3, sample_every=0.1)
        series = diagnostics(traj, [0.0, 0.0], desing=Desingularizer(1.0, 0.5))
        expect = 2.0 * np.sqrt(np.maximum(traj.f_gap, 0.0))
        assert np.max(np.abs(series.lojasiewicz_h - expect)) <= 1e-12

    def test_reference_dimension_mismatch(self):
        prob = wholespace_problem(schedule=Constant(K=1.0))
        traj = integrate(prob, horizon=0.5, step=1e-2, sample_every=0.1)
        with pytest.raises(InvalidInputError):
            diagnostics(traj, [0.0, 0.0, 0.0])

    def test_psi_monotone_on_projected_run(self):
        prob = FlowProblem(
            Box([-1.0, -1.0], [1.0, 1.0]), quadratic([0.0, 0.0]),
            Power(K=1.0, alpha=0.5), [0.9, -0.6],
        )
        traj = integrate(prob, horizon=5.0, step=1e-3, sample_every=0.05)
        series = diagnostics(traj, [0.0, 0.0])
        assert check_monotone(series.psi, 1e-8).passed
        assert check_monotone(traj.f_gap, 1e-8).passed


class TestCheckMonotone:
    def test_decreasing_passes_tol_zero(self):
        rep = check_monotone([3.0, 2.0, 1.0], 0.0)
        assert rep.passed and rep.max_violation == 0.0

    def test_sub_tolerance_bump_passes(self):
        assert check_monotone([1.0, 1.0 + 1e-12, 0.0], 1e-9).passed

    def test_real_bump_fails_with_violation(self):
        rep = check_monotone([0.0, 1.0, 0.0], 1e-9)
        assert not rep.passed
        assert rep.max_violation == 1.0

    def test_single_sample_passes(self):
        assert check_monotone([5.0], 0.0).passed

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            check_monotone([], 1e-9)


class TestGammaGapLimit:
    def test_decaying_product_passes(self):
        t = np.linspace(0.0, 50.0, 501)
        rep = check_gamma_gap_limit(t * np.exp(-4.0 * t), gamma_end=50.0)
        assert rep.status == PASS

    def test_constant_series_fails(self):
        rep = check_gamma_gap_limit(np.ones(200), gamma_end=50.0)
        assert rep.status == FAIL

    def test_all_zero_passes(self):
        assert check_gamma_gap_limit(np.zeros(100), gamma_end=50.0).status == PASS

    def test_short_clock_inapplicable(self):
        rep = check_gamma_gap_limit(np.zeros(100), gamma_end=5.0)
        assert rep.status == INAPPLICABLE
        assert "below" in rep.reason

    def test_bad_window_fraction(self):
        with pytest.raises(InvalidInputError):
            check_gamma_gap_limit(np.ones(10), gamma_end=50.0, window_fraction=0.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            check_gamma_gap_limit([], gamma_end=50.0)


class TestFitPower:
    def test_recovers_pure_power_law(self):
        t = np.linspace(5.0, 50.0, 451)
        traj = synth_traj(t, 1.0 / t, wholespace_problem())
        rep = fit_power(traj, F_GAP, window_fraction=0.9)
        assert abs(rep.fitted - (-1.0)) <= 1e-6
        assert rep.r_squared >= 1.0 - 1e-12
        assert rep.verdict == PASS

    def test_theoretical_exponents_for_quarter_theta(self):
        obj = make_power_objective(quadratic([0.0, 0.0]), theta=0.25)
        prob = FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), obj,
                           Power(K=1.0, alpha=0.5), [1.0, 0.8])
        t = np.linspace(1.0, 200.0, 400)
        traj = synth_traj(t, t ** -1.2, prob)
        assert fit_power(traj, F_GAP, 0.6).theoretical == pytest.approx(-1.0)
        assert fit_power(traj, TRAJ_ERR, 0.6).theoretical == pytest.approx(-0.25)

    def test_faster_decay_than_theoretical_passes(self):
        obj = make_power_objective(quadratic([0.0, 0.0]), theta=0.25)
        prob = FlowProblem(WholeSpace(2), obj, Power(K=1.0, alpha=0.5), [1.0, 0.8])
        t = np.linspace(1.0, 100.0, 300)
        rep = fit_power(synth_traj(t, t ** -1.2, prob), F_GAP, 0.8)
        assert rep.verdict == PASS

    def test_slower_decay_fails_one_sided(self):
        obj = make_power_objective(quadratic([0.0, 0.0]), theta=0.25)
        prob = FlowProblem(WholeSpace(2), obj, Power(K=1.0, alpha=0.5), [1.0, 0.8])
        t = np.linspace(1.0, 100.0, 300)
        rep = fit_power(synth_traj(t, t ** -0.5, prob), F_GAP, 0.8)
        assert rep.verdict == FAIL
        assert "slower" in rep.reason

    def test_low_r_squared_fails(self):
        t = np.linspace(5.0, 50.0, 451)
        noisy = (1.0 / t) * (1.0 + 0.5 * np.sin(7.0 * t))
        rep = fit_power(synth_traj(t, noisy, wholespace_problem()), F_GAP, 0.9)
        assert rep.verdict == FAIL
        assert "r_squared" in rep.reason

    def test_exact_zero_in_window_inapplicable(self):
        t = np.linspace(0.0, 50.0, 101)
        rep = fit_power(synth_traj(t, np.zeros(101), wholespace_problem()), F_GAP, 0.5)
        assert rep.verdict == INAPPLICABLE
        assert rep.reason == "converged exactly"
        assert math.isnan(rep.fitted)

    def test_traj_err_window_capped_at_half_horizon(self):
        t = np.linspace(0.0, 100.0, 201)
        traj = synth_traj(t, np.ones(201), wholespace_problem())
        rep = fit_power(traj, TRAJ_ERR, 0.9)
        assert rep.fit_window == (pytest.approx(10.0), 50.0)

    def test_quadratic_schedule_pair_has_no_theoretical(self):
        # theta = 1/2 certificates leave the power-model target undefined
        t = np.linspace(5.0, 50.0, 100)
        rep = fit_power(synth_traj(t, 1.0 / t, wholespace_problem()), F_GAP, 0.9)
        assert rep.theoretical is None

    def test_window_fraction_validated(self):
        t = np.linspace(1.0, 10.0, 10)
        traj = synth_traj(t, 1.0 / t, wholespace_problem())
        with pytest.raises(InvalidInputError):
            fit_power(traj, F_GAP, 0.0)

    def test_unknown_quantity_rejected(self):
        t = np.linspace(1.0, 10.0, 10)
        traj = synth_traj(t, 1.0 / t, wholespace_problem())
        with pytest.raises(InvalidInputError):
            fit_power(traj, "speed", 0.5)

    def test_tiny_window_inapplicable(self):
        t = np.array([0.0, 30.0, 100.0])
        rep = fit_power(synth_traj(t, np.ones(3), wholespace_problem()), F_GAP, 0.1)
        assert rep.verdict == INAPPLICABLE
        assert "fewer than 3" in rep.reason


class TestFitExponential:
    def test_recovers_pure_exponential_in_gamma(self):
        # Constant schedule makes Gamma(t) = t, so mu should come back as 3
        t = np.linspace(0.0, 50.0, 501)
        prob = wholespace_problem(schedule=Constant(K=1.0))
        rep = fit_exponential(synth_traj(t, np.exp(-3.0 * t), prob), F_GAP, window_fraction=0.9)
        assert abs(rep.fitted - 3.0) <= 1e-6
        assert rep.r_squared >= 1.0 - 1e-12
        assert rep.verdict == PASS

    def test_integrated_quadratic_recovers_four(self):
        prob = wholespace_problem(schedule=Constant(K=1.0))
        traj = integrate(prob, horizon=5.0, step=1e-3, sample_every=0.1)
        rep = fit_exponential(traj, F_GAP, window_fraction=0.9)
        assert abs(rep.fitted - 4.0) <= 1e-4
        assert rep.verdict == PASS

    def test_constant_series_fails_mu_zero(self):
        t = np.linspace(0.0, 50.0, 100)
        prob = wholespace_problem(schedule=Constant(K=1.0))
        rep = fit_exponential(synth_traj(t, np.ones(100), prob), F_GAP, window_fraction=0.9)
        assert rep.fitted == 0.0
        assert rep.verdict == FAIL
        assert "positive" in rep.reason

    def test_zero_in_window_inapplicable(self):
        t = np.linspace(0.0, 50.0, 100)
        prob = wholespace_problem(schedule=Constant(K=1.0))
        rep = fit_exponential(synth_traj(t, np.zeros(100), prob), F_GAP, window_fraction=0.5)
        assert rep.verdict == INAPPLICABLE


class TestTheoremVerdict:
    def claim(self, verdicts, name):
        match = [v for v in verdicts if v.name == name]
        assert len(match) == 1
        return match[0]

    def test_bounded_clock_disables_gap_claim(self):
        prob = FlowProblem(Ball([0.0, 0.0], 1.0), quadratic([0.0, 0.0]),
                           PowerGE1(K=1.0, alpha=2.0), [0.5, 0.0])
        traj = integrate(prob, horizon=2.0, step=1e-2, sample_every=0.1)
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[0])
        assert v.status == INAPPLICABLE
        assert "schedule" in v.detail

    def test_short_horizon_gap_claim_inapplicable(self):
        prob = FlowProblem(Ball([0.0, 0.0], 1.0), quadratic([0.0, 0.0]),
                           Power(K=1.0, alpha=0.5), [0.5, 0.0])
        traj = integrate(prob, horizon=2.0, step=1e-2, sample_every=0.1)
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[0])
        assert v.status == INAPPLICABLE

    def test_symmetric_even_strong_convergence_passes(self):
        prob = FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), quadratic([0.0, 0.0]),
                           Power(K=1.0, alpha=0.5), [0.5, -0.5])
        traj = integrate(prob, horizon=40.0, step=1e-2, sample_every=0.1)
        verdicts = theorem_verdict(traj)
        sym = self.claim(verdicts, CLAIM_NAMES[1])
        assert sym.status == PASS
        assert sym.value <= CAUCHY_TOL
        gap_claim = self.claim(verdicts, CLAIM_NAMES[0])
        assert gap_claim.status == PASS  # Gamma(40) > 10 and the tail is flat

    def test_asymmetric_set_makes_even_claim_inapplicable(self):
        prob = FlowProblem(Box([0.0, 0.0], [1.0, 1.0]), quadratic([0.0, 0.0]),
                           Power(K=1.0, alpha=0.5), [0.5, 0.5])
        traj = integrate(prob, horizon=1.0, step=1e-2, sample_every=0.1)
        assert self.claim(theorem_verdict(traj), CLAIM_NAMES[1]).status == INAPPLICABLE

    def test_interior_argmin_strong_convergence(self):
        prob = FlowProblem(Ball([0.0, 0.0], 2.0), flat_bottom([0.0, 0.0], 0.5),
                           Power(K=1.0, alpha=0.5), [1.5, 1.0])
        traj = integrate(prob, horizon=40.0, step=1e-2, sample_every=0.1)
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[2])
        assert v.status == PASS

    def test_boundary_argmin_inapplicable(self):
        import dataclasses
        obj = dataclasses.replace(quadratic([2.0, 0.0]),
                                  optimum=Optimum(1.0, singleton([1.0, 0.0])))
        prob = FlowProblem(Ball([0.0, 0.0], 1.0), obj, Power(K=1.0, alpha=0.5), [0.0, 0.0])
        traj = integrate(prob, horizon=2.0, step=1e-2, sample_every=0.1)
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[2])
        assert v.status == INAPPLICABLE
        assert "strictly inside" in v.detail

    def test_power_rate_claim_follows_fit_pair(self):
        obj = make_power_objective(quadratic([0.0, 0.0]), theta=0.25)
        prob = FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), obj,
                           Power(K=1.0, alpha=0.5), [1.0, 0.8])
        t = np.linspace(1.0, 200.0, 400)
        traj = synth_traj(t, t ** -1.2, prob, x=np.zeros((400, 2)))
        good = RateReport(F_GAP, POWER_MODEL, -1.2, 0.999, -1.0, PASS, (80.0, 200.0))
        bad = RateReport(TRAJ_ERR, POWER_MODEL, -0.1, 0.999, -0.25, FAIL, (80.0, 100.0), "slow")
        assert self.claim(theorem_verdict(traj, fits=[good, bad]), CLAIM_NAMES[3]).status == FAIL
        good2 = RateReport(TRAJ_ERR, POWER_MODEL, -0.3, 0.999, -0.25, PASS, (80.0, 100.0))
        assert self.claim(theorem_verdict(traj, fits=[good, good2]), CLAIM_NAMES[3]).status == PASS
        assert self.claim(theorem_verdict(traj, fits=[good]), CLAIM_NAMES[3]).status == INAPPLICABLE

    def test_exponential_claim_needs_unbounded_clock(self):
        prob = FlowProblem(Ball([0.0, 0.0], 1.0), quadratic([0.0, 0.0]),
                           PowerGE1(K=1.0, alpha=2.0), [0.5, 0.0])
        traj = integrate(prob, horizon=1.0, step=1e-2, sample_every=0.1)
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[4])
        assert v.status == INAPPLICABLE
        assert "bounded" in v.detail

    def test_stationary_claim_is_never_witnessed(self):
        # an argmin start stays put, yet the claim tests no theorem of the
        # paper, which assumes theta in (0, 1/2]
        prob = FlowProblem(WholeSpace(2), quadratic([1.0, -1.0]),
                           Power(K=1.0, alpha=0.5), [1.0, -1.0])
        traj = integrate(prob, horizon=2.0, step=1e-2, sample_every=0.1)
        assert np.all(traj.x == traj.x[0])
        v = self.claim(theorem_verdict(traj), CLAIM_NAMES[5])
        assert (v.status, v.detail, v.value) == (INAPPLICABLE, STATIONARY_REASON, None)

    def test_rescaling_claim_thresholds(self):
        prob = wholespace_problem()
        traj = integrate(prob, horizon=1.0, step=1e-2, sample_every=0.1)
        assert self.claim(theorem_verdict(traj, reparam_gap=1e-6), CLAIM_NAMES[6]).status == PASS
        assert self.claim(theorem_verdict(traj, reparam_gap=1e-3), CLAIM_NAMES[6]).status == FAIL
        assert self.claim(theorem_verdict(traj), CLAIM_NAMES[6]).status == INAPPLICABLE

    def test_rescaling_claim_requires_an_rk4_run_on_wholespace(self):
        on_ball = FlowProblem(Ball([0.0, 0.0], 2.0), quadratic([0.0, 0.0]),
                              Power(K=1.0, alpha=0.5), [1.0, 0.0])
        runs = (integrate(on_ball, horizon=1.0, step=1e-2, sample_every=0.1),
                integrate(wholespace_problem(), horizon=2.0, step=1.0, sample_every=1.0,
                          method=EULER))
        for traj in runs:
            v = self.claim(theorem_verdict(traj, reparam_gap=1e-6), CLAIM_NAMES[6])
            assert (v.status, v.detail) == (INAPPLICABLE, "requires an RK4 run on WholeSpace")

    def test_every_claim_reported_once(self):
        prob = wholespace_problem()
        traj = integrate(prob, horizon=1.0, step=1e-2, sample_every=0.1)
        verdicts = theorem_verdict(traj)
        assert tuple(v.name for v in verdicts) == CLAIM_NAMES


SYM_BOX = Box([-1.0, -1.0], [1.0, 1.0])
QUARTER = make_power_objective(quadratic([0.0, 0.0]), theta=0.25)

ON_SET = "requires an RK4 run on a set other than WholeSpace"
ON_WHOLESPACE = "requires an RK4 run on WholeSpace"

# claim index, reason, then the changes to a base run (RK4 on SYM_BOX,
# quadratic centred at 0, Power(1, 1/2)) that make the run lack that one
# premise, and the changes that give a run that has it
PREMISE_CASES = {
    "wholespace": (0, ON_SET, {"domain": WholeSpace(2)}, {}),
    "wholespace-symmetric": (1, ON_SET, {"domain": WholeSpace(2)}, {}),
    "wholespace-interior": (2, ON_SET, {"domain": WholeSpace(2)}, {}),
    "euler": (0, ON_SET, {"method": EULER}, {}),
    "euler-symmetric": (1, ON_SET, {"method": EULER}, {}),
    "euler-interior": (2, ON_SET, {"method": EULER}, {}),
    "gap-clock": (0, "schedule clock is bounded", {"schedule": PowerGE1(K=1.0, alpha=2.0)}, {}),
    "symmetric": (1, "needs an origin-symmetric set and an even objective",
                  {"domain": Box([-1.0, -1.0], [2.0, 2.0])}, {}),
    "argmin-metadata": (2, "objective carries no argmin metadata",
                        {"objective": dataclasses.replace(quadratic([0.0, 0.0]), optimum=None)}, {}),
    "argmin-shape": (2, "no interior test for this argmin shape",
                     {"objective": dataclasses.replace(
                         quadratic([0.0, 0.0]),
                         optimum=Optimum(0.0, Box([-0.1, -0.1], [0.1, 0.1])))}, {}),
    "argmin-boundary": (2, "argmin is not strictly inside the set",
                        {"domain": Box([0.0, -1.0], [1.0, 1.0])}, {}),
    "power-schedule": (3, "needs a sub-linear power schedule and theta below one half",
                       {"objective": QUARTER, "schedule": Constant(K=1.0)}, {"objective": QUARTER}),
    "half-theta": (4, "needs a certified theta of exactly one half", {"objective": QUARTER}, {}),
    "exp-clock": (4, "schedule clock is bounded", {"schedule": PowerGE1(K=1.0, alpha=2.0)}, {}),
    "rescaling-set": (6, ON_WHOLESPACE, {}, {"domain": WholeSpace(2)}),
    "rescaling-euler": (6, ON_WHOLESPACE, {"domain": WholeSpace(2), "method": EULER},
                        {"domain": WholeSpace(2)}),
    "unit-clock": (6, "the unit clock has nothing to rescale",
                   {"domain": WholeSpace(2), "schedule": Constant(K=1.0)},
                   {"domain": WholeSpace(2), "schedule": Constant(K=2.0)}),
}


def premise_run(method=RK4, domain=SYM_BOX, objective=quadratic([0.0, 0.0]),
                schedule=Power(K=1.0, alpha=0.5)):
    """The problem, the method and a short run of it."""
    problem = FlowProblem(domain, objective, schedule, [0.5, 0.0])
    grid = (dict(horizon=1.0, step=1.0, sample_every=1.0) if method == EULER
            else dict(horizon=1.0, step=0.05, sample_every=0.1))
    return problem, method, integrate(problem, method=method, **grid)


class TestClaimPremises:
    @pytest.mark.parametrize("index, reason, lacking, control", PREMISE_CASES.values(),
                             ids=PREMISE_CASES.keys())
    def test_each_premise_is_the_reported_reason(self, index, reason, lacking, control):
        claim = CLAIM_NAMES[index]
        for changes, lacks in ((lacking, True), (control, False)):
            problem, method, traj = premise_run(**changes)
            assert claim_premises(problem, method).get(claim) == (reason if lacks else None)
            verdict = theorem_verdict(traj)[index]
            assert verdict.name == claim
            if lacks:
                assert (verdict.status, verdict.detail) == (INAPPLICABLE, reason)
            else:
                assert verdict.detail != reason

    @pytest.mark.parametrize("method", [RK4, EULER])
    def test_the_stationary_claim_is_always_listed(self, method):
        problem, _, _ = premise_run(method=method, domain=WholeSpace(2))
        assert claim_premises(problem, method)[CLAIM_NAMES[5]] == STATIONARY_REASON


class TestLojasiewiczEnvelope:
    def test_unscaled_quadratic_respects_closed_form_bound(self):
        # kappa = 1, theta = 1/2: h(t) must stay under h(0) e^{-2t} + 1e-6
        prob = FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]), Constant(K=1.0), [1.0, 0.0])
        traj = integrate(prob, horizon=5.0, step=1e-3, sample_every=0.05)
        series = diagnostics(traj, [0.0, 0.0], desing=Desingularizer(1.0, 0.5))
        bound = series.lojasiewicz_h[0] * np.exp(-2.0 * traj.t) + 1e-6
        assert np.all(series.lojasiewicz_h <= bound)


class TestReportCsv:
    def test_golden_serialization(self, tmp_path):
        fits = [
            RateReport(F_GAP, POWER_MODEL, -1.125, 0.9995, -1.0, PASS, (80.0, 200.0)),
            RateReport(TRAJ_ERR, EXP_MODEL, float("nan"), 0.0, None, INAPPLICABLE,
                       (1.0, 10.0), "converged exactly"),
        ]
        claims = [ClaimVerdict(CLAIM_NAMES[1], PASS, "cauchy", 5e-7)]
        path = tmp_path / "report.csv"
        write_report_csv(path, fits, claims)
        text = path.read_text(encoding="utf-8").strip().splitlines()
        assert text[0] == REPORT_HEADER
        assert text[1] == "f_gap,power-in-t,-1.125,-1.0,0.9995,pass,"
        assert text[2] == "traj_err,exp-in-Gamma,,,0.0,inapplicable,converged exactly"
        assert text[3] == "strong_convergence_symmetric_even,claim,5e-07,,,pass,cauchy"

    def test_deterministic_bytes(self, tmp_path):
        fits = [RateReport(F_GAP, POWER_MODEL, -1.0, 1.0, -1.0, PASS, (1.0, 2.0))]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, fits)
        write_report_csv(b, fits)
        assert a.read_bytes() == b.read_bytes()
