"""Integrator against closed-form solutions, the discrete iteration
against its written-out loop, and the trajectory record contract."""

import dataclasses
import functools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgflow import flow
from pgflow.config import build_config, load_config
from pgflow.errors import DivergenceError, InvalidInputError
from pgflow.flow import (
    PROJECTED_STEP_MAX,
    FlowProblem,
    _sample_grid,
    integrate,
    reparam_check,
    write_trajectory_csv,
)
from pgflow.geometry import (
    FLOAT_MAX_DIM,
    AffineHyperplane,
    Ball,
    Box,
    HalfSpace,
    Simplex,
    WholeSpace,
    _row_norms,
)
from pgflow.objectives import (
    Objective,
    even_quartic,
    flat_bottom,
    make_power_objective,
    quadratic,
)
from pgflow.schedules import Constant, Power, PowerGE1, Schedule


def unit_quadratic(dim=2):
    return quadratic(np.zeros(dim))


def rhs(problem, t, x):
    """The vector field F(t, x) at one state x, from the row field flow._field."""
    return flow._field(problem)(problem.schedule.value(t), np.asarray(x, dtype=float)[None])[0]


class TestRhs:
    def test_projected_on_whole_space(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        np.testing.assert_allclose(rhs(p, 0.0, [1.0, 0.0]), [-2.0, 0.0])

    def test_projected_with_active_box(self):
        # f = x^2/2 on [1,2]: from 1.5 the pull is toward P(0) = 1.
        f = quadratic([0.0], diag=[0.5])
        p = FlowProblem(Box([1.0], [2.0]), f, Constant(K=1.0), [1.5])
        np.testing.assert_allclose(rhs(p, 0.0, [1.5]), [-0.5])

    def test_unscaled(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 1.0])
        np.testing.assert_allclose(rhs(p, 3.0, [1.0, 1.0]), [-2.0, -2.0])

    def test_scaled_uses_schedule(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Power(K=1.0, alpha=0.5), [1.0, 0.0])
        np.testing.assert_allclose(rhs(p, 3.0, [1.0, 0.0]), [-1.0, 0.0])  # lambda(3) = 1/2

    def test_discrete_field_takes_its_step_as_lambda(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=0.25), [1.0, 0.0])
        np.testing.assert_allclose(rhs(p, 3.0, [1.0, 0.0]), [-0.5, 0.0])


class TestProblemValidation:
    def test_infeasible_start_rejected(self):
        # the problem can be built, so `check` can report the start as a failing row
        f, x0 = unit_quadratic(), [2.0, 0.0]
        with pytest.raises(InvalidInputError, match="feasible set"):
            integrate(FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), x0))
        with pytest.raises(InvalidInputError, match="feasible set"):
            iterate(Ball([0.0, 0.0], 1.0), f, 0.1, 1, x0)

    def test_discrete_takes_no_schedule(self):
        # its clock is Constant(K=discrete.alpha)
        pairs = {"problem.set": "wholespace", "set.dim": "2", "problem.objective": "quadratic",
                 "objective.center": "0,0", "problem.x0": "1,0", "problem.system": "discrete",
                 "discrete.alpha": "0.1", "discrete.steps": "3"}
        assert build_config(pairs).problem.schedule == Constant(K=0.1)
        with pytest.raises(InvalidInputError, match="takes no schedule"):
            build_config({**pairs, "problem.schedule": "constant"})

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            FlowProblem(Box([-1.0], [1.0]), unit_quadratic(2), Constant(K=1.0), [0.5])

    def test_unscaled_takes_no_schedule(self):
        # unscaled is a config spelling of the scaled system on the unit clock
        pairs = {"problem.set": "wholespace", "set.dim": "2", "problem.objective": "quadratic",
                 "objective.center": "0,0", "problem.x0": "1,0", "problem.system": "unscaled"}
        assert build_config(pairs).problem.schedule == Constant(K=1.0)
        with pytest.raises(InvalidInputError, match="unit clock"):
            build_config({**pairs, "problem.schedule": "constant"})

    def test_unknown_method(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [0.0, 0.0])
        with pytest.raises(InvalidInputError, match="unknown method 'leapfrog'"):
            integrate(p, method="leapfrog")

    def test_a_trajectory_records_its_method(self):
        # the same problem runs either way; only the numerics name the method
        p = FlowProblem(Ball([0.0, 0.0], 1.0), unit_quadratic(), Constant(K=0.1), [0.5, 0.0])
        assert integrate(p, horizon=2.0, step=0.5, sample_every=1.0).method == flow.RK4
        euler = integrate(p, horizon=2.0, step=1.0, sample_every=1.0, method=flow.EULER)
        assert euler.method == flow.EULER
        np.testing.assert_array_equal(euler.x[1], p.domain.project(p.x0 - 0.1 * 2.0 * p.x0))


class TestAnalyticSolutions:
    def test_whole_space_quadratic(self):
        # x' = P(x - 2x) - x = -2x, so x(1) = exp(-2) x0
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        traj = integrate(p, horizon=1.0, step=1e-3)
        expected = math.exp(-2.0) * np.array([1.0, 0.0])
        assert np.linalg.norm(traj.x[-1] - expected) <= 1e-6

    def test_active_box_clamp(self):
        # f = x^2/2 from x0 = 2 on [1,2]: x' = 1 - x, x(1) = 1 + exp(-1)
        f = quadratic([0.0], diag=[0.5])
        p = FlowProblem(Box([1.0], [2.0]), f, Constant(K=1.0), [2.0])
        traj = integrate(p, horizon=1.0, step=1e-3)
        assert abs(traj.x[-1][0] - (1.0 + math.exp(-1.0))) <= 1e-6

    def test_fourth_order_convergence(self):
        # truncation dominates rounding at coarse steps, so halving ~ 16x
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        expected = math.exp(-2.0) * np.array([1.0, 0.0])
        errs = []
        for step in (0.05, 0.025):
            traj = integrate(p, horizon=1.0, step=step, sample_every=0.5)
            errs.append(np.linalg.norm(traj.x[-1] - expected))
        assert errs[0] / errs[1] >= 12.0

    def test_stationary_start_is_exactly_fixed(self):
        f = quadratic([0.25, -0.5])
        p = FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), f, Power(K=1.0, alpha=0.5), [0.25, -0.5])
        traj = integrate(p, horizon=5.0, step=0.01)
        assert np.all(traj.x == np.array([0.25, -0.5]))
        assert np.all(traj.speed == 0.0)

    def test_ball_boundary_ride(self):
        # constrained quadratic pulled at (2,0): clamp keeps x = (1-e^-t) e1
        f = quadratic([2.0, 0.0])
        p = FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), [0.0, 0.0])
        traj = integrate(p, horizon=3.0, step=1e-3)
        expected = (1.0 - np.exp(-traj.t))[:, None] * np.array([1.0, 0.0])
        assert np.max(np.linalg.norm(traj.x - expected, axis=1)) <= 1e-6


class TestTrajectoryRecord:
    def make(self, horizon=2.0, sample_every=0.1):
        f = quadratic([2.0, 0.0])
        p = FlowProblem(Ball([0.0, 0.0], 1.0), f, Power(K=1.0, alpha=0.5), [0.0, 0.0])
        return integrate(p, horizon=horizon, step=1e-3, sample_every=sample_every)

    def test_sample_alignment(self):
        traj = self.make(horizon=1.0)
        np.testing.assert_allclose(traj.t, np.arange(11) * 0.1, atol=1e-12)

    def test_partial_final_sample(self):
        traj = self.make(horizon=0.35)
        np.testing.assert_allclose(traj.t, [0.0, 0.1, 0.2, 0.3, 0.35], atol=1e-12)

    def test_time_strictly_increasing(self):
        traj = self.make()
        assert np.all(np.diff(traj.t) > 0)

    def test_gamma_matches_schedule(self):
        traj = self.make()
        sched = traj.problem.schedule
        expected = np.array([sched.gamma(t) for t in traj.t])
        np.testing.assert_allclose(traj.gamma, expected, atol=1e-9)

    def test_gap_floor_and_drift_sign(self):
        traj = self.make()
        assert np.all(traj.f_gap >= -1e-10)
        assert np.all(traj.feas_drift >= 0.0)

    def test_feasibility_of_samples(self):
        traj = self.make()
        ball = traj.problem.domain
        for row in traj.x:
            assert ball.residual(row) <= 1e-10

    def test_dist_argmin_present_with_metadata(self):
        traj = self.make()
        # constrained minimizer is (1,0) but metadata tracks the free argmin (2,0)
        assert traj.dist_argmin is not None
        assert traj.f_star_source == "analytic"

    def test_best_seen_fallback_is_flagged(self):
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=1, name="bare")
        p = FlowProblem(WholeSpace(1), bare, Constant(K=1.0), [1.0])
        traj = integrate(p, horizon=1.0, step=0.01)
        assert traj.f_star_source == "best-seen (diagnostic-only)"
        assert traj.dist_argmin is None
        assert np.all(traj.f_gap >= 0.0)

    def test_divergence_guard_names_time(self):
        # gradient ascent in disguise: y' = +2y blows past 1e12 near t = 13.9
        runaway = Objective(fn=lambda x: -float(x @ x), grad_fn=lambda x: -2.0 * x, dim=1, name="runaway")
        p = FlowProblem(WholeSpace(1), runaway, Constant(K=1.0), [1.0])
        with pytest.raises(DivergenceError) as exc:
            integrate(p, horizon=20.0, step=0.01)
        assert 13.0 < exc.value.time < 15.0

    def test_divergence_error_survives_pickle(self):
        # a sweep's forked child sends the error to the parent pickled; a
        # copy that cannot be rebuilt would crash the sweep instead of exiting 3
        err = DivergenceError("state norm left the trust region near t = 0.05", time=0.05)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert (str(back), back.time) == (str(err), 0.05)

    def test_columns_of_many_blocks_match_one_call_over_all_rows(self):
        # 101 samples of n = 1000 are two blocks of 65 rows
        n = 1000
        rng = np.random.default_rng(21)
        f = quadratic(rng.normal(size=n))
        p = FlowProblem(Ball(np.zeros(n), 0.5 * math.sqrt(n)), f, Power(K=1.0, alpha=0.5),
                        np.zeros(n))
        traj = integrate(p, horizon=1.0, step=0.01, sample_every=0.01)
        X = traj.x
        assert X.shape == (101, n)
        assert np.array_equal(traj.f_gap, f.fn_rows(X) - f.optimum.f_star)
        assert np.array_equal(traj.dist_argmin, _row_norms(X - f.optimum.argmin._project_rows(X)))
        lam = p.schedule.value(traj.t)[:, None]
        assert np.array_equal(traj.speed, _row_norms(flow._field(p)(lam, X)))

    def test_step_larger_than_sample_every_rejected(self):
        f = unit_quadratic()
        p = FlowProblem(WholeSpace(2), f, Constant(K=1.0), [1.0, 0.0])
        with pytest.raises(InvalidInputError):
            integrate(p, horizon=1.0, step=0.2, sample_every=0.1)

    def test_step_bound_applies_only_on_a_set(self):
        # K * 2 * step = 2.6 stays inside RK4's stability interval
        whole = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        traj = integrate(whole, horizon=2.6, step=1.3, sample_every=1.3)
        assert np.all(traj.feas_drift == 0.0)
        ball = FlowProblem(Ball([0.0, 0.0], 2.0), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        with pytest.raises(InvalidInputError, match="RK4 convexity bound"):
            integrate(ball, horizon=2.6, step=1.3, sample_every=1.3)


def reference_integrate(problem, horizon, step, sample_every, F=None):
    """RK4 with the feasibility guard after every substep: the residual is
    recorded and the state re-projected whenever it is positive."""
    F = F or (lambda t, x: rhs(problem, t, x))
    resid, proj = problem.domain._residual, problem.domain._project
    times = _sample_grid(horizon, sample_every)
    x = problem.x0.copy()
    states, drifts = [x.copy()], [0.0]
    for t0, t1 in zip(times[:-1], times[1:]):
        n_sub = max(1, math.ceil((t1 - t0) / step - 1e-12))
        h = (t1 - t0) / n_sub
        drift = 0.0
        for i in range(n_sub):
            t = t0 + i * h
            k1 = F(t, x)
            k2 = F(t + 0.5 * h, x + (0.5 * h) * k1)
            k3 = F(t + 0.5 * h, x + (0.5 * h) * k2)
            k4 = F(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            drift = resid(x)
            if drift > 0.0:
                x = proj(x)
        states.append(x.copy())
        drifts.append(drift)
    return np.vstack(states), np.asarray(drifts)


class TestPerSampleGuard:
    @pytest.mark.parametrize("problem", [
        # even_box: even quartic on the symmetric box, active clamp early on
        FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), even_quartic(2), Power(K=1.0, alpha=0.5),
                    [0.9, -0.7]),
        # rate_theta50_alpha50: rides the disk boundary toward (1, 0)
        FlowProblem(Ball([0.0, 0.0], 1.0), quadratic([2.0, 0.0]), Power(K=1.0, alpha=0.5),
                    [0.0, 0.0]),
    ], ids=["box", "ball"])
    def test_same_floats_as_per_substep_guard(self, problem):
        traj = integrate(problem, horizon=5.0, step=0.005, sample_every=0.1)
        xs, drifts = reference_integrate(problem, 5.0, 0.005, 0.1)
        assert np.array_equal(traj.x, xs)
        assert np.array_equal(traj.feas_drift, drifts)

    def test_step_bound_is_the_rk4_convexity_root(self):
        # c1 = -h (h^3 - 2h^2 + 4h - 4) / 24 is the first RK4 weight to turn negative
        root = max(r.real for r in np.roots([1.0, -2.0, 4.0, -4.0]) if abs(r.imag) < 1e-12)
        assert PROJECTED_STEP_MAX <= root < PROJECTED_STEP_MAX + 1e-4


def unconstrained_field(problem):
    """The scaled and unscaled fields written out directly: -lambda(t) grad f
    and, on the unit clock, -grad f."""
    grad = problem.objective.grad_fn
    if problem.schedule == Constant(K=1.0):
        return lambda t, x: -grad(x)
    lam = problem.schedule.value
    return lambda t, x: -lam(t) * grad(x)


class TestOneVectorField:
    @pytest.mark.parametrize("problem", [
        FlowProblem(WholeSpace(2), quadratic([1.0, -0.5], diag=[1.0, 3.0]), Power(K=1.0, alpha=0.5),
                    [2.0, 1.0]),
        FlowProblem(WholeSpace(2), quadratic([1.0, -0.5], diag=[1.0, 3.0]), Constant(K=1.0),
                    [2.0, 1.0]),
    ], ids=["scaled", "unscaled"])
    def test_matches_the_unconstrained_fields(self, problem):
        traj = integrate(problem, horizon=3.0, step=0.01, sample_every=0.1)
        xs, drifts = reference_integrate(problem, 3.0, 0.01, 0.1, F=unconstrained_field(problem))
        assert np.max(np.abs(traj.x - xs)) <= 1e-12
        assert np.all(traj.feas_drift == 0.0) and np.all(drifts == 0.0)

    def test_unscaled_clock_is_time(self):
        p = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.0])
        traj = integrate(p, horizon=1.05, step=0.01, sample_every=0.1)
        assert np.array_equal(traj.gamma, traj.t)


SET_KINDS = ("wholespace", "box", "ball", "halfspace", "hyperplane", "simplex")
BOUNDED = ("box", "ball", "simplex")


def random_set(kind, rng, dim):
    if kind == "wholespace":
        return WholeSpace(dim)
    if kind == "box":
        a, b = rng.uniform(-3.0, 3.0, size=(2, dim))
        return Box(np.minimum(a, b), np.maximum(a, b))
    if kind == "ball":
        return Ball(rng.uniform(-3.0, 3.0, dim), rng.uniform(0.5, 3.0))
    if kind == "simplex":
        return Simplex(dim, rng.uniform(0.5, 3.0))
    normal = rng.standard_normal(dim)
    normal *= rng.uniform(0.5, 2.0) / np.linalg.norm(normal)
    cls = HalfSpace if kind == "halfspace" else AffineHyperplane
    return cls(normal, rng.uniform(-2.0, 2.0))


class TestConvexityBound:
    """Up to PROJECTED_STEP_MAX an RK4 step is a convex combination of
    feasible points, so samples leave the set by rounding only."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(SET_KINDS), dim=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1),
           step=st.floats(1e-6, PROJECTED_STEP_MAX), k_frac=st.floats(0.01, 1.0),
           substeps=st.integers(1, 8))
    @example(kind="box", dim=2, seed=0, step=PROJECTED_STEP_MAX, k_frac=1.0, substeps=8)
    @example(kind="simplex", dim=4, seed=1, step=PROJECTED_STEP_MAX, k_frac=1.0, substeps=8)
    def test_samples_stay_feasible(self, kind, dim, seed, step, k_frac, substeps):
        rng = np.random.default_rng(seed)
        domain = random_set(kind, rng, dim)
        diag = rng.uniform(0.5, 2.0, dim)
        f = quadratic(rng.uniform(-4.0, 4.0, dim), diag=diag)
        # Bounded sets take any gain; on unbounded ones K * 2 max(diag) * step
        # stays inside RK4's real stability interval so the state stays bounded.
        k_max = 20.0 if kind in BOUNDED else 1.25 / (float(np.max(diag)) * step)
        x0 = domain._project(rng.uniform(-3.0, 3.0, dim))
        problem = FlowProblem(domain, f, Power(K=k_frac * k_max, alpha=0.5), x0)
        sample_every = step * substeps
        traj = integrate(problem, horizon=4.0 * sample_every, step=step, sample_every=sample_every)
        assert max(domain.residual(row) for row in traj.x) <= 1e-12
        assert np.max(traj.feas_drift) <= 1e-12


TRAJECTORY_FIELDS = ("t", "x", "f_gap", "gamma", "feas_drift", "speed", "dist_argmin")

# one list of schedules per swept key; together they cover all three families
ALPHA_SWEEP = [Power(K=1.0, alpha=0.25), Power(K=1.0, alpha=0.5), PowerGE1(K=1.0, alpha=1.5)]
K_SWEEP = [Constant(K=0.5), Constant(K=1.0), Constant(K=2.0), Power(K=3.0, alpha=0.5)]


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for a_run, b_run in zip(got, want):
        assert a_run.f_star_source == b_run.f_star_source
        for name in TRAJECTORY_FIELDS:
            assert np.array_equal(getattr(a_run, name), getattr(b_run, name)), name


def sweep_problem(kind, seed, objective=None):
    rng = np.random.default_rng(seed)
    domain = random_set(kind, rng, 3)
    f = objective or quadratic(rng.uniform(-2.0, 2.0, 3), diag=rng.uniform(0.5, 2.0, 3))
    return FlowProblem(domain, f, Constant(K=1.0), domain._project(rng.uniform(-2.0, 2.0, 3)))


def with_schedules(problem, schedules):
    return [dataclasses.replace(problem, schedule=s) for s in schedules]


def rows_run(problem, horizon, step, sample_every=0.1):
    """integrate's run of ``problem`` stepped on the row kernels, whatever its width."""
    times = _sample_grid(horizon, sample_every)
    return flow._assemble(problem, times, *flow._rk4(problem, times, step, floats=False),
                          flow.RK4)


class TestRowRunsEqualFloatRuns:
    """The runs of an alpha or K sweep differ only in their schedules, and
    integrate runs each on its own: the RK4 loop rendered on rows gives, for
    every schedule family, the run of the loop rendered on floats, bit for bit."""

    @pytest.mark.parametrize("schedules", [ALPHA_SWEEP, K_SWEEP], ids=["alpha", "K"])
    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_matches_sequential_runs(self, kind, schedules):
        problems = with_schedules(sweep_problem(kind, seed=SET_KINDS.index(kind)), schedules)
        grid = dict(horizon=2.0, step=0.01, sample_every=0.1)
        assert all(flow._on_floats(p) for p in problems)
        assert_same_runs([rows_run(p, **grid) for p in problems],
                         [integrate(p, **grid) for p in problems])

    @pytest.mark.parametrize("schedules", [ALPHA_SWEEP, K_SWEEP], ids=["alpha", "K"])
    def test_power_objective_on_a_box_is_bitwise(self, schedules):
        # the shape of the README sweep: ||x - a||^4 on a box
        f = make_power_objective(quadratic([0.1, -0.2, 0.3]), theta=0.25)
        problems = with_schedules(sweep_problem("box", seed=7, objective=f), schedules)
        grid = dict(horizon=3.0, step=0.005, sample_every=0.1)
        assert_same_runs([rows_run(p, **grid) for p in problems],
                         [integrate(p, **grid) for p in problems])

    def test_bare_objective_batches_on_rows(self):
        # an Objective given only fn and grad_fn steps its per-row loops and
        # gives the catalog objective's list runs
        problem = sweep_problem("box", seed=2)
        g = problem.objective.grad_fn
        bare = Objective(fn=problem.objective.fn, grad_fn=lambda x: g(x), dim=3)
        grid = dict(horizon=0.5, step=0.01, sample_every=0.1)
        catalog = [integrate(p, **grid) for p in with_schedules(problem, K_SWEEP)]
        bare_problem = FlowProblem(problem.domain, bare, Constant(K=1.0), problem.x0)
        assert not flow._on_floats(bare_problem)  # its kernels are not marked as taking floats
        got = [integrate(p, **grid) for p in with_schedules(bare_problem, K_SWEEP)]
        # the bare objective has no optimum metadata, so only its gaps and dist_argmin differ
        for a, b in zip(got, catalog):
            for name in ("t", "x", "gamma", "feas_drift", "speed"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_a_diverging_row_leaves_the_rest_running(self):
        # K = 500 makes RK4 unstable (2 K step = 10); run after run, the others
        # finish, and the rows raise the list run's error at the same time
        problem = FlowProblem(WholeSpace(2), unit_quadratic(), Constant(K=1.0), [1.0, 0.5])
        grid = dict(horizon=2.0, step=0.01, sample_every=0.1)
        fine = with_schedules(problem, [Constant(K=1.0), Constant(K=2.0)])
        diverging = dataclasses.replace(problem, schedule=Constant(K=500.0))
        assert_same_runs([rows_run(p, **grid) for p in fine],
                         [integrate(p, **grid) for p in fine])
        with pytest.raises(DivergenceError) as rows:
            rows_run(diverging, **grid)
        with pytest.raises(DivergenceError) as floats:
            integrate(diverging, **grid)
        assert str(rows.value) == str(floats.value)
        assert rows.value.time == floats.value.time

    def test_every_row_diverging_stops_the_loop(self, monkeypatch):
        # a run on the rows that diverges in its first sample stops there, not
        # after the 100000 samples of its horizon: past the start's residual,
        # every projection is a stage's, 4 per step, and none a sample's
        projections = []
        project = WholeSpace._project_rows
        monkeypatch.setattr(WholeSpace, "_project_rows",
                            lambda self, X: projections.append(len(X)) or project(self, X))
        n = FLOAT_MAX_DIM + 1
        problem = FlowProblem(WholeSpace(n), quadratic(np.zeros(n)), Constant(K=500.0),
                              np.full(n, 0.5))
        assert not flow._on_floats(problem)
        with pytest.raises(DivergenceError, match="near t = 0.0") as exc:
            integrate(problem, horizon=1e4, step=0.01, sample_every=0.1)
        assert len(projections) == 1 + 4 * round(exc.value.time / 0.01)

    def test_replaced_gradient_batches_with_the_new_gradient(self):
        # the catalog grad_rows mirrors the old grad_fn, so a run on the rows must
        # not keep it: each run is the run of the quadratic whose gradient is 3 (x - a)
        a = np.array([0.5, 0.0])
        f = dataclasses.replace(quadratic(a), grad_fn=lambda x: 3.0 * (x - a))
        problem = FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), [-0.6, 0.7])
        assert not flow._on_floats(problem)
        same = dataclasses.replace(problem, objective=quadratic(a, diag=[1.5, 1.5]))
        grid = dict(horizon=1.0, step=0.01, sample_every=0.1)
        got = [integrate(p, **grid) for p in with_schedules(problem, ALPHA_SWEEP)]
        want = [integrate(p, **grid) for p in with_schedules(same, ALPHA_SWEEP)]
        np.testing.assert_allclose(np.concatenate([t.x for t in got]),
                                   np.concatenate([t.x for t in want]), rtol=1e-12, atol=1e-12)
        old = integrate(dataclasses.replace(problem, objective=quadratic(a)), **grid)
        assert not np.allclose(got[0].x, old.x)

    def test_replaced_value_gives_the_gap(self):
        a = np.array([0.5, 0.0])
        f = dataclasses.replace(quadratic(a), fn=lambda x: 3.0 * float((x - a).dot(x - a)))
        problem = FlowProblem(Ball([0.0, 0.0], 1.0), f, Power(K=1.0, alpha=0.5), [-0.6, 0.7])
        for p in with_schedules(problem, ALPHA_SWEEP[:2]):
            traj = integrate(p, horizon=1.0, step=0.01)
            assert np.array_equal(traj.f_gap, [f.fn(x) for x in traj.x])
            assert np.array_equal(rows_run(p, horizon=1.0, step=0.01).f_gap, traj.f_gap)

    def test_rejects_infeasible_start_and_bad_numerics(self):
        f = unit_quadratic()
        outside = FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), [2.0, 0.0])
        with pytest.raises(InvalidInputError, match="feasible set"):
            integrate(outside)
        inside = FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), [0.5, 0.0])
        with pytest.raises(InvalidInputError, match="RK4 convexity bound"):
            integrate(inside, horizon=2.6, step=1.3, sample_every=1.3)


def iterate(domain, objective, a, steps, x0):
    """``steps`` iterations of x_{k+1} = P(x_k - a grad f(x_k)), run by integrate."""
    problem = FlowProblem(domain, objective, Constant(K=a), x0)
    return integrate(problem, horizon=steps, step=1.0, sample_every=1.0, method=flow.EULER)


def reference_iterates(domain, objective, a, steps, x0):
    """The classical iteration written out with the point kernels."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        xs.append(domain.project(xs[-1] - a * objective.grad(xs[-1])))
    return np.array(xs)


class TestDiscreteRun:
    def test_single_step_matches_hand_value(self):
        traj = iterate(WholeSpace(2), unit_quadratic(), 0.25, 1, [1.0, 0.0])
        np.testing.assert_allclose(traj.x[-1], [0.5, 0.0])

    def test_explicit_euler_identity(self):
        # one unconstrained step x + 1 F(x) is exactly x - a grad f(x)
        f = quadratic([1.0, -1.0], diag=[2.0, 3.0])
        x0 = np.array([0.3, 0.4])
        traj = iterate(WholeSpace(2), f, 0.05, 1, x0)
        np.testing.assert_array_equal(traj.x[-1], x0 - 0.05 * f.grad(x0))

    def test_ball_constrained_step_hits_minimizer(self):
        f = quadratic([2.0, 0.0])
        traj = iterate(Ball([0.0, 0.0], 1.0), f, 0.5, 3, [0.0, 0.0])
        np.testing.assert_allclose(traj.x[1], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(traj.x[-1], [1.0, 0.0], atol=1e-15)

    def test_indexing_and_gamma(self):
        traj = iterate(WholeSpace(1), quadratic([0.0]), 0.1, 3, [1.0])
        np.testing.assert_array_equal(traj.t, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(traj.gamma, [0.0, 0.1, 0.2, 0.3])

    def test_empty_steps_rejected(self):
        with pytest.raises(InvalidInputError):
            iterate(WholeSpace(1), quadratic([0.0]), 0.1, 0, [1.0])

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidInputError):
            iterate(WholeSpace(1), quadratic([0.0]), -0.1, 1, [1.0])

    @pytest.mark.parametrize("horizon, step, sample_every", [
        (2.0, 0.5, 1.0), (2.0, 1.0, 2.0), (2.5, 1.0, 1.0)], ids=["step", "sample_every", "horizon"])
    def test_only_whole_unit_steps(self, horizon, step, sample_every):
        problem = FlowProblem(WholeSpace(1), quadratic([0.0]), Constant(K=0.1), [1.0])
        with pytest.raises(InvalidInputError, match="Euler steps of size 1"):
            integrate(problem, horizon=horizon, step=step, sample_every=sample_every,
                      method=flow.EULER)

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_matches_the_written_out_iteration(self, kind):
        rng = np.random.default_rng(SET_KINDS.index(kind))
        domain = random_set(kind, rng, 3)
        f = quadratic(rng.uniform(-4.0, 4.0, 3), diag=rng.uniform(0.5, 2.0, 3))
        x0, a = domain.project(rng.uniform(-3.0, 3.0, 3)), 0.3
        traj = iterate(domain, f, a, 50, x0)
        # up to FLOAT_MAX_DIM columns the row kernels sum as the point kernels do
        np.testing.assert_array_equal(traj.x, reference_iterates(domain, f, a, 50, x0))
        step_norms = np.linalg.norm(np.diff(traj.x, axis=0), axis=1)
        np.testing.assert_array_equal(traj.speed, np.concatenate([[0.0], step_norms]))
        np.testing.assert_allclose(traj.gamma, a * traj.t, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(traj.feas_drift, 0.0)

    def test_preset_ball_is_bitwise(self):
        cfg = load_config("discrete_vs_continuous_ball")
        p = cfg.problem
        traj = integrate(p, horizon=cfg.horizon, step=cfg.step, sample_every=cfg.sample_every,
                         method=cfg.method)
        ref = reference_iterates(p.domain, p.objective, p.schedule.K, int(cfg.horizon), p.x0)
        np.testing.assert_array_equal(traj.x, ref)


def reference_reparam_gaps(objective, schedule, x0, horizon, step):
    """Per-sample gaps of reparam_check, interpolating the replay one
    coordinate at a time with np.interp."""
    space = WholeSpace(len(x0))
    scaled = integrate(FlowProblem(space, objective, schedule, x0),
                       horizon=horizon, step=step, sample_every=max(step, horizon / 500.0))
    g_end = schedule.gamma(horizon)
    h = min(step, g_end / 10.0)
    unscaled = integrate(FlowProblem(space, objective, Constant(K=1.0), x0),
                         horizon=g_end, step=h, sample_every=h)
    gaps = []
    for k, t in enumerate(scaled.t):
        g = schedule.gamma(float(t))
        y = np.array([np.interp(g, unscaled.t, unscaled.x[:, j]) for j in range(unscaled.x.shape[1])])
        gaps.append(float(np.linalg.norm(scaled.x[k] - y)))
    return np.array(gaps)


class TestReparametrization:
    @pytest.mark.parametrize("objective, schedule, x0, horizon", [
        (quadratic([1.0, -0.5]), Power(K=1.0, alpha=0.5), [2.0, 1.0], 10.0),
        # growth puts the largest gap at the last sample, where Gamma(t) = Gamma(horizon)
        (Objective(fn=lambda x: -float(x @ x), grad_fn=lambda x: -2.0 * x, dim=2, name="runaway"),
         Constant(K=2.0), [0.3, -0.1], 3.0),
        # 301 samples of n = 300 are two blocks of 218 rows
        (quadratic(np.linspace(-1.0, 1.0, 300)), Power(K=1.0, alpha=0.5), np.zeros(300), 3.0),
    ], ids=["quadratic", "runaway", "two-blocks"])
    def test_matches_per_coordinate_interp(self, objective, schedule, x0, horizon):
        gaps = reference_reparam_gaps(objective, schedule, x0, horizon, 0.01)
        gap = reparam_check(objective, schedule, x0, horizon=horizon, step=0.01)
        assert abs(gap - gaps.max()) <= 1e-14 * max(1.0, gaps.max())
        if objective.name == "runaway":
            assert gaps.argmax() == gaps.size - 1

    def test_quadratic_power_schedule(self):
        gap = reparam_check(unit_quadratic(), Power(K=1.0, alpha=0.5), [1.0, 0.0], horizon=10.0)
        assert gap <= 1e-5

    def test_quadratic_constant_schedule(self):
        gap = reparam_check(unit_quadratic(), Constant(K=3.0), [1.0, 0.0], horizon=5.0)
        assert gap <= 1e-5

    def test_constant_objective_gap_zero(self):
        const = Objective(fn=lambda x: 1.0, grad_fn=lambda x: np.zeros(2), dim=2, name="const")
        gap = reparam_check(const, Power(K=1.0, alpha=0.5), [0.4, -0.2], horizon=10.0)
        assert gap == 0.0


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        f = quadratic([2.0, 0.0])
        p = FlowProblem(Ball([0.0, 0.0], 1.0), f, Constant(K=1.0), [0.0, 0.0])
        traj = integrate(p, horizon=1.0, step=0.01)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,gamma,f_gap,dist_argmin,feas_drift,speed,x_0,x_1"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[3] == "2.0"  # distance from (0,0) to argmin {(2,0)}

    def test_missing_dist_argmin_empty_field(self, tmp_path):
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=1, name="bare")
        p = FlowProblem(WholeSpace(1), bare, Constant(K=1.0), [1.0])
        traj = integrate(p, horizon=0.5, step=0.01)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        row = out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
        assert row[3] == ""

    def test_cells_are_the_repr_of_each_float(self, tmp_path):
        f = quadratic([2.0, 0.0, 0.5])
        p = FlowProblem(Ball(np.zeros(3), 1.0), f, Power(K=1.0, alpha=0.5), np.zeros(3))
        traj = integrate(p, horizon=1.0, step=0.01)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, out)
        rows = out.read_text(encoding="utf-8").split("\n")[1:-1]
        assert len(rows) == len(traj)
        for k, row in enumerate(rows):
            scalars = [traj.t[k], traj.gamma[k], traj.f_gap[k], traj.dist_argmin[k],
                       traj.feas_drift[k], traj.speed[k], *traj.x[k]]
            assert row == ",".join(repr(float(v)) for v in scalars)

    @pytest.mark.parametrize("dist", [True, False], ids=["dist", "no-dist"])
    @pytest.mark.parametrize("dim", [1, 2, 7, 1000])
    def test_blocks_write_the_rows_of_a_row_at_a_time_writer(self, tmp_path, dim, dist):
        # two full blocks and a partial one, with values whose repr is easy to get wrong
        width = 6 + dim - (not dist)
        m = 2 * (flow.CSV_BLOCK_FLOATS // width) + 3
        values = np.random.default_rng(dim).normal(size=(m, 6 + dim))
        values *= 10.0 ** np.random.default_rng(dim + 1).integers(-300, 300, values.shape)
        flat = values.reshape(-1)
        flat[::5] = np.resize([-0.0, 5e-324, 1e16, np.nan, 0.1, -1e-7], flat[::5].size)
        t, gamma, f_gap, dist_argmin, feas_drift, speed = values[:, :6].T
        traj = flow.Trajectory(t, values[:, 6:], f_gap, gamma, feas_drift, speed,
                               dist_argmin if dist else None, problem=None)
        blocks, rows = tmp_path / "blocks.csv", tmp_path / "rows.csv"
        write_trajectory_csv(traj, blocks)
        with open(rows, "w", encoding="utf-8") as fh:
            fh.write(",".join(["t", "gamma", "f_gap", "dist_argmin", "feas_drift", "speed",
                               *(f"x_{j}" for j in range(dim))]) + "\n")
            for k in range(m):
                cells = [repr(float(c[k])) for c in (t, gamma, f_gap, dist_argmin, feas_drift,
                                                     speed)]
                if not dist:
                    cells[3] = ""
                fh.write(",".join(cells + [repr(float(v)) for v in traj.x[k]]) + "\n")
        assert blocks.read_bytes() == rows.read_bytes()

    def test_byte_determinism(self, tmp_path):
        f = quadratic([2.0, 0.0])
        p = FlowProblem(Ball([0.0, 0.0], 1.0), f, Power(K=1.0, alpha=0.5), [0.0, 0.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(integrate(p, horizon=2.0, step=0.01), a)
        write_trajectory_csv(integrate(p, horizon=2.0, step=0.01), b)
        assert a.read_bytes() == b.read_bytes()


def settle_problem(kind, objective, alpha, K, seed):
    """A 2-d problem of the settle rule's grammar, started from the projection
    of a point near the objective's centre, which may lie outside the set."""
    rng = np.random.default_rng(seed)
    domain = random_set(kind, rng, 2)
    center = rng.uniform(-2.0, 2.0, 2)
    f = {"flat_bottom": lambda: flat_bottom(center, rng.uniform(0.2, 1.0)),
         "quadratic": lambda: quadratic(center, diag=rng.uniform(0.5, 2.0, 2)),
         "power": lambda: make_power_objective(quadratic(center), theta=0.4)}[objective]()
    x0 = domain._project(center + rng.uniform(-1.0, 1.0, 2))
    return FlowProblem(domain, f, Schedule(K, alpha), x0)


def spied_settles():
    """A patch of flow._settles that records each of its answers, and the
    lambda(t) of the step each was asked about."""
    answers, lams, settles = [], [], flow._settles

    def spy(domain, x, g, lam_t, step):
        answers.append(settles(domain, x, g, lam_t, step))
        lams.append(lam_t)
        return answers[-1]

    return mock.patch.object(flow, "_settles", spy), answers, lams


def float_and_row_runs(problem, **grid):
    return integrate(problem, **grid), rows_run(problem, **grid)


def counting(problem, field):
    """``problem`` with its objective's ``field`` kernel counting its calls."""
    calls, kernel = [], getattr(problem.objective, field)

    @functools.wraps(kernel)
    def counted(x):
        calls.append(1)
        return kernel(x)

    objective = dataclasses.replace(problem.objective, **{field: counted})
    return dataclasses.replace(problem, objective=objective), calls


class TestSettledRuns:
    """A run whose step leaves the state where it is, with room to spare,
    stops stepping (flow._settles) and writes what stepping would have."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("wholespace", "box", "ball", "halfspace")),
           objective=st.sampled_from(("flat_bottom", "quadratic", "power")),
           alpha=st.sampled_from((0.0, 0.25, 0.5, 0.75)), K=st.floats(0.5, 20.0),
           seed=st.integers(0, 2**32 - 1))
    # runs that settle; stepped, their states last move at t = 3.4, 4.8, 4.4 and 1.8
    @example(kind="wholespace", objective="quadratic", alpha=0.0, K=10.0, seed=0)
    @example(kind="box", objective="quadratic", alpha=0.5, K=10.0, seed=3)
    @example(kind="ball", objective="quadratic", alpha=0.5, K=10.0, seed=2)
    @example(kind="halfspace", objective="quadratic", alpha=0.0, K=10.0, seed=1)
    def test_settled_runs_are_the_stepped_runs(self, kind, objective, alpha, K, seed):
        problem = settle_problem(kind, objective, alpha, K, seed)
        grid = dict(horizon=6.0, step=0.02, sample_every=0.1)
        settled = float_and_row_runs(problem, **grid)
        with mock.patch.object(flow, "_settles", lambda *args: False):
            stepped = float_and_row_runs(problem, **grid)
        for got, want in zip(settled, stepped):
            assert got.x.tobytes() == want.x.tobytes()
            assert got.feas_drift.tobytes() == want.feas_drift.tobytes()

    @pytest.mark.parametrize("rows", [False, True], ids=["floats", "rows"])
    def test_a_run_at_rest_stops_at_its_first_sample(self, rows):
        # inside the flat bottom the gradient is 0: the first step returns x
        problem = FlowProblem(Ball([0.0, 0.0], 2.0), flat_bottom([0.0, 0.0], 0.5),
                              Power(K=1.0, alpha=0.5), [0.1, 0.2])
        problem, calls = counting(problem, "grad_rows" if rows else "grad_fn")
        patch, answers, _ = spied_settles()
        with patch:
            states, drifts = flow._rk4(problem, _sample_grid(2.0, 0.1), 0.01, floats=not rows)
        assert answers == [True]
        assert len(calls) == 4 * 10  # one segment of 10 RK4 steps
        assert np.all(states == [0.1, 0.2]) and np.all(drifts == 0.0)

    @pytest.mark.parametrize("loop", ["floats", "rows"])
    def test_the_rule_is_asked_once_per_sample_from_the_last_move_on(self, loop):
        cfg = load_config("interior_flatbottom")
        patch, answers, lams = spied_settles()
        with patch:
            run = integrate if loop == "floats" else rows_run
            traj = run(cfg.problem, horizon=cfg.horizon, step=cfg.step,
                       sample_every=cfg.sample_every)
        # the state last moves at t = 77.0, and only from there do segments
        # end on a step that returned x; the rule's margin holds from t = 78.2 on
        asked = np.asarray(lams) ** -2.0 - 1.0  # lambda(t) = (1 + t)^-1/2
        assert np.all(asked > 76.9) and np.all(np.diff(asked) > 0.09)
        assert answers[-1] is True and not any(answers[:-1])
        assert 78.1 < asked[-1] < 78.3
        assert np.all(traj.x[traj.t >= 77.0] == traj.x[-1])

    def test_a_run_parked_on_the_boundary_never_settles(self):
        # P clips every step of the last 30 samples: the step returns x, but
        # no ball about x fits in the disk
        cfg = load_config("rate_theta50_alpha50")
        patch, answers, _ = spied_settles()
        with patch:
            integrate(cfg.problem, horizon=cfg.horizon, step=cfg.step,
                      sample_every=cfg.sample_every)
        assert len(answers) >= 30 and not any(answers)

    @pytest.mark.parametrize("rows", [False, True], ids=["floats", "rows"])
    def test_a_fixed_point_on_a_box_face_never_settles(self, rows):
        problem = FlowProblem(Box([-1.0, -1.0], [1.0, 1.0]), quadratic([2.0, 0.0]),
                              Constant(K=1.0), [1.0, 0.0])
        patch, answers, _ = spied_settles()
        with patch:
            traj = (rows_run if rows else integrate)(problem, horizon=2.0, step=0.01)
        assert len(answers) == len(traj) - 1 and not any(answers)
        assert np.all(traj.x == [1.0, 0.0])

    def test_hyperplane_and_simplex_never_qualify(self):
        # a state at rest on a set without interior
        for domain, x in ((AffineHyperplane([1.0, 1.0], 1.0), [0.5, 0.5]),
                          (Simplex(2), [0.5, 0.5])):
            assert not flow._settles(domain, x, [0.0, 0.0], 1.0, 0.01)
        assert flow._settles(WholeSpace(2), [0.5, 0.5], [0.0, 0.0], 1.0, 0.01)

    def test_a_negative_zero_coordinate_never_settles(self):
        # x + 0.0 turns -0.0 into 0.0, so a later step would move it
        assert flow._settles(WholeSpace(2), [0.0, 0.5], [0.0, 0.0], 1.0, 0.01)
        assert not flow._settles(WholeSpace(2), [-0.0, 0.5], [0.0, 0.0], 1.0, 0.01)

    def test_euler_stops_at_an_exact_fixed_point(self):
        # the preset's iterates reach (1, 0) at iterate 7 of 400
        cfg = load_config("discrete_vs_continuous_ball")
        p = cfg.problem
        counted, calls = counting(p, "grad_rows")
        traj = integrate(counted, horizon=cfg.horizon, step=cfg.step,
                         sample_every=cfg.sample_every, method=cfg.method)
        assert len(calls) == 8
        ref = reference_iterates(p.domain, p.objective, p.schedule.K, int(cfg.horizon), p.x0)
        assert traj.x.tobytes() == ref.tobytes()

    def test_euler_on_a_decaying_clock_keeps_stepping(self):
        p = load_config("discrete_vs_continuous_ball").problem
        decaying, calls = counting(dataclasses.replace(p, schedule=Power(K=0.05, alpha=0.5)),
                                   "grad_rows")
        integrate(decaying, horizon=40.0, step=1.0, sample_every=1.0, method=flow.EULER)
        assert len(calls) == 40
