"""Point kernels on Python floats against the row kernels, and the run
that steps them.

Up to FLOAT_MAX_DIM coordinates a run steps a list of floats through the
catalog's point kernels, and a wider run, or one with a caller's kernels,
steps a numpy row. The two must give the same floats wherever both apply, for
every set and objective kind, and the run must take the float path
exactly when its kernels are marked as taking floats.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgflow import flow
from pgflow.errors import DivergenceError
from pgflow.flow import FlowProblem, _sample_grid, integrate
from pgflow.geometry import (
    FLOAT_MAX_DIM,
    Box,
    WholeSpace,
    _dot,
    _row_dots,
    _sum_sq,
    takes_floats,
)
from pgflow.objectives import (
    Objective,
    even_quartic,
    flat_bottom,
    make_power_objective,
    quadratic,
)
from pgflow.schedules import Constant, Power, Schedule

from test_flow import SET_KINDS, TRAJECTORY_FIELDS, random_set

OBJECTIVE_KINDS = ("quadratic", "even_quartic", "flat_bottom", "power")
DIMS = range(1, FLOAT_MAX_DIM + 1)


# theta = 1/4 and 1/2 give the power objective's gradient the exponents 1
# and 0, which the C library's pow and numpy's vectorised power both take
# exactly; other exponents may round an ulp apart (see objectives).
EXACT_THETAS = (0.25, 0.5)


def random_objective(kind, rng, dim, thetas=EXACT_THETAS):
    center = rng.uniform(-1.0, 1.0, dim)
    if kind == "quadratic":
        return quadratic(center, diag=rng.uniform(0.5, 2.0, dim), shift=rng.uniform(0.0, 1.0))
    if kind == "even_quartic":
        return even_quartic(dim)
    if kind == "flat_bottom":
        return flat_bottom(center, rng.uniform(0.2, 1.0))
    base = quadratic(center, diag=rng.uniform(0.5, 2.0, dim))
    return make_power_objective(base, theta=float(rng.choice(thetas)))


def assert_same_floats(got, want):
    """Equal values, a list of Python floats against an array."""
    assert isinstance(got, list) and all(type(v) is float for v in got)
    assert np.array_equal(np.array(got), want)


class TestKernelsAgree:
    """Every float point kernel equals its row kernel bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(SET_KINDS), dim=st.sampled_from(DIMS), rows=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 5.0, 1e3]))
    def test_projections(self, kind, dim, rows, seed, scale):
        rng = np.random.default_rng(seed)
        cs = random_set(kind, rng, dim)
        X = rng.normal(size=(rows, dim)) * scale
        X[: rows // 2] = cs.sample(rng, rows // 2)  # rows already in the set
        assert takes_floats(cs._project)
        P = cs._project_rows(X)
        for x, p in zip(X.tolist(), P):
            assert_same_floats(cs._project(x), p)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(OBJECTIVE_KINDS), dim=st.sampled_from(DIMS),
           rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 5.0]))
    def test_objectives(self, kind, dim, rows, seed, scale):
        rng = np.random.default_rng(seed)
        obj = random_objective(kind, rng, dim)
        X = rng.normal(size=(rows, dim)) * scale
        X[0] = obj.optimum.argmin.sample(rng, 1)[0]  # a zero gradient
        assert takes_floats(obj.fn) and takes_floats(obj.grad_fn)
        F, G = obj.fn_rows(X), obj.grad_rows(X)
        for x, f, g in zip(X.tolist(), F, G):
            if kind == "power" and obj.holder.theta != 0.5:
                # f = base^2: numpy squares, the C library's pow may round apart
                np.testing.assert_array_max_ulp(obj.fn(x), f, maxulp=1)
            else:
                assert obj.fn(x) == f
            assert_same_floats(obj.grad_fn(x), g)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1),
           theta=st.sampled_from([0.1, 0.3, 0.4]))
    def test_other_powers_within_a_few_ulp(self, dim, seed, theta):
        rng = np.random.default_rng(seed)
        obj = random_objective("power", rng, dim, thetas=(theta,))
        X = rng.normal(size=(4, dim))
        F, G = obj.fn_rows(X), obj.grad_rows(X)
        eps = np.finfo(float).eps
        for x, f, g in zip(X.tolist(), F, G):
            np.testing.assert_allclose(obj.fn(x), f, rtol=8 * eps, atol=0.0)
            np.testing.assert_allclose(obj.grad_fn(x), g, rtol=8 * eps, atol=0.0)

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_a_nan_coordinate_survives_every_projection(self, kind):
        # a NaN state must reach the divergence guard, not be clipped away
        cs = random_set(kind, np.random.default_rng(0), 3)
        assert any(math.isnan(v) for v in cs._project([math.nan, 0.0, 0.0]))


class TestRunsAgree:
    """integrate on a list of floats equals the one-row run bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(SET_KINDS), objective=st.sampled_from(OBJECTIVE_KINDS),
           dim=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([0.0, 0.5, 1.5]))
    def test_list_run_equals_one_row_batch(self, kind, objective, dim, seed, alpha):
        rng = np.random.default_rng(seed)
        domain = random_set(kind, rng, dim)
        obj = random_objective(objective, rng, dim)
        x0 = domain._project(rng.uniform(-1.5, 1.5, dim))
        problem = FlowProblem(domain, obj, Schedule(K=0.5, alpha=alpha), x0)
        grid = dict(horizon=0.6, step=0.01, sample_every=0.1)
        assert flow._on_floats(problem)
        try:
            got = integrate(problem, **grid)
        except DivergenceError as exc:
            got = exc
        try:
            times = _sample_grid(grid["horizon"], grid["sample_every"])
            want = flow._assemble(problem, times, *flow._rk4_rows(problem, times, grid["step"]))
        except DivergenceError as exc:
            want = exc
        if isinstance(want, DivergenceError):
            assert isinstance(got, DivergenceError) and got.time == want.time
            return
        for name in TRAJECTORY_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name


def count_paths(monkeypatch):
    """Record which loop each integrate call takes."""
    taken = []
    floats, rows = flow._rk4_floats, flow._rk4_rows
    monkeypatch.setattr(flow, "_rk4_floats",
                        lambda *a: taken.append("floats") or floats(*a))
    monkeypatch.setattr(flow, "_rk4_rows",
                        lambda *a: taken.append("rows") or rows(*a))
    return taken


def box_problem(dim, objective=None):
    f = objective or quadratic(np.linspace(-0.5, 0.5, dim))
    return FlowProblem(Box(-np.ones(dim), np.ones(dim)), f, Power(K=1.0, alpha=0.5),
                       np.full(dim, 0.9))


class TestWhichPath:
    GRID = dict(horizon=0.5, step=0.01, sample_every=0.1)

    def test_up_to_the_width_limit_a_run_steps_floats(self, monkeypatch):
        taken = count_paths(monkeypatch)
        integrate(box_problem(FLOAT_MAX_DIM), **self.GRID)
        assert taken == ["floats"]

    def test_one_coordinate_more_runs_on_rows(self, monkeypatch):
        taken = count_paths(monkeypatch)
        integrate(box_problem(FLOAT_MAX_DIM + 1), **self.GRID)
        assert taken == ["rows"]

    def test_a_callers_gradient_runs_on_rows(self, monkeypatch):
        # on a list, 2 * x would repeat the list instead of doubling it
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2 * x, dim=2)
        problem = box_problem(2, objective=bare)
        taken = count_paths(monkeypatch)
        traj = integrate(problem, **self.GRID)
        assert taken == ["rows"]
        # the one-row run is the run of the catalog objective that computes the same gradient
        same = integrate(box_problem(2, objective=quadratic([0.0, 0.0])), **self.GRID)
        assert np.array_equal(traj.x, same.x)

    def test_a_power_of_a_callers_objective_runs_on_rows(self, monkeypatch):
        base = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=2,
                         optimum=quadratic([0.0, 0.0]).optimum, strong_convexity=2.0)
        power = make_power_objective(base, theta=0.25)
        assert not takes_floats(power.grad_fn)
        assert takes_floats(make_power_objective(quadratic([0.0, 0.0]), theta=0.25).grad_fn)
        taken = count_paths(monkeypatch)
        integrate(box_problem(2, objective=power), **self.GRID)
        assert taken == ["rows"]

    def test_a_wrapped_gradient_keeps_the_float_path(self, monkeypatch):
        q = quadratic([0.3, -0.2])
        calls = []

        @functools.wraps(q.grad_fn)
        def counted(x):
            calls.append(type(x))
            return q.grad_fn(x)

        problem = box_problem(2, objective=dataclasses.replace(q, grad_fn=counted))
        taken = count_paths(monkeypatch)
        traj = integrate(problem, **self.GRID)
        assert taken == ["floats"]
        assert calls == [list] * (4 * 50)  # 4 stages per step, 50 steps
        assert np.array_equal(traj.x, integrate(box_problem(2, objective=q), **self.GRID).x)


class TestReductionOrder:
    @pytest.mark.parametrize("width", DIMS)
    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 1000])
    def test_row_dots_sum_left_to_right(self, width, rows):
        # 1 + e + e + ... is 1 left to right (each 1 + e ties to 1), and
        # larger in any order that adds two e first
        e = 2.0**-53
        X = np.full((rows, width), e)
        X[:, 0] = 1.0
        assert np.all(_row_dots(X, np.ones(width)) == 1.0)
        assert _dot(X[0].tolist(), [1.0] * width) == 1.0
        rng = np.random.default_rng(width * rows)
        X, Y = (rng.normal(size=(rows, width)) * rng.choice([1e-8, 1.0, 1e8], (rows, width))
                for _ in range(2))
        assert _row_dots(X, Y).tolist() == [_dot(x, y) for x, y in zip(X.tolist(), Y.tolist())]
        assert _row_dots(X, X).tolist() == [_sum_sq(x) for x in X.tolist()]

    def test_a_sum_of_negative_zeros_keeps_its_sign_in_both(self):
        X = np.full((1, 3), -0.0)
        assert math.copysign(1.0, _row_dots(X, np.ones(3))[0]) == -1.0
        assert math.copysign(1.0, _dot([-0.0] * 3, [1.0] * 3)) == -1.0


class TestOverflow:
    def test_overflow_in_a_step_is_that_steps_divergence(self):
        # ||x||^10 from (3, 0): Python's ** overflows inside the first steps
        f = make_power_objective(quadratic([0.0, 0.0]), theta=0.1)
        problem = FlowProblem(WholeSpace(2), f, Constant(K=1.0), [3.0, 0.0], system="scaled")
        with pytest.raises(DivergenceError) as exc:
            integrate(problem, horizon=5.0, step=0.5, sample_every=0.5)
        assert exc.value.time == 0.5
