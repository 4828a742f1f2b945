"""Point kernels on Python floats against the row kernels, and the run
that steps them.

Up to FLOAT_MAX_DIM coordinates a run steps a list of floats through the
catalog's point kernels, and a wider run, or one with a caller's kernels,
steps a numpy row. The two must give the same floats wherever both apply, for
every set and objective kind, and the run must take the float path
exactly when its kernels are marked as taking floats. Both runs step one
RK4 loop template, rendered on floats once per width and kinds of kernel,
and on rows once per kinds of kernel. The float rendering splices in the
catalog's own kernels and calls any other, or any wrapper; each rendering
makes 4 gradients, 4 projections and 3 lambdas per RK4 step. Spliced in
or called, a kernel gives the same bytes.
"""

import collections
import contextlib
import dataclasses
import functools
import math
import os
import struct
import subprocess
import sys
import traceback
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgflow import flow, objectives
from pgflow.errors import DivergenceError
from pgflow.flow import FlowProblem, _sample_grid, integrate
from pgflow.geometry import (
    FLOAT_MAX_DIM,
    Ball,
    Box,
    WholeSpace,
    _dot,
    _row_dots,
    takes_floats,
)
from pgflow.fragments import (ROWS, form_kernels, inline, nested, point_kernel, row_consts,
                              row_kernel, source)
from pgflow.objectives import (
    Objective,
    _pow,
    even_quartic,
    flat_bottom,
    make_power_objective,
    quadratic,
)
from pgflow.schedules import Constant, Power, PowerGE1, Schedule

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

    @pytest.mark.parametrize("dim", [FLOAT_MAX_DIM + 1, 1000])
    @pytest.mark.parametrize("kind", SET_KINDS + OBJECTIVE_KINDS)
    def test_wider_points_within_a_few_ulp_of_the_rows(self, kind, dim):
        # beyond FLOAT_MAX_DIM a point kernel sums by math.fsum, a row kernel by np.vecdot
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(4, dim)) * 2.0
        if kind in SET_KINDS:
            cs = random_set(kind, rng, dim)
            X[:2] = cs.sample(rng, 2)  # rows already in the set
            kernels = [(cs._project, cs._project_rows)]
        else:
            obj = random_objective(kind, rng, dim)
            X[0] = obj.optimum.argmin.sample(rng, 1)[0]  # a zero gradient
            kernels = [(obj.fn, obj.fn_rows), (obj.grad_fn, obj.grad_rows)]
        eps = np.finfo(float).eps
        for point, rows in kernels:
            for x, want in zip(X.tolist(), rows(X)):
                got = np.array(point(x))
                # a few ulp of the largest magnitude in play
                size = max(np.max(np.abs(x)), np.max(np.abs(want)))
                np.testing.assert_allclose(got, want, rtol=4 * eps, atol=4 * eps * size)

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
            want = flow._assemble(problem, times,
                                  *flow._rk4(problem, times, grid["step"], floats=False), flow.RK4)
        except DivergenceError as exc:
            want = exc
        if isinstance(want, DivergenceError):
            assert isinstance(got, DivergenceError) and got.time == want.time
            return
        for name in TRAJECTORY_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name


def count_paths(monkeypatch):
    """Record which rendering of the RK4 loop each integrate call takes."""
    taken, rk4 = [], flow._rk4

    def spy(problem, times, step, floats):
        taken.append("floats" if floats else "rows")
        return rk4(problem, times, step, floats)

    monkeypatch.setattr(flow, "_rk4", spy)
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


def counted(calls, key, kernel):
    """``kernel`` counting its calls in calls[key]."""

    @functools.wraps(kernel)
    def wrapper(*args):
        calls[key] += 1
        return kernel(*args)

    return wrapper


class TestGeneratedLoop:
    """_rk4 steps the RK4 loop rendered on floats for its width, or on rows,
    and for its kinds of kernel, compiled on first use."""

    @pytest.mark.parametrize("floats", [True, False], ids=["floats", "rows"])
    @pytest.mark.parametrize("dim", [1, 2, FLOAT_MAX_DIM])
    def test_kernel_calls_per_step_and_per_sample(self, dim, floats, monkeypatch):
        # the counts a traced run derives its RK4 steps from
        calls = collections.Counter()
        project, grad = ("_project", "grad_fn") if floats else ("_project_rows", "grad_rows")
        monkeypatch.setattr(Box, project, counted(calls, "project", getattr(Box, project)))
        monkeypatch.setattr(Schedule, "value", counted(calls, "lambda", Schedule.value))
        problem = box_problem(dim)
        problem = dataclasses.replace(problem, objective=dataclasses.replace(
            problem.objective, **{grad: counted(calls, "grad", getattr(problem.objective, grad))}))
        assert flow._on_floats(problem)
        flow._rk4(problem, _sample_grid(0.5, 0.1), 0.01, floats)  # 5 samples of 10 steps
        assert calls == {"grad": 4 * 50, "lambda": 3 * 50, "project": 4 * 50 + 5}

    def compiled(self, monkeypatch):
        """The file names of the loops compiled from here on."""
        names = []
        monkeypatch.setattr(flow, "compile", lambda source, name, mode:
                            names.append(name) or compile(source, name, mode), raising=False)
        flow._rk4_loop.cache_clear()
        return names

    def test_each_width_and_kinds_compile_once(self, monkeypatch):
        names = self.compiled(monkeypatch)
        q = quadratic([0.3, -0.2])
        wrapped = dataclasses.replace(q, grad_fn=passthrough(q.grad_fn))
        ball = FlowProblem(Ball([0.0, 0.0], 1.0), q, Constant(K=1.0), [0.5, 0.5])
        # other constants of one kind share a loop; another kind, or a wrapper, gets its own
        for problem in (box_problem(2), box_problem(3), box_problem(2, objective=q),
                        box_problem(2, objective=wrapped), ball, box_problem(3)):
            integrate(problem, horizon=0.2, step=0.01, sample_every=0.1)
        assert names == ["<pgflow rk4 floats n=2 grad=quadratic proj=box lam=clock>",
                         "<pgflow rk4 floats n=3 grad=quadratic proj=box lam=clock>",
                         "<pgflow rk4 floats n=2 grad=call proj=box lam=clock>",
                         "<pgflow rk4 floats n=2 grad=quadratic proj=ball lam=clock>"]

    def test_rows_compile_once_per_kinds(self, monkeypatch):
        names = self.compiled(monkeypatch)
        n = FLOAT_MAX_DIM + 1
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2 * x, dim=2)
        ball = FlowProblem(Ball(np.zeros(n), 1.0), quadratic(np.ones(n)), Constant(K=1.0),
                           np.zeros(n))
        # every width, set and objective on rows shares one loop; a wrapped clock gets its own
        for problem in (box_problem(n), box_problem(n + 1), ball, box_problem(2, objective=bare)):
            integrate(problem, horizon=0.2, step=0.01, sample_every=0.1)
        with mock.patch.object(Schedule, "value", passthrough(Schedule.value)):
            for problem in (box_problem(n), ball):
                integrate(problem, horizon=0.2, step=0.01, sample_every=0.1)
        assert names == ["<pgflow rk4 rows grad=call proj=call lam=clock>",
                         "<pgflow rk4 rows grad=call proj=call lam=call>"]

    def test_importing_the_cli_compiles_no_loop(self):
        code = ("import pgflow.cli\nfrom pgflow import flow\n"
                "print(flow._rk4_loop.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(flow.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"

    def test_the_source_reads_back_and_tracebacks_name_it(self):
        grad, proj, lam = (inline(kernel)[0] for kernel in kernels(box_problem(2)))
        inlined = flow._rk4_source(2, grad, proj, lam)
        assert ("            grad_r0, grad_r1 = y0 - grad_a0, y1 - grad_a1\n"
                "            u0, u1 = grad_w0 * grad_r0, grad_w1 * grad_r1\n") in inlined
        called = flow._rk4_source(1, flow._CALL_POINT, proj, lam)
        assert "            g0, = grad([x0,])\n" in called
        assert "            a0, = a0 - x0,\n" in called

        def broken(x):
            raise ZeroDivisionError

        q = quadratic([0.0, 0.0])
        problem = box_problem(2, objective=dataclasses.replace(q, grad_fn=functools.wraps(
            q.grad_fn)(broken)))
        with pytest.raises(ZeroDivisionError) as exc:
            integrate(problem, horizon=0.2, step=0.01, sample_every=0.1)
        frames = [(f.filename, f.line) for f in traceback.extract_tb(exc.value.__traceback__)]
        assert ("<pgflow rk4 floats n=2 grad=call proj=box lam=clock>",
                "g0, g1 = grad([x0, x1])") in frames

    def test_the_row_source_reads_back_and_tracebacks_name_it(self):
        lam = inline(box_problem(2).schedule.value)[0]
        rows = flow._rk4_source(None, flow._CALL, flow._CALL, lam)
        assert "            y = x + half_h * a\n" in rows
        assert "            if not _row_dots(x, x)[0] <= _GUARD_SQ:\n" in rows
        assert "        drift = math.sqrt(_row_dots(e, e)[0])\n" in rows

        def broken(X):
            raise ZeroDivisionError

        problem = box_problem(FLOAT_MAX_DIM + 1)
        problem = dataclasses.replace(problem, objective=dataclasses.replace(
            problem.objective, grad_rows=broken))
        with pytest.raises(ZeroDivisionError) as exc:
            integrate(problem, horizon=0.2, step=0.01, sample_every=0.1)
        frames = [(f.filename, f.line) for f in traceback.extract_tb(exc.value.__traceback__)]
        assert ("<pgflow rk4 rows grad=call proj=call lam=clock>", "g = grad(x)") in frames


def passthrough(kernel):
    """``kernel`` behind a functools.wraps wrapper, which the float loop calls."""

    @functools.wraps(kernel)
    def wrapper(*args):
        return kernel(*args)

    return wrapper


def kernels(problem):
    return problem.objective.grad_fn, problem.domain._project, problem.schedule.value


@contextlib.contextmanager
def all_called(problem):
    """``problem`` with its gradient, projection and clock each wrapped by passthrough."""
    objective = dataclasses.replace(problem.objective,
                                    grad_fn=passthrough(problem.objective.grad_fn))
    cls = type(problem.domain)
    with mock.patch.object(cls, "_project", passthrough(cls._project)), \
            mock.patch.object(Schedule, "value", passthrough(Schedule.value)):
        yield dataclasses.replace(problem, objective=objective)


def run_or_divergence(problem, **grid):
    try:
        return integrate(problem, **grid)
    except DivergenceError as exc:
        return exc


def assert_same_bytes(inlined, called):
    """Two runs of one problem, the one spliced in and the one called, wrote the same bytes."""
    if isinstance(inlined, DivergenceError):
        assert isinstance(called, DivergenceError) and called.time == inlined.time
        assert str(called) == str(inlined)
        return
    assert inlined.x.tobytes() == called.x.tobytes()
    assert inlined.feas_drift.tobytes() == called.feas_drift.tobytes()


SPLICED_SETS = ("wholespace", "box", "ball")
CLOCKS = {"constant": Constant(K=0.5), "power": Power(K=1.0, alpha=0.5),
          "power_ge1": PowerGE1(K=2.0, alpha=1.5)}


class TestInlinedEqualsCalled:
    """A run whose kernels are spliced into the float loop writes the bytes
    of the run that calls each of them through a wrapper."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(SET_KINDS),
           objective=st.sampled_from(OBJECTIVE_KINDS + ("power_quartic",)),
           dim=st.sampled_from([1, 2, 3, FLOAT_MAX_DIM]), clock=st.sampled_from(sorted(CLOCKS)),
           start=st.sampled_from(["inside", "boundary"]), seed=st.integers(0, 2**32 - 1))
    def test_same_bytes(self, kind, objective, dim, clock, start, seed):
        rng = np.random.default_rng(seed)
        domain = random_set(kind, rng, dim)
        if objective == "power_quartic":
            obj = make_power_objective(even_quartic(dim), theta=float(rng.choice([0.1, 0.3, 0.5])))
        else:
            obj = random_objective(objective, rng, dim, thetas=(0.1, 0.25, 0.3, 0.5))
        # a far point projects onto the boundary of every set but the whole space
        x0 = domain._project(rng.uniform(-1.5, 1.5, dim) * (10.0 if start == "boundary" else 1.0))
        problem = FlowProblem(domain, obj, CLOCKS[clock], x0)
        # the catalog's kernels are spliced in, but the projections onto a simplex, which
        # sorts, and the planes, and the gradient of a power of even_quartic, whose fn is
        # not: those are called on either path
        assert [part is not None for part in map(inline, kernels(problem))] == [
            objective != "power_quartic", kind in SPLICED_SETS, True]
        grid = dict(horizon=0.6, step=0.01, sample_every=0.1)
        inlined = run_or_divergence(problem, **grid)
        with all_called(problem) as called_problem:
            assert [inline(kernel) for kernel in kernels(called_problem)] == [None] * 3
            assert flow._on_floats(called_problem)
            called = run_or_divergence(called_problem, **grid)
        assert_same_bytes(inlined, called)

    @pytest.mark.parametrize("dim", [1, 2, FLOAT_MAX_DIM])
    def test_a_settled_start(self, dim):
        # the gradient is 0 on the flat bottom: the first segment's last step returns
        # x0, _settles holds, and no later step is taken
        center = np.linspace(-0.2, 0.2, dim)
        problem = FlowProblem(Ball(np.zeros(dim), 2.0), flat_bottom(center, 0.5),
                              Power(K=1.0, alpha=0.5), center)
        grid = dict(horizon=5.0, step=0.01, sample_every=0.1)
        answers, settles = [], flow._settles

        def spy(*args):
            answers.append(settles(*args))
            return answers[-1]

        with mock.patch.object(flow, "_settles", spy):
            inlined = integrate(problem, **grid)
            with all_called(problem) as called_problem:
                called = integrate(called_problem, **grid)
        assert answers == [True, True]
        assert_same_bytes(inlined, called)
        assert np.all(inlined.x == center)

    @pytest.mark.parametrize("dim", [1, 2, FLOAT_MAX_DIM])
    def test_an_overflow_raises_at_the_same_time(self, dim):
        # ||x||^10 from 3 e_1: _pow overflows to inf inside the first steps
        f = make_power_objective(quadratic(np.zeros(dim)), theta=0.1)
        x0 = np.zeros(dim)
        x0[0] = 3.0
        problem = FlowProblem(WholeSpace(dim), f, Constant(K=1.0), x0)
        grid = dict(horizon=5.0, step=0.5, sample_every=0.5)
        inlined = run_or_divergence(problem, **grid)
        with all_called(problem) as called_problem:
            called = run_or_divergence(called_problem, **grid)
        assert isinstance(inlined, DivergenceError) and inlined.time == 0.5
        assert_same_bytes(inlined, called)


class TestPowerGradientSource:
    """The spliced gradient of a power of a quadratic computes the residual
    x - a once per coordinate and stage, and raises the base value only
    where the exponent p - 1 is neither 1 nor 0."""

    @staticmethod
    def rendered(dim, theta):
        q = quadratic(np.linspace(-1.0, 1.0, dim), diag=np.linspace(1.0, 2.0, dim), shift=0.5)
        grad = inline(make_power_objective(q, theta).grad_fn)[0]
        # the projection and the clock called, so that every ** is the gradient's
        return flow._rk4_source(dim, grad, flow._CALL_POINT, flow._CALL)

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.3, 0.5])
    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_one_residual_per_coordinate_and_stage(self, dim, theta):
        text = self.rendered(dim, theta)
        for i in range(dim):
            # stage a steps from x, stages b, c and d from y
            assert text.count(f"x{i} - grad_f_a{i}") == 1
            assert text.count(f"y{i} - grad_f_a{i}") == 3
            assert text.count(f"_a{i}") == 4 + 1  # and the setup's unpacking
        assert "grad_g_" not in text  # the gradient shares the value's locals

    @pytest.mark.parametrize("dim", [1, 2, 7])
    @pytest.mark.parametrize("theta", [0.25, 0.5])
    def test_exact_exponents_write_no_power(self, dim, theta):
        text = self.rendered(dim, theta)
        assert "**" not in text and "grad_pow(" not in text
        raised = "grad_c = grad_p * grad_v\n" if theta == 0.25 else "grad_c = grad_p\n"
        assert text.count(raised) == 4

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_other_exponents_keep_their_power(self, dim):
        text = self.rendered(dim, 0.3)
        assert text.count("grad_c = grad_p * grad_v ** grad_e\n") == 4 and "grad_pow(" not in text
        text = self.rendered(dim, 0.1)
        assert text.count("grad_c = grad_p * grad_pow(grad_v, grad_e)\n") == 4 and "**" not in text

    def test_exponents_1_and_0_are_exact(self):
        # what lets the fragment write p * v and p for p * v ** e at e = 1 and 0
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
        for v in (-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
                  payload):
            for raised in (v**1.0, _pow(v, 1.0)):
                assert struct.pack("<d", raised) == struct.pack("<d", v), v
            for raised in (v**0.0, _pow(v, 0.0)):
                assert struct.pack("<d", raised) == struct.pack("<d", 1.0), v


def catalog_templates(rng, n):
    """(Fragment, float constants) of every catalog kernel written as a
    template, at n coordinates."""
    q = quadratic(rng.uniform(-1.0, 1.0, n), diag=rng.uniform(0.5, 2.0, n),
                  shift=rng.uniform(0.0, 1.0))
    fb = flat_bottom(rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 1.0))
    q_consts, fb_consts = inline(q.grad_fn)[1], inline(fb.grad_fn)[1]
    return [(objectives._QUADRATIC, q_consts), (objectives._QUADRATIC_GRAD, q_consts),
            (objectives._EVEN_QUARTIC, ()), (objectives._EVEN_QUARTIC_GRAD, ()),
            (objectives._FLAT_BOTTOM, fb_consts), (objectives._FLAT_BOTTOM_GRAD, fb_consts),
            *(inline(random_set(kind, rng, n)._project) for kind in SPLICED_SETS)]


class TestTemplates:
    """Every catalog template renders on floats and on rows, one row or
    many, with the same floats bit for bit up to FLOAT_MAX_DIM coordinates;
    a value's form gives them too."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from(DIMS), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 5.0]))
    def test_floats_one_row_and_rows_agree(self, dim, rows, seed, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, dim)) * scale
        X[0] = 0.0  # even_quartic's minimum, a zero gradient
        for fragment, consts in catalog_templates(rng, dim):
            tiles = row_consts(consts)
            on_rows = row_kernel(fragment)(tiles, X)
            points = [point_kernel(fragment, dim)(consts, x) for x in X.tolist()]
            one_row = [row_kernel(fragment)(tiles, X[k:k + 1]) for k in range(rows)]
            vector = "{vec:{out}@}" in fragment.body
            assert on_rows.shape == ((rows, dim) if vector else (rows, 1)), fragment
            assert np.array(points).tobytes() == on_rows.tobytes(), fragment
            assert np.array(one_row).tobytes() == on_rows.tobytes(), fragment
            if not vector:
                uv, phi = form_kernels(fragment)
                assert phi(tiles, _row_dots(*uv(tiles, X))).tobytes() == on_rows.tobytes()

    def test_a_sum_of_three_factors_renders_on_one_row(self):
        # the row loop's rendering: the last factor is V, the others U's product
        assert source(None, objectives._QUADRATIC.body, k="k", x="x", out="o").splitlines() == [
            "k_r = x - k_a", "o = _row_dots(k_r * k_r, k_d)[0] + k_shift"]

    def test_branches_and_clips_render_per_rendering(self):
        # the float spelling is the text flow's loop splices in, the row one numpy's
        ball = inline(Ball([0.0, 0.0], 1.0)._project)[0]
        assert source(2, ball.body, k="p", x="x", out="o").endswith(
            "if p_r <= p_radius:\n    o0, o1 = x0, x1\nelse:\n    p_s = p_radius / p_r\n"
            "    o0, o1 = p_c0 + p_s * p_e0, p_c1 + p_s * p_e1")
        assert source(ROWS, ball.body, k="p", x="x", out="o").splitlines()[1:] == [
            "p_r = np.sqrt(_row_dots(p_e, p_e)[:, None])", "if p_r <= p_radius:", "    o = x",
            "else:", "    p_s = p_radius / np.maximum(p_r, p_radius)", "    o = p_c + p_s * p_e"]
        assert source(1, "{vec:o@} = {clip:x@, lo@, hi@}") == (
            "o0, = lo0 if x0 < lo0 else hi0 if x0 > hi0 else x0,")
        assert source(ROWS, "{vec:o@} = {clip:x@, lo@, hi@}") == (
            "o = np.minimum(np.maximum(x, lo), hi)")
        assert source(3, "e = {clip:e, 0.0}") == "e = 0.0 if e < 0.0 else e"
        assert source(None, "e = {clip:e, 0.0}") == "e = np.maximum(e, 0.0)"
        assert source(2, "{vec:o@} = {zeros}") == "o0, o1 = (0.0,) * 2"


class TestFragmentSource:
    """The vec and sum fields of a template spell a vector over n coordinates."""

    def test_vec_and_sum_expand(self):
        assert source(2, "{vec:a@} = {vec:x@ - c@}") == "a0, a1 = x0 - c0, x1 - c1"
        assert source(1, "{vec:a@} = [{vec:x@}]") == "a0, = [x0,]"
        # a term's parentheses, at any depth, stay in the term
        assert source(2, "r = {sum:((x@ - a@) * (x@ - a@))}") == (
            "r = (((x0 - a0) * (x0 - a0)) + ((x1 - a1) * (x1 - a1)))")

    def test_a_nested_template_expands_in_the_outer(self):
        inner = "{vec:{out}@} = {vec:{k}_w@ * {x}@}\n{k}_s = {sum:{x}@} * {n}"
        outer = nested(inner, "g", out="{k}_b")
        assert outer == "{vec:{k}_b@} = {vec:{k}_g_w@ * {x}@}\n{k}_g_s = {sum:{x}@} * {n}"
        assert source(2, outer, k="grad", x="y") == (
            "grad_b0, grad_b1 = grad_g_w0 * y0, grad_g_w1 * y1\ngrad_g_s = (y0 + y1) * 2")


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
        assert _row_dots(X, X).tolist() == [_dot(x, x) for x in X.tolist()]

    @pytest.mark.parametrize("width", [FLOAT_MAX_DIM + 1, 1000])
    def test_a_wider_float_sum_renders_as_fsum(self, width):
        # as _dot sums it, correctly rounded, where a row kernel takes np.vecdot
        text = source(width, "{sum:x@ * w@}")
        assert text.startswith("math.fsum((x0 * w0, x1 * w1, ")
        total = eval(f"lambda x, w: {source(width, '{sum:x[@] * w[@]}')}")
        rng = np.random.default_rng(width)
        x, w = (rng.normal(size=width) * rng.choice([1e-8, 1.0, 1e8], width) for _ in range(2))
        assert struct.pack("<d", total(x.tolist(), w.tolist())) == struct.pack(
            "<d", _dot(x.tolist(), w.tolist()))

    def test_a_sum_of_negative_zeros_keeps_its_sign_in_both(self):
        X = np.full((1, 3), -0.0)
        assert math.copysign(1.0, _row_dots(X, np.ones(3))[0]) == -1.0
        assert math.copysign(1.0, _dot([-0.0] * 3, [1.0] * 3)) == -1.0

    @pytest.mark.parametrize("width", DIMS)
    def test_the_float_rendering_of_a_sum_is_dot(self, width):
        # the rendering leaves out _dot's start, -0.0, the identity of +
        params = ", ".join(f"{v}{i}" for v in "xw" for i in range(width))
        total = eval(f"lambda {params}: {source(width, '{sum:x@ * w@}')}")
        e = 2.0**-53
        nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
        cases = [([-0.0] * width, [1.0] * width),  # all-negative-zero terms
                 ([0.0, -0.0] * width, [-1.0, 1.0] * width),  # zeros of both signs
                 ([-0.0] * width, [-1.0, 1.0] * width),
                 ([1.0] + [e] * (width - 1), [1.0] * width),  # 1 + e + e is 1
                 ([2.0, nan] * width, [1.0] * width),  # a NaN, payload kept
                 ([nan] * width, [-1.0] * width)]
        for x, w in cases:
            x, w = x[:width], w[:width]
            assert struct.pack("<d", total(*x, *w)) == struct.pack("<d", _dot(x, w)), (x, w)


class TestOverflow:
    def test_overflow_in_a_step_is_that_steps_divergence(self):
        # ||x||^10 from (3, 0): Python's ** overflows inside the first steps
        f = make_power_objective(quadratic([0.0, 0.0]), theta=0.1)
        problem = FlowProblem(WholeSpace(2), f, Constant(K=1.0), [3.0, 0.0])
        with pytest.raises(DivergenceError) as exc:
            integrate(problem, horizon=5.0, step=0.5, sample_every=0.5)
        assert exc.value.time == 0.5
