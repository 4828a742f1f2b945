"""Objective catalog: frozen values, finite-difference gradient oracle,
certificate checks with known pass/fail outcomes."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgflow.errors import InvalidInputError, UnsupportedObjectiveError
from pgflow.geometry import AffineHyperplane, Ball, Box, WholeSpace, _row_dots
from pgflow.objectives import (
    GAP_FLOOR,
    GRAD_CHECK_BLOCK_FLOATS,
    GRAD_CHECK_TOL,
    Desingularizer,
    HolderErrorBound,
    Objective,
    even_quartic,
    flat_bottom,
    certificate_checks,
    gheb_check,
    grad_check,
    lojasiewicz_check,
    make_power_objective,
    quadratic,
    singleton,
)

from test_flow import SET_KINDS, random_set
from test_geometry import just_outside

RNG = np.random.default_rng(555)


def norm4(dim=2):
    # ||x||^4 via the power construction, the theta=1/4 workhorse
    return make_power_objective(quadratic(np.zeros(dim)), theta=0.25)


class TestFrozenValues:
    def test_quadratic_at_origin(self):
        assert quadratic([0.0, 0.0]).value([0.0, 0.0]) == 0.0

    def test_quartic_value(self):
        assert norm4().value([1.0, 1.0]) == pytest.approx(4.0)

    def test_shifted_center(self):
        f = quadratic([2.0, 0.0])
        assert f.value([1.0, 0.0]) == pytest.approx(1.0)

    def test_quadratic_grad(self):
        np.testing.assert_allclose(quadratic([0.0, 0.0]).grad([1.0, 2.0]), [2.0, 4.0])

    def test_quartic_grad(self):
        np.testing.assert_allclose(norm4().grad([1.0, 0.0]), [4.0, 0.0])

    def test_quartic_grad_at_stationary_point(self):
        np.testing.assert_array_equal(norm4().grad([0.0, 0.0]), [0.0, 0.0])

    def test_flat_bottom_inside_and_out(self):
        f = flat_bottom([0.0, 0.0], 1.0)
        assert f.value([0.5, 0.0]) == 0.0
        assert f.value([2.0, 0.0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(f.grad([0.5, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(f.grad([2.0, 0.0]), [2.0, 0.0])


class TestGradCheck:
    def test_quadratic_fd_error_tiny(self):
        assert grad_check(quadratic([0.0, 0.0]), [1.0, 2.0], h=1e-5) < 1e-8

    def test_quartic_fd_error(self):
        assert grad_check(norm4(), [1.0, 1.0], h=1e-5) < 1e-6

    def test_constant_function_exact(self):
        const = Objective(fn=lambda x: 3.0, grad_fn=lambda x: np.zeros(2), dim=2, name="const")
        assert grad_check(const, [0.3, -0.7]) == 0.0

    def test_catalog_gradients_at_random_points(self):
        objs = [
            quadratic([1.0, -2.0], diag=[1.0, 3.0], shift=0.5),
            norm4(),
            even_quartic(2),
            flat_bottom([0.5, 0.5], 0.5),
            make_power_objective(quadratic([0.0, 0.0, 0.0]), theta=0.4),
        ]
        for obj in objs:
            for _ in range(100):
                x = RNG.normal(size=obj.dim, scale=2.0)
                # keep clear of the flat-bottom kink where FD is one-sided
                if obj.name == "flat_bottom" and abs(np.linalg.norm(x - [0.5, 0.5]) - 0.5) < 1e-3:
                    continue
                assert grad_check(obj, x, h=1e-5) < 1e-5, obj.name

    def test_rejects_nonpositive_h(self):
        with pytest.raises(InvalidInputError):
            grad_check(quadratic([0.0]), [1.0], h=0.0)


def grad_check_reference(obj, x, h=1e-5):
    """The per-coordinate loop grad_check replaced: 2n scalar fn calls,
    each difference divided by its realised step."""
    p = np.asarray(x, dtype=float)
    g = obj.grad(p)
    worst = 0.0
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        fd = (obj.fn(p + e) - obj.fn(p - e)) / ((p + e) - (p - e))[i]
        err = abs(g[i] - fd) / max(1.0, abs(g[i]), abs(fd))
        worst = max(worst, err)
    return worst


def catalog(n):
    """One objective per catalog family at dimension n."""
    rng = np.random.default_rng(n)
    center = rng.normal(size=n)
    return [
        quadratic(center, diag=rng.uniform(0.5, 2.0, size=n), shift=0.5),
        even_quartic(n),
        flat_bottom(center, 0.5 * np.sqrt(n)),
        make_power_objective(quadratic(center), theta=0.25),
        make_power_objective(quadratic(center, diag=rng.uniform(0.5, 2.0, size=n)), theta=0.4),
    ]


BLOCK_DIMS = (1, 2, 3, 65, 1000)


class TestBatchedGradCheck:
    @pytest.mark.parametrize("n", BLOCK_DIMS)
    def test_agrees_with_per_coordinate_reference(self, n):
        h = 1e-5
        rng = np.random.default_rng(100 + n)
        for obj in catalog(n):
            for _ in range(3):
                x = rng.normal(size=n, scale=2.0)
                tol = 64 * np.finfo(float).eps * max(1.0, abs(obj.fn(x))) / h
                got, ref = grad_check(obj, x, h=h), grad_check_reference(obj, x, h=h)
                assert abs(got - ref) <= tol, (obj.name, n, got, ref)

    @pytest.mark.parametrize("n", BLOCK_DIMS)
    def test_fn_rows_matches_fn_and_leaves_input_alone(self, n):
        rng = np.random.default_rng(200 + n)
        X = rng.normal(size=(7, n), scale=2.0)
        X[0] = 0.0  # inside the flat bottom
        before = X.copy()
        for obj in catalog(n):
            values = obj.fn_rows(X)
            assert values.shape == (7,)
            np.testing.assert_allclose(values, [obj.fn(row) for row in X], rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(X, before)

    @pytest.mark.parametrize("n", (3, 65, 1000))
    def test_wrong_last_coordinate_fails(self, n):
        obj = quadratic(np.linspace(-1.0, 1.0, n))
        good = obj.grad_fn

        def bad(x):
            g = good(x)
            g[-1] += 1.0
            return g

        wrong = dataclasses.replace(obj, grad_fn=bad)
        x = np.full(n, 0.3)
        assert grad_check(obj, x) < 1e-8
        assert grad_check(wrong, x) > 1e-4

    @pytest.mark.parametrize("n", (3, 65, 1000))
    def test_wrong_last_coordinate_fails_through_the_form(self, n):
        # a new grad_fn keeps fn_rows, and with it the row-sum form, of
        # every catalog family
        x = np.full(n, 0.3)
        for obj in catalog(n):
            good = obj.grad_fn

            def bad(x):
                g = good(x)
                g[-1] += 1.0
                return g

            wrong = dataclasses.replace(obj, grad_fn=bad)
            assert wrong.fn_rows is obj.fn_rows
            assert hasattr(obj.fn_rows, "form"), obj.name
            assert grad_check(obj, x) <= GRAD_CHECK_TOL, obj.name
            assert grad_check(wrong, x) > GRAD_CHECK_TOL, obj.name
            assert grad_check(wrong, np.stack([x, -x])) > GRAD_CHECK_TOL, obj.name

    @pytest.mark.parametrize("scale", (6.0, 8.0))
    def test_exact_gradients_pass_at_large_scale(self, scale):
        # at n = 1000 and scale 8, |f| of a quartic is about 1e7 and the
        # difference's rounding error alone exceeds the 1e-4 bar: exact
        # gradients read up to 3.1e-4 before the bar allowed for it
        rng = np.random.default_rng(int(scale))
        for obj in catalog(1000):
            for _ in range(3):
                x = rng.normal(size=1000, scale=scale)
                assert grad_check(obj, x) <= GRAD_CHECK_TOL, obj.name

    def test_one_wrong_coordinate_fails_at_large_scale(self):
        # the rounding allowance is a few units in |f|'s last place, not a
        # relative one: a 1% error in the last coordinate still fails
        obj = even_quartic(1000)
        x = np.random.default_rng(8).normal(size=1000, scale=8.0)
        x[-1] = 8.0
        good = obj.grad_fn

        def bad(x):
            g = good(x)
            g[-1] *= 1.01
            return g

        assert grad_check(obj, x) <= GRAD_CHECK_TOL
        assert grad_check(dataclasses.replace(obj, grad_fn=bad), x) > GRAD_CHECK_TOL

    @pytest.mark.parametrize("domain, center", [
        (Ball([1e8, 0.0], 1.0), [1e8, 0.0]),
        (AffineHyperplane([1.0, 1.0], 1e8), [5e7, 5e7]),
    ], ids=["disk", "line"])
    def test_far_from_the_origin_the_step_is_the_realised_one(self, domain, center):
        # p_i +- h round to multiples of ulp(1e8) = 1.5e-8: divided by 2h, an
        # exact gradient read 1.3e-4 here
        obj = quadratic(center)
        for x in domain.sample(np.random.default_rng(1), 20):
            assert grad_check(obj, x) <= 1e-10

    def test_a_step_lost_to_rounding_reads_as_before(self):
        # at 1e12, p_0 +- 1e-5 round to p_0: the difference is 0 over 2h, and
        # the rounding allowance of f = 1e24 covers the exact gradient
        assert grad_check(quadratic([0.0, 0.0]), [1e12, 1.0]) <= GRAD_CHECK_TOL

    @pytest.mark.parametrize("center", [[1e8, 0.0], [0.3, -0.2]], ids=["far", "unit"])
    def test_a_gradient_off_by_a_thousandth_fails_at_any_scale(self, center):
        obj = quadratic(center)
        scaled = dataclasses.replace(obj, grad_fn=lambda x: obj.grad_fn(x) * (1.0 + 1e-3))
        for x in Ball(center, 1.0).sample(np.random.default_rng(2), 20):
            if np.linalg.norm(x - center) > 0.2:  # |g| > 0.4, so some |g_i| * 1e-3 > 2.8e-4
                assert grad_check(scaled, x) > GRAD_CHECK_TOL

    def test_last_block_of_1000_is_partial(self):
        block = GRAD_CHECK_BLOCK_FLOATS // (2 * 1000)
        assert 1 < block < 1000 and 1000 % block != 0

    def test_objective_without_fn_rows_is_checked_row_by_row(self):
        sq = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=3)
        X = np.random.default_rng(5).normal(size=(4, 3))
        before = X.copy()
        assert np.array_equal(sq.fn_rows(X), [sq.fn(row) for row in X])
        np.testing.assert_array_equal(X, before)
        x = [0.5, -1.0, 2.0]
        assert grad_check(sq, x) == grad_check_reference(sq, x)
        assert grad_check(sq, x) < 1e-8
        skewed = dataclasses.replace(sq, grad_fn=lambda x: 2.0 * x + [0.0, 0.0, 1.0])
        assert grad_check(skewed, x) > 1e-4

    def test_power_of_objective_without_fn_rows(self):
        base = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=2,
                         optimum=quadratic([0.0, 0.0]).optimum, strong_convexity=2.0)
        obj = make_power_objective(base, theta=0.25)
        X = np.random.default_rng(6).normal(size=(5, 2))
        # a power objective's exponent may round differently in numpy's pow
        np.testing.assert_allclose(obj.fn_rows(X), [obj.fn(row) for row in X],
                                   rtol=8 * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(obj.grad_rows(X), [obj.grad_fn(row) for row in X],
                                   rtol=8 * np.finfo(float).eps, atol=0.0)
        assert grad_check(obj, [1.0, 1.0]) < 1e-6


def called_rows(obj, received):
    """``obj`` with its fn_rows behind a functools.wraps pass-through, which
    hides the kernel's row-sum form: grad_check then evaluates whole probe
    rows. The pass-through appends the count of each call's rows to
    ``received``."""
    rows = obj.fn_rows

    @functools.wraps(rows)
    def called(X):
        received.append(len(X))
        return rows(X)

    return dataclasses.replace(obj, fn_rows=called)


FORM_DIMS = (1, 2, 3, 7, 8, 65, 182, 1000)
FAMILIES = ("quadratic", "even_quartic", "flat_bottom", "power")


def form_case(kind, theta, n, rng, count, scale, shift=0.5):
    """A catalog objective of one family, its row-sum form (uv, phi) written
    out from the family's formula, its centre, and ``count`` points at
    ``scale``; flat_bottom's alternate inside and outside its ball. A
    power's base takes |shift|, since it must be nonnegative."""
    center = rng.normal(size=n) * scale
    if kind == "quadratic":
        d = rng.uniform(0.5, 2.0, n)
        obj = quadratic(center, diag=d, shift=shift)
        form = (lambda X: ((X - center) * (X - center), d), lambda S: S + shift)
    elif kind == "even_quartic":
        obj, center = even_quartic(n), np.zeros(n)
        form = (lambda X: (X, X), lambda S: S * S + S)
    elif kind == "flat_bottom":
        rho = scale * np.sqrt(n)
        obj = flat_bottom(center, rho)
        form = (lambda X: (X - center, X - center),
                lambda S: np.maximum(np.sqrt(S) - rho, 0.0) * np.maximum(np.sqrt(S) - rho, 0.0))
    else:
        d, p = rng.uniform(0.5, 2.0, n), 1.0 / (2.0 * theta)
        obj = make_power_objective(quadratic(center, diag=d, shift=abs(shift)), theta)
        form = (lambda X: ((X - center) * (X - center), d), lambda S: (S + abs(shift)) ** p)
    U = rng.normal(size=(count, n))
    radius = scale * np.sqrt(n) * np.where(np.arange(count) % 2 == 0, 0.5, 1.5)
    return obj, form, center, center + U * (radius / np.linalg.norm(U, axis=1))[:, None]


def written_out_check(obj, X, values, h=1e-5):
    """grad_check written out one point at a time, with (f(p + h e_i),
    f(p - h e_i)) from ``values(p, h)``, and grad_check's safeguarded error."""
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for p in X:
            g = obj.grad(p)
            f_plus, f_minus = values(p, h)
            span = (p + h) - (p - h)
            span[span == 0.0] = 2.0 * h
            fd = (f_plus - f_minus) / span
            floor = 4.0 * np.finfo(float).eps / (span * GRAD_CHECK_TOL)
            scale = np.max([np.ones_like(g), np.abs(g), np.abs(fd),
                            floor * np.maximum(np.abs(f_plus), np.abs(f_minus))], axis=0)
            worst = np.maximum(worst, np.max(np.abs(g - fd) / scale))
    return float(worst)


def row_sum_values(obj, form):
    """f(p +- h e_i) as phi(S + (U_i^+- V_i^+- - U_i V_i)), S being p's row sum."""
    uv, phi = form

    def values(p, h):
        U, V = uv(p[None])
        S = _row_dots(U, V)[:, None]
        # phi(S) is f(p) bit for bit: the form is fn_rows' own arithmetic
        assert phi(S)[0].tobytes() == obj.fn_rows(p[None]).tobytes()
        (U_plus, V_plus), (U_minus, V_minus) = uv(p[None] + h), uv(p[None] - h)
        return (phi(S + (U_plus * V_plus - U * V))[0], phi(S + (U_minus * V_minus - U * V))[0])

    return values


def probe_row_values(obj):
    """f(p +- h e_i) as fn_rows of the whole probe rows p +- h e_i."""

    def values(p, h):
        E = h * np.eye(len(p))
        return obj.fn_rows(p + E), obj.fn_rows(p - E)

    return values


class TestRowSumUpdate:
    """grad_check through a catalog fn_rows' form phi(_row_dots(U, V))
    updates each point's row sum by the probe's one changed term."""

    @pytest.mark.parametrize("n", FORM_DIMS)
    @given(kind=st.sampled_from(FAMILIES), theta=st.sampled_from((0.25, 0.4)),
           count=st.integers(1, 3), scale=st.sampled_from((0.1, 1.0, 1e3, 1e8)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_same_bits_as_the_written_out_update(self, kind, theta, n, count, scale, seed):
        obj, form, _, X = form_case(kind, theta, n, np.random.default_rng(seed), count, scale)
        got = grad_check(obj, X)
        assert repr(got) == repr(written_out_check(obj, X, row_sum_values(obj, form)))
        # one call over the rows is the worst of the points' own checks
        assert repr(got) == repr(max(grad_check(obj, x) for x in X))

    @pytest.mark.parametrize("n", (2, 1000))
    @pytest.mark.parametrize("scale", (1.0, 1e4, 1e8))
    @pytest.mark.parametrize("shift", (0.0, 1e8, -1e8, 1e15))
    def test_exact_gradients_pass_at_every_shift(self, n, scale, shift):
        # even_quartic and flat_bottom have no shift; beyond scale 1,
        # flat_bottom meets the case below
        rng = np.random.default_rng(int(n + scale))
        cases = [("quadratic", 0.25), ("even_quartic", 0.25), ("power", 0.25), ("power", 0.4)]
        for kind, theta in cases + [("flat_bottom", 0.25)] * (scale == 1.0):
            obj, _, _, X = form_case(kind, theta, n, rng, 3, scale, shift)
            assert grad_check(obj, X) <= GRAD_CHECK_TOL, (kind, theta)

    @pytest.mark.xfail(strict=True, reason="flat_bottom's sqrt(S) - rho cancels: its values "
                       "round by eps r / (r - rho) relative, beyond the 2 eps the floor allows")
    @pytest.mark.parametrize("n, scale", [(2, 1e8), (1000, 1e4)])
    def test_exact_flat_bottom_gradient_just_outside_a_far_ball(self, n, scale):
        rng = np.random.default_rng(0)
        center, rho = rng.normal(size=n) * scale, scale * np.sqrt(n)
        U = rng.normal(size=(20, n))
        X = center + U * (1.1 * rho / np.linalg.norm(U, axis=1))[:, None]
        assert grad_check(flat_bottom(center, rho), X) <= GRAD_CHECK_TOL

    @pytest.mark.parametrize("n", (3, 1000))
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_a_thousandth_off_in_a_middle_coordinate_fails(self, n, kind):
        # the points of the first block of rows grad_check takes have a zero
        # gradient in the middle coordinate, so only the second block can fail
        obj, _, center, X = form_case(kind, 0.25, n, np.random.default_rng(n), 2, 1.0)
        first, mid = GRAD_CHECK_BLOCK_FLOATS // (3 * n), n // 2
        X = np.repeat(X[1:], first + 5, axis=0)  # outside flat_bottom's ball
        X[:first, mid] = center[mid]
        X[first:, mid] = center[mid] + 1.0
        good = obj.grad_fn

        def bad(x):
            g = good(x)
            g[mid] *= 1.0 + 1e-3
            return g

        wrong = dataclasses.replace(obj, grad_fn=bad)
        assert wrong.fn_rows is obj.fn_rows and hasattr(obj.fn_rows, "form")
        assert grad_check(obj, X) <= GRAD_CHECK_TOL
        assert grad_check(wrong, X[:first]) <= GRAD_CHECK_TOL
        assert grad_check(wrong, X) > GRAD_CHECK_TOL
        assert grad_check(wrong, X[-1]) > GRAD_CHECK_TOL

    @pytest.mark.parametrize("n", (2, 1000))
    def test_black_box_rows_get_every_probe_row(self, n):
        # a functools.wraps wrapper, a caller's fn_rows and a replaced fn
        # have no form: fn_rows gets the 2n whole probe rows of each point
        obj, _, _, X = form_case("quadratic", 0.25, n, np.random.default_rng(n), 3, 1.0)
        received = []
        wrapped = called_rows(obj, received)
        assert repr(grad_check(wrapped, X)) == repr(written_out_check(obj, X, probe_row_values(obj)))
        assert sum(received) == 2 * n * len(X)
        received.clear()

        def rows(X):  # a caller's fn_rows
            received.append(len(X))
            return obj.fn_rows(X)

        assert grad_check(dataclasses.replace(obj, fn_rows=rows), X) <= GRAD_CHECK_TOL
        assert sum(received) == 2 * n * len(X)
        points = []

        def counted(x):
            points.append(1)
            return obj.fn(x)

        replaced = dataclasses.replace(obj, fn=counted)
        assert not hasattr(replaced.fn_rows, "form")
        assert grad_check(replaced, X) <= GRAD_CHECK_TOL
        assert len(points) == 2 * n * len(X)

    @pytest.mark.parametrize("n", (2, 1000))
    def test_overflow_is_nan_and_silent(self, n):
        # (1e200)^2 overflows in a term, not only in the row sum
        obj = quadratic(np.zeros(n))
        X = np.full((2, n), 0.5)
        X[1, -1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grad_check(obj, X[0]) < 1e-8
            assert np.isnan(grad_check(obj, X))

    @pytest.mark.parametrize("n", (2, 1000))
    def test_an_infinite_row_sum_is_nan_and_silent(self, n):
        # p's row sum S is inf: one term overflows, or every term is 1e308
        # and their sum does; every probe value is then inf, and inf - inf NaN
        obj = quadratic(np.zeros(n))
        X = np.full((3, n), 0.5)
        X[1, 0] = 1e200
        X[2] = 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grad_check(obj, X[0]) < 1e-8
            assert np.isnan(grad_check(obj, X[1]))
            assert np.isnan(grad_check(obj, X[2]))
            assert np.isnan(grad_check(obj, X))


class TestGradRows:
    @pytest.mark.parametrize("n", BLOCK_DIMS)
    def test_grad_rows_matches_grad_fn_and_leaves_input_alone(self, n):
        rng = np.random.default_rng(300 + n)
        for obj in catalog(n):
            X = rng.normal(size=(7, n), scale=2.0)
            X[0] = 0.0  # inside the flat bottom
            X[1] = obj.optimum.argmin.sample(rng, 1)[0]  # on the argmin: a zero gradient
            before = X.copy()
            G = obj.grad_rows(X)
            np.testing.assert_array_equal(X, before)
            expected = np.array([obj.grad_fn(row) for row in X])
            assert G.shape == (7, n)
            # a power objective's exponent may round differently in numpy's pow
            np.testing.assert_allclose(G, expected, rtol=8 * np.finfo(float).eps, atol=0.0)
            assert np.all(G[1] == 0.0)

    def test_quadratic_rows_are_bitwise(self):
        obj = catalog(3)[0]
        X = np.random.default_rng(4).normal(size=(9, 3))
        assert np.array_equal(obj.grad_rows(X), [obj.grad_fn(row) for row in X])

    def test_objective_without_rows_gets_per_row_kernels(self):
        sq = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=2)
        X = np.random.default_rng(7).normal(size=(5, 2))
        before = X.copy()
        assert np.array_equal(sq.grad_rows(X), [sq.grad_fn(row) for row in X])
        np.testing.assert_array_equal(X, before)
        # replacing a point kernel derives its rows again
        moved = dataclasses.replace(sq, fn=lambda x: float(x @ x) + 1.0,
                                    grad_fn=lambda x: 2.0 * x - 1.0)
        assert np.array_equal(moved.fn_rows(X), [moved.fn(row) for row in X])
        assert np.array_equal(moved.grad_rows(X), [moved.grad_fn(row) for row in X])
        # a catalog objective keeps its vectorised kernels
        q = quadratic([1.0, 2.0])
        kept = dataclasses.replace(q, optimum=None)
        assert kept.fn_rows is q.fn_rows and kept.grad_rows is q.grad_rows


class TestReplacedPointKernels:
    """A catalog row kernel mirrors one point kernel; replacing that point
    kernel must not leave the old rows behind."""

    def test_new_gradient_gets_its_own_rows(self):
        a = np.array([0.5, 0.0])
        q = quadratic(a)
        moved = dataclasses.replace(q, grad_fn=lambda x: 3.0 * (x - a))
        X = np.zeros((1, 2))
        assert np.array_equal(moved.grad_fn(X[0]), [-1.5, 0.0])
        assert np.array_equal(moved.grad_rows(X), [[-1.5, 0.0]])
        assert moved.fn_rows is q.fn_rows  # fn is unchanged, so its rows stay

    @pytest.mark.parametrize("n", (1, 3))
    def test_every_catalog_kernel_follows_its_point_kernel(self, n):
        X = np.random.default_rng(8).normal(size=(4, n))
        for obj in catalog(n):
            moved = dataclasses.replace(obj, fn=lambda x: float(x.sum()) + 7.0,
                                        grad_fn=lambda x: x + 1.0)
            assert not hasattr(moved.fn_rows, "form"), obj.name  # a new fn: no form
            assert np.array_equal(moved.fn_rows(X), [moved.fn(x) for x in X]), obj.name
            assert np.array_equal(moved.grad_rows(X), [moved.grad_fn(x) for x in X]), obj.name

    def test_explicit_row_kernel_is_kept(self):
        q = quadratic([1.0, 2.0])

        def rows(X):
            return np.zeros(len(X))

        kept = dataclasses.replace(q, fn=lambda x: 0.0, fn_rows=rows)
        assert kept.fn_rows is rows

    def test_wrapped_point_kernel_keeps_the_catalog_rows(self):
        q = quadratic([1.0, 2.0])

        @functools.wraps(q.grad_fn)
        def counted(x):
            return q.grad_fn(x)

        kept = dataclasses.replace(q, grad_fn=counted)
        assert kept.grad_rows is q.grad_rows

    def test_wrapper_that_changes_values_needs_its_own_rows(self):
        # the rule's limit: a functools.wraps wrapper counts as the kernel it
        # wraps even when it changes the values, so the catalog rows stay
        q = quadratic([1.0, 2.0])

        @functools.wraps(q.grad_fn)
        def scaled(x):
            return 3.0 * q.grad_fn(x)

        X = np.zeros((1, 2))
        stale = dataclasses.replace(q, grad_fn=scaled)
        assert stale.grad_rows is q.grad_rows
        assert np.array_equal(stale.grad_rows(X), [[-2.0, -4.0]])
        assert np.array_equal(stale.grad_fn(X[0]), [-6.0, -12.0])
        # passing grad_rows=None with it derives the row loop
        fresh = dataclasses.replace(q, grad_fn=scaled, grad_rows=None)
        assert np.array_equal(fresh.grad_rows(X), [[-6.0, -12.0]])


class TestGradCheckNaN:
    def test_overflow_fails_the_check(self):
        # f overflows at p +- h e_0, so that difference is inf - inf
        assert np.isnan(grad_check(quadratic([0.0, 0.0]), [1e160, 1.0]))

    def test_overflow_fails_without_fn_rows(self):
        sq = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2.0 * x, dim=2)
        assert np.isnan(grad_check(sq, [1e160, 1.0]))

    def test_nan_in_an_early_block_survives_later_blocks(self):
        n = 1000
        p = np.full(n, 0.5)
        p[0] = 1e160
        assert np.isnan(grad_check(quadratic(np.zeros(n)), p))


class TestPowerConstruction:
    def test_theta_quarter_gives_norm4(self):
        h = norm4()
        assert h.holder.kappa == pytest.approx(1.0)
        assert h.holder.theta == 0.25
        for _ in range(50):
            x = RNG.normal(size=2)
            assert h.value(x) == pytest.approx(float(x @ x) ** 2, abs=1e-10)

    def test_theta_half_is_identity_power(self):
        g = quadratic([0.0, 0.0])
        h = make_power_objective(g, theta=0.5)
        assert h.holder.kappa == pytest.approx(1.0)
        for _ in range(20):
            x = RNG.normal(size=2)
            assert h.value(x) == pytest.approx(g.value(x), abs=1e-12)
            np.testing.assert_allclose(h.grad(x), g.grad(x), atol=1e-12)

    def test_chain_rule_agreement(self):
        g = quadratic([0.5, -0.5], diag=[2.0, 1.0])
        for theta in (0.25, 0.4, 0.5):
            h = make_power_objective(g, theta)
            p = 1.0 / (2.0 * theta)
            for _ in range(30):
                x = RNG.normal(size=2, scale=2.0)
                gv = g.value(x)
                assert h.value(x) == pytest.approx(gv**p, rel=1e-10)
                expected = p * gv ** (p - 1.0) * g.grad(x)
                np.testing.assert_allclose(h.grad(x), expected, rtol=1e-10)

    def test_shifted_base_keeps_argmin_and_shifts_value(self):
        g = quadratic([1.0, 0.0], shift=1.0)
        h = make_power_objective(g, theta=0.25)
        assert h.optimum.f_star == pytest.approx(1.0)
        assert h.value([1.0, 0.0]) == pytest.approx(1.0)
        samples = RNG.normal(size=(1000, 2), scale=2.0) + [1.0, 0.0]
        ratio = gheb_check(h, WholeSpace(2), samples)
        assert ratio >= h.holder.kappa * (1 - 1e-6)

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(InvalidInputError):
            make_power_objective(quadratic([0.0]), theta=0.75)
        with pytest.raises(InvalidInputError):
            make_power_objective(quadratic([0.0]), theta=0.0)

    def test_requires_modulus(self):
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2 * x, dim=2)
        with pytest.raises(UnsupportedObjectiveError):
            make_power_objective(bare, theta=0.25)


class TestCertificates:
    def test_gheb_quadratic_on_ball_ratio_one(self):
        f = quadratic([0.0, 0.0])
        samples = Ball([0.0, 0.0], 1.0).sample(np.random.default_rng(2), 200)
        assert gheb_check(f, Ball([0.0, 0.0], 1.0), samples) == pytest.approx(1.0, abs=1e-9)

    def test_gheb_quartic_on_box(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        samples = box.sample(np.random.default_rng(3), 200)
        assert norm4().holder.theta == 0.25
        assert gheb_check(norm4(), box, samples) == pytest.approx(1.0, abs=1e-9)

    def test_gheb_wrong_theta_fails(self):
        # theta=3/4 on a plain quadratic: ratio = dist^{1/2} -> 0 near the optimum
        f = quadratic([0.0, 0.0])
        bad = Objective(
            fn=f.fn,
            grad_fn=f.grad_fn,
            dim=2,
            optimum=f.optimum,
            holder=HolderErrorBound(kappa=1.0, theta=0.75),
        )
        ball = Ball([0.0, 0.0], 1.0)
        near = np.array([[1e-4, 0.0], [0.0, 1e-5], [1e-3, 1e-3]])
        ratio = gheb_check(bad, ball, near)
        assert ratio < bad.holder.kappa * (1 - 1e-6)

    def test_gheb_small_theta_fails_far_out(self):
        # the same mismatch in the other direction: theta=1/4 on a quadratic
        # breaks for samples with dist > 1
        f = quadratic([0.0, 0.0])
        bad = Objective(
            fn=f.fn,
            grad_fn=f.grad_fn,
            dim=2,
            optimum=f.optimum,
            holder=HolderErrorBound(kappa=1.0, theta=0.25),
        )
        far = np.array([[4.0, 0.0], [0.0, 9.0]])
        assert gheb_check(bad, WholeSpace(2), far) < bad.holder.kappa * (1 - 1e-6)

    def test_gheb_honest_for_whole_catalog(self):
        cases = [
            (quadratic([1.0, -1.0], diag=[0.5, 4.0]), WholeSpace(2)),
            (norm4(), WholeSpace(2)),
            (even_quartic(2), WholeSpace(2)),
            (flat_bottom([0.0, 0.0], 0.7), WholeSpace(2)),
            (make_power_objective(quadratic([0.0, 0.0]), theta=0.4), WholeSpace(2)),
        ]
        rng = np.random.default_rng(10)
        for obj, domain in cases:
            samples = rng.normal(size=(1000, obj.dim), scale=3.0)
            ratio = gheb_check(obj, domain, samples)
            assert ratio >= obj.holder.kappa * (1 - 1e-6), obj.name

    def test_gheb_requires_metadata(self):
        bare = Objective(fn=lambda x: float(x @ x), grad_fn=lambda x: 2 * x, dim=2)
        with pytest.raises(UnsupportedObjectiveError):
            gheb_check(bare, WholeSpace(2), [[1.0, 0.0]])

    def test_gheb_rejects_sample_outside_domain(self):
        f = quadratic([0.0, 0.0])
        with pytest.raises(InvalidInputError):
            gheb_check(f, Ball([0.0, 0.0], 1.0), [[3.0, 0.0]])

    def test_lojasiewicz_quadratic_ratio_two(self):
        f = quadratic([0.0, 0.0])
        phi = Desingularizer(kappa=1.0, theta=0.5)
        samples = RNG.normal(size=(100, 2))
        assert lojasiewicz_check(f, phi, samples) == pytest.approx(2.0, abs=1e-9)

    def test_lojasiewicz_quartic_ratio_four(self):
        phi = Desingularizer(kappa=1.0, theta=0.25)
        samples = RNG.normal(size=(100, 2))
        assert lojasiewicz_check(norm4(), phi, samples) == pytest.approx(4.0, abs=1e-9)

    def test_lojasiewicz_inflated_kappa_fails(self):
        f = quadratic([0.0, 0.0])
        phi = Desingularizer(kappa=10.0, theta=0.5)
        samples = RNG.normal(size=(100, 2))
        assert lojasiewicz_check(f, phi, samples) == pytest.approx(0.2, abs=1e-9)
        assert lojasiewicz_check(f, phi, samples) < 1 - 1e-6


def gheb_check_reference(obj, samples):
    """gheb_check one sample at a time, with Python's pow."""
    worst = np.inf
    for x in samples:
        gap = obj.value(x) - obj.optimum.f_star
        dist = obj.optimum.argmin.residual(x)
        if gap > GAP_FLOOR and dist != 0.0:
            worst = min(worst, gap**obj.holder.theta / dist)
    return worst


def lojasiewicz_check_reference(obj, phi, samples):
    """lojasiewicz_check one sample at a time, with Python's pow."""
    worst = np.inf
    for x in samples:
        gap = obj.value(x) - obj.optimum.f_star
        if gap > GAP_FLOOR:
            worst = min(worst, phi.derivative(gap) * float(np.linalg.norm(obj.grad(x))))
    return worst


class TestBlockedCertificates:
    @pytest.mark.parametrize("n", BLOCK_DIMS)
    def test_match_per_sample_reference(self, n):
        rng = np.random.default_rng(400 + n)
        for obj in catalog(n):
            samples = rng.normal(size=(200, n), scale=2.0)
            # at n = 1000 the first block of 65 rows lies on the argmin, all skipped
            samples[:70] = obj.optimum.argmin.sample(rng, 70)
            phi = Desingularizer(obj.holder.kappa, obj.holder.theta)
            # numpy's pow may round differently from Python's
            rtol = 16 * np.finfo(float).eps
            assert gheb_check(obj, WholeSpace(n), samples) == pytest.approx(
                gheb_check_reference(obj, samples), rel=rtol, abs=0.0), obj.name
            assert lojasiewicz_check(obj, phi, samples) == pytest.approx(
                lojasiewicz_check_reference(obj, phi, samples), rel=rtol, abs=0.0), obj.name

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_feasibility_is_the_row_distance(self, kind):
        # four blocks of 65 rows at n = 1000; the bad sample sits in the last
        n = 1000
        rng = np.random.default_rng(SET_KINDS.index(kind))
        domain = random_set(kind, rng, n)
        samples = domain.sample(rng, 200)
        obj = quadratic(rng.uniform(-1.0, 1.0, n))
        assert gheb_check(obj, domain, samples) > 0.0
        if kind == "wholespace":
            return  # no point lies outside
        samples[-1] = just_outside(domain, rng, samples[-1])
        with pytest.raises(InvalidInputError, match="sample lies outside the domain"):
            gheb_check(obj, domain, samples)

    @pytest.mark.parametrize("order", ["argmin-first", "argmin-last"])
    def test_block_on_the_argmin_is_skipped_in_a_stream(self, order):
        # a block of samples all on the argmin has no positive gap; the
        # error needs the whole stream to have none
        obj = quadratic([0.5, 0.0])
        phi = Desingularizer(obj.holder.kappa, obj.holder.theta)
        on_argmin = np.tile([0.5, 0.0], (4, 1))
        off = np.array([[0.0, 0.0], [0.5, 0.5]])
        blocks = [on_argmin, off] if order == "argmin-first" else [off, on_argmin]
        ratio, product = certificate_checks(obj, WholeSpace(2), phi, iter(blocks))
        assert ratio == pytest.approx(1.0) and product == pytest.approx(2.0)
        for domain, phi_ in ((WholeSpace(2), None), (None, phi)):
            with pytest.raises(InvalidInputError, match="no sample had a positive objective gap"):
                certificate_checks(obj, domain, phi_, iter([on_argmin, on_argmin]))

    def test_set_of_another_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match="expected dimension 3, got 2"):
            gheb_check(quadratic([0.0, 0.0]), WholeSpace(3), [[1.0, 0.0]])

    def test_memory_stays_in_blocks(self):
        # one (1000, 1000) temporary would take 8 MB
        n = 1000
        obj = catalog(n)[2]
        samples = np.random.default_rng(8).normal(size=(1000, n))
        phi = Desingularizer(obj.holder.kappa, obj.holder.theta)
        tracemalloc.start()
        try:
            gheb_check(obj, WholeSpace(n), samples)
            lojasiewicz_check(obj, phi, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("samples", [np.zeros((3, 3)), np.zeros((2, 2, 2)), [[1.0, np.nan]],
                                         np.zeros((1, 0))],
                             ids=["wrong-dim", "3-d", "non-finite", "empty-point"])
    def test_rejects_malformed_samples(self, samples):
        f = quadratic([0.0, 0.0])
        with pytest.raises(InvalidInputError):
            gheb_check(f, WholeSpace(2), samples)
        with pytest.raises(InvalidInputError):
            lojasiewicz_check(f, Desingularizer(1.0, 0.5), samples)

    def test_non_finite_values_and_gradients_rejected(self):
        f = quadratic([0.0, 0.0])
        phi = Desingularizer(1.0, 0.5)
        bad_value = dataclasses.replace(f, fn_rows=lambda X: np.full(len(X), np.inf))
        with pytest.raises(InvalidInputError, match="non-finite value"):
            gheb_check(bad_value, WholeSpace(2), [[1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="non-finite value"):
            lojasiewicz_check(bad_value, phi, [[1.0, 0.0]])
        bad_grad = dataclasses.replace(f, grad_rows=lambda X: np.full(X.shape, np.inf))
        with pytest.raises(InvalidInputError, match="gradient rows must be finite"):
            lojasiewicz_check(bad_grad, phi, [[1.0, 0.0]])


class TestMetadataHonesty:
    CATALOG = [
        quadratic([1.0, 2.0], diag=[1.0, 2.0], shift=3.0),
        quadratic([0.0, 0.0]),
        norm4(),
        even_quartic(3),
        flat_bottom([0.5, -0.5], 1.0),
    ]

    @pytest.mark.parametrize("obj", CATALOG, ids=lambda o: o.name)
    def test_value_on_argmin_equals_f_star(self, obj):
        pts = obj.optimum.argmin.sample(np.random.default_rng(4), 20)
        for p in pts:
            assert obj.value(p) == pytest.approx(obj.optimum.f_star, abs=1e-10)

    @pytest.mark.parametrize("obj", CATALOG, ids=lambda o: o.name)
    def test_convexity_on_sampled_pairs(self, obj):
        for _ in range(50):
            x = RNG.normal(size=obj.dim, scale=3.0)
            y = RNG.normal(size=obj.dim, scale=3.0)
            mid = obj.value(0.5 * (x + y))
            assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-10

    def test_evenness_flags(self):
        assert quadratic([0.0, 0.0]).is_even
        assert not quadratic([1.0, 0.0]).is_even
        assert even_quartic(2).is_even
        assert flat_bottom([0.0, 0.0], 1.0).is_even
        assert not flat_bottom([0.5, 0.0], 1.0).is_even

    def test_even_objectives_satisfy_symmetry(self):
        for obj in [quadratic([0.0, 0.0], diag=[1.0, 5.0]), even_quartic(2), norm4()]:
            assert obj.is_even
            for _ in range(50):
                x = RNG.normal(size=obj.dim, scale=2.0)
                assert obj.value(-x) == pytest.approx(obj.value(x), abs=1e-12)

    def test_singleton_argmin_distance(self):
        s = singleton([1.0, 2.0])
        assert s.project([5.0, 5.0]) == pytest.approx([1.0, 2.0])


class TestDesingularizer:
    def test_value_and_derivative(self):
        phi = Desingularizer(kappa=2.0, theta=0.5)
        assert phi.value(4.0) == pytest.approx(2.0)  # 4^0.5 / (2*0.5)
        assert phi.value(0.0) == 0.0
        assert phi.derivative(4.0) == pytest.approx(0.25)

    def test_increasing_and_concave(self):
        phi = Desingularizer(kappa=1.0, theta=0.3)
        s = np.linspace(0.01, 5.0, 200)
        v = np.array([phi.value(t) for t in s])
        assert np.all(np.diff(v) > 0)
        assert np.all(np.diff(v, 2) < 1e-12)

    def test_domain_errors(self):
        phi = Desingularizer(kappa=1.0, theta=0.5)
        with pytest.raises(InvalidInputError):
            phi.value(-1.0)
        with pytest.raises(InvalidInputError):
            phi.derivative(0.0)
        with pytest.raises(InvalidInputError):
            Desingularizer(kappa=0.0, theta=0.5)
        with pytest.raises(InvalidInputError):
            Desingularizer(kappa=1.0, theta=1.5)
