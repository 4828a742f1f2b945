"""Projection correctness: frozen values, a brute-force simplex oracle,
and the variational characterization as a property test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgflow.errors import InvalidInputError
from pgflow.geometry import (
    MEMBERSHIP_TOL,
    AffineHyperplane,
    Ball,
    Box,
    HalfSpace,
    Simplex,
    WholeSpace,
    as_point,
    contains_ball,
    variational_gap,
)

from test_flow import SET_KINDS, random_set

RNG = np.random.default_rng(1234)


def simplex_project_kkt(x, scale):
    """Independent simplex projection via support-set enumeration.

    The nearest point has the form max(x - tau, 0) where tau balances the
    sum constraint over the active support. Enumerating supports and
    checking the sign conditions recovers the unique KKT point. Exponential
    in dim, so only usable for small test instances.
    """
    n = x.size
    for mask in range(1, 2**n):
        S = [i for i in range(n) if mask >> i & 1]
        tau = (sum(x[i] for i in S) - scale) / len(S)
        if any(x[i] - tau < -1e-12 for i in S):
            continue
        if any(x[i] - tau > 1e-12 for i in range(n) if i not in S):
            continue
        y = np.zeros(n)
        for i in S:
            y[i] = max(x[i] - tau, 0.0)
        return y
    raise AssertionError("no KKT point found")


ALL_SETS = [
    WholeSpace(2),
    Box([-1.0, -2.0], [1.0, 0.5]),
    Ball([0.5, -0.5], 1.5),
    HalfSpace([1.0, 1.0], 1.0),
    AffineHyperplane([1.0, 2.0], 3.0),
    Simplex(2, 1.0),
]


class TestFrozenValues:
    def test_ball_outside(self):
        b = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(b.project([2.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(b.project([3.0, 4.0]), [0.6, 0.8])

    def test_ball_inside_is_fixed(self):
        b = Ball([0.0, 0.0], 1.0)
        np.testing.assert_array_equal(b.project([0.2, -0.3]), [0.2, -0.3])

    def test_box_clip(self):
        bx = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(bx.project([2.0, 0.3]), [1.0, 0.3])
        np.testing.assert_array_equal(bx.project([-5.0, 7.0]), [-1.0, 1.0])

    def test_halfspace(self):
        h = HalfSpace([1.0, 1.0], 1.0)
        np.testing.assert_allclose(h.project([1.0, 1.0]), [0.5, 0.5])
        np.testing.assert_array_equal(h.project([0.0, 0.0]), [0.0, 0.0])

    def test_hyperplane(self):
        h = AffineHyperplane([1.0, 1.0], 1.0)
        np.testing.assert_allclose(h.project([0.0, 0.0]), [0.5, 0.5])
        np.testing.assert_allclose(h.project([1.0, 0.0]), [1.0, 0.0])

    def test_simplex_hand_example(self):
        s = Simplex(2, 1.0)
        np.testing.assert_allclose(s.project([1.2, 0.2]), [1.0, 0.0], atol=1e-15)

    def test_simplex_uniform(self):
        s = Simplex(3, 1.0)
        np.testing.assert_allclose(s.project([0.5, 0.5, 0.5]), [1 / 3] * 3)


class TestSimplexOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_matches_kkt_enumeration(self, dim, scale):
        s = Simplex(dim, scale)
        for _ in range(40):
            x = RNG.uniform(-3, 3, size=dim)
            expected = simplex_project_kkt(x, scale)
            np.testing.assert_allclose(s.project(x), expected, atol=1e-10)

    def test_projection_lands_on_simplex(self):
        s = Simplex(5, 1.0)
        for _ in range(50):
            p = s.project(RNG.normal(size=5, scale=4.0))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("cs", ALL_SETS, ids=lambda c: type(c).__name__)
class TestProjectionProperties:
    def test_idempotent(self, cs):
        for _ in range(25):
            x = RNG.normal(size=2, scale=3.0)
            p = cs.project(x)
            np.testing.assert_allclose(cs.project(p), p, atol=1e-12)

    def test_nonexpansive(self, cs):
        for _ in range(25):
            x = RNG.normal(size=2, scale=3.0)
            y = RNG.normal(size=2, scale=3.0)
            lhs = np.linalg.norm(cs.project(x) - cs.project(y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_projection_is_member(self, cs):
        for _ in range(25):
            p = cs.project(RNG.normal(size=2, scale=3.0))
            assert cs.residual(p) <= 1e-9

    def test_variational_inequality(self, cs):
        probes = cs.sample(np.random.default_rng(7), 64)
        for _ in range(10):
            x = RNG.normal(size=2, scale=3.0)
            assert variational_gap(cs, x, probes) <= 1e-9

    def test_samples_are_members(self, cs):
        for row in cs.sample(np.random.default_rng(11), 32):
            assert cs.residual(row) <= 1e-9

    def test_residual_zero_iff_member(self, cs):
        inside = cs.sample(np.random.default_rng(3), 8)
        for row in inside:
            assert cs.residual(row) <= 1e-9
        if not isinstance(cs, WholeSpace):
            far = np.full(2, 100.0)
            if cs.residual(far) == 0.0:
                far = np.full(2, -100.0)
            assert cs.residual(far) > 1e-3

    def test_distance_matches_projection(self, cs):
        x = RNG.normal(size=2, scale=3.0)
        assert cs.residual(x) == pytest.approx(np.linalg.norm(x - cs.project(x)), abs=1e-12)


@given(
    x=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    y=st.lists(st.floats(-50, 50), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_simplex_nonexpansive_hypothesis(x, y):
    s = Simplex(3, 1.0)
    px, py = s.project(x), s.project(y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(np.subtract(x, y)) + 1e-9


@given(
    x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    r=st.floats(0.1, 10.0),
)
@settings(max_examples=150, deadline=None)
def test_ball_projection_never_leaves(x, r):
    b = Ball([0.0, 0.0], r)
    assert np.linalg.norm(b.project(x)) <= r + 1e-12


class TestPredicates:
    def test_symmetry_table(self):
        assert WholeSpace(2).is_symmetric()
        assert Box([-1, -1], [1, 1]).is_symmetric()
        assert not Box([-1, -1], [1, 2]).is_symmetric()
        assert Ball([0, 0], 1).is_symmetric()
        assert not Ball([0.1, 0], 1).is_symmetric()
        assert not HalfSpace([1, 0], 1).is_symmetric()
        assert AffineHyperplane([1, 1], 0).is_symmetric()
        assert not AffineHyperplane([1, 1], 1).is_symmetric()
        assert not Simplex(2).is_symmetric()

    def test_contains_ball(self):
        assert contains_ball(Box([-2, -2], [2, 2]), [0.5, 0.5], 0.5)
        assert not contains_ball(Box([-2, -2], [2, 2]), [1.8, 0.0], 0.5)
        assert contains_ball(Ball([0, 0], 2.0), [0.5, 0.0], 1.0)
        assert not contains_ball(Ball([0, 0], 2.0), [1.5, 0.0], 1.0)
        assert contains_ball(HalfSpace([1, 0], 1.0), [0.0, 0.0], 1.0)
        assert not contains_ball(HalfSpace([1, 0], 1.0), [0.5, 0.0], 1.0)
        assert contains_ball(WholeSpace(2), [9.0, 9.0], 100.0)
        assert not contains_ball(Simplex(2), [0.5, 0.5], 0.1)
        assert contains_ball(Simplex(2), [0.5, 0.5], 0.0)

    def test_membership_tolerance(self):
        b = Ball([0.0, 0.0], 1.0)
        assert b.contains([1.0 + 0.5 * MEMBERSHIP_TOL, 0.0])
        assert not b.contains([1.0 + 1e-6, 0.0])


class TestValidation:
    def test_as_point_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_point([1.0, np.nan])

    def test_as_point_rejects_wrong_dim(self):
        with pytest.raises(InvalidInputError):
            as_point([1.0, 2.0], dim=3)

    def test_as_point_rejects_matrix(self):
        with pytest.raises(InvalidInputError):
            as_point([[1.0, 2.0], [3.0, 4.0]])

    def test_ball_rejects_bad_radius(self):
        with pytest.raises(InvalidInputError):
            Ball([0.0], 0.0)
        with pytest.raises(InvalidInputError):
            Ball([0.0], -1.0)

    def test_box_rejects_crossed_bounds(self):
        with pytest.raises(InvalidInputError):
            Box([1.0], [0.0])

    def test_halfspace_rejects_zero_normal(self):
        with pytest.raises(InvalidInputError):
            HalfSpace([0.0, 0.0], 1.0)

    def test_project_rejects_nonfinite_point(self):
        with pytest.raises(InvalidInputError):
            Box([-1.0], [1.0]).project([np.inf])

    def test_variational_gap_rejects_outside_probe(self):
        b = Ball([0.0, 0.0], 1.0)
        with pytest.raises(InvalidInputError):
            variational_gap(b, [2.0, 0.0], [[5.0, 5.0]])

    @pytest.mark.parametrize("probes, message", [
        ([[0.0, 0.0], [5.0, 5.0]], "outside the set"),
        ([[0.0, 0.0, 0.0]], "shape"),
        (np.zeros((2, 2, 2)), "shape"),
        (np.zeros((0, 2)), "at least one probe"),
        ([[0.0, np.nan]], "non-finite"),
    ], ids=["one-outside", "wrong-width", "3-d", "empty", "nan"])
    def test_variational_gap_validates_probe_array(self, probes, message):
        with pytest.raises(InvalidInputError, match=message):
            variational_gap(Ball([0.0, 0.0], 1.0), [2.0, 0.0], probes)

    def test_variational_gap_matches_per_probe_products(self):
        rng = np.random.default_rng(3)
        for cs in (Ball([0.5, -0.5], 1.5), Simplex(2, scale=2.0), Box([-1.0, 0.0], [1.0, 3.0])):
            probes = cs.sample(rng, 32)
            x = rng.normal(size=2, scale=3.0)
            px = cs.project(x)
            expected = max(float((x - px) @ (w - px)) for w in probes)
            assert variational_gap(cs, x, probes) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_wholespace_sample_needs_dim(self):
        with pytest.raises(InvalidInputError):
            WholeSpace().sample(np.random.default_rng(0), 3)


EPS = np.finfo(float).eps


def assert_rows_match_points(cs, X):
    """Row k of _project_rows(X) is _project(X[k]): bit for bit where the
    kernel is elementwise, within a few ulp where it reduces a row."""
    before = X.copy()
    P = cs._project_rows(X)
    np.testing.assert_array_equal(X, before)
    expected = np.array([cs._project(x) for x in X])
    assert P.shape == X.shape
    if isinstance(cs, (WholeSpace, Box)):
        assert np.array_equal(P, expected)
    else:
        np.testing.assert_allclose(P, expected, rtol=8 * EPS,
                                   atol=8 * EPS * max(1.0, float(np.max(np.abs(X)))))


class TestProjectRows:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(SET_KINDS), dim=st.integers(1, 6), rows=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 5.0, 1e3]))
    def test_rows_match_points(self, kind, dim, rows, seed, scale):
        rng = np.random.default_rng(seed)
        cs = random_set(kind, rng, dim)
        X = rng.normal(size=(rows, dim)) * scale
        X[: rows // 2] = cs.sample(rng, rows // 2)  # rows already in the set keep X
        assert_rows_match_points(cs, X)

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_row_count_changes_and_large_arrays(self, kind):
        # constant vectors are tiled for small arrays and broadcast for large
        # ones; both, and every change of row count, give the same rows
        rng = np.random.default_rng(11)
        cs = random_set(kind, rng, 50)
        for rows in (3, 5, 3, 200, 1, 200):
            assert_rows_match_points(cs, rng.normal(size=(rows, 50), scale=4.0))


def sample_reference(cs, rng, n):
    """The samplers as they were written before they built their samples
    in place."""
    if isinstance(cs, Ball):
        g = rng.standard_normal((n, cs.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = cs.radius * rng.uniform(size=(n, 1)) ** (1.0 / cs.dim)
        return cs.center + r * g
    if isinstance(cs, HalfSpace):
        anchor = cs.normal * (cs.offset / cs._norm_sq)
        pts = anchor + rng.standard_normal((n, cs.dim))
        slack = np.vecdot(pts, cs.normal) - cs.offset
        bad = slack > 0
        pts[bad] -= (2.0 * slack[bad, None] / cs._norm_sq) * cs.normal
        return pts
    if isinstance(cs, AffineHyperplane):
        pts = rng.standard_normal((n, cs.dim))
        g = (np.vecdot(pts, cs.normal) - cs.offset) / cs._norm_sq
        return pts - g[:, None] * cs.normal
    return cs.scale * rng.dirichlet(np.ones(cs.dim), size=n)


@pytest.mark.parametrize("kind", ["ball", "halfspace", "hyperplane", "simplex"])
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_in_place_samplers_draw_the_same_floats(kind, n):
    cs = random_set(kind, np.random.default_rng(n), n)
    got = cs.sample(np.random.default_rng(99), 50)
    want = sample_reference(cs, np.random.default_rng(99), 50)
    assert np.array_equal(got, want)


def just_outside(cs, rng, x, gap=1e-6):
    """A point at distance ``gap`` from the set, off the nearest point of a
    far point near x: P(p + s u) = p along the outward normal u at p."""
    g = rng.normal(size=x.size) * 100.0
    y = x + g if cs.residual(x + g) > 0.0 else x - g
    p = cs.project(y)
    u = (y - p) / np.linalg.norm(y - p)
    out = p + gap * u
    assert cs.residual(out) == pytest.approx(gap, rel=1e-6)
    return out


class TestVariationalGapRows:
    def test_rows_give_the_largest_point_gap(self):
        rng = np.random.default_rng(5)
        for kind in SET_KINDS:
            cs = random_set(kind, rng, 3)
            probes = cs.sample(rng, 32)
            X = cs.sample(rng, 20) + rng.normal(size=(20, 3), scale=2.0)
            expected = max(variational_gap(cs, x, probes) for x in X)
            assert variational_gap(cs, X, probes) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("kind", [k for k in SET_KINDS if k != "wholespace"])
    def test_probe_just_outside_rejected_by_its_distance(self, kind):
        rng = np.random.default_rng(SET_KINDS.index(kind))
        cs = random_set(kind, rng, 50)
        probes = cs.sample(rng, 32)
        x = cs.sample(rng, 4) + rng.normal(size=(4, 50))
        assert np.isfinite(variational_gap(cs, x, probes))
        probes[-1] = just_outside(cs, rng, probes[-1])
        with pytest.raises(InvalidInputError, match="probe point lies outside the set"):
            variational_gap(cs, x, probes)

    @pytest.mark.parametrize("points, message", [
        (np.zeros((0, 2)), "shape"),
        (np.zeros((3, 3)), "shape"),
        (np.zeros((2, 2, 2)), "shape"),
        ([[0.0, 0.0], [np.inf, 0.0]], "non-finite"),
    ], ids=["empty", "wrong-width", "3-d", "inf"])
    def test_point_rows_validated(self, points, message):
        with pytest.raises(InvalidInputError, match=message):
            variational_gap(Ball([0.0, 0.0], 1.0), points, [[0.0, 0.0]])
