"""Closed convex sets with exact Euclidean projections.

Every set exposes ``project`` (nearest-point map), ``residual`` (the
Euclidean distance to the set, ``|x - P(x)|``), membership and symmetry
predicates, and a sampler used by the certificate checks.
Validation happens once at the public boundary; the underscore variants
skip it and are what the integrator calls in its inner loop.

``_project_rows(X)`` projects every row of an ``(m, n)`` array in one
vectorised call, for a batch of runs and for the projection rows of
``pgflow check``. Row k equals ``_project(X[k])`` bit for bit: the
elementwise sets reuse ``_project``, and every row reduction is
``np.vecdot``, which computes each row's dot product with the same
kernel as the point path's 1-d ``dot``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

MEMBERSHIP_TOL = 1e-12

# Up to this many floats a row kernel tiles its constant vectors (see _RowTiles).
TILE_MAX_FLOATS = 4096


class _RowTiles:
    """A constant (n,) vector as an operand for an (m, n) array of rows.

    On a few rows numpy spends more on setting up the broadcast of an (n,)
    operand than on the arithmetic, and a same-shape operand skips it. So
    called on an array X of at most TILE_MAX_FLOATS floats, it returns the
    vector tiled into X's rows, kept until the row count changes; a larger
    array gets the vector itself, where the set-up is negligible. The
    arithmetic is the same either way. Callers must not write to the result.
    """

    def __init__(self, v: np.ndarray):
        self.v = v
        self.tiled = v

    def __call__(self, X: np.ndarray) -> np.ndarray:
        tiled = self.tiled
        if tiled.shape != X.shape:
            if X.size > TILE_MAX_FLOATS:
                return self.v
            tiled = self.tiled = np.tile(self.v, (X.shape[0], 1))
        return tiled


def as_rows(x, dim: int | None = None, what: str = "point") -> np.ndarray:
    """Coerce ``x``, one point or the rows of an (m, n) array, to a finite
    2-d float array of at least one row, with n = ``dim`` when given."""
    X = np.asarray(x, dtype=float)
    if X.ndim < 2:
        return as_point(X, dim)[None, :]
    if X.ndim != 2 or X.shape[1] == 0 or (dim is not None and X.shape[1] != dim):
        raise InvalidInputError(f"{what}s must have shape (m, {dim}), got {X.shape}")
    if X.shape[0] == 0:
        raise InvalidInputError(f"need at least one {what}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError(f"{what}s have non-finite coordinates")
    return X


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array, optionally of length ``dim``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InvalidInputError(f"expected a 1-d point, got shape {p.shape}")
    if p.size == 0:
        raise InvalidInputError("point must have at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise InvalidInputError(f"expected dimension {dim}, got {p.size}")
    return p


class ConvexSet:
    """Base class: a closed convex subset of R^n."""

    dim: int | None = None

    def project(self, x) -> np.ndarray:
        p = as_point(x, self.dim)
        return np.array(self._project(p), dtype=float)

    def residual(self, x) -> float:
        p = as_point(x, self.dim)
        return float(self._residual(p))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.residual(x) <= tol

    def is_symmetric(self) -> bool:
        """Whether the set is invariant under x -> -x."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` points from the set, shape (n, dim)."""
        raise NotImplementedError

    # Fast paths, no validation. x must already be a 1-d float array.
    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _residual(self, x: np.ndarray) -> float:
        d = x - self._project(x)
        return math.sqrt(d.dot(d))

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        """P of each row of a 2-d float array, without validation."""
        raise NotImplementedError


class WholeSpace(ConvexSet):
    """All of R^n. ``dim=None`` accepts points of any dimension."""

    def __init__(self, dim: int | None = None):
        if dim is not None and dim < 1:
            raise InvalidInputError("dim must be a positive integer")
        self.dim = dim

    def is_symmetric(self) -> bool:
        return True

    def sample(self, rng, n):
        if self.dim is None:
            raise InvalidInputError("cannot sample: dimension not fixed")
        return rng.standard_normal((n, self.dim))

    def _project(self, x):
        return x

    _project_rows = _project


class Box(ConvexSet):
    """Axis-aligned box {lo <= x <= hi}, bounds elementwise."""

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise InvalidInputError("box needs lo <= hi in every coordinate")
        self.dim = self.lo.size
        self._lo_rows, self._hi_rows = _RowTiles(self.lo), _RowTiles(self.hi)

    def is_symmetric(self) -> bool:
        return bool(np.all(self.lo == -self.hi))

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def _project(self, x):
        # np.clip's Python wrapper costs more than the two ufuncs it runs.
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def _project_rows(self, X):
        return np.minimum(np.maximum(X, self._lo_rows(X)), self._hi_rows(X))


class Ball(ConvexSet):
    """Euclidean ball {‖x - center‖ <= radius}."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise InvalidInputError("radius must be positive and finite")
        self.dim = self.center.size
        self._center_rows = _RowTiles(self.center)

    def is_symmetric(self) -> bool:
        return bool(np.all(self.center == 0.0))

    def sample(self, rng, n):
        # Direction uniform on the sphere, radius via the u^(1/d) transform.
        g = rng.standard_normal((n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        g += self.center
        return g

    def _project(self, x):
        d = x - self.center
        r = math.sqrt(d.dot(d))
        if r <= self.radius:
            return x
        return self.center + (self.radius / r) * d

    def _project_rows(self, X):
        C = self._center_rows(X)
        D = X - C
        r = np.sqrt(np.vecdot(D, D))
        # rows inside keep X itself; max(r, radius) only keeps the unused branch finite
        scale = self.radius / np.maximum(r, self.radius)
        return np.where((r <= self.radius)[:, None], X, C + scale[:, None] * D)


class HalfSpace(ConvexSet):
    """Half-space {<normal, x> <= offset}."""

    def __init__(self, normal, offset: float):
        self.normal = as_point(normal)
        nn = float(np.linalg.norm(self.normal))
        if nn == 0.0:
            raise InvalidInputError("normal must be nonzero")
        self.offset = float(offset)
        if not np.isfinite(self.offset):
            raise InvalidInputError("offset must be finite")
        self.dim = self.normal.size
        self._norm = nn
        self._norm_sq = nn * nn

    def is_symmetric(self) -> bool:
        return False

    def sample(self, rng, n):
        # Gaussian cloud around a feasible anchor; infeasible draws are
        # mirrored across the boundary, which keeps them in the set.
        pts = rng.standard_normal((n, self.dim))
        pts += self.normal * (self.offset / self._norm_sq)  # the anchor
        slack = np.vecdot(pts, self.normal) - self.offset
        bad = slack > 0
        pts[bad] -= (2.0 * slack[bad, None] / self._norm_sq) * self.normal
        return pts

    def _project(self, x):
        g = float(self.normal.dot(x)) - self.offset
        if g <= 0.0:
            return x
        return x - (g / self._norm_sq) * self.normal

    def _project_rows(self, X):
        g = np.vecdot(X, self.normal) - self.offset
        return np.where((g <= 0.0)[:, None], X, X - (g / self._norm_sq)[:, None] * self.normal)


class AffineHyperplane(ConvexSet):
    """Hyperplane {<normal, x> = offset}. Closed, convex, no interior."""

    def __init__(self, normal, offset: float):
        self.normal = as_point(normal)
        nn = float(np.linalg.norm(self.normal))
        if nn == 0.0:
            raise InvalidInputError("normal must be nonzero")
        self.offset = float(offset)
        if not np.isfinite(self.offset):
            raise InvalidInputError("offset must be finite")
        self.dim = self.normal.size
        self._norm_sq = nn * nn

    def is_symmetric(self) -> bool:
        # x -> -x maps the plane to itself only when it passes through 0.
        return self.offset == 0.0

    def sample(self, rng, n):
        pts = rng.standard_normal((n, self.dim))
        g = (np.vecdot(pts, self.normal) - self.offset) / self._norm_sq
        pts -= g[:, None] * self.normal
        return pts

    def _project(self, x):
        g = (float(self.normal.dot(x)) - self.offset) / self._norm_sq
        return x - g * self.normal

    def _project_rows(self, X):
        g = (np.vecdot(X, self.normal) - self.offset) / self._norm_sq
        return X - g[:, None] * self.normal


class Simplex(ConvexSet):
    """Scaled probability simplex {x >= 0, sum(x) = scale}."""

    def __init__(self, dim: int, scale: float = 1.0):
        if dim < 1:
            raise InvalidInputError("dim must be a positive integer")
        self.scale = float(scale)
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise InvalidInputError("scale must be positive and finite")
        self.dim = int(dim)

    def is_symmetric(self) -> bool:
        return False

    def sample(self, rng, n):
        pts = rng.dirichlet(np.ones(self.dim), size=n)
        pts *= self.scale
        return pts

    def _project(self, x):
        # Sort-then-threshold: find the largest k with u_k > (cumsum_k - scale)/k,
        # shift by that threshold and clip. O(n log n).
        u = np.sort(x)[::-1]
        css = np.cumsum(u) - self.scale
        ks = np.arange(1, x.size + 1)
        k = int(ks[u * ks > css][-1])
        tau = css[k - 1] / k
        return np.maximum(x - tau, 0.0)

    def _project_rows(self, X):
        # _project along axis 1; k is the last column where the test holds
        U = np.sort(X, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - self.scale
        ks = np.arange(1, X.shape[1] + 1)
        k = X.shape[1] - np.argmax((U * ks > css)[:, ::-1], axis=1)
        tau = css[np.arange(X.shape[0]), k - 1] / k
        return np.maximum(X - tau[:, None], 0.0)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d float array, as the point path computes it."""
    return np.sqrt(np.vecdot(X, X))


def variational_gap(cs: ConvexSet, x, probes) -> float:
    """Largest value of <x - P(x), w - P(x)> over probe points ``w``.

    ``x`` is one point or the rows of an (m, n) array of points; the
    largest value over every point and probe is returned. For an exact
    projection this is <= 0 for every w in the set, so a positive return
    flags a broken nearest-point map. Probes must lie in the set, within
    a Euclidean distance of 1e-9; infeasible probes are rejected rather
    than silently skewing the check.
    """
    X = as_rows(x, cs.dim)
    W = as_rows(probes, X.shape[1], "probe point")
    if np.any(_row_norms(W - cs._project_rows(W)) > 1e-9):
        raise InvalidInputError("probe point lies outside the set")
    PX = cs._project_rows(X)
    R = X - PX
    # <r, w - px> = <r, w> - <r, px>: every point against every probe in one
    # product. vecdot, not R @ W.T: OpenBLAS runs a product this size on
    # several threads, and the commands after it then ran twice as slow.
    return float(np.max(np.vecdot(R[:, None, :], W) - np.vecdot(R, PX)[:, None]))


def contains_ball(cs: ConvexSet, center, rho: float) -> bool:
    """Whether the closed ball B(center, rho) sits inside the set."""
    c = as_point(center, cs.dim)
    if rho < 0 or not np.isfinite(rho):
        raise InvalidInputError("rho must be nonnegative and finite")
    tol = MEMBERSHIP_TOL
    if isinstance(cs, WholeSpace):
        return True
    if isinstance(cs, Box):
        return bool(np.all(c - rho >= cs.lo - tol) and np.all(c + rho <= cs.hi + tol))
    if isinstance(cs, Ball):
        return float(np.linalg.norm(c - cs.center)) + rho <= cs.radius + tol
    if isinstance(cs, HalfSpace):
        return float(cs.normal @ c) + rho * cs._norm <= cs.offset + tol
    # Hyperplanes and simplices have empty interior: only degenerate balls fit.
    return rho == 0.0 and cs.contains(c)
