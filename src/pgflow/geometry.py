"""Closed convex sets with exact Euclidean projections.

Every set exposes ``project`` (nearest-point map), ``residual`` (a cheap
feasibility measure that is zero exactly on the set), membership and
symmetry predicates, and a sampler used by the certificate checks.
Validation happens once at the public boundary; the underscore variants
skip it and are what the integrator calls in its inner loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

MEMBERSHIP_TOL = 1e-12


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

    def _residual(self, x):
        return 0.0


class Box(ConvexSet):
    """Axis-aligned box {lo <= x <= hi}, bounds elementwise."""

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise InvalidInputError("box needs lo <= hi in every coordinate")
        self.dim = self.lo.size

    def is_symmetric(self) -> bool:
        return bool(np.all(self.lo == -self.hi))

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def _project(self, x):
        # np.clip's Python wrapper costs more than the two ufuncs it runs.
        return np.minimum(np.maximum(x, self.lo), self.hi)


class Ball(ConvexSet):
    """Euclidean ball {‖x - center‖ <= radius}."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise InvalidInputError("radius must be positive and finite")
        self.dim = self.center.size

    def is_symmetric(self) -> bool:
        return bool(np.all(self.center == 0.0))

    def sample(self, rng, n):
        # Direction uniform on the sphere, radius via the u^(1/d) transform.
        g = rng.standard_normal((n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        return self.center + r * g

    def _project(self, x):
        d = x - self.center
        r = math.sqrt(d.dot(d))
        if r <= self.radius:
            return x
        return self.center + (self.radius / r) * d

    def _residual(self, x):
        d = x - self.center
        return max(0.0, math.sqrt(d.dot(d)) - self.radius)


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
        anchor = self.normal * (self.offset / self._norm_sq)
        pts = anchor + rng.standard_normal((n, self.dim))
        slack = pts @ self.normal - self.offset
        bad = slack > 0
        pts[bad] -= (2.0 * slack[bad, None] / self._norm_sq) * self.normal
        return pts

    def _project(self, x):
        g = float(self.normal @ x) - self.offset
        if g <= 0.0:
            return x
        return x - (g / self._norm_sq) * self.normal

    def _residual(self, x):
        return max(0.0, (float(self.normal @ x) - self.offset) / self._norm)


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
        self._norm = nn
        self._norm_sq = nn * nn

    def is_symmetric(self) -> bool:
        # x -> -x maps the plane to itself only when it passes through 0.
        return self.offset == 0.0

    def sample(self, rng, n):
        pts = rng.standard_normal((n, self.dim))
        g = (pts @ self.normal - self.offset) / self._norm_sq
        return pts - g[:, None] * self.normal

    def _project(self, x):
        g = (float(self.normal @ x) - self.offset) / self._norm_sq
        return x - g * self.normal

    def _residual(self, x):
        return abs(float(self.normal @ x) - self.offset) / self._norm


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
        return self.scale * rng.dirichlet(np.ones(self.dim), size=n)

    def _project(self, x):
        # Sort-then-threshold: find the largest k with u_k > (cumsum_k - scale)/k,
        # shift by that threshold and clip. O(n log n).
        u = np.sort(x)[::-1]
        css = np.cumsum(u) - self.scale
        ks = np.arange(1, x.size + 1)
        k = int(ks[u * ks > css][-1])
        tau = css[k - 1] / k
        return np.maximum(x - tau, 0.0)

    def _residual(self, x):
        # Cheap surrogate, zero exactly on the set: worst nonnegativity
        # violation combined with the sum defect.
        return max(0.0, -float(np.min(x)), abs(float(np.sum(x)) - self.scale))


def distance(cs: ConvexSet, x) -> float:
    """Euclidean distance from ``x`` to the set."""
    p = as_point(x, cs.dim)
    return float(np.linalg.norm(p - cs._project(p)))


def variational_gap(cs: ConvexSet, x, probes) -> float:
    """Largest value of <x - P(x), w - P(x)> over probe points ``w``.

    For an exact projection this is <= 0 for every w in the set, so a
    positive return flags a broken nearest-point map. Probes must lie in
    the set; infeasible probes are rejected rather than silently skewing
    the check.
    """
    p = as_point(x, cs.dim)
    W = np.atleast_2d(np.asarray(probes, dtype=float))
    if W.ndim != 2 or W.shape[1] != p.size:
        raise InvalidInputError(f"probes must have shape (m, {p.size}), got {W.shape}")
    if W.shape[0] == 0:
        raise InvalidInputError("need at least one probe point")
    if not np.all(np.isfinite(W)):
        raise InvalidInputError("probe points have non-finite coordinates")
    for w in W:
        if cs._residual(w) > 1e-9:
            raise InvalidInputError("probe point lies outside the set")
    px = cs._project(p)
    return float(np.max((W - px) @ (p - px)))


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
