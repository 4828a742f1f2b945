"""Closed convex sets with exact Euclidean projections.

Every set exposes ``project`` (nearest-point map), ``residual`` (the
Euclidean distance to the set, ``|x - P(x)|``), membership and symmetry
predicates, and a sampler used by the certificate checks.
Validation happens once at the public boundary; the underscore variants
skip it and are what the integrator calls in its inner loop. The public
maps evaluate their one point as a row of ``_project_rows``.

Each set has two projection kernels: ``_project(x)``, the point kernel,
in Python floats on a sequence of floats, which a run of at most
``FLOAT_MAX_DIM`` coordinates steps, and ``_project_rows(X)``, the row
kernel, on every row of an ``(m, n)`` array at once, for wider runs, runs
of a caller's kernels and ``pgflow check``. Row k equals ``_project(X[k])``
bit for bit up to ``FLOAT_MAX_DIM`` columns, as a point kernel sums a dot
product left to right (``_dot``) and a row kernel its columns in that
order (``fragments._row_dots``); longer sums are ``math.fsum`` and
``np.vecdot``, within a few ulp. ``on_floats`` marks a point kernel that
takes floats, and ``takes_floats`` reads the mark through any wrapper.
The whole space, a box and a ball write their projection once, as a
``fragments.Fragment``, and render both kernels from it (``_kernels``),
which ``flow``'s RK4 loop also splices in; the half-space, the hyperplane
and the simplex write both out, and the loop calls them.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InvalidInputError
from .fragments import (FLOAT_MAX_DIM, Fragment, _row_dots, inlined, point_kernel, row_consts,
                        row_kernel)

MEMBERSHIP_TOL = 1e-12


def on_floats(kernel):
    """Mark a point kernel as computing in Python floats on any sequence of floats."""
    kernel.on_floats = True
    return kernel


def takes_floats(kernel) -> bool:
    """Whether ``kernel``, or the kernel it wraps, is marked by on_floats."""
    return getattr(inspect.unwrap(kernel), "on_floats", False)


def _dot(u, v) -> float:
    """<u, v> of two sequences of floats: up to FLOAT_MAX_DIM products
    summed left to right from -0.0, the identity of +, and more with
    math.fsum, correctly rounded."""
    if len(u) > FLOAT_MAX_DIM:
        return math.fsum([a * b for a, b in zip(u, v)])
    s = -0.0
    for a, b in zip(u, v):
        s += a * b
    return s


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
        return np.array(self._project_rows(p[None, :])[0])

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

    # Fast paths, no validation. x must be a sequence of finite floats.
    def _project(self, x):
        raise NotImplementedError

    def _residual(self, x) -> float:
        X = np.array(x, dtype=float, ndmin=2)
        return float(_row_norms(X - self._project_rows(X))[0])

    def _project_rows(self, X: np.ndarray) -> np.ndarray:
        """P of each row of a 2-d float array, without validation."""
        raise NotImplementedError


def _kernels(fragment: Fragment):
    """``_project`` and ``_project_rows`` rendered from ``fragment``, on a
    set's constants ``_consts`` and their ``_tiles`` (fragments.row_consts)."""
    rows = row_kernel(fragment)

    @on_floats
    @inlined(fragment, lambda cs: cs._consts)
    def _project(self, x):
        return point_kernel(fragment, len(x))(self._consts, x)

    def _project_rows(self, X):
        return rows(self._tiles, X)

    return _project, _project_rows


class WholeSpace(ConvexSet):
    """All of R^n. ``dim=None`` accepts points of any dimension."""

    _consts = _tiles = ()

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

    _project, _project_rows = _kernels(Fragment("wholespace", "", "{vec:{out}@} = {vec:{x}@}"))


class Box(ConvexSet):
    """Axis-aligned box {lo <= x <= hi}, bounds elementwise."""

    def __init__(self, lo, hi):
        self.lo = as_point(lo)
        self.hi = as_point(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise InvalidInputError("box needs lo <= hi in every coordinate")
        self.dim = self.lo.size
        self._consts = (self.lo.tolist(), self.hi.tolist())
        self._tiles = row_consts(self._consts)

    def is_symmetric(self) -> bool:
        return bool(np.all(self.lo == -self.hi))

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    # a NaN fails both tests and stays
    _project, _project_rows = _kernels(Fragment(
        "box", "{vec:{k}_lo@} = {tile:{k}[0]}\n{vec:{k}_hi@} = {tile:{k}[1]}",
        "{vec:{out}@} = {clip:{x}@, {k}_lo@, {k}_hi@}"))


class Ball(ConvexSet):
    """Euclidean ball {‖x - center‖ <= radius}."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise InvalidInputError("radius must be positive and finite")
        self.dim = self.center.size
        self._consts = (self.center.tolist(), self.radius)
        self._tiles = row_consts(self._consts)

    def is_symmetric(self) -> bool:
        return bool(np.all(self.center == 0.0))

    def sample(self, rng, n):
        # Direction uniform on the sphere, radius via the u^(1/d) transform.
        g = rng.standard_normal((n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        g += self.center
        return g

    _project, _project_rows = _kernels(Fragment(
        "ball", "{vec:{k}_c@} = {tile:{k}[0]}\n{k}_radius = {k}[1]", """\
{vec:{k}_e@} = {vec:{x}@ - {k}_c@}
{k}_r = {sqrt}({sum:{k}_e@ * {k}_e@})
if {k}_r <= {k}_radius:
    {vec:{out}@} = {vec:{x}@}
else:
    {k}_s = {k}_radius / {guard:{k}_r, {k}_radius}
    {vec:{out}@} = {vec:{k}_c@ + {k}_s * {k}_e@}"""))


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
        self._n = self.normal.tolist()
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

    @on_floats
    def _project(self, x):
        g = _dot(x, self._n) - self.offset
        if g <= 0.0:
            return x
        s = g / self._norm_sq
        return [v - s * a for v, a in zip(x, self._n)]

    def _project_rows(self, X):
        g = _row_dots(X, self.normal) - self.offset
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
        self._n = self.normal.tolist()
        self._norm_sq = nn * nn

    def is_symmetric(self) -> bool:
        # x -> -x maps the plane to itself only when it passes through 0.
        return self.offset == 0.0

    def sample(self, rng, n):
        pts = rng.standard_normal((n, self.dim))
        g = (np.vecdot(pts, self.normal) - self.offset) / self._norm_sq
        pts -= g[:, None] * self.normal
        return pts

    @on_floats
    def _project(self, x):
        g = (_dot(x, self._n) - self.offset) / self._norm_sq
        return [v - g * a for v, a in zip(x, self._n)]

    def _project_rows(self, X):
        g = (_row_dots(X, self.normal) - self.offset) / self._norm_sq
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
        self._ks = np.arange(1.0, self.dim + 1)

    def is_symmetric(self) -> bool:
        return False

    def sample(self, rng, n):
        pts = rng.dirichlet(np.ones(self.dim), size=n)
        pts *= self.scale
        return pts

    @on_floats
    def _project(self, x):
        # Sort-then-threshold: find the largest k with u_k > (cumsum_k - scale)/k,
        # shift by that threshold and clip. O(n log n). With no such k (a
        # NaN or an infinity) k is n, as in _project_rows.
        total, k, css_k = 0.0, 0, 0.0
        for j, u in enumerate(sorted(x, reverse=True), 1):
            total += u
            css = total - self.scale
            if u * j > css:
                k, css_k = j, css
        if k == 0:
            k, css_k = j, css
        tau = css_k / k
        # np.maximum(v - tau, 0.0): a NaN fails the test and stays
        return [0.0 if w < 0.0 else w for w in (v - tau for v in x)]

    def _project_rows(self, X):
        # _project along axis 1; k is the last column where the test holds
        if X.shape[0] == 1:  # the row RK4 loop's one row: the same operations on 1-d arrays
            u = np.sort(X[0])[::-1]
            css = u.cumsum()
            css -= self.scale
            k = X.shape[1] - np.argmax((u * self._ks > css)[::-1])
            return np.maximum(X - css[k - 1] / k, 0.0)
        U = np.sort(X, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - self.scale
        k = X.shape[1] - np.argmax((U * self._ks > css)[:, ::-1], axis=1)
        tau = css[np.arange(X.shape[0]), k - 1] / k
        return np.maximum(X - tau[:, None], 0.0)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d float array, summed as _row_dots sums."""
    return np.sqrt(_row_dots(X, X))


def _rounding(n: int, size):
    """Room for the rounding of a quantity computed from n coordinates of a
    point of norm ``size``: 16 n eps max(1, size). A sum of n terms rounds
    by up to n eps of their magnitudes; 16 leaves room for the operations
    around it. At unit scale and n <= 1000 this is below 4e-12 per unit of
    ``size``, so only far from the origin does it loosen a fixed bound."""
    return 16 * n * np.finfo(float).eps * np.maximum(1.0, size)


def variational_gap(cs: ConvexSet, x, probes) -> float:
    """Largest value of <x - P(x), w - P(x)> over probe points ``w``.

    ``x`` is one point or the rows of an (m, n) array of points; the
    largest value over every point and probe is returned. For an exact
    projection this is <= 0 for every w in the set, so a positive return
    flags a broken nearest-point map. Probes must lie in the set, within
    a Euclidean distance of 1e-9 plus the rounding of their coordinates
    (see _rounding); infeasible probes are rejected rather than silently
    skewing the check.
    """
    X = as_rows(x, cs.dim)
    W = _feasible_probes(cs, probes, X.shape[1])
    PX = cs._project_rows(X)
    return _gap(X - PX, PX, W)


def _feasible_probes(cs: ConvexSet, probes, dim: int) -> np.ndarray:
    """The probe points of variational_gap as rows of ``dim`` floats, each
    checked to lie in the set."""
    W = as_rows(probes, dim, "probe point")
    slack = _rounding(W.shape[1], _row_norms(W))
    if np.any(_row_norms(W - cs._project_rows(W)) > 1e-9 + slack):
        raise InvalidInputError("probe point lies outside the set")
    return W


def _gap(R: np.ndarray, PX: np.ndarray, W: np.ndarray) -> float:
    """variational_gap of the points X = R + PX, given their projections PX
    and residuals R = X - PX, over feasible probe rows W."""
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
