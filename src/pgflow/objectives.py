"""Convex objectives with analytic gradients and optimality metadata.

An Objective bundles the function and gradient callables with what is
known about its minimum: the optimal value and the argmin set, an
optional Holder error bound certificate, a strong convexity modulus,
and an evenness flag. The certificate checks at the bottom of the
module sample the claimed inequalities rather than trusting the
metadata.

An Objective has point kernels ``fn`` and ``grad_fn``, which take one
point, and row kernels ``fn_rows`` and ``grad_rows``, which take every
row of an ``(m, n)`` array and must not mutate it. One given only ``fn``
and ``grad_fn`` gets row kernels that call them row by row. A catalog row
kernel records the point kernel it mirrors and is kept only while that is
still the Objective's: ``dataclasses.replace`` with a new point kernel
derives the row loop anew, while a row kernel the caller passes is kept
as given. A wrapper that sets ``__wrapped__`` (``functools.wraps`` does)
counts as the kernel it wraps, for the rows and for the float mark
``geometry.on_floats``, and must return the kernel's values.

The quadratic, even_quartic and flat_bottom families write their value
and their gradient once each, as a ``fragments.Fragment``, and every
kernel is rendered from those two (``_kernels``): ``fn`` and ``grad_fn``
on ``dim`` Python floats (``grad_fn`` returns a list for a list and an
array otherwise), the value's form and ``grad_rows`` on rows, and the
gradient, with a quadratic's value, as the source flow's RK4 loop splices
in. So row k equals ``fn`` or ``grad_fn`` of that row bit for bit up to
``FLOAT_MAX_DIM`` coordinates and within a few ulp beyond. A power
objective composes its base's kernels, and is marked as taking floats
and spliced (``_power_of``) only where its base's are. Its exponent is
raised by the C library's ``pow`` on floats and numpy's ``power`` on rows,
which an AVX-512 build of numpy rounds an ulp apart for 5% of powers; the
exponents 0 and 1 of theta = 1/4 and 1/2 are exact in both. Runs, their
samples, ``Objective.grad`` and the checks below evaluate many points
through the row kernels, in blocks of at most ``GRAD_CHECK_BLOCK_FLOATS``
floats (512 KiB) whatever n is (``row_blocks``).

A catalog ``fn_rows`` is ``phi(_row_dots(U, V))``, ``(U, V) = uv(X)``
elementwise in X, and carries ``(uv, phi, cond)`` as ``form``
(``_formed``), uv and phi rendered from the value's template
(``fragments.form_kernels``). cond is the value's rounding condition,
``r / (r - rho)`` for flat_bottom, whose ``sqrt(S) - rho`` cancels, and
None (1) for the rest. ``grad_check`` updates a point's row sum S by a
probe's one changed term; S's rounding, shared by both values of a
difference, cancels in it. Any other row kernel, and any wrapper, has no
form (``_form``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedObjectiveError
from .fragments import (FLOAT_MAX_DIM, Fragment, _row_dots, form_kernels, inline, inlined,
                        nested, point_kernel, row_consts, row_kernel)
from .geometry import (Ball, Box, ConvexSet, _rounding, _row_norms, as_point, as_rows, on_floats,
                       takes_floats)


@dataclass(frozen=True)
class HolderErrorBound:
    """Certificate for (f(x) - f_star)^theta >= kappa * dist(x, argmin)."""

    kappa: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise InvalidInputError("kappa must be positive and finite")
        if not (0 < self.theta <= 1):
            raise InvalidInputError("theta must lie in (0, 1]")


@dataclass(frozen=True)
class Desingularizer:
    """phi(s) = s^theta / (kappa * theta), increasing and concave on (0, inf)."""

    kappa: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise InvalidInputError("kappa must be positive and finite")
        if not (0 < self.theta <= 1):
            raise InvalidInputError("theta must lie in (0, 1]")

    def value(self, s: float) -> float:
        if s < 0:
            raise InvalidInputError("desingularizer argument must be >= 0")
        if s == 0.0:
            return 0.0
        return s**self.theta / (self.kappa * self.theta)

    def derivative(self, s):
        """phi'(s) of one value, or of each value of an array."""
        if np.any(np.less_equal(s, 0)):
            raise InvalidInputError("desingularizer derivative needs s > 0")
        return s ** (self.theta - 1.0) / self.kappa


@dataclass(frozen=True)
class Optimum:
    """Known minimum: optimal value plus the argmin described as a set."""

    f_star: float
    argmin: ConvexSet


def _each_row(point, X):
    """``point`` of a copy of each row of X: the row kernel an Objective derives."""
    return np.array([point(x.copy()) for x in X], dtype=float)


def _rows_of(point):
    """Mark a row kernel as the mirror of the point kernel ``point``."""

    def mark(rows):
        rows.mirrors = point
        return rows

    return mark


def _formed(point, uv, phi, cond=None):
    """The fn_rows ``phi(_row_dots(*uv(X)))`` that mirrors ``point`` and
    carries ``(uv, phi, cond)`` as ``form``. Entry (k, j) of each of uv's
    pair depends on X[k, j] alone (V may be one constant row), and phi maps
    the row sums elementwise. phi(S) rounds by up to cond(S) times 2 eps
    |f| beyond S's own rounding, and by 2 eps |f| if cond is None."""

    @_rows_of(point)
    def fn_rows(X):
        return phi(_row_dots(*uv(X)))

    fn_rows.form = (uv, phi, cond)
    return fn_rows


def _form(fn_rows):
    """The (uv, phi, cond) a row kernel carries, or None for one without,
    or for any wrapper, whose every call must happen."""
    return None if hasattr(fn_rows, "__wrapped__") else getattr(fn_rows, "form", None)


@dataclass(frozen=True)
class Objective:
    fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    name: str = "objective"
    optimum: Optional[Optimum] = None
    holder: Optional[HolderErrorBound] = None
    strong_convexity: Optional[float] = None
    is_even: bool = False
    # f of every row of an (m, n) array, shape (m,); must not mutate it.
    fn_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # the gradient of every row of an (m, n) array, shape (m, n); must not mutate it.
    grad_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        # A row kernel that mirrors a point kernel (a catalog one, or one
        # derived here) holds only while that is still this objective's, so
        # dataclasses.replace with a new fn does not keep stale rows. A
        # wrapper with __wrapped__ counts as the kernel it wraps (see above).
        for rows, point in (("fn_rows", self.fn), ("grad_rows", self.grad_fn)):
            kernel = getattr(self, rows)
            mirrored = getattr(kernel, "mirrors", None)
            if kernel is None or (mirrored is not None
                                  and inspect.unwrap(mirrored) is not inspect.unwrap(point)):
                object.__setattr__(self, rows, _rows_of(point)(partial(_each_row, point)))

    def value(self, x) -> float:
        """f at one point, as the one row of ``fn_rows``, so that it is the
        value the samples of a run are measured with (see ``grad``)."""
        p = as_point(x, self.dim)
        v = float(self.fn_rows(p[None, :])[0])
        if not np.isfinite(v):
            raise InvalidInputError("objective evaluated to a non-finite value")
        return v

    def grad(self, x) -> np.ndarray:
        """The gradient at one point, as the one row of ``grad_rows``: the
        catalog's equals ``grad_fn`` (see above) at numpy's speed, and a
        caller's ``grad_fn`` alone is called through its row loop."""
        return self._grads(as_point(x, self.dim)[None, :])[0]

    def _grads(self, X: np.ndarray) -> np.ndarray:
        """``grad_rows(X)``, which must be finite and of X's shape. Its
        intermediates may overflow where it does not, as a power's base may."""
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.asarray(self.grad_rows(X), dtype=float)
        if G.shape != X.shape:
            raise InvalidInputError(f"gradient has shape {G.shape[1:]}, expected ({self.dim},)")
        if not np.all(np.isfinite(G)):
            raise InvalidInputError("gradient has non-finite components")
        return G


GRAD_CHECK_BLOCK_FLOATS = 2**16  # ceiling of the row blocks that check and run evaluate at once
GRAD_CHECK_TOL = 1e-4  # the gradient check's bar on grad_check's error


def row_blocks(count: int, dim: int) -> list:
    """Slices that split ``count`` rows of ``dim`` floats into consecutive
    blocks of at most GRAD_CHECK_BLOCK_FLOATS floats, one row at least."""
    size = max(1, GRAD_CHECK_BLOCK_FLOATS // dim)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def grad_check(obj: Objective, x, h: float = 1e-5) -> float:
    """Worst safeguarded relative error of the analytic gradient against
    central finite differences, componentwise, over one point or the rows
    of an (m, n) array.

    The difference d_i divides by the realised step s_i = (p_i + h) -
    (p_i - h), not by 2h. Coordinate i's error |g_i - d_i| is divided by
    the largest of 1, |g_i|, |d_i| and r_i / GRAD_CHECK_TOL, where r_i =
    4 eps c max|f(p +- h e_i)| / s_i bounds d_i's rounding error when each f
    value is off by up to 2 eps c |f|, a few units in the last place, as a
    rounded sum of many terms can be (Nocedal & Wright, Numerical
    Optimization, section 8.1). c is the rounding condition of the value
    that a form carries, r / (r - rho) for flat_bottom, whose sqrt(S) -
    rho cancels, and 1 for the rest. So a coordinate reads at most
    GRAD_CHECK_TOL when it agrees to that relative bar or to within the
    difference's own rounding, which exceeds the bar where |f| is large:
    an exact gradient passes at any scale of p.

    The gradients of all points come from one ``grad_rows`` call. Where
    ``obj.fn_rows`` has a form (``_form``), f(p + h e_i) is phi(S + (U_i'
    V_i' - U_i V_i)), S being p's row sum and (U', V') the pair at p + h,
    O(n) floats a point: the rounding of S, the part that grows with n, is
    shared by f(p + h e_i) and f(p - h e_i) and cancels in their
    difference. Any other fn_rows evaluates the probe rows themselves
    (``_probed``). A coordinate whose difference is not a number (f
    overflowed at p or at p +- h e_i) makes the result NaN, which fails
    every threshold.
    """
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    P = as_rows(x, obj.dim)
    G = obj._grads(P)
    form = _form(obj.fn_rows)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in row_blocks(len(P), 3 * obj.dim):
            Q, g, m = P[b], G[b], b.stop - b.start
            Q3 = np.concatenate((Q, Q + h, Q - h))  # p, p + h and p - h
            size = None  # the largest |f| of each difference, times its rounding condition
            if form:
                uv, phi, cond = form
                U, V = uv(Q3)
                V = np.broadcast_to(V, U.shape)  # V may be one row for all
                S, W = _row_dots(U[:m], V[:m])[:, None], U * V
                S_plus, S_minus = S + (W[m:2 * m] - W[:m]), S + (W[2 * m:] - W[:m])
                f_plus, f_minus = phi(S_plus), phi(S_minus)
                if cond is not None:
                    size = np.maximum(np.abs(f_plus) * cond(S_plus),
                                      np.abs(f_minus) * cond(S_minus))
            else:
                f_plus, f_minus = _probed(obj.fn_rows, Q3)
            if size is None:
                size = np.maximum(np.abs(f_plus), np.abs(f_minus))
            span = Q3[m:2 * m] - Q3[2 * m:]
            span[span == 0.0] = 2.0 * h  # p_i +- h both round to p_i: d_i is 0 over 2h
            fd = (f_plus - f_minus) / span
            scale = np.maximum(np.maximum(1.0, np.abs(g)), np.abs(fd))
            # r_i / GRAD_CHECK_TOL, the difference's rounding error in units of the bar
            floor = 4.0 * np.finfo(float).eps / (span * GRAD_CHECK_TOL)
            scale = np.maximum(scale, floor * size)
            # maximum propagates a NaN error; fmax would drop it
            worst = np.maximum.reduce(np.abs(g - fd) / scale, axis=None, initial=worst)
    return float(worst)


def _probed(fn_rows, Q3):
    """f(p + h e_i) and f(p - h e_i), (m, n) each, of each p of Q3 (rows p,
    p + h, p - h) by fn_rows on probe rows: rows r and k + r of a block of
    k coordinates are p with p_i + h and p_i - h at i = start + r, set back
    to p after the call. Points whose 2n probe rows fit a block share it."""
    Q, Q_plus, Q_minus = np.split(Q3, 3)
    m, n = Q.shape
    f_plus, f_minus = np.empty_like(Q), np.empty_like(Q)
    buf = np.empty((min(m, max(1, GRAD_CHECK_BLOCK_FLOATS // (2 * n * n))),
                    2 * min(n, max(1, GRAD_CHECK_BLOCK_FLOATS // (2 * n))), n))
    for s in row_blocks(m, 2 * n * n):
        rows = buf[:s.stop - s.start]
        rows[:] = Q[s, None, :]
        flat = rows.reshape(len(rows), -1)
        for c in row_blocks(n, 2 * n):
            k = c.stop - c.start
            plus = flat[:, c.start:c.start + k * (n + 1):n + 1]
            minus = flat[:, c.start + k * n:c.start + k * (2 * n + 1):n + 1]
            plus[:], minus[:] = Q_plus[s, c], Q_minus[s, c]
            # one contiguous block: one point, or several with every coordinate
            f = fn_rows(rows[:, :2 * k].reshape(-1, n)).reshape(len(rows), 2 * k)
            plus[:] = minus[:] = Q[s, c]
            f_plus[s, c], f_minus[s, c] = f[:, :k], f[:, k:]
    return f_plus, f_minus


def singleton(point) -> Box:
    """Degenerate box {p}: the cleanest descriptor for a point argmin."""
    p = as_point(point)
    return Box(p, p)


# A quadratic's value and gradient share their set-up and residual (see _power_of)
_QUADRATIC_SETUP = ("{vec:{k}_a@} = {tile:{k}[0]}\n{vec:{k}_d@} = {tile:{k}[1]}\n"
                    "{vec:{k}_w@} = {tile:{k}[2]}\n{k}_shift = {k}[3]")
_RESIDUAL = "{vec:{k}_r@} = {vec:{x}@ - {k}_a@}\n"
_QUADRATIC = Fragment("quadratic", _QUADRATIC_SETUP,
                      _RESIDUAL + "{out} = {sum:{k}_r@ * {k}_r@ * {k}_d@} + {k}_shift")
_QUADRATIC_GRAD = Fragment("quadratic", _QUADRATIC_SETUP,
                           _RESIDUAL + "{vec:{out}@} = {vec:{k}_w@ * {k}_r@}")
_EVEN_QUARTIC = Fragment("even_quartic", "",
                         "{k}_s = {sum:{x}@ * {x}@}\n{out} = {k}_s * {k}_s + {k}_s")
_EVEN_QUARTIC_GRAD = Fragment(
    "even_quartic", "", "{k}_c = 4.0 * {sum:{x}@ * {x}@} + 2.0\n{vec:{out}@} = {vec:{k}_c * {x}@}")
_FLAT_BOTTOM_SETUP = "{vec:{k}_a@} = {tile:{k}[0]}\n{k}_rho = {k}[1]"
_FLAT_BOTTOM = Fragment("flat_bottom", _FLAT_BOTTOM_SETUP, """\
{vec:{k}_d@} = {vec:{x}@ - {k}_a@}
{k}_e = {sqrt}({sum:{k}_d@ * {k}_d@}) - {k}_rho
{k}_e = {clip:{k}_e, 0.0}
{out} = {k}_e * {k}_e""")
_FLAT_BOTTOM_GRAD = Fragment("flat_bottom", _FLAT_BOTTOM_SETUP, """\
{vec:{k}_d@} = {vec:{x}@ - {k}_a@}
{k}_r = {sqrt}({sum:{k}_d@ * {k}_d@})
if {k}_r <= {k}_rho:
    {vec:{out}@} = {zeros}
else:
    {k}_s = 2.0 * ({k}_r - {k}_rho) / {guard:{k}_r, {k}_rho}
    {vec:{out}@} = {vec:{k}_s * {k}_d@}""")


def _kernels(value: Fragment, grad: Fragment, consts: tuple, dim: int, cond=None,
             value_spliced: bool = False) -> dict:
    """fn, fn_rows (with the rounding condition ``cond``, see _formed), grad_fn
    and grad_rows rendered from a family's value and gradient on ``consts``,
    the point kernels compiled now up to FLOAT_MAX_DIM floats, where runs
    step them, and beyond at first use; the gradient marked inlined, and the
    value if ``value_spliced``."""
    fn, grad_fn = (on_floats(partial(point_kernel(f, dim), consts) if dim <= FLOAT_MAX_DIM
                             else lambda x, f=f: point_kernel(f, dim)(consts, x))
                   for f in (value, grad))
    grad_fn = inlined(grad, lambda _: consts)(grad_fn)
    if value_spliced:
        fn = inlined(value, lambda _: consts)(fn)
    tiles = row_consts(consts)
    uv, phi = (partial(kernel, tiles) for kernel in form_kernels(value))
    return dict(fn=fn, fn_rows=_formed(fn, uv, phi, cond), grad_fn=grad_fn,
                grad_rows=_rows_of(grad_fn)(partial(row_kernel(grad), tiles)))


def quadratic(center, diag=None, shift: float = 0.0, name: str | None = None) -> Objective:
    """f(x) = sum_i d_i (x_i - a_i)^2 + shift with every d_i > 0.

    Strongly convex with modulus 2*min(d); certificate kappa is
    sqrt(min(d)) at theta = 1/2, which the anisotropy makes tight.
    """
    a = as_point(center)
    d = np.ones(a.size) if diag is None else as_point(diag, a.size)
    if np.any(d <= 0):
        raise InvalidInputError("diagonal weights must all be positive")
    shift = float(shift)
    if not np.isfinite(shift):
        raise InvalidInputError("shift must be finite")
    consts = (a.tolist(), d.tolist(), (2.0 * d).tolist(), shift)
    dmin = float(np.min(d))
    return Objective(
        **_kernels(_QUADRATIC, _QUADRATIC_GRAD, consts, a.size, value_spliced=True),
        dim=a.size,
        name=name or "quadratic",
        optimum=Optimum(f_star=shift, argmin=singleton(a)),
        holder=HolderErrorBound(kappa=np.sqrt(dmin), theta=0.5),
        strong_convexity=2.0 * dmin,
        is_even=bool(np.all(a == 0.0)),
    )


def even_quartic(dim: int) -> Objective:
    """f(x) = ||x||^4 + ||x||^2: even, strongly convex, minimum 0 at the origin."""
    if dim < 1:
        raise InvalidInputError("dim must be a positive integer")
    return Objective(
        **_kernels(_EVEN_QUARTIC, _EVEN_QUARTIC_GRAD, (), int(dim)),
        dim=int(dim),
        name="even_quartic",
        optimum=Optimum(f_star=0.0, argmin=singleton(np.zeros(dim))),
        holder=HolderErrorBound(kappa=1.0, theta=0.5),
        strong_convexity=2.0,
        is_even=True,
    )


def flat_bottom(center, rho: float) -> Objective:
    """f(x) = max(0, ||x - a|| - rho)^2, the squared distance to Ball(a, rho).

    The whole ball is the argmin, so this is the stock example of a
    minimizer set with interior. Not strongly convex: flat inside the ball.
    The bound (f)^{1/2} = dist(x, Ball(a, rho)) holds with equality, so
    kappa = 1 at theta = 1/2 is exact.
    """
    a = as_point(center)
    rho = float(rho)
    if not np.isfinite(rho) or rho <= 0:
        raise InvalidInputError("rho must be positive and finite")

    # sqrt(S) - rho cancels: f rounds by up to r / (r - rho) times 2 eps, r = sqrt(S);
    # r - rho is 0 or about eps rho at least, and f is 0 where r <= rho
    return Objective(
        **_kernels(_FLAT_BOTTOM, _FLAT_BOTTOM_GRAD, (a.tolist(), rho), a.size,
                   lambda S: np.sqrt(S) / np.maximum(np.sqrt(S) - rho, np.finfo(float).eps * rho)),
        dim=a.size,
        name="flat_bottom",
        optimum=Optimum(f_star=0.0, argmin=Ball(a, rho)),
        holder=HolderErrorBound(kappa=1.0, theta=0.5),
        strong_convexity=None,
        is_even=bool(np.all(a == 0.0)),
    )


def _pow(v: float, e: float) -> float:
    """v ** e in Python's float arithmetic, which is the C library's pow,
    and inf where that overflows, as numpy's power gives."""
    try:
        return v**e
    except OverflowError:
        return math.inf


def _power_of(base: tuple, base_grad: tuple, p: float):
    """inlined for make_power_objective's grad_fn, whose base kernels
    inline as ``base`` and ``base_grad`` (fragments.inline): it computes
    them, and raises to the power, in the order that grad_fn does. Bases
    cut from one template (one consts object and setup, as a quadratic's)
    share its locals, and the gradient skips its first statement where it
    is the value's, whose locals the value keeps. e = p - 1 is exact at 1
    and 0 (C's pow gives v and 1.0, NaN and inf too): the fragment writes
    p * v and p. Elsewhere in [0, 1] it is ``**``, which cannot overflow
    there (|v ** e| <= max(1, |v|)); a larger e calls _pow, and its kind
    says so."""
    (f, f_consts), (g, g_consts) = base, base_grad
    e = p - 1.0
    plain = 0.0 <= e <= 1.0
    kg = "f" if f_consts is g_consts and f.setup == g.setup else "g"  # g's locals' prefix
    value = nested(f.body, "f", out="{k}_v")
    grad = nested(g.body, kg, out="{k}_b").splitlines()
    if grad[0] == value.partition("\n")[0]:
        del grad[0]
    raised = {1.0: "{k}_p * {k}_v", 0.0: "{k}_p"}.get(
        e, "{k}_p * " + ("{k}_v ** {k}_e" if plain else "{k}_pow({k}_v, {k}_e)"))
    setup = "\n".join(dict.fromkeys(["{k}_p, {k}_e, {k}_pow, {k}_f, {k}_g = {k}", *(
        nested(part.setup, k) for part, k in ((f, "f"), (g, kg)) if part.setup)]))  # shared: once
    body = "\n".join([value,
                      "if {k}_v == 0.0:",
                      "    {vec:{out}@} = (0.0,) * {n}",
                      "else:",
                      "    {k}_c = " + raised,
                      *("    " + line for line in grad),
                      "    {vec:{out}@} = {vec:{k}_c * {k}_b@}"])
    kind = f"power({f.kind}, {g.kind}{'' if plain else ', _pow'})"
    return inlined(Fragment(kind, setup, body), lambda _: (p, e, _pow, f_consts, g_consts))


def make_power_objective(g: Objective, theta: float) -> Objective:
    """Raise a nonnegative strongly convex objective to the power 1/(2*theta).

    Returns h = g^{1/(2 theta)} with the chain-rule gradient, defined as the
    zero vector wherever g vanishes (the correct C^1 extension since the
    exponent exceeds 1). h inherits g's argmin and carries the certificate
    kappa = sqrt(m/2) at the requested theta, m being g's modulus.
    """
    if not (0 < theta <= 0.5):
        raise InvalidInputError("theta must lie in (0, 1/2]")
    if g.strong_convexity is None:
        raise UnsupportedObjectiveError(f"{g.name}: strong convexity modulus not set")
    if g.optimum is None:
        raise UnsupportedObjectiveError(f"{g.name}: optimum metadata required")
    if g.optimum.f_star < 0:
        raise InvalidInputError("base objective must be nonnegative")
    p = 1.0 / (2.0 * theta)

    def fn(x, base=g.fn, p=p):
        return _pow(float(base(x)), p)

    form = _form(g.fn_rows)
    if form is None:  # a base without a form: the power has none either
        fn_rows = _rows_of(fn)(lambda X, base=g.fn_rows, p=p: base(X) ** p)
    else:
        fn_rows = _formed(fn, form[0], lambda S, phi=form[1], p=p: phi(S) ** p, form[2])

    def grad_fn(x, base=g.fn, base_grad=g.grad_fn, p=p, e=p - 1.0):
        gv = float(base(x))
        if gv == 0.0:
            out = [0.0] * len(x)
        else:
            c = p * _pow(gv, e)
            out = [c * v for v in base_grad(x)]
        return out if x.__class__ is list else np.array(out)

    if takes_floats(g.fn) and takes_floats(g.grad_fn):
        fn, grad_fn = on_floats(fn), on_floats(grad_fn)
    base, base_grad = inline(g.fn), inline(g.grad_fn)
    if base is not None and base_grad is not None:
        grad_fn = _power_of(base, base_grad, p)(grad_fn)

    @_rows_of(grad_fn)
    def grad_rows(X, base_rows=g.fn_rows, base_grad_rows=g.grad_rows,
                  p=np.array(p), e=np.array(p - 1.0)):
        # p and e are 0-d arrays, faster scalars for numpy. p >= 1 and the
        # base gradient is 0 wherever the base vanishes, so a zero base
        # needs no mask.
        return (p * base_rows(X) ** e)[:, None] * base_grad_rows(X)

    m = g.strong_convexity
    return Objective(
        fn=fn,
        fn_rows=fn_rows,
        grad_fn=grad_fn,
        grad_rows=grad_rows,
        dim=g.dim,
        name=f"{g.name}^{p:g}",
        optimum=Optimum(f_star=g.optimum.f_star**p, argmin=g.optimum.argmin),
        holder=HolderErrorBound(kappa=float(np.sqrt(m / 2.0)), theta=theta),
        strong_convexity=m if p == 1.0 else None,
        is_even=g.is_even,
    )


GAP_FLOOR = 1e-14  # below this the bound ratios are 0/0 noise


def certificate_checks(obj: Objective, domain: Optional[ConvexSet],
                       phi: Optional[Desingularizer], blocks) -> tuple:
    """gheb_check on ``domain`` and lojasiewicz_check with ``phi`` in one
    pass over the samples, which come as an iterable of (m, n) row blocks.

    Each block's f is evaluated once, for both certificates, so a caller
    that draws the blocks one at a time holds one block at a time. Returns
    the smallest ratio and the smallest product; a certificate whose
    ``domain`` or ``phi`` is None is skipped and returns inf. Either one
    raises InvalidInputError when no sample of the whole stream had a
    positive objective gap.
    """
    if domain is not None and (obj.optimum is None or obj.holder is None):
        raise UnsupportedObjectiveError(f"{obj.name}: needs optimum and bound certificate")
    if obj.optimum is None:
        raise UnsupportedObjectiveError(f"{obj.name}: needs optimum metadata")
    if domain is not None and domain.dim not in (None, obj.dim):
        raise InvalidInputError(f"expected dimension {domain.dim}, got {obj.dim}")
    ratio = product = np.inf
    for X in blocks:
        rows = as_rows(X, obj.dim, "sample")
        f = obj.fn_rows(rows)
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("objective evaluated to a non-finite value")
        gap = f - obj.optimum.f_star
        keep = gap > GAP_FLOOR
        if domain is not None:
            slack = _rounding(obj.dim, _row_norms(rows))
            if np.any(_row_norms(rows - domain._project_rows(rows)) > 1e-9 + slack):
                raise InvalidInputError("sample lies outside the domain")
            dist = _row_norms(rows - obj.optimum.argmin._project_rows(rows))
            ok = keep & (dist != 0.0)
            # f and f_star round by up to _rounding of their magnitudes, which
            # near the argmin is not small beside the gap: each gap is raised
            # by it, so that rounding alone fails no sample
            top = gap + _rounding(obj.dim, np.maximum(np.abs(f), abs(obj.optimum.f_star)))
            ratio = min(ratio, np.min(top[ok] ** obj.holder.theta / dist[ok], initial=np.inf))
        if phi is not None and keep.any():
            kept = rows[keep]
            G = np.asarray(obj.grad_rows(kept), dtype=float)
            if G.shape != kept.shape or not np.all(np.isfinite(G)):
                raise InvalidInputError(f"gradient rows must be finite, of shape {kept.shape}")
            with np.errstate(over="ignore"):
                norms = _row_norms(G)
            # a row whose squares overflow: scale by its largest |component| first
            big = np.isinf(norms)
            if big.any():
                m = np.max(np.abs(G[big]), axis=1, keepdims=True)
                norms[big] = m[:, 0] * _row_norms(G[big] / m)
            product = min(product, np.min(phi.derivative(gap[keep]) * norms))
    if (domain is not None and ratio == np.inf) or (phi is not None and product == np.inf):
        raise InvalidInputError("no sample had a positive objective gap")
    return float(ratio), float(product)


def _blocks_of(samples, dim: int):
    X = as_rows(samples, dim, "sample")
    for b in row_blocks(X.shape[0], dim):
        yield X[b]


def gheb_check(obj: Objective, domain: ConvexSet, samples) -> float:
    """Smallest sampled value of (f(x) - f_star)^theta / dist(x, argmin).

    The certificate holds when the return value is at least
    kappa * (1 - 1e-6). Each gap f(x) - f_star is first raised by the
    rounding of f and f_star (geometry._rounding of the larger magnitude),
    so that a sample near the argmin, whose gap is the difference of two
    rounded values, fails only by more than rounding. Samples at or below
    the gap floor are skipped: the inequality says nothing on the argmin
    set itself. A sample more than 1e-9 from the set, by the Euclidean
    distance of each row from its projection (on the simplex too, whose
    ``residual`` is a surrogate), raises InvalidInputError; far from the
    origin the bound grows by the rounding of the sample's coordinates
    (see geometry._rounding).
    """
    return certificate_checks(obj, domain, None, _blocks_of(samples, obj.dim))[0]


def lojasiewicz_check(obj: Objective, phi: Desingularizer, samples) -> float:
    """Smallest sampled value of phi'(f(x) - f_star) * ||grad f(x)||.

    The inequality passes when the return value is >= 1 - 1e-6.
    """
    return certificate_checks(obj, None, phi, _blocks_of(samples, obj.dim))[1]
