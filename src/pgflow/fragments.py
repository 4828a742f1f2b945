"""Kernels as templates: each catalog kernel's arithmetic, written once.

A ``Fragment`` holds str.format templates of a kernel's constants' set-up
and of its body, which ``source`` renders on n Python floats (n an int),
each vector n scalar locals: the point kernel (``point_kernel``), which
flow's RK4 loop splices in where it would call a kernel marked
``inlined``; on the rows of an (m, n) array (n ROWS), each sum a column:
the row kernel (``row_kernel``) and a value's form (``form_kernels``); or
on one row (n None), each sum a number: flow's row loop. ``{vec:t@}`` is
t at each coordinate, ``@`` standing for it, and ``{sum:u@ * ... * v@}``
the terms' sum: left to right up to FLOAT_MAX_DIM floats, as geometry._dot
adds, math.fsum beyond, and ``_row_dots(u * ..., v)`` on rows, which adds
up to FLOAT_MAX_DIM columns in that order too. So a point kernel and its
row kernel agree bit for bit up to FLOAT_MAX_DIM coordinates, and within a
few ulp beyond. Branches and clips use fields spelled once for floats and
once for rows: ``{sqrt}``, ``{zeros}`` (the zero vector), ``{tile:c}`` (a
constant vector: on rows c's _RowTiles of the input), ``{clip:v, lo[,
hi]}`` (tests on floats, ``np.minimum(np.maximum(...))`` on rows) and
``{guard:r, b}`` (a divisor that its branch holds above b: on rows, where
both branches run, ``np.maximum(r, b)``). On rows a body's ``if c:`` /
``out = a`` / ``else:`` / ... / ``out = b`` becomes the else branch's
other lines and ``out = np.where(c, a, b)``. Other fields are names.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
from textwrap import dedent
from typing import NamedTuple

import numpy as np

FLOAT_MAX_DIM = 7  # the widest run stepped on floats (see flow), and row summed by columns
TILE_MAX_FLOATS = 4096  # see _RowTiles

ROWS = "rows"  # source's n for the rendering on the rows of an (m, n) array


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<X[k], Y[k]>, or <X[k], Y> for one vector Y, of each row of a 2-d X:
    up to FLOAT_MAX_DIM columns summed left to right, as geometry._dot
    sums, and wider rows by np.vecdot."""
    width = X.shape[1]
    if width > FLOAT_MAX_DIM:
        return np.vecdot(X, Y)
    P = X * Y
    s = P[:, 0]
    for j in range(1, width):
        s = s + P[:, j]
    return s


class _RowTiles:
    """A constant (n,) vector as an operand for an (m, n) array X: tiled
    into X's rows, and kept until the row count changes, up to
    TILE_MAX_FLOATS floats, where numpy spends more on setting up the
    broadcast of an (n,) operand than on the arithmetic; the vector itself
    beyond. Callers must not write to the result."""

    def __init__(self, v: np.ndarray):
        self.v = self.tiled = v

    def __call__(self, X: np.ndarray) -> np.ndarray:
        tiled = self.tiled
        if tiled.shape != X.shape:
            if X.size > TILE_MAX_FLOATS:
                return self.v
            tiled = self.tiled = np.tile(self.v, (X.shape[0], 1))
        return tiled


def row_consts(consts: tuple) -> tuple:
    """Constants as a row kernel takes them: a list of floats as its
    vector's _RowTiles, a float as a 0-d array, a faster numpy scalar."""
    return tuple(_RowTiles(np.array(c)) if isinstance(c, list) else np.array(c) for c in consts)


class Fragment(NamedTuple):
    """A kernel as templates (see ``source``) in the names k, x, out and n:
    ``setup`` unpacks the constants k into locals named k_..., which flow's
    RK4 loop runs at its entry and a compiled kernel at each call, and
    ``body`` computes out, a number or a vector, from the vector x (the
    clock's, which the loop splices in on rows too, from the expression x).
    A fragment divides only by a divisor its kernel holds or tests as
    positive, and raises to a power through the kernel's own ``pow``, or
    with ``**`` only where that cannot overflow: Python's ``/`` and ``**``
    raise where numpy gives inf or NaN. ``kind`` names it in file names."""

    kind: str
    setup: str
    body: str


def inlined(fragment: Fragment, consts):
    """Mark a point kernel as computing ``fragment``, whose constants
    ``consts(owner)`` reads from the kernel's own data, the owner being a
    method's instance and a function itself."""

    def mark(kernel):
        kernel.fragment, kernel.consts = fragment, consts
        return kernel

    return mark


def inline(kernel) -> tuple | None:
    """(Fragment, constants) of a kernel marked by inlined, or None where
    flow's loop must call it: a kernel without a fragment, and any wrapper
    (with ``__wrapped__``, as ``functools.wraps`` sets), whose calls must happen."""
    if hasattr(kernel, "__wrapped__") or not hasattr(kernel, "fragment"):
        return None
    return kernel.fragment, kernel.consts(getattr(kernel, "__self__", kernel))


class _Spelled:
    """A field's value: formatting it with a spec writes ``spell`` of the
    spec's comma-separated arguments."""

    def __init__(self, spell):
        self.spell = spell

    def __format__(self, spec: str) -> str:
        return self.spell(*spec.split(", "))


def _coords(n, total: bool) -> _Spelled:
    """The field vec, or sum if ``total``, for n floats or on rows."""
    if not isinstance(n, int):
        def row_sum(term):
            *u, v = term.replace("@", "").split(" * ")
            return f"_row_dots({' * '.join(u)}, {v})" + ("[0]" if n is None else "[:, None]")

        return _Spelled(row_sum if total else lambda term: term.replace("@", ""))
    # a sum leaves out _dot's start, -0.0, the identity of + (signed zeros and NaN too)
    form, sep = ("(%s)", " + ") if n <= FLOAT_MAX_DIM else ("math.fsum((%s))", ", ")
    if not total:
        form, sep = "%s" + "," * (n == 1), ", "  # a tuple at n = 1 too
    return _Spelled(lambda term: form % sep.join(term.replace("@", str(i)) for i in range(n)))


# The fields source fills in besides the names it is given
_FIELDS = ("n", "vec", "sum", "sqrt", "zeros", "tile", "clip", "guard")


def source(n, template: str, **names) -> str:
    """Source for n floats, one row if n is None, or rows if n is ROWS,
    from a template: str.format with ``names`` and the fields. At n = 2,
    ``{vec:a@} = {vec:x@ - c@}`` is ``a0, a1 = x0 - c0, x1 - c1`` and
    ``{sum:x@ * x@}`` is ``(x0 * x0 + x1 * x1)``; at n = 1 ``{vec:x@}`` is
    ``x0,``; on a row ``a = x - c`` and ``_row_dots(x, x)[0]``, and on rows
    ``_row_dots(x, x)[:, None]``."""
    rows, vec = not isinstance(n, int), _coords(n, False)

    def clip(v, lo, hi=None):
        if rows:
            v = f"np.maximum({v}, {lo})"
            return (v if hi is None else f"np.minimum({v}, {hi})").replace("@", "")
        term = f"{lo} if {v} < {lo} else " + (v if hi is None else f"{hi} if {v} > {hi} else {v}")
        return format(vec, term) if "@" in term else term

    fields = dict(n=n, vec=vec, sum=_coords(n, True), sqrt="np.sqrt" if rows else "math.sqrt",
                  zeros="0.0" if rows else f"(0.0,) * {n}", clip=_Spelled(clip),
                  tile=_Spelled(lambda c: f"{c}(x)" if rows else c),
                  guard=_Spelled(lambda r, b: f"np.maximum({r}, {b})" if rows else r))
    return template.format(**{**fields, **names})


def nested(template: str, k: str, **names) -> str:
    """A Fragment template inside another's: its locals k_... become the outer
    k's k_..., ``names`` are filled in, and x, out and source's fields kept."""
    kept = {name: _Spelled(lambda *spec, name=name: "{%s}" % ":".join(filter(None, (
        name, ", ".join(spec))))) for name in ("x", "out", *_FIELDS)}
    return template.format(**{**kept, "k": "{k}_" + k, **names})


_BRANCH = re.compile(r"^if (.+):\n    (\w+) = (.+)\nelse:\n((?:    .+\n)*)    \2 = (.+)$", re.M)


def _kernel(setup: str, body: str, arg: str, returns: str, name: str):
    """``kernel(k, arg)``: the ``setup`` lines whose first local ``body`` or
    ``returns`` reads, ``body``, and ``return returns``, compiled under the
    file name ``name``, which tracebacks read back through linecache."""
    read = set(re.findall(r"\w+", body + "\n" + returns))
    lines = [line for line in setup.splitlines() if re.search(r"\w+", line)[0] in read]
    text = "\n    ".join([f"def kernel(k, {arg}):", *lines, *filter(None, body.splitlines()),
                          f"return {returns}"])
    linecache.cache[name] = (len(text), None, text.splitlines(True), name)
    scope = {}
    exec(compile(text, name, "exec"), {"math": math, "np": np, "_row_dots": _row_dots}, scope)
    return scope["kernel"]


@functools.cache
def point_kernel(fragment: Fragment, n: int):
    """``kernel(consts, x)``, ``fragment`` on the n floats of a sequence x,
    compiled on first use; a vector comes back as a list for a list and as
    an array otherwise."""
    text = source(n, "{vec:x@} = x\n" + fragment.body, k="k", x="x", out="out")
    vector = "{vec:{out}@}" in fragment.body
    if vector:
        text += "\n" + source(n, "out = [{vec:out@}]")
    return _kernel(source(n, fragment.setup, k="k"), text, "x",
                   "out if x.__class__ is list else np.array(out)" if vector else "out",
                   f"<pgflow {fragment.kind} {'vector' if vector else 'value'} n={n}>")


@functools.cache
def row_kernel(fragment: Fragment):
    """``kernel(consts, X)``, ``fragment`` on the rows of an (m, n) array X,
    its constants as row_consts gives them; compiled once."""
    body = _BRANCH.sub(lambda m: f"{dedent(m[4])}{m[2]} = np.where({m[1]}, {m[3]}, {m[5]})",
                       source(ROWS, fragment.body, k="k", x="x", out="out"))
    role = "vector" if "{vec:{out}@}" in fragment.body else "value"
    return _kernel(source(ROWS, fragment.setup, k="k"), body, "x", "out",
                   f"<pgflow {fragment.kind} {role} rows>")


@functools.cache
def form_kernels(fragment: Fragment) -> tuple:
    """``(uv(consts, X), phi(consts, S))`` of a value whose body has one
    sum, ``{sum:u@ * ... * v@}``, on rows, compiled once: uv runs the lines
    before the sum's and returns ``(u * ..., v)``, the product taken in place
    where u is a temporary of those lines, and phi the rest, the sum replaced
    by S, so that the value is ``phi(_row_dots(*uv(X)))``."""
    lines = fragment.body.splitlines()
    at = next(i for i, line in enumerate(lines) if "{sum:" in line)
    terms = []
    tail = source(ROWS, "\n".join(lines[at:]), k="k", x="x", out="out",
                  sum=_Spelled(lambda term: terms.append(term) or "S"))
    *u, v = terms[0].replace("@", "").split(" * ")
    setup = source(ROWS, fragment.setup, k="k")
    head = source(ROWS, "\n".join(lines[:at]), k="k", x="x")
    if len(u) > 1 and re.search(rf"^{u[0]} = ", head, re.M):  # a temporary: u's product in place
        head, u = head + f"\n{u[0]} *= {' * '.join(u[1:])}", u[:1]
    return (_kernel(setup, head, "x", f"{' * '.join(u)}, {v}", f"<pgflow {fragment.kind} uv>"),
            _kernel(setup, tail, "S", "out", f"<pgflow {fragment.kind} phi>"))
