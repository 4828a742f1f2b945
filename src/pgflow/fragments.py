"""Point kernels as source, for flow's generated RK4 loop.

A point kernel marked ``inlined`` carries its arithmetic as a
``Fragment`` beside it, which ``flow._rk4_source`` splices in where its
loop would call the kernel (``inline``). Fragments and the loop are
str.format templates. Two format fields spell a vector, ``@`` standing
for the coordinate: over n coordinates ``{vec:t@}`` is the tuple of t at
each and ``{sum:t@}`` their sum; on one numpy row (n None) each is one
expression. Any other field is a name, filled in by ``source``.
"""

from __future__ import annotations

from typing import NamedTuple


class Fragment(NamedTuple):
    """A point kernel's arithmetic as source for flow's generated RK4 loop.

    ``setup`` and ``body`` are templates (see ``source``) in the names k,
    x, out and n. The loop binds the kernel's constants (see ``inline``)
    to the local k at its entry and runs ``setup`` there, which unpacks
    them into locals named k_...; ``body`` computes the kernel from the
    locals x0..x{n-1} into out0..out{n-1}, with temporaries named k_...
    too. The clock's body reads the expression x and writes the local out;
    it is the one fragment the loop also splices in on rows.
    Each statement does the kernel's float operations in the kernel's
    order, so the loop's floats are the kernel's, bit for bit. A fragment
    divides only by a divisor its kernel holds or tests as positive, and
    raises to a power through the kernel's own ``pow``, or with ``**`` only
    where that cannot overflow: Python's ``/`` and ``**`` raise where numpy
    gives inf or NaN. ``kind`` names the source in the loop's file name.
    """

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
    (it has ``__wrapped__``: a tracer's, a counter, any
    ``functools.wraps``), whose every call must happen."""
    if hasattr(kernel, "__wrapped__") or not hasattr(kernel, "fragment"):
        return None
    return kernel.fragment, kernel.consts(getattr(kernel, "__self__", kernel))


class _Coords:
    """The value of the fields vec and sum: formatting it with the spec t
    writes t at each of n coordinates, ``@`` replaced by the coordinate."""

    def __init__(self, n: int | None, total: bool):
        self.n, self.total = n, total

    def __format__(self, term: str) -> str:
        if self.n is None:  # one row: numpy on (1, n) arrays
            if self.total:
                u, v = term.replace("@", "").split(" * ")
                return f"_row_dots({u}, {v})[0]"
            return term.replace("[@]", "").replace("@", "")
        terms = [term.replace("@", str(i)) for i in range(self.n)]
        # a sum adds left to right, as geometry._dot adds; _dot's start, -0.0,
        # is the identity of + (-0.0 + t is t, signed zeros and NaN too): not written
        if self.total:
            return "(" + " + ".join(terms) + ")"
        return ", ".join(terms) + "," * (self.n == 1)  # a tuple at n = 1 too


def source(n: int | None, template: str, **names) -> str:
    """Source for n coordinates, or one row if n is None, from a template:
    str.format with ``names``, n, and the fields vec and sum. At n = 2,
    ``{vec:a@} = {vec:x@ - c@}`` is ``a0, a1 = x0 - c0, x1 - c1`` and
    ``{sum:x@ * x@}`` is ``(x0 * x0 + x1 * x1)``; at n = 1,
    ``{vec:x@}`` is ``x0,``; on a row, ``a = x - c`` and ``_row_dots(x, x)[0]``."""
    return template.format(n=n, vec=_Coords(n, False), sum=_Coords(n, True), **names)


class _Kept:
    """The value of a field that nested writes back as it found it."""

    def __init__(self, name: str):
        self.name = name

    def __format__(self, spec: str) -> str:
        return "{" + self.name + (":" + spec if spec else "") + "}"


def nested(template: str, k: str, **names) -> str:
    """A Fragment template inside another's: its locals named k_... become
    the outer k's k_..., the ``names`` given are filled in, and the fields
    x, out, n, vec and sum stay fields of the outer template."""
    kept = {name: _Kept(name) for name in ("x", "out", "n", "vec", "sum")}
    return template.format(**{**kept, "k": "{k}_" + k, **names})
