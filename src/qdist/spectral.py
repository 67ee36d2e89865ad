"""The float signless Laplacian of one graph (q_float, through
jacobi.matrix_stack; the exact side builds its integer rows with
exact.graph_shift_rows), the interval and rational literals of the CLI,
interval eigenvalue counting, and the spectrum report of `qdist spectrum`.

Interval counts go through the exact congruence counter, never through
floats: the statements under test compare counts at integer or rational
thresholds where eigenvalues can land exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exact
from .graph6 import graph6_encode
from .graphs import Graph
from .jacobi import adjacency, eigenvalues_sym, matrix_stack


# -- intervals ----------------------------------------------------------------


class IntervalError(ValueError):
    """Malformed interval literal or endpoints."""


@dataclass(frozen=True)
class Interval:
    """Rational endpoints with per-endpoint open/closed flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise IntervalError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise IntervalError("degenerate interval must be closed on both ends")

    def __str__(self) -> str:
        lo = "[" if self.lo_closed else "("
        hi = "]" if self.hi_closed else ")"
        return f"{lo}{self.lo},{self.hi}{hi}"


_BOUND_RE = re.compile(
    r"""^\s*(?:
        (?P<coef>[+-]?(?:\d+(?:/\d+)?)?)\s*\*?\s*n\s*(?P<rest>[+-]\s*\d+(?:/\d+)?)?
      | (?P<const>[+-]?\d+(?:/\d+)?)
    )\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SymbolicBound:
    """Endpoint of the form coef*n + const, resolved against a graph order."""

    coef: Fraction
    const: Fraction

    def resolve(self, n: int) -> Fraction:
        return self.coef * n + self.const

    def __str__(self) -> str:
        if self.coef == 0:
            return str(self.const)
        cn = "n" if self.coef == 1 else ("-n" if self.coef == -1 else f"{self.coef}n")
        if self.const == 0:
            return cn
        sign = "+" if self.const > 0 else "-"
        return f"{cn}{sign}{abs(self.const)}"


def parse_rational(text: str) -> Fraction:
    """A rational literal such as "3" or "-7/2". A zero denominator or an
    unparsable literal raises IntervalError naming the text, a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise IntervalError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise IntervalError(f"not a rational literal: {text!r}") from None


def _parse_bound(text: str) -> SymbolicBound:
    m = _BOUND_RE.match(text)
    if not m:
        raise IntervalError(f"cannot parse interval endpoint {text!r}")
    if m.group("const") is not None:
        return SymbolicBound(Fraction(0), parse_rational(m.group("const")))
    coef = m.group("coef")
    if coef in ("", "+"):
        coef = "1"
    elif coef == "-":
        coef = "-1"
    rest = (m.group("rest") or "0").replace(" ", "")
    return SymbolicBound(parse_rational(coef), parse_rational(rest))


@dataclass(frozen=True)
class SymbolicInterval:
    lo: SymbolicBound
    hi: SymbolicBound
    lo_closed: bool
    hi_closed: bool

    def resolve(self, n: int) -> Interval:
        return Interval(self.lo.resolve(n), self.hi.resolve(n), self.lo_closed, self.hi_closed)

    def __str__(self) -> str:
        return f"{'[' if self.lo_closed else '('}{self.lo},{self.hi}{']' if self.hi_closed else ')'}"


def parse_interval(text: str) -> SymbolicInterval:
    """Parse interval syntax like "[0,1)", "(2,2n-2]", "[0,n-3)"."""
    s = text.strip()
    if len(s) < 5 or s[0] not in "[(" or s[-1] not in ")]":
        raise IntervalError(f"malformed interval literal {text!r}")
    body = s[1:-1]
    if body.count(",") != 1:
        raise IntervalError(f"interval needs exactly one comma: {text!r}")
    lo_text, hi_text = body.split(",")
    si = SymbolicInterval(_parse_bound(lo_text), _parse_bound(hi_text), s[0] == "[", s[-1] == "]")
    if si.lo.coef == si.hi.coef == 0 and si.lo.const > si.hi.const:
        raise IntervalError(f"interval endpoints out of order in {text!r}")
    return si


# -- matrix builders ----------------------------------------------------------


def q_float(g: Graph) -> np.ndarray:
    """Q(G) as a float64 array: matrix_stack of the one graph."""
    return matrix_stack(adjacency(g.n, [g]))[0]


def m_count(g: Graph, iv: Interval, matrix: str = "Q") -> int:
    """Exact number of eigenvalues of Q(G) (or L(G)) in the interval."""
    at_hi = (exact.graph_count_le if iv.hi_closed else exact.graph_count_lt)(g, iv.hi, matrix)
    at_lo = (exact.graph_count_lt if iv.lo_closed else exact.graph_count_le)(g, iv.lo, matrix)
    return at_hi - at_lo


# -- reports -------------------------------------------------------------------


def spectrum_report(g: Graph, matrix: str = "Q", thresholds: Sequence[Fraction | int] = ()) -> dict:
    """JSON-able report: graph6, eigenvalues, and exact counts below thresholds."""
    spec = eigenvalues_sym(matrix_stack(adjacency(g.n, [g]), matrix)[0])
    counts = {str(Fraction(t)): exact.graph_count_lt(g, Fraction(t), matrix) for t in thresholds}
    return {
        "graph": graph6_encode(g),
        "matrix": matrix,
        "eigenvalues": list(spec.values),
        "exact_counts": counts,
    }
