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


_BOUND_RE = re.compile(
    r"""^\s*(?:
        (?P<coef>[+-]?(?:\d+(?:/\d+)?)?)\s*\*?\s*n\s*(?P<rest>[+-]\s*\d+(?:/\d+)?)?
      | (?P<const>[+-]?\d+(?:/\d+)?)
    )\s*$""",
    re.VERBOSE,
)


def _bound_str(coef: Fraction, const: Fraction) -> str:
    if coef == 0:
        return str(const)
    cn = "n" if coef == 1 else ("-n" if coef == -1 else f"{coef}n")
    if const == 0:
        return cn
    return f"{cn}{'+' if const > 0 else '-'}{abs(const)}"


@dataclass(frozen=True)
class Interval:
    """Endpoints coef*n + const, each a (coef, const) pair of rationals, with
    per-endpoint open/closed flags; both coefs are 0 in a constant interval."""

    lo: tuple[Fraction, Fraction]
    hi: tuple[Fraction, Fraction]
    lo_closed: bool
    hi_closed: bool

    def resolve(self, n: int) -> "Interval":
        """The constant interval at graph order n. Endpoints out of order, or
        equal and not both closed, raise IntervalError naming self and n."""
        lo, hi = (coef * n + const for coef, const in (self.lo, self.hi))
        if lo > hi:
            raise IntervalError(f"{self} at n = {n}: interval endpoints out of order: {lo} > {hi}")
        if lo == hi and not (self.lo_closed and self.hi_closed):
            raise IntervalError(f"{self} at n = {n}: degenerate interval must be closed on both ends")
        return Interval((0, lo), (0, hi), self.lo_closed, self.hi_closed)

    def __str__(self) -> str:
        lo, hi = "[" if self.lo_closed else "(", "]" if self.hi_closed else ")"
        return f"{lo}{_bound_str(*self.lo)},{_bound_str(*self.hi)}{hi}"


def parse_rational(text: str) -> Fraction:
    """A rational literal such as "3" or "-7/2". A zero denominator or an
    unparsable literal raises IntervalError naming the text, a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise IntervalError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise IntervalError(f"not a rational literal: {text!r}") from None


def _parse_bound(text: str) -> tuple[Fraction, Fraction]:
    m = _BOUND_RE.match(text)
    if not m:
        raise IntervalError(f"cannot parse interval endpoint {text!r}")
    if m.group("const") is not None:
        return Fraction(0), parse_rational(m.group("const"))
    coef = m.group("coef")
    if coef in ("", "+", "-"):
        coef += "1"
    rest = (m.group("rest") or "0").replace(" ", "")
    return parse_rational(coef), parse_rational(rest)


def parse_interval(text: str) -> Interval:
    """Parse interval syntax like "[0,1)", "(2,2n-2]", "[0,n-3)"."""
    s = text.strip()
    if len(s) < 5 or s[0] not in "[(" or s[-1] not in ")]":
        raise IntervalError(f"malformed interval literal {text!r}")
    body = s[1:-1]
    if body.count(",") != 1:
        raise IntervalError(f"interval needs exactly one comma: {text!r}")
    lo_text, hi_text = body.split(",")
    iv = Interval(_parse_bound(lo_text), _parse_bound(hi_text), s[0] == "[", s[-1] == "]")
    if iv.lo[0] == iv.hi[0] == 0 and iv.lo[1] > iv.hi[1]:
        raise IntervalError(f"interval endpoints out of order in {text!r}")
    return iv


# -- matrix builders ----------------------------------------------------------


def q_float(g: Graph, matrix: str = "Q") -> np.ndarray:
    """Q(G) (or L(G)) as a float64 array: matrix_stack of the one graph."""
    return matrix_stack(adjacency(g.n, [g]), matrix)[0]


def m_count(g: Graph, iv: Interval, matrix: str = "Q") -> int:
    """Exact number of eigenvalues of Q(G) (or L(G)) in the interval at order g.n."""
    iv = iv.resolve(g.n)
    (_, lo), (_, hi) = iv.lo, iv.hi
    at_hi = (exact.graph_count_le if iv.hi_closed else exact.graph_count_lt)(g, hi, matrix)
    at_lo = (exact.graph_count_lt if iv.lo_closed else exact.graph_count_le)(g, lo, matrix)
    return at_hi - at_lo


# -- reports -------------------------------------------------------------------


def spectrum_report(g: Graph, matrix: str = "Q", thresholds: Sequence[Fraction | int] = ()) -> dict:
    """JSON-able report: graph6, eigenvalues, and exact counts below thresholds."""
    spec = eigenvalues_sym(q_float(g, matrix))
    counts = {str(Fraction(t)): exact.graph_count_lt(g, Fraction(t), matrix) for t in thresholds}
    return {
        "graph": graph6_encode(g),
        "matrix": matrix,
        "eigenvalues": list(spec.values),
        "exact_counts": counts,
    }
