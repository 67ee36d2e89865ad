"""Signless Laplacian and Laplacian matrices of one graph (q_float through
jacobi.matrix_stack; the exact side builds its integer rows with
exact.graph_shift_rows), interval eigenvalue counting, and the closed-form
spectra that scripts/family_spectra.py prints: K_n minus an edge, and the
diameter-3 split-clique family through its equitable quotient, kept
symbolic where exact.

Interval counts go through the exact congruence counter, never through
floats: the statements under test compare counts at integer or rational
thresholds where eigenvalues can land exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import Sequence

import numpy as np

from . import exact
from .exact import char_poly, poly_eval
from .graph6 import graph6_encode
from .graphs import Graph, GraphError, gndra
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
        (?P<coef>[+-]?\d*(?:/\d+)?)\s*\*?\s*n\s*(?P<rest>[+-]\s*\d+(?:/\d+)?)?
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
    """A rational literal such as "3" or "-7/2". A zero denominator raises
    IntervalError, a usage error, and not ZeroDivisionError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise IntervalError(f"zero denominator in {text!r}") from None


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


# -- closed-form spectra -------------------------------------------------------


@dataclass(frozen=True)
class Rat:
    """Exact rational eigenvalue."""

    value: Fraction
    mult: int

    def to_float(self) -> float:
        return float(self.value)

    def exact_value(self) -> Fraction | None:
        return self.value


@dataclass(frozen=True)
class Surd:
    """(p + sign*sqrt(q)) / r with integer p, q >= 0, r > 0."""

    p: int
    q: int
    sign: int
    r: int
    mult: int

    def to_float(self) -> float:
        return (self.p + self.sign * sqrt(self.q)) / self.r

    def exact_value(self) -> Fraction | None:
        root = isqrt(self.q)
        if root * root == self.q:
            return Fraction(self.p + self.sign * root, self.r)
        return None


@dataclass(frozen=True)
class PolyRoot:
    """Root of a stored exact polynomial, located numerically inside a bracket."""

    coeffs: tuple[Fraction, ...]  # ascending degree
    lo: Fraction
    hi: Fraction
    value: float
    mult: int

    def to_float(self) -> float:
        return self.value

    def exact_value(self) -> Fraction | None:
        return None


Entry = Rat | Surd | PolyRoot


@dataclass(frozen=True)
class ClosedFormSpectrum:
    entries: tuple[Entry, ...]

    @property
    def n(self) -> int:
        return sum(e.mult for e in self.entries)

    def float_values(self) -> list[float]:
        vals: list[float] = []
        for e in self.entries:
            vals.extend([e.to_float()] * e.mult)
        return sorted(vals, reverse=True)

    def rational_multiplicities(self) -> dict[Fraction, int]:
        """Total multiplicity of each exactly-rational eigenvalue."""
        out: dict[Fraction, int] = {}
        for e in self.entries:
            v = e.exact_value()
            if v is not None:
                out[v] = out.get(v, 0) + e.mult
        return out


def kn_minus_e_spectrum(n: int) -> ClosedFormSpectrum:
    """{(3n-6 +- sqrt(n^2+4n-12))/2, (n-2)^[n-2]} for the complete graph minus an edge."""
    if n < 5:
        raise GraphError(f"complete-minus-edge spectrum needs n >= 5, got {n}")
    disc = n * n + 4 * n - 12
    return ClosedFormSpectrum(
        (
            Surd(3 * n - 6, disc, +1, 2, 1),
            Surd(3 * n - 6, disc, -1, 2, 1),
            Rat(Fraction(n - 2), n - 2),
        )
    )


def _bisect_root(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> float:
    """Root of the polynomial in (lo, hi) by exact-sign bisection.

    Requires opposite signs at the bracket ends; an exact zero at a midpoint
    returns immediately.
    """
    flo = poly_eval(coeffs, lo)
    fhi = poly_eval(coeffs, hi)
    if flo == 0:
        return float(lo)
    if fhi == 0:
        return float(hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on bracket ({lo},{hi})")
    for _ in range(80):
        mid = (lo + hi) / 2
        fm = poly_eval(coeffs, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if float(hi) - float(lo) < 1e-14 * (1.0 + abs(float(lo))):
            break
    return float((lo + hi) / 2)


def quotient_char_poly_gn32a(n: int, a: int) -> list[Fraction]:
    """Characteristic polynomial of the equitable quotient of the diameter-3
    split-clique family, exact coefficients ascending."""
    g = gndra(n, 3, 2, a)
    blocks: list[list[int]]
    if a != n - 4 - a:
        nv1 = [1] + list(range(4, 4 + a))
        nv4 = [2] + list(range(4 + a, n))
        blocks = [[0], nv1, nv4, [3]]
    else:
        blocks = [[0, 3], [v for v in range(n) if v not in (0, 3)]]
    part = exact.Partition.of(blocks)
    B = exact.quotient_matrix(g, part)
    return char_poly(B)


def gn32a_partial_spectrum(n: int, a: int) -> ClosedFormSpectrum:
    """Spectrum of the diameter-3 split-clique family: n-3 with multiplicity n-4
    plus the roots of the equitable-quotient characteristic polynomial.

    Unbalanced attachment (a != n-4-a): four quotient roots bracketed by
    [0,a+1], (a+1,n-3), (n-3,n-2), (n-2,2n-2]. Balanced attachment: the
    quotient is 2x2 (surd roots) and n-2 and a are eigenvalues exactly.
    """
    if n < 7:
        raise GraphError(f"split-clique spectrum needs n >= 7, got {n}")
    if not 1 <= a <= n - 5:
        raise GraphError(f"split-clique spectrum requires 1 <= a <= n-5, got a={a}, n={n}")
    # attachment sizes a and n-4-a give isomorphic graphs (mirror the path);
    # brackets are stated for the smaller side
    a = min(a, n - 4 - a)
    entries: list[Entry] = [Rat(Fraction(n - 3), n - 4)]
    coeffs = tuple(quotient_char_poly_gn32a(n, a))
    if a != n - 4 - a:
        brackets = [
            (Fraction(0), Fraction(a + 1)),
            (Fraction(a + 1), Fraction(n - 3)),
            (Fraction(n - 3), Fraction(n - 2)),
            (Fraction(n - 2), Fraction(2 * n - 2)),
        ]
        for lo, hi in brackets:
            entries.append(PolyRoot(coeffs, lo, hi, _bisect_root(coeffs, lo, hi), 1))
    else:
        # h(x) = x^2 - (5a+4)x + (4a+2)(a+1); the two roots are gamma and rho1
        disc = 9 * a * a + 16 * a + 8
        entries.append(Surd(5 * a + 4, disc, +1, 2, 1))
        entries.append(Rat(Fraction(n - 2), 1))
        entries.append(Surd(5 * a + 4, disc, -1, 2, 1))
        entries.append(Rat(Fraction(a), 1))
    return ClosedFormSpectrum(tuple(entries))


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
