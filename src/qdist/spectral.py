"""Signless Laplacian and Laplacian matrices (rational ones from
exact.graph_shift_rows, float64 stacks from graph_stack), interval
eigenvalue counting, and closed-form spectra for the special families,
kept symbolic where exact.

Interval counts go through the exact congruence counter, never through
floats: the statements under test compare counts at integer or rational
thresholds where eigenvalues can land exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import cos, isqrt, pi, sqrt
from typing import Sequence

import numpy as np

from . import exact
from .exact import RationalMatrix, char_poly, poly_eval
from .graph6 import graph6_encode
from .graphs import Graph, GraphError, gndra
from .jacobi import eigenvalues_sym


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


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> Interval:
    return Interval(Fraction(lo), Fraction(hi), lo_closed, hi_closed)


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


def signless_laplacian(g: Graph) -> RationalMatrix:
    """Q(G): degree diagonal plus adjacency."""
    return RationalMatrix(exact.graph_shift_rows(g, "Q"))


def laplacian(g: Graph) -> RationalMatrix:
    """L(G): degree diagonal minus adjacency; row sums are zero."""
    return RationalMatrix(exact.graph_shift_rows(g, "L"))


def graph_stack(n: int, graphs: Sequence[Graph], matrix: str = "Q") -> np.ndarray:
    """Q(G) = D + A (or L(G) = D - A) of graphs of order n, as one
    (len(graphs), n, n) float64 stack: the bits of each adjacency row are
    the row of A, and the degrees go on the diagonal. Every float Q(G) and
    L(G) comes from here."""
    if matrix not in ("Q", "L"):
        raise ValueError(f"matrix must be 'Q' or 'L', got {matrix!r}")
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, width)
    A = np.unpackbits(bits, axis=2, count=n, bitorder="little")
    M = A.astype(np.float64) if matrix == "Q" else 0.0 - A  # 0.0 - 0 is +0.0, as in the integer rows
    idx = np.arange(n)
    M[:, idx, idx] = A.sum(axis=2)
    return M


def q_float(g: Graph) -> np.ndarray:
    """Q(G) as a float64 array: graph_stack of the one graph."""
    return graph_stack(g.n, [g])[0]


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
class Cosine:
    """2 + 2*cos(2*pi*j/n), the cycle eigenvalue form."""

    n: int
    j: int
    mult: int

    def to_float(self) -> float:
        return 2.0 + 2.0 * cos(2.0 * pi * self.j / self.n)

    def exact_value(self) -> Fraction | None:
        # cos(2pi j/n) is rational only when it is 0, +-1/2 or +-1 (Niven)
        frac = Fraction(self.j, self.n) % 1
        if frac > Fraction(1, 2):
            frac = 1 - frac
        return {
            Fraction(0): Fraction(4),
            Fraction(1, 6): Fraction(3),
            Fraction(1, 4): Fraction(2),
            Fraction(1, 3): Fraction(1),
            Fraction(1, 2): Fraction(0),
        }.get(frac)


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


Entry = Rat | Surd | Cosine | PolyRoot


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


def cycle_spectrum(n: int) -> ClosedFormSpectrum:
    """Cycle eigenvalues 2 + 2cos(2pi*j/n), j = 0..n-1, grouped by conjugate pairs."""
    if n < 3:
        raise GraphError(f"cycle spectrum needs n >= 3, got {n}")
    entries: list[Entry] = [Cosine(n, 0, 1)]
    for j in range(1, n // 2 + 1):
        if 2 * j == n:
            entries.append(Cosine(n, j, 1))
        else:
            entries.append(Cosine(n, j, 2))
    return ClosedFormSpectrum(tuple(entries))


def complete_spectrum(n: int) -> ClosedFormSpectrum:
    """{2n-2, (n-2)^[n-1]} for the complete graph (single vertex: {0})."""
    if n < 1:
        raise GraphError(f"complete spectrum needs n >= 1, got {n}")
    if n == 1:
        return ClosedFormSpectrum((Rat(Fraction(0), 1),))
    return ClosedFormSpectrum((Rat(Fraction(2 * n - 2), 1), Rat(Fraction(n - 2), n - 1)))


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


def k2_bipartite_spectrum(n: int) -> ClosedFormSpectrum:
    """{n, n-2, 2^[n-3], 0} for the complete bipartite graph with a side of two."""
    if n < 4:
        raise GraphError(f"two-sided bipartite spectrum needs n >= 4, got {n}")
    entries: list[Entry] = [Rat(Fraction(n), 1), Rat(Fraction(n - 2), 1)]
    if n > 3:
        entries.append(Rat(Fraction(2), n - 3))
    entries.append(Rat(Fraction(0), 1))
    return ClosedFormSpectrum(tuple(e for e in entries if e.mult > 0))


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


def path_q1_below_four(n: int) -> bool:
    """Exact check that every Q(P_n) eigenvalue is strictly below 4.

    Kept for the fact it states: the eigenvalues of Q(P_n) are
    2 + 2cos(pi j/n), j = 1..n, all in [0, 4), the bound below which the
    q_5 < 4 statements of the path-plus-clique families count."""
    from .graphs import path_graph

    return exact.graph_count_lt(path_graph(n), 4) == n


# -- reports -------------------------------------------------------------------


def spectrum_report(g: Graph, matrix: str = "Q", thresholds: Sequence[Fraction | int] = ()) -> dict:
    """JSON-able report: graph6, eigenvalues, and exact counts below thresholds."""
    spec = eigenvalues_sym(graph_stack(g.n, [g], matrix)[0])
    counts = {str(Fraction(t)): exact.graph_count_lt(g, Fraction(t), matrix) for t in thresholds}
    return {
        "graph": graph6_encode(g),
        "matrix": matrix,
        "eigenvalues": list(spec.values),
        "exact_counts": counts,
    }
