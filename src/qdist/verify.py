"""The theorem catalog: one checker per statement under test, exhaustive
small-graph enumeration, seeded sampling, and counterexample search.

Every checker is exact where it counts: interval counts come from integer
congruence inertia, never from rounded floats. Floating spectra appear only
in the interlacing-chain checks (with a fixed 1e-8 slack) and as screening
inside the mass sweeps. Hypothesis failures report "not applicable" rather
than "pass" so pass counts measure real coverage.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Iterator, Sequence

from . import exact
from .graph6 import graph6_encode
from .graphs import (
    Graph,
    GraphError,
    _bits,
    cycle_graph,
    degrees,
    delete_vertex,
    gndra,
    gndt,
    is_connected,
    remove_edge,
)
from .invariants import (
    diameter,
    domination_number,
    independence_number,
    longest_path_length,
    matching_number,
)
from .jacobi import INEQ_SLACK, eigenvalues_sym
from .spectral import q_float


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one checker on one instance.

    A failed report carries a witness complete enough to recheck by hand.
    ``elapsed`` is excluded from the canonical serialization so that sweep
    outputs are byte-identical across runs.
    """

    theorem_id: str
    instance: str
    passed: bool
    applicable: bool = True
    witness: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json_line(self, include_elapsed: bool = False) -> str:
        obj = {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "passed": self.passed,
            "applicable": self.applicable,
            "witness": self.witness,
        }
        if include_elapsed:
            obj["elapsed"] = self.elapsed
        return json.dumps(obj, sort_keys=True)


def _report(theorem_id: str, instance: str, passed: bool, witness: dict, t0: float, applicable: bool = True) -> TheoremReport:
    return TheoremReport(theorem_id, instance, passed, applicable, witness, time.perf_counter() - t0)


# -- enumeration and sampling ---------------------------------------------------


EXHAUSTIVE_LIMIT = 7
SAMPLE_LIMIT = 16


def mask_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in the fixed enumeration order: (0,1),(0,2),...,(n-2,n-1)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int, pairs: Sequence[tuple[int, int]] | None = None) -> Graph:
    pairs = pairs if pairs is not None else mask_pairs(n)
    rows = [0] * n
    for k, (u, v) in enumerate(pairs):
        if mask >> k & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for k, (u, v) in enumerate(mask_pairs(g.n)):
        if g.has_edge(u, v):
            mask |= 1 << k
    return mask


@dataclass(frozen=True)
class EnumerationFilter:
    """Which graphs an exhaustive or sampled stream should yield."""

    n: int
    connected_only: bool = False
    min_degree_at_least: int | None = None
    diameter_equals: int | None = None
    exclude: Callable[[Graph], bool] | None = None

    def admits(self, g: Graph) -> bool:
        if self.min_degree_at_least is not None:
            if g.n == 0 or min(degrees(g)) < self.min_degree_at_least:
                return False
        if self.connected_only and not is_connected(g):
            return False
        if self.diameter_equals is not None:
            if not is_connected(g) or diameter(g) != self.diameter_equals:
                return False
        if self.exclude is not None and self.exclude(g):
            return False
        return True


def enumerate_graphs(filt: EnumerationFilter) -> Iterator[Graph]:
    """All labeled graphs on filt.n vertices, in ascending bitmask order."""
    if filt.n > EXHAUSTIVE_LIMIT:
        raise GraphError(
            f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}, got {filt.n}; use sample_graphs"
        )
    pairs = mask_pairs(filt.n)
    for mask in range(1 << len(pairs)):
        g = graph_from_mask(filt.n, mask, pairs)
        if filt.admits(g):
            yield g


def sample_graphs(n: int, count: int, seed: int, filt: EnumerationFilter | None = None) -> Iterator[Graph]:
    """Uniform edge-probability 1/2 samples, deterministic under the seed."""
    if not EXHAUSTIVE_LIMIT < n <= SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n}")
    rng = random.Random(seed)
    pairs = mask_pairs(n)
    nbits = len(pairs)
    for _ in range(count):
        g = graph_from_mask(n, rng.getrandbits(nbits), pairs)
        if filt is None or filt.admits(g):
            yield g


def is_k_c5(g: Graph) -> bool:
    """True iff every component is a 5-cycle (all degrees 2, components of size 5)."""
    if g.n == 0 or g.n % 5:
        return False
    if any(row.bit_count() != 2 for row in g.adj):
        return False
    seen = 0
    full = (1 << g.n) - 1
    while seen != full:
        start = (full ^ seen) & -(full ^ seen)
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= nxt
        if comp.bit_count() != 5:
            return False
        seen |= comp
    return True


# -- per-graph checkers -----------------------------------------------------------


def check_edge_interlacing(g: Graph, e: tuple[int, int] | None = None) -> TheoremReport:
    """Eigenvalues of G and G-e interlace: q_i(G) >= q_i(G-e) >= q_{i+1}(G).

    Checks the floating chain with 1e-8 slack and, exactly, that the count
    below every integer threshold moves by at most one when the edge goes.
    """
    t0 = time.perf_counter()
    edges = [e] if e is not None else g.edges()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise GraphError(f"edge ({u},{v}) not present")
    n = g.n
    instance = graph6_encode(g)
    if not edges:
        return _report("edge-interlacing", instance, True, {"note": "no edges"}, t0, applicable=False)
    spec_g = eigenvalues_sym(q_float(g)).values
    counts_g = [exact.graph_count_lt(g, t) for t in range(0, 2 * n - 1)]
    for u, v in edges:
        h = remove_edge(g, u, v)
        spec_h = eigenvalues_sym(q_float(h)).values
        for i in range(n):
            if not spec_g[i] >= spec_h[i] - INEQ_SLACK:
                return _report(
                    "edge-interlacing",
                    instance,
                    False,
                    {"edge": [u, v], "i": i + 1, "qi_G": spec_g[i], "qi_Ge": spec_h[i]},
                    t0,
                )
            if i + 1 < n and not spec_h[i] >= spec_g[i + 1] - INEQ_SLACK:
                return _report(
                    "edge-interlacing",
                    instance,
                    False,
                    {"edge": [u, v], "i": i + 1, "qi_Ge": spec_h[i], "qnext_G": spec_g[i + 1]},
                    t0,
                )
        for t in range(0, 2 * n - 1):
            lt_h = exact.graph_count_lt(h, t)
            if not counts_g[t] - 1 <= lt_h <= counts_g[t] + 1:
                return _report(
                    "edge-interlacing",
                    instance,
                    False,
                    {"edge": [u, v], "threshold": t, "count_G": counts_g[t], "count_Ge": lt_h},
                    t0,
                )
    return _report("edge-interlacing", instance, True, {"edges_checked": len(edges)}, t0)


def check_vertex_deletion(g: Graph, v: int | None = None) -> TheoremReport:
    """q_{i+1}(G) <= q_i(G-v) + 1 for i = 1..n-1, floating with 1e-8 slack."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n < 2:
        return _report("vertex-deletion", instance, True, {"note": "n < 2"}, t0, applicable=False)
    spec_g = eigenvalues_sym(q_float(g)).values
    for w in [v] if v is not None else range(g.n):
        spec_h = eigenvalues_sym(q_float(delete_vertex(g, w))).values
        for i in range(1, g.n):
            if not spec_g[i] <= spec_h[i - 1] + 1 + INEQ_SLACK:
                return _report(
                    "vertex-deletion",
                    instance,
                    False,
                    {"vertex": w, "i": i, "q_next_G": spec_g[i], "q_i_Gv": spec_h[i - 1]},
                    t0,
                )
    return _report("vertex-deletion", instance, True, {}, t0)


def check_matching_upper(g: Graph) -> TheoremReport:
    """Count below 1 is at most the matching number; with minimum degree two
    and no component a 5-cycle, at most the matching number minus one."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0 or min(degrees(g)) < 1:
        return _report("matching-upper", instance, True, {"note": "isolated vertex"}, t0, applicable=False)
    m01 = exact.graph_count_lt(g, 1)
    nu = matching_number(g)
    strengthened = min(degrees(g)) >= 2 and not is_k_c5(g)
    bound = nu - 1 if strengthened else nu
    witness = {"m01": m01, "nu": nu, "strengthened": strengthened}
    return _report("matching-upper", instance, m01 <= bound, witness, t0)


def check_delta2(g: Graph) -> TheoremReport:
    """The strengthened bound alone: delta >= 2 and not kC5 imply count below 1 <= nu - 1."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0 or min(degrees(g)) < 2 or is_k_c5(g):
        return _report("delta2", instance, True, {"note": "hypothesis fails"}, t0, applicable=False)
    m01 = exact.graph_count_lt(g, 1)
    nu = matching_number(g)
    return _report("delta2", instance, m01 <= nu - 1, {"m01": m01, "nu": nu}, t0)


def check_cycle_matching(n: int) -> TheoremReport:
    """Cycle count below 1 matches the ceil(n/3) residue formula and, off the
    5-cycle, stays at most the matching number minus one."""
    t0 = time.perf_counter()
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    m = exact.graph_count_lt(cycle_graph(n), 1)
    expected = ceil(n / 3) if n % 3 == 2 else ceil(n / 3) - 1
    nu = n // 2
    ok = m == expected and (n == 5 or m <= nu - 1)
    return _report("cycle-matching", f"cycle(n={n})", ok, {"m01": m, "formula": expected, "nu": nu}, t0)


def check_domination_bound(g: Graph) -> TheoremReport:
    """Count below 1 is at most the domination number (no isolated vertices)."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0 or min(degrees(g)) < 1:
        return _report("domination-bound", instance, True, {"note": "isolated vertex"}, t0, applicable=False)
    m01 = exact.graph_count_lt(g, 1)
    gamma = domination_number(g)
    return _report("domination-bound", instance, m01 <= gamma, {"m01": m01, "gamma": gamma}, t0)


def check_m02_bound(g: Graph) -> TheoremReport:
    """Count below 2 is at most n minus the matching number (no isolated vertices)."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0 or min(degrees(g)) < 1:
        return _report("m02-bound", instance, True, {"note": "isolated vertex"}, t0, applicable=False)
    m02 = exact.graph_count_lt(g, 2)
    nu = matching_number(g)
    return _report("m02-bound", instance, m02 <= g.n - nu, {"m02": m02, "nu": nu, "n": g.n}, t0)


def check_alpha_sandwich(g: Graph) -> TheoremReport:
    """Independence number at most both closed-interval counts
    [delta, 2n-2] and [0, Delta]."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0:
        return _report("alpha-sandwich", instance, True, {"note": "empty"}, t0, applicable=False)
    degs = degrees(g)
    alpha = independence_number(g)
    n = g.n
    high = n - exact.graph_count_lt(g, min(degs))  # eigenvalues >= delta
    low = exact.graph_count_le(g, max(degs))  # eigenvalues <= Delta
    ok = alpha <= high and alpha <= low
    return _report(
        "alpha-sandwich", instance, ok, {"alpha": alpha, "m_delta_up": high, "m_0_Delta": low}, t0
    )


def check_longest_path(g: Graph) -> TheoremReport:
    """Count above 2 is at least floor(longest path length / 2) for connected graphs."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if not is_connected(g) or g.n == 0:
        return _report("longest-path", instance, True, {"note": "disconnected"}, t0, applicable=False)
    ell = longest_path_length(g)
    above2 = g.n - exact.graph_count_le(g, 2)
    return _report("longest-path", instance, above2 >= ell // 2, {"ell": ell, "m_2_up": above2}, t0)


def check_diameter_main(g: Graph) -> TheoremReport:
    """Diameter forces counts: below n-2 at least d-1; for 3 <= d <= n-3,
    below n-d+1 at least d (d <= n-5) or d-1 (d in {n-4, n-3})."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n == 0 or not is_connected(g):
        return _report("diameter-main", instance, True, {"note": "disconnected"}, t0, applicable=False)
    n = g.n
    d = diameter(g)
    below_nm2 = exact.graph_count_lt(g, n - 2)
    witness: dict = {"d": d, "m_below_n-2": below_nm2}
    ok = below_nm2 >= d - 1
    if ok and 3 <= d <= n - 3:
        required = d if d <= n - 5 else d - 1
        below = exact.graph_count_lt(g, n - d + 1)
        witness.update({"m_below_n-d+1": below, "required": required})
        ok = below >= required
    return _report("diameter-main", instance, ok, witness, t0)


def check_diameter3(g: Graph) -> TheoremReport:
    """Connected diameter-3 graphs on n >= 7 vertices have at least two
    eigenvalues below n-3."""
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    if g.n < 7 or not is_connected(g) or diameter(g) != 3:
        return _report("diameter-3", instance, True, {"note": "hypothesis fails"}, t0, applicable=False)
    below = exact.graph_count_lt(g, g.n - 3)
    return _report("diameter-3", instance, below >= 2, {"m_below_n-3": below, "equality": below == 2}, t0)


def check_tail_eigenvalue_bound(g: Graph) -> TheoremReport:
    """q_i <= n-3 for all delta+2 <= i <= n-1 on connected graphs.

    The q_i are nonincreasing, so this says exactly that at most delta+1
    eigenvalues exceed n-3, which the exact count at n-3 decides.
    """
    t0 = time.perf_counter()
    instance = graph6_encode(g)
    n = g.n
    if n == 0 or not is_connected(g):
        return _report("tail-eigenvalue-bound", instance, True, {"note": "disconnected"}, t0, applicable=False)
    delta = min(degrees(g))
    if delta + 2 > n - 1:
        return _report("tail-eigenvalue-bound", instance, True, {"note": "index range empty"}, t0, applicable=False)
    above = n - exact.graph_count_le(g, n - 3)
    ok = above <= delta + 1
    return _report("tail-eigenvalue-bound", instance, ok, {"delta": delta, "count_above_n-3": above}, t0)


# -- family checkers ---------------------------------------------------------------


def check_family_counts(n: int, d: int, t: int, a: int | None = None) -> TheoremReport:
    """Interval-count bounds for the path-plus-clique families.

    Three-parameter family (a is None, 2 <= t <= d <= n-3): at least d
    eigenvalues below n-d+1. Four-parameter family (2 <= t <= d-1 <= n-4,
    1 <= a <= n-d-2): the same bound; when d = n-3 additionally q_5 < 4.
    """
    t0 = time.perf_counter()
    if a is None:
        if not 2 <= t <= d <= n - 3:
            raise GraphError(f"family count bound needs 2 <= t <= d <= n-3, got n={n}, d={d}, t={t}")
        g = gndt(n, d, t)
        instance = f"gndt(n={n},d={d},t={t})"
    else:
        if not (2 <= t <= d - 1 <= n - 4 and 1 <= a <= n - d - 2):
            raise GraphError(
                f"family count bound needs 2 <= t <= d-1 <= n-4 and 1 <= a <= n-d-2, "
                f"got n={n}, d={d}, t={t}, a={a}"
            )
        g = gndra(n, d, t, a)
        instance = f"gndra(n={n},d={d},r={t},a={a})"
    below = exact.graph_count_lt(g, n - d + 1)
    witness: dict = {"m_below_n-d+1": below, "required": d}
    ok = below >= d
    if a is not None and d == n - 3:
        below4 = exact.graph_count_lt(g, 4)
        witness["count_below_4"] = below4
        witness["q5_below_4"] = below4 >= n - 4
        ok = ok and below4 >= n - 4
    return _report("family-counts", instance, ok, witness, t0)


def check_gndra_q5(n: int, t: int) -> TheoremReport:
    """q_5 < 4 for the four-parameter family at d = n-3, a = 1."""
    t0 = time.perf_counter()
    d = n - 3
    if n < 6 or not 2 <= t <= d - 1:
        raise GraphError(f"q5 bound needs n >= 6 and 2 <= t <= n-4, got n={n}, t={t}")
    g = gndra(n, d, t, 1)
    below4 = exact.graph_count_lt(g, 4)
    return _report(
        "family-gndra-q5",
        f"gndra(n={n},d={d},r={t},a=1)",
        below4 >= n - 4,
        {"count_below_4": below4, "required": n - 4},
        t0,
    )


def check_diameter3_equality(n: int, a: int | None = None) -> TheoremReport:
    """Equality witnesses for the diameter-3 bound: the path-plus-clique
    families have exactly two eigenvalues below n-3, exactly n-4 equal to
    n-3, and the rest above."""
    t0 = time.perf_counter()
    if n < 7:
        raise GraphError(f"diameter-3 equality needs n >= 7, got {n}")
    if a is None:
        g = gndt(n, 3, 2)
        instance = f"gndt(n={n},d=3,t=2)"
    else:
        if not 1 <= a <= n - 5:
            raise GraphError(f"diameter-3 equality needs 1 <= a <= n-5, got a={a}, n={n}")
        g = gndra(n, 3, 2, a)
        instance = f"gndra(n={n},d=3,r=2,a={a})"
    lt = exact.graph_count_lt(g, n - 3)
    le = exact.graph_count_le(g, n - 3)
    witness = {"m_below_n-3": lt, "mult_at_n-3": le - lt}
    ok = lt == 2 and le - lt == n - 4 and diameter(g) == 3
    return _report("diameter-3-equality", instance, ok, witness, t0)


def check_gndt_laplacian_count(n: int, d: int, t: int) -> TheoremReport:
    """The three-parameter family has exactly d-1 Laplacian eigenvalues in
    [0, n-d+1) when d <= n-5 and 3 <= t <= d-1, against at least d signless ones."""
    t0 = time.perf_counter()
    if not (d <= n - 5 and 3 <= t <= d - 1):
        raise GraphError(f"laplacian family count needs d <= n-5 and 3 <= t <= d-1, got n={n}, d={d}, t={t}")
    g = gndt(n, d, t)
    lap = exact.graph_count_lt(g, n - d + 1, matrix="L")
    signless = exact.graph_count_lt(g, n - d + 1, matrix="Q")
    ok = lap == d - 1 and signless >= d
    return _report(
        "gndt-laplacian-count",
        f"gndt(n={n},d={d},t={t})",
        ok,
        {"laplacian_below": lap, "signless_below": signless, "d": d},
        t0,
    )


# -- catalog and search -------------------------------------------------------------


@dataclass(frozen=True)
class GraphTheorem:
    """A per-graph statement: hypothesis filter plus checker."""

    theorem_id: str
    check: Callable[[Graph], TheoremReport]
    description: str


GRAPH_THEOREMS: dict[str, GraphTheorem] = {
    t.theorem_id: t
    for t in [
        GraphTheorem("edge-interlacing", check_edge_interlacing, "edge deletion interlaces eigenvalues"),
        GraphTheorem("vertex-deletion", check_vertex_deletion, "vertex deletion shifts eigenvalues by at most 1"),
        GraphTheorem("matching-upper", check_matching_upper, "count below 1 bounded by matching number"),
        GraphTheorem("delta2", check_delta2, "min degree 2, no 5-cycle components: count below 1 <= nu-1"),
        GraphTheorem("domination-bound", check_domination_bound, "count below 1 bounded by domination number"),
        GraphTheorem("m02-bound", check_m02_bound, "count below 2 bounded by n - nu"),
        GraphTheorem("alpha-sandwich", check_alpha_sandwich, "independence number under both interval counts"),
        GraphTheorem("longest-path", check_longest_path, "count above 2 at least half the longest path"),
        GraphTheorem("diameter-main", check_diameter_main, "diameter lower-bounds interval counts"),
        GraphTheorem("diameter-3", check_diameter3, "diameter 3: at least 2 eigenvalues below n-3"),
        GraphTheorem("tail-eigenvalue-bound", check_tail_eigenvalue_bound, "q_i <= n-3 for i >= delta+2"),
    ]
}

FAMILY_THEOREM_IDS = (
    "cycle-matching",
    "family-counts",
    "family-gndra-q5",
    "diameter-3-equality",
    "gndt-laplacian-count",
)

ALL_THEOREM_IDS = tuple(GRAPH_THEOREMS) + FAMILY_THEOREM_IDS


def canonical_theorem_id(theorem_id: str) -> str:
    tid = theorem_id.strip().lower().replace("_", "-")
    if tid not in ALL_THEOREM_IDS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {', '.join(ALL_THEOREM_IDS)}")
    return tid


def family_grid_reports(theorem_id: str, n_lo: int, n_hi: int) -> list[TheoremReport]:
    """Run a family checker over every legal parameter combination in the range."""
    tid = canonical_theorem_id(theorem_id)
    out: list[TheoremReport] = []
    for n in range(n_lo, n_hi + 1):
        if tid == "cycle-matching":
            if n >= 3:
                out.append(check_cycle_matching(n))
        elif tid == "family-counts":
            for d in range(2, n - 2):
                for t in range(2, d + 1):
                    out.append(check_family_counts(n, d, t))
            for d in range(3, n - 2):
                for t in range(2, d):
                    for a in range(1, n - d - 1):
                        out.append(check_family_counts(n, d, t, a))
        elif tid == "family-gndra-q5":
            for t in range(2, n - 3):
                out.append(check_gndra_q5(n, t))
        elif tid == "diameter-3-equality":
            if n >= 7:
                out.append(check_diameter3_equality(n))
                for a in range(1, n - 4):
                    out.append(check_diameter3_equality(n, a))
        elif tid == "gndt-laplacian-count":
            for d in range(4, n - 4):
                for t in range(3, d):
                    out.append(check_gndt_laplacian_count(n, d, t))
        else:
            raise KeyError(f"{theorem_id!r} is not a family theorem")
    return out


def search_counterexamples(
    theorem_id: str,
    n_range: tuple[int, int],
    budget: int = 2000,
    seed: int = 0,
    jobs: int | None = None,
) -> list[TheoremReport]:
    """Run the named checker exhaustively (n <= 7) and on seeded samples
    (n >= 8); return only genuine failures, deterministically."""
    tid = canonical_theorem_id(theorem_id)
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise GraphError(f"empty vertex range {n_range}")
    if tid in FAMILY_THEOREM_IDS:
        return [r for r in family_grid_reports(tid, n_lo, n_hi) if r.applicable and not r.passed]
    if n_hi > SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n_hi}")

    from . import sweeps

    failures: list[TheoremReport] = []
    for n in range(n_lo, n_hi + 1):
        if n <= EXHAUSTIVE_LIMIT:
            failures.extend(sweeps.exhaustive_failures(tid, n, jobs=jobs).failures)
        else:
            checker = GRAPH_THEOREMS[tid].check
            for g in sample_graphs(n, budget, seed + n):
                rep = checker(g)
                if rep.applicable and not rep.passed:
                    failures.append(rep)
    return failures
