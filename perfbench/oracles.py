"""Reference computations the benchmark checks qdist against.

Nothing here imports qdist. A graph is given as its order ``n`` and one
neighbour bitmask per vertex (``adj[u]`` has bit ``v`` set iff uv is an
edge), which is also how ``qdist.graphs.Graph`` stores it, so a qdist graph
is passed as ``(g.n, g.adj)``. The routes differ from the program's on
purpose: subset enumeration for the NP-hard invariants, LAPACK ``eigvalsh``
with a stated margin for interval counts, and Sturm sequences of the
integer characteristic polynomial (sympy) where the margin is not met.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

# An eigenvalue within MARGIN of a threshold is not counted from floats.
# eigvalsh on these small 0/1-based matrices errs by about 1e-13.
MARGIN = 1e-6
# Slack for the floating interlacing chains, as the paper's inequalities
# are non-strict.
CHAIN_SLACK = 1e-8


# -- labeled-graph counts ----------------------------------------------------------


def labeled_graphs(n: int) -> int:
    """All labeled graphs on n vertices: 2^C(n,2)."""
    return 2 ** comb(n, 2)


def without_isolated(n: int) -> int:
    """Labeled graphs with no isolated vertex, by inclusion-exclusion."""
    return sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1))


@lru_cache(maxsize=None)
def connected(n: int) -> int:
    """Connected labeled graphs: all graphs minus those whose vertex 1 lies in
    a component of size k < n."""
    if n <= 1:
        return n
    return labeled_graphs(n) - sum(
        comb(n - 1, k - 1) * connected(k) * labeled_graphs(n - k) for k in range(1, n)
    )


def pair_order(n: int) -> list[tuple[int, int]]:
    """Bit k of a labeled-graph mask is the k-th pair in (0,1),(0,2),...,(n-2,n-1)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def adjacency_from_mask(n: int, mask: int) -> list[int]:
    adj = [0] * n
    for k, (u, v) in enumerate(pair_order(n)):
        if mask >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


# -- invariants by plain search -----------------------------------------------------


def _members(s: int) -> list[int]:
    return [v for v in range(s.bit_length()) if s >> v & 1]


def degrees(n: int, adj) -> list[int]:
    return [bin(adj[u]).count("1") for u in range(n)]


def distances_from(n: int, adj, src: int) -> list[int | None]:
    """BFS distances; None for unreachable vertices."""
    dist: list[int | None] = [None] * n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _members(adj[u]):
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(n: int, adj) -> bool:
    return n > 0 and None not in distances_from(n, adj, 0)


def diameter(n: int, adj) -> int | None:
    """Largest BFS distance; None when disconnected."""
    best = 0
    for src in range(n):
        dist = distances_from(n, adj, src)
        if None in dist:
            return None
        best = max(best, max(dist))
    return best


def matching_number(n: int, adj) -> int:
    """Largest matching, by a DP over vertex subsets: the lowest vertex of S
    is either unmatched or matched to a neighbour inside S."""
    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        b = best[rest]
        for w in _members(adj[v] & rest):
            b = max(b, 1 + best[rest & ~(1 << w)])
        best[s] = b
    return best[(1 << n) - 1]


def independence_number(n: int, adj) -> int:
    """Largest vertex subset with no edge inside, over all 2^n subsets."""
    best = 0
    for s in range(1 << n):
        size = bin(s).count("1")
        if size > best and all(not adj[v] & s for v in _members(s)):
            best = size
    return best


def domination_number(n: int, adj) -> int:
    """Smallest vertex subset whose closed neighbourhoods cover V, over all subsets."""
    full = (1 << n) - 1
    best = n
    for s in range(1, 1 << n):
        size = bin(s).count("1")
        if size >= best:
            continue
        cover = s
        for v in _members(s):
            cover |= adj[v]
        if cover == full:
            best = size
    return best


def longest_path(n: int, adj) -> int:
    """Edge count of a longest simple path: reach[s] holds the vertices at
    which some path visiting exactly the set s can end."""
    reach = [0] * (1 << n)
    best = 0
    for v in range(n):
        reach[1 << v] = 1 << v
    for s in range(1, 1 << n):
        ends = reach[s]
        if not ends:
            continue
        best = max(best, bin(s).count("1") - 1)
        for v in _members(ends):
            for w in _members(adj[v] & ~s):
                reach[s | 1 << w] |= 1 << w
    return best


def components(n: int, adj) -> list[int]:
    seen = 0
    comps = []
    for v in range(n):
        if seen >> v & 1:
            continue
        comp = 0
        for w, d in enumerate(distances_from(n, adj, v)):
            if d is not None:
                comp |= 1 << w
        comps.append(comp)
        seen |= comp
    return comps


def every_component_c5(n: int, adj) -> bool:
    """True iff every component is a 5-cycle."""
    if n == 0 or any(d != 2 for d in degrees(n, adj)):
        return False
    return all(bin(c).count("1") == 5 for c in components(n, adj))


def bipartite_components(n: int, adj) -> int:
    """Components that admit a proper 2-colouring; an isolated vertex counts."""
    colour: list[int | None] = [None] * n
    count = 0
    for root in range(n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        stack = [root]
        ok = True
        while stack:
            u = stack.pop()
            for w in _members(adj[u]):
                if colour[w] is None:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    ok = False
        count += ok
    return count


# -- eigenvalue counts ----------------------------------------------------------------


def matrix(n: int, adj, kind: str = "Q") -> np.ndarray:
    """Q = D + A, or L = D - A, as an integer array."""
    sign = 1 if kind == "Q" else -1
    M = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in _members(adj[u]):
            M[u, v] = sign
        M[u, u] = bin(adj[u]).count("1")
    return M


def float_counts(values: np.ndarray, t: float) -> tuple[int, int] | None:
    """(below t, at most t) from eigenvalues, or None if one lies within MARGIN of t."""
    if np.any(np.abs(values - t) <= MARGIN):
        return None
    below = int(np.sum(values < t))
    return below, below


def sturm_counts(M: np.ndarray, t: int) -> tuple[int, int]:
    """Exact (below t, at most t) for an integer symmetric matrix: square-free
    factors of the characteristic polynomial, real roots counted by Sturm
    sequences, each weighted by its multiplicity."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Matrix(M.tolist()).charpoly(x)
    _, factors = poly.sqf_list()
    lower = -1 - 2 * int(np.abs(M).sum())  # below every eigenvalue (Gershgorin)
    at_most = 0
    at = 0
    for f, mult in factors:
        at_most += mult * f.count_roots(lower, t)
        if f.eval(t) == 0:
            at += mult
    return at_most - at, at_most


class Counter:
    """Interval counts of one graph's Q (or L) spectrum: from eigvalsh where
    every eigenvalue clears the threshold by MARGIN, else by Sturm sequences."""

    def __init__(self, n: int, adj, kind: str = "Q"):
        self.M = matrix(n, adj, kind)
        self.values = np.linalg.eigvalsh(self.M.astype(float)) if n else np.zeros(0)

    def counts(self, t: int) -> tuple[int, int]:
        got = float_counts(self.values, t)
        if got is None:
            got = sturm_counts(self.M, t)
        return got

    def lt(self, t: int) -> int:
        return self.counts(t)[0]

    def le(self, t: int) -> int:
        return self.counts(t)[1]


def q_spectrum(n: int, adj) -> np.ndarray:
    """Eigenvalues of Q in nonincreasing order."""
    if n == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(matrix(n, adj).astype(float))[::-1]


def delete_edge(adj, u: int, v: int) -> list[int]:
    out = list(adj)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return out


def delete_vertex(n: int, adj, v: int) -> list[int]:
    keep = [u for u in range(n) if u != v]
    pos = {u: i for i, u in enumerate(keep)}
    return [sum(1 << pos[w] for w in _members(adj[u]) if w != v) for u in keep]


# -- family members, built from their definitions ----------------------------------


def path_plus_clique(n: int, d: int, attach: list[list[int]]) -> list[int]:
    """Path v1..v(d+1) on labels 0..d, a clique on labels d+1..n-1, and clique
    vertex d+1+i joined to the path vertices v(j) for j in attach[i] (1-based)."""
    adj = [0] * n

    def join(u: int, v: int) -> None:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for i in range(d):
        join(i, i + 1)
    clique = list(range(d + 1, n))
    for i, u in enumerate(clique):
        for w in clique[i + 1 :]:
            join(u, w)
        for j in attach[i]:
            join(u, j - 1)
    return adj


def gndt(n: int, d: int, t: int) -> list[int]:
    """Every clique vertex joined to v(t-1), v(t), v(t+1)."""
    return path_plus_clique(n, d, [[t - 1, t, t + 1]] * (n - d - 1))


def gndra(n: int, d: int, r: int, a: int) -> list[int]:
    """a clique vertices joined to v(r-1), v(r), v(r+1); the rest to v(r), v(r+1), v(r+2)."""
    return path_plus_clique(n, d, [[r - 1, r, r + 1]] * a + [[r, r + 1, r + 2]] * (n - d - 1 - a))


def cycle(n: int) -> list[int]:
    return [(1 << ((u - 1) % n)) | (1 << ((u + 1) % n)) for u in range(n)]


# -- family parameter ranges, as the paper states them ------------------------------


def family_instances(theorem_id: str, n: int) -> int:
    """Parameter tuples of one order that a family statement covers."""
    r = range(n + 1)
    if theorem_id == "cycle-matching":
        return int(n >= 3)
    if theorem_id == "family-counts":
        three = sum(1 for d in r for t in r if 2 <= t <= d <= n - 3)
        four = sum(
            1 for d in r for t in r for a in r if 2 <= t <= d - 1 <= n - 4 and 1 <= a <= n - d - 2
        )
        return three + four
    if theorem_id == "family-gndra-q5":  # d = n-3, a = 1
        return sum(1 for t in r if n >= 6 and 2 <= t <= n - 4)
    if theorem_id == "diameter-3-equality":  # gndt(n,3,2) and gndra(n,3,2,a)
        return 0 if n < 7 else 1 + sum(1 for a in r if 1 <= a <= n - 5)
    if theorem_id == "gndt-laplacian-count":
        return sum(1 for d in r for t in r if 2 <= d <= n - 5 and 3 <= t <= d - 1)
    raise KeyError(theorem_id)
