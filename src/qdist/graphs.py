"""Simple undirected graphs on vertices 0..n-1, stored as adjacency bitmask rows.

Graphs are immutable values: every editing operation returns a new Graph.
Bitrow storage makes degree queries popcounts and a BFS step one OR of
neighbour rows per frontier vertex; bfs_distances is the one BFS, which
is_connected and verify.is_k_c5 read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph operation or malformed construction parameters."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus one neighbor bitmask per vertex."""

    n: int
    adj: tuple[int, ...]

    # -- queries ------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in _bits(row):
                out.append((u, u + 1 + d))
        return out


# -- constructors and editing ----------------------------------------------


def make_empty(n: int) -> Graph:
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    return Graph(n, (0,) * n)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    g = make_empty(n)
    rows = list(g.adj)
    for u, v in edges:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"vertex out of range: ({u},{v}) with n={n}")
    if u == v:
        raise GraphError(f"self-loop at vertex {u} not allowed")


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    _check_pair(g.n, u, v)
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def k_copies(g: Graph, k: int) -> Graph:
    if k < 1:
        raise GraphError(f"copy count must be >= 1, got {k}")
    out = g
    for _ in range(k - 1):
        out = disjoint_union(out, g)
    return out


# -- degrees, distances ----------------------------------------------------


def degrees(g: Graph) -> list[int]:
    return [row.bit_count() for row in g.adj]


def bfs_distances(g: Graph, src: int) -> list[float]:
    """Distances from src; unreachable vertices get inf."""
    if not (0 <= src < g.n):
        raise GraphError(f"source {src} out of range with n={g.n}")
    dist: list[float] = [inf] * g.n
    dist[src] = 0
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~seen
        d += 1
        for u in _bits(nxt):
            dist[u] = d
        seen |= nxt
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or inf not in bfs_distances(g, 0)


# -- named families ----------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError(f"complete bipartite needs both sides >= 1, got ({a},{b})")
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    rows = [right] * a + [left] * b
    return Graph(a + b, tuple(rows))


def complete_minus_edge(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"complete-minus-edge needs n >= 2, got {n}")
    return remove_edge(complete_graph(n), 0, 1)


def gndt(n: int, d: int, t: int) -> Graph:
    """Path v1..v(d+1) plus a clique on the other n-d-1 vertices, every clique
    vertex joined to the three consecutive path vertices v(t-1), v(t), v(t+1).

    Path vertex v(i) gets label i-1; clique vertices get labels d+1..n-1.
    """
    if not 2 <= d <= n - 2:
        raise GraphError(f"gndt requires 2 <= d <= n-2, got d={d}, n={n}")
    if not 2 <= t <= d:
        raise GraphError(f"gndt requires 2 <= t <= d, got t={t}, d={d}")
    return _path_plus_clique(n, d, clique_joins(n, d, t))


def gndra(n: int, d: int, r: int, a: int) -> Graph:
    """Path plus clique like ``gndt``, with the clique split: a vertices joined
    to v(r-1), v(r), v(r+1) and the remaining n-d-1-a joined to v(r), v(r+1), v(r+2).

    Path vertex v(i) gets label i-1, the a left-attached clique vertices get
    labels d+1..d+a, the rest d+a+1..n-1.
    """
    if not 3 <= d <= n - 2:
        raise GraphError(f"gndra requires 3 <= d <= n-2, got d={d}, n={n}")
    if not 2 <= r <= d - 1:
        raise GraphError(f"gndra requires 2 <= r <= d-1, got r={r}, d={d}")
    if not 1 <= a <= n - d - 2:
        raise GraphError(f"gndra requires 1 <= a <= n-d-2, got a={a}, n={n}, d={d}")
    return _path_plus_clique(n, d, clique_joins(n, d, r, a))


def clique_joins(n: int, d: int, *rest: int) -> tuple[tuple[int, int], ...]:
    """The clique parts of gndra(n, d, r, a) (rest = (r, a)) or gndt(n, d, t)
    (rest = (t,)), in label order, as joins (k, first): k clique vertices,
    each joined to the path labels first, first+1, first+2; quotients reads them as cells."""
    r, a = rest if len(rest) == 2 else (rest[0], n - d - 1)  # gndt: every clique vertex on the left
    return tuple((k, first) for k, first in ((a, r - 2), (n - d - 1 - a, r - 1)) if k)


def _path_plus_clique(n: int, d: int, joins: Sequence[tuple[int, int]]) -> Graph:
    """The path 0-1-...-d plus a clique on d+1..n-1, split by the joins
    (k, first) of clique_joins into consecutive label ranges. Each row gets
    its join as one mask."""
    clique, lo = (1 << n) - (1 << (d + 1)), d + 1
    rows = [(1 << (u - 1) if u else 0) | (1 << (u + 1) if u < d else 0) for u in range(d + 1)]
    for k, first in joins:
        rows += [clique ^ (1 << u) | 0b111 << first for u in range(lo, lo + k)]
        for v in range(first, first + 3):
            rows[v] |= (1 << (lo + k)) - (1 << lo)
        lo += k
    return Graph(n, tuple(rows))


def _complete_bipartite_split(n: int, a: int) -> Graph:
    if not 1 <= a <= n - 1:
        raise GraphError(f"complete_bipartite requires 1 <= a <= n-1, got a={a}, n={n}")
    return complete_bipartite(a, n - a)


# kind -> (builder, the names of its integer parameters in argument order)
FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "complete_bipartite": (_complete_bipartite_split, ("n", "a")),
    "complete_minus_edge": (complete_minus_edge, ("n",)),
    "gndt": (gndt, ("n", "d", "t")),
    "gndra": (gndra, ("n", "d", "r", "a")),
}


def make_family(kind: str, params: dict[str, int]) -> Graph:
    """The member of the named family with exactly these parameters."""
    if kind not in FAMILIES:
        raise GraphError(f"unknown family kind {kind!r}; known kinds: {', '.join(FAMILIES)}")
    build, names = FAMILIES[kind]
    missing = [k for k in names if k not in params]
    if missing:
        raise GraphError(f"{kind} needs parameters {list(names)}, missing {missing}")
    extra = [k for k in params if k not in names]
    if extra:
        raise GraphError(f"{kind} got unexpected parameters {extra}")
    return build(*(params[k] for k in names))
