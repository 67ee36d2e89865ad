"""Simple undirected graphs on vertices 0..n-1, stored as adjacency bitmask rows.

Graphs are immutable values: every editing operation returns a new Graph.
Bitrow storage makes degree queries popcounts and induced subgraphs cheap,
which is what the exhaustive enumeration workloads spend their time on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Iterable, Iterator, Sequence


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

    def validate(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        for u, row in enumerate(self.adj):
            if row >> self.n:
                raise GraphError(f"row {u} mentions vertices >= n")
            if row & (1 << u):
                raise GraphError(f"self-loop at vertex {u}")
            for v in _bits(row):
                if not self.adj[v] & (1 << u):
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    # -- queries ------------------------------------------------------------

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in _bits(row):
                out.append((u, u + 1 + d))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def to_json(self) -> str:
        """Adjacency-list JSON export: {"n": ..., "edges": [[u, v], ...]}."""
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]})



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


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph on the given vertex set, relabeled 0..|S|-1 preserving order."""
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("induced subgraph needs a nonempty vertex set")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise GraphError(f"vertex out of range in {vs} with n={g.n}")
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for v in vs:
        for w in _bits(g.adj[v]):
            if w in pos:
                rows[pos[v]] |= 1 << pos[w]
    return Graph(len(vs), tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range with n={g.n}")
    if g.n == 1:
        return make_empty(0)
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


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
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen == (1 << g.n) - 1


# -- named families ----------------------------------------------------------


class FamilyKind(str, Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    COMPLETE_BIPARTITE = "complete_bipartite"
    COMPLETE_MINUS_EDGE = "complete_minus_edge"
    GNDT = "gndt"
    GNDRA = "gndra"
    K_COPIES = "kcopies"


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters.

    ``kcopies`` nests another spec: k disjoint copies of ``inner``.
    """

    kind: FamilyKind
    params: dict[str, int] = field(default_factory=dict)
    inner: FamilySpec | None = None

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        if self.inner is not None:
            return f"{self.kind.value}({ps};of={self.inner.describe()})"
        return f"{self.kind.value}({ps})"


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
    clique = (1 << n) - (1 << (d + 1))
    return _path_plus_clique(n, d, [(clique, 0b111 << (t - 2))])


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
    left = ((1 << a) - 1) << (d + 1)
    right = (1 << n) - (1 << (d + 1 + a))
    return _path_plus_clique(n, d, [(left, 0b111 << (r - 2)), (right, 0b111 << (r - 1))])


def _path_plus_clique(n: int, d: int, joins: Sequence[tuple[int, int]]) -> Graph:
    """The path 0-1-...-d plus a clique on d+1..n-1, with every vertex of the
    bitmask c joined to every vertex of the bitmask p for each (c, p) in joins."""
    clique = (1 << n) - (1 << (d + 1))
    rows = [(1 << (u - 1) if u else 0) | (1 << (u + 1) if u < d else 0) for u in range(d + 1)]
    rows += [clique ^ (1 << u) for u in range(d + 1, n)]
    for c, p in joins:
        for u in _bits(c):
            rows[u] |= p
        for v in _bits(p):
            rows[v] |= c
    return Graph(n, tuple(rows))


def _require(params: dict[str, int], names: Sequence[str], kind: FamilyKind) -> list[int]:
    missing = [k for k in names if k not in params]
    if missing:
        raise GraphError(f"{kind.value} needs parameters {list(names)}, missing {missing}")
    extra = [k for k in params if k not in names]
    if extra:
        raise GraphError(f"{kind.value} got unexpected parameters {extra}")
    return [params[k] for k in names]


def make_family(spec: FamilySpec) -> Graph:
    kind, params = spec.kind, spec.params
    if kind is FamilyKind.PATH:
        (n,) = _require(params, ["n"], kind)
        return path_graph(n)
    if kind is FamilyKind.CYCLE:
        (n,) = _require(params, ["n"], kind)
        return cycle_graph(n)
    if kind is FamilyKind.COMPLETE:
        (n,) = _require(params, ["n"], kind)
        return complete_graph(n)
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        n, a = _require(params, ["n", "a"], kind)
        if not 1 <= a <= n - 1:
            raise GraphError(f"complete_bipartite requires 1 <= a <= n-1, got a={a}, n={n}")
        return complete_bipartite(a, n - a)
    if kind is FamilyKind.COMPLETE_MINUS_EDGE:
        (n,) = _require(params, ["n"], kind)
        return complete_minus_edge(n)
    if kind is FamilyKind.GNDT:
        n, d, t = _require(params, ["n", "d", "t"], kind)
        return gndt(n, d, t)
    if kind is FamilyKind.GNDRA:
        n, d, r, a = _require(params, ["n", "d", "r", "a"], kind)
        return gndra(n, d, r, a)
    if kind is FamilyKind.K_COPIES:
        (k,) = _require(params, ["k"], kind)
        if spec.inner is None:
            raise GraphError("kcopies needs an inner family spec")
        return k_copies(make_family(spec.inner), k)
    raise GraphError(f"unknown family kind {kind!r}")
