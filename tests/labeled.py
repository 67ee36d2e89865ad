"""Reference labeled-graph codec for the tests, written apart from qdist's
own (jacobi.edge_pairs and jacobi.mask_adjacency): bit k of an edge mask on
n vertices joins the k-th pair of mask_pairs(n), in row order."""

from typing import Iterator

from qdist.graphs import Graph


def mask_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in mask order: (0,1), (0,2), ..., (n-2,n-1)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    rows = [0] * n
    for k, (u, v) in enumerate(mask_pairs(n)):
        if mask >> k & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def graph_to_mask(g: Graph) -> int:
    return sum(1 << k for k, (u, v) in enumerate(mask_pairs(g.n)) if g.has_edge(u, v))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices, in ascending mask order."""
    return (graph_from_mask(n, mask) for mask in range(1 << len(mask_pairs(n))))
