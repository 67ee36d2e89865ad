"""Exact graph invariants: matching number, diameter, independence,
domination, longest path.

Matching uses augmenting paths with blossom contraction so it stays exact on
non-bipartite graphs while being fast enough to call on every graph of an
exhaustive enumeration. The NP-hard invariants are exact, with explicit size
limits: branch and bound, and a path-end DP over a stack for the longest path.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .graphs import Graph, GraphError, _bits, bfs_distances, degrees


class SizeLimitError(GraphError):
    """Instance exceeds the documented exact-search size limit."""


# -- maximum matching ---------------------------------------------------------


def matching_number(g: Graph) -> int:
    """Maximum matching size, exact on general graphs (blossom contraction)."""
    n = g.n
    adj = [list(_bits(row)) for row in g.adj]
    match = [-1] * n
    # greedy warm start saves most augmentation rounds
    for u in range(n):
        if match[u] < 0:
            for v in adj[u]:
                if match[v] < 0:
                    match[u] = v
                    match[v] = u
                    break

    def find_augmenting(root: int) -> int:
        """BFS an alternating tree from an exposed root, contracting blossoms.

        Returns the exposed endpoint of an augmenting path, or -1. Fills p[]
        with the alternating-tree parent links used by the augment step.
        """
        nonlocal p
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        qi = 0

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if match[a] < 0:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and p[match[to]] >= 0):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] < 0:
                    p[to] = v
                    if match[to] < 0:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    p: list[int] = []
    for root in range(n):
        if match[root] < 0:
            end = find_augmenting(root)
            while end >= 0:
                prev = p[end]
                nxt = match[prev]
                match[end] = prev
                match[prev] = end
                end = nxt
    return sum(1 for v in match if v >= 0) // 2


# -- distance invariants --------------------------------------------------------


def diameter(g: Graph) -> float:
    """Greatest distance between vertex pairs; inf when disconnected, 0 for n <= 1."""
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    best: float = 0
    for src in range(g.n):
        best = max(best, max(bfs_distances(g, src)))
    return int(best) if best is not inf else inf


# -- independence / domination / longest path ------------------------------------


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size (branch and bound, n <= 32)."""
    if g.n > 32:
        raise SizeLimitError(f"independence number limited to n <= 32, got {g.n}")
    adj = g.adj
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(cand & ~adj[v], size + 1)
        if size > best:
            best = size

    expand((1 << g.n) - 1, 0)
    return best


def domination_number(g: Graph) -> int:
    """Exact minimum dominating set size (branch and bound, n <= 24)."""
    if g.n > 24:
        raise SizeLimitError(f"domination number limited to n <= 24, got {g.n}")
    if g.n == 0:
        return 0
    n = g.n
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    maxcover = max(c.bit_count() for c in closed)
    best = n

    def rec(dominated: int, size: int) -> None:
        nonlocal best
        if dominated == full:
            best = min(best, size)
            return
        missing = (full ^ dominated).bit_count()
        if size + (missing + maxcover - 1) // maxcover >= best:
            return
        u = ((full ^ dominated) & -(full ^ dominated)).bit_length() - 1
        # some vertex of N[u] must be chosen; try larger coverage first
        cands = sorted(_bits(closed[u]), key=lambda w: -(closed[w] & ~dominated).bit_count())
        for w in cands:
            rec(dominated | closed[w], size + 1)

    rec(0, 0)
    return best


def longest_path_lengths(adj: np.ndarray) -> np.ndarray:
    """Edge count of a longest simple path of each graph of a (B, n) int64
    stack of adjacency bitmask rows, as (B,) int16 (Bellman; Held and Karp).

    ends[b, S] is the bitset of the ends of the paths of graph b that cover
    exactly S: w in S is one wherever S - w has an end adjacent to w. Layer k
    fills the sets of size k in one gather, where S ^ w for w outside S has
    size k + 1 and is still 0. The answer is the largest |S| - 1 with an end.
    """
    B, n = adj.shape
    subsets = np.arange(1 << n, dtype=np.int64)
    bit = 1 << np.arange(n, dtype=np.int64)
    size = sum((subsets >> v) & 1 for v in range(n))
    ends = np.zeros((B, 1 << n), dtype=np.int64)
    ends[:, bit] = bit
    for k in range(2, n + 1):
        layer = subsets[size == k]
        ends[:, layer] = ((ends[:, layer[:, None] ^ bit] & adj[:, None, :]) != 0) @ bit
    return np.where(ends != 0, size - 1, 0).max(axis=1, initial=0).astype(np.int16)


def longest_path_length(g: Graph) -> int:
    """Edge count of a longest simple path (longest_path_lengths of one graph, n <= 20)."""
    if g.n > 20:
        raise SizeLimitError(f"longest path limited to n <= 20, got {g.n}")
    return int(longest_path_lengths(np.array(g.adj, dtype=np.int64).reshape(1, g.n))[0])


# -- all invariants of one graph ----------------------------------------------------


def invariant_bundle(g: Graph) -> dict:
    """Every invariant the statements reference, for one graph, keyed as
    `qdist invariants` prints them; diam is None when g is disconnected."""
    degs = degrees(g)
    out = {
        "nu": matching_number(g),
        "alpha": independence_number(g),
        "gamma_dom": domination_number(g),
        "diam": diameter(g),
        "longest_path_len": longest_path_length(g),
        "delta": min(degs),
        "Delta": max(degs),
    }
    if out["diam"] is inf:
        out["diam"] = None
    return out
