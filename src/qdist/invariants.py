"""Exact graph invariants: matching number, diameter, independence,
domination, longest path.

Matching uses augmenting paths with blossom contraction so it stays exact on
non-bipartite graphs while being fast enough to call on every graph of an
exhaustive enumeration. The NP-hard invariants are exact branch-and-bound
searches with explicit size limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf

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


def longest_path_length(g: Graph) -> int:
    """Edge count of a longest simple path (subset dynamic program, n <= 20)."""
    if g.n > 20:
        raise SizeLimitError(f"longest path limited to n <= 20, got {g.n}")
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    ends = [0] * (1 << n)  # ends[mask] = vertices where a path covering mask can end
    for v in range(n):
        ends[1 << v] = 1 << v
    best = 0
    for mask in range(1, 1 << n):
        em = ends[mask]
        if not em:
            continue
        size = mask.bit_count()
        if size - 1 > best:
            best = size - 1
        for v in _bits(em):
            free = adj[v] & ~mask
            for w in _bits(free):
                ends[mask | (1 << w)] |= 1 << w
    return best


# -- bundle ------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantBundle:
    """All invariants the theorem checkers reference, for one graph."""

    nu: int
    alpha: int
    gamma_dom: int
    diam: float
    longest_path_len: int
    delta: int
    Delta: int

    def to_json(self) -> str:
        obj = dict(
            nu=self.nu,
            alpha=self.alpha,
            gamma_dom=self.gamma_dom,
            diam=None if self.diam is inf else self.diam,
            longest_path_len=self.longest_path_len,
            delta=self.delta,
            Delta=self.Delta,
        )
        return json.dumps(obj)


def invariant_bundle(g: Graph) -> InvariantBundle:
    degs = degrees(g)
    return InvariantBundle(
        nu=matching_number(g),
        alpha=independence_number(g),
        gamma_dom=domination_number(g),
        diam=diameter(g),
        longest_path_len=longest_path_length(g),
        delta=min(degs),
        Delta=max(degs),
    )
