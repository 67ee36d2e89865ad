import json
from itertools import combinations
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdist.graphs import (
    GraphError,
    bfs_distances,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degrees,
    disjoint_union,
    from_edges,
    gndt,
    is_connected,
    make_empty,
    path_graph,
)
from qdist.invariants import (
    SizeLimitError,
    diameter,
    domination_number,
    independence_number,
    invariant_bundle,
    longest_path_length,
    matching_number,
)
from qdist.verify import EnumerationFilter, enumerate_graphs


def diametral_path(g):
    """One shortest path realizing the diameter: the lexicographically
    smallest endpoint pair (u, v), then the smallest-index predecessor at
    each step back from v."""
    if not is_connected(g):
        raise GraphError("diametral path requires a connected graph")
    d = diameter(g)
    for u in range(g.n):
        dist = bfs_distances(g, u)
        for v in range(u, g.n):
            if dist[v] == d:
                path = [v]
                while path[-1] != u:
                    cur = path[-1]
                    path.append(min(w for w in range(g.n) if g.has_edge(cur, w) and dist[w] == dist[cur] - 1))
                return path[::-1]
    raise AssertionError("connected graph must realize its diameter")


def matching_oracle(g):
    """Maximum matching by brute force over edge subsets."""
    edges = g.edges()
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in combinations(edges, k):
            used = set()
            ok = True
            for u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, k)
                break
    return best


def random_graph(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return from_edges(n, edges)


# n <= 7 keeps the combinations-based oracle polynomial-ish; the acceptance
# suite covers n = 8 against an independent subset-recursion oracle
graphs_n7 = st.composite(lambda draw: random_graph(draw, 7))()


def test_matching_known_values():
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(cycle_graph(6)) == 3
    assert matching_number(complete_bipartite(2, 6)) == 2
    assert matching_number(path_graph(6)) == 3
    assert matching_number(make_empty(4)) == 0
    assert matching_number(complete_graph(7)) == 3


def test_matching_exhaustive_n5():
    for g in enumerate_graphs(EnumerationFilter(5)):
        assert matching_number(g) == matching_oracle(g)


@given(graphs_n7)
@settings(max_examples=150, deadline=None)
def test_matching_vs_oracle_random(g):
    assert matching_number(g) == matching_oracle(g)


def test_matching_blossom_hard_cases():
    # odd components and pendant triangles force real blossom contractions
    petersen = from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert matching_number(petersen) == 5
    two_triangles = from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert matching_number(two_triangles) == 3


def test_diameter_values():
    assert diameter(path_graph(6)) == 5
    assert diameter(complete_graph(5)) == 1
    assert diameter(make_empty(1)) == 0
    assert diameter(disjoint_union(path_graph(2), path_graph(2))) == inf
    for n, d, t in [(8, 3, 2), (9, 4, 2), (12, 6, 4), (10, 2, 2)]:
        assert diameter(gndt(n, d, t)) == d


def test_diametral_path_deterministic():
    g = cycle_graph(6)
    p = diametral_path(g)
    assert p == [0, 1, 2, 3]
    assert len(p) - 1 == diameter(g)
    assert diametral_path(path_graph(5)) == [0, 1, 2, 3, 4]
    with pytest.raises(Exception):
        diametral_path(disjoint_union(path_graph(2), path_graph(2)))


def test_diametral_path_is_shortest():
    for g in [gndt(9, 4, 3), complete_bipartite(3, 4), cycle_graph(9)]:
        p = diametral_path(g)
        assert len(p) - 1 == diameter(g)
        dist = bfs_distances(g, p[0])
        assert dist[p[-1]] == len(p) - 1
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


def test_independence_values():
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(complete_bipartite(2, 3)) == 3
    assert independence_number(complete_graph(6)) == 1
    assert independence_number(make_empty(5)) == 5


def test_domination_values():
    assert domination_number(cycle_graph(5)) == 2
    assert domination_number(complete_graph(9)) == 1
    assert domination_number(path_graph(6)) == 2
    assert domination_number(make_empty(3)) == 3
    assert domination_number(disjoint_union(complete_graph(3), complete_graph(3))) == 2


def domination_oracle(g):
    n = g.n
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    for size in range(0, n + 1):
        for combo in combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                return size
    return n


def independence_oracle(g):
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for combo in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(combo, 2)):
                best = size
                break
    return best


@given(graphs_n7)
@settings(max_examples=80, deadline=None)
def test_domination_and_independence_vs_oracle(g):
    assert domination_number(g) == domination_oracle(g)
    assert independence_number(g) == independence_oracle(g)


def longest_path_oracle(g):
    from itertools import permutations

    best = 0
    for k in range(g.n, 1, -1):
        if k - 1 <= best:
            break
        for combo in permutations(range(g.n), k):
            if all(g.has_edge(a, b) for a, b in zip(combo, combo[1:])):
                best = k - 1
                break
    return best


def test_longest_path_values():
    assert longest_path_length(path_graph(7)) == 6
    assert longest_path_length(cycle_graph(7)) == 6
    assert longest_path_length(complete_bipartite(2, 3)) == 4
    assert longest_path_length(make_empty(3)) == 0
    assert longest_path_length(complete_graph(5)) == 4


@given(st.composite(lambda draw: random_graph(draw, 6))())
@settings(max_examples=60, deadline=None)
def test_longest_path_vs_oracle(g):
    assert longest_path_length(g) == longest_path_oracle(g)


def test_size_limits():
    with pytest.raises(SizeLimitError):
        independence_number(make_empty(33))
    with pytest.raises(SizeLimitError):
        domination_number(make_empty(25))
    with pytest.raises(SizeLimitError):
        longest_path_length(make_empty(21))


def test_trees_longest_path_equals_diameter():
    trees = [
        path_graph(7),
        from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]),
        from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
    ]
    for t in trees:
        assert longest_path_length(t) == diameter(t)


def test_bundle_consistency_exhaustive_n5():
    for g in enumerate_graphs(EnumerationFilter(5)):
        b = invariant_bundle(g)
        degs = degrees(g)
        assert b.delta == min(degs) and b.Delta == max(degs)
        assert b.alpha >= g.n - 2 * b.nu
        if b.delta >= 1:
            assert b.gamma_dom <= b.nu
        if is_connected(g):
            assert b.diam <= b.longest_path_len


def test_bundle_json():
    b = invariant_bundle(cycle_graph(5))
    obj = json.loads(b.to_json())
    assert obj == {
        "nu": 2,
        "alpha": 2,
        "gamma_dom": 2,
        "diam": 2,
        "longest_path_len": 4,
        "delta": 2,
        "Delta": 2,
    }
    disconnected = invariant_bundle(disjoint_union(path_graph(2), path_graph(2)))
    assert json.loads(disconnected.to_json())["diam"] is None
