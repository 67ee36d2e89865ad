import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import delete_vertex, induced_subgraph

from qdist.graphs import (
    GraphError,
    bfs_distances,
    complete_bipartite,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    degrees,
    disjoint_union,
    from_edges,
    gndra,
    gndt,
    is_connected,
    k_copies,
    make_empty,
    make_family,
    path_graph,
    remove_edge,
)
from qdist.invariants import diameter


def add_edge(g, u, v):
    """G + uv, built by from_edges, which validates the pair."""
    return from_edges(g.n, g.edges() + [(u, v)])


def small_graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return from_edges(n, edges)

    return build()


def test_make_empty():
    assert make_empty(0).n == 0
    g = make_empty(3)
    assert g.edge_count() == 0
    assert degrees(g) == [0, 0, 0]
    with pytest.raises(GraphError):
        make_empty(-1)


def test_path_construction_via_add_edge():
    g = make_empty(5)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        g = add_edge(g, u, v)
    assert g == path_graph(5)


def test_add_edge_closes_cycle():
    assert add_edge(path_graph(3), 0, 2) == cycle_graph(3)


def test_add_edge_errors():
    g = path_graph(3)
    with pytest.raises(GraphError):
        add_edge(g, 1, 1)
    with pytest.raises(GraphError):
        add_edge(g, 0, 3)


def test_remove_edge():
    g = remove_edge(complete_graph(4), 0, 1)
    assert sorted(degrees(g), reverse=True) == [3, 3, 2, 2]
    with pytest.raises(GraphError):
        remove_edge(g, 0, 1)


@given(small_graphs())
def test_remove_then_add_is_identity(g):
    edges = g.edges()
    if not edges:
        return
    u, v = edges[0]
    assert add_edge(remove_edge(g, u, v), u, v) == g


def test_delete_vertex_cycle():
    for v in range(4):
        assert delete_vertex(cycle_graph(4), v).edge_count() == 2
        assert sorted(degrees(delete_vertex(cycle_graph(4), v))) == [1, 1, 2]


def test_induced_subgraph():
    assert induced_subgraph(complete_graph(5), [0, 2, 4]) == complete_graph(3)
    assert induced_subgraph(gndra(8, 3, 2, 1), [0, 1, 2, 3]) == path_graph(4)
    with pytest.raises(GraphError):
        induced_subgraph(complete_graph(3), [])


def test_disjoint_union_and_copies():
    two = disjoint_union(make_empty(1), make_empty(1))
    assert two.n == 2 and two.edge_count() == 0
    g = k_copies(cycle_graph(5), 2)
    assert g.n == 10 and g.edge_count() == 10
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))


@given(small_graphs(5), small_graphs(5))
def test_disjoint_union_block_structure(g, h):
    u = disjoint_union(g, h)
    assert u.n == g.n + h.n
    assert u.edge_count() == g.edge_count() + h.edge_count()
    assert induced_subgraph(u, range(g.n)) == g if g.n else True


def test_degrees_and_bounds():
    g = complete_bipartite(2, 3)
    assert sorted(degrees(g), reverse=True) == [3, 3, 2, 2, 2]


def test_bfs_distances():
    g = path_graph(4)
    assert bfs_distances(g, 0) == [0, 1, 2, 3]
    g2 = disjoint_union(path_graph(2), make_empty(1))
    d = bfs_distances(g2, 0)
    assert d[1] == 1 and d[2] == float("inf")


def test_family_gndt_shape():
    g = gndt(8, 3, 2)
    # clique part is vertices 4..7, attached to v1,v2,v3 (labels 0,1,2)
    assert g.degree(3) == 1  # pendant v4
    for u in range(4, 8):
        assert g.has_edge(u, 0) and g.has_edge(u, 1) and g.has_edge(u, 2)
        assert not g.has_edge(u, 3)
    assert diameter(g) == 3


def test_family_gndra_attachment_degrees():
    # left group sees v1,v2,v3; right group sees v2,v3,v4
    g = gndra(7, 3, 2, 1)
    assert g.degree(0) == 2  # a+1
    assert g.degree(3) == 3  # n-3-a
    assert g.has_edge(4, 0) and not g.has_edge(5, 0)
    assert g.has_edge(5, 3) and not g.has_edge(4, 3)


@pytest.mark.parametrize("n,d,t", [(8, 3, 2), (9, 4, 3), (10, 5, 5), (12, 6, 2), (7, 2, 2)])
def test_gndt_edge_count_and_diameter(n, d, t):
    from math import comb

    g = gndt(n, d, t)
    assert g.edge_count() == d + comb(n - d - 1, 2) + 3 * (n - d - 1)
    assert is_connected(g)
    assert diameter(g) == d
    assert max(bfs_distances(g, 0)) == d  # v1 realizes the diameter


@pytest.mark.parametrize("n,d,r,a", [(7, 3, 2, 1), (8, 3, 2, 2), (10, 4, 3, 2), (12, 5, 2, 3)])
def test_gndra_connected_diametral(n, d, r, a):
    g = gndra(n, d, r, a)
    assert is_connected(g)
    assert diameter(g) == d
    assert max(bfs_distances(g, 0)) == d


def _gndt_reference(n, d, t):
    # the docstring's edge list: path v1..v(d+1), the clique, each clique
    # vertex joined to v(t-1), v(t), v(t+1)
    clique = range(d + 1, n)
    edges = [(i, i + 1) for i in range(d)]
    edges += [(u, v) for u in clique for v in clique if u < v]
    edges += [(u, v) for u in clique for v in (t - 2, t - 1, t)]
    return from_edges(n, edges)


def _gndra_reference(n, d, r, a):
    clique = range(d + 1, n)
    edges = [(i, i + 1) for i in range(d)]
    edges += [(u, v) for u in clique for v in clique if u < v]
    edges += [(u, v) for u in clique[:a] for v in (r - 2, r - 1, r)]
    edges += [(u, v) for u in clique[a:] for v in (r - 1, r, r + 1)]
    return from_edges(n, edges)


def test_family_bitmasks_match_the_edge_lists():
    """gndt and gndra set adjacency rows from masks; every legal parameter
    tuple to order 12 and every gndt and gndra tuple of the five family
    grids to order 32 (verify.FAMILY_LIMIT) gives the graph of the
    docstring's edge list, so it is also symmetric and loopless, as every
    from_edges graph is."""
    from qdist.verify import FAMILY_LIMIT, family_parameters

    gndt_args = {(n, d, t) for n in range(4, 13) for d in range(2, n - 1) for t in range(2, d + 1)}
    gndra_args = {
        (n, d, r, a) for n in range(5, 13) for d in range(3, n - 1) for r in range(2, d) for a in range(1, n - d - 1)
    }
    for n in range(7, FAMILY_LIMIT + 1):
        for p in family_parameters("family-counts", n):
            (gndt_args if len(p) == 3 else gndra_args).add(p)
        gndt_args.update(family_parameters("gndt-laplacian-count", n))
        gndt_args.add((n, 3, 2))
        gndra_args.update((n, n - 3, t, 1) for _, t in family_parameters("family-gndra-q5", n))
        gndra_args.update((n, 3, 2, a) for _, a in list(family_parameters("diameter-3-equality", n))[1:])
    for args in gndt_args:
        assert gndt(*args) == _gndt_reference(*args), args
    for args in gndra_args:
        assert gndra(*args) == _gndra_reference(*args), args


def test_family_parameter_validation():
    with pytest.raises(GraphError, match="2 <= t <= d"):
        gndt(8, 3, 5)
    with pytest.raises(GraphError, match="2 <= d <= n-2"):
        gndt(4, 3, 2)
    with pytest.raises(GraphError, match="2 <= r <= d-1"):
        gndra(8, 3, 3, 1)
    with pytest.raises(GraphError, match="1 <= a <= n-d-2"):
        gndra(8, 3, 2, 4)


def test_make_family_dispatch():
    assert make_family("cycle", {"n": 5}) == cycle_graph(5)
    assert make_family("complete_bipartite", {"n": 5, "a": 2}) == complete_bipartite(2, 3)
    assert make_family("complete_minus_edge", {"n": 5}) == complete_minus_edge(5)
    assert complete_minus_edge(5).edge_count() == 9
    # kcopies nests another kind, so only `qdist family --of` builds it
    with pytest.raises(GraphError, match="unknown family kind 'kcopies'; known kinds: path, cycle,"):
        make_family("kcopies", {"k": 2})
    with pytest.raises(GraphError, match="missing"):
        make_family("gndt", {"n": 8})


@given(small_graphs())
@settings(max_examples=60)
def test_graph_invariants_hold(g):
    g.validate()
    assert sum(degrees(g)) == 2 * g.edge_count()


@given(small_graphs())
def test_json_round_trip(g):
    obj = json.loads(g.to_json())
    assert from_edges(obj["n"], [tuple(e) for e in obj["edges"]]) == g
