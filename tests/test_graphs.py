import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hamcheck.graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_edges,
    bipartite_from_graph,
    bipartite_view,
    bit_matrix,
    bits,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    connected_rows,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_complete_bipartite_plus_isolated,
    is_connected,
    join,
    pack_rows,
    path,
    quasi_complement,
    relabel,
    star,
    transpose,
    two_coloring,
    unpack_rows,
)


def random_edges(n, seed):
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]


def random_graph(n, seed):
    return from_edges(n, random_edges(n, seed))


def random_cross_edges(p, q, seed):
    rng = random.Random(seed)
    return [(x, y) for x in range(p) for y in range(q) if rng.random() < 0.5]


# 65 and 130 vertices: rows wider than one and than two 64-bit words
WIDE = [65, 130]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130, 512])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_pack_rows_inverts_bit_matrix(n, count):
    rng = random.Random(n * 10 + count)
    rows = tuple(rng.getrandbits(n) for _ in range(count))
    if count:
        rows = rows[:-1] + ((1 << n) - 1,)   # every column set in one row
    matrix = bit_matrix(rows, n)
    assert matrix.shape == (count, n)
    assert pack_rows(matrix) == rows
    assert pack_rows(matrix.astype(bool)) == rows


def test_from_edges_basics():
    g = from_edges(4, [(0, 1), (1, 2), (1, 2)])  # duplicate collapses
    assert g.edge_count() == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degrees() == [1, 2, 1, 0]
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_standard_constructions():
    assert complete(5).edge_count() == 10
    assert cycle(6).degrees() == [2] * 6
    assert path(4).degree_sequence() == (1, 1, 2, 2)
    s = star(5)
    assert s.degree(4) == 4 and s.degrees()[:4] == [1] * 4
    assert empty_graph(3).edge_count() == 0
    b = complete_bipartite(3, 2)
    assert b.edge_count() == 6
    assert b.to_graph().degree_sequence() == (2, 2, 2, 3, 3)
    assert s.to_graph() is s


def test_complement_involution():
    g = random_graph(7, 1)
    assert complement(complement(g)) == g
    assert g.edge_count() + complement(g).edge_count() == 21


def test_join_and_union_counts():
    g, h = cycle(4), complete(3)
    u = disjoint_union(g, h)
    assert u.n == 7 and u.edge_count() == 4 + 3
    j = join(g, h)
    assert j.edge_count() == 4 + 3 + 12
    assert all(j.has_edge(a, 4 + b) for a in range(4) for b in range(3))


def test_relabel_preserves_structure():
    g = random_graph(6, 2)
    perm = [3, 1, 4, 0, 5, 2]
    h = relabel(g, perm)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
    for n in (0, 1, 6, *WIDE):
        edges = random_edges(n, n)
        perm = random.Random(n).sample(range(n), n)
        assert relabel(from_edges(n, edges), perm) == from_edges(n, [(perm[u], perm[v])
                                                                     for u, v in edges])


def test_induced_subgraph():
    g = cycle(5)
    h = induced_subgraph(g, [0, 1, 2])
    assert h.n == 3 and h.edge_count() == 2
    assert induced_subgraph(g, []) == empty_graph(0)
    for n in (6, *WIDE):
        edges = random_edges(n, n + 1)
        vertices = random.Random(n).sample(range(n), n // 2)   # unsorted: vertices[i] becomes i
        new = {v: i for i, v in enumerate(vertices)}
        assert induced_subgraph(from_edges(n, edges), vertices) == from_edges(
            len(vertices), [(new[u], new[v]) for u, v in edges if u in new and v in new])


def test_components_and_connectivity():
    g = disjoint_union(cycle(3), path(2))
    comps = connected_components(g)
    assert len(comps) == 2
    assert not is_connected(g)
    assert is_connected(cycle(3))
    assert not is_connected(empty_graph(2))
    assert is_connected(empty_graph(1))


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_rows_matches_is_connected_on_every_small_graph(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    graphs = [from_edges(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
              for mask in range(1 << len(pairs))]
    rows = np.array([g.adj for g in graphs], dtype=np.uint32)
    assert connected_rows(rows).tolist() == [is_connected(g) for g in graphs]


def test_unpack_rows_is_the_bit_matrix_of_each_row():
    # a scan slice's (B, n) uint32 adjacency rows, unpacked once; n = 32
    # uses every bit of a row
    for n in [*range(0, 11), 31, 32]:
        graphs = [random_graph(n, seed) for seed in range(5)]
        rows = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)
        got = unpack_rows(rows)
        assert got.shape == (len(graphs), n, n)
        assert all(np.array_equal(bits, bit_matrix(g.adj, n)) for bits, g in zip(got, graphs))


def test_two_coloring():
    assert two_coloring(cycle(4)) is not None
    assert two_coloring(cycle(5)) is None
    left = two_coloring(complete_bipartite(3, 4).to_graph())
    assert left is not None
    assert bin(left).count("1") in (3, 4)


def _stack_coloring(g):
    """two_coloring by a per-vertex stack search, each component's lowest
    vertex on the returned side: the reference for the level search."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return sum(1 << v for v in range(g.n) if color[v] == 0)


@pytest.mark.parametrize("n", range(7))
def test_two_coloring_matches_a_stack_search_on_every_small_graph(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        g = from_edges(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
        assert two_coloring(g) == _stack_coloring(g)


def test_two_coloring_of_disconnected_and_wide_graphs():
    for g in (disjoint_union(cycle(4), disjoint_union(empty_graph(2), path(5))),
              disjoint_union(path(3), cycle(5)),
              relabel(complete_bipartite(70, 60).to_graph(), [(7 * v) % 130 for v in range(130)])):
        assert two_coloring(g) == _stack_coloring(g)


@pytest.mark.parametrize("p, q", [(0, 3), (3, 0), (3, 2), (2, 5), (WIDE[0], 3), (5, WIDE[1]),
                                  (WIDE[0], WIDE[1])])
def test_transpose_and_to_graph_are_the_graphs_of_the_swapped_edges(p, q):
    edges = random_cross_edges(p, q, p * q)
    b = bipartite_from_edges(p, q, edges)
    assert transpose(b) == bipartite_from_edges(q, p, [(y, x) for x, y in edges])
    assert transpose(transpose(b)) == b
    assert b.to_graph() == from_edges(p + q, [(x, p + y) for x, y in edges])


def test_bipartite_round_trip():
    b = complete_bipartite(3, 2)
    g = b.to_graph()
    left = (1 << 3) - 1  # side X sits at indices 0..2
    b2 = bipartite_from_graph(g, left)
    assert (b2.p, b2.q) == (3, 2)
    assert b2.rows == b.rows


def _reference_view(g):
    """The bipartite view by the Python-int path analyze took before the
    view: is_connected, two_coloring, bipartite_from_graph, transpose."""
    left = two_coloring(g) if g.n >= 2 and is_connected(g) else None
    if left is None:
        return None
    b = bipartite_from_graph(g, left)
    return transpose(b) if b.p < b.q else b


def _assert_view_matches(g):
    a = bit_matrix(g.adj, g.n)
    view, expected = bipartite_view(g, a), _reference_view(g)
    if expected is None:
        assert view is None
        return
    order, b = view
    assert b == expected
    # the side order is the vertex order of b's own matrix, which its radii read
    assert np.array_equal(a[np.ix_(order, order)], bit_matrix(b.to_graph().adj, g.n))


@pytest.mark.parametrize("n", range(7))
def test_bipartite_view_matches_the_reference_on_every_small_graph(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        _assert_view_matches(from_edges(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1]))


@pytest.mark.parametrize("n", [25, 64, 80, 130])
@pytest.mark.parametrize("seed", range(3))
def test_bipartite_view_of_wide_connected_bipartite_graphs(n, seed):
    # above 64 vertices a side's row no longer fits one 64-bit word
    rng = random.Random(n * 10 + seed)
    perm = list(range(n))
    rng.shuffle(perm)
    side = rng.randrange(1, n)
    edges = [(x, side + rng.randrange(n - side)) for x in range(side)]
    edges += [(rng.randrange(side), y) for y in range(side, n)]
    edges += [(x, y) for x in range(side) for y in range(side, n) if rng.random() < 0.3]
    g = relabel(from_edges(n, edges), perm)
    assert is_connected(g)
    _assert_view_matches(g)
    assert bipartite_view(g, bit_matrix(g.adj, n))[1].edge_count() == g.edge_count()


@pytest.mark.parametrize("g", [
    disjoint_union(cycle(4), path(2)),                 # bipartite, disconnected
    disjoint_union(empty_graph(1), complete_bipartite(40, 40).to_graph()),
    cycle(7),                                          # connected, an odd cycle
    join(complete_bipartite(33, 33).to_graph(), empty_graph(1)),
    empty_graph(2),
])
def test_bipartite_view_refuses_disconnected_and_odd_cycle_graphs(g):
    assert _reference_view(g) is None
    assert bipartite_view(g, bit_matrix(g.adj, g.n)) is None


def test_quasi_complement():
    b = complete_bipartite(3, 3)
    star_b = quasi_complement(b)
    assert star_b.edge_count() == 0
    assert quasi_complement(star_b).rows == b.rows


def test_is_complete_bipartite_plus_isolated():
    g = complete_bipartite(2, 3).to_graph()
    assert is_complete_bipartite_plus_isolated(g)
    assert is_complete_bipartite_plus_isolated(disjoint_union(g, empty_graph(2)))
    assert not is_complete_bipartite_plus_isolated(cycle(5))
    assert not is_complete_bipartite_plus_isolated(disjoint_union(g, path(2)))


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_degree_sum_is_twice_edges(n, seed):
    g = random_graph(n, seed)
    assert sum(g.degrees()) == 2 * g.edge_count()


@pytest.mark.parametrize("p, q", [(-1, 2), (2, -1), (-3, 3)])
def test_negative_side_sizes_rejected(p, q):
    with pytest.raises(ValueError, match="vertex count"):
        complete_bipartite(p, q)
    with pytest.raises(ValueError, match="vertex count"):
        bipartite_from_edges(p, q, [])


def test_bipartite_min_degree_without_vertices():
    assert BipartiteGraph(0, 0, ()).min_degree() == 0


@given(st.integers(0, 70), st.integers(0, 130), st.data())
def test_degrees_y_matches_full_graph(p, q, data):
    rows = data.draw(st.lists(st.integers(0, (1 << q) - 1), min_size=p, max_size=p))
    b = BipartiteGraph(p, q, tuple(rows))
    assert b.degrees_y() == b.to_graph().degrees()[p:]
    assert b.degrees_y() == [sum(row >> y & 1 for row in rows) for y in range(q)]
