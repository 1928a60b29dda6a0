import io
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamcheck import spectral
from hamcheck.cli import main
from hamcheck.conditions import GENERAL, RADII
from hamcheck.families import kn1_plus_edge
from hamcheck.graph6 import parse_graph6
from hamcheck.graphs import (
    Graph,
    bipartite_from_graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    from_edges,
    is_connected,
    path,
    quasi_complement,
    star,
    transpose,
    two_coloring,
    unpack_rows,
)
from hamcheck.verify import MAX_BIP_CELLS, MAX_ENUM_N, THEOREMS
from hamcheck.spectral import (
    ADJACENCY,
    CW_STEPS,
    DENSE_CAP,
    SIGNLESS_LAPLACIAN,
    _cw_iterates,
    cw_bounds,
    eigen_oracle,
    matrix_stack,
    q_radius,
    radius_stack,
    rho,
)


FIXTURES = Path(__file__).resolve().parent / "fixtures"

# each hypothesis quantity's operand, made of the graph object by graphs'
# own complement and quasi_complement, the reference for conditions' flip
OPERAND = {"q": lambda g: g, "rho": lambda g: g,
           "q_complement": complement, "rho_star": quasi_complement}


def random_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def test_known_spectral_radii():
    assert abs(rho(complete(5)).value - 4.0) < 1e-9
    assert abs(rho(cycle(7)).value - 2.0) < 1e-9
    assert abs(rho(star(10)).value - 3.0) < 1e-9  # sqrt(n-1)
    assert abs(rho(complete_bipartite(3, 4)).value - math.sqrt(12)) < 1e-9


def test_known_q_values():
    assert abs(q_radius(complete(6)).value - 10.0) < 1e-9  # 2n-2
    assert abs(q_radius(cycle(8)).value - 4.0) < 1e-9
    assert abs(q_radius(star(5)).value - 5.0) < 1e-9  # q(K_{1,n-1}) = n


def test_power_iteration_matches_dense_oracle():
    for seed in range(30):
        g = random_graph(9, seed)
        assert abs(rho(g).value - eigen_oracle(g, "adjacency")[-1]) < 1e-8
        assert abs(q_radius(g).value - eigen_oracle(g, "signless_laplacian")[-1]) < 1e-8


def test_printed_radii_are_the_dense_oracle_top_eigenvalue(capsys, monkeypatch):
    # every spectral number analyze prints for analyze_mix.g6, the record's
    # rho and q and each certificate's radius, is the last eigenvalue
    # eigen_oracle gives that quantity's operand and matrix, bit for bit:
    # both come from eigvalsh, which takes each matrix on its own; a
    # bipartite certificate's rho is the record's, of g's own matrix
    monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "analyze_mix.g6").read_text()))
    assert main(["analyze", "--format", "json"]) == 0
    seen = set()
    for line in capsys.readouterr().out.splitlines():
        record = json.loads(line)
        g = parse_graph6(record["graph6"])
        if g.n == 0:
            assert (record["rho"], record["q"]) == (None, None)
            continue
        assert record["rho"] == eigen_oracle(g, ADJACENCY)[-1]
        assert record["q"] == eigen_oracle(g, SIGNLESS_LAPLACIAN)[-1]
        b = None
        if g.n >= 2 and is_connected(g) and two_coloring(g) is not None:
            b = bipartite_from_graph(g, two_coloring(g))
            b = transpose(b) if b.p < b.q else b   # the larger side first, as analyze has it
        for verdict in record["verdicts"]:
            obj = g if THEOREMS[verdict["checker"]].row.kind == GENERAL else b
            for name, value in verdict["certificate"]:
                if name in RADII:
                    of = g if name == "rho" else obj
                    assert value == eigen_oracle(OPERAND[name](of), RADII[name].matrix)[-1]
                    seen.add(name)
    assert seen == set(RADII)


def test_eigen_oracle_tests_the_vertex_cap_before_building_a_matrix(monkeypatch):
    at_cap = kn1_plus_edge(DENSE_CAP)
    assert eigen_oracle(at_cap)[-1] == rho(at_cap).value
    assert eigen_oracle(at_cap, SIGNLESS_LAPLACIAN)[-1] == q_radius(at_cap).value

    def unbuilt(*args):
        raise AssertionError("matrix_stack called above the cap")

    monkeypatch.setattr(spectral, "matrix_stack", unbuilt)
    for above in (kn1_plus_edge(DENSE_CAP + 1), complete_bipartite(33, 32)):
        with pytest.raises(ValueError, match="capped"):
            eigen_oracle(above)


def test_rho_at_most_sqrt_m_bipartite():
    # for bipartite graphs, rho <= sqrt(m)
    from hamcheck.graphs import bipartite_from_edges

    rng = random.Random(0)
    for _ in range(30):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(x, y) for x in range(p) for y in range(q) if rng.random() < 0.5]
        b = bipartite_from_edges(p, q, edges)
        if b.edge_count() == 0:
            continue
        assert rho(b).value <= math.sqrt(b.edge_count()) + 1e-8


def test_rho_sqrt_m_equality_iff_complete_bipartite():
    b = complete_bipartite(3, 5)
    assert abs(rho(b).value - math.sqrt(15)) < 1e-9
    g = disjoint_union(b.to_graph(), from_edges(2, []))  # plus isolated vertices
    assert abs(rho(g).value - math.sqrt(15)) < 1e-9
    assert rho(path(4)).value < math.sqrt(3) - 1e-6


def test_q_upper_bound_lemma():
    # q <= 2m/(n-1) + n - 2, equality for stars and complete graphs; the
    # scan's m filter for the q rows, verify._NEEDED_EDGES["q"], rests on it
    def bound(g):
        return 2 * g.edge_count() / (g.n - 1) + g.n - 2

    for seed in range(20):
        g = random_graph(7, seed)
        assert q_radius(g).value <= bound(g) + 1e-8
    assert abs(q_radius(star(6)).value - bound(star(6))) < 1e-9
    assert abs(q_radius(complete(6)).value - bound(complete(6))) < 1e-9


@pytest.mark.parametrize("radius", [rho, q_radius])
@pytest.mark.parametrize("stray", [1 << 2, 1 << 5, 1 << 9, 1 << 70])
def test_radii_refuse_rows_with_bits_at_or_above_n(radius, stray):
    # a stray bit inside the row's byte was dropped, so rho returned K2's 1.0
    with pytest.raises(ValueError, match="row 0 .* at or above n = 2"):
        radius(Graph(2, (2 | stray, 1)))


def test_monotone_under_edge_addition():
    g = cycle(6)
    g2 = from_edges(6, list(g.edges()) + [(0, 3)])
    assert rho(g2).value >= rho(g).value - 1e-10
    assert q_radius(g2).value >= q_radius(g).value - 1e-10


def test_disjoint_union_takes_max():
    g, h = complete(4), cycle(5)
    u = disjoint_union(g, h)
    assert abs(rho(u).value - max(rho(g).value, rho(h).value)) < 1e-9


def test_empty_and_tiny_graphs():
    assert rho(from_edges(1, [])).value == 0.0
    assert rho(from_edges(3, [])).value == 0.0
    assert q_radius(from_edges(2, [(0, 1)])).value == pytest.approx(2.0, abs=1e-10)


def test_zero_vertex_graph():
    for estimate in (rho(from_edges(0, [])), q_radius(from_edges(0, []))):
        assert (estimate.value, estimate.iterations) == (0.0, 0)
    assert [bound.tolist() for bound in cw_bounds(np.zeros((2, 0, 0)))] == [[0.0] * 2] * 2


def test_stacked_radius_matches_scalar():
    # rho and q_radius are a stack of one, and eigvalsh takes each matrix of
    # a stack on its own, so a stack gives the scalar estimates bit for bit
    from hamcheck.graphs import bipartite_from_edges

    rng = random.Random(99)
    compared = 0
    for n in [*range(0, 12), 25, 64, 65]:   # 64 and up overflow one int64 per row
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.random()) for _ in range(40)]
        graphs.append(from_edges(n, []))  # zero adjacency, and for n > 0 zero Q
        for scalar, which in ((rho, ADJACENCY), (q_radius, SIGNLESS_LAPLACIAN)):
            assert radius_stack(matrix_stack(graphs, which)) == [scalar(g) for g in graphs]
            compared += len(graphs)
    sides = [bipartite_from_edges(3, 4, [(x, y) for x in range(3) for y in range(4)
                                         if rng.random() < 0.6]) for _ in range(20)]
    assert radius_stack(matrix_stack(sides, ADJACENCY)) == [rho(b) for b in sides]
    assert compared == 15 * 41 * 2


def test_radii_from_a_bit_matrix_are_the_radii_of_the_graph_object():
    # analyze takes a record's radii from its 0/1 adjacency matrix, and a
    # checker without one has it unpacked from the object: either way each
    # must be the radius of the graph object the hypothesis names, bit for bit
    from hamcheck.conditions import hypothesis_radius
    from hamcheck.graphs import bipartite_from_edges, bit_matrix

    def of_object(quantity, obj):
        return (rho if RADII[quantity].matrix == ADJACENCY else q_radius)(OPERAND[quantity](obj))

    rng = random.Random(7)
    for n in (1, 2, 5, 13, 25, 64, 65):
        for g in (random_graph(n, rng.randrange(10 ** 6), p=rng.random()), complete(n)):
            bits = bit_matrix(g.adj, n)
            assert (rho(bits), q_radius(bits)) == (rho(g), q_radius(g))
            for quantity in ("rho", "q", "q_complement"):
                want = of_object(quantity, g)
                assert hypothesis_radius(quantity, g, bits) == hypothesis_radius(quantity, g) == want
    for p, q in ((1, 1), (3, 3), (4, 3), (33, 32), (40, 40)):
        b = bipartite_from_edges(p, q, [(x, y) for x in range(p) for y in range(q)
                                        if rng.random() < 0.6])
        bits = bit_matrix(b.to_graph().adj, p + q)
        for quantity in ("rho", "rho_star"):
            want = of_object(quantity, b)
            assert hypothesis_radius(quantity, b, bits) == hypothesis_radius(quantity, b) == want


def _matrices_from_edges(n, edges):
    """A and A + diag(degrees), written entry by entry from an edge list."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a, a + np.diag(a.sum(axis=1))


def test_matrix_stack_matches_edge_list_construction():
    # radius_stack and the dense oracle both read matrix_stack, so pin it
    # against matrices built here from each graph's edges
    from hamcheck.graphs import bipartite_from_edges

    rng = random.Random(5)
    for n in [*range(0, 11), 64, 65]:
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.random()) for _ in range(5)]
        want = [_matrices_from_edges(n, g.edges()) for g in graphs]
        for k, which in enumerate((ADJACENCY, SIGNLESS_LAPLACIAN)):
            got = matrix_stack(graphs, which)
            assert got.shape == (len(graphs), n, n)
            assert np.array_equal(got, np.array([pair[k] for pair in want]))
    for p, q in [(1, 1), (2, 3), (4, 2), (3, 5), (0, 3)]:
        cross = [(x, y) for x in range(p) for y in range(q) if rng.random() < 0.6]
        b = bipartite_from_edges(p, q, cross)
        a, signless = _matrices_from_edges(p + q, [(x, p + y) for x, y in cross])
        assert np.array_equal(matrix_stack([b], ADJACENCY)[0], a)
        assert np.array_equal(matrix_stack([b], SIGNLESS_LAPLACIAN)[0], signless)


def test_matrix_stack_of_a_bit_stack_matches_the_graphs():
    # the scan and analyze hand matrix_stack 0/1 matrices, here a
    # non-contiguous stack of a slice's unpacked rows
    rng = random.Random(6)
    for n in [*range(0, 11), 31, 32]:
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.random()) for _ in range(5)]
        rows = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)
        bits = unpack_rows(rows).transpose(0, 2, 1)
        for which in (ADJACENCY, SIGNLESS_LAPLACIAN):
            assert np.array_equal(matrix_stack(bits, which), matrix_stack(graphs, which))


def test_matrix_stack_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown matrix kind"):
        matrix_stack([complete(3)], "laplacian")
    with pytest.raises(ValueError, match="unknown matrix kind"):
        eigen_oracle(complete(3), "laplacian")


def test_table1_spot_values():
    from hamcheck.families import nc_member, np_member, make_family

    assert q_radius(make_family(nc_member(0))).value == pytest.approx(13.1789, abs=5e-5)
    assert q_radius(make_family(np_member(2))).value == pytest.approx(7.4641, abs=5e-5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_bipartite_rho_matches_full_graph(n, seed):
    rng = random.Random(seed)
    p, q = rng.randint(1, 4), rng.randint(1, 4)
    from hamcheck.graphs import bipartite_from_edges

    edges = [(x, y) for x in range(p) for y in range(q) if rng.random() < 0.5]
    b = bipartite_from_edges(p, q, edges)
    assert abs(rho(b).value - rho(b.to_graph()).value) < 1e-9


def test_radius_stack_estimates_do_not_depend_on_the_rest_of_the_stack():
    # the scan hands radius_stack its screen's survivors, so a graph's
    # estimate must be the same bits alone, in any stack, in any order
    rng = random.Random(17)
    for n in (1, 4, 7, 10):
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.random()) for _ in range(30)]
        for which in (ADJACENCY, SIGNLESS_LAPLACIAN):
            matrices = matrix_stack(graphs, which)
            together = radius_stack(matrices)
            alone = [radius_stack(matrices[i:i + 1])[0] for i in range(len(graphs))]
            assert together == alone
            assert radius_stack(matrices[::-1].copy()) == together[::-1]
    assert radius_stack(np.zeros((0, 3, 3))) == []


def _assert_enclosed(graphs):
    """cw_bounds of the graphs' A and Q stacks enclose each matrix's top
    eigenvalue, as eigvalsh computes it."""
    for which in (ADJACENCY, SIGNLESS_LAPLACIAN):
        matrices = matrix_stack(graphs, which)
        lower, upper = cw_bounds(matrices)
        top = np.linalg.eigvalsh(matrices)[:, -1]
        assert (lower <= top).all() and (top <= upper).all(), (which, lower, top, upper)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10 ** 6), st.floats(0.05, 0.95))
def test_cw_bounds_enclose_the_radius_of_random_graphs(n, seed, p):
    _assert_enclosed([random_graph(n, seed + k, p) for k in range(8)])


def _extreme_graphs(n):
    """The empty graph (K1 at n = 1), Kn, the star, the even cycle, every
    K_{p,q} and every pair of disjoint unequal cliques on n vertices: graphs
    with zero rows, regular ones whose x = 1 is an eigenvector, bipartite
    (periodic) ones and reducible ones."""
    graphs = [from_edges(n, []), complete(n), star(n)]
    if n >= 4 and n % 2 == 0:
        graphs.append(cycle(n))
    graphs += [complete_bipartite(p, n - p) for p in range(1, n // 2 + 1)]
    graphs += [disjoint_union(complete(a), complete(n - a)) for a in range(1, (n + 1) // 2)]
    return graphs


@pytest.mark.parametrize("n", range(1, 11))
def test_cw_bounds_enclose_the_radius_of_extreme_graphs(n):
    _assert_enclosed(_extreme_graphs(n))


@pytest.mark.parametrize("n", range(3, 11))
def test_cw_lower_bound_sees_the_larger_of_two_cliques(n):
    # K_a + K_b with a < b is reducible, and x stays constant on each clique,
    # so the smallest ratio is exactly K_a's radius; the lower bound must
    # rise above it to drop the sparse complements the zhou and
    # quasi-complement scans test against an upper threshold
    for a in range(1, (n + 1) // 2):
        g = disjoint_union(complete(a), complete(n - a))
        for which, smaller in ((ADJACENCY, a - 1), (SIGNLESS_LAPLACIAN, 2 * a - 2)):
            lower, _ = cw_bounds(matrix_stack([g], which))
            assert lower[0] > smaller


def test_cw_iterates_are_exact_at_the_largest_scanned_matrices():
    # the rigour of cw_bounds rests on (M + I)^k 1 being computed exactly:
    # at the densest matrix either scan cap allows, Q of K_MAX_ENUM_N and of
    # the complete bipartite graph with the most cells, the float iterates
    # equal the same products in Python ints, all below 2^53
    p = max(p for p in range(1, MAX_BIP_CELLS + 1) if p * p <= MAX_BIP_CELLS)
    for g in (complete(MAX_ENUM_N), complete_bipartite(p, p)):
        matrix = matrix_stack([g], SIGNLESS_LAPLACIAN)[0]
        b = [[int(v) + (i == j) for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        x = [1] * len(b)
        for _ in range(CW_STEPS):
            x = [sum(bij * xj for bij, xj in zip(row, x)) for row in b]
        y = [sum(bij * xj for bij, xj in zip(row, x)) for row in b]
        assert max(y) < 2 ** 53
        fx, fy = _cw_iterates(matrix[None])
        assert fx[0].tolist() == x and fy[0].tolist() == y
