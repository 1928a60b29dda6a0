import random

import networkx as nx
import numpy as np
import pytest

from hamcheck import oracle
from hamcheck.families import NC_GRAPHS, NP_GRAPHS, kn1_plus_edge, kn1_plus_vertex
from hamcheck.graphs import (
    bits,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    is_connected,
    join,
    path,
    relabel,
    star,
)
from hamcheck.oracle import (
    CYCLE,
    PATH,
    HamWitness,
    _check_witness,
    _endpoint_tables,
    backtrack_oracle,
    certify,
    check_witnesses,
    is_hamiltonian,
    is_traceable,
    witness_rows,
)


def random_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def batched(graphs, kind):
    """witness_rows on the graphs of each size, as one witness or None per
    graph, in the order of ``graphs``."""
    out = [None] * len(graphs)
    for n in {g.n for g in graphs}:
        members = [i for i, g in enumerate(graphs) if g.n == n]
        adj = np.array([graphs[i].adj for i in members], dtype=np.uint32).reshape(len(members), n)
        found, orders = witness_rows(adj, kind)
        for i, order in zip(np.array(members)[found].tolist(), orders.tolist()):
            out[i] = HamWitness(kind, tuple(order))
    return out


def check_cycle_witness(g, w):
    assert w.kind == "cycle"
    order = w.order
    assert sorted(order) == list(range(g.n))
    for a, b in zip(order, order[1:] + (order[0],)):
        assert g.has_edge(a, b)


def check_path_witness(g, w):
    assert w.kind == "path"
    order = w.order
    assert sorted(order) == list(range(g.n))
    for a, b in zip(order, order[1:]):
        assert g.has_edge(a, b)


def test_easy_positives():
    for g in (cycle(5), complete(7), complete_bipartite(4, 4).to_graph()):
        check_cycle_witness(g, is_hamiltonian(g))
        check_path_witness(g, is_traceable(g))
    check_path_witness(path(6), is_traceable(path(6)))


def test_easy_negatives():
    assert is_hamiltonian(path(5)) is None
    assert is_hamiltonian(star(5)) is None
    assert is_traceable(star(5)) is None
    assert is_hamiltonian(complete_bipartite(3, 2).to_graph()) is None
    assert is_traceable(disjoint_union(cycle(3), cycle(3))) is None


def test_petersen():
    # hypohamiltonian: traceable but not Hamiltonian
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = from_edges(10, outer + spokes + inner)
    assert is_hamiltonian(g) is None
    check_path_witness(g, is_traceable(g))


def test_small_sizes():
    assert is_hamiltonian(complete(1)) is None  # needs n >= 3
    assert is_hamiltonian(complete(2)) is None
    assert is_hamiltonian(complete(3)) is not None
    assert is_traceable(complete(1)) is not None
    assert is_traceable(from_edges(2, [])) is None


def test_exception_families_refuted():
    for g in NC_GRAPHS:
        assert is_hamiltonian(g) is None
    for g in NP_GRAPHS:
        assert is_traceable(g) is None
    for n in range(3, 9):
        assert is_traceable(kn1_plus_vertex(n)) is None


def test_backtrack_agrees_with_dp():
    for n in range(3, 9):
        for seed in range(40):
            g = random_graph(n, seed * 31 + n, p=0.45)
            assert (is_hamiltonian(g) is not None) == backtrack_oracle(g, "cycle")
            assert (is_traceable(g) is not None) == backtrack_oracle(g, "path")


def test_relabeling_invariance():
    rng = random.Random(5)
    for seed in range(20):
        g = random_graph(7, seed)
        perm = list(range(7))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert (is_hamiltonian(g) is None) == (is_hamiltonian(h) is None)
        assert (is_traceable(g) is None) == (is_traceable(h) is None)


def test_traceable_iff_join_k1_hamiltonian():
    # Bondy exercise: G traceable <=> G v K1 Hamiltonian
    for seed in range(60):
        g = random_graph(7, seed, p=0.35)
        assert (is_traceable(g) is not None) == (
            is_hamiltonian(join(g, complete(1))) is not None
        )


def test_size_cap():
    with pytest.raises(ValueError):
        is_hamiltonian(from_edges(25, []))


def test_batched_oracle_matches_the_reference_dp_and_backtracking():
    rng = random.Random(2024)
    graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.choice((0.2, 0.4, 0.6, 0.8)))
              for n in range(1, 11) for _ in range(25)]
    graphs += [
        from_edges(1, []), from_edges(2, []), complete(2),     # n = 1 and 2
        disjoint_union(cycle(3), cycle(4)),                    # disconnected
        star(6), path(7),                                      # delta < 2
        complete_bipartite(2, 3).to_graph(), from_edges(0, []),
    ]
    rng.shuffle(graphs)  # mixed sizes in one call
    for entry, kind in ((is_hamiltonian, "cycle"), (is_traceable, "path")):
        got = batched(graphs, kind)
        # same witnesses, not just answers, as the reference and as a batch of one
        assert [w and w.order for w in got] == [REFERENCE[kind](g) for g in graphs]
        assert got == [entry(g) for g in graphs]
        for g, witness in zip(graphs, got):
            if g.n:
                assert (witness is not None) == backtrack_oracle(g, kind)
        found, orders = witness_rows(np.zeros((0, 5), dtype=np.uint32), kind)
        assert found.shape == (0,) and orders.shape == (0, 5)
    assert any(batched(graphs, "cycle")) and not all(batched(graphs, "path"))


def test_a_batch_of_one_skips_the_tests_refused_already_passed(monkeypatch):
    # is_hamiltonian and is_traceable hand the DP only graphs _refused has
    # passed; a batch's one precondition test is a cycle's minimum degree
    # 2, and a disconnected row goes to the DP, which answers it no
    handed = []

    def recording(adj, kind):
        handed.append(adj.tolist())
        return eligible_rows(adj, kind)

    eligible_rows = oracle._eligible_rows
    monkeypatch.setattr(oracle, "_eligible_rows", recording)
    split = disjoint_union(cycle(3), cycle(4))
    for g in (cycle(8), complete(7), path(6), split, star(5)):
        assert (is_hamiltonian(g) is not None) == backtrack_oracle(g, CYCLE)
        assert (is_traceable(g) is not None) == backtrack_oracle(g, PATH)
    assert [len(g) for g in handed] == [1] * 6 and split.adj not in [tuple(g[0]) for g in handed]
    handed.clear()
    found, _ = witness_rows(np.array([cycle(5).adj, path(5).adj], dtype=np.uint32), CYCLE)
    assert found.tolist() == [True, False] and handed == [[list(cycle(5).adj)]]
    handed.clear()
    found, _ = witness_rows(np.array([split.adj], dtype=np.uint32), PATH)
    assert found.tolist() == [False] and handed == [[list(split.adj)]]


def test_batched_oracle_size_cap():
    with pytest.raises(ValueError):
        witness_rows(np.array([from_edges(25, []).adj], dtype=np.uint32), "path")


@pytest.mark.parametrize("order, kind, message", [
    ((0, 1, 1, 3, 4), "path", "not a permutation"),
    ((0, 1, 2, 3), "path", "not a permutation"),       # a vertex left out
    ((0, 2, 1, 3, 4), "path", r"edge \(0,2\) missing"),
    ((0, 1, 2, 3, 4), "cycle", "does not close"),       # a path of P5, not a cycle
])
def test_witness_check_raises_on_a_bad_witness(order, kind, message):
    g = path(5)
    good = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
    adj = np.array([g.adj] * 3, dtype=np.uint32)
    check_witnesses(adj[:2], good, "path")
    if len(order) == g.n:
        # one bad row among good ones fails the whole batch
        with pytest.raises(AssertionError, match=message):
            check_witnesses(adj, np.vstack([good, [order]]), kind)
    with pytest.raises(AssertionError, match=message):
        _check_witness(g, HamWitness(kind, order))


def test_witness_check_accepts_every_oracle_witness():
    check_witnesses(np.array([cycle(5).adj], dtype=np.uint32), np.array([[0, 1, 2, 3, 4]]),
                    "cycle")
    check_witnesses(np.zeros((0, 4), dtype=np.uint32), np.zeros((0, 4), dtype=np.int64), "cycle")
    _check_witness(complete(1), HamWitness("path", (0,)))


def test_one_order_check_works_above_32_vertices():
    # the one-order check reads Python-int rows, so no uint32 bitset limits n
    g = cycle(40)
    _check_witness(g, HamWitness(CYCLE, tuple(range(40))))
    swapped = (2, 1, 0) + tuple(range(3, 40))
    with pytest.raises(AssertionError, match=r"edge \(0,3\) missing"):
        _check_witness(g, HamWitness(CYCLE, swapped))


def test_witness_rows_match_the_reference_dp():
    rng = random.Random(7)
    for n in range(0, 9):
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.random()) for _ in range(30)]
        adj = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)
        for kind in ("cycle", "path"):
            found, orders = witness_rows(adj, kind)
            want = [REFERENCE[kind](g) for g in graphs]
            assert found.tolist() == [w is not None for w in want]
            assert [tuple(o) for o in orders.tolist()] == [w for w in want if w]


def test_witness_rows_match_the_reference_dp_on_dense_graphs():
    # dense tables hold the most endpoints per subset, so the most choices
    # for each step of the walk back
    rng = random.Random(17)
    for n in range(10, 15):
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=p) for p in (0.7, 0.9)]
        graphs += [complete(n), kn1_plus_edge(n)]
        adj = np.array([g.adj for g in graphs], dtype=np.uint32)
        for kind in ("cycle", "path"):
            found, orders = witness_rows(adj, kind)
            want = [REFERENCE[kind](g) for g in graphs]
            assert found.tolist() == [w is not None for w in want]
            assert [tuple(o) for o in orders.tolist()] == [w for w in want if w]
        # K_{n-1}+e has a cut vertex: traceable, not Hamiltonian
        assert is_hamiltonian(graphs[-1]) is None and is_traceable(graphs[-1])


def _cycle_dp_order(g):
    """A direct cycle DP over g from vertex 0, walked back from the lowest
    vertex that closes the cycle to 0 through the lowest adjacent endpoint:
    the witness is_hamiltonian must give."""
    if g.n < 3:
        return None
    full = (1 << g.n) - 1
    dp = [0] * (full + 1)
    dp[1] = 1
    for mask in range(1, full + 1, 2):
        for v in bits(dp[mask]):
            for u in bits(g.adj[v] & ~mask):
                dp[mask | 1 << u] |= 1 << u
    closers = dp[full] & g.adj[0]
    if not closers:
        return None
    v = (closers & -closers).bit_length() - 1
    order, mask = [v], full
    while mask != 1:
        mask ^= 1 << v
        prevs = dp[mask] & g.adj[v]
        v = (prevs & -prevs).bit_length() - 1
        order.append(v)
    return tuple(reversed(order))


def _path_dp_order(g):
    """A direct path DP over g (any start vertex), walked back from the
    lowest final endpoint through the lowest adjacent endpoint: the
    witness is_traceable must give through the apex reduction."""
    full = (1 << g.n) - 1
    dp = [0] * (full + 1)
    for v in range(g.n):
        dp[1 << v] = 1 << v
    for mask in range(1, full + 1):
        for v in bits(dp[mask]):
            for u in bits(g.adj[v] & ~mask):
                dp[mask | 1 << u] |= 1 << u
    if g.n == 0 or not dp[full]:
        return None
    v = (dp[full] & -dp[full]).bit_length() - 1
    order, mask = [v], full
    while mask != 1 << v:
        mask ^= 1 << v
        prevs = dp[mask] & g.adj[v]
        v = (prevs & -prevs).bit_length() - 1
        order.append(v)
    return tuple(reversed(order))


REFERENCE = {"cycle": _cycle_dp_order, "path": _path_dp_order}


def test_paths_through_the_apex_are_the_direct_path_dp_witnesses():
    rng = random.Random(11)
    graphs = [random_graph(n, rng.randrange(10 ** 6), p=rng.choice((0.2, 0.4, 0.6)))
              for n in range(0, 10) for _ in range(30)]
    want = [_path_dp_order(g) for g in graphs]
    assert [w and w.order for w in map(is_traceable, graphs)] == want
    assert [w and w.order for w in batched(graphs, "path")] == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_endpoint_tables_hold_the_subsets_with_vertex_0(n):
    adj = np.array([complete(n).adj] * 3, dtype=np.uint32)
    dp = _endpoint_tables(adj)
    assert dp.shape == (3, 1 << (n - 1))
    # every subset holding 0 of a complete graph ends at each of its other vertices
    for key in range(1 << (n - 1)):
        subset = key << 1 | 1
        assert dp[0, key] == (subset ^ 1 if subset != 1 else 1)


@pytest.mark.parametrize("n", range(8, 15))
def test_a_batch_of_one_gives_the_reference_dp_witness(n):
    # the form is_hamiltonian, is_traceable and the oracle command hand the
    # DP, where each layer piece's gather spans the vertices of one graph
    rng = random.Random(100 + n)
    graphs = [random_graph(n, rng.randrange(10 ** 6), p=p) for p in (0.3, 0.45, 0.6)]
    graphs += [cycle(n), path(n)]
    for kind in ("cycle", "path"):
        for g in graphs:
            found, orders = witness_rows(np.array([g.adj], dtype=np.uint32), kind)
            want = REFERENCE[kind](g)
            assert found.tolist() == [want is not None]
            assert [tuple(o) for o in orders.tolist()] == ([want] if want else [])
    assert witness_rows(np.array([path(n).adj], dtype=np.uint32), "cycle")[0].tolist() == [False]


@pytest.mark.parametrize("cells", [1 << 20, 64])
def test_a_batchs_tables_are_its_rows_own_tables(monkeypatch, cells):
    # every row of a batch reads only its own column of each gather, at
    # every n up to 12, in one piece per layer (the default bound) or in
    # ragged pieces of a few subsets (64 cells)
    monkeypatch.setattr(oracle, "BATCH_GATHER_CELLS", cells)
    rng = random.Random(23)
    for n in range(1, 13):
        graphs = [random_graph(n, rng.randrange(10 ** 6), p=p) for p in (0.2, 0.5, 0.8)]
        graphs += [complete(n), cycle(n) if n >= 3 else path(n)]
        adj = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)
        dp = _endpoint_tables(adj)
        alone = np.vstack([_endpoint_tables(adj[r:r + 1]) for r in range(len(adj))])
        assert dp.shape == alone.shape == (len(adj), 1 << (n - 1))
        assert np.array_equal(dp, alone)


@pytest.mark.parametrize("cells", [1, 64])
def test_chunking_does_not_change_the_answer(monkeypatch, cells):
    rng = random.Random(13)
    batches = {n: np.array([random_graph(n, rng.randrange(10 ** 6), p=rng.random()).adj
                            for _ in range(12)], dtype=np.uint32).reshape(12, n)
               for n in range(1, 10)}
    want = {(n, kind): witness_rows(adj, kind)
            for n, adj in batches.items() for kind in ("cycle", "path")}
    # 1: one row per table chunk and one subset per layer piece; 64: a few
    # of each, with ragged last chunks and pieces
    monkeypatch.setattr(oracle, "BATCH_TABLE_CELLS", cells)
    monkeypatch.setattr(oracle, "BATCH_GATHER_CELLS", cells)
    for (n, kind), (found, orders) in want.items():
        got_found, got_orders = witness_rows(batches[n], kind)
        assert got_found.tolist() == found.tolist()
        assert got_orders.tolist() == orders.tolist()
    assert any(found.any() and not found.all() for found, _ in want.values())


@pytest.mark.parametrize("n", range(0, 6))
def test_witness_rows_match_the_reference_dp_on_every_labeled_graph(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graphs = [from_edges(n, [e for k, e in enumerate(pairs) if code >> k & 1])
              for code in range(1 << len(pairs))]
    adj = np.array([g.adj for g in graphs], dtype=np.uint32).reshape(len(graphs), n)
    for kind in ("cycle", "path"):
        found, orders = witness_rows(adj, kind)
        want = [REFERENCE[kind](g) for g in graphs]
        assert found.tolist() == [w is not None for w in want]
        assert [tuple(o) for o in orders.tolist()] == [w for w in want if w]


def random_bipartite(a, b, seed, p):
    """A connected bipartite graph with sides of a and b vertices, placed at
    random among the labels: each cross edge with probability p, drawn
    again until the graph is connected."""
    rng = random.Random(seed)
    while True:
        labels = rng.sample(range(a + b), a + b)
        xs, ys = labels[:a], labels[a:]
        g = from_edges(a + b, [(x, y) for x in xs for y in ys if rng.random() < p])
        if is_connected(g):
            return g


@pytest.mark.parametrize("search", [True, False])
def test_certify_agrees_with_backtracking_on_every_atlas_graph(monkeypatch, search):
    # the 1,252 non-empty graphs on at most 7 vertices; with the search off,
    # the obstructions and the DP answer every question on their own
    if not search:
        monkeypatch.setattr(oracle, "_search", lambda g, kind, start, steps: None)
    graphs = [from_edges(h.number_of_nodes(), h.edges())
              for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(graphs) == 1252
    for kind in (CYCLE, PATH):
        assert [certify(g, kind) for g in graphs] == [backtrack_oracle(g, kind) for g in graphs]


def test_certify_agrees_with_the_dp_on_seeded_graphs():
    rng = random.Random(29)
    graphs = []
    for n in range(8, 15):
        graphs += [random_graph(n, rng.randrange(10 ** 6), p=p)
                   for p in (0.15, 0.3, 0.5, 0.7, 0.9) for _ in range(3)]
        graphs += [random_bipartite(n // 2, n - n // 2, rng.randrange(10 ** 6), 0.5),
                   random_bipartite(n // 2 - 1, n - n // 2 + 1, rng.randrange(10 ** 6), 0.5)]
        # K_a v bK1: Hamiltonian iff b <= a, traceable iff b <= a + 1
        graphs += [join(complete(a), empty_graph(n - a)) for a in ((n - 1) // 2, n // 2)]
    asked = []
    for kind, dp in ((CYCLE, is_hamiltonian), (PATH, is_traceable)):
        want = [dp(g) is not None for g in graphs]
        assert [certify(g, kind, lambda h: asked.append(h) or dp(h)) for g in graphs] == want
        assert any(want) and not all(want)
    # the search or an obstruction answers most of them
    assert len(asked) < len(graphs)


@pytest.mark.parametrize("g, kind, want", [
    (complete(18), CYCLE, True),                                    # search
    (complete(18), PATH, True),
    (complete_bipartite(9, 9).to_graph(), CYCLE, True),
    (complete_bipartite(9, 8).to_graph(), PATH, True),              # ends on the larger side
    (complete_bipartite(9, 8).to_graph(), CYCLE, False),            # sides differ
    (complete_bipartite(10, 8).to_graph(), PATH, False),
    (join(complete(6), empty_graph(7)), CYCLE, False),              # S = N(v): 7 > 6 parts
    (join(complete(6), empty_graph(8)), PATH, False),               # 8 > 6 + 1
    (join(complete(1), disjoint_union(complete(8), complete(9))), CYCLE, False),  # cut vertex
])
def test_certify_answers_without_the_dp(g, kind, want):
    def refuse(h):
        raise AssertionError("the DP was asked")
    assert certify(g, kind, refuse) is want


@pytest.mark.parametrize("g, kind, order, message", [
    (complete(5), CYCLE, (0, 1, 1, 3, 4), "not a permutation"),
    (path(5), PATH, (0, 2, 1, 3, 4), r"edge \(0,2\) missing"),
    # K4 less the edge 01: a Hamiltonian path 0-2-3-1 that does not close
    (from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), CYCLE, (0, 2, 3, 1),
     "does not close"),
])
def test_certify_checks_every_order_the_search_returns(monkeypatch, g, kind, order, message):
    monkeypatch.setattr(oracle, "_search", lambda g, kind, start, steps: order)
    with pytest.raises(AssertionError, match=message):
        certify(g, kind)


def test_an_obstruction_answers_before_the_dp(monkeypatch):
    # K6 v 7K1: the one short search fails, and S = N(v) for a vertex v of
    # the 7 leaves 7 > 6 parts, so the DP is never asked
    budgets = []
    search = oracle._search

    def logged(g, kind, start, steps):
        budgets.append((start, steps))
        return search(g, kind, start, steps)

    def refuse(h):
        raise AssertionError("the DP was asked")
    monkeypatch.setattr(oracle, "_search", logged)
    assert certify(join(complete(6), empty_graph(7)), CYCLE, refuse) is False
    # from the lowest-degree vertex, the first of the 7
    assert budgets == [(6, oracle.SHORT_STEPS)]


def test_search_depends_on_the_graph_alone():
    # the RNG is seeded from the adjacency, not from the global state
    g = random_graph(14, 3, p=0.6)
    found = set()
    state = random.getstate()
    try:
        for seed in range(3):
            random.seed(seed)
            found.add(oracle._search(g, CYCLE, 0, oracle.SHORT_STEPS))
    finally:
        random.setstate(state)
    assert len(found) == 1 and None not in found
