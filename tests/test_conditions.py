import dataclasses
import math
import random
from itertools import combinations, compress, product

import numpy as np
import pytest

import hamcheck
from hamcheck import conditions
from hamcheck.conditions import (
    BOUNDARY,
    CMP_TOL,
    CONDITIONS,
    GENERAL,
    GUARANTEED,
    HAMILTONIAN,
    INCONCLUSIVE,
    JoinWitness,
    Status,
    Verdict,
    check_theorem,
    decide,
    ec_ep_membership,
    join_clauses,
    nc_np_membership,
    recognize_family,
)
from hamcheck.families import (
    FamilyId,
    FamilyTag,
    NC_GRAPHS,
    NP_GRAPHS,
    kn1_plus_edge,
    knn1_plus_2e,
    knn1_plus_edge,
    kpn2_plus_4e,
    make_family,
    nc_member,
    np_member,
)
from hamcheck.graphs import (
    BipartiteGraph,
    bipartite_from_edges,
    bits,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    join,
    relabel,
    star,
    transpose,
)
from hamcheck.iso import is_isomorphic
from hamcheck.spectral import SpectralEstimate


def cert(v):
    return dict(v.certificate)


def _all_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    return [from_edges(n, compress(pairs, chosen))
            for chosen in product((0, 1), repeat=len(pairs))]


def _all_balanced_bipartite(n):
    """Every labeled bipartite graph with sides (n, n)."""
    cells = list(product(range(n), repeat=2))
    return [bipartite_from_edges(n, n, compress(cells, chosen))
            for chosen in product((0, 1), repeat=len(cells))]


# ------------------------------------------------------- the public entry

def test_check_theorem_answers_every_theorem_as_the_scan_checks_it():
    from hamcheck.verify import THEOREMS, theorem_ids

    objects = {GENERAL: NC_GRAPHS[8], "bip_balanced": kpn2_plus_4e(4, 4),
               "bip_unbalanced": complete_bipartite(4, 3)}
    for tid in theorem_ids():
        obj = objects[CONDITIONS[tid].kind]
        assert check_theorem(tid, obj) == THEOREMS[tid].checker(obj), tid


def test_decide_answers_every_row_as_check_theorem_does():
    # a degree row has no threshold, yet decide answers it as it answers
    # every other row
    c6 = bipartite_from_edges(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    objects = {
        GENERAL: [complete(2), complete(5), cycle(5), kn1_plus_edge(5), NC_GRAPHS[8], NP_GRAPHS[6]],
        "bip_balanced": [complete_bipartite(4, 4), kpn2_plus_4e(4, 4), knn1_plus_edge(4), c6,
                         complete_bipartite(3, 2)],
        "bip_unbalanced": [complete_bipartite(4, 3), complete_bipartite(3, 4), knn1_plus_2e(4),
                           complete_bipartite(2, 2)],
    }
    degree_statuses = set()
    for tid, row in CONDITIONS.items():
        for obj in objects[row.kind]:
            v = decide(row, obj)
            assert v == check_theorem(tid, obj), (tid, obj)
            # degrees handed in, as analyze hands them, side X first
            degrees = obj.degrees() if row.kind == GENERAL else obj.degrees_x() + obj.degrees_y()
            assert decide(row, obj, degrees=degrees) == v, (tid, obj)
            if row.quantity is None:
                degree_statuses.add(v.status)
    assert degree_statuses == {Status.GUARANTEED, Status.INCONCLUSIVE, Status.NOT_APPLICABLE}


def test_check_theorem_refuses_an_unknown_id():
    with pytest.raises(KeyError, match="hamiltonian_tight"):
        check_theorem("hamiltonian_tight", complete(5))


def test_check_theorem_forwards_the_estimate():
    # q(C4) = 4 = 2n-4 exactly, on Yu-Fan's strict Hamiltonian bound
    assert check_theorem("yu-fan-hamiltonian", cycle(4)).status is Status.BOUNDARY
    above = SpectralEstimate(4.0 + 1e-6, 0)
    v = check_theorem("yu-fan-hamiltonian", cycle(4), estimate=above)
    assert v.status is Status.GUARANTEED and cert(v)["q"] == above.value


def test_every_row_takes_either_graph_kind():
    """A general row judges a bipartite graph as the graph it is, side X
    first, so the Zhou rows read its complement, not its quasi-complement;
    a bipartite row does not apply to a Graph."""
    graphs = [complete(5), cycle(6), star(4), complete(1)]
    bipartite = [complete_bipartite(4, 4), kpn2_plus_4e(4, 4), knn1_plus_edge(4),
                 complete_bipartite(4, 3), knn1_plus_2e(4), complete_bipartite(1, 1),
                 bipartite_from_edges(3, 3, [(0, 0), (1, 1)])]
    for tid, row in CONDITIONS.items():
        for g in graphs:
            v = check_theorem(tid, g)
            assert isinstance(v, Verdict), (tid, g)
            if row.kind != GENERAL:
                assert v == Verdict(Status.NOT_APPLICABLE, row.prop, note="needs a bipartite graph")
        for b in bipartite:
            v = check_theorem(tid, b)
            assert isinstance(v, Verdict), (tid, b)
            if row.kind == GENERAL:
                assert v == check_theorem(tid, b.to_graph()), (tid, b)


def _across(t):
    """Spectral values 2 CMP_TOL below, CMP_TOL/2 below, CMP_TOL/2 above and
    2 CMP_TOL above the threshold t: off and on the line on either side."""
    return [t - 2 * CMP_TOL, t - CMP_TOL / 2, t + CMP_TOL / 2, t + 2 * CMP_TOL]


@pytest.mark.parametrize("theorem_id, threshold, values, fails, on_line", [
    # an edge count is exact: at equality a strict row ("gt") fails and a
    # non-strict one ("ge") holds, and neither is on the line
    ("lemma-3.4", 9.0, [8, 9, 10], [True, True, False], [False] * 3),
    ("lemma-2.5", 7, [6, 7, 8], [True, False, False], [False] * 3),
    # a spectral radius ("ge", "gt", "le") fails only beyond CMP_TOL, and is
    # on the line within it
    ("tight-q-traceable", 5.0, _across(5.0), [True, False, False, False], [False, True, True, False]),
    ("yu-fan-hamiltonian", 4.0, _across(4.0), [True, False, False, False], [False, True, True, False]),
    ("zhou-complement-hamiltonian", 4.0, _across(4.0), [False, False, False, True],
     [False, True, True, False]),
    # a strict edge count at lemma-3.4's bound at n = 5, (n^2 - 4n + 6)/2 =
    # 5.5: the scalar form judges Python ints into Python bools
    ("lemma-3.4", 5.5, [5, 6, 7], [True, False, False], [False] * 3),
])
def test_judge_is_the_one_threshold_rule(theorem_id, threshold, values, fails, on_line):
    row = CONDITIONS[theorem_id]
    assert [tuple(map(bool, row.judge(v, threshold))) for v in values] == list(zip(fails, on_line))
    # an array is judged elementwise, as the scan and tightness_search pass it
    array = np.array(values, dtype=float)
    got_fails, got_on_line = row.judge(array, threshold)
    assert (got_fails.tolist(), got_on_line.tolist()) == (fails, on_line)
    # ladder reads judge: Inconclusive if it fails, Boundary on the line,
    # else Guaranteed; unmet if it fails or is on a strict row's line
    codes = [INCONCLUSIVE if f else BOUNDARY if o else GUARANTEED for f, o in zip(fails, on_line)]
    unmet = [f or (o and row.strict) for f, o in zip(fails, on_line)]
    # the scalar form, on the values as given: on lemma-3.4's Python ints,
    # judge returns Python bools, and ~True == -2 is truthy, so an unmet
    # built with ~ would come out true where the value meets the bound
    scalar = [row.ladder(v, threshold) for v in values]
    assert [(int(code), bool(u)) for code, u in scalar] == list(zip(codes, unmet))
    got_codes, got_unmet = row.ladder(array, threshold)
    assert (got_codes.tolist(), got_unmet.tolist()) == (codes, unmet)


def test_verdict_and_spectral_records_keep_their_api():
    v = Verdict(Status.GUARANTEED, HAMILTONIAN)
    assert (v.certificate, v.family, v.note) == ((), None, "")
    full = Verdict(Status.EXCEPTION, HAMILTONIAN, (("q", 1.0),), nc_member(8), "x")
    assert (full.status, full.prop, full.certificate, full.family, full.note) == (
        Status.EXCEPTION, HAMILTONIAN, (("q", 1.0),), nc_member(8), "x")
    est = SpectralEstimate(4.0, 0)
    assert (est.value, est.iterations) == (4.0, 0)
    assert SpectralEstimate._fields == ("value", "iterations")
    for record, field in ((v, "status"), (est, "value")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert hash(v) == hash(Verdict(Status.GUARANTEED, HAMILTONIAN))
    assert hash(est) == hash(SpectralEstimate(4.0, 0))
    for record in (Verdict, SpectralEstimate):
        assert record.__name__ in hamcheck.__all__
        assert getattr(hamcheck, record.__name__) is record


# ---------------------------------------------------------------- chvatal

def test_chvatal_examples():
    assert check_theorem("chvatal", complete(5)).status is Status.GUARANTEED
    k4e = kn1_plus_edge(5)  # degrees (1,3,3,3,4) up to order
    v = check_theorem("chvatal", k4e)
    assert v.status is Status.INCONCLUSIVE and cert(v)["k"] == 1
    v = check_theorem("chvatal", NC_GRAPHS[8])  # K2 v 3K1, degrees (2,2,2,4,4)
    assert v.status is Status.INCONCLUSIVE and cert(v)["k"] == 2
    v = check_theorem("chvatal", cycle(5))
    assert v.status is Status.INCONCLUSIVE and cert(v)["k"] == 2
    assert check_theorem("chvatal", complete(2)).status is Status.NOT_APPLICABLE


# ------------------------------------------------------- bipartite degree

def test_bipartite_degree_examples():
    assert check_theorem("bipartite-degree", complete_bipartite(4, 4)).status is Status.GUARANTEED
    v = check_theorem("bipartite-degree", kpn2_plus_4e(4, 4))
    assert v.status is Status.INCONCLUSIVE and cert(v)["k"] == 2
    c8 = bipartite_from_edges(4, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)])
    v = check_theorem("bipartite-degree", c8)
    assert v.status is Status.INCONCLUSIVE and cert(v)["k"] == 2
    v = check_theorem("bipartite-degree", complete_bipartite(3, 2))
    assert v.status is Status.NOT_APPLICABLE


# ------------------------------------------------------------- moon-moser

def test_moon_moser_examples():
    assert check_theorem("moon-moser", complete_bipartite(3, 3)).status is Status.GUARANTEED
    # C6 as (3,3): degree sums of nonadjacent pairs are 4 = n+1, so the
    # condition holds (and C6 is indeed Hamiltonian)
    c6 = bipartite_from_edges(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    assert check_theorem("moon-moser", c6).status is Status.GUARANTEED
    p6 = bipartite_from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    v = check_theorem("moon-moser", p6)
    assert v.status is Status.INCONCLUSIVE and cert(v)["degree_sum"] < 4
    minus_one = bipartite_from_edges(
        3, 3, [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    )
    assert check_theorem("moon-moser", minus_one).status is Status.GUARANTEED


# -------------------------------------------- degree conditions as loops

def _chvatal_loop(g):
    n, d = g.n, sorted(g.degrees())
    for k in range(1, (n + 1) // 2):
        if d[k - 1] <= k and d[n - k - 1] <= n - k - 1:
            return Status.INCONCLUSIVE, (("k", k), ("d_k", d[k - 1]), ("d_n_minus_k", d[n - k - 1]))
    return Status.GUARANTEED, (("margin", 0.0),)


def _bipartite_degree_loop(b):
    n, d = b.p, sorted(b.degree_sequence())
    for k in range(1, n // 2 + 1):
        if d[k - 1] <= k and d[n - 1] <= n - k:
            return Status.INCONCLUSIVE, (("k", k), ("d_k", d[k - 1]), ("d_n", d[n - 1]))
    return Status.GUARANTEED, (("margin", 0.0),)


def _moon_moser_loop(b):
    n, dx, dy = b.p, b.degrees_x(), b.degrees_y()
    worst = None
    for x in range(n):
        for y in range(n):
            if not b.has_edge(x, y) and (worst is None or dx[x] + dy[y] < worst[2]):
                worst = (x, y, dx[x] + dy[y])
    if worst is not None and worst[2] < n + 1:
        return Status.INCONCLUSIVE, (("x", worst[0]), ("y", worst[1]),
                                     ("degree_sum", worst[2]), ("required", n + 1))
    return Status.GUARANTEED, (("margin", 0.0 if worst is None else float(worst[2] - n - 1)),)


def test_degree_checkers_match_their_loop_form():
    # Chvatal and bipartite-degree are Python functions of the sorted degrees,
    # and Moon-Moser evaluates its inequality on numpy arrays; each theorem's
    # verdicts and certificates must equal these loops', with Python numbers only
    rng = random.Random(4)
    graphs = [g for n in range(3, 6) for g in _all_graphs(n)]
    sides = [b for n in range(2, 4) for b in _all_balanced_bipartite(n)]
    for _ in range(300):
        n, p = rng.randrange(3, 40), rng.random()
        graphs.append(from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
        n, p = rng.randrange(2, 35), rng.random()
        sides.append(bipartite_from_edges(
            n, n, [(x, y) for x in range(n) for y in range(n) if rng.random() < p]))
    for theorem_id, loop, objs in (
        ("chvatal", _chvatal_loop, graphs),
        ("bipartite-degree", _bipartite_degree_loop, sides),
        ("moon-moser", _moon_moser_loop, sides),
    ):
        for obj in objs:
            v = check_theorem(theorem_id, obj)
            assert (v.status, v.certificate) == loop(obj)
            assert all(type(value) in (int, float) for _, value in v.certificate)


# ------------------------------------------------------------ edge bounds

def test_edge_bound_bipartite_examples():
    v = check_theorem("lemma-2.5", knn1_plus_edge(4))
    assert v.status is Status.EXCEPTION
    assert v.family == FamilyId(FamilyTag.KNN1_PLUS_EDGE, (4,))
    # K_{4,4} minus a perfect matching: m=12=n^2-2n+4 but not the exception
    minus_pm = bipartite_from_edges(
        4, 4, [(x, y) for x in range(4) for y in range(4) if x != y]
    )
    assert check_theorem("lemma-2.6", minus_pm).status is Status.GUARANTEED
    # K_{3,3} minus two independent edges: m=7 >= 6
    minus_two = bipartite_from_edges(
        3, 3, [(x, y) for x in range(3) for y in range(3) if (x, y) not in ((0, 0), (1, 1))]
    )
    assert check_theorem("lemma-2.8", minus_two).status is Status.GUARANTEED
    assert check_theorem("lemma-2.6", kpn2_plus_4e(5, 5)).status is Status.EXCEPTION


def test_edge_bound_general_examples():
    v = check_theorem("lemma-3.4", NC_GRAPHS[5])  # K2 v (K2+2K1), m=10 > 9
    assert v.status is Status.EXCEPTION and v.family == nc_member(5)
    # K2 v (K2 + K_{1,2}) on 7 vertices: m=14 > 13.5, Hamiltonian
    inner = disjoint_union(complete(2), star(3))
    g = join(complete(2), inner)
    assert g.n == 7 and g.edge_count() == 14
    assert check_theorem("lemma-3.4", g).status is Status.GUARANTEED
    v = check_theorem("lemma-3.6", NP_GRAPHS[6])  # 2K2, m=2 > 1.5
    assert v.status is Status.EXCEPTION and v.family == np_member(6)
    assert check_theorem("lemma-3.4", cycle(6)).status is Status.INCONCLUSIVE
    assert check_theorem("lemma-3.4", star(4)).status is Status.NOT_APPLICABLE


def test_exception_requires_isomorphism_not_just_counts():
    # same n and m as K2 v 3K1 but a different (Hamiltonian) graph
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    assert g.edge_count() == NC_GRAPHS[8].edge_count()
    assert g.degree_sequence() != NC_GRAPHS[8].degree_sequence()
    assert check_theorem("lemma-3.4", g).status is Status.GUARANTEED


# ------------------------------------------------------ spectral bipartite

def test_spectral_bipartite_examples():
    v = check_theorem("spectral-bipartite-hamiltonian", complete_bipartite(4, 4))
    assert v.status is Status.GUARANTEED
    # the stated exception never satisfies the hypothesis: rho < sqrt(12)
    v = check_theorem("spectral-bipartite-hamiltonian", kpn2_plus_4e(4, 4))
    assert v.status is Status.INCONCLUSIVE
    v = check_theorem("spectral-bipartite-traceable-unbalanced", knn1_plus_2e(4))
    assert v.status in (Status.EXCEPTION, Status.INCONCLUSIVE)
    if v.status is Status.EXCEPTION:
        assert v.family == FamilyId(FamilyTag.KNN1_PLUS_2E, (4,))
    v = check_theorem("spectral-bipartite-traceable-unbalanced", complete_bipartite(5, 4))
    assert v.status is Status.GUARANTEED
    v = check_theorem("spectral-bipartite-hamiltonian", complete_bipartite(3, 3))
    assert v.status is Status.NOT_APPLICABLE


def test_quasi_complement_examples():
    for n in (3, 4):
        v = check_theorem("quasi-complement", complete_bipartite(n, n))
        assert v.status is Status.GUARANTEED
    # n=2 threshold is 0 and rho(empty quasi-complement)=0: exactly at the
    # line, so the global boundary rule applies
    assert check_theorem("quasi-complement", complete_bipartite(2, 2)).status is Status.BOUNDARY
    minus_one = bipartite_from_edges(
        4, 4, [(x, y) for x in range(4) for y in range(4) if (x, y) != (0, 0)]
    )
    assert check_theorem("quasi-complement", minus_one).status is Status.BOUNDARY
    c8 = bipartite_from_edges(4, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)])
    assert check_theorem("quasi-complement", c8).status is Status.INCONCLUSIVE
    assert check_theorem("quasi-complement", complete_bipartite(3, 2)).status is Status.NOT_APPLICABLE


# ----------------------------------------------------------- q-conditions

def test_q_spectral_examples():
    v = check_theorem("tight-q-hamiltonian", NC_GRAPHS[2])  # K3 v 4K1
    assert v.status is Status.EXCEPTION and v.family == nc_member(2)
    v = check_theorem("tight-q-traceable", star(5))  # q = 5 = 2n-5 exactly
    assert v.status is Status.EXCEPTION
    assert v.family == FamilyId(FamilyTag.STAR, (5,))
    assert abs(cert(v)["margin"]) <= 1e-8
    assert check_theorem("yu-fan-hamiltonian", complete(6)).status is Status.GUARANTEED
    v = check_theorem("yu-fan-hamiltonian", kn1_plus_edge(6))
    assert v.status is Status.EXCEPTION
    # published statement misses this graph; the checker must not claim Guaranteed
    v = check_theorem("tight-q-hamiltonian", NC_GRAPHS[5])  # K2 v (K2+2K1), n=6
    assert v.status is Status.EXCEPTION and v.family == nc_member(5)
    v = check_theorem("yu-connected-traceable", NP_GRAPHS[2])  # K2 v 4K1, n=6
    assert v.status is Status.EXCEPTION
    v = check_theorem("yu-connected-traceable", star(4))  # q = 4 = threshold
    assert v.status is Status.EXCEPTION
    v = check_theorem("yu-connected-traceable", disjoint_union(cycle(3), cycle(3)))
    assert v.status is Status.NOT_APPLICABLE


def test_strict_threshold_boundary_is_unresolved():
    # q(C4) = 4 = 2n-4 exactly; the Yu-Fan Hamiltonian bound is strict
    v = check_theorem("yu-fan-hamiltonian", cycle(4))
    assert v.status is Status.BOUNDARY
    # the traceable counterpart is non-strict, and C4 matches no exception
    v = check_theorem("yu-fan-traceable", cycle(4))
    assert v.status is Status.GUARANTEED or v.status is Status.BOUNDARY


# ------------------------------------------------------------------- zhou

def test_zhou_examples():
    assert check_theorem("zhou-complement-hamiltonian", complete(5)).status is Status.GUARANTEED
    hub = join(complete(1), disjoint_union(complete(2), complete(2)))
    v = check_theorem("zhou-complement-hamiltonian", hub)
    assert v.status is Status.EXCEPTION  # EC type (a)
    # q(complement C5) = q(C5) = 4 = n-1 exactly: reported Boundary, not Guaranteed
    assert check_theorem("zhou-complement-hamiltonian", cycle(5)).status is Status.BOUNDARY
    assert check_theorem("zhou-complement-hamiltonian", complete(2)).status is Status.NOT_APPLICABLE
    v = check_theorem("zhou-complement-traceable", empty_graph(2))
    assert v.status is Status.EXCEPTION  # 2K1 is 0-regular of degree n/2-1


def test_ec_ep_membership():
    assert ec_ep_membership(join(complete(1), disjoint_union(complete(2), complete(2))), "EC")
    assert ec_ep_membership(cycle(6), "EP")  # 2-regular of degree n/2-1
    assert ec_ep_membership(disjoint_union(complete(3), complete(2)), "EP")  # two cliques
    assert ec_ep_membership(cycle(5), "EC") is None  # connected complement, no join
    # K5 is not in EC: K4 is 3-regular, not (5-1)/2 - 1 = 1-regular, and
    # K1 v K4 has one complete component, not two
    assert ec_ep_membership(complete(5), "EC") is None
    assert ec_ep_membership(cycle(7), "EP") is None


def test_nc_np_membership():
    assert nc_np_membership(complete_bipartite(3, 2).to_graph()) == nc_member(7)
    assert nc_np_membership(complete_bipartite(4, 2).to_graph()) == np_member(3)
    assert nc_np_membership(cycle(5)) is None


def test_exceptional_graphs_are_built_once(monkeypatch):
    from hamcheck import conditions

    from hamcheck import iso

    built = []

    def counting_make_family(fid):
        built.append(fid)
        return make_family(fid)

    monkeypatch.setattr(conditions, "make_family", counting_make_family)
    # the caches: the graphs per family id, each row's targets per size,
    # and the signatures of each graph tested against
    conditions._family_graph.cache_clear()
    conditions._exception_targets.cache_clear()
    iso._target_signatures.cache_clear()
    row = conditions.CONDITIONS["lemma-3.6"]
    listed = row.exceptions(6)
    assert len(listed) == 4 and np_member(3) in listed
    for _ in range(3):
        assert conditions.decide(row, complete(6)).status is Status.GUARANTEED
        # K2,4, which its degrees do not determine, so it is searched for
        assert conditions.decide(row, make_family(np_member(3))).family == np_member(3)
    assert sorted(built, key=str) == sorted(listed, key=str)
    # and the signatures of each target tested for isomorphism are taken once
    tested = iso._target_signatures.cache_info()
    assert tested.misses and tested.hits and tested.currsize == tested.misses
    # a family without a canonical graph is remembered as such
    no_graph = FamilyId(FamilyTag.JOIN_EXPR)
    for _ in range(3):
        assert not recognize_family(complete(6), no_graph)
    assert built.count(no_graph) == 1


def test_recognize_family_label_invariance():
    rng = random.Random(3)
    for fid in (nc_member(4), np_member(5), FamilyId(FamilyTag.KN1_PLUS_EDGE, (5,))):
        base = make_family(fid)
        g = base.to_graph() if hasattr(base, "to_graph") else base
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert recognize_family(relabel(g, perm), fid)
    # degree multiset mismatch rejects quickly
    c8 = bipartite_from_edges(4, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)])
    assert not recognize_family(c8, FamilyId(FamilyTag.KPN2_PLUS_4E, (4, 4)))
    assert recognize_family(kpn2_plus_4e(4, 4), FamilyId(FamilyTag.KPN2_PLUS_4E, (4, 4)))


def test_monotone_guaranteed_under_edge_addition():
    # lemma-3.4 (Hamiltonian): adding an edge never demotes Guaranteed
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(5, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8]
        g = from_edges(n, edges)
        if g.min_degree() < 2:
            continue
        if check_theorem("lemma-3.4", g).status is not Status.GUARANTEED:
            continue
        non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)]
        if not non_edges:
            continue
        g2 = from_edges(n, edges + [non_edges[0]])
        assert check_theorem("lemma-3.4", g2).status is not Status.INCONCLUSIVE


def test_verdict_invariants():
    # Exception implies family set and isomorphic to the input
    samples = [
        (check_theorem("lemma-3.4", NC_GRAPHS[8]), NC_GRAPHS[8]),
        (check_theorem("tight-q-traceable", star(5)), star(5)),
    ]
    for v, g in samples:
        assert v.status is Status.EXCEPTION
        assert v.family is not None
        assert recognize_family(g, v.family)


# ec_ep_membership before it returned early on degrees; the early returns
# must not change a single answer
def _reference_regular_join_witness(g, target_deg, r_max, kind):
    degrees = g.degrees()
    odd_mask = 0
    for v in range(g.n):
        if degrees[v] != target_deg:
            odd_mask |= 1 << v
    comps = connected_components(complement(g))
    b_mask = 0
    for comp in comps:
        if comp & odd_mask:
            b_mask |= comp
    if b_mask == 0:
        if len(comps) < 2:
            return None
        b_mask = min(comps, key=lambda c: c.bit_count())
    if not 1 <= b_mask.bit_count() <= r_max:
        return None
    a_mask = ((1 << g.n) - 1) ^ b_mask
    if a_mask == 0:
        return None
    return JoinWitness(kind, tuple(bits(a_mask)), tuple(bits(b_mask)))


def _reference_is_complete_mask(g, mask):
    return all(g.adj[v] & mask == mask ^ (1 << v) for v in bits(mask))


def _reference_ec_ep_membership(g, family):
    n = g.n
    degrees = g.degrees()
    if family == "EC":
        for u in range(n):
            if degrees[u] == n - 1 and n >= 3:
                rest = [v for v in range(n) if v != u]
                sub = induced_subgraph(g, rest)
                comps = connected_components(sub)
                if len(comps) == 2 and all(_reference_is_complete_mask(sub, c) for c in comps):
                    sides = tuple(tuple(rest[i] for i in bits(c)) for c in comps)
                    return JoinWitness("trivial-join-two-cliques", (u,), sides[0] + sides[1])
        if n >= 3 and (n - 1) % 2 == 0:
            return _reference_regular_join_witness(g, (n - 1) // 2, (n - 1) // 2, "regular-join")
        return None
    if n % 2 == 0 and all(d == n // 2 - 1 for d in degrees):
        return JoinWitness("regular", tuple(range(n)), ())
    comps = connected_components(g)
    if len(comps) == 2 and all(_reference_is_complete_mask(g, c) for c in comps):
        return JoinWitness("two-complete-components", tuple(bits(comps[0])), tuple(bits(comps[1])))
    if n % 2 == 0 and n >= 4:
        return _reference_regular_join_witness(g, n // 2 - 1, n // 2 - 1, "regular-join")
    return None


@pytest.mark.parametrize("n", range(7))
def test_ec_ep_membership_matches_reference_on_every_small_graph(n):
    found = 0
    for g in _all_graphs(n):
        for family in ("EC", "EP"):
            got = ec_ep_membership(g, family)
            assert got == _reference_ec_ep_membership(g, family), (g, family)
            found += got is not None
    assert found or n < 2


@pytest.mark.parametrize("n", range(7))
def test_every_ec_ep_member_passes_the_degree_test(n):
    # the soundness scan hands the checker only the graphs whose degrees
    # pass join_clauses, so each member must pass the clause that found it
    members = 0
    for g in _all_graphs(n):
        for family in ("EC", "EP"):
            witness = ec_ep_membership(g, family)
            if witness is not None:
                assert witness.kind in join_clauses(family, g.degrees()), (g, family)
                members += 1
    assert members or n < 2


# ------------------------------------------------- exception guard checks

def _relabel_sides(b, rng):
    """b with the vertices of each side permuted, as a BipartiteGraph."""
    xs, ys = list(range(b.p)), list(range(b.q))
    rng.shuffle(xs)
    rng.shuffle(ys)
    rows = [0] * b.p
    for x, row in enumerate(b.rows):
        rows[xs[x]] = sum(1 << ys[y] for y in bits(row))
    return type(b)(b.p, b.q, tuple(rows))


# the spectral bipartite rows' listed exceptions lie below their thresholds,
# so those rows never reach the exception test on them
VACUOUS = {"spectral-bipartite-hamiltonian", "spectral-bipartite-traceable-unbalanced"}


@pytest.mark.parametrize("theorem_id", [
    tid for tid, row in CONDITIONS.items()
    if row.quantity is not None and any(row.exceptions(n) for n in range(row.min_n, 9))])
def test_listed_exceptions_match_under_relabeling(theorem_id):
    # the degree-sequence lookup before is_isomorphic must find every listed
    # graph whatever its labels: through the row as it is, and through the
    # row with a threshold every graph meets, so the exception test runs
    row = CONDITIONS[theorem_id]
    loose = dataclasses.replace(
        row, threshold=lambda n: math.inf if row.direction == "le" else -math.inf)
    rng = random.Random(theorem_id)
    listed = 0
    for n in range(row.min_n, 9):
        for fid in row.exceptions(n):
            listed += 1
            base = make_family(fid)
            for _ in range(3):
                if row.kind == GENERAL:
                    perm = list(range(base.n))
                    rng.shuffle(perm)
                    obj = relabel(base, perm)
                else:
                    obj = _relabel_sides(base, rng)
                    perm = list(range(base.p + base.q))
                    rng.shuffle(perm)
                    assert recognize_family(relabel(base.to_graph(), perm), fid)
                assert decide(loose, obj).family == fid, (n, fid)
                v = decide(row, obj)
                if theorem_id in VACUOUS:
                    assert v.status is Status.INCONCLUSIVE, (n, fid)
                else:
                    assert (v.status, v.family) == (Status.EXCEPTION, fid), (n, fid)
    assert listed


# ------------------------------------ exceptions their degrees determine

@pytest.mark.parametrize("n", range(1, 7))
def test_every_threshold_sequence_has_one_graph(n):
    # the sequences _peels empties are the 2^(n-1) threshold ones, and all
    # the graphs with one of them are isomorphic
    graphs = {}
    for g in _all_graphs(n):
        graphs.setdefault(g.degree_sequence(), []).append(g)
    peeled = [seq for seq in graphs if conditions._peels(seq)]
    assert len(peeled) == 2 ** (n - 1)
    for seq in peeled:
        first, *rest = graphs[seq]
        assert all(is_isomorphic(g, first) for g in rest), seq


@pytest.mark.parametrize("p, q", list(product(range(1, 5), repeat=2)))
def test_every_chain_side_pair_has_one_bipartite_graph(p, q):
    # the side pairs _peels empties are the C(p+q, p) chain graphs' ones, and
    # all the bipartite graphs with one of them are isomorphic
    cells = list(product(range(p), range(q)))
    graphs = {}
    for chosen in product((0, 1), repeat=p * q):
        b = bipartite_from_edges(p, q, compress(cells, chosen))
        graphs.setdefault((tuple(sorted(b.degrees_x())), tuple(sorted(b.degrees_y()))),
                          []).append(b)
    peeled = [sides for sides in graphs if conditions._peels(*sides)]
    assert len(peeled) == math.comb(p + q, p)
    for sides in peeled:
        first, *rest = (b.to_graph() for b in graphs[sides])
        assert all(is_isomorphic(g, first) for g in rest), sides


@pytest.mark.parametrize("p, q", [(2, 3), (3, 3), (3, 4)])
def test_a_chain_target_matches_what_the_search_matches(p, q):
    # a bipartite graph with a chain target's degree sequence but not its side
    # sequences, in either order, is left to the search: at 3 x 4, sides
    # (0, 3, 3 | 1, 1, 2, 2) share the sequence of the chain (1, 2, 3 | 0, 1, 2, 3)
    cells = list(product(range(p), range(q)))
    graphs = [bipartite_from_edges(p, q, compress(cells, chosen))
              for chosen in product((0, 1), repeat=p * q)]
    targets = {}
    for b in graphs:
        sides = (tuple(sorted(b.degrees_x())), tuple(sorted(b.degrees_y())))
        if conditions._peels(*sides):
            seq = b.degree_sequence()
            targets.setdefault(seq, {})[sides] = (sides, b.to_graph(), seq, False, sides)
    for b in graphs:
        for target in targets.get(b.degree_sequence(), {}).values():
            matched = conditions._match(b, b.degrees(), (target,)) is not None
            assert matched == is_isomorphic(b.to_graph(), target[1]), (b, target[0])


def _determined_by(fid):
    """What of its degrees determines fid's graph, as its target records."""
    _, _, _, threshold, sides = conditions._family_graph(fid)
    return "threshold" if threshold else "chain" if sides else None


def test_listed_families_record_what_their_degrees_determine():
    for n in (3, 5, 17, 64):
        assert _determined_by(FamilyId(FamilyTag.KN1_PLUS_EDGE, (n,))) == "threshold"
        assert _determined_by(FamilyId(FamilyTag.KN1_PLUS_VERTEX, (n,))) == "threshold"
        assert _determined_by(FamilyId(FamilyTag.KNN1_PLUS_EDGE, (n,))) == "chain"
        assert _determined_by(FamilyId(FamilyTag.KNN1_PLUS_2E, (n,))) == "chain"
        for p in (n, n + 1):
            assert _determined_by(FamilyId(FamilyTag.KPN2_PLUS_4E, (n, p))) == "chain"
    # a chain target keeps its sorted side sequences, side X first
    sides = conditions._family_graph(FamilyId(FamilyTag.KNN1_PLUS_EDGE, (3,)))[4]
    assert sides == ((2, 2, 3), (1, 3, 3))
    for index in (0, 1, 2, 4):
        assert _determined_by(np_member(index)) == "threshold"
    for index in (0, 1, 2, 4, 5, 8):
        assert _determined_by(nc_member(index)) == "threshold"
    # K2,4 and K2,3 are Graph targets, and K1,2 v 4K1 shares its sequence
    # with other graphs; 2K2 and K1 v 2K2 (a hub and a perfect matching)
    # share theirs with no other graph but do not peel: all five are
    # searched for
    for fid in (np_member(3), np_member(6), nc_member(3), nc_member(6), nc_member(7)):
        assert _determined_by(fid) is None


def _copies(fid, rng):
    """Relabelled copies of fid's graph: a bipartite one with its sides
    permuted, in either orientation."""
    base = make_family(fid)
    if isinstance(base, BipartiteGraph):
        obj = _relabel_sides(base, rng)
        return [obj, transpose(obj)]
    perm = list(range(base.n))
    rng.shuffle(perm)
    return [relabel(base, perm)]


def _loose(row):
    """row with a threshold every graph meets, so the exception test runs."""
    return dataclasses.replace(
        row, threshold=lambda n: math.inf if row.direction == "le" else -math.inf)


@pytest.mark.parametrize("theorem_id", [
    tid for tid, row in CONDITIONS.items()
    if row.quantity is not None and any(row.exceptions(n) for n in range(row.min_n, 9))])
def test_the_degrees_match_what_the_search_matches(theorem_id, monkeypatch):
    row = _loose(CONDITIONS[theorem_id])
    rng = random.Random(theorem_id)
    objs = [(fid, obj) for n in range(row.min_n, 9) for fid in row.exceptions(n)
            for _ in range(3) for obj in _copies(fid, rng)]
    assert [decide(row, obj).family for _, obj in objs] == [fid for fid, _ in objs]
    # again with every target searched for
    targets, searched = conditions._exception_targets, []
    monkeypatch.setattr(conditions, "_exception_targets", lambda exceptions, n: tuple(
        (*target[:3], False, None) for target in targets(exceptions, n)))
    monkeypatch.setattr(conditions, "is_isomorphic",
                        lambda g, h: searched.append(g) or is_isomorphic(g, h))
    assert [decide(row, obj).family for _, obj in objs] == [fid for fid, _ in objs]
    assert len(searched) >= len(objs)


def test_a_determined_target_is_never_searched_for(monkeypatch):
    def search(g, h):
        raise AssertionError("searched for a target its degrees determine")

    monkeypatch.setattr(conditions, "is_isomorphic", search)
    rng = random.Random(38)
    matched = 0
    for row in CONDITIONS.values():
        if row.quantity is None:
            continue
        for n in range(row.min_n, 9):
            for fid in row.exceptions(n):
                if _determined_by(fid) is not None:
                    for obj in _copies(fid, rng):
                        assert decide(_loose(row), obj).family == fid, fid
                        matched += 1
    assert matched
    for fid in (FamilyId(FamilyTag.KN1_PLUS_EDGE, (64,)), FamilyId(FamilyTag.KN1_PLUS_VERTEX, (64,)),
                FamilyId(FamilyTag.KNN1_PLUS_EDGE, (64,)), FamilyId(FamilyTag.KNN1_PLUS_2E, (64,)),
                FamilyId(FamilyTag.KPN2_PLUS_4E, (64, 65))):
        for obj in _copies(fid, rng):
            assert recognize_family(obj, fid)


@pytest.mark.parametrize("theorem_id", [
    tid for tid, row in CONDITIONS.items() if row.quantity is not None])
def test_no_row_lists_two_isomorphic_exceptions_at_one_size(theorem_id):
    # the second of two isomorphic entries could never be reported
    row = CONDITIONS[theorem_id]
    for n in range(row.min_n, 11):
        graphs = []
        for fid in row.exceptions(n):
            built = make_family(fid)
            graphs.append(built.to_graph() if hasattr(built, "to_graph") else built)
        for g, h in combinations(graphs, 2):
            assert not is_isomorphic(g, h), (n, row.exceptions(n))


def _near_clique_graph(n, rng):
    """A graph on n vertices near the EC/EP clauses: two cliques, joined to
    one more vertex or not, or a random graph; then a few pairs flipped."""
    kind = rng.randrange(3)
    if kind == 2:
        p = rng.random()
        g = from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
    else:
        hub = kind == 1
        a = rng.randrange(1, n - hub)
        g = disjoint_union(complete(a), complete(n - hub - a))
        if hub:
            g = join(complete(1), g)
    adj = list(g.adj)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j = rng.sample(range(n), 2)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(type(g)(n, tuple(adj)), perm)


@pytest.mark.parametrize("n", [7, 8])
def test_ec_ep_membership_matches_reference_on_sampled_graphs(n):
    # the degree guards must not change an answer beyond the exhaustive sizes
    rng = random.Random(n)
    found = 0
    for _ in range(20000):
        g = _near_clique_graph(n, rng)
        for family in ("EC", "EP"):
            got = ec_ep_membership(g, family)
            assert got == _reference_ec_ep_membership(g, family), (g, family)
            found += got is not None
    assert found > 1000
