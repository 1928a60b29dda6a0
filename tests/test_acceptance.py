"""Acceptance gate: the ten stated criteria, one printed pass/fail line each.

Criterion 5 is special: the published tight-q Hamiltonicity statement is
mathematically false at n=6 (its own Table 1 shows q(K2 v (K2+2K1)) =
7.7588 >= 7.6 = 2n-5+3/(n-1), and the graph is non-Hamiltonian), so the
criterion as stated is unattainable.  The test prints an honest FAIL for
the stated predicate, verifies the counterexample, verifies that the
package's corrected exception set scans clean, and xfails.
"""

import math
import random
import time

import numpy as np
import pytest

from hamcheck.families import (
    NC_GRAPHS,
    NP_GRAPHS,
    kn1_plus_edge,
    kn1_plus_vertex,
    knn1_plus_2e,
    knn1_plus_edge,
    kpn2_plus_4e,
)
from hamcheck.graphs import (
    bipartite_from_edges,
    complete,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    star,
)
from hamcheck.oracle import backtrack_oracle, is_hamiltonian, is_traceable, witness_rows
from hamcheck.spectral import eigen_oracle, q_radius, rho
from hamcheck.verify import soundness, table1_report, tightness_search


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_graph(n, rng, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def test_criterion_1_table1():
    start = time.monotonic()
    rows = table1_report()
    elapsed = time.monotonic() - start
    worst = max(diff for _, _, _, diff in rows)
    ok = len(rows) == 18 and worst <= 5e-5 and elapsed < 1.0
    report(1, ok, f"18 q values, worst |diff|={worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_rho_sqrt_m_equality_law():
    worst = 0.0
    for p in range(1, 13):
        for q in range(p, 13):
            for k in range(3):
                g = disjoint_union(complete_bipartite(p, q).to_graph(), empty_graph(k))
                worst = max(worst, abs(rho(g).value - math.sqrt(p * q)))
    assert worst <= 1e-8
    rng = random.Random(20230826)
    checked = 0
    while checked < 50:
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(x, y) for x in range(p) for y in range(q) if rng.random() < 0.55]
        b = bipartite_from_edges(p, q, edges)
        # K_{p',q'} plus isolated vertices: its nonzero rows are one mask
        if len(set(b.rows) - {0}) <= 1:
            continue
        assert rho(b).value < math.sqrt(b.edge_count()) - 1e-8
        checked += 1
    report(2, True, f"equality on K_pq within {worst:.1e}; 50 strict non-extremal graphs")


def test_criterion_3_q_upper_bound_n6():
    start = time.monotonic()
    n = 6
    pairs = [(i, j) for j in range(n) for i in range(j)]
    basis = np.zeros((len(pairs), n, n))
    for idx, (i, j) in enumerate(pairs):
        basis[idx, i, j] = basis[idx, j, i] = 1.0
        basis[idx, i, i] += 1.0
        basis[idx, j, j] += 1.0
    masks = np.arange(1 << 15, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(15)) & 1).astype(float)
    q_top = np.linalg.eigvalsh(np.tensordot(bits, basis, axes=(1, 0)))[:, -1]
    m = bits.sum(axis=1)
    bound = 2 * m / 5 + 4
    assert (q_top <= bound + 1e-8).all()
    eq_idx = np.nonzero(np.abs(q_top - bound) <= 1e-8)[0]
    from hamcheck.iso import is_isomorphic

    expected = [star(6), complete(6), kn1_plus_vertex(6)]
    for idx in eq_idx:
        g = from_edges(n, [pair for k, pair in enumerate(pairs) if masks[idx] >> k & 1])
        assert any(is_isomorphic(g, h) for h in expected)
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    report(3, ok, f"32768 graphs, {len(eq_idx)} equality cases "
                  f"(all K_1,5 / K_6 / K_5+v), {elapsed:.1f}s")
    assert ok


def test_criterion_4_lemma_3_4_soundness():
    total_hits = 0
    for n in (5, 6, 7):
        r = soundness("lemma-3.4", sizes=[n])
        assert r.violations == []
        total_hits += r.hypothesis_hits
    report(4, True, f"n in 5..7 exhaustive, {total_hits} hypothesis hits, zero violations")


def test_criterion_5_tight_q_hamiltonian_soundness():
    missed = "NC[5] K2 v (K2 + 2K1)"
    reports = {n: soundness("tight-q-hamiltonian", sizes=[n]) for n in (5, 6, 7)}
    for r in reports.values():
        assert r.violations == []  # corrected exception set scans clean
    # the two stated exceptions are genuinely hit
    assert reports[5].exceptions_by_family.get("NC[8] K2 v 3K1", 0) > 0
    assert reports[7].exceptions_by_family.get("NC[2] K3 v 4K1", 0) > 0
    # the counterexample to the stated criterion: q >= threshold, non-Hamiltonian,
    # outside {K3 v 4K1, K2 v 3K1}
    stated_violations = reports[6].exceptions_by_family.get(missed, 0)
    q_bad = eigen_oracle(NC_GRAPHS[5], "signless_laplacian")[-1]
    assert q_bad >= 2 * 6 - 5 + 3 / 5
    assert is_hamiltonian(NC_GRAPHS[5]) is None
    ok_as_stated = stated_violations == 0
    report(5, ok_as_stated,
           f"stated exception set insufficient: {stated_violations} labeled copies of "
           f"K2 v (K2+2K1) at n=6 satisfy q={q_bad:.4f} >= 7.6 yet are non-Hamiltonian; "
           f"corrected set (adding that graph) scans clean at n in 5..7")
    if not ok_as_stated:
        pytest.xfail("published theorem statement is unsound at n=6; "
                     "see the printed counterexample and the decisions ledger")


def test_criterion_6_tight_q_traceable_soundness():
    star5_copies = 0
    for n in (5, 6, 7):
        r = soundness("tight-q-traceable", sizes=[n])
        assert r.violations == []
        star5_copies += r.exceptions_by_family.get("star(5)", 0)
    assert star5_copies == 5  # the 5 labeled copies of K_{1,4}
    q_star = eigen_oracle(star(5), "signless_laplacian")[-1]
    assert abs(q_star - 5.0) <= 1e-8  # exactly at the 2n-5 boundary
    report(6, True, f"n in 5..7 exhaustive, zero violations; K_1,4 hit exactly "
                    f"at boundary (q={q_star:.6f})")


def test_criterion_7_balanced_bipartite_spectral():
    start = time.monotonic()
    r = soundness("spectral-bipartite-hamiltonian", sizes=[4])
    assert r.graphs_scanned == 1 << 16
    assert r.violations == []
    tight = tightness_search("spectral-bipartite-hamiltonian", max_n=4)
    vac = {e["family"]: e for e in tight["exceptions"]}["kpn2-plus-4e(4,4)"]
    assert not vac["hypothesis_satisfied"] and vac["value"] < math.sqrt(12)
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    report(7, ok, f"2^16 biadjacency matrices, zero violations; exception vacuous "
                  f"(rho={vac['value']:.4f} < sqrt(12)), {elapsed:.1f}s")
    assert ok


def test_criterion_8_exception_families_refuted():
    count = 0
    for n in range(4, 9):
        assert is_hamiltonian(knn1_plus_edge(n).to_graph()) is None
        assert is_hamiltonian(kpn2_plus_4e(n, n).to_graph()) is None
        assert is_traceable(kn1_plus_vertex(n)) is None
        count += 3
    for g in NC_GRAPHS:
        assert is_hamiltonian(g) is None
        count += 1
    for g in NP_GRAPHS:
        assert is_traceable(g) is None
        count += 1
    report(8, True, f"{count} exceptional instances refuted by the oracle")


def test_criterion_9_oracle_cross_validation():
    rng = random.Random(99)
    checked = 0
    for n in range(4, 11):
        graphs = [random_graph(n, rng, p=rng.uniform(0.2, 0.8)) for _ in range(1000)]
        adj = np.array([g.adj for g in graphs], dtype=np.uint32)
        for kind in ("cycle", "path"):
            found, _ = witness_rows(adj, kind)
            assert found.tolist() == [backtrack_oracle(g, kind) for g in graphs]
        checked += len(graphs)
    fams = [g for g in NC_GRAPHS + NP_GRAPHS]
    for n in range(3, 7):
        fams.append(kn1_plus_edge(n))
        fams.append(kn1_plus_vertex(n))
        fams.append(knn1_plus_edge(n).to_graph())
        fams.append(knn1_plus_2e(n).to_graph())
    for n in range(4, 7):
        fams.append(kpn2_plus_4e(n, n).to_graph())
    for g in fams:
        if g.n > 12:
            continue
        assert (is_hamiltonian(g) is not None) == backtrack_oracle(g, "cycle")
        assert (is_traceable(g) is not None) == backtrack_oracle(g, "path")
        checked += 1
    report(9, True, f"DP and backtracking agree on {checked} graphs")


def test_criterion_10_traceable_join_reduction():
    rng = random.Random(7)
    agree = 0
    for _ in range(500):
        n = rng.randint(2, 9)  # n=1: K1 is trivially traceable but K1 v K1 = K2 has no cycle
        g = random_graph(n, rng, p=rng.uniform(0.15, 0.75))
        lhs = is_traceable(g) is not None
        rhs = is_hamiltonian(join(g, complete(1))) is not None
        assert lhs == rhs
        agree += 1
    report(10, True, f"traceable(G) == hamiltonian(G v K1) on all {agree} random graphs")
