"""The theorem table: checker and tightness outputs pinned byte for byte,
the derived edge counts, the component count of a disconnected graph,
the bounds on verify --jobs and the modules a command loads."""

import concurrent.futures
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hamcheck import check_theorem, complete, disjoint_union, parse_graph6
from hamcheck import verify
from hamcheck.cli import main
from hamcheck.graphs import bipartite_from_graph, is_connected, transpose, two_coloring
from hamcheck.verify import THEOREMS, soundness, theorem_ids, tightness_search

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (label, target, theorem id): the label and target are the names of the
# checker and target string that reached the theorem when the fixture was
# generated, kept as its data
GENERAL_CHECKS = [
    ("chvatal_hamiltonian", None, "chvatal"),
    ("edge_bound_general", "hamiltonian", "lemma-3.4"),
    ("edge_bound_general", "traceable", "lemma-3.6"),
    ("q_spectral_general", "hamiltonian_tight", "tight-q-hamiltonian"),
    ("q_spectral_general", "traceable_tight", "tight-q-traceable"),
    ("q_spectral_general", "yu_fan_hamiltonian", "yu-fan-hamiltonian"),
    ("q_spectral_general", "yu_fan_traceable", "yu-fan-traceable"),
    ("q_spectral_general", "yu_connected_traceable", "yu-connected-traceable"),
    ("zhou_complement", "hamiltonian", "zhou-complement-hamiltonian"),
    ("zhou_complement", "traceable", "zhou-complement-traceable"),
]
BIPARTITE_CHECKS = [
    ("bipartite_degree_hamiltonian", None, "bipartite-degree"),
    ("moon_moser_hamiltonian", None, "moon-moser"),
    ("edge_bound_bipartite", "hamiltonian_min_deg1", "lemma-2.5"),
    ("edge_bound_bipartite", "hamiltonian_min_deg2", "lemma-2.6"),
    ("edge_bound_bipartite", "traceable", "lemma-2.8"),
    ("spectral_bipartite", "hamiltonian_balanced", "spectral-bipartite-hamiltonian"),
    ("spectral_bipartite", "traceable_balanced", "spectral-bipartite-traceable"),
    ("spectral_bipartite", "traceable_unbalanced", "spectral-bipartite-traceable-unbalanced"),
    ("quasi_complement_hamiltonian", None, "quasi-complement"),
]


def _verdict_lines(obj, checks) -> list:
    lines = []
    for label, target, theorem_id in checks:
        v = check_theorem(theorem_id, obj)
        lines.append([label, target, v.status.value, v.prop, [list(c) for c in v.certificate],
                      None if v.family is None else str(v.family), v.note])
    return lines


def verdicts_mix() -> str:
    """Every theorem of the table on each analyze_mix.g6 record: as a
    general graph and, when connected and bipartite, as its bipartite graph
    in both orientations. One JSON line per (record, object)."""
    out = []
    for line in (FIXTURES / "analyze_mix.g6").read_text().split():
        g = parse_graph6(line)
        objects = [("general", g, GENERAL_CHECKS)]
        left = two_coloring(g) if g.n and is_connected(g) else None
        if left is not None:
            b = bipartite_from_graph(g, left)
            objects += [("bipartite", b, BIPARTITE_CHECKS),
                        ("transposed", transpose(b), BIPARTITE_CHECKS)]
        for label, obj, checks in objects:
            out.append(json.dumps({"graph6": line, "as": label,
                                   "verdicts": _verdict_lines(obj, checks)}))
    return "\n".join(out) + "\n"


def tightness_lines(**kwargs) -> str:
    """tightness_search(tid, **kwargs) for every theorem with a numeric
    hypothesis, one JSON line each."""
    return "".join(json.dumps(tightness_search(tid, **kwargs)) + "\n"
                   for tid in theorem_ids() if THEOREMS[tid].row.quantity is not None)


def test_verdicts_match_fixture():
    # generated before the checkers were rerouted through the theorem table,
    # and regenerated only through fixture_diff.py when the radii moved to
    # eigh and again when they moved to eigvalsh (numbers within 1e-14
    # relative, nothing else); analyze drops NotApplicable verdicts, so this
    # pins their notes too
    assert verdicts_mix() == (FIXTURES / "verdicts_mix.json").read_text()


def test_tightness_matches_fixture(monkeypatch):
    # at most 9 bipartite cells: side-3 balanced and (4, 3) unbalanced graphs
    monkeypatch.setattr(verify, "BIP_CELLS", 9)
    text = tightness_lines(max_n=5)
    assert text == (FIXTURES / "tightness_n5.json").read_text()
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 16
    assert sum(bool(row["exceptions"]) for row in rows) == 8
    assert sum(row["best_near_miss"] is not None for row in rows) == 12


def test_tightness_at_defaults_matches_fixture():
    # max_n=6 and 16 bipartite cells: n=6 general graphs and side-4 bipartite ones
    text = tightness_lines()
    assert text == (FIXTURES / "tightness_n6.json").read_text()


@pytest.mark.parametrize("new, code", [
    ('{"q": 5.000000000000001, "margin": -1e-15, "status": "boundary"}', 0),
    ('{"q": 5.000000001, "margin": 0.0, "status": "boundary"}', 1),       # 2e-10 relative
    ('{"q": 5.0, "margin": 0.0, "status": "guaranteed"}', 1),
    ('{"q": 5.0, "margin": -0.0, "status": "boundary"}', 1),              # same value, new text
    ('{"margin": 0.0, "q": 5.0, "status": "boundary"}', 1),               # key order
    ('{"q": 5.0, "margin": 0.0, "status": "boundary"}\n{}', 1),          # line count
])
def test_fixture_diff_allows_only_last_bit_changes(tmp_path, new, code):
    from fixture_diff import main as fixture_diff

    (tmp_path / "old").write_text('{"q": 5.0, "margin": 0.0, "status": "boundary"}\n')
    (tmp_path / "new").write_text(new + "\n")
    assert fixture_diff([str(tmp_path / "old"), str(tmp_path / "new")]) == code


# the hand-written necessary edge counts the table's rules replaced
OLD_M_MIN = {
    "lemma-2.5": lambda n: n * n - n + 1,
    "lemma-2.6": lambda n: n * n - 2 * n + 4,
    "lemma-2.8": lambda n: n * n - 2 * n + 3,
    "spectral-bipartite-hamiltonian": lambda n: n * n - 2 * n + 4,
    "spectral-bipartite-traceable": lambda n: n * n - 2 * n + 3,
    "spectral-bipartite-traceable-unbalanced": lambda n: n * n - n + 2,
    "quasi-complement": lambda n: math.ceil(n * n - n * (n - 2) / 2 - 1e-9),
    "lemma-3.4": lambda n: (n * n - 4 * n + 6) // 2 + 1,
    "lemma-3.6": lambda n: (n * n - 4 * n + 3) // 2 + 1,
    "tight-q-hamiltonian": lambda n: math.ceil(((n - 3) * (n - 1) + 3) / 2 - 1e-9),
    "tight-q-traceable": lambda n: math.ceil((n - 3) * (n - 1) / 2 - 1e-9),
    "yu-fan-hamiltonian": lambda n: math.ceil((n - 2) * (n - 1) / 2 - 1e-9),
    "yu-fan-traceable": lambda n: math.ceil((n - 2) * (n - 1) / 2 - 1e-9),
    "yu-connected-traceable": lambda n: math.ceil(((n - 2) * (n - 3) + 4) / 2 - 1e-9),
    "zhou-complement-hamiltonian": lambda n: math.ceil(n * (n - 1) / 4 - 1e-9),
    "zhou-complement-traceable": lambda n: max(math.ceil(n * (n - 2) / 4 - 1e-9), 0),
}


def test_derived_edge_counts_match_the_old_ones():
    assert {tid for tid, spec in THEOREMS.items() if spec.row.quantity} == set(OLD_M_MIN)
    for tid, old in OLD_M_MIN.items():
        row = THEOREMS[tid].row
        for n in range(row.min_n, 40):
            assert verify._m_min(row, n) == old(n), (tid, n)


def test_disconnected_graph_reports_its_component_count():
    three_k3 = disjoint_union(disjoint_union(complete(3), complete(3)), complete(3))
    v = check_theorem("yu-connected-traceable", three_k3)
    assert v.status.value == "not_applicable"
    assert dict(v.certificate) == {"components": 3}


@pytest.mark.parametrize("jobs", ["0", "-1", "-64"])
def test_verify_jobs_below_one_is_a_usage_error(jobs, capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(verify, "soundness", scan)
    try:
        code = main(["verify", "--theorem", "chvatal", "--max-n", "4", "--jobs", jobs])
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert "--jobs" in capsys.readouterr().err


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.mark.parametrize("jobs, cpus, pool", [
    (10 ** 6, 8, 4),   # four tasks, one per size
    (10 ** 6, 2, 2),
    (3, 8, 3),
    (10 ** 6, None, None),  # cpu_count unknown: one worker, no pool
    (1, 8, None),
])
def test_verify_pool_is_sized_by_tasks_and_cpus(jobs, cpus, pool, monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = soundness("lemma-3.4", sizes=[3, 4, 5, 6], jobs=jobs)
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    monkeypatch.undo()
    assert report.to_dict() == soundness("lemma-3.4", sizes=[3, 4, 5, 6]).to_dict()


def test_only_a_parallel_scan_imports_the_process_pool():
    # a fresh interpreter, as the command line starts: a serial scan and every
    # other command leave the process pool's module unloaded, and the runtime
    # loads nothing but numpy, though scipy, networkx and hypothesis are
    # installed with the test extra
    code = ("import sys; from hamcheck.cli import main; "
            "main(['verify', '--theorem', 'lemma-3.4', '--max-n', '4']); "
            "main(['table1']); main(['analyze']); "
            f"main(['oracle', {str(FIXTURES / 'oracle_mix.g6')!r}]); "
            "main(['family', 'knn1plusedge', '--n', '5']); "
            "loaded = {'concurrent.futures.process', 'scipy', 'networkx', 'hypothesis'}; "
            "sys.exit(sorted(loaded & set(sys.modules)) or None)")
    done = subprocess.run([sys.executable, "-c", code], input="D^o\n", capture_output=True,
                          text=True, timeout=60, cwd=Path(__file__).resolve().parent.parent / "src")
    assert done.returncode == 0, done.stderr
