"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from hamcheck import cli, conditions, verify  # noqa: E402
from hamcheck.graph6 import parse_graph6  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    first = [rec.line for rec in corpus.generate(workload, 11)]
    assert first == [rec.line for rec in corpus.generate(workload, 11)]
    assert first != [rec.line for rec in corpus.generate(workload, 12)]
    assert len(first) >= 100


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_graph6_matches_the_library_parser(workload):
    for rec in corpus.generate(workload, 3):
        g = parse_graph6(rec.line)
        assert (g.n, g.adj) == (rec.n, rec.adj)


def test_self_time_subtracts_only_direct_children():
    tr = tracing.Tracer()
    root = tr.span("cli.main", 0.0, 10.0, -1)
    a = tr.span("conditions.checker", 1.0, 4.0, root)
    tr.span("spectral.rho", 2.0, 3.0, a)
    tr.span("oracle.is_traceable", 5.0, 9.0, root)
    duration, self_time = tracing.self_times(tr)
    assert list(duration) == [10.0, 3.0, 1.0, 4.0]
    assert list(self_time) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(tr, verify.theorem_ids())
    layers = {name: summary[f"{name}.self_s"] for name in tracing.LAYERS}
    assert layers == {"verify": 0.0, "conditions": 2.0, "spectral": 1.0, "oracle": 4.0,
                      "iso": 0.0, "graph6": 0.0, "cli": 3.0}
    assert sum(layers.values()) == summary["trace.self_sum_s"] == 10.0


def _wrapped_names():
    owners = {
        verify: ("soundness", "np", "is_hamiltonian", "is_traceable", "write_graph6"),
        conditions: ("recognize_family", "ec_ep_membership", "nc_np_membership",
                     "is_isomorphic", "rho", "q_radius"),
        cli: ("rho", "q_radius", "is_hamiltonian", "is_traceable", "parse_graph6",
              "write_graph6", "main"),
    }
    return {(owner.__name__, attr): getattr(owner, attr)
            for owner, attrs in owners.items() for attr in attrs}


def _analyze(path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["analyze", "--format", "json", str(path)]) == 0
    return out.getvalue()


def test_traced_run_restores_every_wrapped_function(tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("".join(rec.line + "\n" for rec in corpus.generate("analyze-oracle", 5)[:6]))
    before = _wrapped_names()
    specs = dict(verify.THEOREMS)
    tr = tracing.Tracer()
    with tracing.installed(tr, verify.theorem_ids()):
        assert _wrapped_names() != before
        traced = _analyze(path)
        report = verify.soundness("lemma-3.4", sizes=[4])
    spans = len(tr)
    names = set(tr.kinds[k] for k in tr.kind)
    assert {"cli.main", "conditions.checker", "spectral.rho", "spectral.q_radius",
            "oracle.is_hamiltonian", "oracle.is_traceable", "graph6.parse", "graph6.write",
            "verify.soundness"} <= names
    assert _wrapped_names() == before
    assert all(verify.THEOREMS[tid] is spec for tid, spec in specs.items())
    assert _analyze(path) == traced
    assert verify.soundness("lemma-3.4", sizes=[4]).to_dict() == report.to_dict()
    assert len(tr) == spans


def test_restores_after_an_error():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), verify.theorem_ids()):
            raise RuntimeError("stop")
    assert _wrapped_names() == before


def test_screen_spans_count_the_batch():
    tr = tracing.Tracer()
    with tracing.installed(tr, verify.theorem_ids()):
        report = verify.soundness("tight-q-hamiltonian", sizes=[5])
    summary = tracing.summarize(tr, verify.theorem_ids())
    assert summary["verify.screened"] > 0
    assert summary["verify.checked"] <= summary["verify.screened"]
    assert summary["verify.hits"] == report.hypothesis_hits
    assert list(tr.parent).count(-1) == 1
    root = list(tr.parent).index(-1)
    assert summary["trace.self_sum_s"] == pytest.approx(tr.end[root] - tr.start[root])


def test_checks_fail_every_record_a_crash_left_unanswered(tmp_path):
    records = corpus.generate("analyze-oracle", 5)[:4]
    path = tmp_path / "corpus.g6"
    path.write_text("".join(rec.line + "\n" for rec in records))
    lines = _analyze(path).splitlines(keepends=True)
    refs = [run.REF_S * 2] * 2    # the machine ran at half the reference speed
    clean = {"start": 0.0, "stamps": [1.0, 2.0, 4.0, 7.0], "resumes": [1.0, 2.0, 4.0, 7.0],
             "exit": 0, "wall_s": 7.0, "stdout": "".join(lines), "refs": refs, "ref_every": 20}
    tally = run.check_analyze([clean], records, path)
    assert (tally.attempted, tally.failed) == (4, 0)
    assert tally.latency_s == [0.5, 0.5, 1.0, 1.5] and tally.unit_s == [3.5]
    crashed = dict(clean, stamps=[0.5, 1.0], resumes=[0.5, 1.0], exit=1,
                   stdout="".join(lines[:2]))
    tally = run.check_analyze([clean, crashed], records, path)
    assert (tally.attempted, tally.failed) == (8, 2)
    wrong = lines[0].replace('"n": 8', '"n": 9')
    tally = run.check_analyze([dict(clean, stdout="".join([wrong] + lines[1:]))], records, path)
    assert tally.failed == 1


def test_percentile_is_a_sample_value():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile([3.0, 1.0, 2.0], 0.9) == 3.0
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0
