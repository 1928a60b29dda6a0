import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamcheck import cli, conditions
from hamcheck.cli import main
from hamcheck.families import knn1_plus_2e, knn1_plus_edge, kpn2_plus_4e
from hamcheck.graph6 import parse_graph6, write_graph6
from hamcheck.conditions import GENERAL, check_theorem
from hamcheck.graphs import (
    bipartite_from_graph,
    complete_bipartite,
    connected_components,
    cycle,
    from_edges,
    is_connected,
    shape_of,
    transpose,
    two_coloring,
)
from hamcheck.oracle import CYCLE, MAX_DP_N, PATH, certify, is_hamiltonian
from hamcheck.spectral import rho

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_k23(capsys, monkeypatch):
    g6 = write_graph6(complete_bipartite(3, 2).to_graph())
    code, out, _ = run(capsys, ["analyze", "--format", "json"], stdin=g6 + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["n"] == 5 and rec["m"] == 6
    assert rec["q"] == pytest.approx(5.0, abs=5e-5)
    by = {v["checker"]: v for v in rec["verdicts"]}
    v = by["lemma-3.4"]
    assert v["status"] == "exception" and "K2,3" in v["family"]
    assert rec["oracle"] == {"hamiltonian": False, "traceable": True}


def test_analyze_c5(capsys, monkeypatch):
    g6 = write_graph6(cycle(5))
    code, out, _ = run(capsys, ["analyze", "--format", "json"], stdin=g6 + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out.strip())
    by = {v["checker"]: v for v in rec["verdicts"]}
    assert by["chvatal"]["status"] == "inconclusive"
    assert dict(by["chvatal"]["certificate"])["k"] == 2
    assert rec["oracle"]["hamiltonian"] is True


def test_analyze_empty_input(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze"], stdin="", monkeypatch=monkeypatch)
    assert code == 0 and out == ""


def test_analyze_empty_graph(capsys, monkeypatch):
    code, out, err = run(capsys, ["analyze", "--format", "json"], stdin="?\n",
                         monkeypatch=monkeypatch)
    assert code == 0, err
    (line,) = out.splitlines()
    rec = json.loads(line)
    assert (rec["n"], rec["m"], rec["min_degree"], rec["rho"]) == (0, 0, 0, None)
    assert rec["verdicts"] == []


def test_analyze_guarantees_a_radius_beyond_the_boundary_width(capsys, monkeypatch):
    # q(D^o) = 5.7785 lies 0.028 above tight-q-hamiltonian's 2n-5+3/(n-1) = 5.75
    code, out, _ = run(capsys, ["analyze", "--format", "json"], stdin="D^o\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    by = {v["checker"]: v for v in json.loads(out)["verdicts"]}
    assert by["tight-q-hamiltonian"]["status"] == "guaranteed"


def test_analyze_matches_fixture(capsys, monkeypatch):
    # analyze_mix.g6 holds n=0, n=1, K2, P3, C4, C5, D^o, K1,3, K2,3,
    # K2 v (K2 + 2K1), K2 v 3K1, K2 v 4K1, K1,4, 2K2, K3 + K3, the Petersen
    # graph, K3,3, K4,3, the bipartite exceptions Knn1PlusEdge(4),
    # Kpn2Plus4e(4, 4) and Knn1Plus2e(3), K5, and C26 (above the oracle
    # cap); the json is analyze's output from before it shared spectral
    # estimates between checkers, regenerated only through fixture_diff.py
    # when the radii moved to eigh and again when they moved to eigvalsh
    # (numbers within 1e-14 relative, nothing else), and must stay
    # byte-identical
    code, out, _ = run(capsys, ["analyze", "--format", "json"],
                       stdin=(FIXTURES / "analyze_mix.g6").read_text(), monkeypatch=monkeypatch)
    assert code == 0
    assert out == (FIXTURES / "analyze_mix.json").read_text()


def test_analyze_bipartite_certificates_are_check_theorems(capsys, monkeypatch):
    # analyze takes a bipartite record's view and radii from the record's
    # own matrix, and the view's rho is the record's; each bipartite verdict
    # must be check_theorem's on the BipartiteGraph the Python-int path
    # builds, given the record's rho, certificate bits included
    code, out, _ = run(capsys, ["analyze", "--format", "json"],
                       stdin=(FIXTURES / "analyze_mix.g6").read_text(), monkeypatch=monkeypatch)
    assert code == 0
    bipartite_records = 0
    for line in out.splitlines():
        rec = json.loads(line)
        g = parse_graph6(rec["graph6"])
        left = two_coloring(g) if g.n >= 2 and is_connected(g) else None
        got = [v for v in rec["verdicts"] if conditions.CONDITIONS[v["checker"]].kind != GENERAL]
        if left is None:
            assert got == []
            continue
        bipartite_records += 1
        b = bipartite_from_graph(g, left)
        b = transpose(b) if b.p < b.q else b
        expected = []
        for tid, row in conditions.CONDITIONS.items():
            if row.kind == GENERAL:
                continue
            verdict = check_theorem(tid, b, rho(g) if row.quantity == "rho" else None)
            if verdict.status is not conditions.Status.NOT_APPLICABLE:
                expected.append(json.loads(json.dumps(cli._verdict_dict(tid, verdict))))
        assert got == expected, rec["graph6"]
    assert bipartite_records == 12


@pytest.mark.parametrize("name, graph, radii", [
    ("C5", cycle(5), 3),                    # rho(G), q(G), q of the complement
    ("C6", cycle(6), 4),                    # ... and rho of B's quasi-complement; rho(B) is rho(G)
    ("K4,3 interleaved", from_edges(7, [(x, y) for x in (0, 2, 4, 6) for y in (1, 3, 5)]), 3),
    ("Petersen", from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]), 3),
])
def test_analyze_asks_each_question_once(capsys, monkeypatch, name, graph, radii):
    """One eigvalsh call per distinct matrix of a record, none inside the
    checkers, one cycle question, and a path question only for a graph
    with no Hamiltonian cycle."""
    calls = []

    def counting(matrices, eigvalsh=np.linalg.eigvalsh):
        calls.append([matrix.tobytes() for matrix in matrices])
        return eigvalsh(matrices)

    def given_only(given, compute, estimate=conditions._estimate):
        assert given is not None, "a checker computed its own estimate"
        return estimate(given, compute)

    asked = []
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(conditions, "_estimate", given_only)
    monkeypatch.setattr(cli, "certify", lambda g, kind, exact, shape: asked.append(
        (g, kind, shape)) or certify(g, kind, exact, shape))
    code, _, err = run(capsys, ["analyze", "--format", "json"], stdin=write_graph6(graph) + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0, err
    matrices = [matrix for call in calls for matrix in call]
    assert len(matrices) == len(set(matrices)) == len(calls) == radii
    # each question is handed the record's one shape
    shape = shape_of(graph)
    assert asked == [(graph, CYCLE, shape)] + ([] if is_hamiltonian(graph)
                                               else [(graph, PATH, shape)])


def test_analyze_walks_and_colours_each_record_once(capsys, monkeypatch):
    """Each record's components are walked once, and a connected record is
    2-coloured once, for the bipartite view, the connected row's
    precondition and both certify questions alike. The DP entries check
    their own preconditions on the graphs certify hands them, and are not
    counted."""
    from hamcheck import graphs, oracle

    text = (FIXTURES / "analyze_mix.g6").read_text()
    want = [[1, int(len(connected_components(g)) == 1)]
            for g in map(parse_graph6, text.split())]
    counts, record, inside = [], [], []   # per record [walks, colourings]

    def counted(index, function):
        def wrapper(g, *args):
            if g is record[0] and not inside:
                counts[-1][index] += 1
            return function(g, *args)
        return wrapper

    def entered(entry):
        def wrapper(g):
            inside.append(entry)
            try:
                return entry(g)
            finally:
                inside.pop()
        return wrapper

    def analyze(args, rec_id, g, matrix, analyze=cli._analyze_record):
        record[:], counts[len(counts):] = [g], [[0, 0]]
        return analyze(args, rec_id, g, matrix)

    for module in (graphs, oracle, conditions, cli):
        for name, index in (("connected_components", 0), ("is_connected", 0),
                            ("two_coloring", 1)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(index, getattr(module, name)))
    for name in ("is_hamiltonian", "is_traceable"):
        monkeypatch.setattr(cli, name, entered(getattr(cli, name)))
    monkeypatch.setattr(cli, "_analyze_record", analyze)
    code, _, err = run(capsys, ["analyze", "--format", "json"], stdin=text,
                       monkeypatch=monkeypatch)
    assert code == 0, err
    assert counts == want


def test_analyze_skips_the_oracle_above_its_cap(capsys, monkeypatch):
    paths = "".join(write_graph6(from_edges(n, [(i, i + 1) for i in range(n - 1)])) + "\n"
                    for n in (MAX_DP_N, MAX_DP_N + 1))
    code, out, _ = run(capsys, ["analyze", "--format", "json"], stdin=paths,
                       monkeypatch=monkeypatch)
    assert code == 0
    at_cap, above = (json.loads(line) for line in out.splitlines())
    assert at_cap["oracle"] == {"hamiltonian": False, "traceable": True}
    assert "oracle" not in above


@pytest.mark.parametrize("argv", [
    ["table1", "--tolerance", "-1"],
    ["table1", "--tolerance", "inf"],
    ["table1", "--tolerance", "0"],
    ["table1", "--tolerance", "nan"],
    ["table1", "--tolerance", "tiny"],
])
def test_bad_tolerance_is_a_usage_error(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 64 and out == ""
    assert "finite number > 0" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--tol", "1e-3"],   # no route iterates, so there is no --tol
    ["analyze", "--tol", "0"],
    ["oracle", "--tol", "0"],
    ["analyze", "--cmp-tol", "-1"],   # the Boundary width is a constant, not a flag
    ["analyze", "--cmp-tol", "nan"],
    ["analyze", "--cmp-tol", "inf"],
    ["analyze", "--cmp-tol", "tiny"],
    ["analyze", "--cmp-tol", "0"],
    ["analyze", "--cmp-tol=-inf"],
    ["oracle", "--cmp-tol", "nan"],
    ["verify", "--theorem", "lemma-3.4", "--cmp-tol", "0.5"],
    ["table1", "--cmp-tol", "0.5"],
    ["table1", "--tol", "1e-3"],   # not read as --tolerance
    ["analyze", "--deterministic"],   # only verify prints timings
    ["table1", "--deterministic"],
    ["oracle", "--deterministic"],
    ["family", "Knn1PlusEdge", "--n", "4", "--deterministic"],
])
def test_flags_a_command_does_not_use_are_usage_errors(capsys, monkeypatch, argv):
    code, out, err = run(capsys, argv, stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 64 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_analyze_parse_error(capsys, monkeypatch):
    code, out, err = run(capsys, ["analyze"], stdin="\x7f\x7f\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "error" in err


def test_analyze_edgelist(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze", "--edgelist", "--format", "json"],
                       stdin="3 3\n0 1\n1 2\n2 0\n", monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["n"] == 3 and rec["oracle"]["hamiltonian"] is True


def test_table1_cli(capsys):
    code, out, _ = run(capsys, ["table1", "--format", "json"])
    assert code == 0
    rows = json.loads(out.strip())
    assert len(rows) == 18
    assert all(r["pass"] for r in rows)
    by = {r["name"]: r for r in rows}
    assert by["K2 v 4K1"]["computed"] == pytest.approx(7.4641, abs=5e-5)
    assert by["K2,4"]["computed"] == pytest.approx(6.0, abs=5e-5)


def test_verify_cli(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "lemma-2.5", "--max-n", "3",
                                "--format", "json", "--deterministic"])
    assert code == 0
    reports = json.loads(out.strip())
    assert reports[0]["violations"] == []
    assert "elapsed_s" not in reports[0]


def test_verify_all_n6_matches_fixture(capsys):
    # the fixture is this command's output before the scan was batched;
    # any change to the scan must leave it byte-identical
    code, out, _ = run(capsys, ["verify", "--theorem", "all", "--max-n", "6",
                                "--deterministic", "--format", "json"])
    assert code == 0
    assert out == (FIXTURES / "verify_all_n6.json").read_text()


def test_verify_all_n7_matches_fixture(capsys):
    # the fixture is this command's output before a listed size became one
    # scan part; n = 7 streams in ragged parts at --jobs 3, and each run
    # must print it byte for byte
    for jobs in ("1", "3"):
        code, out, _ = run(capsys, ["verify", "--theorem", "all", "--max-n", "7",
                                    "--deterministic", "--format", "json", "--jobs", jobs])
        assert code == 0
        assert out == (FIXTURES / "verify_all_n7.json").read_text()


def test_verify_max_n_above_cap_is_a_usage_error(capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli.verify_mod, "soundness", scan)
    code, out, err = run(capsys, ["verify", "--theorem", "chvatal", "--max-n", "9"])
    assert code == 64 and out == ""
    assert "capped at 8" in err


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, ["verify", "--theorem", "bogus"])
    assert code == 64
    assert "unknown theorem" in err


def test_family_cli(capsys):
    code, out, _ = run(capsys, ["family", "Knn1PlusEdge", "--n", "4"])
    assert code == 0
    from hamcheck.graph6 import parse_graph6

    g = parse_graph6(out.strip())
    assert g.n == 8 and g.edge_count() == 13
    code, out, _ = run(capsys, ["family", "NC", "--index", "8", "--format", "edges"])
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["5", "7"]  # K2 v 3K1


def test_family_bad_params(capsys):
    code, _, err = run(capsys, ["family", "Kpn2Plus4e", "--n", "4", "--p", "2"])
    assert code == 64 and "p >= n-1" in err
    code, _, err = run(capsys, ["family", "Wat", "--n", "4"])
    assert code == 64
    code, _, err = run(capsys, ["family", "NC", "--index", "99"])
    assert code == 64


@pytest.mark.parametrize("p, n", [(-2, 5), (3, -1)])
def test_family_negative_side_is_usage_error(capsys, p, n):
    code, out, err = run(capsys, ["family", "completebipartite", "--p", str(p), "--n", str(n),
                                  "--format", "edges"])
    assert code == 64 and out == ""
    assert f"vertex count {min(p, n)} outside" in err


def test_oracle_cli(capsys, monkeypatch):
    g6 = write_graph6(cycle(5))
    code, out, _ = run(capsys, ["oracle", "--format", "json"], stdin=g6 + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["hamiltonian"] is True and len(rec["cycle"]) == 5


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 64


def test_deterministic_outputs_identical(capsys, monkeypatch):
    g6 = write_graph6(cycle(6))
    a = run(capsys, ["analyze", "--format", "json"], stdin=g6 + "\n", monkeypatch=monkeypatch)
    b = run(capsys, ["analyze", "--format", "json"], stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert a == b


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("edgelist", [False, True])
@pytest.mark.parametrize("content", ["é\n".encode(), b"\xff\n", b"D^o\n\xff\n"])
def test_non_ascii_input_is_a_parse_error(capsys, tmp_path, command, edgelist, content):
    source = tmp_path / "input.txt"
    source.write_bytes(content)
    argv = [command, "--format", "json", str(source)] + (["--edgelist"] if edgelist else [])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert f"error: {source}" in err and "Traceback" not in err
    if not edgelist and content.startswith(b"D^o"):
        assert json.loads(out)["n"] == 5  # the good record before it still runs


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_non_ascii_stdin_is_a_parse_error(capsys, monkeypatch, command):
    code, out, err = run(capsys, [command], stdin="é\n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and "error: <stdin>:1: non-ASCII" in err


@pytest.mark.parametrize("record, message", [
    ("&DI?AO?", "digraph6 input is not supported, only graph6"),
    (":Fa@x^", "sparse6 input is not supported, only graph6"),
    ("D^ o", "byte 32 outside graph6's range 63-126"),
])
def test_a_record_of_another_format_is_named(capsys, monkeypatch, record, message):
    # a digraph6 or sparse6 record is named as such, not by a byte; any
    # other byte outside 63-126, space among them, is named by its value
    code, out, err = run(capsys, ["analyze"], stdin=record + "\n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err == f"error: <stdin>:1: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("edgelist", [False, True])
def test_missing_input_file_is_a_usage_error(capsys, tmp_path, command, edgelist):
    missing = tmp_path / "nonexistent.g6"
    code, out, err = run(capsys, [command, str(missing)] + (["--edgelist"] if edgelist else []))
    assert code == 64 and out == ""
    assert str(missing) in err and "Traceback" not in err


def test_oracle_matches_fixture(capsys, monkeypatch):
    # analyze_mix.g6 (whose C26 is above the oracle cap, so the exit is 2)
    # then oracle_mix.g6: a dozen seeded graphs at n = 11-14, Hamiltonian,
    # traceable only and not traceable; the json is oracle's output from
    # before paths were decided as cycles through an apex vertex
    stdin = (FIXTURES / "analyze_mix.g6").read_text() + (FIXTURES / "oracle_mix.g6").read_text()
    code, out, err = run(capsys, ["oracle", "--format", "json"], stdin=stdin,
                         monkeypatch=monkeypatch)
    assert code == 2 and err == f"error: <stdin>:23: oracle capped at n <= {MAX_DP_N}\n"
    assert out == (FIXTURES / "oracle_mix.json").read_text()


def test_oracle_matches_fixture_up_to_the_cap(capsys, monkeypatch):
    # oracle_large.g6, above oracle_mix's n <= 14: K_18 (the costliest
    # table), K_17+e, K_{9,9} and seeded G(16, 1/2) and G(18, 1/2); the
    # json is oracle's output from before the scalar DP was deleted
    stdin = (FIXTURES / "oracle_large.g6").read_text()
    code, out, err = run(capsys, ["oracle", "--format", "json"], stdin=stdin,
                         monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert out == (FIXTURES / "oracle_large.json").read_text()


# C5, a record whose bit field is too short, then K4
BAD_BETWEEN_GOOD = "D^o\nD^\nC~\n"
BAD_RECORD_ERROR = "error: <stdin>:2: bit field holds 6 bits, expected 10 for n=5\n"


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_a_bad_record_is_skipped_without_strict(capsys, monkeypatch, command):
    code, out, err = run(capsys, [command, "--format", "json"], stdin=BAD_BETWEEN_GOOD,
                         monkeypatch=monkeypatch)
    assert code == 2 and err == BAD_RECORD_ERROR
    assert [json.loads(line)["n"] for line in out.splitlines()] == [5, 4]


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_strict_stops_at_a_bad_record(capsys, monkeypatch, command):
    code, out, err = run(capsys, [command, "--format", "json", "--strict"],
                         stdin=BAD_BETWEEN_GOOD, monkeypatch=monkeypatch)
    assert code == 2 and err == BAD_RECORD_ERROR
    assert [json.loads(line)["n"] for line in out.splitlines()] == [5]


def test_oracle_strict_stops_at_the_cap(capsys, monkeypatch):
    # the C26 on line 23 of analyze_mix.g6 is above the oracle's cap; the
    # records of oracle_mix.g6 after it are not run
    stdin = (FIXTURES / "analyze_mix.g6").read_text() + (FIXTURES / "oracle_mix.g6").read_text()
    code, out, err = run(capsys, ["oracle", "--format", "json", "--strict"], stdin=stdin,
                         monkeypatch=monkeypatch)
    assert code == 2 and err == f"error: <stdin>:23: oracle capped at n <= {MAX_DP_N}\n"
    expected = (FIXTURES / "oracle_mix.json").read_text().splitlines(keepends=True)[:22]
    assert out == "".join(expected)


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("content, message", [
    (b"3 1\n0 x\n", "invalid literal for int() with base 10: 'x'"),
    (b"x 0\n", "invalid literal for int() with base 10: 'x'"),
    (b"3 -1\n", "edge list header 'n m' must not be negative, got 3 -1"),
    (b"-2 0\n", "edge list header 'n m' must not be negative, got -2 0"),
    # an odd count of numbers, and a short one, named in numbers
    (b"2 1\n0 1 7\n", "expected 1 edge (2 numbers) after the header, found 3 numbers"),
    (b"4 3\n0 1\n1 2\n", "expected 3 edges (6 numbers) after the header, found 4 numbers"),
    (b"3 0\n2\n", "expected 0 edges (0 numbers) after the header, found 1 number"),
])
def test_bad_edgelist_names_the_fault_as_text(capsys, tmp_path, command, content, message):
    source = tmp_path / "input.txt"
    source.write_bytes(content)
    code, out, err = run(capsys, [command, "--edgelist", str(source)])
    assert code == 2 and out == ""
    assert err == f"error: {source}: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "oracle"])
@pytest.mark.parametrize("content, message", [
    ("3 1\n0 é\n".encode(), "non-ASCII byte 0xc3 at offset 6 in edge list"),
    (b"3 0\n\xff", "non-ASCII byte 0xff at offset 4 in edge list"),
])
def test_non_ascii_edgelist_names_the_byte(capsys, tmp_path, command, content, message):
    source = tmp_path / "input.txt"
    source.write_bytes(content)
    code, out, err = run(capsys, [command, "--edgelist", str(source)])
    assert code == 2 and out == ""
    assert err == f"error: {source}: {message}\n"


@pytest.mark.parametrize("max_n", ["-3", "0"])
def test_verify_max_n_below_one_is_a_usage_error(capsys, monkeypatch, max_n):
    def scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(cli.verify_mod, "soundness", scan)
    code, out, err = run(capsys, ["verify", "--theorem", "all", "--max-n", max_n])
    assert code == 64 and out == ""
    assert "--max-n must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, count", [
    (["knn1plusedge", "--n", "600"], 600),     # sides (600, 600)
    (["kpn2plus4e", "--n", "3", "--p", "700"], 700),
    (["knn1plus2e", "--n", "400"], 801),       # sides (401, 400)
])
def test_bipartite_family_above_the_vertex_cap_is_a_usage_error(capsys, argv, count):
    code, out, err = run(capsys, ["family", *argv])
    assert code == 64 and out == ""
    assert f"vertex count {count} outside" in err and "Traceback" not in err


def test_bipartite_family_constructors_check_their_sides():
    for build, args in ((knn1_plus_edge, (600,)), (kpn2_plus_4e, (3, 700)),
                        (knn1_plus_2e, (400,))):
        with pytest.raises(ValueError, match="vertex count"):
            build(*args)


def test_kn1_plus_edge_checks_the_vertex_cap(capsys):
    code, out, err = run(capsys, ["family", "kn1plusedge", "--n", "513"])
    assert code == 64 and out == ""
    assert "vertex count 513 outside [0, 512]" in err and "Traceback" not in err
    code, out, _ = run(capsys, ["family", "kn1plusedge", "--n", "512"])
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 512 and g.edge_count() == 511 * 510 // 2 + 1


def test_star_needs_a_hub(capsys):
    # K_{1,n-1} has n >= 1 vertices; n = 0 is a usage error like cycle --n 2
    code, out, err = run(capsys, ["family", "star", "--n", "0"])
    assert code == 64 and out == ""
    assert "star needs n >= 1" in err and "Traceback" not in err
    code, out, _ = run(capsys, ["family", "star", "--n", "1"])
    assert code == 0 and out == "@\n"


@pytest.mark.parametrize("argv, stdin, keep", [
    # far more output than a pipe holds: the reader closes it after 200 bytes
    (["analyze", "--format", "json"], b"D^o\n" * 500, 200),
    # output that fits in stdout's buffer, so only the last flush meets the closed pipe
    (["family", "knn1plusedge", "--n", "5"], b"", 0),
], ids=["above-the-pipe", "within-the-buffer"])
def test_closed_output_is_a_processing_error_without_a_traceback(argv, stdin, keep):
    # stdout block-buffered, as a command-line run has it by default
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    code = f"import sys; from hamcheck.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=Path(__file__).resolve().parent.parent / "src")
    proc.stdin.write(stdin)
    proc.stdin.close()
    assert len(proc.stdout.read(keep)) == keep
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err
