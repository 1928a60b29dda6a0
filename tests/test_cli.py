import json
from pathlib import Path

import pytest

from hamcheck.cli import main
from hamcheck.graph6 import parse_graph6, write_graph6
from hamcheck.graphs import complete_bipartite, cycle
from hamcheck.spectral import q_radius

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


def test_analyze_honours_tolerances(capsys, monkeypatch):
    # q(D^o) = 5.7785 lies 0.028 above tight-q-hamiltonian's 2n-5+3/(n-1) = 5.75
    def tight_q(*flags):
        code, out, _ = run(capsys, ["analyze", "--format", "json", *flags], stdin="D^o\n",
                           monkeypatch=monkeypatch)
        assert code == 0
        by = {v["checker"]: v for v in json.loads(out)["verdicts"]}
        return by["tight-q-hamiltonian"]

    assert tight_q()["status"] == "guaranteed"
    assert tight_q("--cmp-tol", "0.05")["status"] == "boundary"
    loose = dict(tight_q("--tol", "1e-3")["certificate"])["q"]
    assert loose == q_radius(parse_graph6("D^o"), tol=1e-3).value
    assert loose != dict(tight_q()["certificate"])["q"]


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
    a = run(capsys, ["analyze", "--format", "json", "--deterministic"],
            stdin=g6 + "\n", monkeypatch=monkeypatch)
    b = run(capsys, ["analyze", "--format", "json", "--deterministic"],
            stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert a == b
