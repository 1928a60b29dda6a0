"""Command-line surface: analyze graphs, reproduce Table 1, run soundness scans.

analyze reads each record in one pass: one 0/1 adjacency matrix and one
degree list give the printed rho and q, the graph6 and every checker's
radii and degrees, and one walk of its components and one 2-colouring
serve the bipartite view, the connectivity precondition and certify. A
connected bipartite record's view, side X the larger, takes its rows and
degrees from the same matrix in side order, and its rho is the
record's, so a bipartite checker's certificate prints the same rho.

Exit codes: 0 clean, 1 a finding (a soundness scan with a violation, or
a ``table1`` value off its published one by more than ``--tolerance``),
2 parse/processing errors (a record that is not ASCII among them, or an
output closed before it was all written), 64 usage errors (unknown
subcommand, theorem, family, a flag the subcommand does not take, bad
parameters, or an input file that cannot be opened).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial
from typing import BinaryIO, Callable, Iterator, Optional, TextIO

import numpy as np

from . import verify as verify_mod
from .conditions import BIP_BALANCED, BIP_UNBALANCED, GENERAL, Status, Verdict, hypothesis_radius
from .families import FamilyId, FamilyTag, NC_GRAPHS, NP_GRAPHS, make_family
# parse_graph6 by the name perfbench wraps as graph6's parse
from .graph6 import Graph6Error, parse_graph6_with_matrix as parse_graph6, write_graph6
from .graphs import Graph, Shape, bipartite_view, bit_matrix, from_edges, shape_of
from .oracle import CYCLE, MAX_DP_N, PATH, certify, is_hamiltonian, is_traceable
from .spectral import SpectralEstimate, q_radius, rho

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: table1 --tol would otherwise be read as --tolerance
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # argparse defaults to exit 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(text: str) -> float:
    """argparse type for tolerances: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common_io(p):
        p.add_argument("file", nargs="?", help="input file (default: stdin)")
        p.add_argument("--edgelist", action="store_true",
                       help="input is one edge list ('n m' then m lines 'u v') instead of graph6 lines")
        p.add_argument("--strict", action="store_true",
                       help="stop at the first malformed record instead of skipping it")

    def common_flags(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser("analyze", help="run every applicable checker on input graphs")
    common_io(p_analyze)
    common_flags(p_analyze)

    p_table1 = sub.add_parser("table1", help="recompute the 18 published q values")
    common_flags(p_table1)
    p_table1.add_argument("--tolerance", type=_tolerance, default=5e-5,
                          help="max allowed |computed - published|")

    p_verify = sub.add_parser("verify", help="exhaustive soundness scan of a theorem")
    common_flags(p_verify)
    p_verify.add_argument("--deterministic", action="store_true",
                          help="suppress timing fields for byte-identical reruns")
    p_verify.add_argument("--theorem", required=True,
                          help="theorem id or 'all' (see 'verify --theorem list')")
    p_verify.add_argument("--max-n", type=int, default=verify_mod.DEFAULT_MAX_N)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes, at most one per task and per CPU")
    p_verify.add_argument("--tightness", action="store_true",
                          help="also report near-miss witnesses and exception hypotheses")

    p_family = sub.add_parser("family", help="emit a named family instance")
    p_family.add_argument("name", help="family name, e.g. Knn1PlusEdge, NC, Star")
    p_family.add_argument("--n", type=int)
    p_family.add_argument("--p", type=int)
    p_family.add_argument("--index", type=int)
    p_family.add_argument("--format", choices=("graph6", "edges"), default="graph6")

    p_oracle = sub.add_parser("oracle", help="exact Hamiltonicity/traceability with witnesses")
    common_io(p_oracle)
    common_flags(p_oracle)

    return parser


# ------------------------------------------------------------------ input

Records = Iterator[tuple[str, Optional[Graph], Optional[np.ndarray], Optional[str]]]


def _open_input(args) -> Optional[Records]:
    """The input's records, or None, after a message naming the file, when
    the file cannot be opened. The input is read as bytes (stdin's byte
    buffer, where it has one), so no byte fails to decode: a record that is
    not ASCII is that record's parse error."""
    if not args.file:
        return _read_graphs(args, getattr(sys.stdin, "buffer", sys.stdin))
    try:
        stream = open(args.file, "rb")
    except OSError as exc:
        print(f"hamcheck {args.command}: cannot read {args.file}: {exc.strerror}",
              file=sys.stderr)
        return None
    return _read_graphs(args, stream)


def _read_graphs(args, stream: BinaryIO | TextIO) -> Records:
    """Yield (record id, graph, its 0/1 matrix, error); one of graph/error set."""
    name = args.file or "<stdin>"
    try:
        if args.edgelist:
            g, err = _parse_edgelist(stream)
            yield name, g, None if g is None else bit_matrix(g.adj, g.n), err
            return
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            rec_id = f"{name}:{lineno}"
            try:
                yield rec_id, *parse_graph6(line), None
            except Graph6Error as exc:
                yield rec_id, None, None, str(exc)
    finally:
        if args.file:
            stream.close()


def _parse_edgelist(stream: BinaryIO | TextIO) -> tuple[Optional[Graph], Optional[str]]:
    data = stream.read()
    if isinstance(data, str):
        data = data.encode()
    try:  # decoded, so an error names a bad token as text, not bytes
        tokens = data.decode("ascii").split()
    except UnicodeDecodeError as exc:
        return None, f"non-ASCII byte {data[exc.start]:#04x} at offset {exc.start} in edge list"
    try:
        if len(tokens) < 2:
            raise ValueError("edge list needs a leading 'n m' header")
        n, m, *numbers = map(int, tokens)
        if n < 0 or m < 0:
            raise ValueError(f"edge list header 'n m' must not be negative, got {n} {m}")
        found = len(numbers)
        if found != 2 * m:   # counted in numbers, as an odd count is no count of edges
            raise ValueError(f"expected {m} edge{'s' * (m != 1)} ({2 * m} numbers) after the"
                             f" header, found {found} number{'s' * (found != 1)}")
        return from_edges(n, zip(numbers[::2], numbers[1::2])), None
    except ValueError as exc:
        return None, str(exc)


# ----------------------------------------------------------------- output

def _verdict_dict(checker: str, v: Verdict) -> dict:
    return {
        "checker": checker,
        "status": v.status.value,
        "property": v.prop,
        "certificate": [[key, value] for key, value in v.certificate],
        "family": str(v.family) if v.family is not None else None,
        "note": v.note,
    }


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
        return
    print(f"== {record['id']}: n={record['n']} m={record['m']} min_degree={record['min_degree']}")
    if record.get("rho") is not None:
        print(f"   rho={record['rho']:.6f} q={record['q']:.6f}")
    for v in record.get("verdicts", ()):
        cert = " ".join(f"{k}={val:g}" for k, val in v["certificate"])
        extra = f" family={v['family']}" if v["family"] else ""
        note = f" ({v['note']})" if v["note"] else ""
        print(f"   {v['checker']}: {v['status']}{extra} {cert}{note}")
    oracle = record.get("oracle")
    if oracle is not None:
        print(f"   oracle: hamiltonian={oracle['hamiltonian']} traceable={oracle['traceable']}")


# ---------------------------------------------------------------- analyze

def _estimate_once(estimates: dict, quantity: str, obj, bits: np.ndarray) -> SpectralEstimate:
    """obj's spectral estimate for a hypothesis quantity, from its 0/1
    adjacency matrix ``bits``, computed on first use."""
    if quantity not in estimates:
        estimates[quantity] = hypothesis_radius(quantity, obj, bits)
    return estimates[quantity]


def _applicable_verdicts(g: Graph, bits: np.ndarray, degrees: list[int],
                         estimates: dict, shape: Shape) -> list[dict]:
    """Every applicable checker's verdict on g, as a general graph and, when
    it is connected and bipartite, as a bipartite graph. Both views come
    from g's 0/1 adjacency matrix ``bits``, ``degrees`` and ``shape``: the
    bipartite one's matrix and degrees are g's in its side order. Each
    view's spectral estimates are shared by its checkers, and computed only
    when a checker's preconditions hold; ``estimates`` seeds g's, and its
    "rho", g's own radius, seeds the bipartite view's."""
    verdicts = []
    views = [(g, GENERAL, bits, degrees, estimates, shape.components)]
    bipartite = bipartite_view(g, bits, shape)
    if bipartite is not None:
        order, b = bipartite
        views.append((b, BIP_BALANCED if b.p == b.q else BIP_UNBALANCED,
                      bits[np.ix_(order, order)], [degrees[v] for v in order.tolist()],
                      {"rho": estimates["rho"]}, 1))
    for obj, kind, matrix, obj_degrees, obj_estimates, count in views:
        for tid, spec in verify_mod.THEOREMS.items():
            if spec.row.kind != kind:
                continue
            estimate = partial(_estimate_once, obj_estimates, spec.row.quantity, obj, matrix)
            verdict = spec.checker(obj, estimate=estimate, degrees=obj_degrees, components=count)
            if verdict.status is not Status.NOT_APPLICABLE:
                verdicts.append(_verdict_dict(tid, verdict))
    return verdicts


def _each_record(args, handle: Callable[..., Optional[str]]) -> int:
    """Call handle(args, record id, graph, its 0/1 matrix) on each input
    record. A record that does not parse, or for which handle returns
    an error message, is reported as ``error: <id>: <message>`` and makes
    the exit 2; under --strict it ends the run."""
    records = _open_input(args)
    if records is None:
        return EXIT_USAGE
    status = EXIT_OK
    for rec_id, g, matrix, err in records:
        if err is None:
            err = handle(args, rec_id, g, matrix)
        if err is not None:
            print(f"error: {rec_id}: {err}", file=sys.stderr)
            status = EXIT_PARSE
            if args.strict:
                return status
    return status


def _analyze_record(args, rec_id: str, g: Graph, bits: np.ndarray) -> None:
    degrees, shape = g.degrees(), shape_of(g)
    record = {
        "id": rec_id,
        "graph6": write_graph6(g, bits),
        "n": g.n,
        "m": sum(degrees) // 2,
        "min_degree": min(degrees, default=0),
        "rho": None,
        "q": None,
    }
    estimates = {}
    if g.n > 0:
        estimates = {"rho": rho(bits), "q": q_radius(bits)}
        record["rho"], record["q"] = estimates["rho"].value, estimates["q"].value
    record["verdicts"] = _applicable_verdicts(g, bits, degrees, estimates, shape)
    if 0 < g.n <= MAX_DP_N:
        # a Hamiltonian cycle less one edge is a Hamiltonian path; certify
        # asks the DP entries (by this module's names, which perfbench wraps)
        # what its side count, short search and toughness count leave open
        hamiltonian = certify(g, CYCLE, is_hamiltonian, shape)
        record["oracle"] = {
            "hamiltonian": hamiltonian,
            "traceable": hamiltonian or certify(g, PATH, is_traceable, shape),
        }
    _emit(record, args.format)


def cmd_analyze(args) -> int:
    return _each_record(args, _analyze_record)


# ----------------------------------------------------------------- table1

def cmd_table1(args) -> int:
    rows = verify_mod.table1_report()
    all_ok = True
    out = []
    for name, computed, published, diff in rows:
        ok = diff <= args.tolerance
        all_ok &= ok
        out.append({"name": name, "computed": computed, "published": published,
                    "diff": diff, "pass": ok})
    if args.format == "json":
        print(json.dumps(out))
    else:
        for row in out:
            flag = "" if row["pass"] else "  <-- MISMATCH"
            print(f"{row['name']:<20} q={row['computed']:9.4f} published={row['published']:9.4f}"
                  f" diff={row['diff']:.2e}{flag}")
        print(f"{'all 18 rows within' if all_ok else 'MISMATCHES above'} "
              f"tolerance {args.tolerance:g}")
    return EXIT_OK if all_ok else 1


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if args.theorem == "list":
        for tid in verify_mod.theorem_ids():
            print(tid)
        return EXIT_OK
    if args.theorem == "all":
        ids = verify_mod.theorem_ids()
    elif args.theorem in verify_mod.THEOREMS:
        ids = [args.theorem]
    else:
        print(f"hamcheck verify: unknown theorem {args.theorem!r} "
              f"(try --theorem list)", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.max_n <= verify_mod.MAX_ENUM_N:
        print(f"hamcheck verify: --max-n must be at least 1 and is capped at "
              f"{verify_mod.MAX_ENUM_N} (a scan enumerates 2^(n(n-1)/2) labeled graphs)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("hamcheck verify: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    all_pass = True
    reports = []
    for tid in ids:
        start = time.monotonic()
        report = verify_mod.soundness(tid, max_n=args.max_n, jobs=args.jobs)
        payload = report.to_dict()
        if not args.deterministic:
            payload["elapsed_s"] = round(time.monotonic() - start, 3)
        if args.tightness and verify_mod.THEOREMS[tid].row.quantity is not None:
            payload["tightness"] = verify_mod.tightness_search(tid, max_n=args.max_n)
        reports.append(payload)
        all_pass &= report.passed
        if args.format == "text":
            print(report.summary_line())
            if args.tightness and "tightness" in payload:
                miss = payload["tightness"]["best_near_miss"]
                if miss:
                    print(f"  near miss: {miss['graph6']} value={miss['value']:.6f} "
                          f"threshold={miss['threshold']:.6f}")
                for exc in payload["tightness"]["exceptions"]:
                    print(f"  exception {exc['family']}: value={exc['value']:.6f} "
                          f"threshold={exc['threshold']:.6f} "
                          f"hypothesis_satisfied={exc['hypothesis_satisfied']}")
    if args.format == "json":
        print(json.dumps(reports))
    return EXIT_OK if all_pass else 1


# ----------------------------------------------------------------- family

_FAMILY_BY_NAME = {
    "complete": (FamilyTag.COMPLETE, ("n",)),
    "completebipartite": (FamilyTag.COMPLETE_BIPARTITE, ("p", "n")),
    "cycle": (FamilyTag.CYCLE, ("n",)),
    "star": (FamilyTag.STAR, ("n",)),
    "kn1plusedge": (FamilyTag.KN1_PLUS_EDGE, ("n",)),
    "kn1plusvertex": (FamilyTag.KN1_PLUS_VERTEX, ("n",)),
    "knn1plusedge": (FamilyTag.KNN1_PLUS_EDGE, ("n",)),
    "kpn2plus4e": (FamilyTag.KPN2_PLUS_4E, ("n", "p")),
    "knn1plus2e": (FamilyTag.KNN1_PLUS_2E, ("n",)),
}


def cmd_family(args) -> int:
    key = args.name.replace("_", "").replace("-", "").lower()
    if key in ("nc", "np"):
        members = NC_GRAPHS if key == "nc" else NP_GRAPHS
        if args.index is None or not 0 <= args.index < len(members):
            print(f"hamcheck family: {args.name} needs --index in 0..{len(members) - 1}",
                  file=sys.stderr)
            return EXIT_USAGE
        tag = FamilyTag.NC_MEMBER if key == "nc" else FamilyTag.NP_MEMBER
        fid = FamilyId(tag, (args.index,))
    elif key in _FAMILY_BY_NAME:
        tag, param_names = _FAMILY_BY_NAME[key]
        params = []
        for pname in param_names:
            value = getattr(args, pname)
            if value is None:
                print(f"hamcheck family: {args.name} needs --{pname}", file=sys.stderr)
                return EXIT_USAGE
            params.append(value)
        fid = FamilyId(tag, tuple(params))
    else:
        print(f"hamcheck family: unknown family {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        built = make_family(fid)
    except ValueError as exc:
        print(f"hamcheck family: {exc}", file=sys.stderr)
        return EXIT_USAGE
    g = built.to_graph()
    if args.format == "graph6":
        print(write_graph6(g))
    else:
        print(g.n, g.edge_count())
        for u, v in g.edges():
            print(u, v)
    return EXIT_OK


# ----------------------------------------------------------------- oracle

def _oracle_record(args, rec_id: str, g: Graph, _matrix) -> Optional[str]:
    if g.n > MAX_DP_N:
        return f"oracle capped at n <= {MAX_DP_N}"
    ham = is_hamiltonian(g)
    tra = is_traceable(g)
    record = {
        "id": rec_id,
        "n": g.n,
        "hamiltonian": ham is not None,
        "cycle": list(ham.order) if ham else None,
        "traceable": tra is not None,
        "path": list(tra.order) if tra else None,
    }
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(f"{rec_id}: hamiltonian={record['hamiltonian']} cycle={record['cycle']} "
              f"traceable={record['traceable']} path={record['path']}")
    return None


def cmd_oracle(args) -> int:
    return _each_record(args, _oracle_record)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "table1": cmd_table1,
        "verify": cmd_verify,
        "family": cmd_family,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull, so the flush
        # at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PARSE
    return status


if __name__ == "__main__":
    sys.exit(main())
