"""hamcheck benchmark: one workload per call, one JSON result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (their composition and reasons are in BENCHMARK.json):

  verify-n6         soundness(tid, max_n=6, jobs=1) for every registered
                    theorem, in registry order; exhaustive, so the seed is
                    not used.
  analyze-oracle    hamcheck.cli.main(["analyze", "--format", "json", FILE])
  analyze-spectral  on a seeded graph6 corpus (corpus.py).

The workload runs in a child process (child.py) pinned to one CPU, which
repeats the unit of work while another unit fits in ``--seconds``
(analyze: at least twice; a verify unit takes longer than that, so
verify-n6 measures one). Set-up is timed in further child processes.
Outputs are checked here, after the child has exited.

Times are given in reference seconds. Next to the work it measures, the
child times ``child.reference()``, a fixed computation of the benchmark's
own, and each interval is scaled by REF_S over the mean of the reference
times taken just before and just after it (around each theorem, and
around each run of child.REF_EVERY analyze records). A shared machine
runs up to twice as slow for tens of seconds at a time; such drift slows
the reference and the work alike and cancels out. A change to the program
scales the reported time exactly as it scales real seconds, because the
program cannot change the reference. On a machine running the reference
in REF_S, the figures are plain seconds.

End-to-end metrics (--trace 0):
  setup_s       median, over SETUP_PROBES fresh processes, of the time from
                process start until hamcheck and hamcheck.cli are imported
                and the inputs are read
  wall_s        median time of one unit of work (for analyze, the sum of
                its records' latencies)
  graphs_per_s  graphs per unit / wall_s (labeled graphs scanned, for verify)
  graph_p50_ms, graph_p90_ms
                percentiles of per-record latency over all units, a
                record's latency being the gap between its line on
                analyze's stdout and the line before; for verify-n6, whose
                graphs cannot be timed one by one from outside the scan,
                both are wall_s per scanned graph
  peak_rss_mb   peak resident memory of the workload's child process
  ok_frac       1 - failed/attempted (an operation is a record, or for
                verify-n6 a theorem, in one unit)
  decided_frac  hypothesis hits ending Guaranteed or Exception, over all
                hits (the rest end Boundary)

With --trace 1 the child runs one unit untraced and one traced, and the
metrics are the per-layer ones from tracing.py plus the tracing overhead,
in plain seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-n6", "analyze-oracle", "analyze-spectral")
SETUP_PROBES = 7
REF_S = 0.03    # the reference's time at the speed the figures are given in
CHILD_TIMEOUT_S = 170.0
SPECTRAL_TOL = 1e-8


def percentile(values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scale(refs: list[float]) -> float:
    """Factor from seconds to reference seconds, given the reference times
    taken around an interval (none in a traced run: factor 1)."""
    return REF_S / statistics.fmean(refs) if refs else 1.0


def _child(role: str, workload: str, corpus: Path, seconds: float, trace: int,
           result: Path) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), role, workload, str(corpus),
            repr(seconds), str(trace), str(result),
            str(HERE / "out" / f"spans-{workload}.tsv")]


def time_setup(cmd: list[str]) -> float:
    """Reference seconds from starting the process until it reports ready."""
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        ref = proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {cmd}")
    return elapsed * scale([float(ref)])


# ----------------------------------------------------------------- checks

@dataclass
class Tally:
    """Checked operations and scaled timings."""
    attempted: int = 0
    failed: int = 0
    hits: int = 0
    decided: int = 0
    graphs: int = 0                                 # per unit
    unit_s: list = field(default_factory=list)      # one per unit
    latency_s: list = field(default_factory=list)   # one per answered record


def check_verify(units: list[dict]) -> Tally:
    """Operations are theorems, scanned in registry order."""
    from hamcheck import verify

    ids = verify.theorem_ids()
    tally = Tally()
    for unit in units:
        reports, refs = unit["reports"], unit["refs"]
        tally.attempted += len(ids)
        tally.failed += len(ids) - len(reports)
        for tid, report in zip(ids, reports):
            expected = verify.sizes_for(verify.THEOREMS[tid], 6)
            ok = report["theorem_id"] == tid and report["passed"] and report["sizes"] == expected
            tally.failed += not ok
            tally.hits += report["hypothesis_hits"]
            tally.decided += report["guaranteed_confirmed"] + report["exceptions_matched"]
        tally.graphs = sum(report["graphs_scanned"] for report in reports)
        tally.unit_s.append(sum(seconds * scale(refs[i:i + 2])
                                for i, seconds in enumerate(unit["durations"])))
    return tally


def spectral_reference(records) -> list[tuple[float, float]]:
    """(rho, q) of each record by a dense eigvalsh."""
    import numpy as np

    out = []
    for rec in records:
        a = np.array([[rec.adj[u] >> v & 1 for v in range(rec.n)] for u in range(rec.n)],
                     dtype=float)
        q = a + np.diag(a.sum(axis=1))
        out.append((float(np.linalg.eigvalsh(a)[-1]), float(np.linalg.eigvalsh(q)[-1])))
    return out


def record_ok(rec, out: dict, reference: tuple[float, float]) -> bool:
    if (out.get("n"), out.get("m"), out.get("graph6")) != (rec.n, rec.edge_count(), rec.line):
        return False
    rho, q = reference
    if out.get("rho") is None or abs(out["rho"] - rho) > SPECTRAL_TOL:
        return False
    if out.get("q") is None or abs(out["q"] - q) > SPECTRAL_TOL:
        return False
    oracle = out.get("oracle")
    for verdict in out.get("verdicts", ()):
        if verdict["status"] == "guaranteed" and oracle is not None:
            if not oracle[verdict["property"]]:
                return False
    return True


def check_analyze(units: list[dict], records, corpus: Path) -> Tally:
    """Operations are corpus records; a record's latency is the gap between
    its output line and the previous one."""
    reference = spectral_reference(records)
    tally = Tally(graphs=len(records))
    for unit in units:
        outputs: dict[int, dict] = {}
        stray = 0
        unit_s = 0.0
        refs = unit["refs"]
        resumed = [unit["start"]] + unit["resumes"]
        for i, (line, stamp) in enumerate(zip(unit["stdout"].splitlines(), unit["stamps"])):
            segment = i // unit["ref_every"]
            latency = (stamp - resumed[i]) * scale(refs[segment:segment + 2])
            unit_s += latency
            try:
                out = json.loads(line)
                path, lineno = out["id"].rsplit(":", 1)
                index = int(lineno) - 1
            except (ValueError, KeyError, AttributeError):
                stray += 1
                continue
            if path != str(corpus) or index in outputs or not 0 <= index < len(records):
                stray += 1
                continue
            outputs[index] = out
            tally.latency_s.append(latency)
        tally.unit_s.append(unit_s)
        tally.attempted += len(records)
        bad = 0
        for index, rec in enumerate(records):
            out = outputs.get(index)
            if out is None or not record_ok(rec, out, reference[index]):
                bad += 1
                continue
            for verdict in out["verdicts"]:
                tally.hits += verdict["status"] in ("guaranteed", "exception", "boundary")
                tally.decided += verdict["status"] in ("guaranteed", "exception")
        if unit["exit"] != 0 or stray:
            bad = max(bad, 1)
        tally.failed += bad
    return tally


# ------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hamcheck" / "__init__.py").is_file():
        print(f"perfbench: no hamcheck package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        records = []
        corpus = workdir / "corpus.g6"
        if args.workload != "verify-n6":
            import corpus as corpus_mod

            records = corpus_mod.generate(args.workload, args.seed)
            corpus.write_text("".join(rec.line + "\n" for rec in records))

        result = workdir / "result.json"
        cmd = _child("run", args.workload, corpus, args.seconds, args.trace, result)
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        output = json.loads(result.read_text())
        units = output["units"]

        if not args.trace:
            setup = _child("setup", args.workload, corpus, args.seconds, 0, result)
            setup_s = statistics.median(time_setup(setup) for _ in range(SETUP_PROBES))

        if args.workload == "verify-n6":
            tally = check_verify(units)
        else:
            tally = check_analyze(units, records, corpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in output["trace"].items()}
    else:
        wall_s = statistics.median(tally.unit_s)
        latency_ms = [seconds * 1e3 for seconds in tally.latency_s]
        if args.workload == "verify-n6":
            # a scan's graphs are not timed one by one from outside it
            latency_ms = [wall_s * 1e3 / tally.graphs]
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "graphs_per_s": (tally.graphs / wall_s, "1/s"),
            "graph_p50_ms": (percentile(latency_ms, 0.5), "ms"),
            "graph_p90_ms": (percentile(latency_ms, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1 - tally.failed / tally.attempted, "fraction"),
            "decided_frac": (tally.decided / tally.hits if tally.hits else 0.0, "fraction"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")) or ".theorem_s." in metric:
        return "s"
    if "ms_per_call" in metric:
        return "ms"
    if metric.endswith("us_per_iteration"):
        return "us"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
