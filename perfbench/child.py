"""One workload in its own process.

    python3 perfbench/child.py ROLE WORKLOAD CORPUS SECONDS TRACE RESULT SPANS

Role ``setup`` imports hamcheck and hamcheck.cli, loads the inputs, prints
``ready``, then prints the time ``reference()`` takes; the parent times the
set-up from process start.

Role ``run`` repeats the workload's unit of work (the whole verify scan, or
one ``hamcheck analyze`` over the corpus) while another unit still fits in
``seconds``, at least MIN_UNITS times, and writes each unit's outputs and
timings as JSON to RESULT. ``reference()`` is timed before and after every
unit, within analyze after every REF_EVERY records, and for verify-n6
after every theorem. With trace 1 it instead runs
one unit untraced and one traced, and adds the per-layer summary; the
spans go to SPANS.

The process pins itself to one CPU, so that the reference and the work it
is set against run on the same CPU.
"""

from __future__ import annotations

import io
import json
import os
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

VERIFY_MAX_N = 6
MIN_UNITS = {"verify-n6": 1, "analyze-oracle": 2, "analyze-spectral": 2}
REF_EVERY = 20    # analyze records between reference timings


def reference() -> float:
    """Seconds taken by a fixed computation of the benchmark's own, in the
    program's mix of Python integer bit operations (a Hamiltonian-path
    subset DP on a 14-vertex circulant) and small numpy matrix-vector
    products. The program cannot change it, so it measures only how fast
    the machine runs at the moment."""
    return min(_reference_once() for _ in range(2))


def _reference_once() -> float:
    start = perf_counter()
    n = 14
    adj = [(1 << (v + 1) % n) | (1 << (v - 1) % n) | (1 << (v + 4) % n) | (1 << (v - 4) % n)
           for v in range(n)]
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for v in range(n):
        dp[1 << v] = 1 << v
    for mask in range(1, full + 1):
        ends = dp[mask]
        while ends:
            low = ends & -ends
            ends ^= low
            rest = adj[low.bit_length() - 1] & ~mask
            while rest:
                step = rest & -rest
                rest ^= step
                dp[mask | step] |= step
    m = np.ones((24, 24)) + np.eye(24)
    x = np.ones(24)
    for _ in range(4000):
        y = m @ x
        x = y / np.linalg.norm(y)
    return perf_counter() - start


class StampedStdout(io.TextIOBase):
    """A stdout that keeps the text and the time each line was completed.

    After every REF_EVERY lines it times ``reference()`` before returning
    to the writer; ``resumes`` holds the time each line's writer resumed.
    """

    def __init__(self, refs: list[float] | None = None) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self.refs = refs

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.stamps.append(perf_counter())
            if self.refs is not None and len(self.stamps) % REF_EVERY == 0:
                self.refs.append(reference())
            self.resumes.append(perf_counter())
        return len(text)


def verify_unit(verify, theorem_ids: list[str], timed: bool) -> dict:
    """Every theorem's report and scan time; with timed, also the
    reference before the first theorem and after each one."""
    refs = [reference()] if timed else []
    reports, durations = [], []
    try:
        for tid in theorem_ids:
            start = perf_counter()
            reports.append(verify.soundness(tid, max_n=VERIFY_MAX_N, jobs=1).to_dict())
            durations.append(perf_counter() - start)
            if timed:
                refs.append(reference())
    except Exception:  # a crash fails every theorem it left unscanned
        traceback.print_exc()
    return {"wall_s": sum(durations), "durations": durations, "reports": reports,
            "refs": refs}


def analyze_unit(cli, corpus: str, timed: bool) -> dict:
    """analyze's output and the time each line appeared; with timed, also
    the reference before the first line, after every REF_EVERY lines and
    after the last."""
    refs = [reference()] if timed else None
    sink = StampedStdout(refs)
    start = perf_counter()
    try:
        with redirect_stdout(sink):
            code = cli.main(["analyze", "--format", "json", corpus])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails every record it left unanswered
        traceback.print_exc()
        code = 1
    wall = perf_counter() - start
    if timed and len(sink.stamps) % REF_EVERY:
        refs.append(reference())
    return {"start": start, "wall_s": wall, "stamps": sink.stamps, "resumes": sink.resumes,
            "exit": code, "stdout": "".join(sink.parts), "refs": refs or [],
            "ref_every": REF_EVERY}


def main(argv: list[str]) -> int:
    role, workload, corpus, seconds, trace, result, spans = argv
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from hamcheck import cli, verify

    theorem_ids = verify.theorem_ids()
    if workload == "verify-n6":
        def unit(timed: bool = True) -> dict:
            return verify_unit(verify, theorem_ids, timed)
    else:
        with open(corpus) as fh:
            fh.read()

        def unit(timed: bool = True) -> dict:
            return analyze_unit(cli, corpus, timed)
    if role == "setup":
        print("ready", flush=True)
        print(reference(), flush=True)
        return 0

    units = []
    summary = None
    if trace == "1":
        import tracing

        units.append(unit(timed=False))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, theorem_ids):
            traced = unit(timed=False)
        summary = tracing.summarize(tracer, theorem_ids)
        summary["trace.wall_s"] = traced["wall_s"]
        summary["trace.untraced_wall_s"] = units[0]["wall_s"]
        summary["trace.overhead_s"] = traced["wall_s"] - units[0]["wall_s"]
        summary["verify.enumerated"] = float(
            sum(report["graphs_scanned"] for report in traced.get("reports", ())))
        tracer.dump(spans)
        units.append(traced)
    else:
        budget = float(seconds)
        begin = perf_counter()
        while True:
            units.append(unit())
            elapsed = perf_counter() - begin
            if len(units) >= MIN_UNITS[workload] and elapsed + units[-1]["wall_s"] > budget:
                break
    with open(result, "w") as out:
        json.dump({"units": units, "trace": summary}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
