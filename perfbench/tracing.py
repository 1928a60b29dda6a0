"""In-memory spans around hamcheck's public functions, and their summary.

Spans are recorded from outside the package: each function is replaced,
under the name its caller looks it up by, with a wrapper that records
(kind, start, end, parent, note). ``installed`` restores every original
when it exits. ``note`` is one integer per span that a layer metric needs
(power-iteration count, oracle size and answer, verdict status, screen
batch size, theorem index).
"""

from __future__ import annotations

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

import numpy as np

LAYERS = ("verify", "conditions", "spectral", "oracle", "iso", "graph6", "cli")
ORACLE_LADDER = range(4, 15)
STATUSES = ("guaranteed", "exception", "boundary", "inconclusive", "not_applicable")
HITS = ("guaranteed", "exception", "boundary")


class Tracer:
    """Spans in parallel typed arrays, so a few hundred thousand stay small."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.note = array("q")
        self._stack = [-1]

    def _kind_id(self, name: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_ids[name]

    def span(self, name: str, start: float, end: float, parent: int, note: int = 0) -> int:
        """Append a finished span; returns its index."""
        self.kind.append(self._kind_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.note.append(note)
        return len(self.kind) - 1

    def wrap(self, name: str, fn, note=None):
        """fn with a span per call; note(args, result) -> int fills the note."""
        kind = self._kind_id(name)

        def traced(*args, **kwargs):
            index = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.note.append(0)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.start[index] = start
                self.end[index] = end
            if note is not None:
                self.note[index] = note(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.kind)

    def dump(self, path) -> None:
        """Write the spans as TSV: index, name, start, end, parent, note."""
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\tnote\n")
            for i in range(len(self.kind)):
                out.write(f"{i}\t{self.kinds[self.kind[i]]}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\t{self.parent[i]}\t{self.note[i]}\n")


class _ModuleView:
    """A stand-in for a module that overrides some attributes and
    forwards every other lookup to the real module."""

    def __init__(self, real: ModuleType, **overrides) -> None:
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def _status_note(args, verdict) -> int:
    return STATUSES.index(verdict.status.value)


def _oracle_note(args, witness) -> int:
    return args[0].n * 2 + (witness is not None)


def _iterations_note(args, estimate) -> int:
    return estimate.iterations


def _batch_note(args, values) -> int:
    return len(args[0])


@contextmanager
def installed(tracer: Tracer, theorem_ids: list[str]):
    """Route hamcheck's public calls through tracer until the block exits.

    Wrapped names: verify.soundness, the batched eigvalsh screen seen by
    verify as np.linalg.eigvalsh, the checker of each THEOREMS entry
    (specs are frozen, so entries are swapped), conditions.{recognize_family,
    ec_ep_membership, nc_np_membership, is_isomorphic, rho, q_radius},
    {verify,cli}.{is_hamiltonian, is_traceable}, cli.{rho, q_radius,
    parse_graph6, write_graph6} and verify.write_graph6.
    """
    from hamcheck import cli, conditions, verify

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, note))

    def theorem_note(args, report) -> int:
        return theorem_ids.index(args[0])

    specs = dict(verify.THEOREMS)
    try:
        patch(verify, "soundness", "verify.soundness", theorem_note)
        linalg = _ModuleView(np.linalg, eigvalsh=tracer.wrap(
            "verify.screen", np.linalg.eigvalsh, _batch_note))
        saved.append((verify, "np", verify.np))
        verify.np = _ModuleView(np, linalg=linalg)
        for tid, spec in specs.items():
            verify.THEOREMS[tid] = dataclasses.replace(
                spec, checker=tracer.wrap("conditions.checker", spec.checker, _status_note))
        for attr in ("recognize_family", "ec_ep_membership", "nc_np_membership"):
            patch(conditions, attr, "conditions.recognize")
        patch(conditions, "is_isomorphic", "iso.is_isomorphic")
        for owner in (conditions, cli):
            patch(owner, "rho", "spectral.rho", _iterations_note)
            patch(owner, "q_radius", "spectral.q_radius", _iterations_note)
        for owner in (verify, cli):
            patch(owner, "is_hamiltonian", "oracle.is_hamiltonian", _oracle_note)
            patch(owner, "is_traceable", "oracle.is_traceable", _oracle_note)
        patch(cli, "parse_graph6", "graph6.parse")
        patch(cli, "write_graph6", "graph6.write")
        patch(verify, "write_graph6", "graph6.write")
        patch(cli, "main", "cli.main")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        verify.THEOREMS.update(specs)


# ----------------------------------------------------------------- summary

def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; self time is the duration minus the
    time covered by the span's children, which never overlap one another."""
    start = np.frombuffer(tracer.start, dtype=np.float64)
    duration = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    covered = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration, duration - covered


def summarize(tracer: Tracer, theorem_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics from a finished trace."""
    duration, self_time = self_times(tracer)
    kind = np.frombuffer(tracer.kind, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    note = np.frombuffer(tracer.note, dtype=np.int64)
    layer_of_kind = np.array([name.split(".")[0] for name in tracer.kinds] + [""], dtype=object)
    layer = layer_of_kind[kind]

    def where(*names: str) -> np.ndarray:
        return np.isin(kind, [tracer.kinds.index(n) for n in names if n in tracer.kinds])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = float(self_time[layer == name].sum())

    # verify: one soundness span per theorem; screen and checker calls are
    # its direct children
    sound = where("verify.soundness")
    for i, tid in enumerate(theorem_ids):
        out[f"verify.theorem_s.{tid}"] = float(duration[sound & (note == i)].sum())
    screen = where("verify.screen")
    checker = where("conditions.checker")
    nested = parent >= 0
    checked = checker & nested
    checked[nested] &= sound[parent[nested]]
    screened_by = np.zeros(len(kind))
    np.add.at(screened_by, parent[screen], note[screen])
    checks_by = np.zeros(len(kind))
    np.add.at(checks_by, parent[checked], 1)
    screened = float(screened_by.sum())
    hits = float((checked & np.isin(note, [STATUSES.index(s) for s in HITS])).sum())
    out["verify.screened"] = screened
    out["verify.checked"] = float(checked.sum())
    out["verify.hits"] = hits
    out["verify.screen_keep_frac"] = ratio(float(checks_by[screened_by > 0].sum()), screened)
    out["verify.hit_frac"] = ratio(hits, float(checked.sum()))
    out["verify.screen_s"] = float(duration[screen].sum())
    out["verify.scan_self_s"] = float(self_time[sound].sum())

    recognize = where("conditions.recognize")
    out["conditions.calls"] = float(checker.sum())
    out["conditions.s"] = float(duration[checker].sum())
    for code, status in enumerate(STATUSES):
        out[f"conditions.{status}"] = float((checker & (note == code)).sum())
    out["conditions.recognize_calls"] = float(recognize.sum())
    out["conditions.recognize_s"] = float(duration[recognize].sum())

    spectral = layer == "spectral"
    iterations = float(note[spectral].sum())
    out["spectral.calls"] = float(spectral.sum())
    out["spectral.s"] = float(duration[spectral].sum())
    out["spectral.iterations"] = iterations
    out["spectral.us_per_iteration"] = ratio(out["spectral.s"] * 1e6, iterations)

    oracle = layer == "oracle"
    sizes = note[oracle] // 2
    out["oracle.calls"] = float(oracle.sum())
    out["oracle.s"] = float(duration[oracle].sum())
    out["oracle.positive_frac"] = ratio(float((note[oracle] % 2).sum()), float(oracle.sum()))
    for n in ORACLE_LADDER:
        at_n = sizes == n
        out[f"oracle.ms_per_call.n{n}"] = ratio(
            float(duration[oracle][at_n].sum()) * 1e3, float(at_n.sum()))

    iso = layer == "iso"
    out["iso.calls"] = float(iso.sum())
    out["iso.s"] = float(duration[iso].sum())
    out["graph6.parse_s"] = float(duration[where("graph6.parse")].sum())
    out["graph6.write_s"] = float(duration[where("graph6.write")].sum())

    out["trace.spans"] = float(len(kind))
    out["trace.self_sum_s"] = float(self_time.sum())
    return out
