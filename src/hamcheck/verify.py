"""Exhaustive labeled enumeration and machine-checked soundness reports.

Every labeled graph in range is scanned; cheap necessary conditions
(edge count, degrees, rigorous bounds on the spectral radius) cut the
candidate set before the full checker and the Hamiltonicity oracle run.
Labeled enumeration over-counts isomorphic copies, which is harmless for
soundness claims.

No theorem is written here. A TheoremSpec is the theorem's one row in
``conditions.CONDITIONS`` and its checker, the row's verdict ladder
``conditions.decide``; the scan reads the row through the slice ladder
and calls the checker on exception candidates only. Everything else is read from the row: its
hypothesis and strictness, a degree theorem's screen, its m/delta filter
(the row's per-side minimum degrees, and ``_m_min``, a necessary edge
count derived from its threshold by one rule per quantity), and the
exceptions ``tightness_search`` probes. ``_sides`` alone decides a kind's
side sizes at n, for the scanned sizes, the size caps, the scan layout
and ``tightness_search``.

The scan works on slices of at most SLICE masks, so its temporaries stay
bounded, and each slice goes through one pipeline whatever the graph
kind. A graph is one uint32 adjacency row of the slice throughout, side X
first for a bipartite graph, as ``to_graph``; only its degree table rides
along. The pipeline: the m/delta filter, which yields the kept masks'
adjacency rows and degree tables; for the degree theorems (Chvatal,
bipartite degree, Moon-Moser) the row's screen, its own inequality in
exact integer arithmetic over the slice; for the spectral ones, on the
hypothesis matrices, which ``spectral.matrix_stack`` builds from the rows
(or from ``_Layout.complement`` of them, for the radius of a complement),
``spectral.cw_bounds``, whose matrix-vector products enclose each radius
with no LAPACK call. It is both the screen and the judge, by the row's
one threshold rule ``row.ladder`` at both ends: a graph Inconclusive at
both is dropped, and a kept graph whose two ends get the same status,
neither on the line, is judged at its lower end. Only the graphs whose
enclosure meets the line (the band) go to ``spectral.radius_stack``
before the ladder, which judges their estimates, the ones ``rho`` or
``q_radius`` gives the same matrix, bit for bit. Then the slice ladder
``conditions.slice_ladder`` decides the slice's verdicts over arrays and
names the graphs that may be exceptions; ``radius_stack`` runs on the
candidates it has not seen, as their certificates print the estimate;
the checker, called only on those candidates, on the graph object
``_Layout.build`` makes of its row, gives the verdict that replaces the
ladder's; and a buffer keeps the hits' rows, status codes and Exception
families. Every ORACLE_BATCH hits, and at the end of the part, the
buffered rows are decided by one call of the oracle's array entry,
``oracle.witness_rows``, and tallied in scan order over arrays, with
per-hit Python only for the Exception hits.
``tightness_search`` hands each slice's rows to the same entry and builds
no graph object at all. A Graph is built from a row only for the graph6
of a violation or a near miss.
``analyze`` and ``oracle`` look at one graph at a time: ``analyze``'s
spectral radii are a stack of one, and both reach the same entry on a
batch of one, through ``oracle.is_hamiltonian`` and ``is_traceable``.
``oracle`` prints the DP's witnesses;
``analyze`` asks ``oracle.certify``, which tries a bipartite side count,
a short checked rotation-extension search, a toughness count and the
full search before the DP, and so needs the DP for few graphs.
``analyze`` computes each spectral radius at most once per graph:
``conditions.RADII`` maps each hypothesis quantity to the graph and
matrix it bounds, for the checkers, the scan, ``analyze`` and
``tightness_search`` alike, and the checkers that share a quantity share
the estimate.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import conditions as cond
from .conditions import (
    BIP_UNBALANCED,
    GENERAL,
    HAMILTONIAN,
    RADII,
    STATUSES,
    Status,
)
from .families import FamilyId, FamilyTag, make_family, nc_member, np_member
from .graph6 import write_graph6
from .graphs import BipartiteGraph, Graph
# is_hamiltonian/is_traceable stay attributes here for perfbench/tracing.py
from .oracle import CYCLE, PATH, is_hamiltonian, is_traceable, witness_rows  # noqa: F401
from .spectral import cw_bounds, eigen_oracle, matrix_stack, q_radius, radius_stack

CHUNK = 1 << 16          # fewest masks per worker task under --jobs
SLICE = 1 << 11          # masks per scan slice; bounds the enclosures' matrix stack
ORACLE_BATCH = 1 << 11   # buffered hypothesis hits per batched oracle call
MAX_ENUM_N = 8
MAX_BIP_CELLS = 25       # cap on a bipartite scan's mask bits p*q
DEFAULT_MAX_N = 6
BIP_CELLS = 16           # largest p*q a scan covers unless sizes are given


# ------------------------------------------------------------ enumeration

@dataclass(frozen=True)
class _Layout:
    """How the bits of a mask encode one labeled graph of a kind and size.
    A graph is its adjacency row: per vertex, a uint32 bitset of its
    neighbours, a bipartite graph's side X first, as ``to_graph``."""
    nverts: int
    slots: list[tuple[int, int]]   # the vertex pair of each mask bit
    min_degree: list[int]          # per vertex
    sides: Optional[tuple[int, int]] = None   # (p, q) of a bipartite graph

    def slot_rows(self) -> np.ndarray:
        """[mask bit, vertex]: what the bit adds to that vertex's adjacency.
        Float, so a product with it runs in BLAS; its sums are integers
        below 2^32, so they are exact."""
        out = np.zeros((len(self.slots), self.nverts))
        for k, (i, j) in enumerate(self.slots):
            out[k, i], out[k, j] = 1 << j, 1 << i
        return out

    def complement(self, adjacency: np.ndarray) -> np.ndarray:
        """The rows with every slot flipped: the complement of a general
        graph, the quasi-complement of a bipartite one."""
        return adjacency ^ self.slot_rows().sum(axis=0).astype(np.uint32)

    def build(self, adjacency: np.ndarray) -> list:
        """The graph objects of the adjacency rows."""
        if self.sides is None:
            return [Graph(self.nverts, tuple(row)) for row in adjacency.tolist()]
        p, q = self.sides
        return [BipartiteGraph(p, q, tuple(row)) for row in (adjacency[:, :p] >> p).tolist()]


def _general_layout(n: int, min_degree: int) -> _Layout:
    return _Layout(n, [(i, j) for j in range(1, n) for i in range(j)], [min_degree] * n)


def _bipartite_layout(p: int, q: int, dx_min: int, dy_min: int) -> _Layout:
    slots = [(x, p + y) for x in range(p) for y in range(q)]
    return _Layout(p + q, slots, [dx_min] * p + [dy_min] * q, (p, q))


def _slices(layout: _Layout, lo: int, hi: int, m_min: int = 0):
    """Yield (scanned, adjacency, degrees) per slice of masks [lo, hi): for
    the masks with at least m_min edges and every vertex at its minimum
    degree, their adjacency rows and their per-vertex degree tables."""
    need = np.array(layout.min_degree)
    shifts = np.arange(len(layout.slots), dtype=np.int64)
    slot_rows = layout.slot_rows()
    # per vertex, the mask bits of its slots
    touches = (slot_rows > 0).T.astype(np.int64) @ (1 << shifts)
    for start in range(lo, hi, SLICE):
        masks = np.arange(start, min(start + SLICE, hi), dtype=np.int64)
        degrees = np.bitwise_count(masks[:, None] & touches).astype(np.int16)
        keep = (np.bitwise_count(masks) >= m_min) & (degrees >= need).all(axis=1)
        masks = masks[keep]
        adjacency = (((masks[:, None] >> shifts) & 1).astype(float) @ slot_rows).astype(np.uint32)
        yield len(keep), adjacency, degrees[keep]


# ------------------------------------------------------------- reports

@dataclass
class SoundnessReport:
    theorem_id: str
    sizes: list
    graphs_scanned: int = 0
    hypothesis_hits: int = 0
    guaranteed_confirmed: int = 0
    exceptions_matched: int = 0
    boundary_cases: int = 0
    violations: list = field(default_factory=list)
    exceptions_by_family: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "SoundnessReport") -> None:
        self.graphs_scanned += other.graphs_scanned
        self.hypothesis_hits += other.hypothesis_hits
        self.guaranteed_confirmed += other.guaranteed_confirmed
        self.exceptions_matched += other.exceptions_matched
        self.boundary_cases += other.boundary_cases
        self.violations.extend(other.violations)
        for name, count in other.exceptions_by_family.items():
            self.exceptions_by_family[name] = self.exceptions_by_family.get(name, 0) + count
        for size in other.sizes:
            if size not in self.sizes:
                self.sizes.append(size)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def summary_line(self) -> str:
        return (
            f"{self.theorem_id}: scanned={self.graphs_scanned} hits={self.hypothesis_hits} "
            f"guaranteed={self.guaranteed_confirmed} exceptions={self.exceptions_matched} "
            f"boundary={self.boundary_cases} violations={len(self.violations)} "
            f"[{'PASS' if self.passed else 'FAIL'}]"
        )


# ------------------------------------------------------- theorem registry

@dataclass(frozen=True)
class TheoremSpec:
    """A theorem as the scan reads it: its row in ``conditions.CONDITIONS``,
    which ``conditions.slice_ladder`` applies to every slice, and its
    checker, the row's verdict ladder ``conditions.decide``, which decides
    the slice ladder's exception candidates."""
    row: cond.Condition
    checker: Callable


def _ceil_eps(x: float) -> int:
    return math.ceil(x - 1e-9)


# Per hypothesis quantity, the fewest edges a graph of size n can have and
# still meet threshold t: a necessary count, so the scan's m/delta filter
# drops only graphs whose hypothesis fails.
_NEEDED_EDGES: dict[str, Callable[[int, float, bool], int]] = {
    "m": lambda n, t, strict: math.floor(t) + 1 if strict else math.ceil(t),
    # q(G) <= 2m/(n-1) + n - 2
    "q": lambda n, t, strict: _ceil_eps((t - n + 2) * (n - 1) / 2),
    # rho(B) <= sqrt(m) for a bipartite B
    "rho": lambda n, t, strict: _ceil_eps(t * t),
    # rho(B*)^2 >= max degree >= m*/n, where B* has m* = n^2 - m edges
    "rho_star": lambda n, t, strict: _ceil_eps(n * n - n * t * t),
    # q of the complement >= 4 m'/n, where the complement has m' = n(n-1)/2 - m
    "q_complement": lambda n, t, strict: max(_ceil_eps(n * (n - 1) / 2 - n * t / 4), 0),
}


def _m_min(row: cond.Condition, n: int) -> int:
    """The fewest edges a graph of size n needs to meet row's hypothesis."""
    if row.quantity is None:
        return 0
    return _NEEDED_EDGES[row.quantity](n, row.threshold(n), row.strict)


THEOREMS: dict[str, TheoremSpec] = {
    tid: TheoremSpec(row, partial(cond.decide, row)) for tid, row in cond.CONDITIONS.items()
}


def theorem_ids() -> list[str]:
    return list(THEOREMS)


def _sides(kind: str, n: int) -> tuple[int, int]:
    """The side sizes (X, Y) of a kind's graphs at size n; a general graph
    is one side of n vertices."""
    if kind == GENERAL:
        return n, 0
    return n + (kind == BIP_UNBALANCED), n


def sizes_for(spec: TheoremSpec, max_n: int) -> list[int]:
    """Side sizes (general n, or bipartite n with at most BIP_CELLS mask
    bits) scanned for a theorem."""
    kind = spec.row.kind
    return [n for n in range(spec.row.min_n, max_n + 1)
            if kind == GENERAL or math.prod(_sides(kind, n)) <= BIP_CELLS]


def _scan_entry(
    theorem_id: str, max_n: int, sizes: Optional[list[int]] = None
) -> tuple[TheoremSpec, list[int]]:
    """The theorem's spec and the sizes a scan of it covers (``sizes``, or
    those of ``sizes_for``). A scan costs 2^(mask bits), so sizes above the
    caps are refused here, before any work."""
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    if sizes is None:
        sizes = sizes_for(spec, max_n)
    kind = spec.row.kind
    for n in sizes:
        if kind == GENERAL and n > MAX_ENUM_N:
            raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}")
        if kind != GENERAL and math.prod(_sides(kind, n)) > MAX_BIP_CELLS:
            raise ValueError(f"bipartite enumeration capped at p*q <= {MAX_BIP_CELLS}")
    return spec, sizes


# --------------------------------------------------------------- scanning

def _spec_layout(spec: TheoremSpec, n: int) -> _Layout:
    row = spec.row
    p, q = _sides(row.kind, n)
    if row.kind == GENERAL:
        return _general_layout(p, row.min_degree[0])
    return _bipartite_layout(p, q, *row.min_degree)


def _hypothesis_matrices(row: cond.Condition, layout: _Layout, adjacency: np.ndarray) -> np.ndarray:
    """Per adjacency row, the matrix of its graph's hypothesis radius, as a
    (rows, n, n) stack."""
    radius = RADII[row.quantity]
    operand = layout.complement(adjacency) if radius.complemented else adjacency
    return matrix_stack(operand, radius.matrix)


def _graph6(adjacency: np.ndarray) -> str:
    """The graph6 of the graph with one adjacency row of a scan slice."""
    return write_graph6(Graph(len(adjacency), tuple(adjacency.tolist())))


def _witness_kind(spec: TheoremSpec) -> str:
    return CYCLE if spec.row.prop == HAMILTONIAN else PATH


def _verdicts(spec: TheoremSpec, layout: _Layout, adjacency: np.ndarray, estimates,
              codes: np.ndarray, candidate: np.ndarray) -> list:
    """The checker's verdict on each exception candidate of a slice, whose
    rows are ``adjacency`` and whose hypothesis radii, for a spectral
    checker, are ``estimates[row index]``: its status code goes into
    ``codes``, and the families of the Exception verdicts are returned, in
    row order."""
    families = []
    rows = np.flatnonzero(candidate).tolist()
    for i, obj in zip(rows, layout.build(adjacency[rows])):
        verdict = spec.checker(obj, estimate=estimates[i] if estimates else None)
        codes[i] = STATUSES.index(verdict.status)
        if verdict.status is Status.EXCEPTION:
            families.append(verdict.family)
    return families


def _flush(report: SoundnessReport, spec: TheoremSpec, rows: list[np.ndarray],
           codes: list[np.ndarray], families: list) -> None:
    """Decide the buffered hits, whose adjacency rows and status codes are
    ``rows`` and ``codes`` stacked and the families of whose Exception hits
    are ``families``, with one batched oracle call, and tally them in scan
    order."""
    if not rows:
        return
    adjacency, status = np.concatenate(rows), np.concatenate(codes)
    holds, _ = witness_rows(adjacency, _witness_kind(spec))
    guaranteed, boundary = status == cond.GUARANTEED, status == cond.BOUNDARY
    exception = np.flatnonzero(status == cond.EXCEPTION)
    violated = guaranteed & ~holds
    if not spec.row.strict:
        # a strict hypothesis is simply unresolved at the line; a non-strict
        # one holds there, so a missing property would be a real violation
        violated |= boundary & ~holds
    # named exceptional graphs must lack the property; the structural EC/EP
    # classes merely fall outside the theorem and may have it
    structural = np.array([family is not None and family.tag is FamilyTag.JOIN_EXPR
                           for family in families], dtype=bool)
    violated[exception] = holds[exception] & ~structural
    report.hypothesis_hits += len(status)
    report.guaranteed_confirmed += int((guaranteed & holds).sum())
    report.boundary_cases += int((boundary & ~violated).sum())
    for family, bad in zip(families, violated[exception].tolist()):
        if not bad:
            report.exceptions_matched += 1
            key = str(family)
            report.exceptions_by_family[key] = report.exceptions_by_family.get(key, 0) + 1
    report.violations += [_graph6(adjacency[i]) for i in np.flatnonzero(violated)]
    for buffer in (rows, codes, families):
        buffer.clear()


def _scan_part(theorem_id: str, n: int, lo: int, hi: int) -> SoundnessReport:
    """Masks [lo, hi) of one size, slice by slice: m/delta filter, the
    enclosures (drop, then judge off the band), radius_stack on the band,
    the slice ladder, radius_stack and the checker on its exception
    candidates, then the buffered hits through the batched oracle."""
    spec = THEOREMS[theorem_id]
    row = spec.row
    report = SoundnessReport(theorem_id, [n])
    layout = _spec_layout(spec, n)
    threshold = row.threshold(n) if row.spectral else None
    hit_rows: list[np.ndarray] = []    # per slice, its hits' adjacency rows
    hit_codes: list[np.ndarray] = []   # and their status codes
    families: list = []                # the buffered Exception hits' families
    buffered = 0
    for scanned, adjacency, degrees in _slices(layout, lo, hi, _m_min(row, n)):
        report.graphs_scanned += scanned
        estimates, values = {}, None   # per kept row index, its radius_stack estimate
        if row.spectral:
            matrices = _hypothesis_matrices(row, layout, adjacency)
            lower, upper = cw_bounds(matrices)
            (low, _), (high, _) = row.ladder(lower, threshold), row.ladder(upper, threshold)
            # a graph Inconclusive at both ends is no hit; the band: the
            # enclosures whose ends differ or whose lower end is on the line;
            # every other graph is judged at its lower end
            keep = (low != cond.INCONCLUSIVE) | (high != cond.INCONCLUSIVE)
            band = np.flatnonzero(((low != high) | (low == cond.BOUNDARY))[keep])
            adjacency, degrees, matrices = adjacency[keep], degrees[keep], matrices[keep]
            values = lower[keep]
            estimates = dict(zip(band.tolist(), radius_stack(matrices[band])))
            values[band] = [estimate.value for estimate in estimates.values()]
        codes, candidate = cond.slice_ladder(row, n, degrees, adjacency, values)
        if row.spectral:
            late = [i for i in np.flatnonzero(candidate).tolist() if i not in estimates]
            estimates.update(zip(late, radius_stack(matrices[late])))
        families += _verdicts(spec, layout, adjacency, estimates, codes, candidate)
        hit = cond.HIT[codes]
        hit_rows.append(adjacency[hit])
        hit_codes.append(codes[hit])
        buffered += int(hit.sum())
        if buffered >= ORACLE_BATCH:
            _flush(report, spec, hit_rows, hit_codes, families)
            buffered = 0
    _flush(report, spec, hit_rows, hit_codes, families)
    return report


def soundness(
    theorem_id: str,
    max_n: int = DEFAULT_MAX_N,
    sizes: Optional[list[int]] = None,
    jobs: int = 1,
) -> SoundnessReport:
    """Scan every labeled graph in range and verify the checker's verdicts.

    Guaranteed verdicts must be confirmed by the exact oracle; Exception
    verdicts must be refuted by it. Any disagreement lands in
    ``violations`` as a graph6 string.
    """
    spec, sizes = _scan_entry(theorem_id, max_n, sizes)
    report = SoundnessReport(theorem_id, [])
    tasks = []
    for n in sizes:
        total = 1 << len(_spec_layout(spec, n).slots)
        parts = max(1, min(jobs, total // CHUNK)) if jobs > 1 else 1
        step = -(-total // parts)
        for lo in range(0, total, step):
            tasks.append((theorem_id, n, lo, min(lo + step, total)))
    # the pool forks all its workers at the first submit, so never ask for
    # more than there are tasks or CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: only a parallel scan uses it, and the import alone
        # adds memory and start-up time to every other command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_part_star, tasks):
                report.merge(part)
    else:
        for task in tasks:
            report.merge(_scan_part(*task))
    report.sizes = sorted(report.sizes)
    return report


def _scan_part_star(task: tuple) -> SoundnessReport:
    return _scan_part(*task)


# ---------------------------------------------------------------- table 1

TABLE1_ROWS: list[tuple[str, FamilyId, float]] = [
    ("K4 v 5K1", nc_member(0), 13.1789),
    ("K2 v (K3 + 2K1)", nc_member(1), 9.3408),
    ("K3 v 4K1", nc_member(2), 9.7720),
    ("K1,2 v 4K1", nc_member(3), 8.8965),
    ("K2 v (K1 + K1,3)", nc_member(4), 9.3408),
    ("K2 v (K2 + 2K1)", nc_member(5), 7.7588),
    ("K1 v 2K2", nc_member(6), 5.5616),
    ("K2,3", nc_member(7), 5.0000),
    ("K2 v 3K1", nc_member(8), 6.3723),
    ("K3 v 5K1", np_member(0), 10.8990),
    ("K1 v (K3 + 2K1)", np_member(1), 6.9095),
    ("K2 v 4K1", np_member(2), 7.4641),
    ("K2,4", np_member(3), 6.0000),
    ("K1 v (K1 + K1,3)", np_member(4), 6.9095),
    ("K1 v (K2 + 2K1)", np_member(5), 5.3234),
    ("2K2", np_member(6), 2.0000),
    ("K1,4", FamilyId(FamilyTag.STAR, (5,)), 5.0000),
    ("K1,3", np_member(7), 4.0000),
]


def table1_report() -> list[tuple[str, float, float, float]]:
    """All 18 published q values recomputed: (name, computed, published, |diff|)."""
    rows = []
    for name, fid, published in TABLE1_ROWS:
        computed = q_radius(make_family(fid)).value
        rows.append((name, computed, published, abs(computed - published)))
    return rows


# --------------------------------------------------------------- tightness

def tightness_search(theorem_id: str, max_n: int = DEFAULT_MAX_N) -> dict:
    """Sharpness evidence: near-miss witnesses and exception-vacuity checks.

    Near misses are graphs without the property whose hypothesis is unmet
    by the smallest margin, a graph on a strict row's line first, at
    deficit 0; the exception report states whether each stated
    exceptional graph satisfies its theorem's hypothesis at all.
    The exceptional graphs' quantities come from the dense eigen oracle.
    """
    spec, sizes = _scan_entry(theorem_id, max_n)
    row = spec.row
    if row.quantity is None:
        raise ValueError(f"{theorem_id} has no numeric hypothesis to probe")
    radius = RADII.get(row.quantity)
    exceptions = []
    best: dict | None = None
    for n in sizes:
        threshold = row.threshold(n)
        for fid in row.exceptions(n):
            obj = make_family(fid)
            got = (float(obj.edge_count()) if radius is None
                   else eigen_oracle(radius.operand(obj), radius.matrix)[-1])
            exceptions.append({
                "family": str(fid),
                "n": n,
                "value": got,
                "threshold": threshold,
                "hypothesis_satisfied": not row.ladder(got, threshold)[1],
            })
        layout = _spec_layout(spec, n)
        for _, adjacency, _ in _slices(layout, 0, 1 << len(layout.slots)):
            found, _ = witness_rows(adjacency, _witness_kind(spec))
            lacking = np.flatnonzero(~found)
            if not len(lacking):
                continue
            # the hypothesis quantity: the edge count, or the top eigenvalue
            rows = adjacency[lacking]
            if row.quantity == "m":
                got = np.bitwise_count(rows).sum(axis=1) / 2
            else:
                got = np.linalg.eigvalsh(_hypothesis_matrices(row, layout, rows))[:, -1]
            # a satisfied hypothesis is the exception report's job; a graph
            # on a strict row's line is a near miss at deficit 0
            deficits = np.where(row.ladder(got, threshold)[1],
                                np.maximum(row.shortfall(got, threshold), 0.0), np.inf)
            # argmin takes the first of equal deficits, so scan order breaks ties
            i = int(np.argmin(deficits))
            if deficits[i] < (np.inf if best is None else best["deficit"]):
                best = {
                    "graph6": _graph6(adjacency[lacking[i]]),
                    "value": float(got[i]),
                    "threshold": threshold,
                    "deficit": float(deficits[i]),
                }
    return {
        "theorem_id": theorem_id,
        "exceptions": exceptions,
        "best_near_miss": best,
    }
