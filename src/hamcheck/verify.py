"""Exhaustive labeled enumeration and machine-checked soundness reports.

Every labeled graph in range is scanned; cheap necessary conditions
(edge count, degrees, a batched dense-eigenvalue screen with a safety
guard well above the comparison tolerance) cut the candidate set before
the full checker and the Hamiltonicity oracle run. Labeled enumeration
over-counts isomorphic copies, which is harmless for soundness claims.

The scan works on slices of at most SLICE masks, so its temporaries stay
bounded, and each slice goes through one pipeline whatever the graph
kind: the m/delta filter, which also yields each graph's degree table;
for the degree theorems (Chvatal, bipartite degree, Moon-Moser) a degree
screen that evaluates the checker's own inequality on the whole slice in
exact integer arithmetic, so only graphs whose hypothesis holds are built;
for the spectral ones the eigvalsh screen and one stacked power
iteration on the surviving graphs (each spectral checker's own matrix;
the screen's eigenvalues are never reused as the checker's number); the
checker itself, which still decides every verdict; and a buffer of
hypothesis hits. Every ORACLE_BATCH hits, and at the end of the part,
the buffer is decided by one batched exact oracle call and tallied in
scan order. ``analyze``, ``oracle`` and
``tightness_search`` look at one graph at a time and keep the scalar
power iteration and oracle, which are faster for a single graph.
``analyze`` computes each spectral radius at most once per graph: RADII
maps each hypothesis kind to the graph and matrix it bounds, for the scan
and ``analyze`` alike, and the checkers that share a kind share the
estimate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import conditions as cond
from .conditions import HAMILTONIAN, TRACEABLE, Status, Verdict
from .families import (
    FamilyId,
    FamilyTag,
    NC_NAMES,
    NP_NAMES,
    make_family,
    nc_member,
    np_member,
)
from .graph6 import write_graph6
from .graphs import BipartiteGraph, Graph, complement, quasi_complement
from .oracle import is_hamiltonian, is_hamiltonian_batch, is_traceable, is_traceable_batch
from .spectral import (
    ADJACENCY,
    SIGNLESS_LAPLACIAN,
    eigen_oracle,
    q_radius,
    q_radius_stack,
    rho_stack,
)

SCREEN_GUARD = 1e-6
CHUNK = 1 << 16          # fewest masks per worker task under --jobs
SLICE = 1 << 11          # masks per scan slice; bounds the screen's matrix stack
ORACLE_BATCH = 1 << 11   # buffered hypothesis hits per batched oracle call
MAX_ENUM_N = 8
MAX_BIP_CELLS = 25
DEFAULT_MAX_N = 6
DEFAULT_BIP_CELLS = 16


# ------------------------------------------------------------ enumeration

def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _graph_from_mask(n: int, pairs: list[tuple[int, int]], mask: int) -> Graph:
    """One mask's graph; scans build theirs in bulk with ``_Layout.build``."""
    adj = [0] * n
    k = 0
    while mask:
        if mask & 1:
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        mask >>= 1
        k += 1
    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class _Layout:
    """How the bits of a mask encode one labeled graph of a kind and size."""
    nverts: int
    slots: list[tuple[int, int]]   # the vertex pair of each mask bit
    min_degree: list[int]          # per vertex
    row_bits: np.ndarray           # [mask bit, row]: what the bit adds to that adjacency row
    make: Callable[[tuple[int, ...]], Graph | BipartiteGraph]

    def build(self, bits: np.ndarray) -> list:
        """The graphs whose masks' bits are the rows of ``bits``."""
        return [self.make(tuple(rows)) for rows in (bits @ self.row_bits).tolist()]


def _general_layout(n: int, delta_min: int) -> _Layout:
    pairs = _pairs(n)
    row_bits = np.zeros((len(pairs), n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        row_bits[k, i], row_bits[k, j] = 1 << j, 1 << i
    return _Layout(n, pairs, [delta_min] * n, row_bits, partial(Graph, n))


def _bipartite_layout(p: int, q: int, dx_min: int, dy_min: int) -> _Layout:
    cells = [(x, y) for x in range(p) for y in range(q)]
    row_bits = np.zeros((p * q, p), dtype=np.int64)
    for k, (x, y) in enumerate(cells):
        row_bits[k, x] = 1 << y
    return _Layout(p + q, [(x, p + y) for x, y in cells], [dx_min] * p + [dy_min] * q,
                   row_bits, partial(BipartiteGraph, p, q))


def _slices(layout: _Layout, lo: int, hi: int, m_min: int = 0):
    """Yield (scanned, bits, degrees) per slice of masks [lo, hi): for the
    masks with at least m_min edges and every vertex at its minimum degree,
    their bit rows and their per-vertex degree tables."""
    touches = np.zeros(layout.nverts, dtype=np.int64)  # per vertex, its slots' mask bits
    for k, (i, j) in enumerate(layout.slots):
        touches[i] |= 1 << k
        touches[j] |= 1 << k
    need = np.array(layout.min_degree)
    shifts = np.arange(len(layout.slots), dtype=np.int64)
    for start in range(lo, hi, SLICE):
        masks = np.arange(start, min(start + SLICE, hi), dtype=np.int64)
        degrees = np.bitwise_count(masks[:, None] & touches).astype(np.int16)
        keep = (np.bitwise_count(masks) >= m_min) & (degrees >= need).all(axis=1)
        masks = masks[keep]
        yield len(keep), ((masks[:, None] >> shifts) & 1).astype(np.int16), degrees[keep]


def _visit_all(layout: _Layout, visit: Callable) -> int:
    count = 0
    for _, bits, _ in _slices(layout, 0, 1 << len(layout.slots)):
        count += len(bits)
        for obj in layout.build(bits):
            visit(obj)
    return count


def enumerate_graphs(n: int, delta_min: int, visit: Callable[[Graph], None]) -> int:
    """Visit every labeled simple graph on n vertices with min degree >= delta_min."""
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}")
    return _visit_all(_general_layout(n, delta_min), visit)


def enumerate_bipartite(
    p: int, q: int, delta_min: int, visit: Callable[[BipartiteGraph], None]
) -> int:
    """Visit every labeled biadjacency matrix with all degrees >= delta_min."""
    if p * q > MAX_BIP_CELLS:
        raise ValueError(f"bipartite enumeration capped at p*q <= {MAX_BIP_CELLS}")
    return _visit_all(_bipartite_layout(p, q, delta_min, delta_min), visit)


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
        return {
            "theorem_id": self.theorem_id,
            "sizes": self.sizes,
            "graphs_scanned": self.graphs_scanned,
            "hypothesis_hits": self.hypothesis_hits,
            "guaranteed_confirmed": self.guaranteed_confirmed,
            "exceptions_matched": self.exceptions_matched,
            "boundary_cases": self.boundary_cases,
            "violations": list(self.violations),
            "exceptions_by_family": dict(self.exceptions_by_family),
            "passed": self.passed,
        }

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
    theorem_id: str
    kind: str                # general | bip_balanced | bip_unbalanced
    prop: str
    min_n: int
    delta_min: tuple[int, int]   # (side X, side Y); equal entries for general
    checker: Callable
    strict: bool = False
    # hypothesis quantity: (kind, threshold(n), direction); kind in
    # m | q | rho | rho_star | q_complement, direction in ge | gt | le
    hyp: Optional[tuple[str, Callable[[int], float], str]] = None
    m_min: Optional[Callable[[int], int]] = None
    exceptions_for: Callable[[int], list[FamilyId]] = lambda n: []
    # degree screen: (degrees, bits) of a scan slice -> per row, whether the
    # hypothesis holds, decided exactly by the checker's own inequality
    screen: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def spectral(self) -> bool:
        """The hypothesis is a spectral radius, so the checker takes an estimate."""
        return self.hyp is not None and self.hyp[0] != "m"


@dataclass(frozen=True)
class HypothesisRadius:
    """What a spectral hypothesis kind bounds: the spectral radius of
    ``operand(obj)`` for the checked object, of its ``matrix`` (ADJACENCY,
    computed by ``rho``, or SIGNLESS_LAPLACIAN, by ``q_radius``), as in the
    checkers."""
    operand: Callable
    matrix: str


def _itself(obj):
    return obj


RADII: dict[str, HypothesisRadius] = {
    "q": HypothesisRadius(_itself, SIGNLESS_LAPLACIAN),
    "q_complement": HypothesisRadius(complement, SIGNLESS_LAPLACIAN),
    "rho": HypothesisRadius(_itself, ADJACENCY),
    "rho_star": HypothesisRadius(quasi_complement, ADJACENCY),
}
_STACKED = {ADJACENCY: rho_stack, SIGNLESS_LAPLACIAN: q_radius_stack}


def _ceil_eps(x: float) -> int:
    return math.ceil(x - 1e-9)


THEOREMS: dict[str, TheoremSpec] = {}


def _register(spec: TheoremSpec) -> None:
    THEOREMS[spec.theorem_id] = spec


def _moon_moser_screen(degrees: np.ndarray, bits: np.ndarray) -> np.ndarray:
    side = degrees.shape[1] // 2
    return cond.moon_moser_blocking(degrees, bits.reshape(len(bits), side, side))[1] < 0


_register(TheoremSpec(
    "chvatal", "general", HAMILTONIAN, 3, (0, 0),
    cond.chvatal_hamiltonian,
    screen=lambda degrees, bits: cond.chvatal_blocking(degrees) == 0,
))
_register(TheoremSpec(
    "bipartite-degree", "bip_balanced", HAMILTONIAN, 2, (0, 0),
    cond.bipartite_degree_hamiltonian,
    screen=lambda degrees, bits: cond.bipartite_degree_blocking(degrees) == 0,
))
_register(TheoremSpec(
    "moon-moser", "bip_balanced", HAMILTONIAN, 2, (0, 0),
    cond.moon_moser_hamiltonian,
    screen=_moon_moser_screen,
))
_register(TheoremSpec(
    "lemma-2.5", "bip_balanced", HAMILTONIAN, 2, (1, 1),
    partial(cond.edge_bound_bipartite, target="hamiltonian_min_deg1"),
    hyp=("m", lambda n: n * n - n + 1, "ge"),
    m_min=lambda n: n * n - n + 1,
    exceptions_for=lambda n: [FamilyId(FamilyTag.KNN1_PLUS_EDGE, (n,))],
))
_register(TheoremSpec(
    "lemma-2.6", "bip_balanced", HAMILTONIAN, 4, (2, 2),
    partial(cond.edge_bound_bipartite, target="hamiltonian_min_deg2"),
    hyp=("m", lambda n: n * n - 2 * n + 4, "ge"),
    m_min=lambda n: n * n - 2 * n + 4,
    exceptions_for=lambda n: [FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n))],
))
_register(TheoremSpec(
    "lemma-2.8", "bip_balanced", TRACEABLE, 3, (1, 1),
    partial(cond.edge_bound_bipartite, target="traceable"),
    hyp=("m", lambda n: n * n - 2 * n + 3, "ge"),
    m_min=lambda n: n * n - 2 * n + 3,
))
_register(TheoremSpec(
    "spectral-bipartite-hamiltonian", "bip_balanced", HAMILTONIAN, 4, (2, 2),
    partial(cond.spectral_bipartite, target="hamiltonian_balanced"),
    hyp=("rho", lambda n: math.sqrt(n * n - 2 * n + 4), "ge"),
    m_min=lambda n: n * n - 2 * n + 4,
    exceptions_for=lambda n: [FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n))],
))
_register(TheoremSpec(
    "spectral-bipartite-traceable", "bip_balanced", TRACEABLE, 3, (1, 1),
    partial(cond.spectral_bipartite, target="traceable_balanced"),
    hyp=("rho", lambda n: math.sqrt(n * n - 2 * n + 3), "ge"),
    m_min=lambda n: n * n - 2 * n + 3,
))
_register(TheoremSpec(
    "spectral-bipartite-traceable-unbalanced", "bip_unbalanced", TRACEABLE, 3, (1, 2),
    partial(cond.spectral_bipartite, target="traceable_unbalanced"),
    hyp=("rho", lambda n: math.sqrt(n * n - n + 2), "ge"),
    m_min=lambda n: n * n - n + 2,
    exceptions_for=lambda n: [
        FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n + 1)),
        FamilyId(FamilyTag.KNN1_PLUS_2E, (n,)),
    ],
))
_register(TheoremSpec(
    "quasi-complement", "bip_balanced", HAMILTONIAN, 2, (0, 0),
    cond.quasi_complement_hamiltonian,
    hyp=("rho_star", lambda n: math.sqrt((n - 2) / 2), "le"),
    m_min=lambda n: _ceil_eps(n * n - n * (n - 2) / 2),
))
_register(TheoremSpec(
    "lemma-3.4", "general", HAMILTONIAN, 3, (2, 2),
    partial(cond.edge_bound_general, target=HAMILTONIAN),
    hyp=("m", lambda n: (n * n - 4 * n + 6) / 2, "gt"),
    m_min=lambda n: (n * n - 4 * n + 6) // 2 + 1,
    exceptions_for=lambda n: [nc_member(i) for i in _members_of_size(NC_NAMES, n)],
))
_register(TheoremSpec(
    "lemma-3.6", "general", TRACEABLE, 2, (1, 1),
    partial(cond.edge_bound_general, target=TRACEABLE),
    hyp=("m", lambda n: (n * n - 4 * n + 3) / 2, "gt"),
    m_min=lambda n: (n * n - 4 * n + 3) // 2 + 1,
    exceptions_for=lambda n: [np_member(i) for i in _members_of_size(NP_NAMES, n)],
))
_register(TheoremSpec(
    "tight-q-hamiltonian", "general", HAMILTONIAN, 4, (2, 2),
    partial(cond.q_spectral_general, target="hamiltonian_tight"),
    hyp=("q", lambda n: 2 * n - 5 + 3 / (n - 1), "ge"),
    m_min=lambda n: _ceil_eps(((n - 3) * (n - 1) + 3) / 2),
    exceptions_for=lambda n: {
        5: [nc_member(8)],
        6: [nc_member(5)],
        7: [nc_member(2)],
    }.get(n, []),
))
_register(TheoremSpec(
    "tight-q-traceable", "general", TRACEABLE, 4, (1, 1),
    partial(cond.q_spectral_general, target="traceable_tight"),
    hyp=("q", lambda n: float(2 * n - 5), "ge"),
    m_min=lambda n: _ceil_eps((n - 3) * (n - 1) / 2),
    exceptions_for=lambda n: {
        4: [np_member(7)],
        5: [np_member(5), FamilyId(FamilyTag.STAR, (5,))],
        6: [np_member(2)],
    }.get(n, []),
))
_register(TheoremSpec(
    "yu-fan-hamiltonian", "general", HAMILTONIAN, 3, (0, 0),
    partial(cond.q_spectral_general, target="yu_fan_hamiltonian"),
    strict=True,
    hyp=("q", lambda n: float(2 * n - 4), "gt"),
    m_min=lambda n: _ceil_eps((n - 2) * (n - 1) / 2),
    exceptions_for=lambda n: [FamilyId(FamilyTag.KN1_PLUS_EDGE, (n,))]
    + ([nc_member(8)] if n == 5 else []),
))
_register(TheoremSpec(
    "yu-fan-traceable", "general", TRACEABLE, 3, (0, 0),
    partial(cond.q_spectral_general, target="yu_fan_traceable"),
    hyp=("q", lambda n: float(2 * n - 4), "ge"),
    m_min=lambda n: _ceil_eps((n - 2) * (n - 1) / 2),
    exceptions_for=lambda n: [FamilyId(FamilyTag.KN1_PLUS_VERTEX, (n,))]
    + ([FamilyId(FamilyTag.STAR, (4,))] if n == 4 else []),
))
_register(TheoremSpec(
    "yu-connected-traceable", "general", TRACEABLE, 4, (0, 0),
    partial(cond.q_spectral_general, target="yu_connected_traceable"),
    hyp=("q", lambda n: (2 * (n - 2) ** 2 + 4) / (n - 1), "ge"),
    m_min=lambda n: _ceil_eps(((n - 2) * (n - 3) + 4) / 2),
    exceptions_for=lambda n: {
        4: [FamilyId(FamilyTag.STAR, (4,))],
        6: [np_member(2)],
        8: [np_member(0)],
    }.get(n, []),
))
_register(TheoremSpec(
    "zhou-complement-hamiltonian", "general", HAMILTONIAN, 3, (0, 0),
    partial(cond.zhou_complement, target=HAMILTONIAN),
    hyp=("q_complement", lambda n: float(n - 1), "le"),
    m_min=lambda n: _ceil_eps(n * (n - 1) / 4),
))
_register(TheoremSpec(
    "zhou-complement-traceable", "general", TRACEABLE, 1, (0, 0),
    partial(cond.zhou_complement, target=TRACEABLE),
    hyp=("q_complement", lambda n: float(n), "le"),
    m_min=lambda n: max(_ceil_eps(n * (n - 2) / 4), 0),
))


def _members_of_size(names: list[str], n: int) -> list[int]:
    from .families import NC_GRAPHS, NP_GRAPHS

    members = NC_GRAPHS if names is NC_NAMES else NP_GRAPHS
    return [i for i, g in enumerate(members) if g.n == n]


def theorem_ids() -> list[str]:
    return list(THEOREMS)


def sizes_for(spec: TheoremSpec, max_n: int, bip_cells: int = DEFAULT_BIP_CELLS) -> list[int]:
    """Side sizes (general n, or bipartite n) scanned for a theorem."""
    bip_cells = min(bip_cells, MAX_BIP_CELLS)
    if spec.kind == "general":
        return [n for n in range(spec.min_n, max_n + 1)]
    if spec.kind == "bip_balanced":
        return [n for n in range(spec.min_n, max_n + 1) if n * n <= bip_cells]
    return [n for n in range(spec.min_n, max_n + 1) if n * (n + 1) <= bip_cells]


# --------------------------------------------------------------- scanning

def _spec_layout(spec: TheoremSpec, n: int) -> _Layout:
    if spec.kind == "general":
        return _general_layout(n, spec.delta_min[0])
    return _bipartite_layout(n if spec.kind == "bip_balanced" else n + 1, n, *spec.delta_min)


def _edge_matrices(layout: _Layout, matrix: str) -> np.ndarray:
    """Per mask bit, the matrix (ADJACENCY or SIGNLESS_LAPLACIAN) of its edge."""
    basis = np.zeros((len(layout.slots), layout.nverts, layout.nverts))
    for k, (i, j) in enumerate(layout.slots):
        basis[k, i, j] = basis[k, j, i] = 1.0
        if matrix == SIGNLESS_LAPLACIAN:
            basis[k, i, i] += 1.0
            basis[k, j, j] += 1.0
    return basis


def _has_property(g: Graph, prop: str) -> bool:
    if prop == HAMILTONIAN:
        return is_hamiltonian(g) is not None
    return is_traceable(g) is not None


def _classify(report: SoundnessReport, spec: TheoremSpec, g: Graph, verdict: Verdict,
              holds: bool) -> None:
    """Tally one hypothesis hit against the oracle's answer for g."""
    report.hypothesis_hits += 1
    if verdict.status is Status.GUARANTEED:
        if holds:
            report.guaranteed_confirmed += 1
        else:
            report.violations.append(write_graph6(g))
    elif verdict.status is Status.EXCEPTION:
        # named exceptional graphs must lack the property; the structural
        # EC/EP classes merely fall outside the theorem and may have it
        structural = verdict.family is not None and verdict.family.tag is FamilyTag.JOIN_EXPR
        if holds and not structural:
            report.violations.append(write_graph6(g))
        else:
            report.exceptions_matched += 1
            key = str(verdict.family)
            report.exceptions_by_family[key] = report.exceptions_by_family.get(key, 0) + 1
    elif verdict.status is Status.BOUNDARY:
        # a strict hypothesis is simply unresolved at the line; a non-strict
        # one holds there, so a missing property would be a real violation
        if spec.strict or holds:
            report.boundary_cases += 1
        else:
            report.violations.append(write_graph6(g))


def _verdicts(spec: TheoremSpec, objs: list) -> list[Verdict]:
    """The checker's verdict on each object; spectral checkers get their
    estimate from one stacked power iteration over their own matrices."""
    if not spec.spectral:
        return [spec.checker(obj) for obj in objs]
    radius = RADII[spec.hyp[0]]
    estimates = _STACKED[radius.matrix]([radius.operand(obj) for obj in objs])
    return [spec.checker(obj, estimate=est) for obj, est in zip(objs, estimates)]


def _flush(report: SoundnessReport, spec: TheoremSpec, pending: list) -> None:
    """Decide the buffered hits with one batched oracle call, in scan order."""
    graphs = [obj.to_graph() if isinstance(obj, BipartiteGraph) else obj for obj, _ in pending]
    oracle = is_hamiltonian_batch if spec.prop == HAMILTONIAN else is_traceable_batch
    for (_, verdict), g, witness in zip(pending, graphs, oracle(graphs)):
        _classify(report, spec, g, verdict, witness is not None)
    pending.clear()


def _scan_part(theorem_id: str, n: int, lo: int, hi: int) -> SoundnessReport:
    """Masks [lo, hi) of one size, slice by slice: m/delta filter, degree or
    eigvalsh screen, checker, then the buffered hits through the batched
    oracle."""
    spec = THEOREMS[theorem_id]
    report = SoundnessReport(theorem_id, [n])
    layout = _spec_layout(spec, n)
    m_min = spec.m_min(n) if spec.m_min else 0
    basis = None
    if spec.spectral and layout.slots:
        kind, threshold_fn, direction = spec.hyp
        threshold = threshold_fn(n)
        basis = _edge_matrices(layout, RADII[kind].matrix)
    pending: list[tuple[object, Verdict]] = []
    for scanned, bits, degrees in _slices(layout, lo, hi, m_min):
        report.graphs_scanned += scanned
        if spec.screen is not None:
            bits = bits[spec.screen(degrees, bits)]
        if basis is not None and len(bits):
            weights = bits.astype(float)
            if kind in ("q_complement", "rho_star"):
                weights = 1.0 - weights
            top = np.linalg.eigvalsh(np.tensordot(weights, basis, axes=(1, 0)))[:, -1]
            if direction == "le":
                bits = bits[top <= threshold + SCREEN_GUARD]
            else:
                bits = bits[top >= threshold - SCREEN_GUARD]
        objs = layout.build(bits)
        for obj, verdict in zip(objs, _verdicts(spec, objs)):
            if verdict.status not in (Status.INCONCLUSIVE, Status.NOT_APPLICABLE):
                pending.append((obj, verdict))
        if len(pending) >= ORACLE_BATCH:
            _flush(report, spec, pending)
    _flush(report, spec, pending)
    return report


def soundness(
    theorem_id: str,
    max_n: int = DEFAULT_MAX_N,
    sizes: Optional[list[int]] = None,
    bip_cells: int = DEFAULT_BIP_CELLS,
    jobs: int = 1,
) -> SoundnessReport:
    """Scan every labeled graph in range and verify the checker's verdicts.

    Guaranteed verdicts must be confirmed by the exact oracle; Exception
    verdicts must be refuted by it. Any disagreement lands in
    ``violations`` as a graph6 string.
    """
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    if sizes is None:
        sizes = sizes_for(spec, max_n, bip_cells)
    for n in sizes:  # a scan costs 2^(mask bits), so refuse before any work
        if spec.kind == "general" and n > MAX_ENUM_N:
            raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}")
        if spec.kind != "general" and n * (n + (spec.kind == "bip_unbalanced")) > MAX_BIP_CELLS:
            raise ValueError(f"bipartite enumeration capped at p*q <= {MAX_BIP_CELLS}")
    report = SoundnessReport(theorem_id, [])
    tasks = []
    for n in sizes:
        total = 1 << len(_spec_layout(spec, n).slots)
        parts = max(1, min(jobs, total // CHUNK)) if jobs > 1 else 1
        step = -(-total // parts)
        for lo in range(0, total, step):
            tasks.append((theorem_id, n, lo, min(lo + step, total)))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def table1_report(tolerance: float = 5e-5) -> list[tuple[str, float, float, float]]:
    """All 18 published q values recomputed: (name, computed, published, |diff|)."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    rows = []
    for name, fid, published in TABLE1_ROWS:
        computed = q_radius(make_family(fid)).value
        rows.append((name, computed, published, abs(computed - published)))
    return rows


# --------------------------------------------------------------- tightness

def _hyp_value(spec: TheoremSpec, obj) -> tuple[float, float]:
    """The hypothesis quantity and its threshold, via the dense eigen oracle."""
    kind, threshold_fn, _ = spec.hyp
    if isinstance(obj, BipartiteGraph):
        n = obj.q if spec.kind == "bip_unbalanced" else obj.p
        g = obj.to_graph()
    else:
        n = obj.n
        g = obj
    threshold = threshold_fn(n)
    if kind == "m":
        return float(g.edge_count()), threshold
    if kind == "q":
        return eigen_oracle(g, "signless_laplacian")[-1], threshold
    if kind == "q_complement":
        return eigen_oracle(complement(g), "signless_laplacian")[-1], threshold
    if kind == "rho":
        return eigen_oracle(g, "adjacency")[-1], threshold
    if kind == "rho_star":
        return eigen_oracle(quasi_complement(obj), "adjacency")[-1], threshold
    raise ValueError(kind)


def tightness_search(
    theorem_id: str,
    max_n: int = DEFAULT_MAX_N,
    bip_cells: int = DEFAULT_BIP_CELLS,
) -> dict:
    """Sharpness evidence: near-miss witnesses and exception-vacuity checks.

    Near misses are graphs without the property whose hypothesis quantity
    fails by the smallest margin; the exception report states whether each
    stated exceptional graph satisfies its theorem's hypothesis at all.
    """
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    if spec.hyp is None:
        raise ValueError(f"{theorem_id} has no numeric hypothesis to probe")
    direction = spec.hyp[2]
    exceptions = []
    for n in sizes_for(spec, max_n, bip_cells):
        for fid in spec.exceptions_for(n):
            member = make_family(fid)
            value, threshold = _hyp_value(spec, member)
            if direction == "le":
                satisfied = value <= threshold + 1e-8
            elif direction == "gt":
                satisfied = value > threshold + 1e-8
            else:
                satisfied = value >= threshold - 1e-8
            exceptions.append({
                "family": str(fid),
                "n": n,
                "value": value,
                "threshold": threshold,
                "hypothesis_satisfied": satisfied,
            })
    best: dict | None = None

    def consider(obj) -> None:
        nonlocal best
        if isinstance(obj, BipartiteGraph):
            dx_min, dy_min = spec.delta_min
            if min(obj.degrees_x(), default=0) < dx_min:
                return
            if min(obj.degrees_y(), default=0) < dy_min:
                return
            g = obj.to_graph()
        else:
            g = obj
        if _has_property(g, spec.prop):
            return
        value, threshold = _hyp_value(spec, obj)
        deficit = threshold - value if direction != "le" else value - threshold
        if deficit <= 1e-8:
            return  # hypothesis satisfied: that is the exception report's job
        if best is None or deficit < best["deficit"]:
            best = {
                "graph6": write_graph6(g),
                "value": value,
                "threshold": threshold,
                "deficit": deficit,
            }

    for n in sizes_for(spec, max_n, bip_cells):
        if spec.kind == "general":
            enumerate_graphs(n, spec.delta_min[0], consider)
        elif spec.kind == "bip_balanced":
            enumerate_bipartite(n, n, spec.delta_min[0], consider)
        else:
            enumerate_bipartite(n + 1, n, min(spec.delta_min), consider)
    return {
        "theorem_id": theorem_id,
        "exceptions": exceptions,
        "best_near_miss": best,
    }
