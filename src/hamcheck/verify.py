"""Exhaustive labeled enumeration and machine-checked soundness reports.

Every labeled graph in range is counted; cheap necessary conditions
(edge count, degrees, rigorous bounds on the spectral radius) cut the
candidate set before the full checker and the Hamiltonicity oracle run.
Every count is of labeled graphs, which over-counts isomorphic copies;
that is harmless for soundness claims.

The scan decides one labeled graph per orbit of a small fixed group H of
vertex relabelings and counts it once per member of its orbit: H is
every permutation of a general graph's first RELABEL_GENERAL vertices,
or of the first RELABEL_SIDE vertices of each bipartite side (never
across sides, since the rows read each side's degrees apart). The edge
count, the minimum degrees, every verdict and Hamiltonicity are
invariant under H, so each tally is a sum of orbit sizes and equals the
labeled scan's; RELABEL_GENERAL = RELABEL_SIDE = 1 make H trivial, the
labeled scan itself. A mask is its orbit's representative iff it is the
least of its images, each from the tables of ``_relabelings``. An
adjacent transposition in H swaps slots a fixed distance apart, so a few
ANDs and shifts tell whether it maps a mask below itself: ``_edge_masks``
drops such masks, and never generates those of a high part it beats
under every low part; only the masks left are mapped through all of H.
An orbit's least mask lies in exactly one ``--jobs`` part, so the parts
count each orbit once. A violating representative stands for its orbit:
every distinct image is reported, and ``soundness`` sorts the violations
of all parts into scan order, sizes ascending, then masks ascending.

The theorems share their representatives at each size whose masks fit
in one ``--jobs`` part (at most CHUNK: general n <= 6, balanced side <=
4 and 4x3): ``_shared`` builds, once per process, one list per scan
geometry (vertices, sides, span of H) of every representative, with
their adjacency rows, degree tables and [mask, orbit size] pairs, and
per witness kind (cycle or path) the oracle's answer on each one a scan
has hit, asked of ``witness_rows`` when first hit. A part of a listed
size filters the list by its row's m_min, minimum degrees and [lo, hi)
into slices of at most SLICE rows, the masks ``_slices`` would stream,
and its hits take their answers from the list. Every larger size streams. The
screens, enclosures, ladder, checker, tallies and violations still run
per theorem on every call: a list holds nothing that depends on a
theorem.

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

The scan never generates a mask with fewer than ``_m_min`` edges: a
mask is a high part over its low LOW_BITS bits, whose values are tabled
by how many bits they set, so a high part takes only the low values that
bring it to m_min, and the masks come in ascending order, as a walk over
every mask gives them. It works on slices of at most SLICE generated
masks, so its temporaries stay bounded, and each slice goes through one
pipeline whatever the graph kind. A graph is one uint32 adjacency row of
the slice throughout, side X first for a bipartite graph, as
``to_graph``; only its degree table and its [mask, orbit size] pair ride
along. The pipeline: the representatives of H's orbits, then the
minimum-degree filter, which yields the kept masks' adjacency rows and
degree tables; for the degree theorems (Chvatal,
bipartite degree, Moon-Moser) the row's screen, its own inequality in
exact integer arithmetic over the slice; for the spectral ones, on the
hypothesis matrices, which ``spectral.matrix_stack`` builds from the rows
unpacked by ``graphs.unpack_rows`` (and flipped by ``RADII``'s ``bits_of``),
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
ladder's; and a buffer keeps the hits' masks, orbit sizes, status codes
and Exception families. Each batch of exactly ORACLE_BATCH hits, a
slice's hits split at its end with their families and the rest carried
over, and at the end of the part what is left, is decided by one call
of the oracle's array entry, ``oracle.witness_rows``, on the rows of its
masks (at a shared size, by the list's answers), and tallied, each hit
weighted by its orbit size, in scan order over arrays, with per-hit
Python only for the Exception hits.
``tightness_search`` keeps the labeled walk (its near miss is the first
in labeled scan order): it hands each slice's rows to the same entry,
and their hypothesis matrices to ``radius_stack``, and builds no graph
object at all.
A Graph is built from a row only for the graph6
of a violation or a near miss.
``analyze`` and ``oracle`` look at one graph at a time: ``analyze``'s
spectral radii are a stack of one, each of a matrix taken from the
record's one 0/1 adjacency matrix (a bipartite record's view takes the
record's rho, and its other radius from that matrix in side order), and
both reach the same DP on a batch of one, through
``oracle.is_hamiltonian`` and ``is_traceable``, which skip the
precondition tests their own have made. ``oracle`` prints the DP's
witnesses; ``analyze`` asks ``oracle.certify``, which tries a bipartite
side count, one short checked rotation-extension search and a toughness
count before the DP, and so needs the DP for few graphs.
``analyze`` computes each spectral radius at most once per graph:
``conditions.RADII`` maps each hypothesis quantity to the matrix it
bounds and whether its operand is complemented, and builds that operand
from a 0/1 matrix in one place for the checkers, the scan, ``analyze``
and ``tightness_search`` alike; the checkers that share a quantity share
the estimate, as the checkers of one record share its degrees.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import permutations, product
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
from .graphs import BipartiteGraph, Graph, unpack_rows
# is_hamiltonian/is_traceable stay attributes here for perfbench/tracing.py
from .oracle import CYCLE, PATH, is_hamiltonian, is_traceable, witness_rows  # noqa: F401
from .spectral import cw_bounds, matrix_stack, q_radius, radius_stack

CHUNK = 1 << 16          # fewest masks per worker task under --jobs, and most a shared list covers
SLICE = 1 << 12          # generated masks (enough edges) per streamed slice; bounds its temporaries
ORACLE_BATCH = 1 << 11   # hits per batched oracle call, exactly, but for a part's last; the most
                         # rows per call on a shared list
LOW_BITS = 11            # a mask's low bits, whose values are tabled by how many are set
MAX_ENUM_N = 8
MAX_BIP_CELLS = 25       # cap on a bipartite scan's mask bits p*q
DEFAULT_MAX_N = 6
BIP_CELLS = 16           # largest p*q a scan covers unless sizes are given
# the soundness scan's relabelings H: every permutation of a general
# graph's first RELABEL_GENERAL vertices, and of the first RELABEL_SIDE
# vertices of each bipartite side; 1 and 1 make H trivial, the labeled
# scan. On the shared lists S_6 and S_4 x S_4 make repeated --max-n 6 scans
# about a tenth faster but a cold one (building their tables) 7-17% slower
RELABEL_GENERAL = 5
RELABEL_SIDE = 3


# ------------------------------------------------------------ enumeration

@dataclass(frozen=True)
class _Layout:
    """How the bits of a mask encode one labeled graph of a kind and size.
    A graph is its adjacency row: per vertex, a uint32 bitset of its
    neighbours, a bipartite graph's side X first, as ``to_graph``. The
    group H of relabelings the layout folds permutes the first ``span``
    vertices of each side (of the one side of a general graph)."""
    nverts: int
    slots: list[tuple[int, int]]   # the vertex pair of each mask bit
    min_degree: list[int]          # per vertex
    sides: Optional[tuple[int, int]] = None   # (p, q) of a bipartite graph
    span: int = 1                  # 1: H is trivial, every labeled mask is scanned

    @cached_property
    def slot_rows(self) -> np.ndarray:
        """[mask bit, vertex]: what the bit adds to that vertex's adjacency.
        Float, so a product with it runs in BLAS; its sums are integers
        below 2^32, so they are exact."""
        out = np.zeros((len(self.slots), self.nverts))
        for k, (i, j) in enumerate(self.slots):
            out[k, i], out[k, j] = 1 << j, 1 << i
        return out

    def rows(self, masks: np.ndarray) -> np.ndarray:
        """The adjacency rows of the masks."""
        bits = (masks[:, None] >> np.arange(len(self.slots))) & 1
        return (bits.astype(float) @ self.slot_rows).astype(np.uint32)

    def images(self, masks: np.ndarray) -> np.ndarray:
        """[element, mask]: the image of each mask under every element of H,
        from ``_relabelings``' tables."""
        tables = _relabelings(self.nverts, self.sides, self.span)[0]
        h = tables.shape[2].bit_length() - 1
        out = tables[:, 0, masks & ((1 << h) - 1)]
        for c in range(1, tables.shape[1]):
            out |= tables[:, c, (masks >> c * h) & ((1 << h) - 1)]
        return out

    def representatives(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(masks, weights): the masks that are least among their images
        under H, each its orbit's representative, and the orbit sizes."""
        images = self.images(masks)
        least = (masks <= images).all(axis=0)
        masks, images = masks[least], images[:, least]
        return masks, len(images) // (images == masks).sum(axis=0)

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


@cache
def _relabelings(nverts: int, sides: Optional[tuple[int, int]],
                 span: int) -> tuple[np.ndarray, tuple]:
    """(tables, shifts) of H, every permutation of the first ``span``
    vertices of each side of the layout with these vertices and sides (of
    its one side if general). ``tables`` holds them as slot permutations
    over chunks of h mask bits: [element, chunk c, value v], the image of
    mask v << c*h. The chunks are the fewest of at most LOW_BITS bits, and
    h = ceil(bits / chunks), so a table is no wider than it must be: at 16
    mask bits (side 4) two chunks of 8, 256 entries, not 11 and 5, 2048.
    The entries are int32, which holds every mask the caps allow (below
    2^28 at MAX_ENUM_N, 2^25 bipartite). ``shifts`` has one (moved,
    ((s, lower), ...)) per adjacent transposition: it swaps each bit a of
    ``lower`` with slot a + s, and ``moved`` holds those upper slots."""
    if sides is None:
        layout, blocks = _general_layout(nverts, 0), [range(min(span, nverts))]
    else:
        p, q = sides
        layout = _bipartite_layout(p, q, 0, 0)
        blocks = [range(min(span, p)), range(p, p + min(span, q))]
    index = {pair: k for k, pair in enumerate(layout.slots)}
    slots = len(layout.slots)
    chunks = max(1, -(-slots // LOW_BITS))
    h = -(-slots // chunks)
    values = (np.arange(1 << h) >> np.arange(h)[:, None]) & 1
    tables, shifts = [], []
    for images in product(*(permutations(block) for block in blocks)):
        perm = list(range(layout.nverts))
        for block, image in zip(blocks, images):
            perm[block.start:block.stop] = image
        target = [index[tuple(sorted((perm[i], perm[j])))] for i, j in layout.slots]
        moved = np.array([1 << k for k in target] + [0] * (chunks * h - slots), dtype=np.int64)
        tables.append(moved.reshape(chunks, h) @ values)
        if [w - v for v, w in enumerate(perm) if v != w] == [1, -1]:   # swaps v and v + 1
            lower = {}
            for a, b in enumerate(target):
                if a < b:
                    lower[b - a] = lower.get(b - a, 0) | 1 << a
            shifts.append((sum(bits << s for s, bits in lower.items()), tuple(lower.items())))
    return np.array(tables, dtype=np.int32), tuple(shifts)


def _swapped_below(shifts: tuple, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per mask, whether an adjacent transposition of ``shifts`` maps it
    below itself: whether ``upper``'s bits on its upper slots exceed
    ``lower``'s on its lower slots, shifted onto them. True with upper a
    subset of lower means true for every mask between the two."""
    beaten = np.zeros(len(upper), dtype=bool)
    for moved, pairs in shifts:
        # the shifted lower slots are disjoint, so their sum is their union
        beaten |= (upper & moved) > sum((lower & bits) << s for s, bits in pairs)
    return beaten


@cache
def _low_table(h: int) -> tuple[np.ndarray, np.ndarray]:
    """(lows, offset): lows[offset[t]:offset[t + 1]] are the h-bit values
    with at least t bits set, ascending, for t = 0..h + 1 (none at h + 1)."""
    values = np.arange(1 << h, dtype=np.int64)
    weight = np.bitwise_count(values)
    tables = [values[weight >= t] for t in range(h + 2)]
    return np.concatenate(tables), np.cumsum([0] + [len(t) for t in tables])


def _edge_masks(slots: int, lo: int, hi: int, m_min: int, shifts: tuple):
    """Yield (scanned, masks) per slice of the masks of [lo, hi) with at
    least m_min bits set that no adjacent transposition of ``shifts`` maps
    below itself: at most SLICE of them, in ascending order, and the width
    of the mask range the slice covers, so the widths sum to hi - lo. A
    mask is a high part H over its low h bits, and H takes the tabled low
    values with at least m_min - popcount(H) bits set, cut to [lo, hi) at
    the first and last H, or none if a transposition beats H with every
    low bit set, and so under every low part."""
    h = min(LOW_BITS, slots)
    lows, offset = _low_table(h)
    highs = np.arange(lo >> h, ((hi - 1) >> h) + 1, dtype=np.int64)
    t = np.clip(m_min - np.bitwise_count(highs).astype(np.int64), 0, h + 1)
    begin, end = offset[t], offset[t + 1]
    begin[0] += np.searchsorted(lows[begin[0]:end[0]], lo - (highs[0] << h))
    end[-1] = begin[-1] + np.searchsorted(lows[begin[-1]:end[-1]], hi - (highs[-1] << h))
    beaten = _swapped_below(shifts, highs << h, highs << h | ((1 << h) - 1))
    count = np.where(beaten, 0, end - begin)
    first = np.cumsum(count) - count   # each high's first position in the sequence
    skip = begin - first               # a position's index into lows, less the position
    total, done = int(count.sum()), lo
    for start in range(0, max(total, 1), SLICE):
        stop = min(start + SLICE, total)
        # the whole runs of the highs that positions [start, stop) fall in,
        # then cut to those positions
        r0, r1 = np.searchsorted(first, start, side="right") - 1, np.searchsorted(first, stop)
        runs, base = count[r0:r1], first[r0]
        at = np.arange(base, base + runs.sum()) + np.repeat(skip[r0:r1], runs)
        masks = (np.repeat(highs[r0:r1] << h, runs) | lows[at])[start - base:stop - base]
        reach = hi if stop == total else int(masks[-1]) + 1
        yield reach - done, masks[~_swapped_below(shifts, masks, masks)]
        done = reach


def _slices(layout: _Layout, lo: int, hi: int, m_min: int = 0):
    """Yield (scanned, adjacency, degrees, orbits) per slice of masks [lo,
    hi): for the masks with at least m_min edges, each its orbit's
    representative under the layout's relabelings H, and every vertex at
    its minimum degree, their adjacency rows, their per-vertex degree
    tables and their [mask, orbit size] pairs. ``_edge_masks`` generates
    only the masks with m_min edges that no adjacent transposition maps
    below itself; H keeps the edge count and every vertex's minimum degree,
    so each orbit is kept whole or not at all."""
    need = np.array(layout.min_degree)
    # per vertex, the mask bits of its slots
    touches = (layout.slot_rows > 0).T.astype(np.int64) @ (1 << np.arange(len(layout.slots)))
    shifts = _relabelings(layout.nverts, layout.sides, layout.span)[1]
    for scanned, masks in _edge_masks(len(layout.slots), lo, hi, m_min, shifts):
        masks, weights = layout.representatives(masks)
        degrees = np.bitwise_count(masks[:, None] & touches).astype(np.int16)
        keep = (degrees >= need).all(axis=1)
        masks = masks[keep]
        yield scanned, layout.rows(masks), degrees[keep], np.stack([masks, weights[keep]], axis=1)


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
    caps are refused here, before any work, as are sizes below the row's
    ``min_n``, whose graphs ``decide`` calls NotApplicable."""
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    spec = THEOREMS[theorem_id]
    if sizes is None:
        sizes = sizes_for(spec, max_n)
    kind = spec.row.kind
    for n in sizes:
        if n < spec.row.min_n:
            raise ValueError(f"{theorem_id} applies from n = {spec.row.min_n}, not n = {n}")
        if kind == GENERAL and n > MAX_ENUM_N:
            raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}")
        if kind != GENERAL and math.prod(_sides(kind, n)) > MAX_BIP_CELLS:
            raise ValueError(f"bipartite enumeration capped at p*q <= {MAX_BIP_CELLS}")
    return spec, sizes


# --------------------------------------------------------------- scanning

def _spec_layout(spec: TheoremSpec, n: int, relabel: bool = False) -> _Layout:
    """The layout of a theorem's graphs at size n, at the row's minimum
    degrees: labeled, or with relabel, folding the scan's relabelings
    (RELABEL_GENERAL and RELABEL_SIDE)."""
    row = spec.row
    p, q = _sides(row.kind, n)
    dx, dy = row.min_degree
    layout = _general_layout(p, dx) if row.kind == GENERAL else _bipartite_layout(p, q, dx, dy)
    span = (RELABEL_GENERAL if row.kind == GENERAL else RELABEL_SIDE) if relabel else 1
    return replace(layout, span=span)


@dataclass(frozen=True)
class _Shared:
    """Every orbit representative of one scan geometry: their adjacency
    rows, degree tables, [mask, orbit size] pairs, ascending, and per
    witness kind the oracle's answer on each a scan has hit so far (1 or
    0; -1 for one not yet asked)."""
    adjacency: np.ndarray
    degrees: np.ndarray
    orbits: np.ndarray
    holds: dict[str, np.ndarray]

    def part(self, layout: _Layout, lo: int, hi: int, m_min: int):
        """Yield (scanned, adjacency, degrees, orbits) per slice of the masks
        of [lo, hi) that ``_slices(layout, lo, hi, m_min)`` yields, at most
        SLICE of them per slice: the first slice carries the range's width,
        hi - lo, and the others 0."""
        masks = self.orbits[:, 0]
        keep = np.flatnonzero((masks >= lo) & (masks < hi) & (np.bitwise_count(masks) >= m_min)
                              & (self.degrees >= layout.min_degree).all(axis=1))
        for start in range(0, max(len(keep), 1), SLICE):
            rows, scanned = keep[start:start + SLICE], hi - lo if start == 0 else 0
            yield scanned, self.adjacency[rows], self.degrees[rows], self.orbits[rows]

    def answers(self, masks: np.ndarray, kind: str) -> np.ndarray:
        """The oracle's answers of a witness kind on the listed masks: those
        not yet asked go to ``witness_rows`` in one call (a flush holds at
        most ORACLE_BATCH hits) and are kept for every later scan."""
        holds, at = self.holds[kind], np.searchsorted(self.orbits[:, 0], masks)
        ask = at[holds[at] < 0]
        if len(ask):
            holds[ask] = witness_rows(self.adjacency[ask], kind)[0]
        return holds[at] == 1


@cache
def _shared(nverts: int, sides: Optional[tuple[int, int]], span: int) -> _Shared:
    """The list of every representative of the geometry's masks under H,
    none of them yet answered: built by the geometry's first scan, and
    shared by every later one in the process."""
    layout = _general_layout(nverts, 0) if sides is None else _bipartite_layout(*sides, 0, 0)
    slices = _slices(replace(layout, span=span), 0, 1 << len(layout.slots))
    adjacency, degrees, orbits = map(np.concatenate, zip(*(piece for _, *piece in slices)))
    return _Shared(adjacency, degrees, orbits,
                   {kind: np.full(len(orbits), -1, dtype=np.int8) for kind in (CYCLE, PATH)})


def _hypothesis_matrices(row: cond.Condition, layout: _Layout, adjacency: np.ndarray) -> np.ndarray:
    """Per adjacency row, the matrix of its graph's hypothesis radius, as a
    (rows, n, n) stack."""
    radius = RADII[row.quantity]
    p = None if layout.sides is None else layout.sides[0]
    return matrix_stack(radius.bits_of(unpack_rows(adjacency), p), radius.matrix)


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


def _flush(report: SoundnessReport, spec: TheoremSpec, layout: _Layout, hits: np.ndarray,
           families: list, shared: Optional[_Shared] = None) -> None:
    """Decide a batch of hits, whose [mask, orbit size, status code] rows
    are ``hits`` and the families of whose Exception hits are
    ``families``, by the answers of the ``shared`` list that holds them,
    or with one batched oracle call on the representatives, and tally
    every orbit whole: each count and family gains its orbit's size, and
    a violating representative stands for every member of its orbit. A
    violation goes into ``report.violations`` as (vertices, mask,
    graph6), which ``soundness`` sorts into scan order."""
    masks, weights, status = hits.T
    if shared is None:
        holds, _ = witness_rows(layout.rows(masks), _witness_kind(spec))
    else:
        holds = shared.answers(masks, _witness_kind(spec))
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
    report.hypothesis_hits += int(weights.sum())
    report.guaranteed_confirmed += int(weights[guaranteed & holds].sum())
    report.boundary_cases += int(weights[boundary & ~violated].sum())
    for family, bad, weight in zip(families, violated[exception].tolist(),
                                   weights[exception].tolist()):
        if not bad:
            report.exceptions_matched += weight
            key = str(family)
            report.exceptions_by_family[key] = report.exceptions_by_family.get(key, 0) + weight
    for images in layout.images(masks[violated]).T:
        images = np.unique(images)   # the orbit's members, ascending
        report.violations += [(layout.nverts, image, _graph6(adjacency))
                              for image, adjacency in zip(images.tolist(), layout.rows(images))]


def _scan_part(theorem_id: str, n: int, lo: int, hi: int) -> SoundnessReport:
    """Masks [lo, hi) of one size with m_min edges, slice by slice, one
    representative per orbit of the scan's relabelings: the minimum-degree
    filter, the enclosures (drop, then judge off the band), radius_stack
    on the band, the slice ladder, radius_stack and the checker on its
    exception candidates, then the buffered hits through the batched
    oracle, each counted once per member of its orbit. An orbit's least
    mask lies in exactly one part, so the parts count each orbit once.
    Where the size's masks fit in one part, the list of its geometry
    gives the slices, and the list's answers decide the hits."""
    spec = THEOREMS[theorem_id]
    row = spec.row
    report = SoundnessReport(theorem_id, [n])
    layout, m_min = _spec_layout(spec, n, relabel=True), _m_min(row, n)
    shared = (_shared(layout.nverts, layout.sides, layout.span)
              if 1 << len(layout.slots) <= CHUNK else None)
    slices = (_slices(layout, lo, hi, m_min) if shared is None
              else shared.part(layout, lo, hi, m_min))
    threshold = row.threshold(n) if row.spectral else None
    hits: list[np.ndarray] = []   # per slice, its hits' [mask, orbit size, status code]
    families: list = []           # the buffered Exception hits' families
    buffered = 0
    for scanned, adjacency, degrees, orbits in slices:
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
            orbits, values = orbits[keep], lower[keep]
            estimates = dict(zip(band.tolist(), radius_stack(matrices[band])))
            values[band] = [estimate.value for estimate in estimates.values()]
        codes, candidate = cond.slice_ladder(row, n, degrees, adjacency, values)
        if row.spectral:
            late = [i for i in np.flatnonzero(candidate).tolist() if i not in estimates]
            estimates.update(zip(late, radius_stack(matrices[late])))
        families += _verdicts(spec, layout, adjacency, estimates, codes, candidate)
        hit = cond.HIT[codes]
        hits.append(np.column_stack([orbits[hit], codes[hit]]))
        buffered += int(hit.sum())
        while buffered >= ORACLE_BATCH:
            # exactly ORACLE_BATCH rows, and their Exception families, go to
            # the oracle; the rest carry over
            batch = np.concatenate(hits)
            split = int((batch[:ORACLE_BATCH, 2] == cond.EXCEPTION).sum())
            _flush(report, spec, layout, batch[:ORACLE_BATCH], families[:split], shared)
            hits, families = [batch[ORACLE_BATCH:]], families[split:]
            buffered -= ORACLE_BATCH
    if buffered:
        _flush(report, spec, layout, np.concatenate(hits), families, shared)
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
    ``violations`` as a graph6 string, in scan order: sizes ascending,
    then masks ascending.
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
            for part in pool.map(_scan_part, *zip(*tasks)):
                report.merge(part)
    else:
        for task in tasks:
            report.merge(_scan_part(*task))
    report.sizes = sorted(report.sizes)
    # an orbit's members may lie in other parts than its representative
    report.violations = [graph6 for *_, graph6 in sorted(report.violations)]
    return report


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
    exceptions = []
    best: dict | None = None
    for n in sizes:
        threshold = row.threshold(n)
        for fid in row.exceptions(n):
            obj = make_family(fid)
            got = (float(obj.edge_count()) if row.quantity == "m"
                   else cond.hypothesis_radius(row.quantity, obj).value)
            exceptions.append({
                "family": str(fid),
                "n": n,
                "value": got,
                "threshold": threshold,
                "hypothesis_satisfied": not row.ladder(got, threshold)[1],
            })
        layout = _spec_layout(spec, n)
        for _, adjacency, _, _ in _slices(layout, 0, 1 << len(layout.slots)):
            found, _ = witness_rows(adjacency, _witness_kind(spec))
            lacking = np.flatnonzero(~found)
            if not len(lacking):
                continue
            # the hypothesis quantity: the edge count, or the top eigenvalue
            rows = adjacency[lacking]
            if row.quantity == "m":
                got = np.bitwise_count(rows).sum(axis=1) / 2
            else:
                estimates = radius_stack(_hypothesis_matrices(row, layout, rows))
                got = np.array([estimate.value for estimate in estimates])
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
