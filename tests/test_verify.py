import dataclasses
import json
import math
import random
from functools import partial
from itertools import chain, compress, permutations, product
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from hamcheck import conditions as cond
from hamcheck import verify
from hamcheck.conditions import HAMILTONIAN, RADII, Status, Verdict
from hamcheck.families import FamilyTag, make_family
from hamcheck.graph6 import parse_graph6, write_graph6
from hamcheck.graphs import bipartite_from_edges, complement, from_edges, quasi_complement
from hamcheck.oracle import CYCLE, PATH, backtrack_oracle, is_hamiltonian, witness_rows
from hamcheck.spectral import ADJACENCY, cw_bounds, matrix_stack, q_radius, radius_stack, rho
from hamcheck.verify import (
    THEOREMS,
    SoundnessReport,
    sizes_for,
    soundness,
    table1_report,
    theorem_ids,
    tightness_search,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


_CACHES = (verify._layout, verify._relabelings, verify._shared)


@pytest.fixture
def fresh_lists():
    """Empty caches of the scan's layouts, relabeling tables and shared
    lists for the test, emptied again after it, so the lists and answers
    built under a patched witness_rows or relabeling stay with the test
    that patched them, and each test starts as a fresh process."""
    for cached in _CACHES:
        cached.cache_clear()
    yield
    for cached in _CACHES:
        cached.cache_clear()


def _every_slice(layout, need=0, m_min: int = 0):
    """(adjacency, degrees, orbits) per slice of every mask of the layout
    with at least m_min edges whose vertices reach their minimum degrees
    ``need``."""
    return verify._slices(layout, 0, 1 << len(layout.slots), m_min, need)


def _labeled_layout(spec, n: int):
    """The layout of a theorem's graphs at size n with H trivial: the
    labeled walk the scan's orbits are checked against."""
    layout = verify._spec_layout(spec, n)
    return verify._layout(layout.nverts, layout.sides, 1)


def _row_slices(spec, n: int, m_min: int = 0):
    """_every_slice of a theorem's labeled layout at size n, at its row's
    minimum degrees."""
    return _every_slice(_labeled_layout(spec, n), _need(spec.row, n), m_min)


def _need(row, n: int) -> np.ndarray:
    """The row's minimum degree of each vertex of its graphs at size n."""
    return np.repeat(row.min_degree, verify._sides(row.kind, n))


def _kept(layout, need=0) -> list:
    """The graphs of every mask of the layout whose vertices reach their
    minimum degrees."""
    kept = []
    for adjacency, _, _ in _every_slice(layout, need):
        kept += layout.build(adjacency)
    return kept


def test_enumeration_counts():
    seen = _kept(verify._layout(3, None, 1))
    assert len(seen) == 8  # 2^3 labeled graphs
    assert len({g.adj for g in seen}) == 8
    assert len(_kept(verify._layout(4, None, 1))) == 64
    assert len(_kept(verify._layout(4, None, 1), 1)) == 41  # no isolated vertices
    assert len(_kept(verify._layout(4, None, 1), 3)) == 1  # K4 only


def test_enumeration_bipartite_counts():
    assert len(_kept(verify._layout(4, (2, 2), 1))) == 16
    assert len(_kept(verify._layout(4, (2, 2), 1), 2)) == 1  # K_{2,2}
    assert len(_kept(verify._layout(5, (3, 2), 1), 1)) == 25
    # per-vertex minimum degrees: both vertices of side Y adjacent to all
    # of side X is K_{3,2} only
    assert len(_kept(verify._layout(5, (3, 2), 1), [1, 1, 1, 3, 3])) == 1


def test_enumeration_caps():
    with pytest.raises(ValueError, match="n <= 8"):
        soundness("chvatal", sizes=[9])
    with pytest.raises(ValueError, match="p\\*q <= 25"):
        soundness("lemma-2.5", sizes=[9])
    with pytest.raises(ValueError, match="n <= 8"):
        tightness_search("lemma-3.4", max_n=9)


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
def test_sizes_below_a_rows_min_n_are_refused(theorem_id):
    # decide calls every graph below min_n NotApplicable, which the scan's
    # slice ladder does not, so such a size is refused before any work
    min_n = THEOREMS[theorem_id].row.min_n
    with pytest.raises(ValueError, match=f"applies from n = {min_n}, not n = {min_n - 1}"):
        soundness(theorem_id, sizes=[min_n - 1])


def test_soundness_refuses_sizes_above_the_caps(monkeypatch):
    # the check must come before any work: each of these scans is 2^30 or
    # more masks, so a scan part that starts fails the test at once
    def scan_part(*task):
        raise AssertionError(f"scan part started: {task}")

    monkeypatch.setattr(verify, "_scan_part", scan_part)
    for theorem_id, kwargs in (
        ("chvatal", {"max_n": 9}),
        ("lemma-3.4", {"sizes": [4, 9]}),
        ("lemma-2.5", {"sizes": [6]}),                                # 36 cells
        ("spectral-bipartite-traceable-unbalanced", {"sizes": [5]}),  # 30 cells
    ):
        with pytest.raises(ValueError, match="capped"):
            soundness(theorem_id, **kwargs)


def test_registry_complete():
    ids = theorem_ids()
    assert len(ids) == 19
    assert "lemma-3.4" in ids and "zhou-complement-traceable" in ids
    for tid, spec in THEOREMS.items():
        assert spec.row.kind in ("general", "bip_balanced", "bip_unbalanced")
        # every checker is the one verdict ladder, bound to the theorem's row
        assert spec.row is cond.CONDITIONS[tid]
        assert spec.checker.func is cond.decide and spec.checker.args == (spec.row,)
        assert not spec.checker.keywords


def test_sizes_respect_caps():
    assert sizes_for(THEOREMS["lemma-3.4"], 6) == [3, 4, 5, 6]
    assert sizes_for(THEOREMS["lemma-2.6"], 6) == [4]  # 5*5 > 16 cells
    assert sizes_for(THEOREMS["spectral-bipartite-traceable-unbalanced"], 6) == [3]


def test_unknown_theorem():
    with pytest.raises(KeyError, match="bogus"):
        soundness("bogus")
    with pytest.raises(KeyError, match="bogus"):
        tightness_search("bogus")


def test_soundness_small_sample():
    r = soundness("lemma-2.5", sizes=[2, 3])
    assert r.passed
    assert r.graphs_scanned == 16 + 512
    assert r.hypothesis_hits == r.guaranteed_confirmed + r.exceptions_matched + r.boundary_cases
    assert r.exceptions_by_family.get("knn1-plus-e(2)", 0) > 0
    d = r.to_dict()
    assert d["passed"] and d["violations"] == []


def test_soundness_chvatal_n5():
    r = soundness("chvatal", sizes=[5])
    assert r.passed and r.graphs_scanned == 1024
    assert r.guaranteed_confirmed > 0


def test_report_merge():
    a = SoundnessReport("x", [4], graphs_scanned=10, hypothesis_hits=2,
                        guaranteed_confirmed=2, exceptions_by_family={"f": 1})
    b = SoundnessReport("x", [5], graphs_scanned=20, violations=["bad"],
                        exceptions_by_family={"f": 2, "g": 1})
    a.merge(b)
    assert a.graphs_scanned == 30
    assert a.exceptions_by_family == {"f": 3, "g": 1}
    assert not a.passed
    assert sorted(a.sizes) == [4, 5]


def test_parallel_matches_serial():
    serial = soundness("tight-q-traceable", sizes=[5])
    parallel = soundness("tight-q-traceable", sizes=[5], jobs=2)
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize("theorem_id", ["yu-fan-hamiltonian", "chvatal"])
def test_ragged_parallel_parts_match_serial(theorem_id, monkeypatch):
    # a small CHUNK splits each size into three parts at jobs=3, whose
    # bounds are no multiple of a high part's 2^LOW_BITS masks: an edge
    # count row (yu-fan-hamiltonian) and a degree row (m_min = 0)
    serial = soundness(theorem_id, max_n=6)
    monkeypatch.setattr(verify, "CHUNK", 1 << 8)
    step = -(-(1 << 15) // 3)   # n = 6's 2^15 masks in three parts
    assert step % (1 << verify.LOW_BITS)
    assert soundness(theorem_id, max_n=6, jobs=3).to_dict() == serial.to_dict()


def _filtered_walk(layout, masks: np.ndarray, m_min: int, need=0):
    """(kept, adjacency, degrees): which masks have at least m_min bits set
    and every vertex at its minimum degree in ``need``, and the adjacency
    rows and degree tables of those masks, every mask tested."""
    bits = (masks[:, None] >> np.arange(len(layout.slots))) & 1
    incident = np.array([[v in pair for v in range(layout.nverts)] for pair in layout.slots],
                        dtype=np.int64).reshape(len(layout.slots), layout.nverts)
    degrees = bits @ incident
    keep = (bits.sum(axis=1) >= m_min) & (degrees >= need).all(axis=1)
    adjacency = np.zeros((int(keep.sum()), layout.nverts), dtype=np.uint32)
    for k, (i, j) in enumerate(layout.slots):
        set_k = bits[keep, k].astype(bool)
        adjacency[set_k, i] |= np.uint32(1 << j)
        adjacency[set_k, j] |= np.uint32(1 << i)
    return keep, adjacency, degrees[keep]


def _rows(pieces, k: int) -> list:
    """Item k of every slice of ``pieces``, joined, as lists."""
    return [row for piece in pieces for row in piece[k].tolist()]


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", theorem_ids())
def test_slices_are_the_filtered_walk(theorem_id, monkeypatch):
    # at every size verify --max-n 6 scans, over the whole range and over
    # ragged ranges that start past 0, with slices that cut a high part's
    # run too: the slices generate only the masks with m_min edges, yet
    # give the rows and degrees of every mask tested by edge count and the
    # row's per-vertex minimum degrees, in the same order
    spec = THEOREMS[theorem_id]
    for n in sizes_for(spec, 6):
        layout, need = _labeled_layout(spec, n), _need(spec.row, n)
        m_min = verify._m_min(spec.row, n)
        total = 1 << len(layout.slots)
        for slice_size in (verify.SLICE, 37):
            monkeypatch.setattr(verify, "SLICE", slice_size)
            ranges = ((0, total), (total // 3 + 1, 2 * total // 3 + 1), (total - 3, total))
            for lo, hi in [(lo, hi) for lo, hi in ranges if 0 <= lo < hi]:
                _, want_adjacency, want_degrees = _filtered_walk(
                    layout, np.arange(lo, hi, dtype=np.int64), m_min, need)
                pieces = list(verify._slices(layout, lo, hi, m_min, need))
                assert all(len(adjacency) <= slice_size for adjacency, _, _ in pieces)
                # a range with no such mask yields no slice
                assert _rows(pieces, 0) == want_adjacency.tolist()
                assert _rows(pieces, 1) == want_degrees.tolist()


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", ["lemma-3.4", "zhou-complement-traceable"])
def test_a_streamed_scan_asks_the_oracle_once_per_slice(theorem_id, monkeypatch):
    # a first --max-n 7 scan, whose n = 7 streams in slices: each slice's
    # hits, named (lemma-3.4) and structural (zhou-complement-traceable)
    # Exception hits among them, go to the oracle in at most one call of
    # at most SLICE rows, all of that slice, before the next slice is
    # read, and the report is the fixture's
    read, calls = [], []
    scan_slices = verify._scan_slices

    def counting(*args):
        for piece in scan_slices(*args):
            read.append({row.tobytes() for row in piece[0]})
            yield piece

    def recording(adjacency, kind):
        calls.append((len(read), adjacency.shape[1], len(adjacency)))
        assert all(row.tobytes() in read[-1] for row in adjacency)
        return witness_rows(adjacency, kind)

    monkeypatch.setattr(verify, "_scan_slices", counting)
    monkeypatch.setattr(verify, "witness_rows", recording)
    report = soundness(theorem_id, max_n=7)
    fixture = json.loads((FIXTURES / "verify_all_n7.json").read_text())
    assert report.to_dict() == next(r for r in fixture if r["theorem_id"] == theorem_id)
    assert report.exceptions_matched
    assert len({at for at, _, _ in calls}) == len(calls)
    assert all(0 < rows <= verify.SLICE for _, _, rows in calls)
    assert len([n for _, n, _ in calls if n == 7]) > 1


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", theorem_ids())
def test_shared_lists_filter_to_the_streamed_slices(theorem_id):
    # at every size verify --max-n 6 scans, whose masks all fit in one
    # part: the part of its geometry's list for the row's m_min and
    # per-vertex minimum degrees is what _slices streams for the row over
    # every mask: the same rows, degrees and [mask, orbit size] pairs
    spec = THEOREMS[theorem_id]
    for n in sizes_for(spec, 6):
        layout, m_min = verify._spec_layout(spec, n), verify._m_min(spec.row, n)
        assert layout.listed and 1 << len(layout.slots) <= verify.CHUNK
        got = list(verify._shared(layout).part(m_min, _need(spec.row, n)))
        want = list(_every_slice(layout, _need(spec.row, n), m_min))
        assert _rows(want, 2)
        for k in range(3):
            assert _rows(got, k) == _rows(want, k)


@pytest.mark.usefixtures("fresh_lists")
def test_shared_answers_are_the_oracles(monkeypatch):
    # every theorem's --max-n 6 scan, run twice: one list per (kind, size),
    # each report the fixture's both times, every oracle call of at most
    # SLICE rows, and a list's answers of each witness kind are
    # filled exactly on the representatives some scan of that kind hit,
    # with what witness_rows gives on their rows; a third run asks the
    # oracle nothing
    calls, asked = [], {}
    flush = verify._flush

    def recording(adjacency, kind):
        calls.append(len(adjacency))
        return witness_rows(adjacency, kind)

    def hits(report, spec, layout, batch, families):
        key = layout, verify._witness_kind(spec)
        asked.setdefault(key, set()).update(batch[:, 0].tolist())
        return flush(report, spec, layout, batch, families)

    monkeypatch.setattr(verify, "witness_rows", recording)
    monkeypatch.setattr(verify, "_flush", hits)
    fixture = {r["theorem_id"]: r for r in json.loads((FIXTURES / "verify_all_n6.json").read_text())}
    for _ in range(2):
        for theorem_id in theorem_ids():
            assert soundness(theorem_id, max_n=6).to_dict() == fixture[theorem_id]
    layouts = {(spec.row.kind, n): verify._spec_layout(spec, n)
               for spec in THEOREMS.values() for n in sizes_for(spec, 6)}
    assert verify._shared.cache_info().currsize == len(layouts)
    assert max(calls) <= verify.SLICE
    for layout in layouts.values():
        shared = verify._shared(layout)
        for kind, holds in shared.holds.items():
            answered = np.flatnonzero(holds >= 0)
            assert set(shared.orbits[answered, 0].tolist()) == asked.get((layout, kind), set())
            assert holds[answered].tolist() == witness_rows(shared.adjacency[answered], kind)[0].tolist()
    asked_before = len(calls)
    for theorem_id in theorem_ids():
        assert soundness(theorem_id, max_n=6).to_dict() == fixture[theorem_id]
    assert len(calls) == asked_before


@pytest.mark.usefixtures("fresh_lists")
def test_a_row_registered_later_shares_the_lists(monkeypatch):
    # a row registered after the unbalanced path row's scan, with a lower
    # m_min and minimum degrees (1, 1), takes its parts from the lists
    # that scan built, which hold every representative: no list is built
    # for it, its scans are the labeled per-graph reference's, and the
    # first row's report is unchanged
    first = "spectral-bipartite-traceable-unbalanced"
    before = soundness(first, max_n=6).to_dict()
    built = verify._shared.cache_info().misses
    row = THEOREMS[first].row
    late = dataclasses.replace(row, min_degree=(1, 1), threshold=lambda n: row.threshold(n) - 0.5)
    assert verify._m_min(late, 3) < verify._m_min(row, 3)
    monkeypatch.setitem(THEOREMS, "late-row", verify.TheoremSpec(late, partial(cond.decide, late)))
    reference = _reference_soundness("late-row", 6).to_dict()
    assert soundness("late-row", max_n=6).to_dict() == reference
    assert soundness(first, max_n=6).to_dict() == before
    assert soundness("late-row", max_n=6).to_dict() == reference
    assert verify._shared.cache_info().misses == built == len(sizes_for(THEOREMS[first], 6))


@pytest.mark.usefixtures("fresh_lists")
def test_a_cold_all_theorem_scan_asks_each_hit_once(monkeypatch):
    # every theorem's --max-n 6 scan from a fresh process's empty cache
    # builds one list per geometry, 10 of them, and generates 48,731
    # masks in all; the oracle answers each distinct representative a
    # witness kind hits exactly once, 1,043 rows in 36 calls; a size past
    # CHUNK masks, n = 7, streams and builds no list
    generated, calls, hit = [], [], {}
    swapped_below, flush = verify._swapped_below, verify._flush

    def counting(shifts, upper, lower):
        if upper is lower:
            generated.append(len(upper))
        return swapped_below(shifts, upper, lower)

    def recording(adjacency, kind):
        calls.append(len(adjacency))
        return witness_rows(adjacency, kind)

    def hits(report, spec, layout, batch, families):
        key = layout, verify._witness_kind(spec)
        hit.setdefault(key, set()).update(batch[:, 0].tolist())
        return flush(report, spec, layout, batch, families)

    monkeypatch.setattr(verify, "_swapped_below", counting)
    monkeypatch.setattr(verify, "witness_rows", recording)
    monkeypatch.setattr(verify, "_flush", hits)
    for theorem_id in theorem_ids():
        soundness(theorem_id, max_n=6)
    assert verify._shared.cache_info().currsize == 10 and sum(generated) == 48731
    assert sum(calls) == sum(map(len, hit.values())) == 1043 and len(calls) == 36
    soundness("yu-fan-hamiltonian", sizes=[7])
    assert verify._shared.cache_info().currsize == 10


@pytest.mark.usefixtures("fresh_lists")
def test_each_geometry_builds_its_tables_and_list_once():
    # every theorem's --max-n 6 scan, twice, from empty caches: one layout
    # object per geometry, and each of the 10 folded geometries builds its
    # relabeling tables and its list once
    for _ in range(2):
        for theorem_id in theorem_ids():
            soundness(theorem_id, max_n=6)
    folded = {verify._spec_layout(spec, n)
              for spec in THEOREMS.values() for n in sizes_for(spec, 6)}
    assert len(folded) == 10
    for cached in (verify._relabelings, verify._shared):
        assert cached.cache_info().misses == cached.cache_info().currsize == 10
    # soundness counts a size's masks on the folded layout, so no labeled
    # layout is built
    assert verify._layout.cache_info().misses == verify._layout.cache_info().currsize == 10


def _scan_parts(monkeypatch, *args, **kwargs) -> tuple[SoundnessReport, list]:
    """soundness(*args, **kwargs) in this process, whatever its jobs,
    recording each _scan_part task and the graphs_scanned of its report."""
    tasks, scan_part = [], verify._scan_part

    def recording(*task):
        part = scan_part(*task)
        tasks.append((*task, part.graphs_scanned))
        return part

    with monkeypatch.context() as patch:
        patch.setattr(verify.os, "cpu_count", lambda: 1)   # no pool: parts run here
        patch.setattr(verify, "_scan_part", recording)
        report = soundness(*args, **kwargs)
    return report, tasks


@pytest.mark.usefixtures("fresh_lists")
def test_a_listed_size_is_one_part_at_any_jobs(monkeypatch):
    # at --jobs 8 every size verify --max-n 6 scans, of every theorem, is
    # one _scan_part task over all of its masks, and each report is the
    # fixture's
    fixture = {r["theorem_id"]: r for r in json.loads((FIXTURES / "verify_all_n6.json").read_text())}
    for theorem_id in theorem_ids():
        report, tasks = _scan_parts(monkeypatch, theorem_id, max_n=6, jobs=8)
        assert report.to_dict() == fixture[theorem_id]
        spec = THEOREMS[theorem_id]
        want = []
        for n in sizes_for(spec, 6):
            total = 1 << len(verify._spec_layout(spec, n).slots)
            assert verify._spec_layout(spec, n).listed
            want.append((theorem_id, n, 0, total, total))
        assert tasks == want


@pytest.mark.usefixtures("fresh_lists")
def test_a_streamed_size_in_ragged_parts_counts_every_mask(monkeypatch):
    # n = 7 streams: at --jobs 3 its 2^21 masks split into three parts
    # whose bounds are no multiple of a high part's 2^LOW_BITS masks, and
    # which count exactly their own masks, 2^21 in all; a pool of three
    # workers prints what one process prints
    layout = verify._spec_layout(THEOREMS["yu-fan-hamiltonian"], 7)
    assert not layout.listed
    serial, tasks = _scan_parts(monkeypatch, "yu-fan-hamiltonian", sizes=[7], jobs=3)
    assert serial.graphs_scanned == 1 << 21 and serial.passed
    assert len(tasks) == 3 and all(lo % (1 << verify.LOW_BITS) for _, _, lo, _, _ in tasks[1:])
    assert [scanned for *_, lo, hi, scanned in tasks] == [hi - lo for *_, lo, hi, _ in tasks]
    assert soundness("yu-fan-hamiltonian", sizes=[7]).to_dict() == serial.to_dict()
    assert soundness("yu-fan-hamiltonian", sizes=[7], jobs=3).to_dict() == serial.to_dict()


def _relabeled(layout, span: int, masks: np.ndarray) -> tuple[list, np.ndarray]:
    """(perms, images): every permutation of the first span vertices of
    each side (of the one side of a general graph), as a dict of the
    vertices it moves, and [element, mask] the image of each mask under
    it, made by moving every mask bit to the slot of its relabeled pair."""
    if layout.sides is None:
        blocks = [range(min(span, layout.nverts))]
    else:
        p, q = layout.sides
        blocks = [range(min(span, p)), range(p, p + min(span, q))]
    slot = {pair: k for k, pair in enumerate(layout.slots)}
    perms, images = [], []
    for moved in product(*(permutations(block) for block in blocks)):
        rename = {v: w for v, w in zip(chain(*blocks), chain(*moved)) if v != w}
        image = np.zeros_like(masks)
        for k, (i, j) in enumerate(layout.slots):
            pair = tuple(sorted((rename.get(i, i), rename.get(j, j))))
            image |= ((masks >> k) & 1) << slot[pair]
        perms.append(rename)
        images.append(image)
    return perms, np.array(images)


def _orbit_minima(layout, span: int, masks: np.ndarray):
    """Per mask, its least image and its number of distinct images under
    every permutation of the first span vertices of each side (of the one
    side of a general graph)."""
    ordered = np.sort(_relabeled(layout, span, masks)[1], axis=0)
    return ordered[0], 1 + (np.diff(ordered, axis=0) != 0).sum(axis=0)


def _capped_layouts(max_n: int = verify.MAX_ENUM_N, max_cells: int = verify.MAX_BIP_CELLS) -> list:
    """(vertices, sides) of every layout the size caps allow, or tighter
    caps: general n <= max_n, and each bipartite kind with p*q <=
    max_cells."""
    layouts = [pytest.param(n, None, id=f"general-{n}") for n in range(1, max_n + 1)]
    for kind in (cond.BIP_BALANCED, cond.BIP_UNBALANCED):
        n = 1
        while math.prod(verify._sides(kind, n)) <= max_cells:
            p, q = verify._sides(kind, n)
            layouts.append(pytest.param(p + q, (p, q), id=f"bipartite-{p}x{q}"))
            n += 1
    return layouts


def _folded_layout(nverts: int, sides):
    """The layout with these vertices and sides, folding the scan's
    relabelings."""
    return verify._layout(nverts, sides,
                          verify.RELABEL_GENERAL if sides is None else verify.RELABEL_SIDE)


@pytest.mark.parametrize("nverts, sides", _capped_layouts())
def test_relabeling_tables_move_each_edge_with_its_vertices(nverts, sides):
    # the scan's tables of H, at every layout a scan may take: chunks at
    # most LOW_BITS wide, a dtype that holds every mask, and per element
    # the images of sampled masks (every single bit among them, so the
    # images fix the permutation) that moving each edge bit by the vertex
    # permutation gives; the shift entries swap exactly what the adjacent
    # transpositions move, so the shift test beats exactly the masks one of
    # them maps below itself
    layout = _folded_layout(nverts, sides)
    tables, shifts = verify._relabelings(layout)
    slots, (chunks, width) = len(layout.slots), tables.shape[1:]
    h = width.bit_length() - 1
    assert width == 1 << h and h <= verify.LOW_BITS
    assert slots <= chunks * h
    assert np.iinfo(tables.dtype).max >= (1 << slots) - 1
    rng = np.random.default_rng(slots)
    masks = np.concatenate([rng.integers(0, 1 << slots, 64), [0, (1 << slots) - 1],
                            1 << np.arange(slots)])
    got = layout.images(masks).tolist()
    perms, want = _relabeled(layout, layout.span, masks)
    assert sorted(got) == sorted(want.tolist())
    adjacent = sorted(image for perm, image in zip(perms, want.tolist())
                      if sorted(perm) in ([v, v + 1] for v in range(layout.nverts)))
    swapped = []
    for moved, pairs in shifts:
        image = masks & ~moved
        for s, lower in pairs:
            image = image & ~lower | (masks & lower) << s | (masks >> s) & lower
        swapped.append(image.tolist())
    assert sorted(swapped) == adjacent
    below = (np.reshape(adjacent, (-1, len(masks))) < masks).any(axis=0)
    assert verify._swapped_below(shifts, masks, masks).tolist() == below.tolist()


@pytest.mark.usefixtures("fresh_lists")
def test_a_36_bit_geometry_tables_its_relabelings_in_int64():
    # general n = 9 under the scan's relabelings has 36 mask bits, past the
    # caps and past int32: its tables, built without a scan, are int64, and
    # map random masks, all ones and bit 35 alone among them, to what
    # moving each edge bit by the vertex permutation gives
    layout = _folded_layout(9, None)
    assert len(layout.slots) == 36
    tables, _ = verify._relabelings(layout)
    assert tables.dtype == np.int64
    rng = np.random.default_rng(36)
    masks = np.concatenate([rng.integers(0, 1 << 36, 64), [(1 << 36) - 1, 1 << 35]])
    perms, want = _relabeled(layout, layout.span, masks)
    assert len(perms) == math.factorial(verify.RELABEL_GENERAL)
    assert sorted(layout.images(masks).tolist()) == sorted(want.tolist())


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("nverts, sides", _capped_layouts(7, verify.BIP_CELLS))
def test_pruned_slices_are_the_unpruned_walk_of_representatives(nverts, sides, monkeypatch):
    # up to general n = 7 and bipartite 4x4 / 4x3, over the whole range and
    # ragged ranges, at two edge counts and two slice sizes: pruning the
    # high parts an adjacent transposition beats for every low part, then
    # testing each mask by the shifts, keeps exactly the representatives,
    # orbit sizes and degrees that mapping every mask with m_min bits set
    # through all of H, then the minimum degree 1, gives
    layout = _folded_layout(nverts, sides)
    slots = len(layout.slots)
    total = 1 << slots
    ranges = ((0, total), (total // 3 + 1, 2 * total // 3 + 1), (total - 3, total))
    for m_min, slice_size in ((0, verify.SLICE), (slots // 2, 37 if slots <= 12 else 1000)):
        monkeypatch.setattr(verify, "SLICE", slice_size)
        for lo, hi in [(lo, hi) for lo, hi in ranges if 0 <= lo < hi]:
            pieces = list(verify._slices(layout, lo, hi, m_min, 1))
            walk = np.arange(lo, hi, dtype=np.int64)
            walk = walk[np.bitwise_count(walk) >= m_min]
            chunks = np.array_split(walk, len(walk) // (1 << 14) + 1)
            masks, weights = map(np.concatenate, zip(*map(layout.representatives, chunks)))
            kept, _, want_degrees = _filtered_walk(layout, masks, 0, 1)
            assert _rows(pieces, 2) == np.column_stack([masks, weights])[kept].tolist()
            assert _rows(pieces, 1) == want_degrees.tolist()


def test_a_range_of_pruned_high_parts_yields_no_slice():
    # at general n = 6 every mask of high part 2 (bit 12, the pair (2, 5))
    # is beaten by the swap of vertices 1 and 2: its range yields no slice
    # at all, and the high parts around it do
    layout = _folded_layout(6, None)
    lo, hi = 2 << verify.LOW_BITS, 3 << verify.LOW_BITS
    assert list(verify._slices(layout, lo, hi)) == []
    assert list(verify._slices(layout, lo - 1, hi + 1))


def _labeled(monkeypatch):
    """Make the scan's relabelings trivial: the labeled scan."""
    monkeypatch.setattr(verify, "RELABEL_GENERAL", 1)
    monkeypatch.setattr(verify, "RELABEL_SIDE", 1)


def _scan_hits(monkeypatch, theorem_id: str, max_n: int) -> tuple[SoundnessReport, dict]:
    """soundness(theorem_id, max_n), recording per size the [mask, orbit
    size, status code] rows of every oracle batch, in scan order."""
    hits = {}
    flush = verify._flush

    def recording(report, spec, layout, batch, families):
        hits.setdefault(report.sizes[0], []).append(batch.copy())
        return flush(report, spec, layout, batch, families)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_flush", recording)
        report = soundness(theorem_id, max_n=max_n)
    return report, {n: np.concatenate(batches) for n, batches in hits.items()}


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", ["moon-moser", "chvatal"])
def test_labeled_shared_parts_come_in_bounded_slices(theorem_id, monkeypatch):
    # under the labeled reference the side-4 and n = 6 lists hold every
    # labeled mask (65,536 and 32,768): a part hands its rows on in slices
    # of at most SLICE, and the report is the one whole parts give
    _labeled(monkeypatch)
    rows, part = [], verify._Shared.part

    def recording(self, *args):
        for piece in part(self, *args):
            rows.append(len(piece[0]))
            yield piece
    with monkeypatch.context() as patch:
        patch.setattr(verify._Shared, "part", recording)
        report = soundness(theorem_id, max_n=6)
    assert max(rows) == verify.SLICE
    monkeypatch.setattr(verify, "SLICE", verify.CHUNK)
    assert soundness(theorem_id, max_n=6).to_dict() == report.to_dict()


@pytest.mark.parametrize("theorem_id", theorem_ids())
def test_orbit_weights_partition_the_kept_masks(theorem_id):
    # at every size verify --max-n 6 scans (general n <= 6, both bipartite
    # kinds at side <= 4): the scan keeps exactly the least image of each
    # orbit of the labeled masks m_min and the minimum degrees keep, and
    # its weights are those orbits' sizes, so they sum to the kept masks
    spec = THEOREMS[theorem_id]
    for n in sizes_for(spec, 6):
        labeled, layout = _labeled_layout(spec, n), verify._spec_layout(spec, n)
        assert layout.span == (verify.RELABEL_GENERAL if layout.sides is None
                               else verify.RELABEL_SIDE)
        m_min, need = verify._m_min(spec.row, n), _need(spec.row, n)
        kept = np.concatenate([orbits[:, 0]
                               for *_, orbits in _every_slice(labeled, need, m_min)])
        got = np.concatenate([orbits for *_, orbits in _every_slice(layout, need, m_min)])
        least, size = _orbit_minima(layout, layout.span, kept)
        orbit_size = dict(zip(least.tolist(), size.tolist()))
        assert got[:, 0].tolist() == sorted(orbit_size)
        assert got[:, 1].tolist() == [orbit_size[rep] for rep in got[:, 0].tolist()]
        assert got[:, 1].sum() == len(kept)


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id, max_n", [
    *(pytest.param(theorem_id, 6, id=theorem_id) for theorem_id in theorem_ids() + ["unsound-q"]),
    pytest.param("yu-fan-hamiltonian", 7, id="yu-fan-hamiltonian-n7"),
])
def test_orbit_scan_matches_the_labeled_scan(theorem_id, max_n, monkeypatch):
    # at every size verify --max-n 6 scans, and yu-fan-hamiltonian's n = 7,
    # where S_5 leaves two vertices fixed, the orbit-weighted report is the
    # labeled one, violations included; the representatives' hits are the
    # least images of the labeled hits, and every labeled hit's status code
    # is its representative's: the verdicts are invariant under H, at the
    # CMP_TOL line too, where eigvalsh on a relabeled matrix may round
    # otherwise
    monkeypatch.setitem(THEOREMS, "unsound-q", _UNSOUND_Q)
    spec = THEOREMS[theorem_id]
    report, hits = _scan_hits(monkeypatch, theorem_id, max_n)
    layouts = {n: verify._spec_layout(spec, n) for n in hits}
    _labeled(monkeypatch)
    want, labeled = _scan_hits(monkeypatch, theorem_id, max_n)
    assert report.to_dict() == want.to_dict()
    assert sorted(hits) == sorted(labeled)
    for n, rows in labeled.items():
        assert (rows[:, 1] == 1).all()
        least, _ = _orbit_minima(layouts[n], layouts[n].span, rows[:, 0])
        assert hits[n][:, 0].tolist() == np.unique(least).tolist()
        code = dict(zip(hits[n][:, 0].tolist(), hits[n][:, 2].tolist()))
        assert [code[rep] for rep in least.tolist()] == rows[:, 2].tolist()


def test_table1_rows():
    rows = table1_report()
    assert len(rows) == 18
    names = [row[0] for row in rows]
    assert names[0] == "K4 v 5K1" and names[-1] == "K1,3"
    assert all(diff <= 5e-5 for _, _, _, diff in rows)


def test_tightness_vacuous_exception():
    # the balanced spectral Hamiltonian exception never meets its own bound
    out = tightness_search("spectral-bipartite-hamiltonian", max_n=4)
    excs = {e["family"]: e for e in out["exceptions"]}
    vac = excs["kpn2-plus-4e(4,4)"]
    assert vac["value"] < math.sqrt(12)
    assert not vac["hypothesis_satisfied"]


def test_tightness_real_exceptions_satisfy_bound():
    out = tightness_search("tight-q-hamiltonian", max_n=6)
    excs = {e["family"]: e for e in out["exceptions"]}
    assert excs["NC[8] K2 v 3K1"]["hypothesis_satisfied"]
    assert excs["NC[5] K2 v (K2 + 2K1)"]["hypothesis_satisfied"]
    miss = out["best_near_miss"]
    assert miss is None or miss["deficit"] > 0


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("direction, satisfied", [("ge", True), ("gt", False), ("le", True)])
def test_tightness_exception_at_the_threshold(monkeypatch, direction, satisfied):
    # an exception whose quantity equals the threshold meets a hypothesis
    # only when it is not strict
    spec = verify.THEOREMS["lemma-3.4"]
    fid = spec.row.exceptions(5)[0]
    edges = float(make_family(fid).edge_count())
    row = dataclasses.replace(spec.row, threshold=lambda n: edges, direction=direction)
    monkeypatch.setitem(verify.THEOREMS, "lemma-3.4", dataclasses.replace(spec, row=row))
    excs = {e["family"]: e for e in tightness_search("lemma-3.4", max_n=5)["exceptions"]}
    assert excs[str(fid)]["value"] == excs[str(fid)]["threshold"] == edges
    assert excs[str(fid)]["hypothesis_satisfied"] is satisfied


@pytest.mark.parametrize("theorem_id, max_n, value", [
    ("lemma-3.4", 6, 9.0),            # E}r?: m = 9 = (n^2-4n+6)/2 at n = 6
    ("lemma-3.6", 5, 4.0),            # Ds_: m = 4 = (n^2-4n+3)/2 at n = 5
    ("yu-fan-hamiltonian", 4, 2.0),   # B_, K2 + K1: q = 2 = 2n-4 at n = 3
])
def test_tightness_keeps_a_near_miss_on_a_strict_line(theorem_id, max_n, value):
    # a graph without the property whose quantity sits exactly on a strict
    # row's line is the sharpest evidence that the inequality must be strict
    miss = tightness_search(theorem_id, max_n=max_n)["best_near_miss"]
    assert (miss["value"], miss["threshold"], miss["deficit"]) == (value, value, 0.0)
    assert is_hamiltonian(parse_graph6(miss["graph6"])) is None


@pytest.mark.usefixtures("fresh_lists")
def test_tightness_keeps_the_earlier_size_at_a_tie(monkeypatch):
    # yu-fan-traceable's near miss at n = 6, a copy of Esbw (q = 4 + 2 sqrt 3
    # against 8), and an n = 7 graph (6 + 2 sqrt 3 against 10) lie at the
    # same exact deficit, 4 - 2 sqrt 3; n = 7's radii raised by 1e-13 put
    # it below, by less than CMP_TOL, which is a tie, so the n = 6 graph,
    # earlier in scan order, stays the near miss
    tid = "yu-fan-traceable"
    at_6 = tightness_search(tid, max_n=6)["best_near_miss"]

    def raised(matrices):
        estimates = radius_stack(matrices)
        if matrices.shape[-1] == 7:
            estimates = [estimate._replace(value=estimate.value + 1e-13) for estimate in estimates]
        return estimates

    monkeypatch.setattr(verify, "radius_stack", raised)
    assert tightness_search(tid, max_n=7)["best_near_miss"] == at_6
    assert nx.is_isomorphic(nx.from_graph6_bytes(at_6["graph6"].encode()),
                            nx.from_graph6_bytes(b"Esbw"))


def test_tightness_requires_numeric_hypothesis():
    with pytest.raises(ValueError, match="chvatal has no numeric hypothesis"):
        tightness_search("chvatal")


def _labeled_tightness(theorem_id: str, max_n: int) -> dict:
    """tightness_search the labeled way: at each size, every labeled graph
    the row's minimum degrees keep, in scan order, slice by slice through
    the oracle, then the hypothesis quantities of those lacking the
    property; the near miss is the first at the least deficit, where
    deficits within CMP_TOL tie."""
    spec, sizes = verify._scan_entry(theorem_id, max_n)
    row = spec.row
    exceptions, best = [], None
    for n in sizes:
        threshold = row.threshold(n)
        for fid in row.exceptions(n):
            obj = make_family(fid)
            got = (float(obj.edge_count()) if row.quantity == "m"
                   else cond.hypothesis_radius(row.quantity, obj).value)
            exceptions.append({"family": str(fid), "n": n, "value": got, "threshold": threshold,
                               "hypothesis_satisfied": not row.ladder(got, threshold)[1]})
        layout = _labeled_layout(spec, n)
        for adjacency, _, _ in _every_slice(layout, _need(row, n)):
            found, _ = witness_rows(adjacency, verify._witness_kind(spec))
            rows = adjacency[~found]
            if not len(rows):
                continue
            if row.quantity == "m":
                got = np.bitwise_count(rows).sum(axis=1) / 2
            else:
                got = np.array([estimate.value for estimate in
                                radius_stack(verify._hypothesis_matrices(row, layout, rows))])
            deficits = np.where(row.ladder(got, threshold)[1],
                                np.maximum(row.shortfall(got, threshold), 0.0), np.inf)
            i = int(np.argmax(deficits <= deficits.min() + cond.CMP_TOL))
            if deficits[i] < (np.inf if best is None else best["deficit"] - cond.CMP_TOL):
                best = {"graph6": verify._graph6(rows[i]), "value": float(got[i]),
                        "threshold": threshold, "deficit": float(deficits[i])}
    return {"theorem_id": theorem_id, "exceptions": exceptions, "best_near_miss": best}


NUMERIC = [tid for tid in theorem_ids() if THEOREMS[tid].row.quantity is not None]


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id, max_n", [
    *(pytest.param(theorem_id, 5, id=f"{theorem_id}-5") for theorem_id in NUMERIC),
    *(pytest.param(theorem_id, verify.DEFAULT_MAX_N, id=theorem_id)
      for theorem_id in ("yu-fan-traceable", "zhou-complement-hamiltonian")),
])
def test_tightness_matches_the_labeled_walk(theorem_id, max_n, monkeypatch):
    # the orbit route gives the labeled walk's exceptions and its near
    # miss: the deficit and the property are invariant under the
    # relabelings, and deficits within CMP_TOL tie, so the first labeled
    # graph of the least deficit's tie is an orbit representative, though
    # eigvalsh may round a spectral row's copies of one graph apart
    if max_n == 5:
        monkeypatch.setattr(verify, "BIP_CELLS", 9)
    got, want = tightness_search(theorem_id, max_n=max_n), _labeled_tightness(theorem_id, max_n)
    assert got["exceptions"] == want["exceptions"]
    miss, labeled = got["best_near_miss"], want["best_near_miss"]
    assert (miss is None) == (labeled is None)
    if miss is None:
        return
    assert miss["graph6"] == labeled["graph6"]
    assert miss["threshold"] == labeled["threshold"]
    for key in ("value", "deficit"):
        assert abs(miss[key] - labeled[key]) <= 1e-12


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", ["lemma-3.4", "spectral-bipartite-traceable"])
def test_tightness_reads_the_shared_answers(theorem_id, monkeypatch):
    # at the default sizes every geometry is listed: a search asks the
    # oracle through the lists' answers, so once a scan and a first search
    # have asked, a second search asks the oracle nothing
    soundness(theorem_id, max_n=6)
    first = tightness_search(theorem_id)
    calls = []

    def recording(adjacency, kind):
        calls.append(len(adjacency))
        return witness_rows(adjacency, kind)

    monkeypatch.setattr(verify, "witness_rows", recording)
    assert tightness_search(theorem_id) == first
    assert calls == []


@pytest.mark.parametrize("theorem_id", NUMERIC)
def test_adding_an_edge_keeps_a_met_hypothesis(theorem_id):
    """Monotonicity: every labeled graph of the row's sizes at max_n 6 (at
    most BIP_CELLS cells for a bipartite row) that meets the hypothesis
    under row.ladder still meets it with any absent edge added. The
    tolerance is row.ladder's CMP_TOL: an added edge that leaves a spectral
    radius unchanged, in a component that does not carry it, may move the
    float by a rounding error, which CMP_TOL covers."""
    spec = THEOREMS[theorem_id]
    row = spec.row
    for n in sizes_for(spec, 6):
        layout = _labeled_layout(spec, n)
        masks = np.arange(1 << len(layout.slots))
        if row.quantity == "m":
            values = np.bitwise_count(masks).astype(int)   # uint8 would wrap below 0
        else:
            matrices = verify._hypothesis_matrices(row, layout, layout.rows(masks))
            values = np.array([estimate.value for estimate in radius_stack(matrices)])
        unmet = row.ladder(values, row.threshold(n))[1]
        for k in range(len(layout.slots)):
            absent = masks[(masks >> k & 1) == 0]
            lost = absent[~unmet[absent] & unmet[absent | 1 << k]]
            assert not len(lost), (n, k, verify._graph6(layout.rows(lost[:1])[0]))


# (theorem id, family tag) of the listed exceptions that never meet their
# own row's hypothesis, and of those that do, an edge count's
VACUOUS = [("spectral-bipartite-hamiltonian", FamilyTag.KPN2_PLUS_4E),
           ("spectral-bipartite-traceable-unbalanced", FamilyTag.KPN2_PLUS_4E),
           ("spectral-bipartite-traceable-unbalanced", FamilyTag.KNN1_PLUS_2E)]
MET = [("lemma-2.5", FamilyTag.KNN1_PLUS_EDGE), ("lemma-2.6", FamilyTag.KPN2_PLUS_4E)]


@pytest.mark.parametrize("theorem_id, tag, vacuous", [
    *((theorem_id, tag, True) for theorem_id, tag in VACUOUS),
    *((theorem_id, tag, False) for theorem_id, tag in MET),
])
def test_listed_exceptions_against_their_own_hypothesis(theorem_id, tag, vacuous):
    # at every n from the row's min_n to 40: the two spectral bipartite
    # rows' exceptions fall short of their radius bound, by at least 0.024,
    # so as listed they never meet the hypothesis, while the edge-count
    # rows' exceptions meet theirs
    row = THEOREMS[theorem_id].row
    listed = [(n, fid) for n in range(row.min_n, 41) for fid in row.exceptions(n)
              if fid.tag is tag]
    assert len(listed) >= 37   # knn1-plus-2e is not listed at n = 3
    for n, fid in listed:
        obj = make_family(fid)
        got = (obj.edge_count() if row.quantity == "m"
               else cond.hypothesis_radius(row.quantity, obj).value)
        code, unmet = row.ladder(got, row.threshold(n))
        assert unmet == vacuous, (n, got)
        assert (code == cond.INCONCLUSIVE) == vacuous
        if vacuous:
            assert row.shortfall(got, row.threshold(n)) > 0.024, n


def _all_objects(kind: str, n: int):
    """(edge count, a function that builds it) of every labeled graph of a
    kind at size n, in scan order: mask bit k is the k-th vertex pair, in
    graph6 order for a general graph and x-major order for a bipartite one,
    and the masks ascend."""
    if kind == "general":
        pairs = [(i, j) for j in range(n) for i in range(j)]
        build = partial(from_edges, n)
    else:
        p = n if kind == "bip_balanced" else n + 1
        pairs = [(x, y) for x in range(p) for y in range(n)]
        build = partial(bipartite_from_edges, p, n)
    # product varies its last place fastest, so it walks the highest pair slowest
    for chosen in product((0, 1), repeat=len(pairs)):
        yield sum(chosen), partial(build, compress(pairs[::-1], chosen))


def _reference_tally(report: SoundnessReport, strict: bool, verdict: Verdict, holds: bool) -> bool:
    """Count one hypothesis hit against the oracle's answer, one verdict at
    a time; True if the hit is a violation."""
    report.hypothesis_hits += 1
    if verdict.status is Status.GUARANTEED:
        if not holds:
            return True
        report.guaranteed_confirmed += 1
    elif verdict.status is Status.EXCEPTION:
        # a named exceptional graph must lack the property; a structural
        # EC/EP member may have it
        structural = verdict.family is not None and verdict.family.tag is FamilyTag.JOIN_EXPR
        if holds and not structural:
            return True
        report.exceptions_matched += 1
        key = str(verdict.family)
        report.exceptions_by_family[key] = report.exceptions_by_family.get(key, 0) + 1
    elif verdict.status is Status.BOUNDARY:
        # a non-strict hypothesis holds on its line
        if not (strict or holds):
            return True
        report.boundary_cases += 1
    return False


def _reference_soundness(theorem_id: str, max_n: int) -> SoundnessReport:
    """soundness() the slow way: every labeled graph with enough edges, one
    at a time, through the scalar checker, the backtracking oracle (the
    scan's own is the DP) and a per-verdict tally."""
    spec = THEOREMS[theorem_id]
    kind = CYCLE if spec.row.prop == HAMILTONIAN else PATH
    report = SoundnessReport(theorem_id, [])
    for n in sizes_for(spec, max_n):
        report.sizes.append(n)
        m_min = verify._m_min(spec.row, n)
        for m, build in _all_objects(spec.row.kind, n):
            report.graphs_scanned += 1
            if m < m_min:
                continue
            obj = build()
            v = spec.checker(obj)
            if v.status in (Status.INCONCLUSIVE, Status.NOT_APPLICABLE):
                continue
            g = obj.to_graph() if spec.row.kind != "general" else obj
            if _reference_tally(report, spec.row.strict, v, backtrack_oracle(g, kind)):
                report.violations.append(write_graph6(g))
    return report


# an unsound theorem: tight-q-hamiltonian's row loosened to q(G) >= 2n - 5.5,
# with no exceptions; the fault lives in the row, so the scan's slice ladder
# and its checker, decide on that row, both apply it
_UNSOUND_Q_ROW = dataclasses.replace(THEOREMS["tight-q-hamiltonian"].row, min_degree=(0, 0),
                                     threshold=lambda n: 2 * n - 5.5, exceptions=lambda n: ())
_UNSOUND_Q = verify.TheoremSpec(_UNSOUND_Q_ROW, partial(cond.decide, _UNSOUND_Q_ROW))


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", theorem_ids() + ["unsound-q"])
def test_batched_scan_matches_per_graph_reference(theorem_id, monkeypatch):
    monkeypatch.setitem(THEOREMS, "unsound-q", _UNSOUND_Q)
    fast = soundness(theorem_id, max_n=5).to_dict()
    assert fast == _reference_soundness(theorem_id, 5).to_dict()
    if theorem_id == "unsound-q":
        assert len(fast["violations"]) == 469  # in scan order, compared above


@pytest.mark.usefixtures("fresh_lists")
def test_violations_keep_scan_order_across_parts(monkeypatch):
    # a small CHUNK splits n = 5's 2^10 masks into three parts at jobs=3,
    # and some violating orbit has members in two parts: a representative's
    # part reports every member, and the merged report still lists the
    # violations in scan order, as one part does
    monkeypatch.setitem(THEOREMS, "unsound-q", _UNSOUND_Q)
    serial = soundness("unsound-q", max_n=5)
    monkeypatch.setattr(verify, "CHUNK", 1 << 8)
    assert soundness("unsound-q", max_n=5, jobs=3).to_dict() == serial.to_dict()
    layout = verify._spec_layout(_UNSOUND_Q, 5)
    slot = {pair: k for k, pair in enumerate(layout.slots)}
    masks = np.array([sum(1 << slot[(i, j)] for i, j in parse_graph6(line).edges())
                      for line in serial.violations if line[0] == "D"])   # n = 5
    least, _ = _orbit_minima(layout, layout.span, masks)
    part = masks // -(-(1 << 10) // 3)
    assert any(len(set(part[least == rep])) > 1 for rep in np.unique(least))


DEGREE_SCREENED = {"chvatal": 5945, "bipartite-degree": 3676, "moon-moser": 1228}


@pytest.mark.parametrize("theorem_id", sorted(DEGREE_SCREENED))
def test_degree_screen_keeps_exactly_the_hits(theorem_id):
    # exhaustive at every size verify --max-n 6 scans: the screen drops only
    # graphs the checker calls Inconclusive or NotApplicable, and no others
    spec = THEOREMS[theorem_id]
    sizes = sizes_for(spec, 6)
    assert sizes == ([3, 4, 5, 6] if spec.row.kind == "general" else [2, 3, 4])
    kept_total = 0
    for n in sizes:
        layout = _labeled_layout(spec, n)
        for adjacency, degrees, _ in _row_slices(spec, n):
            kept = spec.row.screen(degrees, adjacency).tolist()
            hits = [spec.checker(obj).status not in (Status.INCONCLUSIVE, Status.NOT_APPLICABLE)
                    for obj in layout.build(adjacency)]
            assert kept == hits
            kept_total += sum(kept)
    assert kept_total == DEGREE_SCREENED[theorem_id]


@pytest.mark.parametrize("theorem_id", sorted(DEGREE_SCREENED))
def test_degree_screened_scan_parallel_matches_serial(theorem_id):
    serial = soundness(theorem_id, max_n=6)
    assert serial.hypothesis_hits == DEGREE_SCREENED[theorem_id]
    assert soundness(theorem_id, max_n=6, jobs=2).to_dict() == serial.to_dict()


SPECTRAL = [tid for tid in theorem_ids() if THEOREMS[tid].row.spectral]

# each hypothesis quantity's operand, made of the graph object by graphs'
# own complement and quasi_complement, the reference for conditions' flip
OPERAND = {"q": lambda g: g, "rho": lambda g: g,
           "q_complement": complement, "rho_star": quasi_complement}


def _enclosure_band(row, threshold, matrices):
    """(lower, band) of each hypothesis matrix: its cw_bounds lower end, and
    whether its enclosure meets the line, its two ends judged apart or
    either one on the line."""
    lower, upper = cw_bounds(matrices)
    (fails, on_line), (fails_up, on_line_up) = row.judge(lower, threshold), row.judge(upper, threshold)
    return lower, (fails != fails_up) | on_line | on_line_up


def _record_scan(monkeypatch, theorem_id):
    """Patch the slice ladder and the checker of a theorem to record, per
    size, each slice's (adjacency, values, candidate), and each checker
    call's (object, estimate)."""
    spec = THEOREMS[theorem_id]
    judged, checked = {}, []
    ladder = cond.slice_ladder

    def recording(row, n, degrees, adjacency, values=None):
        codes, candidate = ladder(row, n, degrees, adjacency, values)
        judged.setdefault(n, []).append((adjacency, values, candidate))
        return codes, candidate

    def checker(obj, estimate=None):
        checked.append((obj, estimate))
        return spec.checker(obj, estimate=estimate)

    monkeypatch.setattr(cond, "slice_ladder", recording)
    monkeypatch.setitem(THEOREMS, theorem_id, verify.TheoremSpec(spec.row, checker))
    return judged, checked


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", SPECTRAL)
def test_scan_estimates_equal_the_stacked_radius_of_the_operand(theorem_id, monkeypatch):
    # the slice ladder judges each graph at an end of its cw_bounds
    # enclosure, or, in the band, at its radius_stack estimate; off the
    # band the enclosure's status is judge's on what rho or q_radius gives
    # the checker's own operand, in the band the judged value is that
    # estimate bit for bit, and so is every exception candidate's estimate
    spec = THEOREMS[theorem_id]
    row = spec.row
    judged, checked = _record_scan(monkeypatch, theorem_id)
    soundness(theorem_id, max_n=5)
    radius = RADII[row.quantity]
    scalar = rho if radius.matrix == ADJACENCY else q_radius
    # every scanned size reaches the ladder with values: zhou-complement-traceable's
    # n = 1 too, whose layout has no mask bits
    assert sorted(judged) == sizes_for(spec, 5)
    off_band = 0
    for n, slices in judged.items():
        layout = verify._spec_layout(spec, n)
        threshold = row.threshold(n)
        adjacency = np.concatenate([adjacency for adjacency, _, _ in slices])
        values = np.concatenate([values for _, values, _ in slices])
        lower, band = _enclosure_band(row, threshold,
                                      verify._hypothesis_matrices(row, layout, adjacency))
        exact = np.array([scalar(OPERAND[row.quantity](obj)).value
                          for obj in layout.build(adjacency)])
        assert len(exact) and (values[~band] == lower[~band]).all()
        assert (values[band] == exact[band]).all()
        for got, want in zip(row.judge(values, threshold), row.judge(exact, threshold)):
            assert (got == want).all()
        off_band += int((~band).sum())
    assert off_band
    for obj, estimate in checked:
        assert estimate == scalar(OPERAND[row.quantity](obj))


def _every_layout():
    """(complemented row, layout) for every scan layout at n <= 6 and side
    <= 4, both bipartite kinds, with no degree filter; a bipartite layout
    takes the quasi-complement row, whose flip is the one every bipartite
    kind would get."""
    for n in range(1, 7):
        yield THEOREMS["zhou-complement-traceable"].row, verify._layout(n, None, 1)
    for p, q in [(n, n) for n in range(1, 5)] + [(n + 1, n) for n in range(1, 4)]:
        yield THEOREMS["quasi-complement"].row, verify._layout(p + q, (p, q), 1)


def test_hypothesis_matrices_flip_exactly_the_pairs_a_kind_allows(monkeypatch):
    # exhaustive over every scan layout at n <= 6 and side <= 4: each
    # complemented row's hypothesis matrices are matrix_stack of complement /
    # quasi_complement of the graph objects; and a flip that also takes the
    # diagonal, or a pair inside one side, gives every graph another matrix
    flip, checked = cond.HypothesisRadius.bits_of, 0
    for row, layout in _every_layout():
        radius = RADII[row.quantity]
        n = layout.nverts
        wrong = [np.eye(n, dtype=bool)]
        if layout.sides is not None and max(layout.sides) > 1:
            in_x = np.arange(n) < layout.sides[0]
            wrong.append((in_x[:, None] == in_x) & ~np.eye(n, dtype=bool))
        for adjacency, _, _ in _every_slice(layout):
            want = matrix_stack([OPERAND[row.quantity](obj) for obj in layout.build(adjacency)],
                                radius.matrix)
            assert np.array_equal(verify._hypothesis_matrices(row, layout, adjacency), want)
            for extra in wrong:
                with monkeypatch.context() as patch:
                    patch.setattr(cond.HypothesisRadius, "bits_of",
                                  lambda self, bits, p=None: flip(self, bits, p) ^ extra)
                    got = verify._hypothesis_matrices(row, layout, adjacency)
                assert (got != want).any(axis=(1, 2)).all()
            checked += len(adjacency)
    assert checked == sum(1 << len(layout.slots) for _, layout in _every_layout())


@pytest.mark.usefixtures("fresh_lists")
@pytest.mark.parametrize("theorem_id", ["tight-q-hamiltonian", "zhou-complement-traceable"])
def test_radius_stack_sees_only_the_band_and_the_candidates(theorem_id, monkeypatch):
    # exhaustive at every size verify --max-n 6 scans: the scan hands
    # radius_stack the matrix of each graph whose enclosure meets the line,
    # and again of each exception candidate, in or off that band, and no
    # other
    spec = THEOREMS[theorem_id]
    row = spec.row
    judged, _ = _record_scan(monkeypatch, theorem_id)
    stacked = []

    def recording(matrices):
        stacked.extend(matrix.tobytes() for matrix in matrices)
        return radius_stack(matrices)

    monkeypatch.setattr(verify, "radius_stack", recording)
    report = soundness(theorem_id, max_n=6)
    wanted = []
    for n, slices in judged.items():
        layout = verify._spec_layout(spec, n)
        for adjacency, _, candidate in slices:
            matrices = verify._hypothesis_matrices(row, layout, adjacency)
            _, band = _enclosure_band(row, row.threshold(n), matrices)
            wanted += [matrix.tobytes() for matrix in matrices[band]]
            wanted += [matrix.tobytes() for matrix in matrices[candidate]]
    assert sorted(stacked) == sorted(wanted)
    assert 0 < len(stacked) < report.hypothesis_hits / 10


@pytest.mark.parametrize("theorem_id", theorem_ids() + ["unsound-q"])
def test_slice_ladder_matches_decide_on_every_small_graph(theorem_id):
    # exhaustive at every size verify --max-n 6 scans: decide calls every
    # graph below the row's minimum degrees, which the layout drops,
    # NotApplicable; on the layout's slices, the status the scan gives each
    # graph, the ladder's or, for an exception candidate, the checker's, is
    # decide's, and so is each Exception's family; a candidate the checker
    # does not call an Exception keeps the ladder's status
    spec = THEOREMS.get(theorem_id, _UNSOUND_Q)
    row = spec.row
    for n in sizes_for(spec, 6):
        layout, need = _labeled_layout(spec, n), _need(row, n)
        adjacency, degrees, _ = zip(*_every_slice(layout))
        adjacency, degrees = np.concatenate(adjacency), np.concatenate(degrees)
        dropped = ~(degrees >= need).all(axis=1)
        assert all(cond.decide(row, obj).status is Status.NOT_APPLICABLE
                   for obj in layout.build(adjacency[dropped]))
        adjacency, degrees, _ = zip(*_every_slice(layout, need))
        adjacency, degrees = np.concatenate(adjacency), np.concatenate(degrees)
        matrices, estimates, values = None, [], None
        if row.spectral:
            matrices = verify._hypothesis_matrices(row, layout, adjacency)
            estimates = radius_stack(matrices)
            values = np.array([estimate.value for estimate in estimates])
        codes, candidate = cond.slice_ladder(row, n, degrees, adjacency, values)
        placeholder = codes.copy()
        families = verify._verdicts(spec, layout, adjacency, matrices, codes, candidate)
        objs = layout.build(adjacency)
        expected = [cond.decide(row, obj, estimate=estimates[i] if estimates else None)
                    for i, obj in enumerate(objs)]
        assert [cond.STATUSES[code] for code in codes] == [v.status for v in expected]
        assert families == [v.family for v in expected if v.status is Status.EXCEPTION]
        exception = codes == cond.EXCEPTION
        assert not (exception & ~candidate).any()
        assert (placeholder == codes)[candidate & ~exception].all()


@pytest.mark.parametrize("theorem_id", SPECTRAL)
def test_bounds_drop_only_graphs_the_eigvalsh_screen_drops(theorem_id):
    # exhaustive over the m/delta survivors at every size verify --max-n 6
    # scans: a graph the ladder calls Inconclusive at both ends of its
    # cw_bounds enclosure, which the scan drops, is Inconclusive under the
    # ladder on its eigvalsh radius too, as a screen on that radius would
    # drop it, so it is never on the line nor a hit; and the bounds drop
    # some graphs of every theorem
    spec = THEOREMS[theorem_id]
    row = spec.row
    dropped = 0
    for n in sizes_for(spec, 6):
        layout = _labeled_layout(spec, n)
        threshold = row.threshold(n)
        for adjacency, _, _ in _row_slices(spec, n, verify._m_min(row, n)):
            matrices = verify._hypothesis_matrices(row, layout, adjacency)
            (low, _), (high, _) = (row.ladder(end, threshold) for end in cw_bounds(matrices))
            drop = (low == cond.INCONCLUSIVE) & (high == cond.INCONCLUSIVE)
            code, _ = row.ladder(np.linalg.eigvalsh(matrices)[:, -1], threshold)
            assert (code[drop] == cond.INCONCLUSIVE).all()
            dropped += int(drop.sum())
    assert dropped > 0


# the numpy form the degree screens had, over a stack of degree rows; the
# blocking k of the Python functions the rows' inequalities and screens
# share must agree with it
def _first_k(blocked):
    return np.where(blocked.any(axis=1), blocked.argmax(axis=1) + 1, 0)


def _chvatal_blocking_stack(degrees):
    d = np.sort(degrees, axis=1)
    n = d.shape[1]
    k = np.arange(1, (n + 1) // 2)
    return _first_k((d[:, k - 1] <= k) & (d[:, n - k - 1] <= n - k - 1))


def _bipartite_degree_blocking_stack(degrees):
    d = np.sort(degrees, axis=1)
    n = d.shape[1] // 2
    k = np.arange(1, n // 2 + 1)
    return _first_k((d[:, k - 1] <= k) & (d[:, [n - 1]] <= n - k))


def _k(blocking):
    """The k of a blocking certificate, or 0 for ()."""
    return dict(blocking).get("k", 0)


DEGREE_INEQUALITIES = {
    "chvatal": (cond.chvatal_blocking, _chvatal_blocking_stack),
    "bipartite-degree": (cond.bipartite_degree_blocking, _bipartite_degree_blocking_stack),
}


@pytest.mark.parametrize("theorem_id", sorted(DEGREE_INEQUALITIES))
def test_degree_blocking_matches_the_stacked_form(theorem_id):
    blocking, stacked = DEGREE_INEQUALITIES[theorem_id]
    spec = THEOREMS[theorem_id]
    for n in sizes_for(spec, 6):
        for _, degrees, _ in _row_slices(spec, n):
            got = [_k(blocking(row)) for row in np.sort(degrees, axis=1).tolist()]
            assert got == stacked(degrees).tolist()
    rng = random.Random(theorem_id)
    for _ in range(300):   # graphs of up to 64 vertices
        p = rng.random()
        if spec.row.kind == "general":
            n = rng.randrange(3, 65)
            degrees = from_edges(
                n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]).degrees()
        else:
            n = rng.randrange(2, 33)
            b = bipartite_from_edges(
                n, n, [(x, y) for x in range(n) for y in range(n) if rng.random() < p])
            degrees = b.degrees_x() + b.degrees_y()
        assert _k(blocking(sorted(degrees))) == stacked(np.array([degrees]))[0]


@pytest.mark.parametrize("theorem_id", sorted(DEGREE_INEQUALITIES))
def test_degree_screen_evaluates_each_sorted_row_once(theorem_id, monkeypatch):
    # the screen looks its inequality up in conditions when it runs, so a
    # counting wrapper there sees every evaluation
    blocking = DEGREE_INEQUALITIES[theorem_id][0]
    name = blocking.__name__
    seen = []

    def counting(row):
        seen.append(tuple(row))
        return blocking(row)

    monkeypatch.setattr(cond, name, counting)
    spec = THEOREMS[theorem_id]
    for n in sizes_for(spec, 6):
        for adjacency, degrees, _ in _row_slices(spec, n):
            seen.clear()
            kept = spec.row.screen(degrees, adjacency)
            distinct = {tuple(row) for row in np.sort(degrees, axis=1).tolist()}
            assert len(seen) == len(set(seen)) and set(seen) == distinct
            assert kept.tolist() == [not blocking(sorted(row)) for row in degrees.tolist()]
