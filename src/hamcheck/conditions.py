"""The theorem table, and the one verdict ladder every theorem shares.

Every condition has one row in CONDITIONS, keyed by theorem id: the
property, the graph kind, the preconditions (size, per-side minimum
degree, connectivity, the (n+1, n) orientation), the hypothesis, and the
exceptional graphs at each n. The hypothesis is a quantity with its
threshold in n, direction and strictness, or, for the three degree
theorems, an exact inequality on the degrees, with its scan screen. Nothing
reads the theorems from anywhere else: ``decide`` applies the one verdict
ladder to any row, ``check_theorem(theorem_id, obj)`` is the one public
entry to every theorem, and ``verify`` derives its checkers, scan filters,
screens and ``tightness_search`` from the same rows.

``slice_ladder`` is the same ladder over a soundness scan's slice of
graphs, in arrays: it gives every graph ``decide``'s status but for the
graphs that may be exceptions, whose degrees match a listed exception's
or pass the EC/EP degree test ``join_clauses``; the scan hands only those
to ``decide``.

``Condition.ladder`` is the one threshold rule: by ``Condition.judge``,
which compares a value with a row's bound exactly for an edge count and
within CMP_TOL for a spectral radius, it gives a value's status code and
whether the hypothesis is unmet, a strict row's line included. ``decide``,
``slice_ladder``, the scan's enclosures and ``tightness_search`` all read it.

``decide`` re-validates the row's preconditions and answers NotApplicable
rather than assuming callers filtered. Exceptional-family recognizers
only run once the numeric hypothesis holds; below the threshold the
verdict is Inconclusive even for exceptional inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import compress
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .families import (
    FamilyId,
    FamilyTag,
    NC_GRAPHS,
    NP_GRAPHS,
    make_family,
    nc_member,
    np_member,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    bit_matrix,
    bits,
    complement,
    connected_components,
    connected_rows,
    induced_subgraph,
    transpose,
)
from .iso import is_isomorphic
from .spectral import ADJACENCY, SIGNLESS_LAPLACIAN, SpectralEstimate, q_radius, rho

CMP_TOL = 1e-8   # a spectral radius this close to its threshold is on the line

HAMILTONIAN = "hamiltonian"
TRACEABLE = "traceable"

# graph kinds: a general graph of n vertices, or a bipartite graph with
# sides (n, n) or (n+1, n), side X the larger one
GENERAL = "general"
BIP_BALANCED = "bip_balanced"
BIP_UNBALANCED = "bip_unbalanced"


class Status(str, Enum):
    GUARANTEED = "guaranteed"
    EXCEPTION = "exception"
    BOUNDARY = "boundary"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not_applicable"


# the slice ladder's status codes: a status's index in STATUSES; and per
# code, whether that status is a hypothesis hit
STATUSES = tuple(Status)
GUARANTEED, EXCEPTION, BOUNDARY, INCONCLUSIVE, NOT_APPLICABLE = range(len(STATUSES))
HIT = np.isin(np.arange(len(STATUSES)), (GUARANTEED, EXCEPTION, BOUNDARY))


Certificate = tuple[tuple[str, float], ...]


class Verdict(NamedTuple):
    status: Status
    prop: str
    certificate: Certificate = ()
    family: Optional[FamilyId] = None
    note: str = ""


class JoinWitness(NamedTuple):
    kind: str
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def _na(prop: str, reason: str, *cert: tuple[str, float]) -> Verdict:
    return Verdict(Status.NOT_APPLICABLE, prop, tuple(cert), note=reason)


# ---------------------------------------------------------------- degree
#
# The hypotheses of the three degree theorems, which have no quantity and
# no threshold. Chvatal's and the bipartite degree inequality are each
# written once, as a Python function of a sorted degree sequence (for
# bipartite graphs, both sides' degrees together) that returns the blocking
# certificate, or () when nothing blocks. Moon-Moser reads adjacency too, so
# it is written over a stack of graphs: row i of ``degrees`` is graph i's
# degree table, side X first, and ``adjacent[i]`` its 0/1 biadjacency
# matrix. A degree row applies its inequality to one graph,
# ``inequality(obj, n, degrees)``, which returns the blocking certificate
# (or ()) and the margin; and to a soundness scan's slice,
# ``screen(degrees, adjacency)``, which says for each of its graphs whether
# the hypothesis holds. The arithmetic is exact integer arithmetic.

def chvatal_blocking(d: Sequence[int]) -> Certificate:
    """The smallest k < n/2 with d_k <= k and d_{n-k} <= n-k-1, where
    d_1 <= ... <= d_n is the sorted degree sequence d, with those two
    degrees, or () if there is none (then the graph is Hamiltonian). Needs
    n >= 3."""
    n = len(d)
    for k in range(1, (n + 1) // 2):
        if d[k - 1] <= k and d[n - k - 1] <= n - k - 1:
            return ("k", k), ("d_k", d[k - 1]), ("d_n_minus_k", d[n - k - 1])
    return ()


def bipartite_degree_blocking(d: Sequence[int]) -> Certificate:
    """For balanced bipartite graphs with side n: the smallest k <= n/2 with
    d_k <= k and d_n <= n-k, where d_1 <= ... <= d_2n is the sorted degree
    sequence d, with those two degrees, or () if there is none. Needs n >= 2."""
    n = len(d) // 2
    for k in range(1, n // 2 + 1):
        if d[k - 1] <= k and d[n - 1] <= n - k:
            return ("k", k), ("d_k", d[k - 1]), ("d_n", d[n - 1])
    return ()


def moon_moser_blocking(
    degrees: np.ndarray, adjacent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For balanced bipartite graphs with side n: per row, the smallest
    degree sum d(x) + d(y) over the non-adjacent cross pairs (n + 1 if every
    pair is adjacent), and, if it is below n + 1, the first pair reaching it
    in x-major order as x*n + y, else -1. Needs n >= 1."""
    count, n = adjacent.shape[:2]
    above = 2 * n + 1  # more than any degree sum
    sums = degrees[:, :n, None] + degrees[:, None, n:]
    sums = np.where(adjacent > 0, above, sums).reshape(count, n * n)
    cell = sums.argmin(axis=1)
    worst = sums[np.arange(count), cell]
    worst = np.where(worst == above, n + 1, worst)
    return worst, np.where(worst < n + 1, cell, -1)


def _moon_moser(b: BipartiteGraph, n: int, degrees: list[int]) -> tuple[Certificate, float]:
    """Nonadjacent cross pairs with degree sum >= n+1 force a cycle."""
    worst, cell = moon_moser_blocking(np.array([degrees]), bit_matrix(b.rows, n)[None])
    worst, cell = int(worst[0]), int(cell[0])
    blocking = ("x", cell // n), ("y", cell % n), ("degree_sum", worst), ("required", n + 1)
    return blocking if cell >= 0 else (), float(worst - (n + 1))


def _per_sorted_row(test: Callable[[list[int]], object], degrees: np.ndarray) -> np.ndarray:
    """Whether ``test`` holds (is truthy) for each row of a slice's degree
    table, sorted: it runs once per distinct sorted degree row, found by
    packing each sorted row into one int64 key. A scanned graph has at most
    10 vertices, so a key takes at most 10 degrees of 4 bits."""
    d = np.sort(degrees, axis=1)
    width = max(d.shape[1] - 1, 1).bit_length()
    keys = (d.astype(np.int64) << (width * np.arange(d.shape[1]))).sum(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([bool(test(row)) for row in d[first].tolist()], dtype=bool)[inverse]


def _moon_moser_screen(degrees: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    side = degrees.shape[1] // 2
    # side X's rows hold side Y's vertices at bits side .. 2 side - 1
    adjacent = (adjacency[:, :side, None] >> np.arange(side, 2 * side)) & 1
    return moon_moser_blocking(degrees, adjacent)[1] < 0


# ------------------------------------------------------------ the table

@dataclass(frozen=True)
class HypothesisRadius:
    """What a spectral hypothesis quantity bounds: the spectral radius of
    the operand's ``matrix`` (ADJACENCY, computed by ``rho``, or
    SIGNLESS_LAPLACIAN, by ``q_radius``). The operand is the checked graph,
    or, when ``complemented``, its complement (a general graph) or
    quasi-complement (a bipartite one), built only by ``bits_of``."""
    matrix: str
    complemented: bool = False

    def bits_of(self, bits: np.ndarray, p: Optional[int] = None) -> np.ndarray:
        """The operands' 0/1 adjacency matrices from ``bits``, the checked
        graphs' (one (n, n) matrix or a stack): ``bits`` itself or, when
        ``complemented``, with every pair flipped that the kind allows as an
        edge: each pair of distinct vertices of a general graph (p None),
        each cross pair of a bipartite one whose first p vertices are side X."""
        if not self.complemented:
            return bits
        n = bits.shape[-1]
        side = np.arange(n) if p is None else np.arange(n) >= p   # each vertex its own side
        return bits ^ (side[:, None] != side)


RADII: dict[str, HypothesisRadius] = {
    "q": HypothesisRadius(SIGNLESS_LAPLACIAN),
    "q_complement": HypothesisRadius(SIGNLESS_LAPLACIAN, complemented=True),
    "rho": HypothesisRadius(ADJACENCY),
    "rho_star": HypothesisRadius(ADJACENCY, complemented=True),
}


def hypothesis_radius(quantity: str, obj, bits: Optional[np.ndarray] = None) -> SpectralEstimate:
    """The spectral radius RADII[quantity] names for obj: of its operand's
    adjacency matrix by ``rho``, or signless Laplacian by ``q_radius``.
    ``bits`` is obj's (n, n) 0/1 adjacency matrix, a bipartite graph's side
    X first; when it is not given, ``bit_matrix`` unpacks it from obj's
    rows."""
    radius = RADII[quantity]
    radius_of = rho if radius.matrix == ADJACENCY else q_radius
    if bits is None:
        g = obj.to_graph()
        bits = bit_matrix(g.adj, g.n)
    return radius_of(radius.bits_of(bits, obj.p if isinstance(obj, BipartiteGraph) else None))


def _at(table: dict[int, tuple[FamilyId, ...]]) -> Callable[[int], tuple[FamilyId, ...]]:
    """Exceptions listed by size: table[n], or none."""
    return lambda n: table.get(n, ())


def _by_size(members: list[Graph], fid: Callable[[int], FamilyId]) -> dict:
    """The members' family ids, grouped by vertex count."""
    table: dict[int, tuple[FamilyId, ...]] = {}
    for index, g in enumerate(members):
        table[g.n] = table.get(g.n, ()) + (fid(index),)
    return table


@dataclass(frozen=True)
class Condition:
    """One theorem: prop holds for every graph of ``kind`` at size n >=
    ``min_n`` that meets the preconditions and the hypothesis ``quantity``
    ``direction`` ``threshold(n)``, unless it is one of ``exceptions(n)``
    or, for Zhou's conditions, in the EC/EP class ``join_class``. The size
    n is the vertex count of a general graph and the (smaller) side of a
    bipartite one. A row without a quantity is a degree theorem: its
    hypothesis is ``inequality`` on one graph and ``screen`` on a scan
    slice, both exact (see the degree section above)."""
    prop: str
    kind: str
    min_n: int
    min_degree: tuple[int, int] = (0, 0)   # (side X, side Y); equal for general
    connected: bool = False
    quantity: Optional[str] = None          # m, or a key of RADII
    threshold: Optional[Callable[[int], float]] = None
    direction: str = "ge"                   # ge | gt | le; gt is strict
    exceptions: Callable[[int], tuple[FamilyId, ...]] = lambda n: ()
    join_class: str = ""
    inequality: Optional[Callable[[object, int, list[int]], tuple[Certificate, float]]] = None
    screen: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def strict(self) -> bool:
        return self.direction == "gt"

    @property
    def spectral(self) -> bool:
        """The quantity is a spectral radius, so the checker takes an estimate."""
        return self.quantity not in (None, "m")

    def shortfall(self, value, threshold):
        """How far ``value`` (a number or an array) falls short of meeting
        the hypothesis bound ``threshold``; negative once past it."""
        return value - threshold if self.direction == "le" else threshold - value

    def judge(self, value, threshold):
        """(fails, on_line): whether ``value`` (a number or an array) fails
        the hypothesis bound ``threshold``, and whether it lies on its line.
        An edge count is exact: a strict row fails at equality, and nothing
        is on the line. A spectral radius fails once its shortfall exceeds
        CMP_TOL, and is on the line within CMP_TOL of the threshold."""
        short = self.shortfall(value, threshold)
        if self.spectral:
            return short > CMP_TOL, abs(short) <= CMP_TOL
        fails = short >= 0 if self.strict else short > 0
        return fails, fails & False   # never on the line, as a bool or a bool array

    def ladder(self, value, threshold):
        """(code, unmet) of ``value`` (a number or an array) under the
        bound ``threshold``, by ``judge``: its status code, INCONCLUSIVE if
        it fails, BOUNDARY on the line, else GUARANTEED, which only an
        exception can override; and whether the hypothesis is unmet, as it
        is where the value fails and on a strict row's line, so no exception
        step runs. unmet takes | and &, never ~: ~True is -2, truthy."""
        fails, on_line = self.judge(value, threshold)
        # fails and on_line never both hold: one form for numbers and arrays
        code = GUARANTEED + (INCONCLUSIVE - GUARANTEED) * fails + (BOUNDARY - GUARANTEED) * on_line
        return code, fails | (on_line & self.strict)


CONDITIONS: dict[str, Condition] = {
    "chvatal": Condition(
        HAMILTONIAN, GENERAL, 3,
        inequality=lambda g, n, degrees: (chvatal_blocking(sorted(degrees)), 0.0),
        screen=lambda degrees, adjacency: ~_per_sorted_row(chvatal_blocking, degrees),
    ),
    "bipartite-degree": Condition(
        HAMILTONIAN, BIP_BALANCED, 2,
        inequality=lambda b, n, degrees: (bipartite_degree_blocking(sorted(degrees)), 0.0),
        screen=lambda degrees, adjacency: ~_per_sorted_row(bipartite_degree_blocking, degrees),
    ),
    "moon-moser": Condition(
        HAMILTONIAN, BIP_BALANCED, 2, inequality=_moon_moser, screen=_moon_moser_screen,
    ),
    "lemma-2.5": Condition(
        HAMILTONIAN, BIP_BALANCED, 2, (1, 1), quantity="m",
        threshold=lambda n: n * n - n + 1,
        exceptions=lambda n: (FamilyId(FamilyTag.KNN1_PLUS_EDGE, (n,)),),
    ),
    "lemma-2.6": Condition(
        HAMILTONIAN, BIP_BALANCED, 4, (2, 2), quantity="m",
        threshold=lambda n: n * n - 2 * n + 4,
        exceptions=lambda n: (FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n)),),
    ),
    "lemma-2.8": Condition(
        TRACEABLE, BIP_BALANCED, 3, (1, 1), quantity="m",
        threshold=lambda n: n * n - 2 * n + 3,
    ),
    "spectral-bipartite-hamiltonian": Condition(
        HAMILTONIAN, BIP_BALANCED, 4, (2, 2), quantity="rho",
        threshold=lambda n: math.sqrt(n * n - 2 * n + 4),
        exceptions=lambda n: (FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n)),),
    ),
    "spectral-bipartite-traceable": Condition(
        TRACEABLE, BIP_BALANCED, 3, (1, 1), quantity="rho",
        threshold=lambda n: math.sqrt(n * n - 2 * n + 3),
    ),
    "spectral-bipartite-traceable-unbalanced": Condition(
        TRACEABLE, BIP_UNBALANCED, 3, (1, 2), quantity="rho",
        threshold=lambda n: math.sqrt(n * n - n + 2),
        # at n = 3, knn1-plus-2e(3) is kpn2-plus-4e(3,4) up to isomorphism
        exceptions=lambda n: (FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n + 1)),)
        + ((FamilyId(FamilyTag.KNN1_PLUS_2E, (n,)),) if n != 3 else ()),
    ),
    "quasi-complement": Condition(
        HAMILTONIAN, BIP_BALANCED, 2, quantity="rho_star",
        threshold=lambda n: math.sqrt((n - 2) / 2), direction="le",
    ),
    "lemma-3.4": Condition(
        HAMILTONIAN, GENERAL, 3, (2, 2), quantity="m",
        threshold=lambda n: (n * n - 4 * n + 6) / 2, direction="gt",
        exceptions=_at(_by_size(NC_GRAPHS, nc_member)),
    ),
    "lemma-3.6": Condition(
        TRACEABLE, GENERAL, 2, (1, 1), quantity="m",
        threshold=lambda n: (n * n - 4 * n + 3) / 2, direction="gt",
        exceptions=_at(_by_size(NP_GRAPHS, np_member)),
    ),
    "tight-q-hamiltonian": Condition(
        HAMILTONIAN, GENERAL, 4, (2, 2), quantity="q",
        threshold=lambda n: 2 * n - 5 + 3 / (n - 1),
        # the published statement omits K2 v (K2 + 2K1) at n = 6, but its
        # own table has q = 7.7588 >= 7.6 = 2n-5+3/(n-1), and the graph is
        # non-Hamiltonian; without this exception the condition is unsound
        # at n = 6 (exhaustively verified)
        exceptions=_at({
            5: (nc_member(8),),   # K2 v 3K1
            6: (nc_member(5),),   # K2 v (K2 + 2K1)
            7: (nc_member(2),),   # K3 v 4K1
        }),
    ),
    "tight-q-traceable": Condition(
        TRACEABLE, GENERAL, 4, (1, 1), quantity="q",
        threshold=lambda n: float(2 * n - 5),
        exceptions=_at({
            4: (np_member(7),),   # K1,3
            5: (np_member(5), FamilyId(FamilyTag.STAR, (5,))),  # K1 v (K2 + 2K1), K1,4
            6: (np_member(2),),   # K2 v 4K1
        }),
    ),
    "yu-fan-hamiltonian": Condition(
        HAMILTONIAN, GENERAL, 3, quantity="q",
        threshold=lambda n: float(2 * n - 4), direction="gt",
        exceptions=lambda n: (FamilyId(FamilyTag.KN1_PLUS_EDGE, (n,)),)
        + ((nc_member(8),) if n == 5 else ()),   # K2 v 3K1
    ),
    "yu-fan-traceable": Condition(
        TRACEABLE, GENERAL, 3, quantity="q",
        threshold=lambda n: float(2 * n - 4),
        exceptions=lambda n: (FamilyId(FamilyTag.KN1_PLUS_VERTEX, (n,)),)
        + ((FamilyId(FamilyTag.STAR, (4,)),) if n == 4 else ()),   # K1,3
    ),
    "yu-connected-traceable": Condition(
        TRACEABLE, GENERAL, 4, connected=True, quantity="q",
        threshold=lambda n: (2 * (n - 2) ** 2 + 4) / (n - 1),
        # the statement is usually quoted without exceptions, but three
        # connected nontraceable graphs meet the bound: K_{1,3} at n=4
        # (q = 4 = threshold), K2 v 4K1 at n=6 (q = 7.4641 >= 7.2) and
        # K3 v 5K1 at n=8 (q = 10.8990 >= 76/7); verified exhaustively
        # for n <= 8: the n = 8 scan passes, and its 56 exception hits are
        # all labeled copies of K3 v 5K1
        exceptions=_at({
            4: (FamilyId(FamilyTag.STAR, (4,)),),
            6: (np_member(2),),
            8: (np_member(0),),
        }),
    ),
    "zhou-complement-hamiltonian": Condition(
        HAMILTONIAN, GENERAL, 3, quantity="q_complement",
        threshold=lambda n: float(n - 1), direction="le", join_class="EC",
    ),
    "zhou-complement-traceable": Condition(
        TRACEABLE, GENERAL, 1, quantity="q_complement",
        threshold=lambda n: float(n), direction="le", join_class="EP",
    ),
}


def _applies(row: Condition, obj, degrees: Optional[list[int]] = None,
             components: Optional[int] = None) -> tuple[object, int, list[int], Optional[Verdict]]:
    """obj oriented as the row reads it, its size n, its degrees (a bipartite
    graph's side X first, then side Y; empty if the size does not fit the
    row), and the NotApplicable verdict of the first precondition that fails
    (None if all hold). A general row reads a bipartite graph as the graph
    ``to_graph`` makes of it, side X first; a bipartite row does not apply
    to a Graph. The degrees are ``degrees``, obj's in that order, when
    given, and are otherwise computed once here, for the preconditions and
    everything the checker reads of them after; a ``connected`` row counts
    obj's components unless ``components`` gives their number."""
    prop, need = row.prop, row.min_n
    if row.kind == GENERAL:
        obj = obj.to_graph()
        n = obj.n
        if n < need:
            return obj, n, [], _na(prop, f"needs n >= {need}", ("n", n))
    elif isinstance(obj, Graph):
        return obj, 0, [], _na(prop, "needs a bipartite graph")
    elif row.kind == BIP_BALANCED:
        if obj.p != obj.q:
            return obj, 0, [], _na(prop, "needs a balanced bipartition", ("p", obj.p), ("q", obj.q))
        n = obj.p
        if n < need:
            return obj, n, [], _na(prop, f"needs side size n >= {need}", ("n", n))
    else:
        if obj.q == obj.p + 1:
            if degrees is not None:
                degrees = degrees[obj.p:] + degrees[:obj.p]
            obj = transpose(obj)
        if obj.p != obj.q + 1:
            return obj, 0, [], _na(prop, "needs sides (n+1, n)", ("p", obj.p), ("q", obj.q))
        n = obj.q
        if n < need:
            return obj, n, [], _na(prop, f"needs smaller side n >= {need}", ("n", n))
    if degrees is None:
        degrees = obj.degrees()
    dx, dy = row.min_degree
    if row.kind == BIP_UNBALANCED:
        has_x, has_y = min(degrees[:obj.p]), min(degrees[obj.p:])
        if has_x < dx or has_y < dy:
            return obj, n, degrees, _na(prop, f"needs delta_X >= {dx} and delta_Y >= {dy}",
                                        ("delta_X", has_x), ("delta_Y", has_y))
    elif dx:
        delta = min(degrees, default=0)
        if delta < dx:
            return obj, n, degrees, _na(prop, f"needs min degree >= {dx}", ("min_degree", delta))
    if row.connected:
        components = len(connected_components(obj)) if components is None else components
        if components > 1:
            return obj, n, degrees, _na(prop, "needs a connected graph", ("components", components))
    return obj, n, degrees, None


# ------------------------------------------------------- the verdict ladder

def decide(row: Condition, obj: Graph | BipartiteGraph,
           estimate: Optional[SpectralEstimate] = None, degrees: Optional[list[int]] = None,
           components: Optional[int] = None) -> Verdict:
    """obj's verdict under a row: NotApplicable if a precondition fails,
    Inconclusive if the hypothesis fails, Boundary at the line of a strict
    threshold, Exception for a listed graph, Boundary at the line of a
    non-strict one, else Guaranteed.

    A degree row's inequality gives Inconclusive with its blocking
    certificate, or Guaranteed with its margin. A numeric row's value is
    judged by ``row.ladder``: an edge count exactly, a spectral radius
    within CMP_TOL; only a met hypothesis runs the exception step.
    ``estimate``, when given, is the radius of the matrix the row names in
    RADII, for obj as the row reads it (a bipartite graph as a graph under
    a general row), and ``hypothesis_radius`` computes it when not;
    ``degrees``, when given, obj's degrees (a bipartite graph's side X
    first), and ``components`` its number of components."""
    obj, n, degrees, failure = _applies(row, obj, degrees, components)
    if failure is not None:
        return failure
    if row.quantity is None:
        blocking, margin = row.inequality(obj, n, degrees)
        if blocking:
            return Verdict(Status.INCONCLUSIVE, row.prop, blocking)
        return Verdict(Status.GUARANTEED, row.prop, (("margin", margin),))
    threshold = row.threshold(n)
    if row.quantity == "m":
        value = sum(degrees) // 2
        cert = (("m", value), ("bound", threshold))
    else:
        value = (estimate or hypothesis_radius(row.quantity, obj)).value
        cert = ((row.quantity, value), ("threshold", threshold))
    cert += (("margin", value - threshold),)
    code, unmet = row.ladder(value, threshold)
    verdict = Verdict(STATUSES[code], row.prop, cert)
    if unmet:
        return verdict
    targets = _exception_targets(row.exceptions, n)
    fid = _match(obj, degrees, targets) if targets else None
    if fid is not None:
        return Verdict(Status.EXCEPTION, row.prop, cert, family=fid)
    if row.join_class:
        witness = ec_ep_membership(obj, row.join_class)
        if witness is not None:
            return Verdict(
                Status.EXCEPTION,
                row.prop,
                cert,
                family=FamilyId(FamilyTag.JOIN_EXPR),
                note=f"{witness.kind}: sides {witness.side_a} | {witness.side_b}",
            )
    return verdict


def slice_ladder(row: Condition, n: int, degrees: np.ndarray, adjacency: np.ndarray,
                 values: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """``decide``'s ladder over a soundness scan's slice of graphs of size
    n >= row.min_n, oriented as the row reads them: ``degrees`` is their
    degree table and ``adjacency`` their adjacency rows, side X first, and
    ``values`` their hypothesis radii, for a spectral row. Every graph must
    meet the row's per-side minimum degrees, as the scan's layout and m/delta
    filter keep them; the one precondition tested here is a ``connected``
    row's. Returns (codes, candidate): per graph, its status as an index
    into STATUSES, and whether it may be an exception, which only ``decide``
    can tell; a candidate's code is the one it gets if it is not.

    A candidate passes the hypothesis, off a strict row's line, and either
    its sorted degrees are a listed exception's, the prefilter ``_match``
    applies, or, for a join-class row, they pass ``join_clauses``. Every
    other graph's code is its status under ``decide``."""
    applicable = connected_rows(adjacency) if row.connected else np.ones(len(degrees), dtype=bool)
    candidate = np.zeros(len(degrees), dtype=bool)
    if row.quantity is None:
        codes = np.where(row.screen(degrees, adjacency), GUARANTEED, INCONCLUSIVE)
    else:
        value = degrees.sum(axis=1) // 2 if row.quantity == "m" else values
        codes, unmet = row.ladder(value, row.threshold(n))
        seqs = {seq for _, _, seq, _, _ in _exception_targets(row.exceptions, n)}
        if seqs or row.join_class:
            open_ = np.flatnonzero(applicable & ~unmet)
            candidate[open_] = _per_sorted_row(
                lambda d: tuple(d) in seqs or row.join_class and join_clauses(row.join_class, d),
                degrees[open_])
    codes[~applicable] = NOT_APPLICABLE
    return codes, candidate


# ------------------------------------------------------ the public entry

def check_theorem(theorem_id: str, obj: Graph | BipartiteGraph,
                  estimate: Optional[SpectralEstimate] = None) -> Verdict:
    """obj's verdict under the theorem with this id, a key of CONDITIONS:
    its row's verdict ladder, ``decide``, handed ``estimate``, the row's
    radius for obj if already computed, else None."""
    row = CONDITIONS.get(theorem_id)
    if row is None:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    return decide(row, obj, estimate)


# ------------------------------------------------------------ recognizers

def _is_complete_mask(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def _two_cliques(degrees: list[int]) -> bool:
    """Whether degrees can be those of two disjoint complete graphs K_a and
    K_b, a <= b: a vertices of degree a - 1 and b of degree b - 1."""
    n = len(degrees)
    a = min(degrees, default=0) + 1
    b = n - a
    if b < a:
        return False
    low = degrees.count(a - 1)
    return low == n if a == b else low == a and degrees.count(b - 1) == b


def _regular_join_witness(g: Graph, degrees: list[int], target_deg: int, r_max: int, kind: str):
    """g = H v F with H regular of degree target_deg - r on n - r vertices.

    Every H-vertex then has full degree target_deg in g, so candidate B
    sides are exactly unions of complement components covering all
    vertices of other degrees. (So at least n - r_max vertices have it,
    which ``join_clauses`` tests before this search runs.)
    """
    odd_mask = 0
    for v in range(g.n):
        if degrees[v] != target_deg:
            odd_mask |= 1 << v
    comps = connected_components(complement(g))
    b_mask = 0
    for comp in comps:
        if comp & odd_mask:
            b_mask |= comp
    if b_mask == 0:
        if len(comps) < 2:
            return None
        comp = min(comps, key=lambda c: c.bit_count())
        b_mask = comp
    if not 1 <= b_mask.bit_count() <= r_max:
        return None
    a_mask = ((1 << g.n) - 1) ^ b_mask
    if a_mask == 0:
        return None
    return JoinWitness(kind, tuple(bits(a_mask)), tuple(bits(b_mask)))


def join_clauses(family: str, degrees: Sequence[int]) -> tuple[str, ...]:
    """The clauses of the EC (Hamiltonian) / EP (traceable) class whose
    degree test ``degrees`` pass, in the order ``ec_ep_membership`` searches
    them: what the degrees alone rule out, before any search of the graph.
    Only the multiset of degrees matters, so the soundness scan runs it once
    per sorted degree row of a slice."""
    n = len(degrees)
    if family == "EC":
        # (a) trivial graph joined with two complete components: the one
        # vertex of degree n - 1 (a second one would join the two)
        hub = n >= 3 and degrees.count(n - 1) == 1 and _two_cliques(
            [d - 1 for d in degrees if d != n - 1])
        # (b) regular of degree (n-1)/2 - r joined with r vertices
        r = (n - 1) // 2
        regular = n >= 3 and (n - 1) % 2 == 0 and degrees.count(r) >= n - r
        return tuple(compress(("trivial-join-two-cliques", "regular-join"), (hub, regular)))
    if family == "EP":
        r = n // 2 - 1
        tests = (n % 2 == 0 and all(d == r for d in degrees),
                 _two_cliques(degrees),
                 n % 2 == 0 and n >= 4 and degrees.count(r) >= n - r)
        return tuple(compress(("regular", "two-complete-components", "regular-join"), tests))
    raise ValueError(f"unknown exception class {family!r}")


def ec_ep_membership(g: Graph, family: str) -> Optional[JoinWitness]:
    """Structured membership in the EC (Hamiltonian) / EP (traceable) classes.
    Only the clauses whose degree test g's degrees pass, ``join_clauses``,
    search g."""
    n, degrees = g.n, g.degrees()
    for clause in join_clauses(family, degrees):
        if clause == "trivial-join-two-cliques":
            u = degrees.index(n - 1)
            rest = [v for v in range(n) if v != u]
            sub = induced_subgraph(g, rest)
            comps = connected_components(sub)
            if len(comps) == 2 and all(_is_complete_mask(sub, c) for c in comps):
                sides = tuple(tuple(rest[i] for i in bits(c)) for c in comps)
                return JoinWitness(clause, (u,), sides[0] + sides[1])
        elif clause == "regular":
            return JoinWitness(clause, tuple(range(n)), ())
        elif clause == "two-complete-components":
            comps = connected_components(g)
            if len(comps) == 2 and all(_is_complete_mask(g, c) for c in comps):
                return JoinWitness(clause, tuple(bits(comps[0])), tuple(bits(comps[1])))
        else:   # regular-join, the last clause of either class
            r = (n - 1) // 2 if family == "EC" else n // 2 - 1
            return _regular_join_witness(g, degrees, r, r, clause)
    return None


def nc_np_membership(g: Graph) -> Optional[FamilyId]:
    """The NC/NP member isomorphic to g, if any: NC and NP are the exception
    lists of Lemmas 3.4 and 3.6."""
    return _first_match(g, CONDITIONS["lemma-3.4"].exceptions(g.n)
                        + CONDITIONS["lemma-3.6"].exceptions(g.n))


def recognize_family(g: Graph | BipartiteGraph, fid: FamilyId) -> bool:
    """True iff g is isomorphic (as a graph) to make_family(fid)."""
    return _first_match(g, (fid,)) is not None


# an exceptional graph as the matchers read it: its family id, its canonical
# graph as a Graph, its degree sequence, whether it is a threshold graph, the one
# graph with that sequence (Chvatal & Hammer, Ann. Discrete Math. 1, 1977), and,
# for a chain graph, the one bipartite graph with its sorted side sequences, side
# X first, those (Mahadev & Peled, Threshold Graphs and Related Topics, 1995)
Target = tuple[FamilyId, Graph, tuple[int, ...], bool, Optional[tuple[tuple[int, ...], ...]]]


def _peels(*sides: Sequence[int]) -> bool:
    """Whether peeling a vertex of degree 0 or adjacent to all it may be, one at a
    time, empties a threshold graph's sorted degree list or a chain graph's two."""
    sides = [list(side) for side in sides]
    while any(sides):
        for side, other in zip(sides, sides[::-1]):
            if side and (side[0] == 0 or side[-1] == len(other) - (side is other)):
                if side.pop(0 if side[0] == 0 else -1):   # adjacent to all of other
                    other[:] = [d - 1 for d in other]
                break
        else:
            return False
    return True


@cache
def _family_graph(fid: FamilyId) -> Optional[Target]:
    """fid's target, built once, its flags by ``_peels``; None when fid has
    no canonical graph."""
    try:
        built = make_family(fid)
    except ValueError:
        return None
    target, seq = built.to_graph(), built.degree_sequence()
    sides = isinstance(built, BipartiteGraph) and (
        tuple(sorted(built.degrees_x())), tuple(sorted(built.degrees_y())))
    return fid, target, seq, _peels(seq), sides if sides and _peels(*sides) else None


def _with_graphs(fids: tuple[FamilyId, ...]) -> tuple[Target, ...]:
    """The fids that have a canonical graph, in order, as targets."""
    return tuple(target for fid in fids if (target := _family_graph(fid)) is not None)


@cache
def _exception_targets(
    exceptions: Callable[[int], tuple[FamilyId, ...]], n: int
) -> tuple[Target, ...]:
    """A row's listed exceptions at size n as targets, keyed by the row's
    ``exceptions`` and n, so each row and size looks them up once."""
    return _with_graphs(exceptions(n))


def _match(
    obj: Graph | BipartiteGraph, degrees: Sequence[int], targets: tuple[Target, ...]
) -> Optional[FamilyId]:
    """The first target isomorphic to obj as a graph, if any; ``degrees`` are obj's,
    side X first. Its degree sequence alone matches a threshold target, and its side
    sequences, in either order, a chain one if obj is bipartite; others are searched."""
    seq = tuple(sorted(degrees))
    g = None
    for fid, target, target_seq, threshold, sides in targets:
        if seq != target_seq:
            continue
        if threshold:
            return fid
        if sides and isinstance(obj, BipartiteGraph):
            x, y = tuple(sorted(degrees[:obj.p])), tuple(sorted(degrees[obj.p:]))
            if sides in ((x, y), (y, x)):
                return fid
        if g is None:
            g = obj.to_graph()
        if is_isomorphic(g, target):
            return fid
    return None


def _first_match(g: Graph | BipartiteGraph, fids: tuple[FamilyId, ...]) -> Optional[FamilyId]:
    """The first of fids whose canonical graph is isomorphic to g as a graph,
    if any."""
    return _match(g, g.degrees(), _with_graphs(fids))
