"""Exact Hamiltonian cycle/path decision with witness extraction.

Held-Karp subset DP over endpoint bitmasks, plus a plain backtracking
solver that shares no logic with the DP and serves as a cross-check.

One recurrence decides both questions: per subset S holding vertex 0,
the endpoints of the paths from 0 spanning S. G has a Hamiltonian path
iff G joined to an apex vertex has a Hamiltonian cycle, so a path is
decided as a cycle with the apex at 0 and G's vertices shifted up by
one, and the apex dropped from the witness. Only subsets holding 0 are
used: 2^(n-1) per graph for a cycle and 2^n for a path.

Two forms of the DP decide the same question. ``is_hamiltonian`` and
``is_traceable`` take one graph and push endpoints forward in Python
ints, in a list indexed by S itself (its even entries unused), once per
new endpoint u of S + u from the union of the rows of S's endpoints;
``analyze`` and ``oracle`` use them, since they see one graph at a time.
On a batch of one they are the faster form at n = 8 and n = 10 (mean ms
per call on 20 G(n, 1/2), scalar vs the batched DP on a batch of one,
cycle / path, best of 20 passes on one core, 5 at n=14: n=8 0.07 vs
0.80 / 0.20 vs 1.3, n=10 0.30 vs 1.4 / 1.0 vs 2.0, n=14 10 vs 3.2 / 25
vs 4.8).
``analyze`` runs the path DP only on graphs the cycle DP
found non-Hamiltonian, since a Hamiltonian cycle less one edge is a
Hamiltonian path; ``oracle`` prints a path witness, so it runs both.
``witness_rows`` is the other form and the oracle's one array entry: it
takes a (B, n) uint32 array of adjacency bitsets, the form a soundness
scan keeps each graph in, and pulls endpoints from each subset's
predecessors with numpy, one popcount layer at a time, for every row at
once. Its tables are keyed by S >> 1 and stored subset-major,
(2^(n-1), B) for a cycle and (2^n, B) for a path, so each predecessor
lookup copies one contiguous row of B entries; the per-vertex numpy
calls this takes are what a batch of one pays for. Soundness scans and
``tightness_search`` hand it the rows of their scan slices. Both forms
walk back from the lowest closing vertex through the lowest adjacent
endpoint, and check every witness: ``check_witnesses`` tests a batch at
once, and ``_check_witness`` is its one-row case.

MAX_DP_N keeps one scalar call within a budget of about 10 s on one core;
the cost grows about 2.1x per vertex. Measured on one core of a 2-vCPU
Xeon VM with Python 3.11, in seconds for the cycle / path DP of
``is_hamiltonian`` / ``is_traceable`` (run past the cap at n=19 and 20):
three G(n, 1/2) at n=16 0.1 / 0.2, n=18 0.4-0.5 / 1.0-1.2, n=19 0.7-0.8
/ 2.0-2.2, n=20 2.0-2.1 / 4.9-5.3; the complete graph, the costliest
table, at n=18 0.5 / 1.2 and n=20 2.3 / 5.4. So n=19 and n=20 would fit
the budget too, but the cap stays at 18: raising it changes what
``analyze`` and ``oracle`` print at those sizes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph, bits, connected_components, connected_rows

MAX_DP_N = 18
MAX_BACKTRACK_N = 12
# bounds on the batched DP's temporaries, in table entries: rows per
# endpoint table, and the gather of one layer piece across those rows
BATCH_TABLE_CELLS = 1 << 20
BATCH_GATHER_CELLS = 1 << 20

CYCLE = "cycle"
PATH = "path"


class HamWitness(NamedTuple):
    kind: str
    order: tuple[int, ...]


def check_witnesses(adj: np.ndarray, orders: np.ndarray, kind: str) -> None:
    """Raise AssertionError unless each row of ``orders`` is a Hamiltonian
    path of the graph in the same row of ``adj``, a (B, n) array of
    adjacency bitsets, and for kind CYCLE one whose ends are adjacent."""
    count, n = adj.shape
    if not count:
        return
    if orders.shape != (count, n) or not (np.sort(orders, axis=1) == np.arange(n)).all():
        raise AssertionError("witness is not a permutation")
    rows = np.arange(count)
    steps = (adj[rows[:, None], orders[:, :-1]] >> orders[:, 1:]) & 1
    if not steps.all():
        r, k = np.argwhere(steps == 0)[0]
        raise AssertionError(f"witness edge ({orders[r, k]},{orders[r, k + 1]}) missing")
    if kind == CYCLE and not ((adj[rows, orders[:, -1]] >> orders[:, 0]) & 1).all():
        raise AssertionError("witness cycle does not close")


def _check_witness(g: Graph, witness: HamWitness) -> None:
    check_witnesses(np.array([g.adj], dtype=np.uint32), np.array([witness.order]), witness.kind)


def is_hamiltonian(g: Graph) -> Optional[HamWitness]:
    """A Hamiltonian cycle if one exists, else None (n <= MAX_DP_N)."""
    if g.n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    if g.n < 3 or g.min_degree() < 2 or len(connected_components(g)) > 1:
        return None
    return _checked(g, CYCLE, _cycle_order(g.adj))


def is_traceable(g: Graph) -> Optional[HamWitness]:
    """A Hamiltonian path if one exists, else None (n <= MAX_DP_N)."""
    if g.n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    if len(connected_components(g)) > 1:
        return None
    # a Hamiltonian path of g is a Hamiltonian cycle, less its apex, of g
    # joined to an apex vertex 0, with g's vertices shifted up by one
    order = _cycle_order(((1 << (g.n + 1)) - 2,) + tuple(row << 1 | 1 for row in g.adj))
    return _checked(g, PATH, order and tuple(v - 1 for v in order[1:]))


def _checked(g: Graph, kind: str, order: Optional[tuple[int, ...]]) -> Optional[HamWitness]:
    if order is None:
        return None
    witness = HamWitness(kind, order)
    _check_witness(g, witness)
    return witness


def _cycle_order(adj: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The vertex order of a Hamiltonian cycle from vertex 0 of the graph
    with adjacency bitsets ``adj``, or None; the walk back from the lowest
    closing vertex takes the lowest adjacent endpoint at each step."""
    full = (1 << len(adj)) - 1
    # dp[mask] = endpoints v of paths 0..v spanning mask (0 in mask)
    dp = [0] * (full + 1)
    dp[1] = 1
    for mask in range(1, full + 1, 2):
        ends = dp[mask]
        if not ends:
            continue
        # bit u of dp[mask | u] needs only *some* endpoint adjacent to u,
        # so push once per new endpoint, from the union of their rows
        reach = 0
        while ends:
            low = ends & -ends
            reach |= adj[low.bit_length() - 1]
            ends ^= low
        reach &= ~mask
        while reach:
            low = reach & -reach
            dp[mask | low] |= low
            reach ^= low
    closers = dp[full] & adj[0]
    if not closers:
        return None
    v = (closers & -closers).bit_length() - 1
    order = [v]
    mask = full
    while mask != 1:
        mask ^= 1 << v
        prevs = dp[mask] & adj[v]
        v = (prevs & -prevs).bit_length() - 1
        order.append(v)
    order.reverse()
    return tuple(order)


def witness_rows(adj: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The batched DP on a (B, n) uint32 array of adjacency bitsets, one
    graph of size n <= MAX_DP_N per row: per row, whether the graph has a
    Hamiltonian cycle (kind CYCLE) or path (PATH), and the witness orders
    of the rows that do, in row order, as one checked (found rows, n) array.
    """
    count, n = adj.shape
    if n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    # the scalar preconditions: connected, and for cycles min degree 2
    eligible = connected_rows(adj)
    if kind == CYCLE:
        eligible &= (np.bitwise_count(adj) >= 2).all(axis=1)
        cycle_adj = adj
    else:
        # paths as cycles through an apex vertex 0, as in is_traceable
        apex = np.full((count, 1), (1 << (n + 1)) - 2, dtype=np.uint32)
        cycle_adj = np.concatenate([apex, adj << 1 | 1], axis=1)
    found = np.zeros(count, dtype=bool)
    orders = np.zeros(cycle_adj.shape, dtype=np.int64)
    members = np.flatnonzero(eligible)
    # rows per chunk: each row's table has 2^(columns - 1) entries
    step = max(1, (2 * BATCH_TABLE_CELLS) >> cycle_adj.shape[1])
    for lo in range(0, len(members), step):
        rows = members[lo:lo + step]
        chunk = cycle_adj[rows]
        dp = _endpoint_tables(chunk)
        ends = dp[:, -1] & chunk[:, 0]
        hit = np.flatnonzero(ends)
        orders[rows[hit]] = _walk_back(dp, chunk, hit, _lowest_bit(ends[hit]))
        found[rows[hit]] = True
    orders = orders[found] if kind == CYCLE else orders[found, 1:] - 1
    check_witnesses(adj[found], orders, kind)
    return found, orders


def _lowest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonzero) entry."""
    return np.bitwise_count((x & -x) - 1).astype(np.int64)


def _walk_back(dp: np.ndarray, adj: np.ndarray, rows: np.ndarray,
               last: np.ndarray) -> np.ndarray:
    """Per table row in ``rows``, the order ``_cycle_order`` gives for a
    cycle closing at ``last``: each step back takes the lowest endpoint
    adjacent to v."""
    n = adj.shape[1]
    order = np.empty((len(rows), n), dtype=np.int64)
    mask = np.full(len(rows), dp.shape[1] - 1, dtype=np.int64)
    v = last
    order[:, -1] = v
    for pos in range(n - 2, -1, -1):
        mask ^= 1 << (v - 1)
        v = _lowest_bit(dp[rows, mask] & adj[rows, v])
        order[:, pos] = v
    return order


def _endpoint_tables(adj: np.ndarray) -> np.ndarray:
    """dp[r, S >> 1], for each subset S that holds vertex 0: the endpoints
    v of the paths of graph r from vertex 0 that span S.

    The table is stored subset-major, one row of B entries per subset, and
    returned as its transposed view. Pull form: bit u of dp[S] is set iff
    dp[S - u] & adj[u] != 0, for each u in S other than 0. Subsets go by
    popcount, so every predecessor lies in the layer before, and each of
    its lookups copies one contiguous row.
    """
    count, n = adj.shape
    dp = np.zeros((1 << (n - 1), count), dtype=np.uint32)
    dp[0] = 1
    subsets = np.arange(1 << (n - 1))
    popcount = np.bitwise_count(subsets)
    columns = adj.T
    piece = max(1, BATCH_GATHER_CELLS // (count * n))
    for k in range(1, n):
        layer = subsets[popcount == k]
        for lo in range(0, len(layer), piece):
            masks = layer[lo:lo + piece]
            ends = np.zeros((len(masks), count), dtype=np.uint32)
            for u in range(1, n):
                bit = 1 << (u - 1)   # vertex u, as a bit of S >> 1
                at = np.flatnonzero(masks & bit)
                pulled = dp[masks[at] ^ bit] & columns[u]
                ends[at] |= np.minimum(pulled, 1) << u
            dp[masks] = ends
    return dp.T


def backtrack_oracle(g: Graph, kind: str) -> bool:
    """Plain DFS decision procedure, independent of the DP (n <= 12)."""
    if kind not in (CYCLE, PATH):
        raise ValueError(f"unknown witness kind {kind!r}")
    if g.n > MAX_BACKTRACK_N:
        raise ValueError(f"backtracking oracle capped at n <= {MAX_BACKTRACK_N}")
    if kind == CYCLE and g.n < 3:
        return False
    if kind == PATH and g.n == 1:
        return True
    full = (1 << g.n) - 1
    adj = g.adj

    def dfs(v: int, visited: int, start: int) -> bool:
        if visited == full:
            return kind == PATH or bool(adj[v] >> start & 1)
        rest = ~visited & full
        # dead vertex: an unvisited vertex with no way in or out
        probe = rest
        for u in bits(probe):
            if not adj[u] & (rest ^ (1 << u) | (1 << v)):
                return False
        for u in bits(adj[v] & rest):
            if dfs(u, visited | (1 << u), start):
                return True
        return False

    if kind == CYCLE:
        return dfs(0, 1, 0)
    return any(dfs(s, 1 << s, s) for s in range(g.n))
