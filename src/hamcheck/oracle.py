"""Exact Hamiltonian cycle/path decision with witness extraction.

Subset DP over endpoint bitmasks, plus a plain backtracking solver that
shares no logic with the DP and serves as a cross-check.

Two forms of the DP decide the same question. ``is_hamiltonian`` and
``is_traceable`` take one graph and push endpoints forward in Python
ints; ``analyze`` and ``oracle`` use them, since they see one graph at a
time, though they beat a batch of one only at n <= 8 (mean ms per call on
G(n, 1/2), scalar vs ``*_batch([g])``, cycle / path: n=8 0.17 vs 0.59 /
0.39 vs 0.55, n=10 0.67 vs 0.39 / 2.2 vs 0.45, n=14 72 vs 3.0 / 172 vs
4.0). ``analyze`` runs the path DP only on graphs the cycle DP found
non-Hamiltonian, since a Hamiltonian cycle less one edge is a Hamiltonian
path; ``oracle`` prints a path witness, so it runs both.
``witness_rows`` is the array core of the other form: it takes a (B, n)
uint32 array of adjacency bitsets and pulls endpoints from each subset's
predecessors with numpy, one popcount layer at a time, for every row at
once. Soundness scans and ``tightness_search`` hand it the rows of their
scan slices; ``is_hamiltonian_batch`` and ``is_traceable_batch`` wrap it
for a list of graphs. Both forms reconstruct and check a witness for
every positive answer, with one check: ``check_witnesses`` tests every
witness of a batch at once, and ``_check_witness`` is its one-row case.

MAX_DP_N keeps one scalar call within a budget of about 10 s on one core.
The DP table has 2^n entries and the cost grows about 2.2x per vertex.
Measured on one core of a 2-vCPU Xeon VM with Python 3.11, in seconds for
``is_hamiltonian`` / ``is_traceable``: G(n, 1/2) at n=16 0.3-0.4 / 0.8-1.1,
n=18 2.0 / 4.6-5.1, n=19 5.2 / 11.2, n=20 13.3 / 30.9; the complete graph,
the costliest table, at n=18 4.2 / 10.8. So n=18 is the cap: at n=19 the
path DP alone passes the budget on a random graph.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph, bits, connected_components

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
    full = (1 << g.n) - 1
    # dp[mask] = endpoints v of paths 0..v spanning mask (0 in mask)
    dp = [0] * (full + 1)
    dp[1] = 1
    adj = g.adj
    for mask in range(1, full + 1, 2):
        ends = dp[mask]
        if not ends:
            continue
        for v in bits(ends):
            for u in bits(adj[v] & ~mask):
                dp[mask | (1 << u)] |= 1 << u
    closers = dp[full] & adj[0]
    if not closers:
        return None
    order = _reconstruct(adj, dp, full, (closers & -closers).bit_length() - 1)
    witness = HamWitness(CYCLE, order)
    _check_witness(g, witness)
    return witness


def is_traceable(g: Graph) -> Optional[HamWitness]:
    """A Hamiltonian path if one exists, else None (n <= MAX_DP_N)."""
    if g.n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    if g.n == 1:
        return HamWitness(PATH, (0,))
    if len(connected_components(g)) > 1:
        return None
    full = (1 << g.n) - 1
    dp = [0] * (full + 1)
    for v in range(g.n):
        dp[1 << v] = 1 << v
    adj = g.adj
    for mask in range(1, full + 1):
        ends = dp[mask]
        if not ends:
            continue
        for v in bits(ends):
            for u in bits(adj[v] & ~mask):
                dp[mask | (1 << u)] |= 1 << u
    if not dp[full]:
        return None
    order = _reconstruct(adj, dp, full, (dp[full] & -dp[full]).bit_length() - 1)
    witness = HamWitness(PATH, order)
    _check_witness(g, witness)
    return witness


def _reconstruct(adj, dp, full, last: int) -> tuple[int, ...]:
    order = [last]
    mask = full
    v = last
    while mask != (1 << v):
        prev_mask = mask ^ (1 << v)
        prevs = dp[prev_mask] & adj[v]
        v = (prevs & -prevs).bit_length() - 1
        mask = prev_mask
        order.append(v)
    order.reverse()
    return tuple(order)


def is_hamiltonian_batch(graphs: Sequence[Graph]) -> list[Optional[HamWitness]]:
    """``is_hamiltonian`` for each graph (any mix of sizes, n <= MAX_DP_N)."""
    return _batch(graphs, CYCLE)


def is_traceable_batch(graphs: Sequence[Graph]) -> list[Optional[HamWitness]]:
    """``is_traceable`` for each graph (any mix of sizes, n <= MAX_DP_N)."""
    return _batch(graphs, PATH)


def _batch(graphs: Sequence[Graph], kind: str) -> list[Optional[HamWitness]]:
    out: list[Optional[HamWitness]] = [None] * len(graphs)
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.n > MAX_DP_N:
            raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
        by_n.setdefault(g.n, []).append(i)
    for members in by_n.values():
        adj = np.array([graphs[i].adj for i in members], dtype=np.uint32)
        found, orders = witness_rows(adj, kind)
        for i, order in zip(np.array(members)[found].tolist(), orders.tolist()):
            out[i] = HamWitness(kind, tuple(order))
    return out


def witness_rows(adj: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The batched DP on a (B, n) uint32 array of adjacency bitsets, one
    graph of size n <= MAX_DP_N per row: per row, whether the graph has a
    Hamiltonian cycle (kind CYCLE) or path (PATH), and the witness orders
    of the rows that do, in row order, as one checked (found rows, n) array.
    """
    count, n = adj.shape
    if n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    cycle = kind == CYCLE
    found = np.zeros(count, dtype=bool)
    orders = np.zeros((count, n), dtype=np.int64)
    if not cycle and n == 1:
        found[:] = True
        return found, orders
    if n < (3 if cycle else 2):
        return found, orders[:0]
    # the scalar preconditions: connected, and for cycles min degree 2
    eligible = _connected(adj)
    if cycle:
        eligible &= (np.bitwise_count(adj) >= 2).all(axis=1)
    members = np.flatnonzero(eligible)
    step = max(1, BATCH_TABLE_CELLS >> n)
    for lo in range(0, len(members), step):
        rows = members[lo:lo + step]
        chunk = adj[rows]
        dp = _endpoint_tables(chunk, cycle)
        ends = dp[:, -1] & chunk[:, 0] if cycle else dp[:, -1]
        hit = np.flatnonzero(ends)
        orders[rows[hit]] = _walk_back(dp[hit], chunk[hit], _lowest_bit(ends[hit]))
        found[rows[hit]] = True
    orders = orders[found]
    check_witnesses(adj[found], orders, kind)
    return found, orders


def _lowest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonzero) entry."""
    return np.bitwise_count((x & -x) - 1).astype(np.int64)


def _walk_back(dp: np.ndarray, adj: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per table row, the order ``_reconstruct`` gives for a path ending at
    ``last``: each step back takes the lowest endpoint adjacent to v."""
    count, n = adj.shape
    rows = np.arange(count)
    order = np.empty((count, n), dtype=np.int64)
    mask = np.full(count, dp.shape[1] - 1, dtype=np.int64)
    v = last
    order[:, -1] = v
    for pos in range(n - 2, -1, -1):
        mask ^= 1 << v
        v = _lowest_bit(dp[rows, mask] & adj[rows, v])
        order[:, pos] = v
    return order


def _connected(adj: np.ndarray) -> np.ndarray:
    """Per row of an (rows, n) adjacency bitset array: is the graph connected?"""
    n = adj.shape[1]
    shifts = np.arange(n, dtype=np.uint32)
    seen = np.ones(len(adj), dtype=np.uint32)
    for _ in range(n - 1):
        inside = ((seen[:, None] >> shifts) & 1) == 1
        seen = seen | np.bitwise_or.reduce(np.where(inside, adj, 0), axis=1)
    return seen == (1 << n) - 1


def _endpoint_tables(adj: np.ndarray, cycle: bool) -> np.ndarray:
    """dp[r, S]: endpoints v of the paths of graph r that span S, for cycles
    only paths that start at vertex 0.

    Pull form: bit u of dp[S] is set iff dp[S - u] & adj[u] != 0. Subsets
    go by popcount; when u is not in S, S ^ {u} lies in a later layer and
    is still zero, so one gather per layer serves every u.
    """
    count, n = adj.shape
    single = 1 << np.arange(n)
    dp = np.zeros((count, 1 << n), dtype=np.uint32)
    if cycle:
        dp[:, 1] = 1
    else:
        dp[:, single] = single.astype(np.uint32)
    subsets = np.arange(1 << n)
    popcount = np.bitwise_count(subsets)
    weights = single.astype(np.uint32)
    piece = max(1, BATCH_GATHER_CELLS // (count * n))
    for k in range(2, n + 1):
        layer = subsets[(popcount == k) & (((subsets & 1) == 1) | (not cycle))]
        for lo in range(0, len(layer), piece):
            masks = layer[lo:lo + piece]
            pred = dp[:, masks[:, None] ^ single]
            dp[:, masks] = ((pred & adj[:, None, :]) != 0) @ weights
    return dp


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
