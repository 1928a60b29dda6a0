"""Bitset-backed simple graphs and bipartite graphs.

Adjacency is stored as one Python int per vertex (bit j of ``adj[i]`` set
iff ij is an edge), which keeps complement/join/enumeration loops cheap
and makes every value immutable and hashable.

Rows and 0/1 matrices convert through one codec pair: ``bit_matrix``
unpacks rows into a matrix, column j for bit j, and ``pack_rows`` packs
a matrix's rows back into ints. A step that moves vertices (transposing,
relabelling, taking an induced subgraph) is one numpy indexing step
between the two.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MAX_VERTICES = 512


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_matrix(rows: Sequence[int], n: int) -> np.ndarray:
    """Each row's n bits as a (len(rows), n) uint8 array of 0s and 1s, bit j
    of a row in column j. A row with a bit at or above n is a ValueError."""
    for index, row in enumerate(rows):
        if row >> n:
            raise ValueError(f"row {index} ({row:#x}) has a bit at or above n = {n}")
    width = -(-n // 8)   # bytes per row, so no n overflows a fixed-width integer
    raw = b"".join(map(int.to_bytes, rows, repeat(width), repeat("little")))
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """The inverse of ``bit_matrix``: each row of a 2-D 0/1 or bool matrix
    as an int, column j at bit j, at any width. Rows are packed into 64-bit
    words, joined one word column at a time."""
    count, n = matrix.shape
    words = np.zeros((count, -(-n // 64)), dtype="<u8")
    words.view(np.uint8)[:, :-(-n // 8)] = np.packbits(matrix, axis=1, bitorder="little")
    rows = words[:, 0].tolist() if n else [0] * count
    for k in range(1, words.shape[1]):
        rows = [row | word << 64 * k for row, word in zip(rows, words[:, k].tolist())]
    return tuple(rows)


class Graph(NamedTuple):
    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def degree_sequence(self) -> tuple[int, ...]:
        """Vertex degrees sorted nondecreasing."""
        return tuple(sorted(self.degrees()))

    def min_degree(self) -> int:
        """Smallest vertex degree; 0 for the graph on no vertices."""
        return min(self.degrees(), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def to_graph(self) -> "Graph":
        """The graph itself, as ``BipartiteGraph.to_graph`` views one."""
        return self


class BipartiteGraph(NamedTuple):
    p: int
    q: int
    rows: tuple[int, ...]  # p rows of q-bit cross-adjacency

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def degrees_x(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def degrees_y(self) -> list[int]:
        return bit_matrix(self.rows, self.q).sum(axis=0).tolist()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees_x() + self.degrees_y()))

    def min_degree(self) -> int:
        """Smallest vertex degree; 0 for the graph on no vertices."""
        return min(self.degrees_x() + self.degrees_y(), default=0)

    def to_graph(self) -> "Graph":
        """View as a Graph on p+q vertices, side X first."""
        y_rows = pack_rows(bit_matrix(self.rows, self.q).T)
        return Graph(self.p + self.q, tuple(row << self.p for row in self.rows) + y_rows)


def _check_n(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are errors."""
    _check_n(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    _check_n(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    _check_n(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    _check_n(n)
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> Graph:
    """K_{1,n-1} with the hub at the highest index."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    _check_n(n)
    return from_edges(n, [(v, n - 1) for v in range(n - 1)])


def check_sides(p: int, q: int) -> None:
    """Raise ValueError unless sides of p and q vertices make a graph within
    the vertex cap; constructors call it before building any row."""
    for count in (p, q, p + q):
        _check_n(count)


def complete_bipartite(p: int, q: int) -> BipartiteGraph:
    check_sides(p, q)
    full = (1 << q) - 1
    return BipartiteGraph(p, q, (full,) * p)


def bipartite_from_edges(p: int, q: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    check_sides(p, q)
    rows = [0] * p
    for x, y in edges:
        if not (0 <= x < p and 0 <= y < q):
            raise ValueError(f"cross edge ({x},{y}) out of range for ({p},{q})")
        rows[x] |= 1 << y
    return BipartiteGraph(p, q, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((row ^ full) & ~(1 << v) for v, row in enumerate(g.adj)))


def quasi_complement(b: BipartiteGraph) -> BipartiteGraph:
    """Flip exactly the cross edges, keeping the bipartition."""
    full = (1 << b.q) - 1
    return BipartiteGraph(b.p, b.q, tuple(row ^ full for row in b.rows))


def transpose(b: BipartiteGraph) -> BipartiteGraph:
    """The same bipartite graph with sides X and Y swapped."""
    return BipartiteGraph(b.q, b.p, pack_rows(bit_matrix(b.rows, b.q).T))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    _check_n(g.n + h.n)
    return Graph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    _check_n(g.n + h.n)
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [row | h_mask for row in g.adj]
    adj += [(row << g.n) | g_mask for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    old = np.argsort(perm)   # new vertex i is old vertex old[i]
    return Graph(g.n, pack_rows(bit_matrix(g.adj, g.n)[np.ix_(old, old)]))


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """The subgraph on ``vertices``, vertices[i] becoming vertex i."""
    return Graph(len(vertices), pack_rows(bit_matrix(g.adj, g.n)[np.ix_(vertices, vertices)]))


def component_mask(g: Graph, start: int, allowed: int | None = None) -> int:
    if allowed is None:
        allowed = (1 << g.n) - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        grown = 0
        for v in bits(frontier):
            grown |= g.adj[v]
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components."""
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = component_mask(g, start, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return component_mask(g, 0) == (1 << g.n) - 1


def connected_rows(adj: np.ndarray) -> np.ndarray:
    """Per row of an (rows, n) uint32 array of adjacency bitsets, one graph
    per row: is the graph connected? Grows each row's component of vertex 0
    one neighbourhood at a time."""
    n = adj.shape[1]
    shifts = np.arange(n, dtype=np.uint32)
    seen = np.ones(len(adj), dtype=np.uint32)
    for _ in range(n - 1):
        inside = ((seen[:, None] >> shifts) & 1) == 1
        seen = seen | np.bitwise_or.reduce(np.where(inside, adj, 0), axis=1)
    return seen == (1 << n) - 1


def unpack_rows(adj: np.ndarray) -> np.ndarray:
    """Each graph of an (rows, n) uint32 array of adjacency bitsets, one
    graph per row, as its (n, n) 0/1 adjacency matrix, bit j of vertex i's
    bitset at [i, j]: a (rows, n, n) uint8 array."""
    count, n = adj.shape
    packed = np.ascontiguousarray(adj, dtype="<u4").view(np.uint8).reshape(count, n, 4)
    return np.unpackbits(packed, axis=2, count=n, bitorder="little")


def two_coloring(g: Graph) -> int | None:
    """A proper 2-coloring as a mask of one color class, or None.

    Per component, the vertex of lowest index goes into the returned side.
    A breadth-first search from it over the rows colours each level by its
    parity: every edge joins two vertices of one level or of adjacent
    levels, and one inside a level closes an odd cycle.
    """
    left = 0
    remaining = (1 << g.n) - 1
    while remaining:
        seen = frontier = remaining & -remaining
        even = True
        while frontier:
            if even:
                left |= frontier
            reach = 0
            for v in bits(frontier):
                reach |= g.adj[v]
            if reach & frontier:
                return None
            frontier = reach & ~seen
            seen |= frontier
            even = not even
        remaining &= ~seen
    return left


def bipartite_from_graph(g: Graph, left_mask: int) -> BipartiteGraph:
    """Split a graph along an explicit bipartition; intra-side edges are errors."""
    left = list(bits(left_mask))
    right = [v for v in range(g.n) if not left_mask >> v & 1]
    right_index = {v: j for j, v in enumerate(right)}
    rows = [0] * len(left)
    for i, v in enumerate(left):
        for w in bits(g.adj[v]):
            if left_mask >> w & 1:
                raise ValueError(f"edge ({v},{w}) lies inside side X")
            rows[i] |= 1 << right_index[w]
    return BipartiteGraph(len(left), len(right), tuple(rows))


def bipartite_view(g: Graph, a: np.ndarray) -> tuple[np.ndarray, BipartiteGraph] | None:
    """(order, b) for a connected bipartite g on n >= 2 vertices: b is the
    BipartiteGraph ``bipartite_from_graph`` makes of g and its
    ``two_coloring``, transposed when side X is the smaller, so side X is
    the larger side, vertex 0's when the sides are equal, each side in
    vertex order; ``order`` is the vertex order that puts side X first.
    None when g has fewer than 2 vertices, is disconnected or has an odd
    cycle. ``a`` is g's 0/1 adjacency matrix, ``bit_matrix`` of its rows,
    from which b's rows are taken."""
    if g.n < 2 or not is_connected(g):
        return None
    left = two_coloring(g)
    if left is None:
        return None
    in_left = bit_matrix([left], g.n)[0].astype(bool)
    x, y = np.flatnonzero(in_left), np.flatnonzero(~in_left)
    if len(x) < len(y):
        x, y = y, x
    return np.concatenate([x, y]), BipartiteGraph(len(x), len(y), pack_rows(a[np.ix_(x, y)]))


def is_complete_bipartite_plus_isolated(g: Graph) -> bool:
    """True iff g is K_{p,q} together with any number of isolated vertices."""
    support = [v for v in range(g.n) if g.adj[v]]
    if not support:
        return False
    core = induced_subgraph(g, support)
    left_mask = two_coloring(core)
    if left_mask is None:
        return False
    right_mask = ((1 << core.n) - 1) ^ left_mask
    for v in bits(left_mask):
        if core.adj[v] != right_mask:
            return False
    return True
