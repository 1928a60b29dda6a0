"""graph6 encoding and decoding.

Records follow the de facto standard: an N(n) size prefix, then the
upper-triangle adjacency bits in column-major order, six bits per byte,
each byte offset by 63. Column-major order over the upper triangle is
row-major order over the lower one, so both directions are numpy steps
on the ``np.tri(n, k=-1)`` mask, through the codec pair of ``graphs``: a
record's bits unpack onto it and are mirrored into the 0/1 matrix that
``parse_graph6_with_matrix`` also returns, then ``graphs.pack_rows``
packs each row into an int; a graph's rows, unpacked by
``graphs.bit_matrix``, are read off it. Padding bits after the last edge
bit are ignored on read and written as 0.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from .graphs import Graph, MAX_VERTICES, bit_matrix, pack_rows

HEADER = ">>graph6<<"


# the lower-triangle mask parse and write read bits along, kept per size
# read: n^2 bytes each, 45 MB if every size up to MAX_VERTICES is read
_lower = cache(partial(np.tri, k=-1, dtype=bool))


class Graph6Error(ValueError):
    pass


def _parse_size(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed by the size prefix)."""
    if not data:
        raise Graph6Error("malformed header: empty record")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise Graph6Error("truncated long size prefix")
        n = 0
        for byte in data[2:8]:
            n = n << 6 | (byte - 63)
        return n, 8
    if len(data) < 4:
        raise Graph6Error("truncated size prefix")
    n = 0
    for byte in data[1:4]:
        n = n << 6 | (byte - 63)
    return n, 4


def parse_graph6(text: str | bytes) -> Graph:
    return parse_graph6_with_matrix(text)[0]


def parse_graph6_with_matrix(text: str | bytes) -> tuple[Graph, np.ndarray]:
    """The record's graph and its 0/1 matrix, as ``bit_matrix`` unpacks it."""
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        raise Graph6Error(f"non-ASCII character {char!r} in graph6 record") from None
    if data.startswith(HEADER.encode("ascii")):
        data = data[len(HEADER):]
    data = data.strip()
    codes = np.frombuffer(data, dtype=np.uint8)
    bad = (codes < 63) | (codes > 126)
    if bad.any():
        name = {b"&": "digraph6", b":": "sparse6"}.get(data[:1])   # by their leading byte
        if name:
            raise Graph6Error(f"{name} input is not supported, only graph6")
        raise Graph6Error(f"byte {data[bad.argmax()]} outside graph6's range 63-126")
    n, offset = _parse_size(data)
    if not 0 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    nbits = n * (n - 1) // 2
    body = codes[offset:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"bit field holds {len(body) * 6} bits, expected {nbits} for n={n}"
        )
    bits = np.unpackbits(body - 63).reshape(-1, 8)[:, 2:].ravel()   # six bits a byte
    lower = np.zeros((n, n), dtype=bool)
    lower[_lower(n)] = bits[:nbits]   # lower[j, i] is the bit of edge ij, i < j
    matrix = (lower | lower.T).view(np.uint8)
    return Graph(n, pack_rows(matrix)), matrix


def write_graph6(g: Graph, matrix: np.ndarray | None = None) -> str:
    """g's graph6 record. ``matrix``, when given, is g's 0/1 adjacency
    matrix, ``bit_matrix`` of its rows, which is otherwise unpacked here."""
    if g.n < 63:
        prefix = [g.n + 63]
    elif g.n <= 258047:
        prefix = [126, (g.n >> 12 & 63) + 63, (g.n >> 6 & 63) + 63, (g.n & 63) + 63]
    else:
        prefix = [126, 126] + [(g.n >> (6 * s) & 63) + 63 for s in range(5, -1, -1)]
    nbits = g.n * (g.n - 1) // 2
    bits = np.zeros(-(-nbits // 6) * 6, dtype=np.uint8)
    matrix = bit_matrix(g.adj, g.n) if matrix is None else matrix
    bits[:nbits] = matrix[_lower(g.n)]
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return (bytes(prefix) + body.tobytes()).decode("ascii")
