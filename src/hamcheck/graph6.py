"""graph6 encoding and decoding.

Records follow the de facto standard: an N(n) size prefix, then the
upper-triangle adjacency bits in column-major order, six bits per byte,
each byte offset by 63.
"""

from __future__ import annotations

from .graphs import Graph, MAX_VERTICES

HEADER = ">>graph6<<"


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
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        raise Graph6Error(f"non-ASCII character {char!r} in graph6 record") from None
    if data.startswith(HEADER.encode("ascii")):
        data = data[len(HEADER):]
    data = data.strip()
    for byte in data:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"non-printable byte {byte} in graph6 record")
    n, offset = _parse_size(data)
    if not 0 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    nbits = n * (n - 1) // 2
    body = data[offset:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"bit field holds {len(body) * 6} bits, expected {nbits} for n={n}"
        )
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6] - 63
            if byte >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    if g.n < 63:
        prefix = [g.n + 63]
    elif g.n <= 258047:
        prefix = [126, (g.n >> 12 & 63) + 63, (g.n >> 6 & 63) + 63, (g.n & 63) + 63]
    else:
        prefix = [126, 126] + [(g.n >> (6 * s) & 63) + 63 for s in range(5, -1, -1)]
    out = bytearray(prefix)
    acc = 0
    nacc = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc + 63)
                acc = nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return out.decode("ascii")
