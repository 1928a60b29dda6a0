import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from hamcheck.graph6 import Graph6Error, parse_graph6, write_graph6
from hamcheck.graphs import MAX_VERTICES, Graph, bit_matrix, complete, cycle, from_edges, star


def test_known_strings():
    g = parse_graph6("D?{")  # 5-vertex star centered at vertex 4
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)


def test_header_accepted():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2


def test_malformed_inputs():
    for bad in ("", "A", "A_garbage", "\x1f", "~~~"):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)


def test_round_trip_families():
    for g in (complete(6), cycle(9), star(7), from_edges(1, []), from_edges(0, [])):
        assert parse_graph6(write_graph6(g)) == g


def test_networkx_cross_check():
    # independent decoder: our encoding must parse identically in networkx
    for g in (complete(5), cycle(7), star(6)):
        s = write_graph6(g)
        h = nx.from_graph6_bytes(s.encode())
        assert h.number_of_nodes() == g.n
        assert sorted(h.edges()) == sorted(g.edges())


@given(st.integers(0, 12), st.integers(0, 10 ** 6))
def test_round_trip_random_and_networkx(n, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    g = from_edges(n, edges)
    s = write_graph6(g)
    assert parse_graph6(s) == g
    h = nx.from_graph6_bytes(s.encode())
    assert sorted(h.edges()) == sorted(g.edges())


def test_large_n_size_prefix():
    g = from_edges(70, [(0, 69)])
    s = write_graph6(g)
    assert s[0] == chr(126)
    back = parse_graph6(s)
    assert back.n == 70 and back.has_edge(0, 69)


@pytest.mark.parametrize("stray", [1 << 2, 1 << 5, 1 << 9, 1 << 70])
def test_write_refuses_rows_with_bits_at_or_above_n(stray):
    # a stray bit past the row's byte used to raise OverflowError
    with pytest.raises(ValueError, match="row 0 .* at or above n = 2"):
        write_graph6(Graph(2, (2 | stray, 1)))


@pytest.mark.parametrize("n", [64, 65])
def test_rows_up_to_bit_n_minus_one_round_trip(n):
    # vertex 0's row of K_n sets bit n - 1, the last of a whole byte at n = 64
    # and the first of a new one at n = 65
    g = complete(n)
    assert parse_graph6(write_graph6(g)) == g


# ------------------------------------------- the per-bit loop codec as reference

def _reference_parse_size(data):
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


def _reference_parse(text):
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        raise Graph6Error(f"non-ASCII character {char!r} in graph6 record") from None
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    data = data.strip()
    for byte in data:
        if not 63 <= byte <= 126:
            if data[0] in b"&:":
                name = {38: "digraph6", 58: "sparse6"}[data[0]]
                raise Graph6Error(f"{name} input is not supported, only graph6")
            raise Graph6Error(f"byte {byte} outside graph6's range 63-126")
    n, offset = _reference_parse_size(data)
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


def _reference_write(g):
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


def _outcome(parse, data):
    try:
        return parse(data)
    except Graph6Error as exc:
        return str(exc)


def _random_graph(n, density, seed):
    rng = random.Random(seed)
    return from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < density])


@pytest.mark.parametrize("density", [0, 0.3, 1])
def test_codec_matches_the_loop_codec(density):
    for n in [*range(71), 127, 128, 255, 256, 511, 512]:
        g = _random_graph(n, density, seed=n)
        line = write_graph6(g)
        assert line == _reference_write(g), n
        assert _reference_parse(line) == g
        for record in (line, line.encode("ascii"), f">>graph6<<{line}\n", b" " + line.encode()):
            assert parse_graph6(record) == g, (n, record[:12])


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 130])
@pytest.mark.parametrize("density", [0, 0.4, 1])
def test_a_given_matrix_writes_what_the_rows_write(n, density):
    # analyze hands write_graph6 the record's 0/1 matrix; across the size
    # prefixes' edges (62 | 63) and multi-word rows (130) it must write
    # what unpacking the rows writes
    for seed in range(3):
        g = _random_graph(n, density, seed)
        assert write_graph6(g, bit_matrix(g.adj, n)) == write_graph6(g)


def test_padding_bits_are_ignored_on_read():
    for n in range(2, 40):
        line = write_graph6(_random_graph(n, 0.5, seed=n))
        spare = -(n * (n - 1) // 2) % 6
        if not spare:
            continue
        padded = line[:-1] + chr((ord(line[-1]) - 63 | (1 << spare) - 1) + 63)
        assert padded != line
        assert parse_graph6(padded) == _reference_parse(padded) == parse_graph6(line)


def _mutate(data, edits):
    data = bytearray(data)
    for position, value in edits:
        if data:
            data[position % len(data)] = value
    return bytes(data)


_records = st.builds(
    lambda n, density, seed: write_graph6(_random_graph(n, density, seed)).encode(),
    st.integers(0, 70), st.sampled_from([0, 0.3, 1]), st.integers(0, 10 ** 6),
)
_fuzz = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=20),
    st.builds(bytes.__add__, st.sampled_from([b"", b"~", b"~~"]),
              st.lists(st.integers(63, 126), max_size=12).map(bytes)),
    st.builds(_mutate, _records, st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 255)),
                                          max_size=3)),
    st.builds(lambda record, cut: record[:cut], _records, st.integers(0, 60)),
    st.builds(lambda record, extra: record + extra, _records, st.binary(max_size=3)),
)


@given(_fuzz)
def test_parser_matches_the_loop_parser_on_any_input(data):
    assert _outcome(parse_graph6, data) == _outcome(_reference_parse, data)
