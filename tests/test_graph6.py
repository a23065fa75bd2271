import networkx as nx
import pytest

from specconn.census import connected_census
from specconn.graphs import (
    Graph,
    GraphFormatError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from conftest import random_graph


def test_k2_is_A_underscore():
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_decode("A_") == complete_graph(2)


def test_empty_five_vertex_graph():
    assert graph6_encode(empty_graph(5)) == "D??"
    assert graph6_decode("D??") == empty_graph(5)


def test_c5_round_trip():
    c5 = cycle_graph(5)
    assert graph6_decode(graph6_encode(c5)) == c5


@pytest.mark.parametrize("n", range(1, 8))
def test_round_trip_connected_census(n):
    for g in connected_census(n):
        assert graph6_decode(graph6_encode(g)) == g


def test_codec_against_networkx(rng):
    # independent oracle: networkx's graph6 implementation
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        record = graph6_encode(g)
        h = nx.from_graph6_bytes(record.encode())
        assert {(min(e), max(e)) for e in h.edges()} == set(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert graph6_decode(theirs) == g


def test_optional_header_prefix_accepted():
    assert graph6_decode(">>graph6<<A_") == complete_graph(2)


def test_multibyte_size_header_decodes():
    record = "~??~" + "?" * 326  # empty graph on 63 vertices, long-form header
    g = graph6_decode(record)
    assert g.n == 63 and g.edge_count() == 0


def test_decode_rejects_malformed_input():
    for record, message in [
        ("", "empty graph6 record"),
        ("B", "graph6 payload length 0 != 1 for order 3"),  # missing payload
        ("A_?", "graph6 payload length 2 != 1 for order 2"),  # trailing junk
        ("A" + chr(20), "non-printable graph6 byte 20"),
        ("A@", "nonzero padding bits in final graph6 group"),  # n=2 uses only bit 1
        ("??", "graph6 record encodes an empty vertex set"),
        ("~~????", "8-byte graph6 size header exceeds the n <= 64 cap"),
        ("~?", "truncated multi-byte graph6 size header"),
    ]:
        with pytest.raises(GraphFormatError) as exc:
            graph6_decode(record)
        assert str(exc.value) == message


def test_decode_rejects_orders_above_cap():
    # long-form header for n = 66
    with pytest.raises(GraphFormatError, match="^graph6 order 66 exceeds the 64-vertex cap$"):
        graph6_decode("~?@A" + "?" * 347)


def test_decode_of_every_small_payload_is_a_valid_graph():
    # every zero-padded payload for n <= 6: the decoder builds rows without
    # validation, so each must still pass Graph's checks and round-trip
    for n in range(1, 7):
        nbits = n * (n - 1) // 2
        groups = (nbits + 5) // 6
        pad = 6 * groups - nbits
        for bits in range(1 << nbits):
            word = bits << pad
            record = chr(n + 63) + "".join(
                chr((word >> 6 * (groups - 1 - i) & 63) + 63) for i in range(groups)
            )
            g = graph6_decode(record)
            assert Graph(n, g.adj) == g
            assert graph6_encode(g) == record


def test_encode_uses_the_long_size_header_past_62(rng):
    # one size byte up to n = 62, then '~' and three bytes, as networkx
    # writes it; every order round-trips through graph6_decode
    assert graph6_encode(empty_graph(62)) == chr(62 + 63) + "?" * 316
    assert graph6_encode(empty_graph(63)) == "~??~" + "?" * 326
    assert graph6_encode(complete_graph(64))[:4] == "~?@?"
    for n in range(1, 65):
        g = random_graph(rng, n, rng.random())
        record = graph6_encode(g)
        assert graph6_decode(record) == g, n
        h = nx.from_graph6_bytes(record.encode())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == record, n


def test_padding_is_zero():
    # K_3: 3 bits of data, 3 bits of padding; flipping padding must error
    record = graph6_encode(complete_graph(3))
    tampered = record[:-1] + chr(((ord(record[-1]) - 63) | 1) + 63)
    with pytest.raises(GraphFormatError):
        graph6_decode(tampered)


def test_various_shapes_round_trip():
    for g in [path_graph(7), complete_bipartite(3, 4), complete_graph(9)]:
        assert graph6_decode(graph6_encode(g)) == g
