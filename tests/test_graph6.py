import networkx as nx
import pytest

from specconn.census import connected_census
from specconn.graphs import (
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
    with pytest.raises(GraphFormatError):
        graph6_decode("")
    with pytest.raises(GraphFormatError):
        graph6_decode("B")  # missing payload
    with pytest.raises(GraphFormatError):
        graph6_decode("A_?")  # trailing junk
    with pytest.raises(GraphFormatError):
        graph6_decode("A" + chr(20))  # non-printable payload byte
    with pytest.raises(GraphFormatError):
        graph6_decode("A@")  # K_1 padding bits set (n=2 uses only bit 1)
    with pytest.raises(GraphFormatError):
        graph6_decode("??")  # zero vertices
    with pytest.raises(GraphFormatError):
        graph6_decode("~~????")  # 8-byte header: over the 64-vertex cap
    with pytest.raises(GraphFormatError):
        graph6_decode("~?")  # truncated long header


def test_decode_rejects_orders_above_cap():
    # long-form header for n = 65
    with pytest.raises(GraphFormatError):
        graph6_decode("~?@A" + "?" * 347)


def test_encode_caps_at_62():
    with pytest.raises(ValueError):
        graph6_encode(empty_graph(63))
    # 62 is fine
    assert graph6_decode(graph6_encode(empty_graph(62))).n == 62


def test_padding_is_zero():
    # K_3: 3 bits of data, 3 bits of padding; flipping padding must error
    record = graph6_encode(complete_graph(3))
    tampered = record[:-1] + chr(((ord(record[-1]) - 63) | 1) + 63)
    with pytest.raises(GraphFormatError):
        graph6_decode(tampered)


def test_various_shapes_round_trip():
    for g in [path_graph(7), complete_bipartite(3, 4), complete_graph(9)]:
        assert graph6_decode(graph6_encode(g)) == g
