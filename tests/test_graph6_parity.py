"""graph6_decode against the per-bit reference decoder in conftest: the same
rows for every valid record and the same error for every malformed one."""

import pytest

from specconn.graphs import Graph, GraphFormatError, complete_graph, empty_graph, graph6_decode
from conftest import _perbit_graph6_decode, random_graph


def _record(g: Graph, long_form: bool = False) -> str:
    """graph6 of g with a one-byte size header, or with the '~'-prefixed
    three-byte one (needed past n = 62)."""
    bits = [g.adj[r] >> c & 1 for c in range(1, g.n) for r in range(c)]
    bits += [0] * (-len(bits) % 6)
    payload = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    if not long_form:
        return chr(63 + g.n) + payload
    return "~" + "".join(chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)) + payload


def _outcome(decode, record):
    try:
        return decode(record)
    except GraphFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 65))
def test_rows_match_the_per_bit_decoder(rng, n):
    graphs = [empty_graph(n), complete_graph(n)]
    graphs += [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        forms = (True,) if n > 62 else (False, True)
        for long_form in forms:
            record = _record(g, long_form)
            assert graph6_decode(record).adj == _perbit_graph6_decode(record) == g.adj


def test_errors_match_the_per_bit_decoder(rng):
    records = [
        # the malformed cases of test_graph6
        "", "B", "A_?", "A" + chr(20), "A@", "??", "~~????", "~?",
        "~?@A" + "?" * 347,
        # and a few more: bytes past '~', non-ASCII characters, a bad byte
        # after a good prefix, padding and length at the long-form orders
        "A" + chr(127), "A" + chr(233), "A" + chr(0x100), "A\udc80", "C~" + chr(62),
        "   ", ">>graph6<<", "~??", "~???", "~?@" + chr(20), "~?@@" + "?" * 337,
        "~?@?" + "?" * 335, "~?@??", "C~~", "@?",
    ]
    for n in (63, 64):
        good = _record(random_graph(rng, n, 0.5), long_form=True)
        records += [good[:-1], good + "?", good[:10] + " " + good[10:]]
    # n = 63 leaves three padding bits in the last character
    records.append(_record(empty_graph(63), long_form=True)[:-1] + "@")
    for record in records:
        want = _outcome(_perbit_graph6_decode, record)
        assert isinstance(want, str), record
        assert _outcome(graph6_decode, record) == want, record
