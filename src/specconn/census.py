"""Graph sources: built-in connected census and graph6 file ingestion.

The built-in generator works level by level: every connected graph on n
vertices arises from a connected graph on n-1 vertices (delete a non-cut
vertex) by wiring a new vertex to a nonempty subset, so extending each census
member by all nonempty subsets and deduplicating on canonical form yields
exactly one representative per isomorphism class. Counts are pinned against
the published census in tests.

Subsets in one orbit of the parent's automorphism group give isomorphic
children, so only the least subset of each orbit is tried. Subsets are
walked in ascending order, so that is the subset which would have been kept
anyway: the census members and their order do not depend on the pruning.
The group comes from the generators the parent's canonical search
(`graphs._canonical_adj`) finds.
"""

import os
from typing import Iterable, Iterator, TextIO

from .graphs import (
    Graph,
    GraphFormatError,
    _canonical_adj,
    _trusted,
    canonical_form,
    empty_graph,
    graph6_decode,
)

# connected graphs per order (dedup oracle for small n, frozen census above)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

GENERATOR_CAP = 8

_census_cache: dict[int, list[Graph]] = {}


def connected_census(n: int) -> list[Graph]:
    """All connected graphs of order n up to isomorphism (cached, n <= 8)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > GENERATOR_CAP:
        raise ValueError(
            f"built-in generation is capped at n = {GENERATOR_CAP}; "
            "ingest a graph6 file for larger orders"
        )
    if n in _census_cache:
        return _census_cache[n]
    if n == 1:
        level = [empty_graph(1)]
    else:
        level = []
        seen: set[str] = set()
        new_bit = 1 << (n - 1)
        for parent in connected_census(n - 1):
            generators: list[tuple[int, ...]] = []
            _canonical_adj(parent, generators)
            for smask in _orbit_minima(generators, n - 1):
                rows = [
                    row | new_bit if smask >> v & 1 else row
                    for v, row in enumerate(parent.adj)
                ]
                rows.append(smask)
                child = _trusted(n, tuple(rows))
                key = canonical_form(child)
                if key not in seen:
                    seen.add(key)
                    level.append(child)
    _census_cache[n] = level
    return level


def _orbit_minima(generators: list[tuple[int, ...]], m: int) -> list[int]:
    """Least subset of each orbit of nonempty subsets of range(m), ascending,
    under the permutation group the generators span."""
    size = 1 << m
    images = []
    for perm in generators:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    minima = []
    for smask in range(1, size):
        if seen[smask]:
            continue
        minima.append(smask)
        seen[smask] = 1
        stack = [smask]
        while stack:
            mask = stack.pop()
            for image in images:
                other = image[mask]
                if not seen[other]:
                    seen[other] = 1
                    stack.append(other)
    return minima


def ingest_graph6(
    source: str | os.PathLike | TextIO | Iterable[str],
    errors: list[tuple[int, str]] | None = None,
) -> Iterator[Graph]:
    """Decode a graph6 file (or line iterable), one record per line.

    Bad lines are skipped, recorded as (line_number, message) in `errors`
    when a list is passed; they never abort the stream.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            yield from ingest_graph6(handle, errors)
        return
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield graph6_decode(line)
        except GraphFormatError as exc:
            if errors is not None:
                errors.append((lineno, str(exc)))
