"""Exhaustive conditional-connectivity computation with cut certificates.

Residual-degree semantics (the one choice with real behavioral impact): a
good-neighbor condition of threshold g requires every vertex that survives
the deletion to keep at least g neighbors *inside the deleted graph*, not in
the original graph. All searches here use that reading.

The four cut modes, and the two bits of their codes that both kernels
read, are stated once, in the CutMode docstring.

The returned certificate is the lexicographically least minimum cut: the
least valid set of the smallest size, comparing sets as sorted vertex
tuples. The two kernel backends find it differently. The C kernel tests
candidate sets by increasing size and lexicographically within a size and
stops at the first valid one. The pure-Python kernel decides all 2^n
survivor sets at once, one bit each of 2^n-bit integers, and takes the
lowest set bit of the valid sets of the smallest size, which encodes the
same cut (see specconn._kernels_py). Either way the search is exhaustive
and capped at kernels.SEARCH_MAX_N vertices. Complete graphs have no valid
cut in NEIGHBOR/FULL mode; that is reported as None rather than an invented
value.

min_cut_values gives only the sizes, for a sequence of graphs of one order.
It makes one batched kernel call, in which the pure kernel decides 2^15 >> n
graphs per set of truth tables, and builds no certificates. The verify scan
uses it, since a class needs only k.

Both searches refuse a disconnected graph, and both check with the same
code on either backend: min_cut_values floods from vertex 0 of all its
graphs at once, with row v of every graph packed into one int, a block of
bits per graph, as in the pure kernel's batches (_require_connected); min_cut
is the flood of one graph. The error names the first disconnected graph in
input order, by its graph6, which only the error path looks for.
"""

import struct
import sys
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from typing import NamedTuple, Sequence

from . import kernels
from .graphs import Graph, graph6_encode


class CutMode(IntEnum):
    """Which deleted sets F count as cuts. Of a graph on n vertices:

      CLASSIC    smallest F leaving a disconnected graph or a single vertex
      COMPONENT  smallest F leaving >= r components or fewer than r vertices
      NEIGHBOR   smallest nonempty F disconnecting with residual degrees >= g
      FULL       NEIGHBOR strengthened to >= r components

    The code is two bits, and the kernels' cut searches read nothing else.
    Every mode asks F to leave >= r components, and:

    - bit 0 (COMPONENT, FULL) means r counts. Clear, r is 2.
    - bit 1 (NEIGHBOR, FULL) means every survivor keeps >= g neighbours in
      G - F and F is nonempty and proper. Each of the >= r components then
      has >= g + 1 vertices, so no cut exceeds n - r(g+1), and the sizes
      stop there. Clear, g is 0, the sizes run from 0 to n, and leaving
      fewer than r survivors is also a cut.

    So NEIGHBOR is FULL at r = 2, and a search treats CLASSIC as COMPONENT
    at r = 2. Those two differ only at F = V, which no search reaches: for
    n >= 2 every set of n - 1 vertices leaves one survivor and is a cut in
    both, and for n = 1 the empty set is. The reference predicate
    kernels.cut_valid keeps the four definitions, F = V included.
    """

    CLASSIC = 0
    COMPONENT = 1
    NEIGHBOR = 2
    FULL = 3


@dataclass(frozen=True)
class CutQuery:
    g: int = 0
    r: int = 2
    mode: CutMode = CutMode.FULL

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("good-neighbor threshold g must be >= 0")
        if self.r < 2:
            raise ValueError("component threshold r must be >= 2")


@dataclass(frozen=True)
class CutCertificate:
    """Witness for a valid cut: the set, the shattering, residual degrees."""

    cut: int  # vertex bitmask
    component_sizes: tuple[int, ...]  # descending
    min_residual_degree: int

    @property
    def size(self) -> int:
        return self.cut.bit_count()


class MinCut(NamedTuple):
    value: int
    certificate: CutCertificate


def _certificate(g: Graph, fmask: int) -> CutCertificate:
    comps = kernels.components_masks(g.adj, g.n, fmask)
    sizes = tuple(sorted((c.bit_count() for c in comps), reverse=True))
    surv = g.vertex_mask & ~fmask
    min_res = min(
        ((g.adj[v] & surv).bit_count() for v in range(g.n) if surv >> v & 1),
        default=0,
    )
    return CutCertificate(fmask, sizes, min_res)


def is_valid_cut(g: Graph, fmask: int, query: CutQuery) -> CutCertificate | None:
    """Certificate if deleting fmask is a cut of the query's mode (CutMode),
    else None."""
    fmask &= g.vertex_mask
    if kernels.cut_valid(g.adj, g.n, fmask, query.g, query.r, int(query.mode)):
        return _certificate(g, fmask)
    return None


def min_cut(g: Graph, query: CutQuery) -> MinCut | None:
    """Minimum-size valid cut with its certificate; None if no set qualifies.

    Exhaustive search; the certificate is the lexicographically least
    minimizer. The kernel raises ValueError past kernels.SEARCH_MAX_N.
    """
    _require_connected((g.adj,), g.n)
    fmask = kernels.min_cut_search(g.adj, g.n, query.g, query.r, int(query.mode))
    if fmask < 0:
        return None
    return MinCut(fmask.bit_count(), _certificate(g, fmask))


def min_cut_values(graphs: Sequence[Graph], query: CutQuery) -> list[int | None]:
    """[min_cut(g, query).value for g in graphs], None where min_cut is None.

    One batched kernel call for graphs of one order, and no certificates:
    the pure kernel decides a whole batch in one set of truth tables.
    """
    if not graphs:
        return []
    n = graphs[0].n
    adjs = [g.adj for g in graphs]
    for i, g in enumerate(graphs):
        if g.n != n:
            # the first bad graph names the error
            _require_connected(adjs[:i], n)
            raise ValueError(f"one batch holds graphs of orders {n} and {g.n}")
    _require_connected(adjs, n)
    fmasks = kernels.min_cut_search_many(adjs, n, query.g, query.r, int(query.mode))
    return [None if fmask < 0 else fmask.bit_count() for fmask in fmasks]


def _require_connected(adjs: Sequence[tuple[int, ...]], n: int) -> None:
    """Raise unless every adjacency, each of order n, is connected; the
    error names the first disconnected one by its graph6.

    One flood from vertex 0 of all of them at once. Graph i owns a block of
    w bits of one int, w the least of 8, 16, 32 and 64 that holds a row,
    and rows[v] holds row v of every graph, each in its own block.
    """
    size = (n > 8) + (n > 16) + (n > 32)
    code, w = "BHIQ"[size], 8 << size
    # one w-bit item per row, in native byte order, so that item i reads
    # back as block i (or block len - 1 - i, on a big-endian host) of
    # every rows[v] alike
    packed = memoryview(
        struct.pack(f"={len(adjs) * n}{code}", *chain.from_iterable(adjs))
    ).cast(code)
    rows = [int.from_bytes(packed[v::n], sys.byteorder) for v in range(n)]
    ones = ((1 << w * len(adjs)) - 1) // ((1 << w) - 1)
    reach = ones
    seen = 0
    while reach != seen:
        seen = reach
        for v, row in enumerate(rows):
            has = reach >> v & ones
            # row v, in the blocks that reach v
            reach |= row & (has << w) - has
    if reach != ones * ((1 << n) - 1):
        # the error path only: name the first disconnected graph
        bad = next(adj for adj in adjs if len(kernels.components_masks(adj, n, 0)) > 1)
        raise ValueError(
            f"cut search expects a connected graph, got {graph6_encode(Graph(n, bad))}"
        )
