"""Immutable bitset graphs: graph6 codec, components, degrees, canonical forms.

Vertices are labeled 0..n-1 and every neighborhood is a Python int used as a
bitmask, so set algebra on neighborhoods is single machine-word work for the
supported range n <= 64. Canonical labeling (and therefore isomorphism
testing) is exact for n <= 12, which covers everything the verification
pipeline compares; the same search (`_canonical_adj`) also returns the
canonical order of the vertices, and generators of the automorphism group
on request, which census generation uses for pruning and for its canonical
augmentation test.
"""

import sys
from dataclasses import dataclass
from operator import getitem, lshift
from typing import Iterable, Iterator, NamedTuple

from . import kernels
from ._kernels_py import vertices_of

MAX_VERTICES = 64
CANON_MAX_VERTICES = 12


class GraphFormatError(ValueError):
    """Malformed graph6 input."""


# ---------------------------------------------------------------------------
# vertex-set helpers (a VertexSet is a plain int bitmask); vertices_of, the
# ascending members of a mask, is the pure kernels' table-driven decoder

def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# packed bit matrices
#
# A width x width bit matrix packed into one int, row i in bits
# [i*width, (i + 1)*width), width a power of two >= 8. Graph validation packs
# the adjacency rows this way and the graph6 decoder builds its lower
# triangle this way; both transpose it with log2(width) masked swaps.

def _matrix_width(n: int) -> int:
    """The least power of two >= max(n, 8)."""
    return max(8, 1 << (n - 1).bit_length())


# width -> (transpose swaps, diagonal mask), built on first use
_bit_matrices: dict[int, tuple[list[tuple[int, int]], int]] = {}


def _bit_matrix(width: int) -> tuple[list[tuple[int, int]], int]:
    """(swaps, diagonal) of the packed width x width matrix: each (delta,
    mask) swap exchanges bit k of the row index with bit k of the column
    index, for one bit k below width, and diagonal has bit i*width + i set
    for every i."""
    plan = _bit_matrices.get(width)
    if plan is None:
        swaps = []
        k = width >> 1
        while k:
            row = sum(1 << j for j in range(width) if j & k)
            mask = sum(row << i * width for i in range(width) if not i & k)
            swaps.append((k * (width - 1), mask))
            k >>= 1
        diagonal = sum(1 << i * (width + 1) for i in range(width))
        plan = _bit_matrices[width] = (swaps, diagonal)
    return plan


def _transpose(matrix: int, swaps: list[tuple[int, int]]) -> int:
    for delta, mask in swaps:
        moved = (matrix ^ matrix >> delta) & mask
        matrix ^= moved ^ moved << delta
    return matrix


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on labeled vertices 0..n-1.

    adj[v] is the neighbor bitmask of v. Instances are immutable (all edits
    return new graphs) and safe to share between workers.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        if min(adj) >= 0 and max(adj) <= full:
            # row v is bits [v*width, v*width + n) of one int; the lowest
            # bit set in it and not in its transpose is the least (v, w)
            # with w in N(v) and v not in N(w)
            width = _matrix_width(n)
            swaps, diagonal = _bit_matrix(width)
            packed = sum(map(lshift, adj, range(0, n * width, width)))
            if not packed & diagonal:
                asymmetric = packed & ~_transpose(packed, swaps)
                if asymmetric:
                    v, w = divmod((asymmetric & -asymmetric).bit_length() - 1, width)
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
                return
        # some row is out of range or has a self-loop: name the first one
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"neighbor bits of vertex {v} out of range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

    # -- basic queries ------------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in vertices_of(row):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"


def require_vertices(g: Graph, *vertices: int) -> None:
    """Raise ValueError naming the first of vertices that is not in 0..n-1."""
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is not in 0..{g.n - 1}")


# ---------------------------------------------------------------------------
# construction helpers

def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def add_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = list(g.adj)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def remove_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = list(g.adj)
    for u, v in edges:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    rows = list(a.adj) + [row << a.n for row in b.adj]
    return Graph(a.n + b.n, tuple(rows))


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    a_mask = (1 << a.n) - 1
    b_mask = ((1 << b.n) - 1) << a.n
    rows = [row | b_mask for row in a.adj]
    rows += [(row << a.n) | a_mask for row in b.adj]
    return Graph(a.n + b.n, tuple(rows))


def permute(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel: vertex v becomes perm[v]."""
    p = list(perm)
    rows = [0] * g.n
    for v in range(g.n):
        acc = 0
        for w in vertices_of(g.adj[v]):
            acc |= 1 << p[w]
        rows[p[v]] = acc
    return Graph(g.n, tuple(rows))


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the masked vertices, relabeled in ascending order."""
    vs = vertices_of(mask)
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {v: i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        acc = 0
        for w in vertices_of(g.adj[v] & mask):
            acc |= 1 << index[w]
        rows.append(acc)
    return Graph(len(vs), tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec
#
# One printable-ASCII record per graph: size byte n+63 for n <= 62, else '~'
# and n in three 6-bit bytes, each offset by 63 (decode accepts that header at
# any n), then the upper triangle x(0,1), x(0,2), x(1,2), x(0,3), ... packed
# big-endian into 6-bit groups, each offset by 63; the final group is
# zero-padded.
#
# Decoding works a character at a time, from per-order data built on first
# use (_graph6_plan). The bits of one payload character land in the lower
# triangle L (row c, bit r < c for the bit x(r, c)) of a packed matrix whose
# rows are `width` bits apart, width the least power of two >= max(n, 8).
# Relative to the position of its first bit there, a character's six bits
# have fixed offsets, so its contribution is a table of the 64 character
# values, shifted into place. Characters with the same offsets share one
# table: every character inside one column has offsets 0..5, so past that
# one an order adds tables only for characters that a column boundary splits
# or the padding cuts short (41 more at n = 64). The sum
# of the shifted contributions is L; its transpose (_transpose) is the
# upper triangle, and the rows are read off the bytes of the two together.

def graph6_encode(g: Graph) -> str:
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    group = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            group = group << 1 | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + 63))
                group = 0
                nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + 63))
    return "".join(out)


# graph6's 64 printable bytes, 63 ('?') .. 126 ('~')
_GRAPH6_BYTES = b"?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"

# offsets of a character's bits in L -> its table, indexed by byte value
_graph6_tables: dict[tuple[int, ...], list[int]] = {}
# order -> (tables, shifts, transpose swaps, row splitter)
_graph6_plans: dict[int, tuple] = {}


def _graph6_table(offsets: tuple[int, ...]) -> list[int]:
    """Contribution to L of each character value 63 + v whose bit 5 - j
    lands offsets[j] above the character's first bit."""
    table = _graph6_tables.get(offsets)
    if table is None:
        table = [0] * 127
        for v in range(64):
            for j, offset in enumerate(offsets):
                if v >> (5 - j) & 1:
                    table[63 + v] |= 1 << offset
        _graph6_tables[offsets] = table
    return table


def _graph6_plan(n: int) -> tuple:
    """Build and cache (tables, shifts, swaps, split) of order n: character
    i adds tables[i][byte] << shifts[i] to L, the (delta, mask) swaps
    transpose L, and split turns the packed matrix into the rows.

    Built from empty caches, an order's plan and tables take about 11 KB
    at n = 8, 40 KB at n = 20 and 139 KB at n = 64 (tracemalloc). One
    unshared table per character of both triangles' packed rows would take
    8.7 MB at n = 64.
    """
    width = _matrix_width(n)
    # L position of each bit, in the upper triangle's column-major order
    where = [c * width + r for c in range(1, n) for r in range(c)]
    tables, shifts = [], []
    for i in range(0, len(where), 6):
        first = where[i]
        tables.append(_graph6_table(tuple(p - first for p in where[i:i + 6])))
        shifts.append(first)
    swaps = _bit_matrix(width)[0]
    if width == 8:
        def split(matrix: int) -> tuple[int, ...]:
            return tuple(matrix.to_bytes(n, "little"))
    else:
        code = {16: "H", 32: "I", 64: "Q"}[width]
        nbytes = n * width // 8
        # native words: a big-endian host reads the highest row first
        step = 1 if sys.byteorder == "little" else -1

        def split(matrix: int) -> tuple[int, ...]:
            words = memoryview(matrix.to_bytes(nbytes, sys.byteorder)).cast(code)
            return tuple(words[::step])
    plan = _graph6_plans[n] = (tables, shifts, swaps, split)
    return plan


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 record")
    # checked at C speed; the loop runs only to name the first bad byte
    if not s.isascii() or s.encode().translate(None, _GRAPH6_BYTES):
        bad = next(ch for ch in s if not 63 <= ord(ch) <= 126)
        raise GraphFormatError(f"non-printable graph6 byte {ord(bad)}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("8-byte graph6 size header exceeds the n <= 64 cap")
        if len(s) < 4:
            raise GraphFormatError("truncated multi-byte graph6 size header")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        payload = s[4:]
    else:
        n = ord(s[0]) - 63
        payload = s[1:]
    if n == 0:
        raise GraphFormatError("graph6 record encodes an empty vertex set")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(payload) != want:
        raise GraphFormatError(
            f"graph6 payload length {len(payload)} != {want} for order {n}"
        )
    pad = 6 * want - nbits
    if pad and (ord(payload[-1]) - 63) & ((1 << pad) - 1):
        raise GraphFormatError("nonzero padding bits in final graph6 group")
    tables, shifts, swaps, split = _graph6_plans.get(n) or _graph6_plan(n)
    # the shifted contributions have disjoint bits, so their sum is L
    lower = sum(map(lshift, map(getitem, tables, payload.encode()), shifts))
    # symmetric, loop-free and within n by construction
    return _trusted(n, split(lower | _transpose(lower, swaps)))


# ---------------------------------------------------------------------------
# components / degrees

def components(g: Graph, removed: int = 0) -> list[int]:
    """Connected components of g minus the removed vertices.

    Returns component masks sorted by least member; empty list iff every
    vertex was removed.
    """
    return kernels.components_masks(g.adj, g.n, removed & g.vertex_mask)


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


class DegreeProfile(NamedTuple):
    min_degree: int
    max_degree: int
    degrees: tuple[int, ...]


def degree_profile(g: Graph) -> DegreeProfile:
    degs = tuple(row.bit_count() for row in g.adj)
    return DegreeProfile(min(degs), max(degs), degs)


# ---------------------------------------------------------------------------
# canonical form / isomorphism
#
# Equitable color refinement followed by individualization backtracking. The
# search starts from degree ranks, which is the first refinement round of the
# unit coloring. Within the branching cell, candidates that are twins of an
# already explored candidate are skipped: swapping twins is an automorphism
# fixing the current coloring, so their subtrees yield identical label sets.
# The leaf with the minimal relabeled adjacency tuple defines the canonical
# labeling. Exact for the documented range n <= 12.
#
# Refinement ranks on (own color, ...) and individualization gives v the
# color 2c - 1, between 2(c - 1) and 2c, so neither reorders the cells: a
# vertex of a lower cell of the root coloring (_root_colors) has a lower
# canonical position. The root coloring is computed from the graph alone,
# so every automorphism preserves it.
#
# The same search yields generators of the automorphism group. Two leaves
# with equal relabeled adjacency differ by an automorphism, and every skipped
# twin pair is a transposition. Each leaf equivalent to the minimal one is
# the image of an explored one under skipped-twin transpositions, so the
# automorphisms to the explored equivalent leaves and those transpositions
# generate the whole group.

def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal iff isomorphic (n <= 12)."""
    if g.n > CANON_MAX_VERTICES:
        raise ValueError(
            f"exact canonicalization is limited to n <= {CANON_MAX_VERTICES}"
        )
    return graph6_encode(_trusted(g.n, _canonical_adj(g)[0]))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_form(a) == canonical_form(b)


def _trusted(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without validation, for adjacency known to be valid."""
    g = object.__new__(Graph)
    _set_n(g, n)
    _set_adj(g, adj)
    return g


# the slots' own setters, which the frozen class's __setattr__ would refuse
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__


def _refine(nbrs: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Refine to the coarsest equitable coloring; colors become dense ranks.

    Each round ranks the signatures (own color, sorted neighbor colors). The
    ranks are the fixed point once a round splits no class, or once every
    class is a singleton, since a discrete coloring is stable.
    """
    n = len(colors)
    classes = len(set(colors))
    while True:
        sigs = [
            (c, tuple(sorted(map(colors.__getitem__, nb))))
            for c, nb in zip(colors, nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = list(map(order.__getitem__, sigs))
        if len(order) == classes or len(order) == n:
            return colors
        classes = len(order)


def _root_colors(nbrs: list[tuple[int, ...]]) -> list[int]:
    """The search's root coloring: degree ranks, refined to the coarsest
    equitable coloring."""
    degree_rank = sorted(set(map(len, nbrs)))
    return _refine(nbrs, [degree_rank.index(len(nb)) for nb in nbrs])


def _canonical_adj(
    g: Graph,
    automorphisms: list[tuple[int, ...]] | None = None,
    root: list[int] | None = None,
) -> tuple[tuple[int, ...], list[int]]:
    """Canonically relabeled adjacency of g, and the canonical order.

    The order lists the vertices of g by canonical position: vertex order[p]
    becomes vertex p of the relabeled graph. When a list is passed as
    `automorphisms`, generators of the automorphism group of g are appended
    to it, each a tuple `perm` that maps vertex v to perm[v]; the identity is
    never among them. `root`, when given, is g's root coloring as
    `_root_colors` computed it, which the search then does not recompute.
    """
    n, adj = g.n, g.adj
    nbrs = [vertices_of(row) for row in adj]
    best: tuple[int, ...] = ()
    best_order: list[int] = []
    found: set[tuple[int, ...]] = set()

    def leaf(pos: list[int]) -> None:
        # at a discrete coloring, vertex v's color is its canonical position
        nonlocal best, best_order
        order = [0] * n
        for v, p in enumerate(pos):
            order[p] = v
        weight = [1 << p for p in pos]
        cand = tuple([sum(map(weight.__getitem__, nbrs[v])) for v in order])
        if not best or cand < best:
            best, best_order = cand, order
        elif automorphisms is not None and cand == best:
            found.add(tuple(map(best_order.__getitem__, pos)))

    def descend(colors: list[int]) -> None:
        # colors is equitable: the root, or an individualized one refined
        ranked = sorted(colors)
        cell = next((a for a, b in zip(ranked, ranked[1:]) if a == b), None)
        if cell is None:
            leaf(colors)
            return
        reps: list[int] = []
        for v in range(n):
            if colors[v] != cell:
                continue
            twin = next((u for u in reps if _twins(adj, v, u)), None)
            if twin is not None:
                if automorphisms is not None:
                    swap = list(range(n))
                    swap[v], swap[twin] = twin, v
                    found.add(tuple(swap))
                continue
            reps.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            descend(_refine(nbrs, child))

    descend(_root_colors(nbrs) if root is None else root)
    if automorphisms is not None:
        automorphisms.extend(sorted(found))
    return best, best_order


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
