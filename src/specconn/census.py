"""Graph sources: built-in connected census and graph6 file ingestion.

The built-in generator works level by level, by canonical augmentation
(B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998). A child of a census member P of order n - 1 is P plus a new vertex
v = n - 1 wired to a nonempty subset S. Subsets in one orbit of Aut(P) give
isomorphic children, so only the least subset of each orbit is tried; the
group comes from the generators of P's canonical search
(`graphs._canonical_adj`).

A child G is kept iff v lies in the canonical deletion orbit of G. The
deletion candidates are the non-cut vertices of G that are largest, in
lexicographic order, on the invariant (degree, sum of the neighbours'
degrees, twice the triangles at the vertex); v is a non-cut vertex, since P
is connected. The canonical deletion vertex c(G) is the candidate at the
least position of G's canonical order, and the canonical deletion orbit is
its orbit under Aut(G). Isomorphic graphs have their candidates at the same
canonical positions, so an isomorphism G -> H followed by a suitable
automorphism of H maps c(G) to c(H): isomorphisms carry canonical deletion
orbits onto each other.

The whole invariant is decided on the parent, before G is built. A vertex
u of P has degree deg_P(u) + [u in S] in G = P + S, and is a non-cut vertex
of G iff S meets every component of P - u (`split`). The vertices are
visited by descending degree, so that one beating v is met first, up to the
first whose degree in G cannot reach |S|. Among the non-cut vertices tied
with v, the rest of the invariant is compared in stages, from P's degrees
deg, sums nsum of the neighbours' degrees and doubled triangle counts tri2,
each computed once per parent. For u != v, with N = N_P(u):

    nsum_G(u) = nsum_P(u) + |N & S| + [u in S] |S|
    nsum_G(v) = sum over w in S of (deg_P(w) + 1)
    tri2_G(u) = tri2_P(u) + [u in S] 2 |N & S|
    tri2_G(v) = sum over w in S of |N_P(w) & S|

since u's neighbours in S gain v as a neighbour, and u gains v, of degree
|S|, exactly when u is in S; and the new triangles at u are u v w for the w
in N & S, those at v one per edge within S. The triangles are compared
only among the vertices still tied on nsum. Only children that no non-cut
vertex beats are built, each with its candidates: v and the non-cut
vertices equal to it on the whole invariant.

The test then decides most children without a search, from the root
coloring of G's canonical search (`graphs._root_colors`): degree ranks
refined to the coarsest equitable coloring.

- Every other candidate is a twin of v (equal neighbourhoods apart from
  each other): swapping twins is an automorphism, so all candidates share
  v's orbit. Keep.
- Otherwise let C be the lowest root cell that holds a candidate. Neither
  refinement nor individualization reorders cells (`graphs`), so the
  canonical order lists every vertex of a lower root cell before every
  vertex of a higher one, and c(G), the candidate at the least position,
  lies in C. Automorphisms preserve the root coloring, so c(G)'s orbit lies
  within C: if v is not in C, v is not in that orbit. Reject.
- If v is in C and every other candidate in C is a twin of v, c(G) is v
  or a twin of v, and the swap puts v in c(G)'s orbit. Keep.
- Otherwise one search, started from the root coloring already computed,
  gives both the canonical order and the generators the orbit is read from.

Most subsets are never tried: the degree floor. A non-cut vertex u of P is
a non-cut vertex of P + S whenever S is not within {u}, since S then meets
P - u, which is connected; its degree there is at least deg_P(u). So if D
is the largest degree of a non-cut vertex of P, every S with
2 <= |S| < D loses to such a vertex, and only |S| >= max(2, D) is tried.
For S = {w}, every non-cut vertex of P other than w stays non-cut, so when
two non-cut vertices of P have degree >= 2 one of them beats v, whatever
w is; singletons are tried only when at most one has. Orbits preserve |S|,
so a skipped subset takes its whole orbit with it, and the tried subsets
keep their order.

Each isomorphism class of connected graphs of order n is kept exactly once:

- At least once. Take G in the class and m = c(G). m is not a cut vertex,
  so G - m is connected and some phi maps it onto a census member P.
  Extended by m -> v, phi maps G onto P + S with S = phi(N(m)), and v into
  the canonical orbit of P + S. Some alpha in Aut(P) maps S to the least
  subset S0 of its orbit; alpha extended by v -> v maps P + S onto P + S0
  and fixes v, so P + S0 is tried and kept.
- At most once. Let P1 + S1 and P2 + S2 both be kept, and psi an
  isomorphism between them. psi maps the canonical orbit of the first onto
  that of the second; both hold v, so psi composed with an automorphism of
  the second fixes v. It then restricts to an isomorphism P1 -> P2, so
  P1 = P2 (the census holds one graph per class), and to an automorphism
  of P1 that maps S1 to S2. Both are least in their orbit, so S1 = S2.

A search made for the test also yields Aut(G). `connected_census` builds
the levels in one loop, and while a kept G's level is the parents of the
next one it carries those generators with G, so G's own parent search is
skipped; the search is deterministic, so the children and their order are
the same either way. The level that was asked for keeps none, and a level
read from the cache has none.

Each child is judged on its own, so memory holds only the levels.
Counts are pinned against the published census (OEIS A001349) in tests.
"""

import os
from typing import Iterable, Iterator, TextIO

from .graphs import (
    Graph,
    GraphFormatError,
    _canonical_adj,
    _root_colors,
    _trusted,
    _twins,
    components,
    empty_graph,
    graph6_decode,
    vertices_of,
)

# connected graphs per order (OEIS A001349)
CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
}

GENERATOR_CAP = 9

_census_cache: dict[int, list[Graph]] = {}


def connected_census(n: int) -> list[Graph]:
    """All connected graphs of order n up to isomorphism (cached, n <= 9).

    Generation starts from the largest cached level below n and caches every
    level it builds on the way.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > GENERATOR_CAP:
        raise ValueError(
            f"built-in generation is capped at n = {GENERATOR_CAP}; "
            "ingest a graph6 file for larger orders"
        )
    _census_cache.setdefault(1, [empty_graph(1)])
    if n in _census_cache:
        return _census_cache[n]
    start = max(m for m in _census_cache if m < n)
    parents = _census_cache[start]
    # known[i]: Aut generators of parents[i] if its augmentation test
    # searched, else None (a cached level's are unknown)
    known: list[list[tuple[int, ...]] | None] = [None] * len(parents)
    for order in range(start + 1, n + 1):
        level: list[Graph] = []
        found: list[list[tuple[int, ...]] | None] = []
        new_bit = 1 << (order - 1)
        for parent, generators in zip(parents, known):
            if generators is None:
                generators = []
                _canonical_adj(parent, generators)
            for smask, tied in _degree_survivors(parent, generators):
                rows = [
                    row | new_bit if smask >> v & 1 else row
                    for v, row in enumerate(parent.adj)
                ]
                rows.append(smask)
                child = _trusted(order, tuple(rows))
                keep, child_generators = _is_canonical_augmentation(child, tied)
                if keep:
                    level.append(child)
                    # the level asked for is no parent, so it keeps none
                    if order < n:
                        found.append(child_generators)
        _census_cache[order] = level
        parents, known = level, found
    return parents


def _degree_survivors(
    parent: Graph, generators: list[tuple[int, ...]]
) -> list[tuple[int, list[int]]]:
    """(S, tied) for each orbit-least S, ascending, whose child P + S has no
    non-cut vertex beating the new vertex v on the invariant; tied lists v
    and then the non-cut vertices equal to it on the whole invariant.

    Decided on the parent: a vertex u of the child has degree
    deg_P(u) + [u in S], and is a non-cut vertex iff S meets every
    component of P - u. Sizes below the floor are never tried. The sums of
    the neighbours' degrees and the triangles follow from P's own
    (`_nsum_keys`, `_tri2_keys`).
    """
    m = parent.n
    adj = parent.adj
    degree = [row.bit_count() for row in adj]
    nsum = [sum(map(degree.__getitem__, vertices_of(row))) for row in adj]
    tri2 = [sum([(row & adj[w]).bit_count() for w in vertices_of(row)]) for row in adj]
    split = [components(parent, 1 << u) for u in range(m)]
    # non-cut vertices of P: P - u is connected (or empty)
    noncut = [d for d, parts in zip(degree, split) if len(parts) <= 1]
    sizes = -1 << max(2, max(noncut))
    if sum(d >= 2 for d in noncut) <= 1:
        sizes |= 2
    # descending degree, so that a vertex beating v is met first
    ranked = sorted(
        ((degree[u], 1 << u, split[u], u) for u in range(m)), reverse=True
    )
    survivors = []
    for smask in _orbit_minima(generators, m, sizes):
        tied = _degree_ties(smask, ranked, m)
        if tied is not None and len(tied) > 1:
            tied = _invariant_ties(smask, tied, adj, nsum, tri2)
        if tied is not None:
            survivors.append((smask, tied))
    return survivors


def _degree_ties(
    smask: int, ranked: list[tuple[int, int, list[int], int]], v: int
) -> list[int] | None:
    """v and the non-cut vertices of P + S tied with it on degree, or None
    when one beats it; ranked is (deg_P(u), 1 << u, split[u], u) by
    descending degree."""
    top = smask.bit_count()
    tied = [v]
    for degree, bit, parts, u in ranked:
        if degree + 1 < top:
            break
        if smask & bit:
            degree += 1
        if degree < top:
            continue
        for part in parts:
            if not smask & part:
                break
        else:
            if degree > top:
                return None
            tied.append(u)
    return tied


def _invariant_ties(
    smask: int, tied: list[int], adj: tuple[int, ...], nsum: list[int], tri2: list[int]
) -> list[int] | None:
    """tied (v first) narrowed to the vertices equal to v on the sum of the
    neighbours' degrees, then on twice the triangles, in P + S; None when
    one beats v. The triangles are compared only among those still tied."""
    for keys, base in ((_nsum_keys, nsum), (_tri2_keys, tri2)):
        if len(tied) == 1:
            break
        key = keys(smask, tied, adj, base)
        if key[0] < max(key):
            return None
        tied = [u for u, k in zip(tied, key) if k == key[0]]
    return tied


def _nsum_keys(
    smask: int, tied: list[int], adj: tuple[int, ...], nsum: list[int]
) -> list[int]:
    """The sum of the neighbours' degrees in P + S of v = tied[0] and of
    each vertex of P in tied[1:], from P's rows and sums nsum."""
    size = smask.bit_count()
    keys = [sum([adj[w].bit_count() for w in vertices_of(smask)]) + size]
    for u in tied[1:]:
        key = nsum[u] + (adj[u] & smask).bit_count()
        if smask >> u & 1:
            key += size
        keys.append(key)
    return keys


def _tri2_keys(
    smask: int, tied: list[int], adj: tuple[int, ...], tri2: list[int]
) -> list[int]:
    """Twice the triangles in P + S at v = tied[0] and at each vertex of P
    in tied[1:], from P's rows and doubled triangle counts tri2."""
    keys = [sum([(adj[w] & smask).bit_count() for w in vertices_of(smask)])]
    for u in tied[1:]:
        key = tri2[u]
        if smask >> u & 1:
            key += 2 * (adj[u] & smask).bit_count()
        keys.append(key)
    return keys


def _is_canonical_augmentation(
    child: Graph, tied: list[int]
) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Whether the last vertex v lies in the canonical deletion orbit, and
    the generators of Aut(child) when the test ran a search (else None).

    tied lists v and then the deletion candidates: the non-cut vertices
    equal to v on the whole invariant, none larger (`_degree_survivors`).
    Twins, then the lowest root cell among the candidates, decide most
    children without a search.
    """
    adj = child.adj
    v = child.n - 1
    if all(_twins(adj, u, v) for u in tied[1:]):
        return True, None
    root = _root_colors([vertices_of(row) for row in adj])
    low = min(root[u] for u in tied)
    if root[v] != low:
        return False, None
    cell = [u for u in tied if root[u] == low]
    if all(_twins(adj, u, v) for u in cell[1:]):
        return True, None
    generators: list[tuple[int, ...]] = []
    _, order = _canonical_adj(child, generators, root)
    first = next(u for u in order if u in cell)
    orbit = {first}
    stack = [first]
    while stack:
        u = stack.pop()
        for perm in generators:
            if perm[u] not in orbit:
                orbit.add(perm[u])
                stack.append(perm[u])
    return v in orbit, generators


def _orbit_minima(
    generators: list[tuple[int, ...]], m: int, sizes: int = -1
) -> list[int]:
    """Least subset of each orbit of nonempty subsets of range(m), ascending,
    under the permutation group the generators span. Only sizes s with bit
    s of `sizes` set are kept; orbits preserve size, so the rest is a
    subsequence of the unfiltered list."""
    size = 1 << m
    if not generators:
        # every orbit is one subset
        return [smask for smask in range(1, size) if sizes >> smask.bit_count() & 1]
    images = []
    for perm in generators:
        # image[mask] for the masks below 2^(i+1), from those below 2^i
        image = [0]
        for i in range(m):
            bit = 1 << perm[i]
            image += [mask | bit for mask in image]
        images.append(image)
    seen = bytearray(size)
    minima = []
    for smask in range(1, size):
        if seen[smask] or not sizes >> smask.bit_count() & 1:
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
        # latin-1 reads every byte as one character, so a non-ASCII byte
        # reaches graph6_decode and costs only its own line
        with open(source, "r", encoding="latin-1") as handle:
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
