"""Join-of-cliques shapes, the extremal families and the case dispatcher.

Every family is a Shape: K_c v (K_{p1} u ... u K_{pt}), possibly with one
pendant vertex u joined to the first vertices of named blocks, built by the
one builder Shape.build. Labeling is fixed so output is reproducible: u
(when present) is vertex 0, then the join core, then the big clique, then
the small parts in order; pendant edges always attach to the lowest-labeled
vertices of their target part (all choices are isomorphic by part symmetry).

With m = n - (r-1)(g+1) - k:

  delta0      K_1 + (K_{k-1} v (K_m u (r-1)K_{g+1})), u joined to delta
              core vertices
  deltamg-g   K_1 + (K_k v (K_m u (r-2)K_{g+1} u K_g)), u joined to delta-g
              core vertices and all g vertices of the K_g part
  km1         K_1 + (K_{k-1} v (K_m u (r-1)K_{g+1})), u joined to the whole
              core and delta-k+1 big-clique vertices
  zero-delta  K_1 + (K_{m0} u (r-1)K_{g+1}) with m0 = n-(r-1)(g+1)-1, u
              joined to delta-r+1 big-clique vertices and one vertex of each
              small part (k = 1)
  join-vi     K_k v (K_M u (r-1)K_{delta-k+1}) with M = n-k-(delta-k+1)(r-1)

At g = 0 the K_g part of deltamg-g is empty and u sees only the core. For
r = 2 that needs delta = k, or deleting N(u) would isolate u with a smaller
cut; for r >= 3 deleting N(u) leaves only two components, so delta <= k is
enough.

Each family carries a size-k witness cut (the core, plus u when the core has
k-1 vertices) whose removal leaves r components with all residual degrees
>= g.
"""

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate

from .connectivity import CutMode, CutQuery, is_valid_cut
from .graphs import Graph, add_edges, complete_graph, disjoint_union, empty_graph, join


class Family(str, Enum):
    DELTA_0 = "delta0"
    DELTAMG_G = "deltamg-g"
    KM1_DMKP1 = "km1"
    ZERO_DELTA = "zero-delta"
    JOIN_VI = "join-vi"


FAMILY_IDS = {f.value: f for f in Family}


class InfeasibleFamilyError(ValueError):
    """Requested family parameters violate named feasibility constraints."""

    def __init__(self, params, violations):
        self.params = params
        self.violations = tuple(violations)
        super().__init__(f"{params}: " + "; ".join(violations))


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    n: int
    k: int
    delta: int
    g: int
    r: int


@dataclass(frozen=True)
class Shape:
    """A connected K_core v (K_{p1} u ... u K_{pt}), possibly with a pendant u.

    pendant is None when there is no u; otherwise each target (block, count)
    joins u to the first count vertices of block 0 (the core) or part j, and
    no two targets name one block.
    """

    core: int
    parts: tuple[int, ...]
    pendant: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.core < 0:
            raise ValueError("join core size must be >= 0")
        if not self.parts or any(q < 1 for q in self.parts):
            raise ValueError("clique parts must be nonempty positive sizes")
        sizes = (self.core, *self.parts)
        for block, count in self.pendant or ():
            if not (0 <= block < len(sizes) and 1 <= count <= sizes[block]):
                raise ValueError(f"pendant target {(block, count)} needs a block in "
                                 f"0..{len(sizes) - 1} and a count in 1..its size")
        # one target per block: (1, 1), (1, 2) would be a second name for (1, 2)
        reached = {block for block, _ in self.pendant or ()}
        if len(reached) < len(self.pendant or ()):
            raise ValueError(f"pendant targets {self.pendant} name a block twice")
        # u isolated, or no core to link the parts and a part u misses
        if self.pendant == () or self.core == 0 and len(self.parts) > max(1, len(reached)):
            raise ValueError("shape is disconnected")

    @property
    def n(self) -> int:
        return (self.pendant is not None) + self.core + sum(self.parts)

    def build(self) -> Graph:
        """The labeled graph: u (when present), then the core, then the parts."""
        body = reduce(disjoint_union, map(complete_graph, self.parts))
        body = join(complete_graph(self.core), body) if self.core else body
        if self.pendant is None:
            return body
        starts = list(accumulate((self.core, *self.parts), initial=1))
        edges = ((0, starts[block] + i) for block, count in self.pendant for i in range(count))
        return add_edges(disjoint_union(empty_graph(1), body), edges)


def feasibility_violations(p: FamilyParams) -> list[str]:
    """Named constraint violations; empty means constructible."""
    bad = []
    if p.k < 1:
        bad.append("k >= 1 required")
    if p.delta < 1:
        bad.append("delta >= 1 required")
    if p.g < 0:
        bad.append("g >= 0 required")
    if p.r < 2:
        bad.append("r >= 2 required")
    if bad:
        return bad
    if p.n < p.k + p.r * (p.g + 1):
        bad.append(f"n >= k + r(g+1) required (n={p.n} < {p.k + p.r * (p.g + 1)})")
    f = p.family
    if f is Family.DELTA_0:
        if p.delta > p.k - 1:
            bad.append("delta <= k-1 required for delta0")
        if p.g < 1:
            bad.append("g >= 1 required for delta0 (with g = 0 the pendant "
                       "vertex's chosen core is a smaller cut)")
    elif f is Family.DELTAMG_G:
        if p.delta < p.g:
            bad.append("delta >= g required for deltamg-g")
        if p.delta - p.g > p.k:
            bad.append("delta-g <= k required for deltamg-g")
        if p.g == 0 and p.r == 2 and p.delta != p.k:
            bad.append("delta = k required for deltamg-g when g = 0 and r = 2 "
                       "(otherwise deleting N(u) is a smaller cut)")
    elif f is Family.KM1_DMKP1:
        if not 2 <= p.k <= p.delta:
            bad.append("2 <= k <= delta required for km1")
        if p.delta >= p.g:
            bad.append("delta < g required for km1")
        if p.delta - p.k + 1 > p.n - (p.r - 1) * (p.g + 1) - p.k:
            bad.append("delta-k+1 <= n-(r-1)(g+1)-k required for km1")
    elif f is Family.ZERO_DELTA:
        if p.k != 1:
            bad.append("k = 1 required for zero-delta")
        if p.delta < p.r:
            bad.append("delta >= r required for zero-delta")
        if p.delta >= p.g:
            bad.append("delta < g required for zero-delta")
    elif f is Family.JOIN_VI:
        if p.delta < p.g + p.k:
            bad.append("delta >= g+k required for join-vi")
        if p.n - p.k - (p.delta - p.k + 1) * (p.r - 1) < p.delta - p.k + 1:
            bad.append("big part >= delta-k+1 required for join-vi")
    return bad


def _check(p: FamilyParams) -> None:
    bad = feasibility_violations(p)
    if bad:
        raise InfeasibleFamilyError(p, bad)


def _layout(p: FamilyParams) -> Shape:
    """The family's shape, in the label order the module docstring fixes."""
    n, k, delta, g, r = p.n, p.k, p.delta, p.g, p.r
    m = n - (r - 1) * (g + 1) - k
    smalls = (g + 1,) * (r - 1)
    if p.family is Family.DELTA_0:
        return Shape(k - 1, (m, *smalls), ((0, delta),))
    if p.family is Family.DELTAMG_G:
        # drop the empty K_g part at g = 0 (the last block, so every label
        # stays) and each target of count 0, such as the core at delta = g
        return Shape(k, tuple(q for q in (m, *smalls[1:], g) if q),
                     tuple(t for t in ((0, delta - g), (r, g)) if t[1]))
    if p.family is Family.KM1_DMKP1:
        return Shape(k - 1, (m, *smalls), ((0, k - 1), (1, delta - k + 1)))
    if p.family is Family.ZERO_DELTA:  # k = 1 here, so m0 = m
        return Shape(0, (m, *smalls), ((1, delta - r + 1), *((j, 1) for j in range(2, r + 1))))
    small = delta - k + 1
    return Shape(k, (n - k - small * (r - 1),) + (small,) * (r - 1))


def construct(p: FamilyParams) -> Graph:
    """Build the labeled family graph (order n, min degree exactly delta)."""
    _check(p)
    return _layout(p).build()


def witness_cut(p: FamilyParams) -> int:
    """The size-k cut certifying class membership of the family graph.

    It is the core, plus the pendant vertex 0 when the core has k-1 vertices.
    """
    _check(p)
    shape = _layout(p)
    first = 0 if shape.pendant is None else 1
    core = ((1 << shape.core) - 1) << first
    return core | 1 if shape.core == p.k - 1 else core


def verify_witness(p: FamilyParams) -> bool:
    cert = is_valid_cut(construct(p), witness_cut(p), CutQuery(p.g, p.r, CutMode.FULL))
    return cert is not None and cert.size == p.k


def extremal_family_for(k: int, delta: int, g: int) -> Family:
    """Which family maximizes rho on the class with these parameters.

    The five predicates partition the whole (k, delta, g) space; the chain
    below is total, and tests assert exactly one regime matches every cell.
    """
    if delta >= g + k:
        return Family.JOIN_VI
    if k > delta:
        return Family.DELTA_0 if delta < g else Family.DELTAMG_G
    if delta < g:
        return Family.KM1_DMKP1 if k >= 2 else Family.ZERO_DELTA
    return Family.DELTAMG_G


def claimed_extremal(n: int, k: int, delta: int, g: int, r: int) -> FamilyParams:
    """Parameters of the family claimed to maximize rho over the class.

    Requires the hypothesis n >= k + r(g+1); outside it no claim is made.
    """
    if n < k + r * (g + 1):
        raise ValueError(
            f"class (n={n}, k={k}, g={g}, r={r}) is outside the hypothesis "
            f"n >= k + r(g+1)"
        )
    return FamilyParams(extremal_family_for(k, delta, g), n, k, delta, g, r)
