"""Executable spectral-radius comparisons: edge rotation, subgraph
monotonicity, join rebalancing, plus randomized harnesses for hunting
counterexamples.

Each check raises ViolationError if a strict inequality that must hold
fails by more than the safety margin. The margins sit two orders above the
eigensolver tolerance so a violation means a genuine counterexample (or
solver bug), not float noise.

The rotation and monotonicity checks solve the host graph to convergence
and decide the other graph against the host's rho plus or minus
STRICT_MARGIN by its Collatz-Wielandt bracket (spectral.rho_bounds): a
bracket that clears that threshold on the side the inequality asserts is a
certified pass, and its bound is what the check reports. Otherwise
spectral_radius's converged rho is compared with the threshold as a plain
float, and a violation reports that value. Either way a check passes exactly
when the comparison of the two converged rhos passes.
"""

import random
from dataclasses import dataclass, field

from .graphs import (
    MAX_VERTICES,
    Graph,
    add_edges,
    is_connected,
    mask_of,
    remove_edges,
    require_vertices,
    vertices_of,
)
from .families import Shape
from .spectral import (
    SpectralResult,
    ViolationError,
    quotient_spectral_radius,
    rho_bounds,
    spectral_radius,
)

STRICT_MARGIN = 1e-10
PERRON_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RotationSpec:
    """Move the edges v-w (w in moved) onto u; moved must avoid N(u) and u."""

    u: int
    v: int
    moved: int  # vertex bitmask

    def validate(self, g: Graph) -> None:
        require_vertices(g, self.u, self.v)
        if self.u == self.v:
            raise ValueError("rotation endpoints must be distinct")
        if not self.moved:
            raise ValueError("rotation needs a nonempty moved set")
        if self.moved >> self.u & 1 or self.moved >> self.v & 1:
            raise ValueError("moved set may not contain the endpoints")
        if self.moved & ~g.adj[self.v]:
            raise ValueError("moved vertices must be neighbors of v")
        if self.moved & g.adj[self.u]:
            raise ValueError("moved vertices must avoid N(u) to keep the graph simple")


def rotate(g: Graph, spec: RotationSpec) -> Graph:
    """Apply the rotation; edge count is preserved, only deg(u), deg(v) change."""
    spec.validate(g)
    targets = vertices_of(spec.moved)
    h = remove_edges(g, [(spec.v, w) for w in targets])
    return add_edges(h, [(spec.u, w) for w in targets])


def _decide(graph: Graph, t: float, above: bool) -> tuple[bool, float, bool, int]:
    """(holds, value, certified, components): whether rho(graph) > t (above)
    or rho(graph) < t (below), the one decision both checks make.

    A bracket that clears t on that side is a certified pass, and value is
    its bound. Otherwise value is spectral_radius's converged rho and holds
    is its float comparison with t. components comes from the component
    flood."""
    bounds = rho_bounds(graph, t)
    if above and bounds.lower > t:
        return True, bounds.lower, True, bounds.components
    if not above and bounds.upper < t:
        return True, bounds.upper, True, bounds.components
    rho = spectral_radius(graph).rho
    return (rho > t if above else rho < t), rho, False, bounds.components


@dataclass(frozen=True)
class RotationCheck:
    """rho_before and the Perron entries are the host's converged values.
    rho_after is a lower bound on rho after the rotation when certified (the
    Collatz-Wielandt bound that cleared rho_before + STRICT_MARGIN), else
    the converged rho; None when inapplicable. result_connected is read off
    the rotated graph's component flood."""

    applicable: bool
    rho_before: float
    rho_after: float | None
    x_u: float
    x_v: float
    result_connected: bool | None
    certified: bool = False


def check_rotation_increase(g: Graph, spec: RotationSpec) -> RotationCheck:
    """If x(u) >= x(v), rotating strictly increases the spectral radius.

    Near-ties (|x(u)-x(v)| <= 1e-12, e.g. symmetric vertices) count as
    satisfying the hypothesis. When x(u) < x(v) the check is inapplicable and
    nothing is asserted. Rotations that disconnect the result are evaluated
    anyway (rho = max over components) and flagged via result_connected.
    """
    spec.validate(g)
    return _rotation_check(g, spec, spectral_radius(g))


def _rotation_check(g: Graph, spec: RotationSpec, host: SpectralResult) -> RotationCheck:
    """check_rotation_increase for a spec already validated on g, whose
    spectral_radius is host."""
    x_u, x_v = host.perron[spec.u], host.perron[spec.v]
    if x_u < x_v - PERRON_TIE_TOL:
        return RotationCheck(False, host.rho, None, x_u, x_v, None)
    holds, after, certified, comps = _decide(rotate(g, spec), host.rho + STRICT_MARGIN, True)
    if not holds:
        raise ViolationError(
            f"rotation failed to increase rho: {host.rho!r} -> {after!r} "
            f"(u={spec.u}, v={spec.v}, moved={vertices_of(spec.moved)})"
        )
    return RotationCheck(True, host.rho, after, x_u, x_v, comps == 1, certified)


@dataclass(frozen=True)
class MonotonicityCheck:
    """rho_super is the host's converged rho. rho_sub is an upper bound on
    the subgraph's rho when certified (the Collatz-Wielandt bound that
    cleared rho_super - STRICT_MARGIN), else its converged rho, so that
    margin = rho_super - rho_sub is then a certified lower bound on
    rho_super - rho(subgraph)."""

    rho_sub: float
    rho_super: float
    margin: float
    certified: bool = False


def check_subgraph_monotonicity(g: Graph, h: Graph) -> MonotonicityCheck:
    """A proper subgraph of a connected graph has strictly smaller rho.

    h must be a proper subgraph of g under the identity embedding: either
    fewer vertices (a prefix of the labeling) or fewer edges, with every edge
    of h an edge of g.
    """
    if not is_connected(g):
        raise ValueError("the host graph must be connected")
    if h.n > g.n:
        raise ValueError("not a subgraph: more vertices than the host")
    for v in range(h.n):
        if h.adj[v] & ~g.adj[v]:
            raise ValueError(f"not a subgraph: extra edges at vertex {v}")
    if h.n == g.n and h.edge_count() == g.edge_count():
        raise ValueError("not a proper subgraph: graphs are identical")
    return _subgraph_check(h, spectral_radius(g))


def _subgraph_check(h: Graph, host: SpectralResult) -> MonotonicityCheck:
    """check_subgraph_monotonicity for a proper subgraph h of a connected
    host whose spectral_radius is host."""
    holds, sub, certified, _ = _decide(h, host.rho - STRICT_MARGIN, False)
    if not holds:
        raise ViolationError(
            f"proper subgraph did not lose spectral radius: {sub!r} vs {host.rho!r}"
        )
    return MonotonicityCheck(sub, host.rho, host.rho - sub, certified)


@dataclass(frozen=True)
class RebalanceCheck:
    rho_before: float
    rho_after: float
    margin: float
    balanced_parts: tuple[int, ...]


def check_join_rebalance(s: int, parts: list[int], p: int) -> RebalanceCheck:
    """Concentrating clique parts (all but one pushed down to p) raises rho.

    Hypothesis: parts sorted descending, every part >= p, and the largest
    part strictly below n - s - p(t-1); then the concentrated shape
    (n-s-p(t-1), p, ..., p) has strictly larger quotient spectral radius.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    parts = list(parts)
    shape = Shape(s, tuple(parts))  # checks s and the sizes before parts[0] is read
    t = len(parts)
    if sorted(parts, reverse=True) != parts:
        raise ValueError("parts must be sorted descending")
    if any(q < p for q in parts):
        raise ValueError("every part must be >= p")
    big = sum(parts) - p * (t - 1)
    if not parts[0] < big:
        raise ValueError("hypothesis needs largest part < n - s - p(t-1)")
    before = quotient_spectral_radius(shape)
    balanced = (big,) + (p,) * (t - 1)
    after = quotient_spectral_radius(Shape(s, balanced))
    if not before < after - STRICT_MARGIN:
        raise ViolationError(
            f"rebalancing failed to increase rho: {before!r} vs {after!r} "
            f"for s={s}, parts={parts}, p={p}"
        )
    return RebalanceCheck(before, after, after - before, balanced)


# ---------------------------------------------------------------------------
# randomized harnesses

def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random attachment tree plus independent extra edges (always connected)."""
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    p = rng.uniform(0.1, 0.9)
    for u in range(n - 1):
        # bit v of row u is still only the tree edge u-v, if any
        row = rows[u]
        for v in range(u + 1, n):
            if not row >> v & 1 and rng.random() < p:
                row |= 1 << v
                rows[v] |= 1 << u
        rows[u] = row
    return Graph(n, tuple(rows))


@dataclass
class FuzzReport:
    trials: int = 0
    applicable: int = 0
    violations: list[str] = field(default_factory=list)
    disconnected_results: int = 0
    min_margin: float = float("inf")

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_run(trials: int, max_n: int, smallest: int) -> None:
    # checked before the first trial, not when a draw falls outside; a run
    # of no trials would report a pass that checked nothing
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not smallest <= max_n <= MAX_VERTICES:
        raise ValueError(f"fuzz orders start at {smallest}, so max_n must be in "
                         f"{smallest}..{MAX_VERTICES}, got {max_n}")


def fuzz_rotation_increase(trials: int, seed: int, max_n: int = 10) -> FuzzReport:
    """Run `trials` applicable random rotation checks on graphs of order 4 to
    max_n; collect violations.

    Each trial draws a graph and a vertex pair. A pair whose neighbourhoods
    N(u) - v and N(v) - u are nested or equal is skipped before any solve:
    its only nonempty move goes toward the smaller Perron entry, so the check
    would be inapplicable. Otherwise the graph is solved once, the pair is
    oriented so that x(u) >= x(v) - PERRON_TIE_TOL, and only then is the
    moved set drawn from N(v) - N(u), so every solve makes one applicable
    check."""
    _check_run(trials, max_n, 4)
    rng = random.Random(seed)
    report = FuzzReport()
    while report.applicable < trials:
        report.trials += 1
        n = rng.randint(4, max_n)
        g = random_connected_graph(rng, n)
        u, v = rng.sample(range(n), 2)
        nu, nv = g.adj[u] & ~(1 << v), g.adj[v] & ~(1 << u)
        if (nu & nv) in (nu, nv):
            continue
        host = spectral_radius(g)
        if host.perron[u] < host.perron[v] - PERRON_TIE_TOL:
            u, v = v, u
        pool = vertices_of(g.adj[v] & ~g.adj[u] & ~(1 << u))
        chosen = [w for w in pool if rng.random() < 0.6] or [pool[0]]
        report.applicable += 1
        try:
            check = _rotation_check(g, RotationSpec(u, v, mask_of(chosen)), host)
        except ViolationError as exc:
            report.violations.append(str(exc))
            continue
        assert check.rho_after is not None
        report.min_margin = min(report.min_margin, check.rho_after - check.rho_before)
        if check.result_connected is False:
            report.disconnected_results += 1
    return report


def fuzz_subgraph_monotonicity(trials: int, seed: int, max_n: int = 10) -> FuzzReport:
    """Random (G, G-e) and (G, G-v) pairs, G of order 3 to max_n; rho must
    strictly decrease.

    G is solved once per trial, and both subgraphs are decided against that
    solve, each on its own: a violation in one still checks the other, and
    the trial counts once. G - v keeps G's order: deleting the victim's
    edges leaves it isolated, an identity-embedded subgraph with the rho of
    G - v."""
    _check_run(trials, max_n, 3)
    rng = random.Random(seed)
    report = FuzzReport()
    while report.applicable < trials:
        report.trials += 1
        n = rng.randint(3, max_n)
        g = random_connected_graph(rng, n)
        host = spectral_radius(g)
        e = rng.choice(sorted(g.edges()))
        victim = rng.randrange(n)
        isolated = remove_edges(g, [(victim, w) for w in vertices_of(g.adj[victim])])
        for h in (remove_edges(g, [e]), isolated):
            try:
                check = _subgraph_check(h, host)
            except ViolationError as exc:
                report.violations.append(str(exc))
                continue
            report.min_margin = min(report.min_margin, check.margin)
        report.applicable += 1
    return report
