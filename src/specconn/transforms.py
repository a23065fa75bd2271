"""Executable spectral-radius comparisons: edge rotation, subgraph
monotonicity, join rebalancing, plus randomized harnesses for hunting
counterexamples.

Each check raises ViolationError if a strict inequality that must hold
fails by more than the safety margin. The margins sit two orders above the
eigensolver tolerance so a violation means a genuine counterexample (or
solver bug), not float noise.

The rotation and monotonicity checks decide the other graph by its
Collatz-Wielandt bracket (spectral.rho_bounds) against the host's own
bracket end: the rotated graph against the host's upper bound plus
STRICT_MARGIN, the subgraph against the host's lower bound minus
STRICT_MARGIN. A bracket that clears that threshold is a certified pass on
both sides, and the check reports its bound and a margin that is a
certified lower bound on the true gap. Otherwise a loose host is solved to
convergence and the check is made again on it; on a converged host, the
other graph is solved to convergence too and the two converged rhos are
compared as plain floats, and a violation reports those values. Either way
a check passes exactly when the comparison of the two converged rhos
passes.

The public checks solve the host to convergence. The fuzz harnesses solve
it only to HOST_TOL, since their decisions need no more than the host's
bracket and the Perron order of one vertex pair, and converge it only for a
check whose bracket does not decide or a pair whose entries are too close
to order. A host whose rho lies outside its own bracket is a solver fault,
and the checks report it as a violation.
"""

import random
from dataclasses import dataclass, field
from typing import Iterator

from .graphs import (
    MAX_VERTICES,
    Graph,
    is_connected,
    mask_of,
    remove_edges,
    require_vertices,
    vertices_of,
)
from .families import Shape
from .spectral import (
    DEFAULT_TOL,
    SpectralResult,
    ViolationError,
    quotient_spectral_radius,
    rho_bounds,
    spectral_radius,
)

STRICT_MARGIN = 1e-10
PERRON_TIE_TOL = 1e-12
# the fuzz harnesses' host tolerance: about 8 iterations per host at n <= 16
# against 28 at DEFAULT_TOL
HOST_TOL = 1e-4


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
    u, v, moved = spec.u, spec.v, spec.moved
    rows = list(g.adj)
    rows[u] |= moved
    rows[v] &= ~moved
    for w in vertices_of(moved):
        rows[w] = rows[w] & ~(1 << v) | 1 << u
    return Graph(g.n, tuple(rows))


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


class _Host:
    """A check's host graph g and its spectral_radius, solved at tol and
    solved again at DEFAULT_TOL the first time a check needs it converged."""

    def __init__(self, g: Graph, tol: float = DEFAULT_TOL) -> None:
        self.g = g
        self.tol = tol
        self.result = spectral_radius(g, tol)

    def converged(self) -> SpectralResult:
        if self.tol != DEFAULT_TOL:
            self.result, self.tol = spectral_radius(self.g), DEFAULT_TOL
        return self.result

    def solves(self) -> Iterator[SpectralResult]:
        """The current result, then the converged one if that is another
        solve, each once its rho is seen to lie in its bracket."""
        yield _in_bracket(self.result)
        if self.tol != DEFAULT_TOL:
            yield _in_bracket(self.converged())


def _in_bracket(host: SpectralResult) -> SpectralResult:
    """host, once its rho is seen to lie in its own bracket (to within
    STRICT_MARGIN), as a Rayleigh quotient must; a solver fault otherwise."""
    if not host.lower - STRICT_MARGIN <= host.rho <= host.upper + STRICT_MARGIN:
        raise ViolationError(
            f"host rho {host.rho!r} lies outside its bracket "
            f"[{host.lower!r}, {host.upper!r}]"
        )
    return host


@dataclass(frozen=True)
class RotationCheck:
    """rho_before and the Perron entries are the host's values (converged
    for check_rotation_increase). rho_after is a lower bound on rho after
    the rotation when certified (the Collatz-Wielandt bound that cleared the
    host's upper bound plus STRICT_MARGIN), else the converged rho; None
    when inapplicable. margin is rho_after minus the host's upper bound when
    certified, a certified lower bound on the increase, else rho_after -
    rho_before. result_connected is read off the rotated graph's component
    flood."""

    applicable: bool
    rho_before: float
    rho_after: float | None
    x_u: float
    x_v: float
    result_connected: bool | None
    certified: bool = False
    margin: float | None = None


def check_rotation_increase(g: Graph, spec: RotationSpec) -> RotationCheck:
    """If x(u) >= x(v), rotating strictly increases the spectral radius.

    g must be connected: elsewhere the Perron vector is 0 off the dominant
    component and says nothing about the pair. Near-ties
    (|x(u)-x(v)| <= 1e-12, e.g. symmetric vertices) count as satisfying the
    hypothesis. When x(u) < x(v) the check is inapplicable and nothing is
    asserted. Rotations that disconnect the result are evaluated anyway
    (rho = max over components) and flagged via result_connected.
    """
    if not is_connected(g):
        raise ValueError("the host graph must be connected")
    spec.validate(g)
    return _rotation_check(_Host(g), spec)


def _rotation_check(host: _Host, spec: RotationSpec) -> RotationCheck:
    """check_rotation_increase for a spec already validated on the
    connected host.g. A loose host whose bracket does not decide is
    converged, and the whole check, Perron order included, is made again
    on it as check_rotation_increase makes it."""
    star = None
    for res in host.solves():
        x_u, x_v = res.perron[spec.u], res.perron[spec.v]
        if x_u < x_v - PERRON_TIE_TOL:
            return RotationCheck(False, res.rho, None, x_u, x_v, None)
        if star is None:
            star = rotate(host.g, spec)
        _, after, certified, comps = _decide(star, res.upper + STRICT_MARGIN, True)
        if certified:
            return RotationCheck(True, res.rho, after, x_u, x_v, comps == 1, True,
                                 after - res.upper)
    if not after > res.rho + STRICT_MARGIN:
        raise ViolationError(
            f"rotation failed to increase rho: {res.rho!r} -> {after!r} "
            f"(u={spec.u}, v={spec.v}, moved={vertices_of(spec.moved)})"
        )
    return RotationCheck(True, res.rho, after, x_u, x_v, comps == 1, False, after - res.rho)


@dataclass(frozen=True)
class MonotonicityCheck:
    """rho_super is the host's rho (converged for
    check_subgraph_monotonicity). rho_sub is an upper bound on the
    subgraph's rho when certified (the Collatz-Wielandt bound that cleared
    the host's lower bound minus STRICT_MARGIN), and margin is then that
    lower bound minus rho_sub, a certified lower bound on
    rho(host) - rho(subgraph). Otherwise rho_sub is the subgraph's converged
    rho and margin = rho_super - rho_sub."""

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
    return _subgraph_check(h, _Host(g))


def _subgraph_check(h: Graph, host: _Host) -> MonotonicityCheck:
    """check_subgraph_monotonicity for a proper subgraph h of the connected
    host.g. A loose host whose bracket does not decide is converged, and the
    check is made again on it as check_subgraph_monotonicity makes it."""
    for res in host.solves():
        _, sub, certified, _ = _decide(h, res.lower - STRICT_MARGIN, False)
        if certified:
            return MonotonicityCheck(sub, res.rho, res.lower - sub, True)
    if not sub < res.rho - STRICT_MARGIN:
        raise ViolationError(
            f"proper subgraph did not lose spectral radius: {sub!r} vs {res.rho!r}"
        )
    return MonotonicityCheck(sub, res.rho, res.rho - sub, False)


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
    """min_margin is the least margin of the passing checks: a certified
    lower bound on the gap to the true host rho where the bracket decided,
    the difference of the two converged rhos elsewhere."""

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
    would be inapplicable. Otherwise the graph is solved to HOST_TOL, the
    pair is oriented so that x(u) >= x(v) - PERRON_TIE_TOL, and only then is
    the moved set drawn from N(v) - N(u). The loose entries orient the pair
    only when they differ by more than 10 * HOST_TOL; closer ones are read
    off the converged host. A trial whose check converges the host and finds
    the order reversed is not counted as applicable."""
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
        host = _Host(g, HOST_TOL)
        x = host.result.perron
        if abs(x[u] - x[v]) <= 10 * HOST_TOL:
            x = host.converged().perron
        if x[u] < x[v] - PERRON_TIE_TOL:
            u, v = v, u
        pool = vertices_of(g.adj[v] & ~g.adj[u] & ~(1 << u))
        chosen = [w for w in pool if rng.random() < 0.6] or [pool[0]]
        try:
            check = _rotation_check(host, RotationSpec(u, v, mask_of(chosen)))
        except ViolationError as exc:
            report.applicable += 1
            report.violations.append(str(exc))
            continue
        if not check.applicable:
            continue
        report.applicable += 1
        assert check.margin is not None
        report.min_margin = min(report.min_margin, check.margin)
        if check.result_connected is False:
            report.disconnected_results += 1
    return report


def fuzz_subgraph_monotonicity(trials: int, seed: int, max_n: int = 10) -> FuzzReport:
    """Random (G, G-e) and (G, G-v) pairs, G of order 3 to max_n; rho must
    strictly decrease.

    G is solved to HOST_TOL once per trial, and both subgraphs are decided
    against that solve (converged at most once, when a bracket does not
    decide), each on its own: a violation in one still checks the other, and
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
        host = _Host(g, HOST_TOL)
        e = rng.choice(list(g.edges()))
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
