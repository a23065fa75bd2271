"""Adjacency spectral radius, Perron vectors, and join-of-cliques quotients.

The eigensolver is a shifted power iteration (A+I) per connected component;
the shift keeps the dominant eigenvalue simple-signed so convergence is
linear for every adjacency matrix. A pendant-free join of cliques
(families.Shape) additionally gets an exact spectral radius from the secular
equation of its equitable partition, used to cross-check the iterative path.
"""

import math
import sys
from dataclasses import dataclass

from . import kernels
from .families import Shape
from .graphs import Graph, components, require_vertices

DEFAULT_TOL = 1e-12
TWIN_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the requested residual."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


class ViolationError(RuntimeError):
    """A strict spectral inequality that must hold was violated numerically."""


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair: rho, unit Perron vector, solver metadata.

    For disconnected input rho is the maximum over components and the vector
    is supported on the first dominant component (zero elsewhere), so strict
    positivity only holds for connected graphs. residual is the infinity norm
    of A*x - rho*x on the dominant component.

    lower and upper are the Collatz-Wielandt bracket of the returned
    iterates, each end the maximum over components, so that
    lower <= rho(g) <= upper holds at any tol, however loose. rho lies in
    the bracket too: it is the Rayleigh quotient of its component's
    iterate, a weighted mean of the ratios (Ax)_i / x_i the bracket spans.
    """

    rho: float
    perron: tuple[float, ...]
    iterations: int
    residual: float
    lower: float
    upper: float


def iteration_cap(n: int, tol: float) -> int:
    # no residual falls much below machine epsilon, so a smaller tol earns
    # no more iterations than epsilon does
    return max(1000, int(200 * n * -math.log(max(tol, sys.float_info.epsilon))))


def _checked_cap(n: int, tol: float) -> int:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return iteration_cap(n, tol)


def _solve(g: Graph, comp: int, tol: float, cap: int, threshold: float) -> tuple:
    """The kernel's power iteration on one component; ConvergenceError if
    it stopped at the cap with a bracket that still holds the threshold."""
    out = kernels.power_iteration(g.adj, g.n, comp, tol, cap, threshold)
    _, _, _, resid, ok, low, high = out
    if not (ok or low > threshold or high < threshold):
        raise ConvergenceError(
            f"no convergence after {cap} iterations (residual {resid:.3e})"
        )
    return out


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue with its Perron vector.

    rho is accurate to tol*max(1,rho); raises ConvergenceError if the
    iteration cap is hit (pathological tolerances only), and ValueError for
    a tol that is not positive and finite. The cap is 200 n ln(1/tol), at
    least 1000, with tol floored at machine epsilon: a tol of 1e-300 runs
    at most 36,043 iterations at n = 5 before it gives up.
    """
    cap = _checked_cap(g.n, tol)
    best = None
    lower = upper = 0.0
    for comp in components(g):
        rho, x, iters, resid, _, low, high = _solve(g, comp, tol, cap, math.nan)
        lower, upper = max(lower, low), max(upper, high)
        if best is None or rho > best[0]:
            best = (rho, x, iters, resid)
    assert best is not None
    rho, x, iters, resid = best
    return SpectralResult(rho, tuple(x), iters, resid, lower, upper)


@dataclass(frozen=True)
class RhoBounds:
    """Certified bounds lower <= rho(g) <= upper from a decision against a
    threshold t (rho_bounds).

    lower and upper are the greatest lower and the greatest upper
    Collatz-Wielandt bound over the components solved; upper is inf when a
    component whose lower bound cleared t stopped the solve before the
    rest. components counts the components of g.
    """

    lower: float
    upper: float
    components: int


def rho_bounds(g: Graph, threshold: float, tol: float = DEFAULT_TOL) -> RhoBounds:
    """Bounds on rho(g) from power iterations that stop once their
    Collatz-Wielandt bracket decides rho against the threshold.

    Each component is solved with the kernel's threshold: it stops at the
    first bracket that excludes the threshold, or at spectral_radius's
    convergence, whichever comes first. The first component whose lower
    bound clears the threshold decides rho(g) > threshold, and the rest are
    not solved. tol, the cap and their errors are spectral_radius's.
    """
    cap = _checked_cap(g.n, tol)
    comps = components(g)
    lower = upper = 0.0
    for i, comp in enumerate(comps):
        _, _, _, _, _, low, high = _solve(g, comp, tol, cap, threshold)
        lower, upper = max(lower, low), max(upper, high)
        if low > threshold:
            if i + 1 < len(comps):
                upper = math.inf
            break
    return RhoBounds(lower, upper, len(comps))


# ---------------------------------------------------------------------------
# join-of-cliques quotient

def quotient_spectral_radius(shape: Shape) -> float:
    """Exact rho of a pendant-free shape via its partition {core, part_1, ...}.

    The Perron vector is constant on each block: a on the core and b_j on a
    part of size p_j, with (rho - p_j + 1) b_j = s a. Substituting into the
    core row gives the secular equation f(rho) = 0 for

        f(x) = x - s + 1 - s * sum_j p_j / (x - p_j + 1),

    which is increasing and concave above max(p) - 1, where its only root is
    rho. Newton from the lower bound s + max(p) - 1 (K_{s+max p} is a
    subgraph) therefore climbs monotonically to the root.
    """
    if shape.pendant is not None:
        raise ValueError("the quotient spectral radius needs a shape without a pendant vertex")
    s, parts = shape.core, shape.parts
    if len(parts) == 1:
        return float(s + parts[0] - 1)
    x = float(s + max(parts) - 1)
    for _ in range(100):
        f, df = x - s + 1, 1.0
        for p in parts:
            w = s * p / (x - p + 1)
            f -= w
            df += w / (x - p + 1)
        step = f / df
        x -= step
        if -step <= 1e-15 * x:
            break
    return x


# ---------------------------------------------------------------------------
# Perron entry comparison

@dataclass(frozen=True)
class PerronComparison:
    """Structural classification of a vertex pair plus measured entries.

    relation is "nested" (neighborhood of v strictly inside u's, so
    x(u) > x(v)), "twin" (closed neighborhoods mutually contained, so
    x(u) = x(v)), or "incomparable" (no assertion).
    """

    relation: str
    x_u: float
    x_v: float


def perron_compare(g: Graph, u: int, v: int, tol: float = DEFAULT_TOL) -> PerronComparison:
    """Classify (u, v) by neighborhood containment and check the Perron order.

    The classification is purely structural; the measured entries are then
    required to respect it (ViolationError otherwise, which would indicate an
    eigensolver failure).
    """
    require_vertices(g, u, v)
    if u == v:
        raise ValueError("vertices must be distinct")
    comps = components(g)
    if len(comps) != 1:
        raise DisconnectedGraphError("Perron comparison needs a connected graph")
    res = spectral_radius(g, tol)
    x_u, x_v = res.perron[u], res.perron[v]
    nu = g.adj[u] & ~(1 << v)
    nv = g.adj[v] & ~(1 << u)
    if nu == nv:
        if abs(x_u - x_v) > TWIN_TOL * max(1.0, abs(x_u), abs(x_v)):
            raise ViolationError(
                f"twin vertices {u},{v} have unequal Perron entries {x_u} vs {x_v}"
            )
        return PerronComparison("twin", x_u, x_v)
    if nv & ~nu == 0:
        if not x_u > x_v:
            raise ViolationError(
                f"nested pair {u},{v} violates x({u}) > x({v}): {x_u} vs {x_v}"
            )
        return PerronComparison("nested", x_u, x_v)
    return PerronComparison("incomparable", x_u, x_v)
