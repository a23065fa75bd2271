"""Pure-Python bitset kernels (fallback for the compiled extension).

Same contract as specconn._kernels: adjacency is a sequence of neighbor
bitmasks, vertex sets are int bitmasks. Mode codes for the cut search:
0 classic, 1 component-count, 2 good-neighbor, 3 good-neighbor+components.
"""

from itertools import combinations
from math import sqrt

BACKEND = "pure"
MAX_N = 64


def _check_order(adj, n):
    # the same input errors the C kernels raise
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    if len(adj) < n:
        raise ValueError(f"adj has {len(adj)} rows, fewer than n = {n}")


def components_masks(adj, n, removed=0):
    _check_order(adj, n)
    full = ((1 << n) - 1) & ~removed
    comps = []
    rem = full
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & full & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _component_count_reaches(adj, surv, r):
    count = 0
    rem = surv
    while rem:
        count += 1
        if count >= r:
            return True
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & surv & ~comp
            comp |= frontier
        rem &= ~comp
    return count >= r


def cut_valid(adj, n, fmask, g, r, mode):
    _check_order(adj, n)
    return _cut_valid(adj, n, fmask, g, r, mode)


def _cut_valid(adj, n, fmask, g, r, mode):
    full = (1 << n) - 1
    surv = full & ~fmask
    if mode == 0:
        if surv.bit_count() == 1:
            return True
        return _disconnected(adj, surv)
    if mode == 1:
        if surv.bit_count() < r:
            return True
        return _component_count_reaches(adj, surv, r)
    # good-neighbor modes require a nonempty proper cut
    if not fmask or not surv:
        return False
    if g:
        f = surv
        while f:
            low = f & -f
            if (adj[low.bit_length() - 1] & surv).bit_count() < g:
                return False
            f ^= low
    need = 2 if mode == 2 else r
    return _component_count_reaches(adj, surv, need)


def _disconnected(adj, surv):
    return bool(surv) and _component_count_reaches(adj, surv, 2)


def min_cut_search(adj, n, g, r, mode):
    _check_order(adj, n)
    lo = 0 if mode in (0, 1) else 1
    hi = n + 1 if mode == 1 else n
    if mode in (2, 3):
        # every survivor keeps g neighbours, so each of the >= need
        # components has >= g + 1 vertices: no cut exceeds n - need*(g+1)
        need = 2 if mode == 2 else r
        hi = min(hi, n - need * (g + 1) + 1)
    for size in range(lo, hi):
        for combo in combinations(range(n), size):
            fmask = 0
            for v in combo:
                fmask |= 1 << v
            if _cut_valid(adj, n, fmask, g, r, mode):
                return fmask
    return -1


def power_iteration(adj, n, comp_mask, tol, max_iter):
    """Dominant adjacency eigenpair of one connected component.

    Shifted power iteration on A+I; returns (rho, x, iterations, residual,
    converged) with x listed over the component's vertices in ascending
    order, unit Euclidean norm.
    """
    _check_order(adj, n)
    if not comp_mask or comp_mask >> n:
        raise ValueError("comp_mask must be a nonempty subset of the n vertices")
    vs = []
    m = comp_mask
    while m:
        low = m & -m
        vs.append(low.bit_length() - 1)
        m ^= low
    size = len(vs)
    if size == 1:
        return 0.0, [1.0], 0, 0.0, True
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[w] for w in _bit_positions(adj[v] & comp_mask)] for v in vs]
    x = [1.0 / sqrt(size)] * size
    rho = 0.0
    resid = 0.0
    for it in range(1, max_iter + 1):
        z = [0.0] * size
        for i, row in enumerate(nbrs):
            acc = 0.0
            for j in row:
                acc += x[j]
            z[i] = acc
        rho = 0.0
        for i in range(size):
            rho += x[i] * z[i]
        resid = 0.0
        for i in range(size):
            d = z[i] - rho * x[i]
            if d < 0.0:
                d = -d
            if d > resid:
                resid = d
        if resid <= tol * max(1.0, rho):
            return rho, x, it, resid, True
        norm = 0.0
        for i in range(size):
            z[i] += x[i]
            norm += z[i] * z[i]
        norm = sqrt(norm)
        for i in range(size):
            x[i] = z[i] / norm
    return rho, x, max_iter, resid, False


def _bit_positions(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
