"""Pure-Python bitset kernels (fallback for the compiled extension).

Same contract as specconn._kernels: adjacency is a sequence of neighbor
bitmasks, vertex sets are int bitmasks. Mode codes for the cut search:
0 classic, 1 component-count, 2 good-neighbor, 3 good-neighbor+components.

The cut search does not test candidate sets one at a time. It decides every
survivor set S = V - F at once. Bit p stands for the set S(p) of the
vertices v with bit n - 1 - v of p set, and a "truth table" is a 2^n-bit
int whose bit p tells whether a predicate holds at S(p). The tables xs[v]
(v in S(p)) and layer[s] (|S(p)| = s) are built once per order and cached.
Then, with one big-int operation per step:

- mode 0 accepts a single survivor (layer[1]), mode 1 fewer than r
  survivors (layer[0] .. layer[r - 1]);
- modes 2 and 3 drop every S in which some member has fewer than g
  neighbours in S, by a counter per vertex that saturates at g;
- ">= need components" floods, need - 1 times, the component of the least
  vertex of S not flooded yet, and asks whether a vertex is left.

Within one layer, vertex 0 is the highest bit of p, so a smaller p means a
lexicographically smaller cut: the lowest set bit of valid & layer[n - size]
is the lexicographically least valid cut of that size, the certificate the
C kernel's size-by-size loop returns. The tables have 2^n bits, so the
search is capped at SEARCH_MAX_N vertices, as in the C kernel.
"""

from math import sqrt

BACKEND = "pure"
MAX_N = 64
SEARCH_MAX_N = 20

_tables_cache = {}


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
    """First valid cut of least size in lexicographic order, or -1.

    Bit-parallel over every survivor set at once: see the module docstring.
    """
    _check_order(adj, n)
    if n > SEARCH_MAX_N:
        raise ValueError(
            f"exhaustive cut search is capped at {SEARCH_MAX_N} vertices, got n = {n}"
        )
    lo = 0 if mode in (0, 1) else 1
    hi = n + 1 if mode == 1 else n
    need = 2 if mode in (0, 2) else r
    if mode in (2, 3):
        # every survivor keeps g neighbours, so each of the >= need
        # components has >= g + 1 vertices: no cut exceeds n - need*(g+1)
        hi = min(hi, n - need * (g + 1) + 1)
    if hi <= lo:
        return -1
    xs, layer = _tables(n)
    full = (1 << n) - 1
    nbrs = [_bit_positions(adj[v] & full) for v in range(n)]
    # survivor counts n - size, largest first: the smallest cuts first
    counts = range(n - lo, n - hi, -1)
    active = 0
    for s in counts:
        active |= layer[s]
    valid = 0
    if mode == 0:
        valid = layer[1]
    elif mode == 1:
        for s in range(min(r, n + 1)):
            valid |= layer[s]
    elif g > 0:
        active &= ~_short_of_neighbours(xs, nbrs, g)
    valid |= _components_reach(xs, nbrs, active, need)
    for s in counts:
        hits = valid & layer[s]
        if hits:
            p = (hits & -hits).bit_length() - 1
            # vertex v is bit n - 1 - v of p: reversing the bits gives S
            return full & ~int(format(p, f"0{n}b")[::-1], 2)
    return -1


def _tables(n):
    """(xs, layer) for order n, cached: xs[v] has bit p set iff v is in
    S(p), and layer[s] has bit p set iff |S(p)| = s."""
    tables = _tables_cache.get(n)
    if tables is None:
        xs = []
        for v in range(n):
            # period 2^(b+1) for b = n - 1 - v: 2^b zeros, then 2^b ones
            period = 2 << (n - 1 - v)
            x = ((1 << (period >> 1)) - 1) << (period >> 1)
            while period < 1 << n:
                x |= x << period
                period <<= 1
            xs.append(x)
        layer = [1]
        for b in range(n):
            # bit b of p clear: the old count; set: one more
            layer = [low | high << (1 << b) for low, high in zip(layer + [0], [0] + layer)]
        tables = _tables_cache[n] = (xs, layer)
    return tables


def _short_of_neighbours(xs, nbrs, g):
    """Sets S in which some member has fewer than g neighbours in S."""
    short = 0
    for v, row in enumerate(nbrs):
        if len(row) < g:
            short |= xs[v]
            continue
        # count[j]: v has at least j + 1 neighbours among those seen so far
        count = [0] * g
        for u in row:
            x = xs[u]
            for j in range(g - 1, 0, -1):
                count[j] |= count[j - 1] & x
            count[0] |= x
        short |= xs[v] & ~count[g - 1]
    return short


def _components_reach(xs, nbrs, active, need):
    """Sets S among `active` whose induced subgraph has >= need components.

    Each of need - 1 rounds floods, in every S at once, the component of
    the least vertex of S not yet flooded; S has >= need components iff a
    vertex is left after the last round.
    """
    live = [x & active for x in xs]
    n = len(xs)
    for _ in range(need - 1):
        taken = 0
        reach = []
        for x in live:
            reach.append(x & ~taken)
            taken |= x
        if not taken:
            return 0
        # sweeps alternate direction: a path numbered either way floods in one
        order = range(n)
        changed = True
        while changed:
            changed = False
            for v in order:
                acc = reach[v]
                for u in nbrs[v]:
                    acc |= reach[u]
                acc &= live[v]
                if acc != reach[v]:
                    reach[v] = acc
                    changed = True
            order = order[::-1]
        live = [x & ~c for x, c in zip(live, reach)]
    left = 0
    for x in live:
        left |= x
    return left


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
