"""Pure-Python bitset kernels (fallback for the compiled extension).

components_masks, min_cut_search, min_cut_search_many and power_iteration
have the same positional-only contract as specconn._kernels, with the same
results and the same ValueError messages. cut_valid exists only here: it
is the one-set reference predicate that both backends' searches are tested
against. Adjacency is a sequence of neighbor bitmasks, vertex sets are int
bitmasks. The cut mode codes are connectivity.CutMode's, 0..3, whose
docstring states what their two bits mean; any other code is a
ValueError. The checks run in one order: n (and the search's order cap),
then g and r, either of which is a ValueError when negative, then the mode,
then the rows. vertices_of, the positions of a mask's set bits read off
per-byte tables, is the package's one bit decoder: `graphs` exports it.

The cut search does not test candidate sets one at a time. It decides every
survivor set S = V - F at once. Bit p stands for the set S(p) of the
vertices v with bit n - 1 - v of p set, and a "truth table" is a 2^n-bit
int whose bit p tells whether a predicate holds at S(p). The tables xs[v]
(v in S(p)) and layer[s] (|S(p)| = s) are built once per order and cached.
The search reads g, r and the size range off the mode's two bits
(_decode), then runs one path, with one big-int operation per step:

- fewer than r survivors (layer[0] .. layer[r - 1]) is a cut, which only
  the sizes of a search without bit 1 reach;
- with g > 0, every S in which some member has fewer than g neighbours in
  S is dropped, by a counter per vertex that saturates at g;
- ">= r components" floods, r - 1 times, the component of the least
  vertex of S not flooded yet, and asks whether a vertex is left.

Within one layer, vertex 0 is the highest bit of p, so a smaller p means a
lexicographically smaller cut: the lowest set bit of valid & layer[n - size]
is the lexicographically least valid cut of that size, the certificate the
C kernel's size-by-size loop returns. The tables have 2^n bits, so the
search is capped at SEARCH_MAX_N vertices, as in the C kernel.

min_cut_search_many decides a batch of graphs of one order in the same
tables, widened: graph i owns the block of bits [i*B, i*B + 2^n), with
B = max(2^n, 8) so that every block starts on a byte. xs and the layers are
repeated in every block, and each neighbour u of v that is one in only some
graphs of the batch carries a gate, the blocks of those graphs: the counter
and the floods take u's table only within its gate. Each graph's cut is then
read off its own block as above. A batch is at most TABLE_BITS bits wide,
_batch_width(n) graphs (2^15 >> n for n >= 3); longer lists are cut into
batches of that width. min_cut_search is the batch of one, which has no
gates and no repeated tables.

power_iteration(adj, n, comp_mask, tol, max_iter, threshold) makes one
pass over the rows per iteration: row i gives z_i = (Ax)_i, then
rho += x_i z_i, y_i = z_i + x_i and norm += y_i^2. These
are the floating-point operations of the five loops the C kernel runs (one
each for z, rho, the residual, y with its norm, and x = y / sqrt(norm)), in
the same order, so the results are the same bits as those loops give in
Python. Only the test ||r||_inf <= t, r = z - rho x and t = tol * max(1, rho),
needs the finished rho and a second loop, which stops at the first entry
over t; the full maximum (_residual) is taken only where it is returned.

power_iteration also returns the Collatz-Wielandt bracket of an iterate x:
for a nonnegative matrix B and x > 0,

    min_i (Bx)_i / x_i  <=  rho(B)  <=  max_i (Bx)_i / x_i,

since Bx >= m x gives rho(B) >= m and Bx <= M x gives rho(B) <= M, whether
or not B is irreducible. B is A on comp_mask, connected or not. The lower
bound needs only x >= 0 and x != 0, the minimum taken over the support of
x. The shifted iteration keeps x > 0, as y = (A + I) x >= x entrywise, so an
entry leaves the support only by underflowing to 0.0, which happens in a
mask whose parts lie far below the dominant one; then the upper bound is
inf. The bounds are exact for the stored x; only z and the quotient round.
z_i is a sum of at most size - 1 nonnegative doubles, which rounds by at
most (size - 2) u relatively (u = eps / 2; a sum of subnormals is exact),
and the division adds u, so each computed quotient is within about
(size - 1) u of z_i / x_i, relatively. The bracket widens the least
quotient and the greatest by rel = 4 size eps = 8 size u times themselves:

    lower = low - rel low,   upper = high + rel high,

and the two roundings of each widening cost about one more u, which leaves
the bracket wider than the rounding error by a factor of about 8. The
bracket decides rho against the threshold once lower > threshold or
upper < threshold, and the iteration stops there. The C kernel
takes the same quotients and the same minimum and maximum (exact
operations), so the bracket has the same bits on both backends.
"""

from functools import reduce
from math import inf, sqrt
from operator import and_, getitem, itemgetter, or_, truediv
from sys import float_info

BACKEND = "pure"
MAX_N = 64
SEARCH_MAX_N = 20
# a batch of the cut search holds at most this many bits per truth table
TABLE_BITS = 1 << 15

_tables_cache = {}


def _byte_table(low):
    """The positions of the set bits of each byte value b when b stands for
    bits low .. low + 7 of a mask."""
    table = [()]
    for p in range(low, low + 8):
        # the values with highest bit p: those below it, with p appended
        table += [bits + (p,) for bits in table]
    return table


# _BYTE_BITS[i][b]: the positions of the set bits of byte value b when it is
# byte i of a mask, one 256-entry table for each byte of a 64-bit word
_BYTE_BITS = [_byte_table(low) for low in range(0, 64, 8)]
_WORD = (1 << 64) - 1


def vertices_of(mask):
    """The positions of the set bits of a nonnegative int, ascending."""
    if mask < 256:
        if mask < 0:
            raise ValueError(f"mask must be nonnegative, got {mask}")
        return _BYTE_BITS[0][mask]
    if mask < 65536:
        return _BYTE_BITS[0][mask & 255] + _BYTE_BITS[1][mask >> 8]
    if mask > _WORD:
        return vertices_of(mask & _WORD) + tuple(p + 64 for p in vertices_of(mask >> 64))
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return sum(map(getitem, _BYTE_BITS, data), ())


def _check_order(n):
    # the _check_* helpers raise the C kernels' input errors, in their order
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def _check_thresholds(g, r):
    if g < 0:
        raise ValueError(f"g must be >= 0, got {g}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")


def _check_mode(mode):
    if mode not in (0, 1, 2, 3):
        raise ValueError(f"mode must be in 0..3, got {mode}")


def _check_rows(adj, n):
    if len(adj) < n:
        raise ValueError(f"adj has {len(adj)} rows, fewer than n = {n}")


def _check_search(n, g, r, mode):
    _check_order(n)
    if n > SEARCH_MAX_N:
        raise ValueError(
            f"exhaustive cut search is capped at {SEARCH_MAX_N} vertices, got n = {n}"
        )
    _check_thresholds(g, r)
    _check_mode(mode)


def components_masks(adj, n, removed=0, /):
    _check_order(n)
    _check_rows(adj, n)
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


def cut_valid(adj, n, fmask, g, r, mode, /):
    """Whether deleting fmask is a valid cut in the given mode.

    The reference predicate: each of the four modes by its own definition
    (connectivity.CutMode), which the searches are tested against."""
    _check_order(n)
    _check_thresholds(g, r)
    _check_mode(mode)
    _check_rows(adj, n)
    full = (1 << n) - 1
    surv = full & ~fmask
    count = len(components_masks(adj, n, fmask))
    if mode == 0:
        return surv.bit_count() == 1 or count >= 2
    if mode == 1:
        return surv.bit_count() < r or count >= r
    # good-neighbor modes require a nonempty proper cut
    if not fmask or not surv:
        return False
    for v in vertices_of(surv):
        if (adj[v] & surv).bit_count() < g:
            return False
    return count >= (2 if mode == 2 else r)


def min_cut_search(adj, n, g, r, mode, /):
    """First valid cut of least size in lexicographic order, or -1.

    The batch of one of min_cut_search_many: see the module docstring.
    """
    _check_search(n, g, r, mode)
    _check_rows(adj, n)
    return _search_batch((adj,), n, *_decode(n, g, r, mode))[0]


def min_cut_search_many(adjs, n, g, r, mode, /):
    """[min_cut_search(adj, n, g, r, mode) for adj in adjs], deciding up to
    _batch_width(n) graphs of order n in one set of truth tables."""
    _check_search(n, g, r, mode)
    adjs = list(adjs)
    for adj in adjs:
        _check_rows(adj, n)
    decoded = _decode(n, g, r, mode)
    width = _batch_width(n)
    out = []
    for start in range(0, len(adjs), width):
        out += _search_batch(adjs[start:start + width], n, *decoded)
    return out


def _block_bits(n):
    # a graph's block of a batch: its 2^n bits, padded to start on a byte
    return max(1 << n, 8)


def _batch_width(n):
    """Graphs of order n decided in one set of truth tables (2^15 >> n for
    n >= 3)."""
    return max(1, TABLE_BITS // _block_bits(n))


def _decode(n, g, r, mode):
    """(g, r, lo, hi) of a cut search: its thresholds as the mode's two bits
    (connectivity.CutMode) leave them, and its cut sizes lo .. hi - 1."""
    # clamped as in the C kernel: on n <= SEARCH_MAX_N vertices no survivor
    # keeps SEARCH_MAX_N + 1 neighbours and no cut leaves that many
    # components, so a larger g or r gives the same cut
    r = min(r, SEARCH_MAX_N + 1) if mode & 1 else 2
    if not mode & 2:
        return 0, r, 0, n + 1
    g = min(g, SEARCH_MAX_N + 1)
    # every survivor keeps g neighbours, so each of the >= r components has
    # >= g + 1 vertices: no cut exceeds n - r*(g+1)
    return g, r, 1, min(n, n - r * (g + 1) + 1)


def _search_batch(adjs, n, g, r, lo, hi):
    """The cuts of one batch of a search _decode gave g, r, lo and hi: see
    the module docstring."""
    if hi <= lo:
        return [-1] * len(adjs)
    xs, layer = _tables(n)
    b = len(adjs)
    nbytes = _block_bits(n) >> 3
    common, gated = _neighbours(adjs, n)
    # survivor counts n - size, largest first: the smallest cuts first
    counts = range(n - lo, n - hi, -1)
    active = 0
    for s in counts:
        active |= layer[s]
    # fewer than r survivors is a cut: with bit 1 the sizes never leave so few
    valid = 0
    for s in range(min(r, n + 1)):
        valid |= layer[s]
    if b > 1:
        active, valid = _replicate(active, b, nbytes), _replicate(valid, b, nbytes)
        xs = [_replicate(x, b, nbytes) for x in xs]
    if g > 0:
        active &= ~_short_of_neighbours(xs, common, gated, g)
    valid |= _components_reach(xs, common, gated, active, r)
    if b == 1:
        blocks = [valid]
    else:
        data = valid.to_bytes(b * nbytes, "little")
        blocks = [
            int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)
        ]
    full = (1 << n) - 1
    spec = f"0{n}b"
    out = []
    for own in blocks:
        for s in counts:
            hits = own & layer[s]
            if hits:
                p = (hits & -hits).bit_length() - 1
                # vertex v is bit n - 1 - v of p: reversing the bits gives S
                out.append(full & ~int(format(p, spec)[::-1], 2))
                break
        else:
            out.append(-1)
    return out


def _replicate(x, b, nbytes):
    """x, a table of one graph, in the blocks of all b graphs of a batch."""
    return int.from_bytes(x.to_bytes(nbytes, "little") * b, "little")


def _neighbours(adjs, n):
    """(common, gated) of a batch: common[v] lists the neighbours u of v in
    every graph, and gated[v] pairs each neighbour u of v in only some graphs
    with the blocks of those graphs, by ascending u.

    The rows are symmetric, so the gate of (v, u) is that of (u, v): it is
    built once, at the lesser of the two, and handed to the greater."""
    full = (1 << n) - 1
    if len(adjs) == 1:
        adj = adjs[0]
        return [vertices_of(adj[v] & full) for v in range(n)], [()] * n
    step = _block_bits(n)
    nbytes = step >> 3
    rep = _replicate(1, len(adjs), nbytes)
    common = []
    # gated[v] already holds the gates of its lesser neighbours when v comes
    gated = [[] for _ in range(n)]
    for v in range(n):
        rows = [adj[v] & full for adj in adjs]
        every = reduce(and_, rows)
        common.append(vertices_of(every))
        # the neighbours above v in only some graphs
        later = reduce(or_, rows) & ~every & -(1 << v)
        if later:
            packed = int.from_bytes(
                b"".join([row.to_bytes(nbytes, "little") for row in rows]), "little"
            )
            for u in vertices_of(later):
                has = packed >> u & rep
                gate = (has << step) - has
                gated[v].append((u, gate))
                gated[u].append((v, gate))
    return common, gated


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


def _short_of_neighbours(xs, common, gated, g):
    """Sets S in which some member has fewer than g neighbours in S."""
    short = 0
    steps = range(g - 1, 0, -1)
    for v, x_v in enumerate(xs):
        gates = gated[v]
        if len(common[v]) + len(gates) < g:
            short |= x_v
            continue
        # count[j]: v has at least j + 1 neighbours among those seen so far
        count = [0] * g
        for u in common[v]:
            x = xs[u]
            for j in steps:
                count[j] |= count[j - 1] & x
            count[0] |= x
        for u, gate in gates:
            x = xs[u] & gate
            for j in steps:
                count[j] |= count[j - 1] & x
            count[0] |= x
        short |= x_v & ~count[g - 1]
    return short


def _components_reach(xs, common, gated, active, need):
    """Sets S among `active` whose induced subgraph has >= need components.

    Each of need - 1 rounds floods, in every S at once, the component of
    the least vertex of S not yet flooded; S has >= need components iff a
    vertex is left after the last round. v takes the flood of each u in
    common[v], and of each (u, gate) in gated[v] within gate.
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
                for u in common[v]:
                    acc |= reach[u]
                # tested first: a batch of one has no gates, and an empty
                # loop per vertex and sweep would cost it about 5%
                if gated[v]:
                    for u, gate in gated[v]:
                        acc |= reach[u] & gate
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


def power_iteration(adj, n, comp_mask, tol, max_iter, threshold, /):
    """Dominant adjacency eigenpair of one component, with its bracket.

    Shifted power iteration on A+I; returns (rho, x, iterations, residual,
    converged, lower, upper) with x a list of n floats indexed by vertex,
    0.0 off the component, unit Euclidean norm. Every loop visits the
    component's vertices in ascending order and takes adj[v] & comp_mask as
    v's neighbours. One pass over the rows per iteration, then the residual
    test, as the module docstring states.

    [lower, upper] is the Collatz-Wielandt bracket of the x that rho and the
    residual belong to (the returned x, except at the cap, which returns the
    next iterate as before). A threshold other than NaN stops the iteration
    at the first iteration whose bracket excludes it, with converged False,
    unless the residual test passes there first. With a NaN threshold the
    bracket is taken only where the iteration stops, and rho, x, iterations
    and residual are those of a run without one.
    """
    _check_order(n)
    _check_rows(adj, n)
    if not comp_mask or comp_mask >> n:
        raise ValueError("comp_mask must be a nonempty subset of the n vertices")
    size = comp_mask.bit_count()
    members = vertices_of(comp_mask)
    rows = [(v, vertices_of(adj[v] & comp_mask)) for v in members]
    x = [0.0] * n
    for v in members:
        x[v] = 1.0 / sqrt(size)
    if size == 1:
        return 0.0, x, 0, 0.0, True, 0.0, 0.0
    pick = itemgetter(*members)
    rel = 4.0 * size * float_info.epsilon
    decide = threshold == threshold
    z = [0.0] * n
    y = [0.0] * n
    rho = 0.0
    resid = 0.0
    lower, upper = 0.0, inf
    for it in range(1, max_iter + 1):
        # z = A x, rho = x.z, y = z + x and norm = y.y, each summed in row order
        rho = 0.0
        norm = 0.0
        for i, row in rows:
            acc = 0.0
            for j in row:
                acc += x[j]
            z[i] = acc
            xi = x[i]
            rho += xi * acc
            acc += xi
            y[i] = acc
            norm += acc * acc
        bound = tol * (rho if rho > 1.0 else 1.0)
        # the first entry of z - rho x over the bound fails the test, and so
        # does a NaN bound, as in the C kernel
        for i, _ in rows:
            d = z[i] - rho * x[i]
            if not d <= bound or -d > bound:
                break
        else:
            return (rho, x, it, _residual(z, x, rho), True) + _bracket(pick(z), pick(x), rel)
        if it == max_iter:
            # the return at the cap reports this residual with the next x
            resid = _residual(z, x, rho)
        if decide or it == max_iter:
            lower, upper = _bracket(pick(z), pick(x), rel)
            if lower > threshold or upper < threshold:
                return rho, x, it, _residual(z, x, rho), False, lower, upper
        norm = sqrt(norm)
        x = [v / norm for v in y]
    return rho, x, max_iter, resid, False, lower, upper


def _bracket(z, x, rel):
    """(lower, upper): the least and greatest z_i / x_i over the component,
    each widened by rel times itself (see the module docstring). An entry
    of x that underflowed to 0.0 leaves no upper bound."""
    if 0.0 in x:
        low = min([zi / xi for zi, xi in zip(z, x) if xi])
        return low - rel * low, inf
    quotients = list(map(truediv, z, x))
    low = min(quotients)
    high = max(quotients)
    return low - rel * low, high + rel * high


def _residual(z, x, rho):
    """max_i |z_i - rho x_i|, the infinity-norm residual."""
    resid = 0.0
    for i in range(len(z)):
        d = z[i] - rho * x[i]
        if d < 0.0:
            d = -d
        if d > resid:
            resid = d
    return resid
