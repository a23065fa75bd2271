"""Kernel backend selection.

The hot loops (flood fill, the two cut searches, power iteration) exist
twice: a hand-written C extension (specconn._kernels, built from
_kernels.c by setup.py) and a pure-Python fallback (specconn._kernels_py),
both positional-only, with identical results and the same ValueError for
bad input (an order outside 1..64, a cut search past SEARCH_MAX_N, a
negative g or r, a cut mode code outside 0..3, too few rows), checked in
that order. The mode codes, and the two bits of them that both cut searches
read, are connectivity.CutMode's. The compiled version is used when
importable; set SPECCONN_PURE=1 to force the fallback.

cut_valid, whether one set is a valid cut, exists once, in _kernels_py, on
both backends: it is the reference predicate that both cut searches are
tested against, and connectivity.is_valid_cut's only kernel.

The two cut searches reach the same certificate by different routes. The C
kernel tests candidate cuts one at a time, by size and lexicographically
within a size, and stops at the first valid one. The pure kernel evaluates
the validity predicate for all 2^n survivor sets at once with bitwise
operations on 2^n-bit integers, then reads the least valid cut of the
smallest size off those bits. Both reject n > SEARCH_MAX_N.

power_iteration(adj, n, comp_mask, tol, max_iter, threshold) returns the
dominant eigenpair of A on comp_mask with its Collatz-Wielandt bracket
[lower, upper], which holds rho whatever the iterate; a threshold other
than NaN stops the iteration at the first bracket that excludes it. The
_kernels_py docstring derives the bracket and its rounding slack, and both
backends return the same bits.

min_cut_search_many(adjs, n, g, r, mode) returns the min_cut_search of every
adjacency in adjs, all of order n. The C kernel loops over its search; the
pure kernel decides up to 2^15 >> n graphs at once in one set of truth
tables, a block of bits per graph, which saves most of its per-call cost.
"""

import os

from . import _kernels_py

if os.environ.get("SPECCONN_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND
SEARCH_MAX_N: int = _impl.SEARCH_MAX_N
components_masks = _impl.components_masks
cut_valid = _kernels_py.cut_valid
min_cut_search = _impl.min_cut_search
min_cut_search_many = _impl.min_cut_search_many
power_iteration = _impl.power_iteration
