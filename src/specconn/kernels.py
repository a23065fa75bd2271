"""Kernel backend selection.

The hot loops (flood fill, exhaustive cut search, power iteration) exist
twice: a hand-written C extension (specconn._kernels, built from
_kernels.c by setup.py) and a pure-Python fallback (specconn._kernels_py)
with identical signatures and results. The compiled version is used when
importable; set SPECCONN_PURE=1 to force the fallback.

The two cut searches reach the same certificate by different routes. The C
kernel tests candidate cuts one at a time, by size and lexicographically
within a size, and stops at the first valid one. The pure kernel evaluates
the validity predicate for all 2^n survivor sets at once with bitwise
operations on 2^n-bit integers, then reads the least valid cut of the
smallest size off those bits. Both reject n > SEARCH_MAX_N.

min_cut_search_many(adjs, n, g, r, mode) returns the min_cut_search of every
adjacency in adjs, all of order n. The C kernel loops over its search; the
pure kernel decides up to 2^15 >> n graphs at once in one set of truth
tables, a block of bits per graph, which saves most of its per-call cost.
"""

import os

if os.environ.get("SPECCONN_PURE"):
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

BACKEND: str = _impl.BACKEND
SEARCH_MAX_N: int = _impl.SEARCH_MAX_N
components_masks = _impl.components_masks
cut_valid = _impl.cut_valid
min_cut_search = _impl.min_cut_search
min_cut_search_many = _impl.min_cut_search_many
power_iteration = _impl.power_iteration
