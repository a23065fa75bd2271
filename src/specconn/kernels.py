"""Kernel backend selection.

The hot loops (flood fill, exhaustive cut search, power iteration) exist
twice: a hand-written C extension (specconn._kernels, built from
_kernels.c by setup.py) and a pure-Python fallback (specconn._kernels_py)
with identical signatures. The compiled version is used when importable;
set SPECCONN_PURE=1 to force the fallback.
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
components_masks = _impl.components_masks
cut_valid = _impl.cut_valid
min_cut_search = _impl.min_cut_search
power_iteration = _impl.power_iteration
