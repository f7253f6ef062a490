"""Kernel backend selection.

Prefers the compiled C extension (``_ckernel.c``); falls back to the
pure-Python twin when the extension is missing or HLLRT_PURE is set. Both
implement the same API and produce bit-identical results (the test suite
enforces parity), so callers never need to know which one is active.
"""

import os

if os.environ.get("HLLRT_PURE"):
    from . import _pykernel as _impl

    BACKEND = "pure"
else:
    try:
        from . import _ckernel as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _pykernel as _impl

        BACKEND = "pure"

RegisterFile = _impl.RegisterFile
hash64 = _impl.hash64
stream_element = _impl.stream_element
stream_elements = _impl.stream_elements

__all__ = ["BACKEND", "RegisterFile", "hash64", "stream_element", "stream_elements"]
