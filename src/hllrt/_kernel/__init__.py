"""Kernel backend selection.

Uses the compiled C extension (``_ckernel.c``) when it imports, else the
pure-Python twin, which is also the reference the tests hold the C twin
to. Both implement the same API and produce bit-identical results (the
test suite enforces parity), so callers never need to know which one is
active; ``BACKEND`` names it.
"""

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
