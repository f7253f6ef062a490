"""HyperLogLog sketch: hashing, insertion, estimation and merging.

The sketch is an array of R registers, each keeping the maximum rank
(one plus the leading-zero count of the value hash) among the elements
routed to it. Cardinality is estimated from the inverse harmonic mean
of the register contents, switching to a linear-counting estimate while
the count of zero registers still carries more information.

The hot loop lives in ``hllrt._kernel`` (compiled extension when
available, pure Python otherwise); this module owns parameters,
validation, serialization and the merge/witness algebra.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable

from ._kernel import BACKEND, RegisterFile

__all__ = [
    "HllParams",
    "HllSketch",
    "alpha_for_registers",
    "merge",
    "witness_subset",
    "kernel_backend",
]

_MASK64 = (1 << 64) - 1
_SNAPSHOT_MAGIC = b"HLLS"
_SNAPSHOT_HEADER = struct.Struct("<4sIBBQ")  # magic, R, width, salted, salt

MIN_REGISTERS = 16
MAX_REGISTERS = 1 << 20


def alpha_for_registers(register_count: int) -> float:
    """Bias-correction constant for the harmonic-mean estimate.

    The small-R values (16/32/64) are the classical ones; larger R uses
    the asymptotic formula. Pinned by the accuracy acceptance test.
    """
    if register_count == 16:
        return 0.673
    if register_count == 32:
        return 0.697
    if register_count == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / register_count)


def kernel_backend() -> str:
    """Which kernel is active: "compiled" or "pure"."""
    return BACKEND


@dataclass(frozen=True)
class HllParams:
    """Sketch configuration.

    register_count must be a power of two in [16, 2**20]; register_width
    (bits per register) in [4, 8]. ``salt`` keys the hash functions: two
    sketches can only be merged when they share R, width and salt. The
    estimator crossover is fixed at ``switch_factor`` * R, HLL's standard
    2.5R, which the attack analysis assumes.
    """

    register_count: int
    register_width: int = 6
    salt: int | None = None
    switch_factor = 2.5  # a class constant, not a field

    def __post_init__(self) -> None:
        m = self.register_count
        if not isinstance(m, int) or m & (m - 1) or not MIN_REGISTERS <= m <= MAX_REGISTERS:
            raise ValueError(
                f"register_count must be a power of two in "
                f"[{MIN_REGISTERS}, {MAX_REGISTERS}], got {self.register_count!r}"
            )
        if self.register_width not in (4, 5, 6, 7, 8):
            raise ValueError(
                f"register_width must be in [4, 8], got {self.register_width!r}"
            )
        if self.salt is not None and not 0 <= self.salt <= _MASK64:
            raise ValueError("salt must be a 64-bit unsigned value")

    @property
    def salted(self) -> bool:
        return self.salt is not None

    @property
    def salt_value(self) -> int:
        return self.salt or 0

    @property
    def alpha(self) -> float:
        return alpha_for_registers(self.register_count)


def _make_core(params: HllParams) -> RegisterFile:
    return RegisterFile(
        params.register_count,
        params.register_width,
        params.salt_value,
        params.alpha,
        params.switch_factor,
    )


class HllSketch:
    """A HyperLogLog register array plus its parameters.

    Value-like and single-writer: no internal locking, safe to hand
    between threads when not mutated concurrently; merge is pure.
    """

    __slots__ = ("params", "_core")

    def __init__(self, params: HllParams) -> None:
        self.params = params
        self._core = _make_core(params)

    # -- updates ---------------------------------------------------------

    def hash_split(self, element: bytes) -> tuple[int, int]:
        """The (register index, rank) an element maps to, without inserting it.

        The low log2(R) bits of the element's 64-bit hash select the
        register; the rank is one plus the leading-zero count of the
        remaining bits, clamped to the register's maximum storable value.
        """
        if not element:
            raise ValueError("element must be non-empty")
        return self._core.hash_split(element)

    def insert(self, element: bytes) -> bool:
        """Insert an element; True iff a register value increased."""
        if not element:
            raise ValueError("element must be non-empty")
        return self._core.insert(element) > 0

    def insert_increment(self, element: bytes) -> int:
        """Insert an element; return the register increment (0 if none)."""
        if not element:
            raise ValueError("element must be non-empty")
        return self._core.insert(element)

    def insert_many(self, elements: Iterable[bytes]) -> int:
        """Insert a batch of elements; return how many changed a register.

        An element that is not ``bytes`` (``TypeError``) or is empty
        (``ValueError``) is refused before anything is inserted.
        """
        elements = list(elements)
        if not set(map(type, elements)) <= {bytes}:
            bad = next(e for e in elements if type(e) is not bytes)
            raise TypeError(f"expected bytes, got {type(bad).__name__}")
        if not all(elements):
            raise ValueError("element must be non-empty")
        return self._core.insert_many(elements)

    # -- estimates -------------------------------------------------------

    def estimate(self) -> int:
        """Integer cardinality estimate with the low-range crossover.

        Linear counting R * ln(R / V) while V registers are zero and it is
        at most switch_factor * R; else the harmonic-mean alpha_R * R**2 / Z.
        """
        return self._core.estimate()

    def z_denominator(self) -> float:
        """Current value of Z = sum(2**-r_i)."""
        return self._core.z_sum()

    def zero_register_count(self) -> int:
        return self._core.zero_registers()

    # -- register access -------------------------------------------------

    @property
    def registers(self) -> bytes:
        return self._core.dump_registers()

    def reset(self) -> None:
        self._core.reset()

    def copy(self) -> "HllSketch":
        clone = HllSketch(self.params)
        clone._core.load_registers(self._core.dump_registers())
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HllSketch):
            return NotImplemented
        return self.params == other.params and self.registers == other.registers

    def __repr__(self) -> str:
        return (
            f"HllSketch(R={self.params.register_count}, "
            f"width={self.params.register_width}, estimate={self.estimate()})"
        )

    # -- snapshots ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Flat little-endian snapshot: HLLS, u32 R, u8 width, u8 salted,
        u64 salt, then R register bytes."""
        p = self.params
        header = _SNAPSHOT_HEADER.pack(
            _SNAPSHOT_MAGIC,
            p.register_count,
            p.register_width,
            1 if p.salted else 0,
            p.salt_value,
        )
        return header + self.registers

    @classmethod
    def from_bytes(cls, data: bytes) -> "HllSketch":
        """Load a ``to_bytes`` snapshot; refuse any that it could not have written."""
        if len(data) < _SNAPSHOT_HEADER.size:
            raise ValueError("snapshot truncated")
        magic, m, width, salted, salt = _SNAPSHOT_HEADER.unpack_from(data)
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if salted not in (0, 1) or (salt and not salted):
            raise ValueError(f"bad snapshot salt: salted={salted}, salt={salt:#x}")
        body = data[_SNAPSHOT_HEADER.size :]
        if len(body) != m:
            raise ValueError(f"expected {m} register bytes, got {len(body)}")
        params = HllParams(
            register_count=m,
            register_width=width,
            salt=salt if salted else None,
        )
        sketch = cls(params)
        sketch._core.load_registers(body)
        return sketch


def merge(a: HllSketch, b: HllSketch) -> HllSketch:
    """Union of two sketches by elementwise register maximum.

    Requires identical parameters: merging sketches with different salts
    (or R / width) estimates nothing meaningful.
    """
    if a.params != b.params:
        raise ValueError(
            f"cannot merge sketches with different parameters: "
            f"{a.params} vs {b.params}"
        )
    result = a.copy()
    result._core.merge_registers(b.registers)
    return result


def witness_subset(elements: Iterable[bytes], params: HllParams) -> list[bytes]:
    """At most R elements of the stream that reproduce its register array.

    For each register this picks the first element achieving the
    register's final value, in one pass: an element replaces the
    register's witness only when its rank is strictly higher. Inserting
    the returned subset into a fresh sketch yields the same registers
    (hence the same estimate) as the full stream.
    """
    split = HllSketch(params).hash_split
    ranks: dict[int, int] = {}
    witnesses: dict[int, bytes] = {}
    for element in elements:
        index, rank = split(element)
        if rank > ranks.get(index, 0):
            ranks[index] = rank
            witnesses[index] = element
    return [witnesses[i] for i in sorted(witnesses)]
