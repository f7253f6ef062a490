"""Pure-Python register-file kernel.

This module is the portable twin of the Cython extension ``_ckernel``.
Both expose the same API (``hash64``, ``splitmix64``, ``stream_element``,
``RegisterFile``) and must produce bit-identical results: the register
bookkeeping is kept as an exact scaled integer and every float expression
is written the same way in both backends, so an estimate computed here
equals the one computed by the extension on the same stream.

The register file holds R small counters. Inserting an element hashes it
once to 64 bits; the low log2(R) bits select a register and the remaining
bits provide the value whose leading-zero count (plus one) is the rank.
Each register keeps the maximum rank seen. The harmonic-mean denominator
Z = sum(2**-r_i) is maintained incrementally as the integer
Z_scaled = sum(2**(63 - r_i)), which is exact because ranks never exceed
63 (a 64-bit hash cannot produce a longer run of leading zeros, and
loaded snapshots are validated against the same bound).

Interpreter overhead, not arithmetic, sets this kernel's speed, so the
per-element path is flat: ``hash64`` reads the element once as one
integer and shifts its 8-byte words off, rotations and avalanche inline;
``stream_element`` mixes each seed once (cached), not once per element.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat

MASK64 = (1 << 64) - 1

# 2**-63 is an exact double, so scaling Z_scaled by it only rounds once
# (in the int -> float conversion).
_Z_SCALE = 2.0**-63

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (a bijection on 64-bit ints)."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def hash64(data: bytes, salt: int = 0) -> int:
    """64-bit non-cryptographic hash of ``data`` keyed by ``salt``.

    Multiply-rotate chain over 8-byte little-endian words with a strong
    final avalanche. Changing the salt re-keys the whole mapping.
    """
    n = len(data)
    acc = ((salt & MASK64) * _P1 + n * _P5 + _P4) & MASK64
    # Each step hashes the low word of w, then shifts it out. Bits above 64
    # of a factor only reach bits above 64 of the product, so neither the
    # word nor the rotation needs a mask before its multiply.
    w = int.from_bytes(data, "little")
    while n >= 8:
        x = acc ^ ((w * _P2) & MASK64)
        acc = ((((x << 31) | (x >> 33)) * _P1) + _P4) & MASK64
        w >>= 64
        n -= 8
    if n:
        x = acc ^ ((w * _P3) & MASK64)
        acc = ((((x << 27) | (x >> 37)) * _P2) + _P5) & MASK64
    acc ^= acc >> 33
    acc = (acc * 0xFF51AFD7ED558CCD) & MASK64
    acc ^= acc >> 33
    acc = (acc * 0xC4CEB9FE1A85EC53) & MASK64
    return acc ^ (acc >> 33)


@lru_cache(maxsize=64)
def _stream_base(seed: int) -> int:
    # splitmix64(seed) plus the increment of the element's own round.
    return splitmix64(seed & MASK64) + _GAMMA


def stream_element(seed: int, k: int) -> bytes:
    """Element ``k`` of the deterministic stream keyed by ``seed``.

    16 ASCII hex digits of splitmix64(splitmix64(seed) + k); distinct for
    distinct k because splitmix64 is a bijection, and the seed is mixed
    first so nearby seeds yield unrelated streams.
    """
    x = (_stream_base(seed) + k) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return b"%016x" % (x ^ (x >> 31))


class RegisterFile:
    """R max-rank registers with incremental estimate bookkeeping.

    Parameters mirror the sketch configuration: ``register_count`` R (a
    power of two), ``register_width`` in bits (bounds stored values),
    ``salt`` keying the hash, ``alpha`` the bias-correction constant for
    this R, and ``switch_factor`` controlling when the low-range
    (linear-counting) estimate is used instead of the harmonic-mean one.
    """

    __slots__ = (
        "register_count",
        "register_width",
        "salt",
        "alpha",
        "switch_factor",
        "_bits",
        "_max_reg",
        "_regs",
        "_zero",
        "_zs",
        "_alpha_r2",
    )

    def __init__(
        self,
        register_count: int,
        register_width: int,
        salt: int,
        alpha: float,
        switch_factor: float,
    ) -> None:
        self.register_count = register_count
        self.register_width = register_width
        self.salt = salt & MASK64
        self.alpha = alpha
        self.switch_factor = switch_factor
        self._bits = register_count.bit_length() - 1
        # Ranks above 63 cannot occur from a 64-bit hash; the scaled-Z
        # representation relies on that bound.
        self._max_reg = min((1 << register_width) - 1, 63)
        self._alpha_r2 = alpha * register_count * register_count
        self._regs = bytearray(register_count)
        self._zero = register_count
        self._zs = register_count << 63

    # -- hashing ---------------------------------------------------------

    def hash_split(self, element: bytes) -> tuple[int, int]:
        """Map an element to its (register index, rank) pair."""
        h = hash64(element, self.salt)
        bits = self._bits
        rank = 65 - bits - (h >> bits).bit_length()
        if rank > self._max_reg:
            rank = self._max_reg
        return h & (self.register_count - 1), rank

    # -- updates ---------------------------------------------------------

    def insert(self, element: bytes) -> int:
        """Insert one element; return the register increment (0 if none)."""
        index, rank = self.hash_split(element)
        regs = self._regs
        old = regs[index]
        if rank <= old:
            return 0
        regs[index] = rank
        if old == 0:
            self._zero -= 1
        self._zs -= (1 << (63 - old)) - (1 << (63 - rank))
        return rank - old

    def insert_many(self, elements) -> int:
        """Insert a batch; return how many changed a register."""
        changed = 0
        insert = self.insert
        for element in elements:
            if insert(element):
                changed += 1
        return changed

    def insert_span(self, seed: int, start: int, count: int) -> int:
        """Insert ``count`` stream elements starting at index ``start``."""
        return self.insert_many(
            map(stream_element, repeat(seed, count), range(start, start + count))
        )

    # -- estimates -------------------------------------------------------

    def z_sum(self) -> float:
        """Current harmonic-mean denominator Z = sum(2**-r_i)."""
        return float(self._zs) * _Z_SCALE

    def raw_estimate(self) -> float:
        return self._alpha_r2 / (float(self._zs) * _Z_SCALE)

    def linear_estimate(self) -> float:
        if self._zero == 0:
            return self.raw_estimate()
        return self.register_count * math.log(self.register_count / self._zero)

    def estimate(self) -> int:
        if self._zero > 0:
            lc = self.register_count * math.log(self.register_count / self._zero)
            if lc <= self.switch_factor * self.register_count:
                return round(lc)
        return round(self._alpha_r2 / (float(self._zs) * _Z_SCALE))

    # -- register access -------------------------------------------------

    def zero_registers(self) -> int:
        return self._zero

    def _check_dump(self, data: bytes) -> None:
        if len(data) != self.register_count:
            raise ValueError(
                f"expected {self.register_count} register bytes, got {len(data)}"
            )
        for value in data:
            if value > self._max_reg:
                raise ValueError(
                    f"register value {value} outside supported range 0..{self._max_reg}"
                )

    def get_register(self, index: int) -> int:
        if not 0 <= index < self.register_count:  # no negative indexing
            raise IndexError(index)
        return self._regs[index]

    def set_register(self, index: int, value: int) -> None:
        if not 0 <= index < self.register_count:
            raise IndexError(index)
        if not 0 <= value <= self._max_reg:
            raise ValueError(
                f"register value {value} outside supported range 0..{self._max_reg}"
            )
        old = self._regs[index]
        if value == old:
            return
        self._regs[index] = value
        if old == 0:
            self._zero -= 1
        if value == 0:
            self._zero += 1
        self._zs += (1 << (63 - value)) - (1 << (63 - old))

    def dump_registers(self) -> bytes:
        return bytes(self._regs)

    def load_registers(self, data: bytes) -> None:
        self._check_dump(data)
        self._regs = bytearray(data)
        self._zero = sum(1 for v in data if v == 0)
        self._zs = sum(1 << (63 - v) for v in data)

    def merge_registers(self, data: bytes) -> None:
        """Take the elementwise maximum with another register dump."""
        self._check_dump(data)
        for index, value in enumerate(data):
            if value > self._regs[index]:
                self.set_register(index, value)

    def reset(self) -> None:
        self._regs = bytearray(self.register_count)
        self._zero = self.register_count
        self._zs = self.register_count << 63
