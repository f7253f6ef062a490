"""Pure-Python register-file kernel.

This module is the portable twin of the C extension ``_ckernel.c``.
Both expose the same API (``hash64``, ``stream_element``,
``stream_elements``, ``RegisterFile``) and must produce bit-identical
results: the register bookkeeping is kept as an exact scaled integer and
every float expression is written the same way in both backends, so an
estimate computed here equals the one computed by the extension on the
same stream.

Both raise the same exception type for every bad argument. The
``RegisterFile`` methods hold the one element rule: an element is
non-empty ``bytes``, else ``TypeError``, or ``ValueError`` if empty
(``hash64`` hashes any ``bytes``); ``insert_many`` checks every element
before it changes a register. A salt, seed, ``k`` or ``start`` any int,
reduced mod 2**64; a count a non-negative int (``OverflowError`` if it
does not fit in a ``Py_ssize_t``); a dump exactly ``bytes`` of R values
in 0..max (else ``ValueError``), and a bad dump changes nothing;
``scan`` and ``scan_stream`` keep into exactly a ``list``, and
``scan_stream`` checks its seed, start and count as ``stream_elements``
does, then ``kept``. The constructor converts its arguments as the C
twin's ``"niKdd"`` parse does. An argument of any other type raises
``TypeError``.

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

``insert`` and the block split ``_splits`` rank a hash by its top byte
in ``_rank_table``, built from the one rank rule ``_rank``, which runs
itself only where that byte is zero (one hash in 256). The other element
methods take ``_BLOCK`` elements at a time through one block reader,
``_hashed_blocks`` (which raises for a bad element only once the caller
has judged the elements before it), and ``_splits``; ``scan`` and
``scan_stream`` then raise registers and judge the estimate in one loop,
``_climb``, keeping the positions that lifted it.
``_climb`` and ``insert_many`` keep the zero count and Z_scaled in locals,
stored back once per block.

The estimate is linear counting, R * log(R / zero), while that is at most
the switch factor times R, else the harmonic mean. That rule holds from a
zero-count floor up, which ``_lc_floor`` finds by binary search once per R
and switch factor, so ``log`` runs only from it up. There the estimate
reads the zero count alone, so ``_climb`` counts a non-zero register's rise
as a stall without computing it. ``estimate`` keeps its result in ``_est``;
``_climb`` stores its last one, and every other register change clears it.

A block is hashed in one pass, SIMD within a register with Python's big
integers, when its elements all have one length n: each gets a 128-bit
lane of one big integer, its accumulator in the lane's low 64 bits and
the upper 64 bits zero. For each of the element's 8-byte words (the last
one zero-padded), the word of every element is copied into the low half
of its lane, and ``hash64``'s step runs once on the whole integer, each
result masked back to 64 bits per lane. No lane can carry into the next:
a product of two values below 2**64, plus P4 or P5, stays below 2**128.
A right shift (the rotations' ``>> 33``/``>> 37``, the avalanche's
``>> 33``) pulls the next lane's low bits into this lane's upper half, so
its result is masked before the next multiply. The low 64 bits of each lane
are then that element's ``hash64``. Words are copied as bytes, lanes read
little-endian (as ``hash64`` reads an element) and the stream's lanes
(below) big-endian, so the lane pass needs no check of the host's byte
order. ``_splits`` takes from the lanes' bytes the rank by each hash's
top byte, the indices by one mask of all lanes by R - 1, and a hash as
an int only where its top byte is zero, for ``_rank``. The lane pass
takes the block as 8-byte words (``_word_hashes``), so any buffer that
lays the elements out one after another, each zero-padded to whole
words, can be hashed without building the elements: ``_lane_hashes``
joins a block of ``bytes`` into such a buffer. The scalar ``hash64``
stays: it hashes single elements for ``insert``, and blocks that are
short, mix lengths or hold anything but ``bytes``, whose hashes it packs
into lanes for ``_splits``; the lanes are tested against it.

``stream_elements`` runs the stream's splitmix64 round on the same
lanes and formats a whole block as one hex string (``_stream_hex``),
which it splits into elements.

``scan_stream``, the attack's scan of the stream, climbs over the span's
register records alone: the elements that raise their register in a scan
of the span from an all-zero file, each as its register index, (clamped)
rank and the 8 bytes its 16 hex digits spell. ``_span_records`` finds
them: it hashes each block's hex string's words in place (an element's
16 digits are two whole words), splits them, and keeps each element that
tops its register so far. The records are a function of the span alone,
keyed by its splitmix64 input (the first element's, mod 2**64), its
count, and the file's salt, R and largest rank (alpha and the crossover
are not in the key: the scanning file computes its own estimate). The
last span's are cached as immutable buffers, so phase 2's rescan of the
span phase 1 scanned hashes nothing. Climbing the records alone is exact
from any state: registers only rise, so at each element a scan from any
state meets a register at least as high as the from-empty scan met
there. An element that was not a record raises nothing, so it changes
neither the registers nor the estimate (which depends on the registers
alone) and is never kept. So the return value, ``kept`` and the
registers are bit-identical to ``scan(stream_elements(...))``, with
``bytes`` made only for the elements kept. ``_climb`` keeps positions in
an array, 8 bytes each, since a span's kept positions run to thousands.
Only this twin keeps records: the C twin scans every element.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from binascii import hexlify, unhexlify
from functools import lru_cache
from itertools import islice
from math import log

MASK64 = (1 << 64) - 1

# Elements insert_many and scan read and hash, and stream_elements
# generates, at a time. Speed is flat from 256 to 4096; a smaller block
# keeps fewer elements and lane integers alive at once.
_BLOCK = 512

# 2**-63 is an exact double, so scaling Z_scaled by it only rounds once
# (in the int -> float conversion).
_Z_SCALE = 2.0**-63
# Entry r is register value r's term of Z_scaled.
_POW = [1 << (63 - r) for r in range(64)]

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
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
    if type(data) is not bytes:
        raise TypeError(f"expected bytes, got {type(data).__name__}")
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
    return _splitmix64(seed) + _GAMMA


def stream_element(seed: int, k: int) -> bytes:
    """Element ``k`` of the deterministic stream keyed by ``seed``.

    16 ASCII hex digits of splitmix64(splitmix64(seed) + k); distinct for
    distinct k because splitmix64 is a bijection, and the seed is mixed
    first so nearby seeds yield unrelated streams.
    """
    # Mask before the cache, so a float seed raises, never hits its int's entry.
    x = (_stream_base(seed & MASK64) + k) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return b"%016x" % (x ^ (x >> 31))


def _lane_hashes(block: list[bytes], n: int, salt: int) -> int:
    """``_word_hashes`` of ``block``, whose elements all have length ``n``."""
    pad = bytes(-n % 8)
    return _word_hashes(memoryview(pad.join(block) + pad).cast("Q"), n, len(block), salt)


def _word_hashes(words: memoryview, n: int, count: int, salt: int) -> int:
    """Lanes whose low 64 bits are ``hash64(e, salt)`` (the upper bits are left over) for
    ``count`` elements of length ``n`` in ``words``, each zero-padded to whole words."""
    words_each = -(-n // 8)
    lanes = bytearray(16 * count)
    low = memoryview(lanes).cast("Q")[::2]
    mask, p4 = _lanes(MASK64, count), _lanes(_P4, count)
    acc = _lanes((salt * _P1 + n * _P5 + _P4) & MASK64, count)
    for j in range(n // 8):
        low[:] = words[j::words_each]
        x = acc ^ ((int.from_bytes(lanes, "little") * _P2) & mask)
        acc = ((((x << 31) | (x >> 33)) & mask) * _P1 + p4) & mask
    if n % 8:
        low[:] = words[words_each - 1 :: words_each]
        x = acc ^ ((int.from_bytes(lanes, "little") * _P3) & mask)
        acc = ((((x << 27) | (x >> 37)) & mask) * _P2 + _lanes(_P5, count)) & mask
    acc = (((acc ^ (acc >> 33)) & mask) * 0xFF51AFD7ED558CCD) & mask
    acc = (((acc ^ (acc >> 33)) & mask) * 0xC4CEB9FE1A85EC53) & mask
    return acc ^ (acc >> 33)


@lru_cache(maxsize=16)
def _lanes(value: int, count: int) -> int:
    """``value``, below 2**64, in each of ``count`` 128-bit lanes."""
    return int.from_bytes((value.to_bytes(8, "little") + bytes(8)) * count, "little")


@lru_cache(maxsize=4)
def _lane_words(count: int):
    """Reads the low 64 bits of each of ``count`` lanes from their little-endian bytes."""
    return struct.Struct("<" + "Q8x" * count).unpack


def _stream_args(seed, start, count) -> int:
    """The splitmix64 input of element ``start`` of the stream keyed by ``seed``,
    once the three arguments pass the checks ``stream_elements`` makes."""
    for value in (seed, start, count):
        if not isinstance(value, int):
            raise TypeError(f"expected int, got {type(value).__name__}")
    if not -sys.maxsize - 1 <= count <= sys.maxsize:  # as C's Py_ssize_t parse
        raise OverflowError("count does not fit in a Py_ssize_t")
    if count < 0:
        raise ValueError("count must not be negative")
    return _stream_base(seed & MASK64) + start


def _stream_hex(base: int, n: int) -> bytes:
    """The ``n`` elements from splitmix64 input ``base`` on, as one hex string.

    Runs the element's splitmix64 round on 128-bit lanes, as
    ``_word_hashes`` runs ``hash64``, and formats all of them at once.
    """
    mask = _lanes(MASK64, n)
    x = ((base & MASK64) * _lanes(1, n) + _stream_lanes(n)[0]) & mask
    x = (((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    x = (((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB) & mask
    x ^= x >> 31  # only each lane's low 64 bits are read back
    # In big-endian bytes a lane's low 64 bits are its second 8 bytes.
    return hexlify(memoryview(x.to_bytes(16 * n, "big")).cast("Q")[1::2].tobytes())


@lru_cache(maxsize=2)
def _stream_lanes(count: int):
    """``count`` lanes holding ``count`` - 1 in the lowest down to 0 in the
    highest, and the splitter of ``count`` 16-digit hex strings.

    Big-endian bytes of the lanes list the highest lane first, so the
    elements come out in order.
    """
    ramp = b"".join(j.to_bytes(16, "big") for j in range(count))
    return int.from_bytes(ramp, "big"), struct.Struct("16s" * count).unpack


def stream_elements(seed: int, start: int, count: int) -> list[bytes]:
    """``stream_element(seed, k)`` for k in ``start .. start + count - 1``, mod 2**64.

    Generates ``_BLOCK`` elements per pass with ``_stream_hex``.
    """
    base = _stream_args(seed, start, count)
    out: list[bytes] = []
    for offset in range(0, count, _BLOCK):
        n = min(_BLOCK, count - offset)
        out += _stream_lanes(n)[1](_stream_hex(base + offset, n))
    return out


def _hashed_blocks(elements, salt: int):
    """``elements`` in blocks of up to ``_BLOCK``, each with its ``_block_hashes``.

    The hashes stop at a bad element, or where the source raised; that error
    (the element's, if both) is raised when the caller asks for the next block.
    """
    elements = iter(elements)
    while True:
        block: list = []
        failure = None
        try:
            block.extend(islice(elements, _BLOCK))  # keeps what it read before a raise
        except BaseException as exc:  # raised below, once the block is judged
            failure = exc
        lanes, count = _block_hashes(block, salt)
        if count:
            yield block, lanes, count
        if count < len(block):
            _refuse(block[count])
        if failure is not None:
            raise failure
        if len(block) < _BLOCK:
            return


def _block_hashes(block: list, salt: int) -> tuple[int, int]:
    """Lanes of ``hash64(e, salt)`` for ``block`` up to its first bad element, and their count.

    A bad element is one ``_refuse`` raises for; a count short of the block
    marks it. Four or more ``bytes`` of one length (a lane pass costs about
    four scalar hashes) are hashed in one lane pass, any other block one by one.
    """
    if len(block) >= 4 and set(map(type, block)) == {bytes}:
        lengths = set(map(len, block))
        if len(lengths) == 1 and 0 not in lengths:
            return _lane_hashes(block, lengths.pop(), salt), len(block)
    lanes = []
    for element in block:
        if type(element) is not bytes or not element:
            break
        lanes.append(hash64(element, salt).to_bytes(16, "little"))
    return int.from_bytes(b"".join(lanes), "little"), len(lanes)


def _refuse(element) -> None:
    """Raise for an element that breaks the element rule: non-empty ``bytes``."""
    if type(element) is not bytes:
        raise TypeError(f"expected bytes, got {type(element).__name__}")
    raise ValueError("element must be non-empty")


@lru_cache(maxsize=16)
def _lc_floor(count: int, switch: float) -> int:
    """The fewest zero registers at which linear counting applies, else ``count + 1``."""
    low, high = 1, count + 1
    while low < high:
        mid = (low + high) // 2
        if count * log(count / mid) <= switch * count:
            high = mid
        else:
            low = mid + 1
    return low


def _estimate(count: int, zero: int, zs: int, lc_floor: int, alpha_r2: float) -> int:
    """The estimate of ``count`` registers, ``zero`` of them zero, whose Z_scaled is ``zs``."""
    if zero >= lc_floor:
        return round(count * log(count / zero))
    return round(alpha_r2 / (float(zs) * _Z_SCALE))


def _real(x) -> float:
    """``x`` as C's ``"d"`` parse converts it: a ``str`` is refused, not parsed."""
    if hasattr(type(x), "__float__") or hasattr(type(x), "__index__"):
        return float(x)
    raise TypeError(f"must be real number, not {type(x).__name__}")


@lru_cache(maxsize=1)
def _span_records(base: int, count: int, salt: int, register_count: int, max_reg: int):
    """The register records of the ``count`` stream elements from splitmix64
    input ``base`` in a file of this salt, R and largest rank, from all-zero
    registers: read-only views of their register indices and their ranks,
    and their elements' hex digits as ``bytes``, 8 to an element (see the
    module docstring)."""
    # max_reg is 2**width - 1 for the width this file's splits clamp to.
    empty = RegisterFile(register_count, max_reg.bit_length(), salt, 0.0, 0.0)
    regs = empty._regs
    indices, ranks, digits = array("Q"), bytearray(), bytearray()
    for offset in range(0, count, _BLOCK):
        n = min(_BLOCK, count - offset)
        hexed = _stream_hex(base + offset, n)
        lanes = _word_hashes(memoryview(hexed).cast("Q"), 16, n, salt)
        for j, index, rank in zip(range(n), *empty._splits(lanes, n)):
            if rank > regs[index]:
                regs[index] = rank
                indices.append(index)
                ranks.append(rank)
                digits += hexed[16 * j : 16 * j + 16]
    return memoryview(indices).toreadonly(), memoryview(ranks).toreadonly(), unhexlify(digits)


class RegisterFile:
    """R max-rank registers with incremental estimate bookkeeping.

    Parameters mirror the sketch configuration: ``register_count`` R (a
    power of two), ``register_width`` in bits (bounds stored values),
    ``salt`` keying the hash, ``alpha`` the bias-correction constant for
    this R, and ``switch_factor`` controlling when the low-range
    (linear-counting) estimate is used instead of the harmonic-mean one.
    """

    __slots__ = (
        "_count", "_salt", "_lc_floor", "_bits", "_max_reg", "_regs", "_zero", "_zs", "_alpha_r2",
        "_rank_table", "_est",
    )

    def __init__(
        self,
        register_count: int,
        register_width: int,
        salt: int,
        alpha: float,
        switch_factor: float,
    ) -> None:
        # Every argument is converted, as "niKdd" does, before any is checked:
        # R to a Py_ssize_t, the width to a C int, in argument order.
        register_count = operator.index(register_count)
        if not -sys.maxsize - 1 <= register_count <= sys.maxsize:
            raise OverflowError("register_count does not fit in a Py_ssize_t")
        register_width = operator.index(register_width)
        if not -(2**31) <= register_width < 2**31:
            raise OverflowError("register_width does not fit in a C int")
        if not isinstance(salt, int):
            raise TypeError(f"expected int, got {type(salt).__name__}")
        alpha, switch_factor = _real(alpha), _real(switch_factor)
        if register_count < 1 or register_count & (register_count - 1):
            raise ValueError("register_count must be a power of two")
        self._count = register_count
        self._salt = salt & MASK64
        self._lc_floor = _lc_floor(register_count, switch_factor)
        self._bits = register_count.bit_length() - 1
        # Ranks above 63 cannot occur from a 64-bit hash; the scaled-Z
        # representation relies on that bound.
        self._max_reg = 63 if register_width >= 6 else (1 << register_width) - 1
        self._alpha_r2 = alpha * register_count * register_count
        # Entry b is ``_rank`` of every hash whose top byte is b; 0 for b = 0, which fixes none.
        self._rank_table = bytes([0] + [self._rank(b << 56) for b in range(1, 256)])
        self.reset()

    # -- updates ---------------------------------------------------------

    def _rank(self, h: int) -> int:
        """One plus the leading zeros above hash ``h``'s index bits, clamped."""
        return min(65 - self._bits - (h >> self._bits).bit_length(), self._max_reg)

    def _raise(self, index: int, rank: int) -> int:
        """Raise a register to ``rank`` if that is higher; return the increment."""
        regs = self._regs
        old = regs[index]
        if rank <= old:
            return 0
        regs[index] = rank
        if old == 0:
            self._zero -= 1
        self._zs += _POW[rank] - _POW[old]
        self._est = None
        return rank - old

    def _splits(self, lanes: int, count: int) -> tuple[tuple[int, ...], bytearray]:
        """The register index and the (clamped) rank of each hash in the low 64
        bits of ``count`` lanes: the rank by ``_rank_table``, or by ``_rank``
        where the hash's top byte is zero, the indices by one mask of all lanes."""
        raw = lanes.to_bytes(16 * count, "little")
        ranks = bytearray(raw[7::16].translate(self._rank_table))
        j = ranks.find(0)
        while j >= 0:
            ranks[j] = self._rank(int.from_bytes(raw[16 * j : 16 * j + 8], "little"))
            j = ranks.find(0, j + 1)
        masked = lanes & _lanes(self._count - 1, count)
        return _lane_words(count)(masked.to_bytes(16 * count, "little")), ranks

    def _climb(self, indices, ranks, last: int) -> tuple[int, array]:
        """Raise each register in turn, reading the estimate after each rise.

        Returns the last estimate and the positions that lifted the
        estimate (the ones a scan keeps), as 8-byte words.
        """
        regs, zero, zs = self._regs, self._zero, self._zs
        count, floor, alpha_r2 = self._count, self._lc_floor, self._alpha_r2
        risers = array("Q")
        for j, index, rank in zip(range(len(ranks)), indices, ranks):
            old = regs[index]
            if rank > old:
                regs[index] = rank
                zs += _POW[rank] - _POW[old]
                if not old:
                    zero -= 1
                elif zero >= floor:  # linear counting reads the zero count alone
                    continue
                after = _estimate(count, zero, zs, floor, alpha_r2)
                if after > last:
                    risers.append(j)
                last = after
        self._zero, self._zs, self._est = zero, zs, last
        return last, risers

    def insert(self, element: bytes) -> int:
        """Insert one element; return the register increment (0 if none)."""
        h = hash64(element, self._salt)
        if not element:
            _refuse(element)
        return self._raise(h & (self._count - 1), self._rank_table[h >> 56] or self._rank(h))

    def insert_many(self, elements) -> int:
        """Insert a batch; return how many changed a register.

        Checks every element first (an input that is not a ``list`` is
        copied into one), so a bad one, or an iterable that raises, changes
        nothing. Then hashes ``_BLOCK`` at a time with ``_hashed_blocks``.
        """
        if type(elements) is not list:
            elements = list(elements)
        if not set(map(type, elements)) <= {bytes} or not all(elements):
            _refuse(next(e for e in elements if type(e) is not bytes or not e))
        regs, zero, zs = self._regs, self._zero, self._zs
        changed = 0
        for _, lanes, count in _hashed_blocks(elements, self._salt):
            for index, rank in zip(*self._splits(lanes, count)):
                old = regs[index]
                if rank > old:
                    regs[index] = rank
                    if not old:
                        zero -= 1
                    zs += _POW[rank] - _POW[old]
                    changed += 1
            self._zero, self._zs, self._est = zero, zs, None
        return changed

    def scan(self, elements, kept: list) -> tuple[int, int]:
        """Insert every element in order, keeping those that raise the estimate.

        Appends to ``kept`` each element whose insertion left the estimate
        above the one observed just before it, and returns (final estimate,
        insertions): ``CardinalityOracle.scan`` over this register file,
        except that the estimate is computed only after an insertion that
        changed a register, since it depends on the registers alone.
        Blocks are read and hashed with ``_hashed_blocks``; a bad element
        raises what ``insert`` would, after every element before it was
        inserted and judged.
        """
        if not isinstance(kept, list):
            raise TypeError(f"expected list, got {type(kept).__name__}")
        last = self.estimate()
        insertions = 0
        for block, lanes, count in _hashed_blocks(elements, self._salt):
            last, risers = self._climb(*self._splits(lanes, count), last)
            kept.extend(map(block.__getitem__, risers))
            insertions += count
        return last, insertions

    def scan_stream(self, seed: int, start: int, count: int, kept: list) -> tuple[int, int]:
        """``scan(stream_elements(seed, start, count), kept)``, bit for bit.

        Climbs over the span's register records (``_span_records``, cached
        per span), from whatever state the file is in, and makes ``bytes``
        only for the elements it keeps (see the module docstring).
        """
        base = _stream_args(seed, start, count)
        if not isinstance(kept, list):
            raise TypeError(f"expected list, got {type(kept).__name__}")
        indices, ranks, words = _span_records(
            base & MASK64, count, self._salt, self._count, self._max_reg
        )
        last, risers = self._climb(indices, ranks, self.estimate())
        kept.extend(hexlify(words[8 * j : 8 * j + 8]) for j in risers)
        return last, count

    def witness(self, elements) -> list[bytes]:
        """The first element to reach each register's final rank, in register order.

        Covers ``elements`` alone, under this file's salt, width and R; the
        file's registers are neither read nor changed. Blocks are read and
        hashed, and a bad element refused, as in ``scan``.
        """
        ranks = bytearray(self._count)
        slots: list = [None] * self._count
        for block, lanes, count in _hashed_blocks(elements, self._salt):
            for element, index, rank in zip(block, *self._splits(lanes, count)):
                if rank > ranks[index]:
                    ranks[index] = rank
                    slots[index] = element
        return list(filter(None, slots))  # a kept element is never empty

    # -- estimates -------------------------------------------------------

    def z_sum(self) -> float:
        """Current harmonic-mean denominator Z = sum(2**-r_i)."""
        return float(self._zs) * _Z_SCALE

    def estimate(self) -> int:
        if self._est is None:
            self._est = _estimate(self._count, self._zero, self._zs, self._lc_floor, self._alpha_r2)
        return self._est

    # -- register access -------------------------------------------------

    def zero_registers(self) -> int:
        return self._zero

    def _check_dump(self, data: bytes) -> None:
        if type(data) is not bytes:
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        if len(data) != self._count:
            raise ValueError(f"expected {self._count} register bytes, got {len(data)}")
        for value in data:
            if value > self._max_reg:
                raise ValueError(
                    f"register value {value} outside supported range 0..{self._max_reg}"
                )

    def dump_registers(self) -> bytes:
        return bytes(self._regs)

    def load_registers(self, data: bytes) -> None:
        self._check_dump(data)
        self._regs = bytearray(data)
        self._zero = sum(1 for v in data if v == 0)
        self._zs = sum(map(_POW.__getitem__, data))
        self._est = None

    def merge_registers(self, data: bytes) -> None:
        """Take the elementwise maximum with another register dump."""
        self._check_dump(data)
        regs = self._regs
        for index, value in enumerate(data):
            if value > regs[index]:
                self._raise(index, value)

    def reset(self) -> None:
        self._regs = bytearray(self._count)
        self._zero = self._count
        self._zs = self._count << 63
        self._est = None
