"""The (register index, rank) split of an element's hash, written out for the tests.

The kernels split each hash inline, where they insert; this is the
reference the tests hold them to.
"""

from hllrt._kernel import hash64 as active_hash64


def hash_split(element, params, hash64=active_hash64):
    """The (register index, rank) pair ``element`` maps to under ``params``.

    The low log2(R) bits of the element's 64-bit hash select the
    register; the rank is one plus the leading-zero count of the
    remaining bits, clamped to the register's maximum storable value.
    """
    count = params.register_count
    bits = count.bit_length() - 1
    h = hash64(element, params.salt_value)
    rank = 65 - bits - (h >> bits).bit_length()
    return h & (count - 1), min(rank, (1 << params.register_width) - 1, 63)
