"""Sketch behavior: updates, estimates, merge algebra, snapshots."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hllrt.sketch
from hllrt import (
    HllParams,
    HllSketch,
    alpha_for_registers,
    merge,
    witness_subset,
)
from hllrt._kernel import _pykernel, stream_element, stream_elements
from splits import hash_split


def find_element(params, index=None, rank=None, start=0):
    """Scan the deterministic stream for an element with the wanted split."""
    for k in range(start, start + 2_000_000):
        e = stream_element(999, k)
        i, r = hash_split(e, params)
        if (index is None or i == index) and (rank is None or r == rank):
            return e
    raise AssertionError("no element found with the requested split")


def with_registers(params, registers):
    """A sketch of ``params`` holding ``registers``, loaded from a snapshot."""
    header = HllSketch(params).to_bytes()[: -params.register_count]
    return HllSketch.from_bytes(header + bytes(registers))


def raw_estimate(sketch):
    """The harmonic-mean estimate alpha_R * R**2 / Z."""
    r = sketch.params.register_count
    return sketch.params.alpha * r * r / sketch.z_denominator()


# -- params -------------------------------------------------------------------


def test_params_validation():
    HllParams(16)
    HllParams(1 << 20)
    with pytest.raises(ValueError):
        HllParams(100)  # not a power of two
    with pytest.raises(ValueError):
        HllParams(8)
    with pytest.raises(ValueError):
        HllParams(1 << 21)
    with pytest.raises(ValueError):
        HllParams(1024, register_width=3)
    with pytest.raises(ValueError):
        HllParams(1024, register_width=9)
    with pytest.raises(TypeError):
        HllParams(1024, switch_factor=3.0)  # the crossover is fixed at 2.5R
    with pytest.raises(ValueError):
        HllParams(1024, salt=1 << 64)
    # A width or salt that equals an int but is not one would pass a range
    # check and then fail in the kernel: refused here, before any sketch.
    for bad in ({"register_width": 6.0}, {"salt": 1.5}, {"salt": 7.0}, {"register_width": "6"}):
        with pytest.raises(ValueError):
            HllParams(1024, **bad)


def test_alpha_constants():
    assert alpha_for_registers(16) == 0.673
    assert alpha_for_registers(32) == 0.697
    assert alpha_for_registers(64) == 0.709
    assert alpha_for_registers(4096) == pytest.approx(0.7213 / (1 + 1.079 / 4096))
    assert HllParams(128).alpha == alpha_for_registers(128)


# -- hash_split ---------------------------------------------------------------


def test_hash_split_deterministic_and_bounded():
    # Each insert into an empty sketch sets the one register the split
    # names, to the split's rank.
    params = HllParams(64, 6)
    for k in range(200):
        e = stream_element(1, k)
        index, rank = hash_split(e, params)
        assert (index, rank) == hash_split(e, params)
        assert 0 <= index < 64
        assert 1 <= rank <= (1 << params.register_width) - 1
        sketch = HllSketch(params)
        sketch.insert(e)
        assert sketch.registers == bytes(index) + bytes([rank]) + bytes(63 - index)


@pytest.mark.parametrize("method", ["insert", "insert_increment"])
@pytest.mark.parametrize("bad", [None, "", bytearray(), b""])
def test_single_element_methods_refuse_with_the_kernels_error_types(kernels, monkeypatch, method, bad):
    # Only an empty bytes is a ValueError; a falsy element of another type
    # is a TypeError, as the kernels and insert_many raise.
    for kernel in kernels:
        monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
        sketch = HllSketch(HllParams(64))
        with pytest.raises(ValueError if type(bad) is bytes else TypeError):
            getattr(sketch, method)(bad)
        assert sketch.registers == bytes(64)


def test_hash_split_salt_changes_mapping():
    unsalted = HllParams(1024, 6)
    salted = HllParams(1024, 6, salt=12345)
    elements = [stream_element(2, k) for k in range(100)]
    assert any(hash_split(e, unsalted) != hash_split(e, salted) for e in elements)
    sketches = [HllSketch(unsalted), HllSketch(salted)]
    for sketch in sketches:
        sketch.insert_many(elements)
    assert sketches[0].registers != sketches[1].registers


def test_hash_split_clamps_rank_to_register_width():
    # Width 4 stores ranks up to 15; an element whose hash would give a
    # longer run is stored as 15.
    params = HllParams(16, 4)
    e = find_element(HllParams(16, 8), rank=16)
    index, rank = hash_split(e, params)
    assert rank == 15
    sketch = HllSketch(params)
    sketch.insert(e)
    assert sketch.registers[index] == 15


# -- insert -------------------------------------------------------------------


def test_insert_takes_maximum():
    params = HllParams(64, 6)
    sketch = HllSketch(params)
    e3 = find_element(params, index=5, rank=3)
    e4 = find_element(params, index=5, rank=4)
    e2 = find_element(params, index=5, rank=2)
    assert sketch.insert(e3) is True
    assert sketch.registers[5] == 3
    assert sketch.insert(e4) is True  # 3 -> 4: stored value increases
    assert sketch.registers[5] == 4
    assert sketch.insert(e2) is False  # lower rank leaves the register
    assert sketch.registers[5] == 4
    others = [i for i in range(64) if i != 5 and sketch.registers[i]]
    assert not others


def test_insert_idempotent():
    sketch = HllSketch(HllParams(64, 6))
    e = b"some-element"
    assert sketch.insert(e) is True
    assert sketch.insert(e) is False


def test_insert_rejects_empty():
    sketch = HllSketch(HllParams(64))
    with pytest.raises(ValueError):
        sketch.insert(b"")


# -- raw estimate -------------------------------------------------------------


def test_raw_estimate_empty():
    for m in (16, 64, 1024):
        sketch = HllSketch(HllParams(m))
        assert raw_estimate(sketch) == pytest.approx(alpha_for_registers(m) * m)


def test_raw_estimate_single_register():
    # R=16 with one register at 1: Z = 15 + 1/2, estimate alpha*256/15.5.
    sketch = with_registers(HllParams(16, 6), [1] + [0] * 15)
    assert sketch.z_denominator() == pytest.approx(15.5)
    assert raw_estimate(sketch) == pytest.approx(0.673 * 256 / 15.5)


def test_raw_estimate_strictly_monotone_in_registers():
    params = HllParams(64, 6)
    rng = random.Random(3)
    registers = [rng.randrange(0, 20) for _ in range(64)]
    for i in (0, 17, 63):
        before = raw_estimate(with_registers(params, registers))
        registers[i] += 1
        assert raw_estimate(with_registers(params, registers)) > before


# -- linear counting ----------------------------------------------------------


def test_linear_counting_all_zero():
    sketch = HllSketch(HllParams(256))
    assert sketch.estimate() == pytest.approx(0.0)


def test_linear_counting_half_zero():
    m = 256
    sketch = with_registers(HllParams(m), [1] * (m // 2) + [0] * (m // 2))
    assert sketch.estimate() == round(m * math.log(2))


def test_linear_counting_falls_back_when_no_zero_register():
    m = 16
    sketch = with_registers(HllParams(m), [7] * m)
    assert sketch.estimate() == round(raw_estimate(sketch))


# -- integer estimate ---------------------------------------------------------


def test_estimate_empty_is_zero():
    assert HllSketch(HllParams(1024)).estimate() == 0


def test_estimate_single_element():
    for m in (16, 1024):
        sketch = HllSketch(HllParams(m))
        sketch.insert(b"only-one")
        assert sketch.estimate() == 1


def test_estimate_accuracy_single_run():
    m, n = 1024, 100 * 1024
    sketch = HllSketch(HllParams(m))
    sketch.insert_many(stream_elements(31, 0, n))
    assert abs(sketch.estimate() - n) < 3 * (1.04 / math.sqrt(m)) * n


def test_estimate_uses_linear_counting_in_low_range():
    m = 1024
    sketch = HllSketch(HllParams(m))
    sketch.insert_many(stream_elements(8, 0, 100))
    v = sketch.zero_register_count()
    assert v > 0
    assert sketch.estimate() == round(m * math.log(m / v))


# -- merge --------------------------------------------------------------------


def test_merge_identity_commutative_idempotent():
    params = HllParams(256, 6)
    a = HllSketch(params)
    b = HllSketch(params)
    a.insert_many(stream_elements(1, 0, 500))
    b.insert_many(stream_elements(2, 0, 500))
    empty = HllSketch(params)
    assert merge(a, empty) == a
    assert merge(a, b) == merge(b, a)
    assert merge(a, a) == a


def test_merge_associative():
    params = HllParams(128, 6)
    sketches = []
    for seed in (1, 2, 3):
        s = HllSketch(params)
        s.insert_many(stream_elements(seed, 0, 300))
        sketches.append(s)
    a, b, c = sketches
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_equals_union_stream():
    params = HllParams(256, 6)
    gen_a = stream_elements(10, 0, 1000)
    gen_b = stream_elements(20, 0, 1000)
    a = HllSketch(params)
    a.insert_many(gen_a)
    b = HllSketch(params)
    b.insert_many(gen_b)
    union = HllSketch(params)
    union.insert_many(gen_a + gen_b)
    merged = merge(a, b)
    assert merged.registers == union.registers
    assert merged.estimate() >= a.estimate()
    assert merged.estimate() >= b.estimate()


def test_merge_rejects_parameter_mismatch():
    a = HllSketch(HllParams(256, 6))
    with pytest.raises(ValueError):
        merge(a, HllSketch(HllParams(512, 6)))
    with pytest.raises(ValueError):
        merge(a, HllSketch(HllParams(256, 5)))
    with pytest.raises(ValueError):
        merge(a, HllSketch(HllParams(256, 6, salt=7)))


# -- stream-level invariants ---------------------------------------------------


def test_permutation_invariance():
    params = HllParams(128, 6)
    elements = stream_elements(77, 0, 2000)
    shuffled = elements[:]
    random.Random(4).shuffle(shuffled)
    a = HllSketch(params)
    a.insert_many(elements)
    b = HllSketch(params)
    b.insert_many(shuffled)
    assert a.registers == b.registers
    assert a.estimate() == b.estimate()


def test_insert_many_rejects_an_empty_element_before_inserting():
    sketch = HllSketch(HllParams(64, 6))
    elements = stream_elements(6, 0, 100)
    with pytest.raises(ValueError):
        sketch.insert_many(elements + [b""])
    with pytest.raises(ValueError):
        sketch.insert_many(iter(elements[:50] + [b""] + elements[50:]))
    for bad in ("c", None, bytearray(b"c")):
        with pytest.raises(TypeError):
            sketch.insert_many(elements + [bad])
        with pytest.raises(TypeError):
            sketch.insert_many(iter(elements[:50] + [bad] + elements[50:]))
    assert sketch.registers == bytes(64)
    assert sketch.insert_many(iter(elements)) > 0


def two_pass_witness(elements, params):
    """Final registers first, then the first element reaching each register's final value."""
    full = HllSketch(params)
    full.insert_many(elements)
    target = full.registers
    expected = {}
    for element in elements:
        index, rank = hash_split(element, params)
        if index not in expected and rank == target[index]:
            expected[index] = element
    return [expected[i] for i in sorted(expected)]


def test_witness_subset_keeps_the_first_element_at_each_final_rank():
    params = HllParams(64, 6)
    elements = stream_elements(15, 0, 3000)
    expected = two_pass_witness(elements, params)
    assert witness_subset(elements, params) == expected
    assert witness_subset(iter(elements), params) == expected


# -- the kernel witness pass --------------------------------------------------------
# witness_subset is RegisterFile.witness on a fresh register file. Each twin
# must give the two-pass reference's list, through the pure kernel's lane
# and scalar block paths alike, and leave the file it runs on unchanged.

BLOCK = _pykernel._BLOCK
MASK64 = (1 << 64) - 1


def witness_elements(count):
    # The first block has one length, so the pure kernel hashes it in lanes;
    # later blocks mix lengths and are hashed one by one.
    return [(stream_element(21, k) * 3)[: 16 if k < BLOCK else 1 + k % 40] for k in range(count)]


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK + 3])
@pytest.mark.parametrize(
    "params",
    [HllParams(64, 6), HllParams(256, 4, salt=0x0123456789ABCDEF), HllParams(1024, 6, salt=MASK64)],
)
def test_kernel_witness_matches_the_two_pass_reference(kernels, monkeypatch, count, params):
    elements = witness_elements(count)
    expected = two_pass_witness(elements, params)
    for kernel in kernels:
        monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
        assert witness_subset(elements, params) == expected, kernel.__name__
        assert witness_subset((e for e in elements), params) == expected, kernel.__name__
        # The file's own registers neither seed the pass nor change.
        sketch = HllSketch(params)
        sketch.insert_many(witness_elements(300))
        before = sketch.to_bytes()
        assert sketch._core.witness(iter(elements)) == expected, kernel.__name__
        assert sketch.to_bytes() == before


@pytest.mark.parametrize("bad", [b"", "not bytes", bytearray(b"abc"), 7, None])
@pytest.mark.parametrize("at", [0, 3, BLOCK + 5])
def test_kernel_witness_refuses_a_bad_element_and_changes_nothing(kernels, monkeypatch, bad, at):
    elements = witness_elements(BLOCK + 10)
    elements.insert(at, bad)
    params = HllParams(256, 6)
    for kernel in kernels:
        monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
        sketch = HllSketch(params)
        sketch.insert_many(witness_elements(300))
        before = sketch.registers
        with pytest.raises(ValueError if bad == b"" else TypeError):
            sketch._core.witness(iter(elements))
        with pytest.raises(ValueError if bad == b"" else TypeError):
            witness_subset(elements, params)
        assert sketch.registers == before


def test_kernel_witness_raises_what_a_failing_iterable_raises(kernels, monkeypatch):
    def failing(prefix):
        yield from prefix
        raise RuntimeError("source failed")

    # A bad element just before the source fails raises its own error.
    for prefix, error in (
        (witness_elements(BLOCK + 5), RuntimeError),
        ([b"a", b""], ValueError),
        ([b"a", None], TypeError),
    ):
        for kernel in kernels:
            monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
            with pytest.raises(error):
                witness_subset(failing(prefix), HllParams(64, 6))


def test_witness_subset_reproduces_registers():
    params = HllParams(64, 6)
    elements = stream_elements(5, 0, 3000)
    witnesses = witness_subset(elements, params)
    assert len(witnesses) <= 64
    full = HllSketch(params)
    full.insert_many(elements)
    replay = HllSketch(params)
    replay.insert_many(witnesses)
    assert replay.registers == full.registers
    assert replay.estimate() == full.estimate()


@given(st.integers(min_value=0, max_value=2**63))
@settings(max_examples=30, deadline=None)
def test_estimates_deterministic_across_instances(seed):
    params = HllParams(64, 6)
    a = HllSketch(params)
    b = HllSketch(params)
    elements = stream_elements(seed, 0, 200)
    a.insert_many(elements)
    b.insert_many(elements)
    assert a.estimate() == b.estimate()
    assert a.registers == b.registers


# -- snapshots ----------------------------------------------------------------


def test_snapshot_binary_layout():
    params = HllParams(16, 6, salt=0x1122334455667788)
    sketch = with_registers(params, [0, 0, 9] + [0] * 13)
    blob = sketch.to_bytes()
    assert blob[:4] == b"HLLS"
    assert int.from_bytes(blob[4:8], "little") == 16
    assert blob[8] == 6
    assert blob[9] == 1  # salted flag
    assert int.from_bytes(blob[10:18], "little") == 0x1122334455667788
    registers = blob[18:]
    assert len(registers) == 16
    assert registers[2] == 9 and sum(registers) == 9


def test_snapshot_roundtrip_bytes():
    params = HllParams(64, 5)
    sketch = HllSketch(params)
    sketch.insert_many(stream_elements(3, 0, 500))
    again = HllSketch.from_bytes(sketch.to_bytes())
    assert again == sketch
    assert again.estimate() == sketch.estimate()


def test_snapshot_rejects_garbage():
    good = HllSketch(HllParams(16)).to_bytes()
    # The older layout's 26-byte header carried an f64 switch factor.
    with_switch_factor = good[:18] + struct.pack("<d", 2.5) + good[18:]
    for bad in (b"NOPE" + bytes(30), good[:-1], with_switch_factor):
        with pytest.raises(ValueError):
            HllSketch.from_bytes(bad)


def test_snapshot_refuses_what_to_bytes_cannot_write():
    # Byte 9 is the salted flag, bytes 10..17 the salt: a flag other than
    # 0 or 1, or a salt under flag 0, would load and then write back changed.
    for salt in (None, 0, 7):
        good = HllSketch(HllParams(16, 6, salt=salt)).to_bytes()
        assert HllSketch.from_bytes(good).to_bytes() == good
    unsalted = HllSketch(HllParams(16, 6)).to_bytes()
    salted = HllSketch(HllParams(16, 6, salt=7)).to_bytes()
    flag_two = salted[:9] + b"\x02" + salted[10:]
    salt_unflagged = unsalted[:10] + (7).to_bytes(8, "little") + unsalted[18:]
    for bad in (flag_two, salt_unflagged):
        with pytest.raises(ValueError):
            HllSketch.from_bytes(bad)


def test_copy_is_independent():
    sketch = HllSketch(HllParams(64))
    sketch.insert(b"x")
    clone = sketch.copy()
    assert clone == sketch
    clone.insert(b"yyy")
    assert clone != sketch or clone.registers == sketch.registers
