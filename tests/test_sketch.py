"""Sketch behavior: updates, estimates, merge algebra, snapshots."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hllrt import (
    ElementGenerator,
    HllParams,
    HllSketch,
    alpha_for_registers,
    merge,
    witness_subset,
)


def find_element(params, index=None, rank=None, start=0):
    """Scan the deterministic stream for an element with the wanted split."""
    gen = ElementGenerator(999)
    split = HllSketch(params).hash_split
    for k in range(start, start + 2_000_000):
        e = gen.element(k)
        i, r = split(e)
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


def test_alpha_constants():
    assert alpha_for_registers(16) == 0.673
    assert alpha_for_registers(32) == 0.697
    assert alpha_for_registers(64) == 0.709
    assert alpha_for_registers(4096) == pytest.approx(0.7213 / (1 + 1.079 / 4096))
    assert HllParams(128).alpha == alpha_for_registers(128)


# -- hash_split ---------------------------------------------------------------


def test_hash_split_deterministic_and_bounded():
    params = HllParams(64, 6)
    sketch = HllSketch(params)
    for k in range(200):
        e = ElementGenerator(1).element(k)
        a = sketch.hash_split(e)
        b = HllSketch(params).hash_split(e)
        assert a == b
        index, rank = a
        assert 0 <= index < 64
        assert 1 <= rank <= (1 << params.register_width) - 1
    assert sketch.registers == bytes(64)  # splitting inserts nothing


def test_hash_split_rejects_empty():
    with pytest.raises(ValueError):
        HllSketch(HllParams(64)).hash_split(b"")


def test_hash_split_salt_changes_mapping():
    unsalted = HllSketch(HllParams(1024, 6))
    salted = HllSketch(HllParams(1024, 6, salt=12345))
    elements = [ElementGenerator(2).element(k) for k in range(100)]
    assert any(unsalted.hash_split(e) != salted.hash_split(e) for e in elements)


def test_hash_split_clamps_rank_to_register_width():
    # Width 4 stores ranks up to 15; an element whose hash would give a
    # longer run is stored as 15 by both the split and the insert.
    params = HllParams(16, 4)
    e = find_element(HllParams(16, 8), rank=16)
    assert HllSketch(HllParams(16, 8)).hash_split(e)[1] == 16
    index, rank = HllSketch(params).hash_split(e)
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
    sketch.insert_many(ElementGenerator(31).stream(n))
    assert abs(sketch.estimate() - n) < 3 * (1.04 / math.sqrt(m)) * n


def test_estimate_uses_linear_counting_in_low_range():
    m = 1024
    sketch = HllSketch(HllParams(m))
    sketch.insert_many(ElementGenerator(8).stream(100))
    v = sketch.zero_register_count()
    assert v > 0
    assert sketch.estimate() == round(m * math.log(m / v))


# -- merge --------------------------------------------------------------------


def test_merge_identity_commutative_idempotent():
    params = HllParams(256, 6)
    a = HllSketch(params)
    b = HllSketch(params)
    a.insert_many(ElementGenerator(1).stream(500))
    b.insert_many(ElementGenerator(2).stream(500))
    empty = HllSketch(params)
    assert merge(a, empty) == a
    assert merge(a, b) == merge(b, a)
    assert merge(a, a) == a


def test_merge_associative():
    params = HllParams(128, 6)
    sketches = []
    for seed in (1, 2, 3):
        s = HllSketch(params)
        s.insert_many(ElementGenerator(seed).stream(300))
        sketches.append(s)
    a, b, c = sketches
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_equals_union_stream():
    params = HllParams(256, 6)
    gen_a = list(ElementGenerator(10).stream(1000))
    gen_b = list(ElementGenerator(20).stream(1000))
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
    elements = list(ElementGenerator(77).stream(2000))
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
    elements = list(ElementGenerator(6).stream(100))
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


def test_witness_subset_keeps_the_first_element_at_each_final_rank():
    # Two-pass reference: final registers first, then the first element
    # reaching each register's final value.
    params = HllParams(64, 6)
    elements = list(ElementGenerator(15).stream(3000))
    full = HllSketch(params)
    full.insert_many(elements)
    target = full.registers
    expected = {}
    for element in elements:
        index, rank = full.hash_split(element)
        if index not in expected and rank == target[index]:
            expected[index] = element
    assert witness_subset(elements, params) == [expected[i] for i in sorted(expected)]
    assert witness_subset(iter(elements), params) == [expected[i] for i in sorted(expected)]


def test_witness_subset_reproduces_registers():
    params = HllParams(64, 6)
    elements = list(ElementGenerator(5).stream(3000))
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
    elements = list(ElementGenerator(seed).stream(200))
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
    sketch.insert_many(ElementGenerator(3).stream(500))
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
