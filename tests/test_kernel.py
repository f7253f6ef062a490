"""Kernel-level tests: hashing quality, bookkeeping, backend parity."""

import hashlib
import math
import random
import sys
import threading
from itertools import repeat
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

import hllrt._kernel as kern
import hllrt.sketch
from hllrt import CardinalityOracle, CountingOracle, HllParams, HllSketch, make_oracle
from hllrt._kernel import BACKEND, RegisterFile, _pykernel, hash64, stream_element
from splits import hash_split

MASK64 = (1 << 64) - 1
BLOCK = _pykernel._BLOCK  # elements the pure insert_many hashes per pass

ALPHA_1024 = 0.7213 / (1 + 1.079 / 1024)


def make_rf(kernel, m=1024, width=6, salt=0, alpha=None, switch=2.5):
    if alpha is None:
        alpha = 0.7213 / (1 + 1.079 / m)
    return kernel.RegisterFile(m, width, salt, alpha, switch)


def test_hash_deterministic():
    assert hash64(b"element", 7) == hash64(b"element", 7)
    assert hash64(b"", 0) == hash64(b"", 0)


def test_hash_salt_rekeys():
    elements = [b"e%d" % i for i in range(100)]
    same = sum(hash64(e, 1) == hash64(e, 2) for e in elements)
    assert same < 100  # astronomically unlikely to collide even once


def test_rank_geometric_law():
    # Fraction of elements with rank k must track 2**-k within 3 sigma
    # of the binomial; this is the fresh-register update probability the
    # stats detector's "average close to two" rests on.
    params = HllParams(16, 8)
    n = 100000
    counts = {}
    for k in range(n):
        _, rank = hash_split(stream_element(3, k), params)
        counts[rank] = counts.get(rank, 0) + 1
    for k in range(1, 7):
        p = 2.0**-k
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(k, 0) / n - p) < 3 * sigma


def test_index_uniformity():
    params = HllParams(64, 6)
    n = 100000
    buckets = [0] * 64
    for k in range(n):
        index, _ = hash_split(stream_element(5, k), params)
        buckets[index] += 1
    expected = n / 64
    chi2 = sum((b - expected) ** 2 / expected for b in buckets)
    # df=63; mean 63, sd sqrt(126); allow 5 sd
    assert chi2 < 63 + 5 * math.sqrt(126)


def test_stream_element_distinct_and_reproducible():
    seen = {stream_element(9, k) for k in range(10000)}
    assert len(seen) == 10000
    assert stream_element(9, 1234) == stream_element(9, 1234)
    assert all(len(e) == 16 for e in list(seen)[:10])


def test_stream_seeds_decorrelated():
    # Nearby seeds must not produce shifted copies of the same stream.
    a = {stream_element(1, k) for k in range(1000)}
    b = {stream_element(2, k) for k in range(1000)}
    assert len(a & b) == 0


def test_insert_returns_increment():
    rf = make_rf(kern, m=16, width=6)
    e = stream_element(1, 0)
    _, rank = hash_split(e, HllParams(16, 6))
    assert rf.insert(e) == rank
    assert rf.insert(e) == 0


def stream_span(seed, start, count):
    return map(stream_element, repeat(seed, count), range(start, start + count))


def test_insert_many_of_a_stream_span_matches_individual_inserts(kernels):
    for kernel in kernels:
        a = make_rf(kernel)
        b = make_rf(kernel)
        a.insert_many(stream_span(77, 0, 5000))
        for k in range(5000):
            b.insert(stream_element(77, k))
        assert a.dump_registers() == b.dump_registers()
        # A span that starts mid-stream and crosses insert_many's block boundaries.
        count = 2 * BLOCK + 1
        changed = sum(b.insert(stream_element(77, k)) > 0 for k in range(5000, 5000 + count))
        assert a.insert_many(stream_span(77, 5000, count)) == changed
        assert a.dump_registers() == b.dump_registers()
        assert a.z_sum() == b.z_sum()


def test_register_value_bounds(kernels):
    for kernel in kernels:
        rf = make_rf(kernel, m=16, width=6)
        rf.load_registers(bytes([63] + [0] * 15))
        assert rf.dump_registers()[0] == 63
        with pytest.raises(ValueError):
            rf.load_registers(bytes([64] + [0] * 15))
        with pytest.raises(ValueError):
            rf.load_registers(bytes([64] * 16))
        with pytest.raises(ValueError):
            rf.load_registers(bytes(15))


def test_reset_restores_empty_state():
    rf = make_rf(kern, m=64)
    rf.insert_many(stream_span(3, 0, 1000))
    rf.reset()
    assert rf.zero_registers() == 64
    assert rf.estimate() == 0
    assert rf.dump_registers() == bytes(64)


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_registers_monotone_under_insertion(elements):
    rf = make_rf(kern, m=16, width=6)
    previous = rf.dump_registers()
    for element in elements:
        rf.insert(element)
        current = rf.dump_registers()
        assert all(c >= p for c, p in zip(current, previous))
        previous = current


# -- backend parity ----------------------------------------------------------


def test_backend_selected():
    assert BACKEND in ("compiled", "pure")
    assert callable(RegisterFile) and callable(hash64) and callable(stream_element)


def test_twins_expose_the_same_names(pure_kernel, compiled_kernel):
    # A method added to one twin alone fails here.
    def public(names):
        return {name for name in names if not name.startswith("_")}

    assert public(dir(pure_kernel.RegisterFile)) == public(dir(compiled_kernel.RegisterFile))
    assert {"scan", "scan_stream", "witness"} <= public(dir(pure_kernel.RegisterFile))
    assert "stream_elements" in kern.__all__
    for name in kern.__all__:
        if name != "BACKEND":
            assert hasattr(pure_kernel, name) and hasattr(compiled_kernel, name), name


def test_constructor_refuses_the_types_c_parses_refuse(kernels):
    # "niKdd": R and width take an int, the salt an int, alpha and the
    # switch factor a real number; a float or str is never truncated or parsed.
    good = (16, 6, 0, 0.673, 2.5)
    for kernel in kernels:
        for position in range(5):
            for wrong in (16.0, "16") if position < 3 else ("0.7", b"0.7", None):
                args = list(good)
                args[position] = wrong
                with pytest.raises(TypeError):
                    kernel.RegisterFile(*args)
        assert kernel.RegisterFile(*good).estimate() == 0


def test_constructor_refuses_an_int_c_cannot_hold(kernels):
    # "n" takes R as a Py_ssize_t and "i" the width as a C int, in argument
    # order, so the first bad argument decides; a huge width is refused
    # before any shift by it.
    for kernel in kernels:
        for m, width in ((2**70, 6), (-(2**63) - 1, 6), (16, -(2**31) - 1), (2**70, 1.5),
                         (16, 2**31)):
            with pytest.raises(OverflowError):
                kernel.RegisterFile(m, width, 0, 0.673, 2.5)


@pytest.mark.parametrize("m", [3, 24, 1000])
def test_constructor_refuses_a_register_count_that_is_not_a_power_of_two(kernels, m):
    # The index is hash & (R - 1): other R would leave registers unreachable.
    for kernel in kernels:
        with pytest.raises(ValueError):
            make_rf(kernel, m=m)


def test_parity_hash(pure_kernel, compiled_kernel):
    rng = random.Random(11)
    for _ in range(3000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        salt = rng.getrandbits(64)
        assert pure_kernel.hash64(data, salt) == compiled_kernel.hash64(data, salt)
    for _ in range(200):
        seed, k = rng.getrandbits(64), rng.getrandbits(32)
        assert pure_kernel.stream_element(seed, k) == compiled_kernel.stream_element(seed, k)


def test_parity_register_file(pure_kernel, compiled_kernel):
    # Bit-identical estimates over a long mixed run, checked at many
    # points including the low-range / harmonic-mean crossover.
    py = make_rf(pure_kernel, m=256, salt=42, alpha=0.7213 / (1 + 1.079 / 256))
    cy = make_rf(compiled_kernel, m=256, salt=42, alpha=0.7213 / (1 + 1.079 / 256))
    for k in range(30000):
        e = pure_kernel.stream_element(9, k)
        assert py.insert(e) == cy.insert(e)
        if k % 61 == 0:
            assert py.estimate() == cy.estimate()
            assert py.z_sum() == cy.z_sum()
    assert py.dump_registers() == cy.dump_registers()
    assert py.zero_registers() == cy.zero_registers()


def test_parity_register_ops(pure_kernel, compiled_kernel):
    py = make_rf(pure_kernel, m=16, width=6, alpha=0.673)
    cy = make_rf(compiled_kernel, m=16, width=6, alpha=0.673)
    rng = random.Random(5)
    registers = bytearray(16)
    for _ in range(500):
        i, v = rng.randrange(16), rng.randrange(0, 64)
        registers[i] = v
        py.load_registers(bytes(registers))
        cy.load_registers(bytes(registers))
        assert py.estimate() == cy.estimate()
        assert py.zero_registers() == cy.zero_registers()
    other = bytes(rng.randrange(0, 64) for _ in range(16))
    py.merge_registers(other)
    cy.merge_registers(other)
    assert py.dump_registers() == cy.dump_registers()
    assert py.estimate() == cy.estimate()


def test_register_dumps_must_be_bytes(kernels):
    for kernel in kernels:
        rf = make_rf(kernel, m=16)
        rf.load_registers(bytes([0, 0, 7] + [0] * 13))
        before = rf.dump_registers()
        for data in (bytearray(16), memoryview(bytes(16)), [0] * 16, None, "a" * 16):
            with pytest.raises(TypeError):
                rf.load_registers(data)
            with pytest.raises(TypeError):
                rf.merge_registers(data)
        assert rf.dump_registers() == before


def test_merge_with_a_bad_byte_changes_nothing(kernels):
    for kernel in kernels:
        rf = make_rf(kernel, m=16, width=6)
        rf.load_registers(bytes([0, 0, 0, 2] + [0] * 12))
        before = (rf.dump_registers(), rf.estimate(), rf.zero_registers(), rf.z_sum())
        with pytest.raises(ValueError):
            rf.merge_registers(bytes([9] * 15 + [64]))
        assert (rf.dump_registers(), rf.estimate(), rf.zero_registers(), rf.z_sum()) == before


# -- golden values -------------------------------------------------------------
# These pin the mapping itself on both kernels, so a rewrite of either that
# changes one hash, one stream element or one phase set fails here. Both
# kernels produced exactly these values.

GOLDEN_DATA = bytes((37 * i + 11) % 256 for i in range(40))

# hash64(GOLDEN_DATA[:n], salt) for n = 0..40: every tail length on
# both sides of each 8-byte word boundary.
HASH64_GOLDEN = {
    0: (
        0x1510F82856926D3E, 0x70B8502E0911EDE4, 0x75E18DF3E876F19C,
        0xD2C626F32E3DEA74, 0x158FD9BEF3C3107D, 0x38C9F6DECBC0E5B9,
        0xE5A8DAD45B78B61B, 0xB296724B36E53FAE, 0x7ACBCEF7097391C7,
        0xCEA78A4B8CAE41F9, 0x417BE3C6B46DAE1D, 0xFD30D02021F14789,
        0x22C36B4F00BBA937, 0xAF7CFB0465A74BEC, 0x8767600E15917B72,
        0x2AC029284249C8DC, 0x00E3E0B824DFFFC8, 0xBB7710E39DFDBC39,
        0x5192D2FE21D21E88, 0x52D5F94877395B3F, 0x1874A4E654F9D65A,
        0x05347C7C89E4A62F, 0x0E081614A855167C, 0x5925CC87DFFF8DDF,
        0x927F936342A38366, 0xDD5DA4BD24E9DDFC, 0xA9B4931760319368,
        0x7EA7A46F2D91C798, 0xCFCDBCFD4166213E, 0x66A0B5DADF497275,
        0x3437EEAE96238D88, 0x3B443A2B0E35527E, 0xB3DEFB90427E3C6A,
        0x79C061F1A002F7FB, 0x0CB7A806F1C4A73D, 0xEC3FB91816482B59,
        0x57EF217BD88F08F1, 0x14216D9BE5CD7EC9, 0xF2FBC5DBD3A03F26,
        0xEE94D04EF7E3505C, 0x05660C4D425DA323,
    ),
    0x0123456789ABCDEF: (
        0x580D1BFC097BD8FA, 0xCEB9BA443A8F684F, 0x9CF41012DC36C508,
        0x01CB4ED0D00FECE6, 0x541923E2634AACA2, 0x2800CF9897ABF7C2,
        0x01A33C11BB0B4DF3, 0x3167F0DA3D1504A7, 0x81EAE7F0F3B6A76E,
        0xAC6FFDFF339C3EED, 0x02D7201F005FDECB, 0xE556693F7223556E,
        0x83190D0A85AF929C, 0x4CFFDC25CA3D303F, 0x2496F76586E73A38,
        0x30A71ACA3B303530, 0x654EF2ED25DE90D8, 0x2DCB2379058FBB4A,
        0x84F6E00AD50A4CB4, 0x403217AF7343A936, 0x61B2554D6D643093,
        0x8A8F2DD2FCAA5107, 0x8AADEE7B421FDB94, 0x4AB5CE763E94E168,
        0x7A1DE8603C6960DA, 0xB5DED03FFFAFA43F, 0x1E27939313D7A2BF,
        0x97430E2BDB9A48E5, 0x6CDAD6E76C0EDC82, 0xD499574D64ADCDCB,
        0x4E96E6FB02EC925B, 0x1F23B093A6C43F07, 0x7105D40E93B19B5A,
        0xBB958E63F7AA2E88, 0x107E6943BE449A5B, 0x0ED63EEFE7508F4A,
        0xF08071FF28605ADF, 0x050A1C2863116155, 0xE48C0613AFEFA1BD,
        0xFEB9A467A4E94529, 0x32E9E2622A4CBA36,
    ),
    MASK64: (
        0xBFDB51E52A4F7757, 0xB5A09BBA08211D4B, 0x37EA89E56DCE969B,
        0x84196FD8BFC70F11, 0x9AECA33D1C70686C, 0xDC11288801847164,
        0xAC823E009FEA4010, 0xEBCAC0CC6CDB47A3, 0x38AA52FBF8D45ABC,
        0xB7FA665861870FD3, 0x55B69D8377C6CF08, 0xACA6F0234149589A,
        0xB7C7EF29061F6F67, 0x7CB545B2166E8538, 0x29ADC830538B9C1C,
        0x451CF53BC77E0859, 0xA5115ED4F00F5994, 0x5821A3F8524948EF,
        0xE1CBF1421A7AC125, 0xEFD460E01558721C, 0x7FCB37C593FD3438,
        0xF8B9559ACA4C3A5E, 0xC1C67CFC9DB1A36F, 0x2D792C2D0FA4F5E8,
        0x78446402299D3A0A, 0x141E88DCABA21063, 0xFA23AF5A4D010932,
        0x99F4E6DCE6D8D9C4, 0x111BAEDADE998CFC, 0x229CC4F8CCF228A9,
        0xEC5341A1CB8FD9F0, 0xB181D434C33EBE09, 0x4FBE670F04B652CA,
        0x067C20436BED66CE, 0x9B6851CFA8F59315, 0x401D67AD8EA5E161,
        0x0BC43C57887ED865, 0x055C38839DEA44D2, 0x20758A7272A555BE,
        0x3B1AD6F28AF11C6F, 0x170A670391C1CCB0,
    ),
}

STREAM_GOLDEN = {
    (0, 0): b"a706dd2f4d197e6f",
    (0, 1): b"2a98f501af37e97f",
    (1, 0): b"5e41ab087439611e",
    (7, 12345): b"0729fcbe5b63ca5a",
    (2**63 + 5, 2**32 + 1): b"fb2520c2201dd392",
    (MASK64, MASK64): b"5155e650b56274f2",
    (501, 99_999): b"4d59feb985898185",
}


def test_hash64_golden_values(kernels):
    for kernel in kernels:
        for salt, expected in HASH64_GOLDEN.items():
            got = tuple(kernel.hash64(GOLDEN_DATA[:n], salt) for n in range(41))
            assert got == expected, (kernel.__name__, hex(salt))


def test_stream_element_golden_values(kernels):
    for kernel in kernels:
        for (seed, k), expected in STREAM_GOLDEN.items():
            assert kernel.stream_element(seed, k) == expected
        # Interleaved seeds: the per-seed mixing must not leak between streams.
        for (seed, k), expected in reversed(STREAM_GOLDEN.items()):
            assert kernel.stream_element(seed, k) == expected


# -- insert_many hashes whole blocks ---------------------------------------------
# The pure kernel's insert_many hashes a block of elements in one pass of
# big-integer lanes. These check it against the scalar hash64 and against
# sequential insert on both kernels.

SALTS = (0, 0x0123456789ABCDEF, MASK64)


def test_block_hash_matches_hash64():
    rng = random.Random(17)
    data = bytes(rng.randrange(256) for _ in range(1100))
    for salt in SALTS:
        for n in list(range(41)) + [64, 100, 1000]:
            block = [data[i : i + n] for i in range(0, 100, 3)]
            lanes = _pykernel._lane_hashes(block, n, salt).to_bytes(16 * len(block), "little")
            low = [int.from_bytes(lanes[i : i + 8], "little") for i in range(0, len(lanes), 16)]
            assert low == [hash64(e, salt) for e in block], (n, salt)


# Several blocks, ending just before, at and just after a block boundary.
@pytest.mark.parametrize("count", [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1, 8 * BLOCK + 1])
@given(
    salt=st.sampled_from(SALTS),
    seed=st.integers(0, MASK64),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
)
@settings(max_examples=8, deadline=None)
def test_insert_many_equals_sequential_inserts(kernels, count, salt, seed, lengths):
    # The first block has one length, so the pure kernel hashes it in lanes;
    # later blocks cycle through ``lengths`` and, if it mixes lengths, take
    # the scalar loop.
    elements = [
        (stream_element(seed, k) * 3)[: lengths[0 if k < BLOCK else k % len(lengths)]]
        for k in range(count)
    ]
    for kernel in kernels:
        bulk = make_rf(kernel, m=256, salt=salt)
        one_by_one = make_rf(kernel, m=256, salt=salt)
        changed = sum(one_by_one.insert(e) > 0 for e in elements)
        assert bulk.insert_many(iter(elements)) == changed
        assert bulk.dump_registers() == one_by_one.dump_registers()
        assert bulk.z_sum() == one_by_one.z_sum()
        assert bulk.estimate() == one_by_one.estimate()


def golden_insert_stream(mixed):
    # 5,000 16-byte stream elements, which the pure kernel hashes in lanes;
    # if mixed, every third has a length 1..40 instead, and every block
    # takes the scalar loop.
    for k in range(5000):
        element = stream_element(3, k)
        yield (element * 3)[: 1 + k % 40] if mixed and not k % 3 else element


# (changed count, estimate, sha256 of the register dump) after insert_many
# of golden_insert_stream(mixed) at R=1024, keyed by (mixed, salt),
# computed before insert_many hashed in blocks.
INSERT_MANY_GOLDEN = {
    (True, 0): (1811, 5049, "1ff47f66546d4131e937bb2969cf7569e70b9039296be0535c98e32e80bbfbd7"),
    (True, 0x0123456789ABCDEF): (
        1854, 5056, "8d1af2cec8fbfbe6fb0be4a106b66b1c77ad448556827f1be95da9b007ffa4e0"
    ),
    (True, MASK64): (1847, 4975, "878669d3ea5218877eec79ca67a23d73eba3b08d2c5ec91dd1a863821a5f5e22"),
    (False, 0): (1827, 5006, "c1da6ccaaf5313a8a56e1b00e03aec4bbd223ec268a67620845ecf16a1b0476d"),
    (False, 0x0123456789ABCDEF): (
        1864, 4976, "f327525589c4e7b42548fd917bb36f7ef97697bd32540540ccfde4767e5bb8e5"
    ),
    (False, MASK64): (1850, 5030, "bea71ef755d7add138082a3bc2bf105af338f07c96ac2dff52f3c5fb8a0a9c24"),
}


def test_insert_many_golden_register_digests(kernels):
    for kernel in kernels:
        for (mixed, salt), expected in INSERT_MANY_GOLDEN.items():
            rf = make_rf(kernel, m=1024, salt=salt)
            changed = rf.insert_many(golden_insert_stream(mixed))
            digest = hashlib.sha256(rf.dump_registers()).hexdigest()
            assert (changed, rf.estimate(), digest) == expected, (kernel.__name__, mixed, hex(salt))


def test_insert_many_refuses_a_non_bytes_element_before_inserting_any(kernels):
    elements = [stream_element(8, k) for k in range(BLOCK + 10)]
    bad = BLOCK + 5  # in the second block, after a whole block of good elements
    for kernel in kernels:
        for not_bytes in ("not bytes", bytearray(16), memoryview(elements[0])):
            bulk = make_rf(kernel)
            with pytest.raises(TypeError):
                bulk.insert_many(elements[:bad] + [not_bytes] + elements[bad:])
            assert bulk.dump_registers() == bytes(1024)
            assert bulk.z_sum() == make_rf(kernel).z_sum()


def test_insert_many_inserts_nothing_from_a_failing_iterable(kernels):
    elements = [stream_element(9, k) for k in range(BLOCK + 10)]
    stop = BLOCK + 5  # mid-way through the second block

    def failing(prefix):
        yield from prefix
        raise RuntimeError("source failed")

    # The last two rows put a bad element before the source fails: the
    # source's error still comes first, since nothing is inserted.
    for prefix in (elements[:stop], [b"a", b""], [b"a", None]):
        for kernel in kernels:
            bulk = make_rf(kernel)
            with pytest.raises(RuntimeError):
                bulk.insert_many(failing(prefix))
            assert bulk.dump_registers() == bytes(1024)
            assert bulk.z_sum() == make_rf(kernel).z_sum()


@pytest.mark.parametrize(
    "bad",
    [None, "", bytearray(), memoryview(b"ab"), b""],
    ids=["None", "str", "bytearray", "memoryview", "empty"],
)
@pytest.mark.parametrize("at", [0, BLOCK // 2, BLOCK + 5])
def test_every_element_method_refuses_a_bad_element_alike(kernels, bad, at):
    # The one element rule, held by the kernel: TypeError for anything that
    # is not bytes, ValueError for an empty bytes, the same on both twins.
    # insert and insert_many leave the file as it was.
    error = ValueError if type(bad) is bytes else TypeError
    elements = [stream_element(12, k) for k in range(BLOCK + 10)]
    elements.insert(at, bad)
    for kernel in kernels:
        rf = make_rf(kernel)
        rf.insert_many(stream_span(13, 0, 300))
        before = (rf.dump_registers(), rf.z_sum())
        for call in (
            lambda: rf.insert(bad),
            lambda: rf.insert_many(elements),
            lambda: rf.insert_many(iter(elements)),
        ):
            with pytest.raises(error):
                call()
            assert (rf.dump_registers(), rf.z_sum()) == before, kernel.__name__
        with pytest.raises(error):
            rf.witness(iter(elements))
        with pytest.raises(error):
            rf.scan(iter(elements), [])


# -- the kernel scan ---------------------------------------------------------------
# RegisterFile.scan runs the attack's scan loop in the kernel. On each twin it
# must keep, estimate and insert exactly what CardinalityOracle.scan, the
# reference loop, does through the same kernel's insert and estimate.

SCAN_COUNTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1)


def twin_oracles(kernel, monkeypatch, salt, preload):
    """Two in-process oracles on ``kernel``, each holding ``preload`` stream elements."""
    monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
    oracles = [make_oracle(HllParams(256, 6, salt=salt)) for _ in range(2)]
    for oracle in oracles:
        oracle.insert_many(stream_span(5, 10**6, preload))
    return oracles


def scan_both(fast, slow, elements):
    """(outcome, kept) of the kernel scan and of the reference loop over ``elements``."""
    results = []
    for scan, oracle in ((type(fast).scan, fast), (CardinalityOracle.scan, slow)):
        kept = []
        try:
            outcome = scan(oracle, iter(elements), kept)
        except Exception as exc:
            outcome = type(exc)
        results.append((outcome, kept))
    return results


def scan_elements(count, lengths):
    # The first block has one length, so the pure kernel hashes it in lanes;
    # later blocks cycle through ``lengths`` and, if it mixes lengths, one by one.
    return [
        (stream_element(11, k) * 3)[: lengths[0 if k < BLOCK else k % len(lengths)]]
        for k in range(count)
    ]


@pytest.mark.parametrize("count", SCAN_COUNTS)
@pytest.mark.parametrize("lengths", [[16], [16, 1, 40, 8, 9]])
def test_scan_matches_the_reference_loop(kernels, monkeypatch, count, lengths):
    elements = scan_elements(count, lengths)
    for kernel in kernels:
        for salt in (None, 0x0123456789ABCDEF, MASK64):
            # An empty sketch starts in linear counting; 3,000 elements take
            # it past the crossover, where most insertions change nothing.
            for preload in (0, 3000):
                fast, slow = twin_oracles(kernel, monkeypatch, salt, preload)
                (outcome, kept), reference = scan_both(fast, slow, elements)
                assert (outcome, kept) == reference, (kernel.__name__, salt, preload)
                assert outcome[1] == count
                assert fast.registers == slow.registers


@pytest.mark.parametrize("bad", [b"", "not bytes", bytearray(b"abc"), 7])
@pytest.mark.parametrize("at", [0, 3, BLOCK + 5])
def test_scan_refuses_a_bad_element_after_judging_the_ones_before(kernels, monkeypatch, bad, at):
    elements = scan_elements(BLOCK + 10, [16])
    elements.insert(at, bad)
    for kernel in kernels:
        fast, slow = twin_oracles(kernel, monkeypatch, None, 0)
        (outcome, kept), reference = scan_both(fast, slow, elements)
        assert outcome is (ValueError if bad == b"" else TypeError)
        assert (outcome, kept) == reference
        assert kept or at == 0
        assert fast.registers == slow.registers


@pytest.mark.parametrize(
    "stop, bad",
    [pytest.param(stop, (), id=str(stop)) for stop in (1, BLOCK, BLOCK + 5)]
    # A bad element just before the source fails: its error comes first,
    # once b"a" has been judged.
    + [pytest.param(0, (b"",), id="a-empty"), pytest.param(0, (None,), id="a-None")],
)
def test_scan_judges_what_a_failing_iterable_yielded_then_raises(kernels, monkeypatch, stop, bad):
    elements = [b"a", *bad] if bad else scan_elements(stop, [16, 1, 40])
    error = (ValueError if bad == (b"",) else TypeError) if bad else RuntimeError

    def failing():
        yield from elements
        raise RuntimeError("source failed")

    for kernel in kernels:
        fast, slow = twin_oracles(kernel, monkeypatch, None, 0)
        results = []
        for oracle, scan in ((fast, fast.scan), (slow, lambda *a: CardinalityOracle.scan(slow, *a))):
            kept = []
            with pytest.raises(error):
                scan(failing(), kept)
            results.append((kept, oracle.registers))
        assert results[0] == results[1]
        if bad:
            assert results[0][0] == [b"a"]


def test_scan_wants_a_list_to_keep_into(kernels):
    for kernel in kernels:
        rf = make_rf(kernel)
        for kept in ((), None, {}):
            with pytest.raises(TypeError):
                rf.scan([stream_element(1, 0)], kept)
        assert rf.dump_registers() == bytes(1024)


# -- blocks of the stream ------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, BLOCK, BLOCK + 1])
def test_stream_elements_match_stream_element(kernels, count):
    # The last start wraps past 2**64 within five elements.
    for kernel in kernels:
        for seed, start in ((0, 0), (7, 12345), (1, -2), (MASK64, 2**64 - 3), (501, 1 << 70)):
            expected = [kernel.stream_element(seed, (start + j) & MASK64) for j in range(count)]
            assert kernel.stream_elements(seed, start, count) == expected, (seed, start)


def test_stream_elements_refuses_what_the_twins_refuse(kernels):
    for kernel in kernels:
        for args in ((1.0, 0, 1), (0, "0", 1), (0, 0, 1.5), (0, 0, None), (None, 0, 0)):
            with pytest.raises(TypeError):
                kernel.stream_elements(*args)
        with pytest.raises(ValueError):
            kernel.stream_elements(0, 0, -1)
        # Refused before anything is allocated.
        for count in (2**63, -(2**63) - 1):
            with pytest.raises(OverflowError):
                kernel.stream_elements(0, 0, count)


# -- the scan of a stream span ----------------------------------------------------
# RegisterFile.scan_stream generates the span it scans. On each twin it must
# equal scan(stream_elements(...)) bit for bit: the same return value, kept
# elements and registers.


def scan_stream_both(kernel, m, width, salt, preload, seed, start, count):
    """(outcome, kept, registers) of scan_stream and of scan(stream_elements(...))."""
    results = []
    for stream in (True, False):
        rf = make_rf(kernel, m=m, width=width, salt=salt)
        rf.insert_many(stream_span(5, 10**6, preload))
        kept = []
        if stream:
            outcome = rf.scan_stream(seed, start, count, kept)
        else:
            outcome = rf.scan(kernel.stream_elements(seed, start, count), kept)
        results.append((outcome, kept, rf.dump_registers()))
    return results


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 3])
def test_scan_stream_matches_a_scan_of_stream_elements(kernels, count):
    # The second start wraps past 2**64 within three elements; a preload of
    # 3,000 takes R=16 and R=1024 past the estimate's crossover.
    for kernel in kernels:
        for m, width, salt in ((16, 6, 0), (1024, 5, MASK64), (4096, 6, 0x0123456789ABCDEF)):
            for seed, start in ((5, 0), (MASK64, 2**64 - 3), (3, -7)):
                for preload in (0, 3000):
                    stream, reference = scan_stream_both(
                        kernel, m, width, salt, preload, seed, start, count
                    )
                    assert stream == reference, (kernel.__name__, m, seed, start, preload)
                    assert stream[0][1] == count


@pytest.mark.parametrize("m", [16, 4096])
@pytest.mark.parametrize("width", [4, 5, 6])
def test_scan_stream_clamps_ranks_as_scan_does(kernels, m, width):
    # At R=16 element ranks reach 18 in this span, so at width 4 (at most
    # 15) the clamp decides registers.
    elements = _pykernel.stream_elements(0, 0, 8 * BLOCK)
    assert max(hash_split(e, HllParams(16, 8))[1] for e in elements) == 18
    for kernel in kernels:
        stream, reference = scan_stream_both(kernel, m, width, 0, 0, 0, 0, 8 * BLOCK)
        assert stream == reference, kernel.__name__
        if m == 16:
            assert max(stream[2]) == (15 if width == 4 else 18)


def test_block_paths_clamp_ranks_the_top_byte_decides(kernels):
    # Below width 4, which HllParams refuses but the kernel takes, the clamp
    # binds on ranks 1..8 too; the scalar insert is the reference.
    elements = _pykernel.stream_elements(0, 0, 2 * BLOCK)
    for kernel in kernels:
        for width in (1, 2, 3):
            bulk, one_by_one = (make_rf(kernel, m=16, width=width) for _ in range(2))
            for element in elements:
                one_by_one.insert(element)
            bulk.insert_many(elements)
            assert bulk.dump_registers() == one_by_one.dump_registers(), (kernel.__name__, width)
            assert max(bulk.dump_registers()) == (1 << width) - 1


def split_maxima(elements, params):
    """Each register's largest ``hash_split`` rank over ``elements``."""
    registers = bytearray(params.register_count)
    for element in elements:
        index, rank = hash_split(element, params)
        registers[index] = max(registers[index], rank)
    return bytes(registers)


# Each element method, run once on an empty file; witness leaves the file
# empty, so its witness is inserted there.
SPLIT_METHODS = {
    "insert": lambda rf, elements: [rf.insert(e) for e in elements],
    "insert_many": lambda rf, elements: rf.insert_many(elements),
    "scan": lambda rf, elements: rf.scan(elements, []),
    "witness": lambda rf, elements: rf.insert_many(rf.witness(elements)),
}


@pytest.mark.parametrize("m", [16, 4096])
@pytest.mark.parametrize("width", range(1, 9))
def test_every_element_method_splits_as_hash_split(kernels, m, width):
    # hash_split shares no code with either twin, so it checks the pure
    # twin's rank table and rule, which insert and the block paths share.
    # Below width 4, which HllParams refuses but the kernel takes, a plain
    # namespace stands in for it; there the clamp binds on table ranks.
    params = (HllParams(m, width) if width >= 4
              else SimpleNamespace(register_count=m, register_width=width, salt_value=0))
    stream = _pykernel.stream_elements(0, 0, 2 * BLOCK)
    assert sum(hash64(e) >> 56 == 0 for e in stream) == 4  # ranked past the table
    # Blocks that mix lengths, then a block of three: the pure twin hashes
    # these one by one, never in lanes.
    mixed = [e[: 1 + k % 16] for k, e in enumerate(_pykernel.stream_elements(1, 0, 2 * BLOCK + 3))]
    scan_stream = {"scan_stream": lambda rf, elements: rf.scan_stream(0, 0, 2 * BLOCK, [])}
    _pykernel._span_records.cache_clear()  # scan_stream splits the span afresh
    for elements, methods in ((stream, SPLIT_METHODS | scan_stream), (mixed, SPLIT_METHODS)):
        expected = split_maxima(elements, params)
        for kernel in kernels:
            for name, run in methods.items():
                rf = make_rf(kernel, m=m, width=width)
                run(rf, elements)
                assert rf.dump_registers() == expected, (kernel.__name__, name, len(elements))


def test_the_pure_twin_runs_its_rank_rule_only_where_the_table_has_no_rank(monkeypatch):
    # The table ranks a hash by its top byte; the rule itself, a slower call,
    # runs only for a hash whose top byte is zero, in insert and the block
    # split alike.
    rule = _pykernel.RegisterFile._rank
    ruled = []
    monkeypatch.setattr(_pykernel.RegisterFile, "_rank", lambda rf, h: ruled.append(h) or rule(rf, h))
    rf = make_rf(_pykernel, m=16)
    elements = _pykernel.stream_elements(0, 0, 2 * BLOCK)
    zero_top = [h for h in map(hash64, elements) if h >> 56 == 0]
    for insert in (lambda: [rf.insert(e) for e in elements], lambda: rf.insert_many(elements)):
        ruled.clear()
        insert()
        assert ruled == zero_top


def assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, step):
    """The zero count, Z and estimate ``rf`` kept equal those a reload of its registers computes."""
    reloaded = make_rf(kernel, m=m, width=width, salt=salt)
    reloaded.load_registers(rf.dump_registers())
    kept = (rf.zero_registers(), rf.z_sum(), rf.estimate())
    assert kept == (reloaded.zero_registers(), reloaded.z_sum(), reloaded.estimate()), (
        kernel.__name__, m, step)


@pytest.mark.parametrize(
    "m, width, salt", [(16, 4, 0), (256, 6, MASK64), (4096, 6, 0x0123456789ABCDEF)]
)
def test_block_paths_keep_the_zero_count_and_z_of_their_registers(
    kernels, monkeypatch, m, width, salt
):
    # The block paths raise registers with the zero count and Z_scaled held
    # aside; after each, both must equal what the registers alone give.
    count = 3 * BLOCK + 5
    mixed = _pykernel.stream_elements(8, 0, BLOCK + 3) + [b"e%d" % k for k in range(700)]
    _pykernel._span_records.cache_clear()
    for kernel in kernels:
        rf = make_rf(kernel, m=m, width=width, salt=salt)
        rf.scan_stream(6, 0, count, [])  # from empty: the pure twin records the span
        assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, "scan_stream")
        rf.reset()
        rf.insert_many(_pykernel.stream_elements(7, 0, count))
        assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, "insert_many")
        with monkeypatch.context() as patch:
            refuse_streams(patch)  # the pure twin replays its records
            rf.scan_stream(6, 0, count, [])
        assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, "rescan")
        rf.reset()
        rf.scan(mixed, [])
        assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, "scan")
        other = make_rf(kernel, m=m, width=width, salt=salt)
        other.insert_many(_pykernel.stream_elements(9, 0, count))
        rf.merge_registers(other.dump_registers())
        assert_bookkeeping_matches_a_reload(kernel, rf, m, width, salt, "merge_registers")


def test_scan_stream_refuses_what_the_twins_refuse(kernels):
    refused = {
        TypeError: [
            (1.0, 0, 1, []), (0, "0", 1, []), (0, 0, 1.5, []), (0, 0, None, []),
            (None, 0, 0, []), (0, 0, 1, None), (0, 0, 1, ()), (0, 0, 0, {}),
        ],
        ValueError: [(0, 0, -1, []), (0, 0, -1, None)],
        OverflowError: [(0, 0, 2**63, []), (0, 0, -(2**63) - 1, None)],
    }
    for kernel in kernels:
        rf = make_rf(kernel, m=16)
        for error, calls in refused.items():
            for seed, start, count, kept in calls:
                with pytest.raises(error):
                    rf.scan_stream(seed, start, count, kept)
                assert not kept
        assert rf.dump_registers() == bytes(16)
        kept = []
        assert rf.scan_stream(seed=1 << 64, start=0, count=3, kept=kept) == (3, 3)
        assert rf.dump_registers() != bytes(16) and len(kept) == 3


# -- the reference scan of a stream span -------------------------------------------
# CardinalityOracle.scan_stream, which CountingOracle and RemoteOracle inherit,
# is the reference HllSketch's kernel scan_stream replaces: the same
# return value, kept elements and registers on every span.


def scan_stream_reference_and_kernel(kernel, monkeypatch, m, width, salt, preload, seed, start, count):
    """(outcome, kept, registers) of the reference scan_stream and of the in-process one."""
    monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
    results = []
    for wrap in (CountingOracle, lambda oracle: oracle):
        inner = make_oracle(HllParams(m, width, salt=salt))
        inner.insert_many(stream_span(5, 10**6, preload))
        kept = []
        outcome = wrap(inner).scan_stream(seed, start, count, kept)
        results.append((outcome, kept, inner.registers))
    return results


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 3])
def test_reference_scan_stream_matches_the_in_process_one(kernels, monkeypatch, count):
    _pykernel._span_records.cache_clear()
    for kernel in kernels:
        for m, width, salt in ((16, 6, 0), (1024, 5, MASK64), (4096, 6, 0x0123456789ABCDEF)):
            for seed, start in ((5, 0), (MASK64, 2**64 - 3), (3, -7)):
                for preload in (0, 3000):
                    reference, in_process = scan_stream_reference_and_kernel(
                        kernel, monkeypatch, m, width, salt, preload, seed, start, count
                    )
                    assert reference == in_process, (kernel.__name__, m, seed, start, preload)
                    assert reference[0][1] == count


def test_reference_scan_stream_refuses_what_the_twins_refuse():
    # The rows of test_scan_stream_refuses_what_the_twins_refuse that keep
    # into a list: each raises before the first insertion.
    oracle = CountingOracle(make_oracle(HllParams(16)))
    refused = {
        TypeError: [(1.0, 0, 1), (0, "0", 1), (0, 0, 1.5), (0, 0, None), (None, 0, 0)],
        ValueError: [(0, 0, -1)],
    }
    for error, calls in refused.items():
        for seed, start, count in calls:
            kept = []
            with pytest.raises(error):
                oracle.scan_stream(seed, start, count, kept)
            assert not kept
    assert oracle.insertions == 0


# -- the pure twin's register records --------------------------------------------
# A pure scan_stream visits only the span's register records, the elements
# that raise a register in a scan of the span from an all-zero file, cached
# for the last span. Every result must still equal scan(stream_elements(...))
# bit for bit.


def pure_file(m, width, salt, state="empty"):
    rf = make_rf(_pykernel, m=m, width=width, salt=salt)
    if state == "preload":
        rf.insert_many(stream_span(5, 10**6, 3000))
    elif state == "saturated":
        rf.load_registers(bytes([min((1 << width) - 1, 63)] * m))
    return rf


def scanned(rf, seed, start, count, stream=True):
    """(outcome, kept, registers) of scan_stream, or of scan(stream_elements(...))."""
    kept = []
    if stream:
        outcome = rf.scan_stream(seed, start, count, kept)
    else:
        outcome = rf.scan(_pykernel.stream_elements(seed, start, count), kept)
    return outcome, kept, rf.dump_registers()


def refuse_streams(monkeypatch):
    """Make any stream block or lane hash of the pure twin fail the test."""

    def refuse(*args):
        raise AssertionError("made a stream block or hashed a block")

    monkeypatch.setattr(_pykernel, "_stream_hex", refuse)
    monkeypatch.setattr(_pykernel, "_word_hashes", refuse)


@pytest.mark.parametrize("m, width, salt", [(4096, 6, 0x0123456789ABCDEF), (16, 4, 0)])
@pytest.mark.parametrize("state", ["empty", "preload", "saturated"])
def test_rescan_from_any_state_equals_the_reference_with_no_stream_block(
    monkeypatch, m, width, salt, state
):
    # At R=16 this span reaches rank 18, so width 4 clamps ranks to 15.
    seed, start, count = 0, 0, 8 * BLOCK
    scanned(pure_file(m, width, salt), seed, start, count)  # records the span
    reference = scanned(pure_file(m, width, salt, state), seed, start, count, stream=False)
    rf = pure_file(m, width, salt, state)
    refuse_streams(monkeypatch)
    assert scanned(rf, seed, start, count) == reference
    if (m, state) == (16, "empty"):
        assert max(reference[2]) == 15
    if state == "saturated":
        assert reference[0][0] == rf.estimate() and not reference[1]


@pytest.mark.parametrize(
    "other",
    [
        {"salt": 1},
        {"m": 2048},
        {"m": 16, "width": 4},
        {"count": BLOCK},
        {"count": 3 * BLOCK},
        {"start": 1},
        {"seed": 8},
    ],
)
def test_spans_that_differ_in_their_key_never_share_records(other):
    span = {"m": 1024, "width": 6, "salt": 0, "seed": 7, "start": 0, "count": 2 * BLOCK}
    if other.get("m") == 16:
        span.update(m=16, count=8 * BLOCK)  # width 6 keeps rank 18, width 4 clamps it
    changed = span | other
    setting = [(s["m"], s["width"], s["salt"]) for s in (span, changed)]
    args = [(s["seed"], s["start"], s["count"]) for s in (span, changed)]
    for state in ("empty", "preload"):
        scanned(pure_file(*setting[0]), *args[0])  # records the first span
        reference = scanned(pure_file(*setting[1], state), *args[1], stream=False)
        assert scanned(pure_file(*setting[1], state), *args[1]) == reference, state


def test_a_scan_from_a_non_empty_file_records_the_span_from_empty():
    # The preload raises registers the span would raise, so a scan from it
    # lifts only some of the span's records. The records it caches are still
    # all of the span's from empty: the scans from empty that follow, the
    # first of them reading the cache, both equal the reference.
    _pykernel._span_records.cache_clear()
    span = (1024, 6, 0), (7, 0, 4 * BLOCK)
    reference = scanned(pure_file(*span[0]), *span[1], stream=False)
    scanned(pure_file(*span[0], "preload"), *span[1])
    assert scanned(pure_file(*span[0]), *span[1]) == reference
    scanned(pure_file(*span[0]), *span[1])  # now recorded from empty
    assert scanned(pure_file(*span[0]), *span[1]) == reference


def test_a_scan_from_a_preloaded_file_fills_the_cache_for_a_scan_from_empty(monkeypatch):
    # The cached records are a function of the span alone, so a scan from
    # empty after one from a preload makes no stream block and hashes
    # nothing; and no caller can change the cached buffers in place.
    _pykernel._span_records.cache_clear()
    (m, width, salt), (seed, start, count) = (1024, 6, 0), (7, 0, 4 * BLOCK)
    reference = scanned(pure_file(m, width, salt), seed, start, count, stream=False)
    scanned(pure_file(m, width, salt, "preload"), seed, start, count)
    refuse_streams(monkeypatch)
    assert scanned(pure_file(m, width, salt), seed, start, count) == reference
    base = (_pykernel._stream_base(seed) + start) & MASK64
    for buffer in _pykernel._span_records(base, count, salt, m, 63):
        with pytest.raises(TypeError):
            buffer[0] = 1


def test_equal_splitmix_inputs_share_records(monkeypatch):
    # Element k of seed s is the mix of _stream_base(s) + k, so two (seed,
    # start) pairs whose sums agree mod 2**64 name one span.
    seed, start, count = 9, 40, 3 * BLOCK
    other_seed = 11
    other_start = _pykernel._stream_base(seed) + start - _pykernel._stream_base(other_seed)
    assert _pykernel.stream_elements(other_seed, other_start, count) == (
        _pykernel.stream_elements(seed, start, count)
    )
    scanned(pure_file(1024, 6, 0), seed, start, count)
    for state in ("empty", "preload"):
        reference = scanned(pure_file(1024, 6, 0, state), seed, start, count, stream=False)
        rf = pure_file(1024, 6, 0, state)
        with monkeypatch.context() as patch:
            refuse_streams(patch)
            assert scanned(rf, other_seed, other_start + 2**64, count) == reference


def test_threads_sharing_the_records_each_get_the_reference():
    # One slot serves every thread: a memo published before it is whole, or
    # changed in place, would hand another thread's rescan too few records.
    jobs = [((seed, 0, 2 * BLOCK), state) for seed in (21, 22, 23) for state in ("empty", "preload")]
    references = {job: scanned(pure_file(1024, 6, 0, job[1]), *job[0], stream=False) for job in jobs}
    wrong = []

    def work(first):
        for i in range(30):
            job = jobs[(first + i) % len(jobs)]
            if scanned(pure_file(1024, 6, 0, job[1]), *job[0]) != references[job]:
                wrong.append(job)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# -- both twins, step by step ----------------------------------------------------


def test_elements_and_int_arguments_are_type_checked(kernels):
    # An element is exactly bytes and a salt, seed or k any int: nothing
    # else is hashed, whatever it would convert to.
    for kernel in kernels:
        rf = make_rf(kernel, m=16)
        for not_bytes in (bytearray(b"abc"), memoryview(b"abc"), [1, 2, 3], "abc", None, 7):
            for call in (kernel.hash64, rf.insert):
                with pytest.raises(TypeError):
                    call(not_bytes)
        for not_int in (1.0, "1", None, b"\x01"):
            for call in (
                lambda x: kernel.hash64(b"abc", x),
                lambda x: kernel.stream_element(x, 0),
                lambda x: kernel.stream_element(0, x),
            ):
                with pytest.raises(TypeError):
                    call(not_int)
        assert rf.dump_registers() == bytes(16)
        assert kernel.hash64(b"abc", -1) == kernel.hash64(b"abc", MASK64)
        assert kernel.stream_element(1 << 64, 1 << 70) == kernel.stream_element(0, 0)


def test_saturated_snapshot_gives_the_same_exact_estimate_on_both_twins(kernels, monkeypatch):
    params = HllParams(4096, 6)
    snapshot = HllSketch(params).to_bytes()[:-4096] + bytes([63] * 4096)
    for kernel in kernels:
        monkeypatch.setattr(hllrt.sketch, "RegisterFile", kernel.RegisterFile)
        # alpha * R * 2**63, rounded once to a double: no C integer holds it.
        assert HllSketch.from_bytes(snapshot).estimate() == 27242767052348296527872


NOT_INTS = st.sampled_from([1.5, 2.0, -0.5, float("inf"), float("nan"), "3", None, b"\x01", [1]])
INTS = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([0, 1, -1, True, (1 << 63) - 1, 1 << 63, -(1 << 63) - 1, MASK64, 1 << 64]),
)
HUGE_COUNTS = (2**63, -(2**63) - 1)  # beyond a Py_ssize_t: refused before any work
ELEMENTS = st.binary(max_size=40)
NOT_BYTES = st.one_of(
    st.builds(bytearray, st.binary(max_size=9)),
    st.builds(memoryview, st.binary(max_size=9)),
    st.lists(st.integers(0, 255), max_size=3),
    st.text(max_size=3),
    st.integers(),
    st.none(),
)
DUMPS = ("random", "sparse", "empty", "saturated", "above_max", "short", "bytearray", "list")
# (seed, start, count) of the spans the rescan rule scans: a few, so that the
# pure twin often holds their records. The second and third name one span,
# as do the fourth and fifth (equal splitmix inputs from other seeds).
RESCANS = (
    (0, 0, BLOCK + 3),
    (1, 5, 40),
    (1, 5 + 2**64, 40),
    (3, -7, 2 * BLOCK),
    (4, _pykernel._stream_base(3) - 7 - _pykernel._stream_base(4), 2 * BLOCK),
    (3, -7, 2 * BLOCK - 1),
)


class TwinRegisterFiles(RuleBasedStateMachine):
    """The pure and compiled RegisterFile driven side by side.

    Every step must give both the same result or the same exception type,
    and leave both in the same state.
    """

    def __init__(self, compiled):
        super().__init__()
        self.compiled = compiled
        self.start((16, 6, 0))

    def start(self, setting):
        m, width, salt = setting
        self.m, self.max = m, min((1 << width) - 1, 63)
        self.params = HllParams(m, width, salt)
        self.twins = [
            (kernel, make_rf(kernel, m=m, width=width, salt=salt))
            for kernel in (_pykernel, self.compiled)
        ]

    def same(self, call):
        outcomes = []
        for kernel, rf in self.twins:
            try:
                outcomes.append(("returned", call(kernel, rf)))
            except Exception as exc:  # the twins must raise the same type
                outcomes.append(("raised", type(exc)))
        assert outcomes[0] == outcomes[1]

    def dump(self, kind, seed):
        rng = random.Random(seed)
        data = bytes(rng.randrange(self.max + 1) for _ in range(self.m))
        if kind == "sparse":
            data = bytes(v if rng.random() < 0.1 else 0 for v in data)
        elif kind == "empty":
            data = bytes(self.m)
        elif kind == "saturated":
            data = bytes([self.max] * self.m)
        elif kind == "above_max":
            at = rng.randrange(self.m)
            data = data[:at] + bytes([rng.randrange(self.max + 1, 256)]) + data[at + 1 :]
        elif kind == "short":
            data = data[1:]
        elif kind in ("bytearray", "list"):
            data = bytearray(data) if kind == "bytearray" else list(data)
        return data

    @initialize(
        setting=st.sampled_from([(16, 6, 0), (16, 4, MASK64), (64, 5, 7), (1024, 6, 1 << 63)])
    )
    def choose(self, setting):
        self.start(setting)

    @rule(element=st.one_of(ELEMENTS, NOT_BYTES))
    def insert(self, element):
        self.same(
            lambda kernel, rf: (hash_split(element, self.params, kernel.hash64), rf.insert(element))
        )

    @rule(
        elements=st.lists(ELEMENTS, max_size=40),
        bad=st.one_of(st.none(), NOT_BYTES, st.just(b"")),
        at=st.integers(0, 40),
    )
    def insert_many(self, elements, bad, at):
        if bad is not None:
            elements = elements[:at] + [bad] + elements[at:]
        self.same(lambda kernel, rf: rf.insert_many(iter(elements)))

    @rule(seed=st.integers(0, 3), count=st.integers(0, 3 * BLOCK))
    def insert_stream(self, seed, count):
        self.same(
            lambda kernel, rf: rf.insert_many(
                map(kernel.stream_element, repeat(seed, count), range(count))
            )
        )

    @rule(kind=st.sampled_from(DUMPS), seed=st.integers(0, 1 << 32), merge=st.booleans())
    def load_or_merge(self, kind, seed, merge):
        data = self.dump(kind, seed)
        if merge:
            self.same(lambda kernel, rf: rf.merge_registers(data))
        else:
            self.same(lambda kernel, rf: rf.load_registers(data))

    @rule()
    def reset(self):
        self.same(lambda kernel, rf: rf.reset())

    @rule(data=st.one_of(ELEMENTS, NOT_BYTES), salt=st.one_of(st.none(), INTS, NOT_INTS))
    def hash64(self, data, salt):
        if salt is None:
            self.same(lambda kernel, rf: kernel.hash64(data))
        else:
            self.same(lambda kernel, rf: kernel.hash64(data=data, salt=salt))

    @rule(
        elements=st.lists(ELEMENTS, max_size=40),
        bad=st.one_of(st.none(), NOT_BYTES, st.just(b"")),
        at=st.integers(0, 40),
    )
    def scan(self, elements, bad, at):
        if bad is not None:
            elements = elements[:at] + [bad] + elements[at:]
        kepts = []

        def scan(kernel, rf):
            kepts.append([])
            return rf.scan(iter(elements), kepts[-1])

        self.same(scan)
        assert kepts[0] == kepts[1]

    @rule(
        seed=st.one_of(INTS, NOT_INTS),
        start=st.one_of(INTS, NOT_INTS),
        count=st.one_of(st.integers(-2, 3 * BLOCK), st.sampled_from(HUGE_COUNTS), NOT_INTS),
        kept=st.sampled_from([[], None, ()]),
    )
    def scan_stream(self, seed, start, count, kept):
        kepts = []

        def scan_stream(kernel, rf):
            kepts.append(None if kept is None else type(kept)())
            return rf.scan_stream(seed, start, count, kepts[-1])

        self.same(scan_stream)
        assert kepts[0] == kepts[1]

    @rule(span=st.sampled_from(RESCANS), record=st.booleans())
    def rescan(self, span, record):
        # With ``record``, a scratch pure file of this setting first scans the
        # span from empty, so the pure twin's scan below visits its records.
        if record:
            make_rf(_pykernel, self.m, self.params.register_width, self.params.salt).scan_stream(
                *span, []
            )
        kepts = []

        def scan_stream(kernel, rf):
            kepts.append([])
            return rf.scan_stream(*span, kepts[-1])

        self.same(scan_stream)
        assert kepts[0] == kepts[1]

    @rule(
        elements=st.lists(ELEMENTS, max_size=40),
        bad=st.one_of(st.none(), NOT_BYTES),
        at=st.integers(0, 40),
    )
    def witness(self, elements, bad, at):
        if bad is not None:
            elements = elements[:at] + [bad] + elements[at:]
        self.same(lambda kernel, rf: rf.witness(iter(elements)))

    @rule(seed=st.one_of(INTS, NOT_INTS), k=st.one_of(INTS, NOT_INTS))
    def mixers(self, seed, k):
        self.same(lambda kernel, rf: kernel.stream_element(seed, k))

    @rule(
        seed=st.one_of(INTS, NOT_INTS),
        start=st.one_of(INTS, NOT_INTS),
        count=st.one_of(st.integers(-2, 6), NOT_INTS),
    )
    def stream(self, seed, start, count):
        self.same(lambda kernel, rf: kernel.stream_elements(seed, start, count))

    @invariant()
    def same_state(self):
        for name in ("dump_registers", "z_sum", "zero_registers", "estimate"):
            self.same(lambda kernel, rf: getattr(rf, name)())


def test_twins_agree_step_by_step(compiled_kernel):
    run_state_machine_as_test(
        lambda: TwinRegisterFiles(compiled_kernel),
        settings=settings(max_examples=150, stateful_step_count=30, deadline=None),
    )


# -- the pure twin's linear-counting floor and its estimate once per change ----


def lc_applies(count, zero, switch):
    """The direct rule, as the C twin writes it: linear counting at ``zero`` zeros."""
    return zero > 0 and count * math.log(count / zero) <= switch * count


@pytest.mark.parametrize("count", [1, 16, 4096, 1 << 20])
@pytest.mark.parametrize("switch", [2.5, 0.0, -1.0, math.inf, math.nan])
def test_lc_floor_gives_the_direct_rule_at_every_zero_count(count, switch):
    floor = _pykernel._lc_floor(count, switch)
    assert 1 <= floor <= count + 1
    applies = [lc_applies(count, zero, switch) for zero in range(count + 1)]
    assert applies == [zero >= floor for zero in range(count + 1)], (count, switch, floor)


@pytest.mark.parametrize("m, switch", [(16, 2.5), (4096, 2.5), (256, -1.0), (256, 0.0)])
def test_the_estimate_follows_every_change_to_the_registers(kernels, m, switch):
    # Each step reads the estimate first (the pure twin keeps it), changes the
    # file or is refused, and must then estimate as a fresh file given its dump.
    count = 3 * BLOCK + 5
    _pykernel._span_records.cache_clear()
    for kernel in kernels:
        rf = make_rf(kernel, m=m, switch=switch)
        other = make_rf(kernel, m=m, switch=switch)
        other.insert_many(_pykernel.stream_elements(9, 0, count))
        raiser = next(e for e in _pykernel.stream_elements(3, 0, 50)
                      if make_rf(kernel, m=m).insert(e))
        steps = [
            ("insert that changes", lambda: rf.insert(raiser)),
            ("insert that does not", lambda: rf.insert(raiser)),
            ("insert_many", lambda: rf.insert_many(_pykernel.stream_elements(7, 0, count))),
            ("reset", rf.reset),
            ("scan_stream from empty", lambda: rf.scan_stream(6, 0, count, [])),
            ("reset", rf.reset),
            ("scan", lambda: rf.scan(_pykernel.stream_elements(8, 0, count), [])),
            ("record rescan", lambda: rf.scan_stream(6, 0, count, [])),
            ("refused batch", lambda: rf.insert_many([b"x", b""])),
            ("refused dump", lambda: rf.load_registers(bytes([99]) * m)),
            ("load_registers", lambda: rf.load_registers(bytes(k % 7 for k in range(m)))),
            ("merge_registers", lambda: rf.merge_registers(other.dump_registers())),
            ("reset", rf.reset),
        ]
        for name, step in steps:
            rf.estimate()
            if name.startswith("refused"):
                with pytest.raises(ValueError):
                    step()
            else:
                step()
            fresh = make_rf(kernel, m=m, switch=switch)
            fresh.load_registers(rf.dump_registers())
            assert rf.estimate() == fresh.estimate(), (kernel.__name__, m, switch, name)


@pytest.mark.parametrize("m", [16, 4096])
def test_the_twins_estimate_and_scan_alike_on_both_sides_of_the_lc_floor(
    pure_kernel, compiled_kernel, m
):
    # From exactly lc_floor zero registers, and one fewer, the pure twin's
    # estimate and its climb (which skips the estimate for a non-zero
    # register's rise while linear counting applies) must match the C twin's.
    floor = _pykernel._lc_floor(m, 2.5)
    rng = random.Random(m)
    elements = _pykernel.stream_elements(11, 0, 64)
    for zero in (floor - 1, floor):
        dump = bytes([0] * zero + [rng.randint(1, 2) for _ in range(m - zero)])
        outcomes = []
        for kernel in (pure_kernel, compiled_kernel):
            rf = make_rf(kernel, m=m)
            rf.load_registers(dump)
            estimate, kept = rf.estimate(), []
            outcomes.append((estimate, rf.scan(elements, kept), kept, rf.dump_registers()))
        assert outcomes[0] == outcomes[1], (m, zero)
