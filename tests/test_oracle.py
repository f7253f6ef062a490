"""Black-box oracle contract tests."""

import pytest

from hllrt import CardinalityOracle, CountingOracle, HllParams, HllSketch, make_oracle
from hllrt._kernel import stream_elements


def test_the_sketch_is_the_in_process_oracle():
    assert isinstance(HllSketch(HllParams(64)), CardinalityOracle)
    assert type(make_oracle(HllParams(64))) is HllSketch


def test_fresh_oracle_estimates_zero():
    assert make_oracle(HllParams(1024)).estimate() == 0


def test_reset_returns_to_zero():
    oracle = make_oracle(HllParams(64))
    oracle.insert(b"a")
    assert oracle.estimate() > 0
    oracle.reset()
    assert oracle.estimate() == 0


def test_estimate_is_side_effect_free():
    oracle = make_oracle(HllParams(64))
    oracle.insert(b"a")
    first = oracle.estimate()
    for _ in range(10):
        assert oracle.estimate() == first
    assert oracle.registers == oracle.registers


def test_reinsert_never_changes_estimate():
    oracle = make_oracle(HllParams(64))
    for k, e in enumerate(stream_elements(1, 0, 200)):
        oracle.insert(e)
        before = oracle.estimate()
        oracle.insert(e)
        assert oracle.estimate() == before


def test_transcript_determinism():
    params = HllParams(256, 6)
    a, b = make_oracle(params), make_oracle(params)
    transcript_a, transcript_b = [], []
    for e in stream_elements(9, 0, 1000):
        a.insert(e)
        transcript_a.append(a.estimate())
        b.insert(e)
        transcript_b.append(b.estimate())
    assert transcript_a == transcript_b


def test_estimate_tracks_large_cardinality():
    oracle = make_oracle(HllParams(4096, 6))
    oracle.insert_many(stream_elements(13, 0, 50000))
    assert abs(oracle.estimate() - 50000) < 0.05 * 50000


def test_insert_rejects_empty():
    with pytest.raises(ValueError):
        make_oracle(HllParams(64)).insert(b"")
    kept = []
    with pytest.raises(ValueError):
        make_oracle(HllParams(64)).scan([b"a", b""], kept)
    assert kept == [b"a"]


@pytest.mark.parametrize("bad", [None, "", bytearray(), b""])
def test_in_process_oracle_refuses_a_bad_element_alike_everywhere(bad):
    # Only an empty bytes is a ValueError; a falsy element of another type
    # is a TypeError, as the kernels raise. A refused call changes nothing.
    oracle = make_oracle(HllParams(64))
    error = ValueError if type(bad) is bytes else TypeError
    kept = []
    for call in (
        lambda: oracle.insert(bad),
        lambda: oracle.insert_many([b"a", bad]),
        lambda: oracle.scan([bad], kept),
    ):
        with pytest.raises(error):
            call()
        assert oracle.registers == bytes(64) and kept == []
    # scan_stream takes no element: each of these in any argument's place
    # is a TypeError.
    for at in range(4):
        args = [1, 0, 10, kept]
        args[at] = bad
        with pytest.raises(TypeError):
            oracle.scan_stream(*args)
        assert oracle.registers == bytes(64) and kept == []


@pytest.mark.parametrize("bad", [None, "", bytearray(), b""])
def test_reference_insert_many_refuses_a_bad_batch_before_inserting(bad):
    # As the kernel does: the same exception, and nothing inserted or counted.
    with pytest.raises(Exception) as kernel_error:
        make_oracle(HllParams(64)).insert_many([b"a", bad])
    inner = make_oracle(HllParams(64))
    oracle = CountingOracle(inner)
    for call in (lambda: oracle.insert_many([b"a", bad]), lambda: oracle.insert(bad)):
        with pytest.raises(Exception) as error:
            call()
        assert error.type is kernel_error.type
        assert oracle.insertions == 0 and inner.registers == bytes(64)


def test_counting_oracle_counts_calls():
    oracle = CountingOracle(make_oracle(HllParams(64)))
    oracle.reset()
    for e in stream_elements(2, 0, 10):
        oracle.insert(e)
    oracle.estimate()
    oracle.estimate()
    assert oracle.resets == 1
    assert oracle.insertions == 10
    assert oracle.estimate_queries == 2


def test_counting_oracle_exposes_only_the_interface():
    oracle = CountingOracle(make_oracle(HllParams(64)))
    with pytest.raises(AttributeError):
        oracle.sketch
    with pytest.raises(AttributeError):
        oracle.registers
