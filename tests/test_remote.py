"""RESP codec and remote oracle against an in-process mini server."""

import io
import random
import socket
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hllrt import (
    AttackAborted,
    CountingOracle,
    ElementGenerator,
    HllParams,
    HllSketch,
    make_oracle,
    run_attack,
    verify,
)
from hllrt import remote
from hllrt.attack import phase1
from hllrt.remote import (
    BulkString,
    ErrorReply,
    ProtocolError,
    RemoteOracle,
    RespArray,
    RespStream,
    ServerError,
    SimpleString,
    encode_value,
    parse_endpoint,
    resp_encode,
)
from respserver import running_server


def resp_decode(data):
    """Decode the first reply in ``data``."""
    return RespStream(io.BytesIO(data)).read_value()


# -- encoding -------------------------------------------------------------------


def test_encode_golden_commands():
    assert resp_encode([b"PING"]) == b"*1\r\n$4\r\nPING\r\n"
    assert resp_encode([b"PFADD", b"k", b"x"]) == b"*3\r\n$5\r\nPFADD\r\n$1\r\nk\r\n$1\r\nx\r\n"
    assert resp_encode([b"PFCOUNT", b"k"]) == b"*2\r\n$7\r\nPFCOUNT\r\n$1\r\nk\r\n"


def test_encode_rejects_empty_command():
    with pytest.raises(ValueError):
        resp_encode([])


def test_encode_value_forms():
    assert encode_value(42) == b":42\r\n"
    assert encode_value(SimpleString("OK")) == b"+OK\r\n"
    assert encode_value(ErrorReply("ERR boom")) == b"-ERR boom\r\n"
    assert encode_value(BulkString(None)) == b"$-1\r\n"
    assert encode_value(BulkString(b"hey")) == b"$3\r\nhey\r\n"
    assert encode_value(RespArray(None)) == b"*-1\r\n"
    assert encode_value(RespArray((1, BulkString(b"a")))) == b"*2\r\n:1\r\n$1\r\na\r\n"


# -- decoding -------------------------------------------------------------------


def test_decode_golden_replies():
    assert resp_decode(b":42\r\n") == 42
    assert resp_decode(b"$-1\r\n") == BulkString(None)
    assert resp_decode(b"+OK\r\n") == SimpleString("OK")
    assert resp_decode(b"-ERR nope\r\n") == ErrorReply("ERR nope")
    assert resp_decode(b"*2\r\n:1\r\n$2\r\nab\r\n") == RespArray((1, BulkString(b"ab")))
    assert resp_decode(b"*-1\r\n") == RespArray(None)


def test_decode_consumes_exactly_one_reply():
    stream = RespStream(io.BytesIO(b":1\r\n:2\r\n+OK\r\n"))
    assert stream.read_value() == 1
    assert stream.read_value() == 2
    assert stream.read_value() == SimpleString("OK")


class Trickle:
    """File-like source handing out 1-7 bytes per read."""

    def __init__(self, data, seed):
        self._data = io.BytesIO(data)
        self._rng = random.Random(seed)

    def read(self, n):
        return self._data.read(min(n, self._rng.randint(1, 7)))


@pytest.mark.parametrize("seed", range(5))
def test_decode_pipelined_replies_from_short_reads(seed):
    bulk = bytes(range(256)) * 3 + b"\r\n in the payload"
    values = [k * 37 for k in range(200)] + [BulkString(bulk), SimpleString("OK"), -1, BulkString(b"")]
    values += [RespArray((BulkString(b"x" * 40), 7)), ErrorReply("ERR late"), 123456789]
    stream = RespStream(Trickle(b"".join(encode_value(v) for v in values), seed))
    for value in values:
        assert stream.read_value() == value
    with pytest.raises(ProtocolError, match="end of stream"):
        stream.read_value()


def test_decode_malformed_framing():
    with pytest.raises(ProtocolError):
        resp_decode(b"?weird\r\n")
    with pytest.raises(ProtocolError):
        resp_decode(b":notanint\r\n")
    with pytest.raises(ProtocolError):
        resp_decode(b"$5\r\nab\r\n")  # truncated bulk
    with pytest.raises(ProtocolError):
        resp_decode(b"$3\r\nabcXX")  # bad terminator
    with pytest.raises(ProtocolError):
        resp_decode(b":42")  # no CRLF, stream ends


def _values(depth):
    # Well-formed RESP line text: encodable (no lone surrogates) and free
    # of the CRLF framing bytes.
    line_text = st.text(
        alphabet=st.characters(
            blacklist_characters="\r\n", blacklist_categories=("Cs",)
        ),
        max_size=20,
    )
    scalar = st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.builds(SimpleString, line_text),
        st.builds(ErrorReply, line_text),
        st.builds(BulkString, st.one_of(st.none(), st.binary(max_size=40))),
    )
    if depth == 0:
        return scalar
    inner = _values(depth - 1)
    return st.one_of(
        scalar,
        st.builds(RespArray, st.one_of(st.none(), st.tuples())),
        st.builds(lambda items: RespArray(tuple(items)), st.lists(inner, max_size=4)),
    )


@given(_values(3))
@settings(max_examples=200, deadline=None)
def test_codec_roundtrip(value):
    assert resp_decode(encode_value(value)) == value


# -- endpoints -------------------------------------------------------------------


def test_parse_endpoint():
    ep = parse_endpoint("redis://localhost:6380/mykey")
    assert (ep.host, ep.port, ep.key) == ("localhost", 6380, "mykey")
    assert parse_endpoint("redis://10.0.0.1/k").port == 6379


def test_parse_endpoint_rejects_bad_urls():
    for bad in ("http://x/k", "redis://hostonly", "redis://host:port/k", "redis://:1/k"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


# -- remote oracle vs the mini server ----------------------------------------------


def test_oracle_basic_cycle():
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url()) as oracle:
            assert oracle.ping()
            oracle.reset()
            assert oracle.estimate() == 0
            for e in (b"a", b"b", b"c"):
                oracle.insert(e)
            assert oracle.estimate() == 3
            oracle.reset()
            assert oracle.estimate() == 0


def test_oracle_refuses_a_str_element_before_sending_it():
    # Like every other oracle: an element is bytes, never encoded from text.
    with running_server() as server:
        with RemoteOracle(server.url(), batch=True) as oracle:
            oracle.reset()
            with pytest.raises(TypeError):
                oracle.insert("a")
            assert oracle._pending == []
            kept = []
            with pytest.raises(TypeError):
                oracle.scan(["a"], kept)
            assert kept == [] and b"PFADD" not in server.commands_seen
            with pytest.raises(TypeError):
                resp_encode([b"PFADD", b"k", "a"])


def test_oracle_surfaces_wrong_type_errors():
    with running_server() as server:
        with RemoteOracle(server.url("strkey")) as oracle:
            oracle._exchange([[b"SET", b"strkey", b"hello"]])
            with pytest.raises(ServerError, match="WRONGTYPE"):
                oracle.estimate()


def test_pipelined_batch_equals_sequential():
    elements = [b"e%d" % k for k in range(500)]
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url("seq")) as sequential:
            sequential.reset()
            for e in elements:
                sequential.insert(e)
            expected = sequential.estimate()
        with RemoteOracle(server.url("bat"), batch=True) as batched:
            batched.reset()
            for e in elements:
                batched.insert(e)
            assert batched.estimate() == expected
            # a repeated count asks the server again and reads the same value
            assert batched.estimate() == expected
            batched.insert(b"one-more")
            assert batched.estimate() >= expected


def test_batch_mode_bounds_pipeline_size(monkeypatch):
    # A long insert-only burst must flush in bounded chunks rather than
    # as one giant pipeline.
    monkeypatch.setattr(remote, "_PIPELINE", 128)
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url("big"), batch=True) as oracle:
            oracle.reset()
            for k in range(5000):
                oracle.insert(b"elem-%d" % k)
            assert len(oracle._pending) <= 2 * 128
            estimate = oracle.estimate()
            assert abs(estimate - 5000) <= 0.1 * 5000


def test_oracle_reconnects_once_after_a_drop():
    # Unbatched, the drop hits a lone PFADD; batched, a pipeline of PFADDs
    # ending in its only PFCOUNT. Both are replayed once.
    for batch in (False, True):
        with running_server(register_count=1024, drop_after=5) as server:
            with RemoteOracle(server.url(), batch=batch) as oracle:
                oracle.reset()
                for e in (b"a", b"b", b"c", b"d", b"e", b"f", b"g"):
                    oracle.insert(e)
                assert oracle.estimate() == 7


def test_dropped_scan_aborts_with_a_prefix_of_the_true_set(monkeypatch):
    # A scan pipeline holds many PFCOUNTs; replaying it after the server
    # applied part of it would read skewed counts, so it must not replay.
    monkeypatch.setattr(remote, "_PIPELINE", 64)
    params = HllParams(256, 6)
    gen = ElementGenerator(8)
    expected, _ = phase1(make_oracle(params), gen, 2000)
    with running_server(register_count=256, drop_after=300) as server:
        with RemoteOracle(server.url(), batch=True) as oracle:
            oracle.reset()
            with pytest.raises(AttackAborted) as excinfo:
                phase1(oracle, gen, 2000)
    partial = excinfo.value.partial.elements
    assert 0 < len(partial) < len(expected.elements)
    assert partial == expected.elements[: len(partial)]
    assert isinstance(excinfo.value.__cause__, (ConnectionError, ProtocolError, OSError))


def test_scan_paths_agree_and_query_once_per_insertion():
    # The reference loop (through CountingOracle), the in-process scan and
    # both remote modes keep byte-identical phase sets, and each scan
    # observes the estimate once per insertion plus once at the start.
    params = HllParams(256, 6)
    c = 2000
    with running_server(register_count=256) as server:
        for seed in (1, 2, 3):
            counters = []

            def counting():
                counters.append(CountingOracle(make_oracle(params)))
                return counters[-1]

            runs = [run_attack(counting, seed, c), run_attack(lambda: make_oracle(params), seed, c)]
            assert sum(o.insertions for o in counters) == runs[0].total_insertions
            assert sum(o.estimate_queries for o in counters) == sum(r.estimate_queries for r in runs[0].reports)
            for batch in (True, False):
                with RemoteOracle(server.url(f"parity-{batch}"), batch=batch) as oracle:
                    start = len(server.commands_seen)
                    runs.append(run_attack(lambda: oracle, seed, c))
                seen = Counter(server.commands_seen[start:])
                assert seen[b"PFADD"] == runs[-1].total_insertions
                assert seen[b"PFCOUNT"] == sum(r.estimate_queries for r in runs[-1].reports)
            for run in runs:
                assert [s.elements for s in run.phase_sets] == [s.elements for s in runs[0].phase_sets]
                for report in run.reports:
                    assert report.estimate_queries == report.insertions_performed + 1
            assert len(runs[0].phase_sets[1]) > len(runs[0].phase_sets[0])


def test_oracle_times_out_on_a_silent_server():
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(1)
    port = silent.getsockname()[1]
    try:
        oracle = RemoteOracle(f"redis://127.0.0.1:{port}/k", timeout=0.2)
        with pytest.raises((TimeoutError, ConnectionError, OSError)):
            oracle.ping()
    finally:
        silent.close()


def test_connection_refused_propagates():
    oracle = RemoteOracle("redis://127.0.0.1:1/k", timeout=0.5)
    with pytest.raises(OSError):
        oracle.ping()


def test_attack_runs_over_resp():
    # Full black-box attack across TCP: same code path as in-process,
    # only the oracle differs.
    r = 1024
    c = 5 * r
    with running_server(register_count=r) as server:

        def factory():
            return RemoteOracle(server.url("attacked"), batch=True)

        run = run_attack(factory, seed=5, target_cardinality=c)
        remote_estimate = verify(factory(), run.attack_set)
        assert abs(remote_estimate - c) <= 0.10 * c
        # transfers to a hash-compatible local sketch
        local = verify(make_oracle(server.params), run.attack_set)
        assert local == remote_estimate
        assert len(run.attack_set.elements) <= 1.2 * r
