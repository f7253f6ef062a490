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
    HllParams,
    make_oracle,
    run_attack,
    verify,
)
from hllrt import remote
from hllrt.attack import phase1
from hllrt.remote import (
    ErrorReply,
    ProtocolError,
    RemoteOracle,
    RespStream,
    ServerError,
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
    assert encode_value("OK") == b"+OK\r\n"
    assert encode_value(ErrorReply("ERR boom")) == b"-ERR boom\r\n"
    assert encode_value(None) == b"$-1\r\n"
    assert encode_value(b"hey") == b"$3\r\nhey\r\n"
    assert encode_value([]) == b"*0\r\n"
    assert encode_value([1, b"a"]) == b"*2\r\n:1\r\n$1\r\na\r\n"
    for bad in (True, (1, b"a"), bytearray(b"a"), 1.5):
        with pytest.raises(TypeError):
            encode_value(bad)


# -- decoding -------------------------------------------------------------------


def test_decode_golden_replies():
    assert resp_decode(b":42\r\n") == 42
    assert resp_decode(b":-7\r\n") == -7
    assert resp_decode(b"$-1\r\n") is None
    assert resp_decode(b"$2\r\nOK\r\n") == b"OK"
    assert resp_decode(b"+OK\r\n") == "OK"
    assert resp_decode(b"-ERR nope\r\n") == ErrorReply("ERR nope")
    assert resp_decode(b"*2\r\n:1\r\n$2\r\nab\r\n") == [1, b"ab"]
    # The null array decodes to None too, which encodes as the null bulk
    # string: the one frame that does not round-trip byte for byte.
    assert resp_decode(b"*-1\r\n") is None
    assert encode_value(resp_decode(b"*-1\r\n")) == b"$-1\r\n"


def test_decode_consumes_exactly_one_reply():
    stream = RespStream(io.BytesIO(b":1\r\n:2\r\n+OK\r\n"))
    assert stream.read_value() == 1
    assert stream.read_value() == 2
    assert stream.read_value() == "OK"


class Trickle:
    """File-like source handing out 1 to ``most`` (default 7) bytes per read."""

    def __init__(self, data, seed, most=7):
        self._data = io.BytesIO(data)
        self._rng = random.Random(seed)
        self._most = most

    def readinto(self, buffer):
        return self._data.readinto(buffer[: self._rng.randint(1, self._most)])


@pytest.mark.parametrize("seed", range(5))
def test_decode_pipelined_replies_from_short_reads(seed):
    bulk = bytes(range(256)) * 3 + b"\r\n in the payload"
    values = [k * 37 for k in range(200)] + [bulk, "OK", -1, b""]
    values += [[b"x" * 40, 7], ErrorReply("ERR late"), 123456789]
    stream = RespStream(Trickle(b"".join(encode_value(v) for v in values), seed))
    for value in values:
        assert stream.read_value() == value
    with pytest.raises(ProtocolError, match="end of stream"):
        stream.read_value()


def test_decode_bulk_strings_longer_than_a_read():
    # Each spans several 64 KiB reads; the second ends its array.
    long = bytes(range(256)) * 1000 + b"\r\n"
    data = encode_value(long) + encode_value([b"k", long])
    stream = RespStream(io.BytesIO(data))
    assert stream.read_value() == long
    assert stream.read_value() == [b"k", long]
    with pytest.raises(ProtocolError, match="end of stream"):
        stream.read_value()


MALFORMED = [
    b"?weird\r\n",
    b":notanint\r\n",
    b"$5\r\nab\r\n",  # truncated bulk
    b"$3\r\nabcXX",  # bad terminator
    b":42",  # no CRLF, stream ends
    # Integers and lengths are an optional "-" and ASCII digits, nothing
    # else that int() would take.
    b":1_000\r\n",
    b": 7\r\n",
    b":+7\r\n",
    b":7 \r\n",
    b":\r\n",
    b":-\r\n",
    b"$1_0\r\n0123456789\r\n",
    b"$+2\r\nab\r\n",
    b"*1\r\n$ 2\r\nab\r\n",
    b"*+1\r\n$1\r\na\r\n",
    # A simple string or an error is UTF-8.
    b"+\xff\r\n",
    b"-\xff\r\n",
]


GOOD_FRAMES = [7, [b"PFADD", b"k", b"x"], 8, [b"PFCOUNT", b"k"], 9]


def test_decode_malformed_framing():
    for data in MALFORMED + MALFORMED_ARRAYS:
        with pytest.raises(ProtocolError) as alone:
            resp_decode(data)
        if data in MALFORMED:
            for seed in range(3):
                with pytest.raises(ProtocolError):
                    RespStream(Trickle(data, seed)).read_value()
        # After good frames in the same buffer, the bad frame raises the
        # same error, once every frame before it has been returned.
        for k in (1, 5):
            good = GOOD_FRAMES[:k]
            stream = RespStream(io.BytesIO(b"".join(map(encode_value, good)) + data))
            assert [stream.read_value() for _ in good] == good
            with pytest.raises(ProtocolError) as after:
                stream.read_value()
            assert str(after.value) == str(alone.value)
    # A token of more digits than int() takes (4,300 since Python 3.11)
    # stops the bulk pass too, and meets the general path after the
    # frames before it, whatever that does with it.
    for data in (b":" + b"9" * 5000 + b"\r\n", b"*" + b"9" * 5000 + b"\r\n"):
        for k in (1, 5):
            good = GOOD_FRAMES[:k]
            stream = RespStream(io.BytesIO(b"".join(map(encode_value, good)) + data))
            assert [stream.read_value() for _ in good] == good
            assert _outcome(stream.read_value) == _outcome(lambda: resp_decode(data))


def _outcome(read):
    """What ``read()`` returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return type(exc), str(exc)


# An array whose items are all bulk strings is taken by the bulk pass when
# whole and every length token matches; any other takes the general path.
MALFORMED_ARRAYS = [
    b"*2\r\n$1\r\na\r\n$x\r\nb\r\n",  # a non-integer length
    b"*2\r\n$1\r\na\r\n$1x\r\nb\r\n",
    b"*2\r\n$1\r\na\r\n$-2\r\n",
    b"*2\r\n$1\r\na\r\n$+1\r\nb\r\n",  # a sign the general path refuses
    b"*2\r\n$1\r\na\r\n$1_0\r\n0123456789\r\n",
    b"*2\r\n$1\r\na\r\n$1\r\nbXX:1\r\n",  # no CRLF after the bytes
    b"*2\r\n$1\r\na\r\n$3\r\nabc\n",
    b"*2\r\n$1\r\na\r\n$5\r\nab\r\n",  # truncated bytes
    b"*3\r\n$1\r\na\r\n$1\r\nb\r\n",  # a missing item
    b"*2\r\n$1\r\na\r\n$1",  # a truncated length line
]


@pytest.mark.parametrize("data", MALFORMED_ARRAYS)
def test_decode_rejects_a_malformed_bulk_item_in_an_array(data):
    with pytest.raises(ProtocolError):
        resp_decode(data)
    for seed in range(3):
        with pytest.raises(ProtocolError):
            RespStream(Trickle(data, seed)).read_value()


ARRAY_GOLDEN = [
    (b"*0\r\n", []),
    (b"*1\r\n$0\r\n\r\n", [b""]),
    (b"*3\r\n$1\r\na\r\n$-1\r\n$1\r\nb\r\n", [b"a", None, b"b"]),
    (b"*3\r\n:7\r\n$2\r\nab\r\n:-3\r\n", [7, b"ab", -3]),
    (b"*3\r\n$1\r\na\r\n*2\r\n$1\r\nx\r\n*-1\r\n$1\r\nb\r\n", [b"a", [b"x", None], b"b"]),
    (b"*2\r\n$4\r\na\r\nb\r\n$6\r\n\r\n\r\n\r\n\r\n", [b"a\r\nb", b"\r\n\r\n\r\n"]),
    (b"*3\r\n$5\r\nPFADD\r\n$1\r\nk\r\n+OK\r\n", [b"PFADD", b"k", "OK"]),
]


@pytest.mark.parametrize("data, value", ARRAY_GOLDEN)
def test_decode_array_items_golden(data, value):
    assert resp_decode(data) == value
    for seed in range(3):
        stream = RespStream(Trickle(data + b":1\r\n", seed))
        assert stream.read_value() == value
        assert stream.read_value() == 1


class Cut:
    """File-like source handing out ``data[:at]`` on its first read, then the rest."""

    def __init__(self, data, at):
        self._pieces = [data[:at], data[at:]]

    def readinto(self, buffer):
        piece = self._pieces.pop(0) if self._pieces else b""
        buffer[: len(piece)] = piece
        return len(piece)


def test_decode_is_binary_safe_at_every_cut():
    # Elements that look like framing must fail the bulk pass's length
    # check; the frames it does not take go through the general path.
    tricky = [b"a\r\nb", b"$1", b"*2\r\n", b":1\r\n", b"\r\n", b"$3\r\nabc\r\n", b""]
    values = [[b"PFADD", b"k", element] for element in tricky]
    values += [1, 0, [b"PFCOUNT", b"k"], 12345, "OK", ErrorReply("ERR x"), None]
    values += [[], [b"a", [b"b", 2], None], b"$4\r\n:1\r\n", -3, [b"PFADD", b"k", b"*1"], 5]
    data = b"".join(map(encode_value, values)) + b"*-1\r\n"
    values.append(None)
    for source in [io.BytesIO(data)] + [Cut(data, at) for at in range(1, len(data))]:
        stream = RespStream(source)
        assert [stream.read_value() for _ in values] == values
        with pytest.raises(ProtocolError, match="end of stream"):
            stream.read_value()


def test_bulk_pass_runs_once_per_refill(monkeypatch):
    # A block of frames the bulk pass does not take is not split again
    # for every frame: that would be quadratic in the block.
    calls = []
    take = RespStream._take_frames
    monkeypatch.setattr(RespStream, "_take_frames", lambda stream: calls.append(take(stream)))
    stream = RespStream(io.BytesIO(b"+OK\r\n" * 10_000))
    assert [stream.read_value() for _ in range(10_000)] == ["OK"] * 10_000
    assert len(calls) == 1


def test_bulk_pass_takes_a_whole_read_of_commands():
    # A read made at a frame boundary comes before the bulk pass, so the
    # pass takes every command of it, the first one too.
    commands = [[b"PFADD", b"k", b"%d" % n] for n in range(100)]
    data = resp_encode(*commands)
    stream = RespStream(Cut(data + data, len(data)))
    for _ in range(2):
        assert stream.read_value() == commands[0]
        assert len(stream._ready) == 99
        assert [stream.read_value() for _ in range(99)] == commands[1:]


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
        line_text,
        st.builds(ErrorReply, line_text),
        st.none(),
        st.binary(max_size=40),
    )
    if depth == 0:
        return scalar
    return st.one_of(scalar, st.lists(_values(depth - 1), max_size=4))


@given(_values(3))
@settings(max_examples=200, deadline=None)
def test_codec_roundtrip(value):
    assert resp_decode(encode_value(value)) == value


_commands = st.lists(st.binary(max_size=40), min_size=1, max_size=4)


@given(
    st.lists(st.one_of(_commands, _values(3)), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([7, 64, 65536]),
)
@settings(max_examples=200, deadline=None)
def test_pipeline_decodes_through_short_reads(values, seed, most):
    # Reads of 1 to ``most`` bytes put buffer ends inside arrays and items.
    stream = RespStream(Trickle(b"".join(encode_value(v) for v in values), seed, most))
    assert [stream.read_value() for _ in values] == values
    with pytest.raises(ProtocolError, match="end of stream"):
        stream.read_value()


# -- endpoints -------------------------------------------------------------------


def test_parse_endpoint():
    ep = parse_endpoint("redis://localhost:6380/mykey")
    assert (ep.host, ep.port, ep.key) == ("localhost", 6380, "mykey")
    assert parse_endpoint("redis://10.0.0.1/k").port == 6379
    ep = parse_endpoint("redis://[::1]:6380/k")
    assert (ep.host, ep.port, ep.key) == ("::1", 6380, "k")
    ep = parse_endpoint("redis://[::1]/k")
    assert (ep.host, ep.port, ep.key) == ("::1", 6379, "k")


def test_parse_endpoint_rejects_bad_urls():
    for bad in (
        "http://x/k", "redis://hostonly", "redis://host:port/k", "redis://:1/k",
        # An unclosed bracket, an empty one, and anything but :port after it.
        "redis://[::1/k", "redis://[::1:6379/k", "redis://[]/k", "redis://[]:6379/k",
        "redis://[::1]6379/k", "redis://[::1]x/k", "redis://[::1]]:6379/k", "redis://[::1]:/k",
    ):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


@pytest.mark.parametrize(
    "port, expected",
    [
        ("1", 1), ("80", 80), ("6380", 6380), ("65535", 65535),
        # int() takes each of these, and the resolver would wrap 71915 to
        # 6379 and 99999 to 34463.
        ("0", None), ("-1", None), ("+80", None), ("8_0", None), (" 80", None),
        ("80 ", None), ("\u0668\u0660", None), ("", None), ("65536", None),
        ("71915", None), ("99999", None),
    ],
)
def test_parse_endpoint_takes_only_ascii_digit_ports_in_range(port, expected):
    url = f"redis://127.0.0.1:{port}/k"
    if expected is None:
        with pytest.raises(ValueError, match="port"):
            parse_endpoint(url)
    else:
        assert parse_endpoint(url).port == expected


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
        with RemoteOracle(server.url()) as oracle:
            oracle.reset()
            with pytest.raises(TypeError):
                oracle.insert("a")
            assert server.commands_seen == {b"DEL": 1}
            kept = []
            with pytest.raises(TypeError):
                oracle.scan(["a"], kept)
            assert kept == [] and b"PFADD" not in server.commands_seen
            with pytest.raises(TypeError):
                resp_encode([b"PFADD", b"k", "a"])


@pytest.mark.parametrize("bad", [None, "", bytearray(), b""])
def test_oracle_refuses_a_bad_element_alike_everywhere(bad):
    # The in-process oracle's error types: only an empty bytes is a
    # ValueError. A refused element is never sent, nor are the good
    # elements ahead of it in an ``insert_many``.
    error = ValueError if type(bad) is bytes else TypeError
    with running_server() as server:
        with RemoteOracle(server.url()) as oracle:
            oracle.reset()
            kept = []
            with pytest.raises(error):
                oracle.insert(bad)
            with pytest.raises(error):
                oracle.insert_many([b"ok", bad])
            with pytest.raises(error):
                oracle.scan([bad], kept)
            assert kept == []
        assert b"PFADD" not in server.commands_seen


@pytest.mark.parametrize("at", [1, remote._PIPELINE // 2 + 5])
@pytest.mark.parametrize(
    "bad", [None, "", bytearray(), b"", RuntimeError],
    ids=["None", "str", "bytearray", "empty", "source"],
)
def test_scan_judges_the_elements_before_a_bad_one_as_the_in_process_oracle_does(bad, at):
    # ``at`` good elements, then a bad one or the source raising: the good
    # ones are sent and judged first, the second time in a later pipeline.
    def source():
        yield from (b"s%d" % k for k in range(at))
        if bad is RuntimeError:
            raise RuntimeError("source failed")
        yield bad
        yield b"never read"

    error = RuntimeError if bad is RuntimeError else ValueError if type(bad) is bytes else TypeError
    local = make_oracle(HllParams(256, 6))
    expected = []
    with pytest.raises(error):
        local.scan(source(), expected)
    assert expected
    with running_server(register_count=256) as server:
        with RemoteOracle(server.url()) as oracle:
            oracle.reset()
            kept = []
            with pytest.raises(error):
                oracle.scan(source(), kept)
            assert kept == expected
        assert server.keys[b"k"].registers == local.registers
        assert server.commands_seen[b"PFADD"] == at


def test_oracle_surfaces_wrong_type_errors():
    with running_server() as server:
        with RemoteOracle(server.url("strkey")) as oracle:
            oracle._exchange([[b"SET", b"strkey", b"hello"]])
            with pytest.raises(ServerError, match="WRONGTYPE"):
                oracle.estimate()


def test_server_refuses_a_command_argument_that_is_not_a_bulk_string():
    frames = [b"*2\r\n$4\r\nPING\r\n:1\r\n", b"*2\r\n$4\r\nPING\r\n*1\r\n$1\r\nx\r\n",
              b"*2\r\n$4\r\nPING\r\n$-1\r\n", b"*1\r\n:1\r\n"]
    with running_server() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"".join(frames) + resp_encode([b"PING"]))
            stream = RespStream(sock)
            for _ in frames:
                assert stream.read_value() == ErrorReply("ERR command arguments must be bulk strings")
            assert stream.read_value() == "PONG"
        assert server.commands_seen == {b"PING": 1}


def read_to_end(sock):
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


def test_server_answers_the_commands_before_a_bad_frame():
    with running_server() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(resp_encode([b"PING"], [b"PFADD", b"k", b"a"]) + b"*1\r\n$x\r\n")
            assert read_to_end(sock) == b"+PONG\r\n:1\r\n"


def test_drop_after_cuts_a_batched_read_after_exactly_n_replies():
    with running_server(drop_after=2) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(resp_encode(*[[b"PING"]] * 5))
            assert read_to_end(sock) == b"+PONG\r\n" * 2


def test_server_answers_a_pipeline_in_a_few_writes(monkeypatch):
    # A server that wrote each reply on its own would make the client read
    # about once per reply: 491-640 reads for this scan.
    with running_server(register_count=256) as server:
        with RemoteOracle(server.url("reads")) as oracle:
            oracle.reset()
            reads = []
            fill = RespStream._fill

            def counted(stream, need=0):
                if stream is oracle._stream:
                    reads.append(need)
                return fill(stream, need)

            monkeypatch.setattr(RespStream, "_fill", counted)
            oracle.scan([b"w%d" % k for k in range(512)], [])
    assert 0 < len(reads) <= 16


def test_pipelined_batch_equals_sequential():
    # ``insert_many``'s pipelines leave the registers an ``insert`` loop leaves.
    elements = [b"e%d" % k for k in range(500)]
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url("seq")) as sequential:
            sequential.reset()
            for e in elements:
                sequential.insert(e)
            expected = sequential.estimate()
        with RemoteOracle(server.url("bat")) as batched:
            batched.reset()
            batched.insert_many(elements)
            assert server.keys[b"bat"].registers == server.keys[b"seq"].registers
            assert batched.estimate() == expected
            # a repeated count asks the server again and reads the same value
            assert batched.estimate() == expected
            batched.insert(b"one-more")
            assert batched.estimate() >= expected


def test_insert_many_bounds_pipeline_size(monkeypatch):
    # A long insert_many goes out in bounded pipelines rather than as one
    # giant one.
    monkeypatch.setattr(remote, "_PIPELINE", 128)
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url("big")) as oracle:
            oracle.reset()
            sizes = []
            exchange = oracle._exchange

            def logged(commands):
                sizes.append(len(commands))
                return exchange(commands)

            oracle._exchange = logged
            oracle.insert_many(b"elem-%d" % k for k in range(5000))
            assert sizes == [128] * 39 + [8]
            estimate = oracle.estimate()
            assert abs(estimate - 5000) <= 0.1 * 5000


def test_every_insert_has_reached_the_server_when_it_returns():
    # Nothing is queued for a later call, so closing the oracle loses
    # nothing. ``batch`` is accepted only as True, the one mode there is.
    with running_server(register_count=1024) as server:
        with RemoteOracle(server.url(), batch=True) as oracle:
            oracle.reset()
            oracle.insert(b"a")
        with RemoteOracle(server.url()) as fresh:
            assert fresh.estimate() == 1
            fresh.insert_many([b"b", b"c"])
        with RemoteOracle(server.url()) as fresh:
            assert fresh.estimate() == 3
    for batch in (False, None, 1):
        with pytest.raises(ValueError):
            RemoteOracle(server.url(), batch=batch)


def test_oracle_reconnects_once_after_a_drop():
    # The drop hits a pipeline of PFADDs, which is replayed once.
    with running_server(register_count=1024, drop_after=5) as server:
        with RemoteOracle(server.url()) as oracle:
            oracle.reset()
            for e in (b"a", b"b", b"c", b"d"):
                oracle.insert(e)
            oracle.insert_many([b"e", b"f", b"g"])
            assert oracle.estimate() == 7
            assert (oracle.reconnects, oracle.replays) == (1, 1)


def test_dropped_scan_aborts_with_a_prefix_of_the_true_set(monkeypatch):
    # A scan pipeline holds many PFCOUNTs; replaying it after the server
    # applied part of it would read skewed counts, so it must not replay.
    monkeypatch.setattr(remote, "_PIPELINE", 64)
    params = HllParams(256, 6)
    expected, _ = phase1(make_oracle(params), 8, 2000)
    with running_server(register_count=256, drop_after=300) as server:
        with RemoteOracle(server.url()) as oracle:
            oracle.reset()
            with pytest.raises(AttackAborted) as excinfo:
                phase1(oracle, 8, 2000)
    partial = excinfo.value.partial.elements
    assert 0 < len(partial) < len(expected.elements)
    assert partial == expected.elements[: len(partial)]
    assert isinstance(excinfo.value.__cause__, (ConnectionError, ProtocolError, OSError))


def test_scan_paths_agree_and_query_once_per_insertion():
    # The reference loops (through CountingOracle), the in-process kernel
    # paths and the remote pipelines keep byte-identical phase sets, and each scan
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
            assert runs[1].reports == runs[0].reports
            assert sum(o.insertions for o in counters) == runs[0].total_insertions
            assert sum(o.estimate_queries for o in counters) == sum(r.estimate_queries for r in runs[0].reports)
            with RemoteOracle(server.url("parity")) as oracle:
                before = Counter(server.commands_seen)
                runs.append(run_attack(lambda: oracle, seed, c))
            seen = Counter(server.commands_seen) - before
            assert seen[b"PFADD"] == runs[-1].total_insertions
            assert seen[b"PFCOUNT"] == sum(r.estimate_queries for r in runs[-1].reports)
            for run in runs:
                assert [s.elements for s in run.phase_sets] == [s.elements for s in runs[0].phase_sets]
                for report in run.reports:
                    assert report.estimate_queries == report.insertions_performed + 1
            assert len(runs[0].phase_sets[1]) > len(runs[0].phase_sets[0])


def test_server_counts_commands_without_keeping_each_one():
    # A long-lived server holds one count per command name, however many
    # attacks it serves.
    with running_server(register_count=256) as server:
        with RemoteOracle(server.url("twice")) as oracle:
            runs = [run_attack(lambda: oracle, seed, 1000) for seed in (1, 2)]
        assert len(server.commands_seen) <= 4
        assert server.commands_seen[b"PFADD"] == sum(run.total_insertions for run in runs)


class SendRecorder:
    """Socket stand-in that keeps each payload it forwards."""

    def __init__(self, sock):
        self.sock = sock
        self.sent = []

    def sendall(self, data):
        self.sent.append(data)
        self.sock.sendall(data)

    def close(self):
        self.sock.close()


def test_scan_sends_each_pipeline_byte_for_byte(monkeypatch):
    monkeypatch.setattr(remote, "_PIPELINE", 64)
    elements = [b"g%d" % k for k in range(150)]
    with running_server(register_count=256) as server:
        with RemoteOracle(server.url("golden")) as oracle:
            oracle.reset()
            recorder = oracle._sock = SendRecorder(oracle._sock)
            exchanged = []
            exchange = oracle._exchange

            def logged(commands):
                exchanged.append([list(command) for command in commands])
                return exchange(commands)

            oracle._exchange = logged
            oracle.insert(b"preloaded")
            oracle.scan(elements, [])
    add = lambda e: [b"PFADD", b"golden", e]  # noqa: E731
    count = [b"PFCOUNT", b"golden"]
    expected = [[add(b"preloaded")], [count]]
    expected += [[c for e in elements[k : k + 32] for c in (add(e), count)] for k in range(0, 150, 32)]
    assert exchanged == expected
    assert recorder.sent == [b"".join(resp_encode(c) for c in commands) for commands in expected]


def test_oracle_counts_a_scans_traffic_per_pipeline(monkeypatch):
    monkeypatch.setattr(remote, "_PIPELINE", 64)
    params = HllParams(256, 6)
    elements = [b"t%d" % k for k in range(100)]
    with running_server(register_count=256) as server:
        with RemoteOracle(server.url("traffic")) as oracle:
            oracle.reset()
            oracle.scan(elements, [])
            traffic = oracle.traffic()
    # DEL, the first PFCOUNT, then 32 + 32 + 32 + 4 PFADD/PFCOUNT pairs.
    key = b"traffic"
    commands = [[b"DEL", key], [b"PFCOUNT", key]]
    commands += [c for e in elements for c in ([b"PFADD", key, e], [b"PFCOUNT", key])]
    local = make_oracle(params)
    local.reset()
    replies = [b":0\r\n", b":0\r\n"]  # DEL, then the first PFCOUNT
    for element in elements:
        local.insert(element)
        replies += [b":1\r\n", b":%d\r\n" % local.estimate()]  # PFADD replies 0 or 1
    assert traffic == {
        "round_trips": 6,
        "commands": len(commands),
        "bytes_out": sum(len(resp_encode(c)) for c in commands),
        "bytes_in": len(b"".join(replies)),
        "reconnects": 0,
        "replays": 0,
    }
    assert server.commands_seen[b"PFADD"] == 100


def test_oracle_counts_a_drop_as_one_reconnect_and_one_replay():
    with running_server(register_count=1024, drop_after=5) as server:
        with RemoteOracle(server.url("k")) as oracle:
            oracle.reset()
            for e in (b"a", b"b", b"c", b"d", b"e", b"f", b"g"):
                oracle.insert(e)
            assert oracle.estimate() == 7
            traffic = oracle.traffic()
    # The PFADD of b"e" went out twice: once on the dropped connection.
    sent = [[b"DEL", b"k"]] + [[b"PFADD", b"k", e] for e in (b"a", b"b", b"c", b"d", b"e")]
    sent += [[b"PFADD", b"k", e] for e in (b"e", b"f", b"g")] + [[b"PFCOUNT", b"k"]]
    assert traffic["round_trips"] == traffic["commands"] == 10
    assert traffic["bytes_out"] == sum(len(resp_encode(c)) for c in sent)
    assert traffic["bytes_in"] == 9 * len(b":0\r\n")  # 5 replies before the drop, 4 after
    assert (traffic["reconnects"], traffic["replays"]) == (1, 1)
    assert sum(server.commands_seen.values()) == 9


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


def test_oracle_closes_its_connection_on_a_reply_that_is_not_utf8():
    # The PING is replayed once on a fresh connection, then the error
    # propagates; no connection is left open with replies unread.
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(64)
                    conn.sendall(b"+\xff\r\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        oracle = RemoteOracle(f"redis://127.0.0.1:{listener.getsockname()[1]}/k")
        with pytest.raises(ProtocolError, match="UTF-8"):
            oracle.ping()
        assert oracle._sock is None
        assert (oracle.round_trips, oracle.replays) == (2, 1)
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_connection_refused_propagates():
    oracle = RemoteOracle("redis://127.0.0.1:1/k", timeout=0.5)
    with pytest.raises(OSError):
        oracle.ping()


def test_attack_runs_over_resp():
    # Full black-box attack across TCP: same code path as in-process,
    # only the oracle differs. One oracle serves every phase, as in
    # ``hllrt attack``.
    r = 1024
    c = 5 * r
    with running_server(register_count=r) as server:
        with RemoteOracle(server.url("attacked")) as oracle:
            run = run_attack(lambda: oracle, seed=5, target_cardinality=c)
            round_trips = oracle.round_trips
            remote_estimate = verify(oracle, run.attack_set)
        # Each phase: DEL, the first PFCOUNT, a pipeline per 512 PFADD /
        # PFCOUNT pairs; phase 2 first preloads 1,024 PFADDs a pipeline.
        y1, y2, _ = run.phase_sets
        pipelines = lambda n, size: -(-n // size)  # noqa: E731
        scans = 2 * pipelines(c, 512) + pipelines(len(y2), 512)
        assert round_trips == 3 * 2 + scans + pipelines(len(y1), 1024)
        assert abs(remote_estimate - c) <= 0.10 * c
        # transfers to a hash-compatible local sketch
        local = verify(make_oracle(server.params), run.attack_set)
        assert local == remote_estimate
        assert len(run.attack_set.elements) <= 1.2 * r
