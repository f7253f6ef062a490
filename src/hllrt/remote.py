"""RESP2 client oracle for Redis-compatible HLL services.

Implements just enough of the Redis wire protocol to drive the attack
against a live server: PFADD / PFCOUNT / DEL / PING over one TCP
connection, strictly sequential or pipelined FIFO. The oracle maps the
black-box contract onto those commands (reset = DEL, insert = PFADD,
estimate = PFCOUNT).

Every call is its own exchange and has reached the server when it
returns: nothing is queued. ``insert_many`` sends its PFADDs in
pipelines of ``_PIPELINE`` (1,024) commands. A scan sends the same
commands whatever the replies are, so ``RemoteOracle.scan`` pipelines
it whole: its first PFCOUNT alone, then ``PFADD e`` / ``PFCOUNT`` pairs,
``_PIPELINE`` commands per round trip, the count after each PFADD read
from its pair (sound under the one-writer-per-key model this oracle
assumes). Every PFCOUNT goes to the server; no estimate is cached.
Every reply, a scan's too, goes through ``_expect_int``. PFADD's changed
bit is ignored: the adversarial model only grants estimate differences.

A dropped connection is reopened and the failed pipeline sent once more
only when its replies cannot change: PFADD, DEL and PING are
idempotent, and a PFCOUNT sent last counts the same registers either
way. A pipeline with a PFCOUNT before its last command (a scan's) is
never replayed, because the server may have applied later PFADDs before
the drop; it raises instead.

Replies, and on the test server commands, are decoded by ``RespStream``
into plain Python values, as redis-py and hiredis do: an integer is an
``int``, a bulk string ``bytes``, a simple string ``str``, an array a
``list``, ``$-1`` and ``*-1`` are ``None``, and an error reply is an
``ErrorReply``. Integers and lengths must be an optional ``-`` and ASCII
digits, and a simple string or an error must be UTF-8. As hiredis takes
every whole reply out of its reader before it reads again, one bulk pass
per refill decodes every whole frame of the buffer, up to the first that
is not a non-negative integer or an array of bulk strings. That frame,
and every later one until the next refill, takes the general path, which
parses each frame where it sits in its buffer and refills. Encode and the
bulk pass take each bulk string's length token (``$5`` for 5 bytes) from
one bounded table, ``_length_token``; the pass checks every token of a
read against it in one comparison, and a read that fails it goes whole
to the general path.
The oracle counts its traffic once per exchange: round trips, commands,
bytes each way, reconnects and replays.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

from .oracle import CardinalityOracle, checked_element

__all__ = [
    "ErrorReply",
    "RespValue",
    "ProtocolError",
    "ServerError",
    "resp_encode",
    "encode_value",
    "RespStream",
    "RedisEndpoint",
    "parse_endpoint",
    "RemoteOracle",
]

# Commands per pipeline. Bounded: an unbounded command burst can deadlock
# on socket buffers once the reply stream backs up.
_PIPELINE = 1024


class ProtocolError(Exception):
    """Malformed RESP framing."""


class ServerError(Exception):
    """An error reply received where a normal reply was required."""


@dataclass(frozen=True)
class ErrorReply:
    """An error reply; kept apart from a simple string, which is a ``str``."""

    message: str


# A decoded value: None stands for both $-1 and *-1.
RespValue = int | bytes | str | list | ErrorReply | None


# A bulk string's length token: b"$5" for 5. Bounded, since on the
# server a peer picks the lengths it decodes.
_length_token = lru_cache(maxsize=1024)(b"$%d".__mod__)


def resp_encode(*commands: Sequence[bytes]) -> bytes:
    """Encode commands back to back, each as a RESP array of bulk strings."""
    out: list[bytes] = []
    append = out.append
    for command in commands:
        if not command:
            raise ValueError("command must be non-empty")
        append(b"*%d" % len(command))
        for part in command:
            append(_length_token(len(part)))
            append(part)
    append(b"")  # the last part's CRLF
    return b"\r\n".join(out)


def encode_value(value: RespValue) -> bytes:
    """Encode a value as ``read_value`` returns it (server side / round-trip testing)."""
    if type(value) is int:
        return b":%d\r\n" % value
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, bytes):
        return b"%s\r\n%s\r\n" % (_length_token(len(value)), value)
    if isinstance(value, str):
        return b"+%s\r\n" % value.encode("utf-8")
    if isinstance(value, ErrorReply):
        return b"-%s\r\n" % value.message.encode("utf-8")
    if isinstance(value, list):
        return b"*%d\r\n" % len(value) + b"".join(encode_value(item) for item in value)
    raise TypeError(f"not a RESP value: {value!r}")


class RespStream:
    """Buffered reader of RESP values from a source with ``recv_into`` or ``readinto``.

    ``read_value`` returns ``:n`` as an ``int``, ``$`` as ``bytes``, ``*``
    as a ``list``, ``+`` as a ``str``, ``-`` as an ``ErrorReply``, and both
    ``$-1`` and ``*-1`` as ``None``. An integer or a length that is not an
    optional ``-`` and ASCII digits, or has more digits than ``int()``
    takes, raises ``ProtocolError``, and so does a ``+`` or ``-`` line that
    is not UTF-8.

    After each refill, one bulk pass (``_take_frames``) decodes every
    whole frame up to the first that is not a non-negative integer or an
    array of bulk strings, and ``read_value`` returns those values in
    order. The pass checks every length token of the read against the
    table ``resp_encode`` also takes them from, ``_length_token``, in one
    comparison; if that fails, it takes nothing. A ``read_value`` that
    finds nothing unread refills before the pass, so the pass starts at
    its frame. Every frame the pass does not take, up to the next refill,
    takes the general path, which alone raises: it parses a frame where
    it sits in the buffer, an immutable ``bytes``, with one ``find`` per
    line, the type byte compared as an int, a bulk string's bytes and
    CRLF checked with one slice, and each array item read by
    ``read_value`` itself.
    Consumed bytes are dropped only when the buffer is refilled;
    ``received`` counts the bytes read from the source.
    """

    def __init__(self, source) -> None:
        self._read_into = getattr(source, "recv_into", None) or source.readinto
        self._buffer = b""
        self._pos = 0
        self.received = 0
        self._block = memoryview(bytearray(65536))
        self._ready: list[RespValue] = []  # decoded frames, the next one last
        self._fresh = False  # whether the buffer was refilled since the bulk pass

    def _fill(self, need: int = 0) -> None:
        """Read at least once, and on until ``need`` unread bytes are buffered.

        Every read goes into one 64 KiB block and what came is copied out:
        a fresh 64 KiB ``bytes`` per read, shrunk to what came, fragments
        the heap (the client's RSS grew with every attack). The reads are
        joined with the unread bytes once, so a long bulk string is not
        copied again on every read.
        """
        parts = [self._buffer[self._pos :]]
        have = len(parts[0])
        while True:
            chunk = bytes(self._block[: self._read_into(self._block)])
            if not chunk:
                raise ProtocolError("unexpected end of stream")
            self.received += len(chunk)
            parts.append(chunk)
            have += len(chunk)
            if have >= need:
                break
        self._buffer = b"".join(parts)
        self._pos = 0
        self._fresh = True

    def _take_frames(self) -> None:
        """Decode into ``_ready`` each whole frame from ``_pos`` up to the first it does not take.

        Splits the unread bytes on CRLF once and reads each line as a
        frame's start, an array's length token or its item in turn. A bulk
        item is taken only if its length token is ``_length_token`` of its
        length: one holding CRLF splits short and fails it, so the pass is
        binary-safe. The tokens and items of every array are compared in
        one comparison. If that fails, the lines were read out of step: the
        pass takes nothing and leaves the whole read to the general path.
        It raises nothing: it stops before a token ``int()`` could refuse.
        """
        self._fresh = False
        lines = self._buffer[self._pos :].split(b"\r\n")
        whole = len(lines) - 1  # the last piece has no CRLF yet
        values = self._ready  # empty: read_value calls this only then
        append = values.append
        tokens: list[bytes] = []
        items: list[bytes] = []
        i = 0
        while i < whole:
            line = lines[i]
            text = line[1:]
            if len(text) > 18 or not text.isdigit():  # int() refuses over 4,300 digits
                break
            kind = line[0]
            if kind == 58:  # b":"
                append(int(text))
                i += 1
            elif kind == 42 and (stop := i + 1 + 2 * int(text)) <= whole:  # b"*"
                tokens += lines[i + 1 : stop : 2]
                array = lines[i + 2 : stop : 2]
                items += array
                append(array)
                i = stop
            else:
                break
        if tokens != list(map(_length_token, map(len, items))):
            values.clear()  # the general path decodes this whole read
            return
        self._pos += sum(map(len, lines[:i])) + 2 * i
        values.reverse()

    def read_value(self) -> RespValue:
        """Consume exactly one value, leaving the stream at the next one."""
        ready = self._ready
        if not ready:
            if self._pos == len(self._buffer):
                self._fill()  # at a frame boundary: the pass then starts at this frame
            if self._fresh:
                self._take_frames()
        if ready:
            return ready.pop()
        buf, pos = self._buffer, self._pos
        end = buf.find(b"\r\n", pos)
        while end < 0:
            self._fill()
            buf, pos = self._buffer, 0
            end = buf.find(b"\r\n")
        self._pos = end + 2
        kind = buf[pos]  # an empty line gives b"\r": an unknown type
        if kind not in b":$*":
            if kind != 43 and kind != 45:  # b"+", b"-"
                raise ProtocolError(f"unknown reply type {buf[pos:end]!r}")
            try:
                text = buf[pos + 1 : end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"line is not UTF-8: {buf[pos:end]!r}") from exc
            return text if kind == 43 else ErrorReply(text)
        text = buf[pos + 1 : end]
        if not text.isdigit() and not (text[:1] == b"-" and text[1:].isdigit()):
            raise ProtocolError(f"bad integer or length {buf[pos:end]!r}")
        try:
            number = int(text)
        except ValueError as exc:  # more digits than int() takes: 4,300 by default
            raise ProtocolError(f"integer or length of {len(text)} digits is too long") from exc
        if kind == 58:  # b":"
            return number
        if number < 0:
            if number != -1:
                raise ProtocolError(f"bad length {number}")
            return None
        if kind == 36:  # b"$"
            if len(self._buffer) - self._pos < number + 2:
                self._fill(number + 2)
            buf, start = self._buffer, self._pos
            stop = start + number
            if buf[stop : stop + 2] != b"\r\n":
                raise ProtocolError("bulk string missing CRLF terminator")
            self._pos = stop + 2
            return buf[start:stop]
        return [self.read_value() for _ in range(number)]


@dataclass(frozen=True)
class RedisEndpoint:
    host: str
    port: int
    key: str


def parse_endpoint(url: str) -> RedisEndpoint:
    """Parse redis://host:port/keyname, an IPv6 host in brackets: redis://[::1]:6379/k."""
    if not url.startswith("redis://"):
        raise ValueError(f"endpoint must start with redis://, got {url!r}")
    rest = url[len("redis://") :]
    hostport, sep, key = rest.partition("/")
    if not sep or not key:
        raise ValueError(f"endpoint must name a key: redis://host:port/key, got {url!r}")
    if hostport.startswith("["):
        host, closed, after = hostport[1:].partition("]")
        if not closed or after[:1] not in ("", ":"):
            raise ValueError(f"bad bracketed host in endpoint {url!r}: want [host] or [host]:port")
        sep, port_text = after[:1], after[1:]
    else:
        host, sep, port_text = hostport.partition(":")
    if not host:
        raise ValueError(f"endpoint missing host: {url!r}")
    port = 6379
    if sep:
        # int() would also take a sign, '_', spaces and non-ASCII digits,
        # and the resolver wraps a port past 65535 mod 65536.
        if not (port_text.isascii() and port_text.isdigit() and 1 <= int(port_text) <= 65535):
            raise ValueError(f"bad port in endpoint {url!r}: want 1..65535")
        port = int(port_text)
    return RedisEndpoint(host, port, key)


class RemoteOracle(CardinalityOracle):
    """CardinalityOracle speaking RESP to one key on one server.

    Each call is one exchange, or for ``insert_many`` and ``scan`` a run
    of pipelines, and has reached the server when it returns. ``batch``
    is accepted only as ``True``, the one mode there is.

    Counts its traffic once per exchange: ``round_trips`` (pipelines
    sent, replays included), ``commands``, ``bytes_out``, ``bytes_in``,
    ``reconnects`` (connections opened after the first pipeline) and
    ``replays`` (pipelines sent again after a drop); ``traffic`` gives
    them as a dict.
    """

    def __init__(
        self,
        endpoint: str | RedisEndpoint,
        batch: bool = True,
        timeout: float = 5.0,
    ) -> None:
        if batch is not True:
            raise ValueError("RemoteOracle has one mode: batch must be True")
        if isinstance(endpoint, str):
            endpoint = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.timeout = timeout
        self._key = endpoint.key.encode("utf-8")
        self._sock: socket.socket | None = None
        self._stream: RespStream | None = None
        self.round_trips = self.commands = self.bytes_out = 0
        self.reconnects = self.replays = 0
        self._closed_bytes_in = 0  # received on connections since closed

    # -- connection management -------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.endpoint.host, self.endpoint.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._stream = RespStream(sock)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._closed_bytes_in = self.bytes_in
                self._sock = None
                self._stream = None

    @property
    def bytes_in(self) -> int:
        stream = self._stream
        return self._closed_bytes_in + (stream.received if stream is not None else 0)

    def traffic(self) -> dict[str, int]:
        names = ("round_trips", "commands", "bytes_out", "bytes_in", "reconnects", "replays")
        return {name: getattr(self, name) for name in names}

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _exchange(self, commands: list[Sequence[bytes]]) -> list[RespValue]:
        """Send a pipeline and read one reply per command.

        On a connection failure, reconnect and replay the pipeline once,
        unless a PFCOUNT precedes its last command: the server may have
        applied PFADDs after that count before the drop, so replayed
        counts would be skewed. That failure, and a second one, propagate.
        """
        payload = resp_encode(*commands)
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    if self.round_trips:
                        self.reconnects += 1
                    self._connect()
                assert self._sock is not None and self._stream is not None
                self.round_trips += 1
                self.commands += len(commands)
                self.bytes_out += len(payload)
                self._sock.sendall(payload)
                read = self._stream.read_value
                return [read() for _ in commands]
            except (ProtocolError, OSError):
                self.close()
                if attempt == 1 or any(command[0] == b"PFCOUNT" for command in commands[:-1]):
                    raise
                self.replays += 1
        raise AssertionError("unreachable")

    @staticmethod
    def _expect_int(value: RespValue, command: str) -> int:
        if isinstance(value, ErrorReply):
            raise ServerError(f"{command}: {value.message}")
        if not isinstance(value, int):
            raise ProtocolError(f"{command}: expected integer reply, got {value!r}")
        return value

    # -- oracle interface --------------------------------------------------

    def ping(self) -> bool:
        reply = self._exchange([[b"PING"]])[0]
        return reply == "PONG"

    def reset(self) -> None:
        self._expect_int(self._exchange([[b"DEL", self._key]])[0], "DEL")

    def insert(self, element: bytes) -> None:
        self.insert_many((element,))

    def insert_many(self, elements: Iterable[bytes]) -> None:
        """PFADD every element in order, ``_PIPELINE`` commands a round trip.

        A bad element is refused before any PFADD is sent.
        """
        elements = [checked_element(e) for e in elements]
        key = self._key
        for start in range(0, len(elements), _PIPELINE):
            chunk = elements[start : start + _PIPELINE]
            for reply in self._exchange([[b"PFADD", key, element] for element in chunk]):
                self._expect_int(reply, "PFADD")

    def estimate(self) -> int:
        return self._expect_int(self._exchange([[b"PFCOUNT", self._key]])[0], "PFCOUNT")

    def scan(self, elements: Iterable[bytes], kept: list[bytes]) -> tuple[int, int]:
        """Pipelined scan: ``PFADD e`` / ``PFCOUNT`` pairs, ``_PIPELINE`` commands a round trip.

        A ``kept`` that is not a ``list`` is refused before any command is sent.
        """
        if not isinstance(kept, list):
            raise TypeError(f"expected list, got {type(kept).__name__}")
        last = self.estimate()
        key = self._key
        count = [b"PFCOUNT", key]
        insertions = 0
        elements = iter(elements)
        while True:
            chunk: list[bytes] = []
            try:  # extend keeps the elements read before a bad one or a raise of the source
                chunk.extend(map(checked_element, islice(elements, _PIPELINE // 2)))
            finally:  # which are sent and judged before that error propagates, as by the reference
                if chunk:
                    replies = self._exchange([c for e in chunk for c in ([b"PFADD", key, e], count)])
                    for element, added, after in zip(chunk, replies[::2], replies[1::2]):
                        self._expect_int(added, "PFADD")
                        if self._expect_int(after, "PFCOUNT") > last:
                            kept.append(element)
                        last = after
                    insertions += len(chunk)
            if len(chunk) < _PIPELINE // 2:
                return last, insertions
