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
PFADD's changed bit is ignored: the adversarial model only grants
estimate differences.

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
digits, and a simple string or an error must be UTF-8. Each frame is
parsed where it sits in its buffer. A command array's bulk strings are
parsed in one inline loop while each is buffered whole; any other item,
or one cut by the buffer's end, takes the general path, which refills.
The oracle counts its traffic once per exchange: round trips, commands,
bytes each way, reconnects and replays.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .oracle import CardinalityOracle

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


def resp_encode(*commands: Sequence[bytes]) -> bytes:
    """Encode commands back to back, each as a RESP array of bulk strings."""
    out: list[bytes] = []
    append = out.append
    for command in commands:
        if not command:
            raise ValueError("command must be non-empty")
        append(b"*%d\r\n" % len(command))
        for part in command:
            append(b"$%d\r\n%s\r\n" % (len(part), part))
    return b"".join(out)


def encode_value(value: RespValue) -> bytes:
    """Encode a value as ``read_value`` returns it (server side / round-trip testing)."""
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, bool):
        raise TypeError("RESP has no boolean type")
    if isinstance(value, int):
        return b":%d\r\n" % value
    if isinstance(value, bytes):
        return b"$%d\r\n%s\r\n" % (len(value), value)
    if isinstance(value, str):
        return b"+%s\r\n" % value.encode("utf-8")
    if isinstance(value, ErrorReply):
        return b"-%s\r\n" % value.message.encode("utf-8")
    if isinstance(value, list):
        return b"*%d\r\n" % len(value) + b"".join(encode_value(item) for item in value)
    raise TypeError(f"not a RESP value: {value!r}")


class RespStream:
    """Buffered reader of RESP values from a socket or file-like source.

    ``read_value`` returns ``:n`` as an ``int``, ``$`` as ``bytes``, ``*``
    as a ``list``, ``+`` as a ``str``, ``-`` as an ``ErrorReply``, and both
    ``$-1`` and ``*-1`` as ``None``. An integer or a length that is not an
    optional ``-`` and ASCII digits raises ``ProtocolError``, and so does a
    ``+`` or ``-`` line that is not UTF-8.

    Each frame is parsed where it sits in the buffer, an immutable
    ``bytes``: one ``find`` per line, the type byte compared as an int
    (the numeric types first), and a bulk string's bytes and CRLF checked
    with one slice. An array's bulk-string items are parsed inline, in one
    loop, while each whole item is buffered. Any other item, or one that
    needs a refill, and every later item of that array, goes through
    ``read_value`` itself. Consumed bytes are dropped only when the buffer
    is refilled; ``received`` counts the bytes read from the source.
    """

    def __init__(self, source) -> None:
        self._source = source
        self._buffer = b""
        self._pos = 0
        self.received = 0
        self._block = memoryview(bytearray(65536)) if isinstance(source, socket.socket) else None

    def _fill(self, need: int = 0) -> None:
        """Read at least once, and on until ``need`` unread bytes are buffered.

        A socket is read into one block and what came is copied out:
        recv's own 64 KiB bytes, shrunk to what came, fragment the heap
        (the client's RSS grew with every attack). The reads are joined
        with the unread bytes once, so a long bulk string is not copied
        again on every read.
        """
        parts = [self._buffer[self._pos :]]
        have = len(parts[0])
        while True:
            if self._block is not None:
                chunk = bytes(self._block[: self._source.recv_into(self._block)])
            else:
                chunk = self._source.read(65536)
            if not chunk:
                raise ProtocolError("unexpected end of stream")
            self.received += len(chunk)
            parts.append(chunk)
            have += len(chunk)
            if have >= need:
                break
        self._buffer = b"".join(parts)
        self._pos = 0

    def read_value(self) -> RespValue:
        """Consume exactly one value, leaving the stream at the next one."""
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
        number = int(text)
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
        items: list[RespValue] = []
        append = items.append
        pos = end + 2
        for _ in range(number):
            end = buf.find(b"\r\n", pos)
            if end < 0 or buf[pos] != 36:
                break
            text = buf[pos + 1 : end]
            if not text.isdigit():
                break  # $-1 or a bad length: the general path decides
            start = end + 2
            stop = start + int(text)
            if buf[stop : stop + 2] != b"\r\n":
                break  # a short buffer or a bad terminator
            append(buf[start:stop])
            pos = stop + 2
        self._pos = pos
        items.extend([self.read_value() for _ in range(number - len(items))])
        return items


@dataclass(frozen=True)
class RedisEndpoint:
    host: str
    port: int
    key: str


def parse_endpoint(url: str) -> RedisEndpoint:
    """Parse redis://host:port/keyname."""
    if not url.startswith("redis://"):
        raise ValueError(f"endpoint must start with redis://, got {url!r}")
    rest = url[len("redis://") :]
    hostport, sep, key = rest.partition("/")
    if not sep or not key:
        raise ValueError(f"endpoint must name a key: redis://host:port/key, got {url!r}")
    host, sep, port_text = hostport.partition(":")
    if not host:
        raise ValueError(f"endpoint missing host: {url!r}")
    port = 6379
    if sep:
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(f"bad port in endpoint {url!r}") from exc
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

    @staticmethod
    def _element(element: bytes) -> bytes:
        if type(element) is not bytes:
            raise TypeError(f"expected bytes, got {type(element).__name__}")
        if not element:
            raise ValueError("element must be non-empty")
        return element

    def insert(self, element: bytes) -> None:
        reply = self._exchange([[b"PFADD", self._key, self._element(element)]])[0]
        self._expect_int(reply, "PFADD")

    def insert_many(self, elements: Iterable[bytes]) -> None:
        """PFADD every element in order, ``_PIPELINE`` commands a round trip.

        A bad element is refused before any PFADD is sent.
        """
        elements = [self._element(e) for e in elements]
        key = self._key
        for start in range(0, len(elements), _PIPELINE):
            chunk = elements[start : start + _PIPELINE]
            for reply in self._exchange([[b"PFADD", key, element] for element in chunk]):
                self._expect_int(reply, "PFADD")

    def estimate(self) -> int:
        return self._expect_int(self._exchange([[b"PFCOUNT", self._key]])[0], "PFCOUNT")

    def scan(self, elements: Iterable[bytes], kept: list[bytes]) -> tuple[int, int]:
        """Pipelined scan: ``PFADD e`` / ``PFCOUNT`` pairs, ``_PIPELINE`` commands a round trip."""
        last = self.estimate()
        key = self._key
        count = [b"PFCOUNT", key]
        expect_int = self._expect_int
        append = kept.append
        insertions = 0
        elements = iter(elements)
        while chunk := [self._element(e) for e in islice(elements, _PIPELINE // 2)]:
            commands: list[Sequence[bytes]] = []
            for element in chunk:
                commands.append([b"PFADD", key, element])
                commands.append(count)
            replies = self._exchange(commands)
            for element, added, counted in zip(chunk, replies[::2], replies[1::2]):
                expect_int(added, "PFADD")
                after = expect_int(counted, "PFCOUNT")
                if after > last:
                    append(element)
                last = after
            insertions += len(chunk)
        return last, insertions
