"""RESP2 client oracle for Redis-compatible HLL services.

Implements just enough of the Redis wire protocol to drive the attack
against a live server: PFADD / PFCOUNT / DEL / PING over one TCP
connection, strictly sequential or pipelined FIFO. The oracle maps the
black-box contract onto those commands (reset = DEL, insert = PFADD,
estimate = PFCOUNT).

Batched mode amortizes round trips. Insertions are queued and flushed
together with the next PFCOUNT as one pipeline. A scan sends the same
commands whatever the replies are, so ``RemoteOracle.scan`` pipelines
it whole: ``PFADD e`` / ``PFCOUNT`` pairs, ``max_pipeline`` commands per
round trip, the count after each PFADD read from its pair (sound under
the one-writer-per-key model this oracle assumes). Every PFCOUNT goes
to the server; no estimate is cached. PFADD's changed bit is ignored: the
adversarial model only grants estimate differences.

A dropped connection is reopened and the failed pipeline sent once more
only when its replies cannot change: PFADD, DEL and PING are
idempotent, and a PFCOUNT sent last counts the same registers either
way. A pipeline with a PFCOUNT before its last command (a scan's) is
never replayed, because the server may have applied later PFADDs before
the drop; it raises instead.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .oracle import CardinalityOracle

__all__ = [
    "SimpleString",
    "ErrorReply",
    "BulkString",
    "RespArray",
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


class ProtocolError(Exception):
    """Malformed RESP framing."""


class ServerError(Exception):
    """An error reply received where a normal reply was required."""


@dataclass(frozen=True)
class SimpleString:
    value: str


@dataclass(frozen=True)
class ErrorReply:
    message: str


@dataclass(frozen=True)
class BulkString:
    value: bytes | None


@dataclass(frozen=True)
class RespArray:
    items: tuple | None


# Integers travel as plain Python ints.
RespValue = SimpleString | ErrorReply | BulkString | RespArray | int


def resp_encode(command: Sequence[bytes]) -> bytes:
    """Encode a command as a RESP array of bulk strings."""
    if not command:
        raise ValueError("command must be non-empty")
    out = [b"*%d\r\n" % len(command)]
    for part in command:
        out.append(b"$%d\r\n%s\r\n" % (len(part), part))
    return b"".join(out)


def encode_value(value: RespValue) -> bytes:
    """Encode any RESP value (server side / round-trip testing)."""
    if isinstance(value, bool):
        raise TypeError("RESP has no boolean type")
    if isinstance(value, int):
        return b":%d\r\n" % value
    if isinstance(value, SimpleString):
        return b"+%s\r\n" % value.value.encode("utf-8")
    if isinstance(value, ErrorReply):
        return b"-%s\r\n" % value.message.encode("utf-8")
    if isinstance(value, BulkString):
        if value.value is None:
            return b"$-1\r\n"
        return b"$%d\r\n%s\r\n" % (len(value.value), value.value)
    if isinstance(value, RespArray):
        if value.items is None:
            return b"*-1\r\n"
        return b"*%d\r\n" % len(value.items) + b"".join(
            encode_value(item) for item in value.items
        )
    raise TypeError(f"not a RESP value: {value!r}")


class RespStream:
    """Buffered reader of RESP replies from a socket or file-like source.

    Reads by offset into one ``bytearray``; consumed bytes are dropped
    only when the buffer is refilled, so a burst of pipelined replies is
    decoded without copying the rest of the buffer after each one.
    """

    def __init__(self, source) -> None:
        self._source = source
        self._buffer = bytearray()
        self._pos = 0

    def _fill(self) -> None:
        if isinstance(self._source, socket.socket):
            chunk = self._source.recv(65536)
        else:
            chunk = self._source.read(65536)
        if not chunk:
            raise ProtocolError("unexpected end of stream")
        del self._buffer[: self._pos]
        self._pos = 0
        self._buffer += chunk

    def _read_line(self) -> bytes:
        while True:
            end = self._buffer.find(b"\r\n", self._pos)
            if end >= 0:
                line = bytes(self._buffer[self._pos : end])
                self._pos = end + 2
                return line
            self._fill()

    def _read_exact(self, n: int) -> bytes:
        while len(self._buffer) - self._pos < n:
            self._fill()
        data = bytes(self._buffer[self._pos : self._pos + n])
        self._pos += n
        return data

    def read_value(self) -> RespValue:
        """Consume exactly one reply, leaving the stream at the next one."""
        line = self._read_line()
        if not line:
            raise ProtocolError("empty reply line")
        kind, rest = line[:1], line[1:]
        if kind == b"+":
            return SimpleString(rest.decode("utf-8"))
        if kind == b"-":
            return ErrorReply(rest.decode("utf-8"))
        if kind == b":":
            try:
                return int(rest)
            except ValueError as exc:
                raise ProtocolError(f"bad integer reply {line!r}") from exc
        if kind == b"$":
            try:
                length = int(rest)
            except ValueError as exc:
                raise ProtocolError(f"bad bulk length {line!r}") from exc
            if length == -1:
                return BulkString(None)
            if length < 0:
                raise ProtocolError(f"bad bulk length {length}")
            data = self._read_exact(length)
            if self._read_exact(2) != b"\r\n":
                raise ProtocolError("bulk string missing CRLF terminator")
            return BulkString(data)
        if kind == b"*":
            try:
                count = int(rest)
            except ValueError as exc:
                raise ProtocolError(f"bad array length {line!r}") from exc
            if count == -1:
                return RespArray(None)
            if count < 0:
                raise ProtocolError(f"bad array length {count}")
            return RespArray(tuple(self.read_value() for _ in range(count)))
        raise ProtocolError(f"unknown reply type {line!r}")


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
    """CardinalityOracle speaking RESP to one key on one server."""

    def __init__(
        self,
        endpoint: str | RedisEndpoint,
        batch: bool = False,
        timeout: float = 5.0,
        max_pipeline: int = 1024,
    ) -> None:
        if isinstance(endpoint, str):
            endpoint = parse_endpoint(endpoint)
        if max_pipeline < 1:
            raise ValueError("max_pipeline must be positive")
        self.endpoint = endpoint
        self.batch = batch
        self.timeout = timeout
        self.max_pipeline = max_pipeline
        self._sock: socket.socket | None = None
        self._stream: RespStream | None = None
        self._pending: list[bytes] = []  # queued PFADD elements (batch mode)

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
                self._sock = None
                self._stream = None

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
        payload = b"".join(resp_encode(command) for command in commands)
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._connect()
                assert self._sock is not None and self._stream is not None
                self._sock.sendall(payload)
                return [self._stream.read_value() for _ in commands]
            except (ConnectionError, TimeoutError, ProtocolError, OSError):
                self.close()
                if attempt == 1 or any(command[0] == b"PFCOUNT" for command in commands[:-1]):
                    raise
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
        return reply == SimpleString("PONG")

    def reset(self) -> None:
        self._pending.clear()
        reply = self._exchange([[b"DEL", self.endpoint.key.encode("utf-8")]])[0]
        self._expect_int(reply, "DEL")

    @staticmethod
    def _element(element: bytes) -> bytes:
        if type(element) is not bytes:
            raise TypeError(f"expected bytes, got {type(element).__name__}")
        if not element:
            raise ValueError("element must be non-empty")
        return element

    def insert(self, element: bytes) -> None:
        element = self._element(element)
        if self.batch:
            self._pending.append(element)
            if len(self._pending) >= 2 * self.max_pipeline:
                self._flush_pending(keep=self.max_pipeline)
            return
        key = self.endpoint.key.encode("utf-8")
        reply = self._exchange([[b"PFADD", key, element]])[0]
        self._expect_int(reply, "PFADD")

    def _flush_pending(self, keep: int = 0) -> None:
        # Bounded pipelines: an unbounded command burst can deadlock on
        # socket buffers once the reply stream backs up.
        key = self.endpoint.key.encode("utf-8")
        while len(self._pending) > keep:
            chunk, self._pending = (
                self._pending[: self.max_pipeline],
                self._pending[self.max_pipeline :],
            )
            replies = self._exchange([[b"PFADD", key, element] for element in chunk])
            for reply in replies:
                self._expect_int(reply, "PFADD")

    def estimate(self) -> int:
        self._flush_pending(keep=self.max_pipeline - 1)
        key = self.endpoint.key.encode("utf-8")
        commands: list[Sequence[bytes]] = [
            [b"PFADD", key, element] for element in self._pending
        ]
        commands.append([b"PFCOUNT", key])
        replies = self._exchange(commands)
        self._pending.clear()
        for reply in replies[:-1]:
            self._expect_int(reply, "PFADD")
        return self._expect_int(replies[-1], "PFCOUNT")

    def scan(self, elements: Iterable[bytes], kept: list[bytes]) -> tuple[int, int]:
        """Pipelined scan: ``PFADD e`` / ``PFCOUNT`` pairs, ``max_pipeline`` commands a round trip.

        Batch mode only; otherwise the reference loop (one round trip per
        command). The first count also flushes any queued preload. A
        pipeline needs room for one pair, so ``max_pipeline`` 1 also
        takes the reference loop.
        """
        if not self.batch or self.max_pipeline < 2:
            return super().scan(elements, kept)
        last = self.estimate()
        key = self.endpoint.key.encode("utf-8")
        count = [b"PFCOUNT", key]
        expect_int = self._expect_int
        append = kept.append
        insertions = 0
        elements = iter(elements)
        while chunk := [self._element(e) for e in islice(elements, self.max_pipeline // 2)]:
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
