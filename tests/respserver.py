"""In-process Redis-subset server for exercising the RESP client.

Speaks just the commands the oracle uses (PING, PFADD, PFCOUNT, DEL)
plus SET so wrong-type replies can be provoked. HLL keys are backed by
the library's own sketch, which makes a full attack-over-TCP run
checkable end to end. Each connection's reads go into the one block of
its ``RespStream``, and, as Redis does, the server answers all the
commands of one read with one write, just before it reads again or
closes. ``commands_seen`` maps each dispatched command name to its
count, so the server's memory does not grow with its traffic.
``drop_after`` closes the connection once after exactly the N-th reply,
sending the replies before it, to exercise the client's reconnect path.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from contextlib import contextmanager, suppress

from hllrt.remote import ErrorReply, ProtocolError, RespStream, encode_value
from hllrt.sketch import HllParams, HllSketch

WRONGTYPE = "WRONGTYPE Operation against a key holding the wrong kind of value"


class _Handler(socketserver.BaseRequestHandler):
    """One client connection, answered a read at a time.

    Replies are held back while ``RespStream`` can decode the next
    command from bytes already read. It calls ``readinto`` only when it
    cannot, and ``readinto`` writes the held replies first, as every way
    out of ``handle`` does.
    """

    def setup(self):
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._held: list[bytes] = []

    def readinto(self, buffer) -> int:
        self._flush()
        return self.request.recv_into(buffer)

    def _flush(self) -> None:
        if self._held:
            replies = b"".join(self._held)
            self._held.clear()
            self.request.sendall(replies)

    def handle(self):
        stream = RespStream(self)
        with suppress(ProtocolError, OSError):
            while True:
                self._held.append(encode_value(self.server.dispatch(stream.read_value())))
                if self.server.should_drop():
                    break  # simulate a dying connection
        with suppress(OSError):
            self._flush()


class MiniRedisServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, register_count=16384, register_width=6, drop_after=None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.params = HllParams(register_count, register_width)
        self.keys: dict[bytes, object] = {}
        self.lock = threading.Lock()
        self.commands_seen: dict[bytes, int] = {}
        self._drop_after = drop_after
        self._replies = 0

    @property
    def port(self) -> int:
        return self.server_address[1]

    def url(self, key: str = "k") -> str:
        return f"redis://127.0.0.1:{self.port}/{key}"

    def should_drop(self) -> bool:
        with self.lock:
            self._replies += 1
            if self._drop_after is not None and self._replies >= self._drop_after:
                self._drop_after = None  # only once
                return True
        return False

    def dispatch(self, parts):
        if type(parts) is not list or not parts:
            return ErrorReply("ERR expected a command array")
        for part in parts:
            if type(part) is not bytes:
                return ErrorReply("ERR command arguments must be bulk strings")
        name = parts[0].upper()
        with self.lock:
            self.commands_seen[name] = self.commands_seen.get(name, 0) + 1
            if name == b"PING":
                return "PONG"
            if name == b"PFADD":
                if len(parts) < 2:
                    return ErrorReply("ERR wrong number of arguments for 'pfadd'")
                entry = self.keys.get(parts[1])
                if entry is None:
                    entry = HllSketch(self.params)
                    self.keys[parts[1]] = entry
                if not isinstance(entry, HllSketch):
                    return ErrorReply(WRONGTYPE)
                changed = 0
                for element in parts[2:]:
                    if entry.insert(element):
                        changed = 1
                return changed
            if name == b"PFCOUNT":
                if len(parts) != 2:
                    return ErrorReply("ERR wrong number of arguments for 'pfcount'")
                entry = self.keys.get(parts[1])
                if entry is None:
                    return 0
                if not isinstance(entry, HllSketch):
                    return ErrorReply(WRONGTYPE)
                return entry.estimate()
            if name == b"DEL":
                removed = 0
                for key in parts[1:]:
                    if key in self.keys:
                        del self.keys[key]
                        removed += 1
                return removed
            if name == b"SET":
                if len(parts) != 3:
                    return ErrorReply("ERR wrong number of arguments for 'set'")
                self.keys[parts[1]] = parts[2]
                return "OK"
        return ErrorReply(f"ERR unknown command '{parts[0].decode('utf-8', 'replace')}'")


@contextmanager
def running_server(**kwargs):
    server = MiniRedisServer(**kwargs)
    # A short poll lets shutdown return within 0.05 s, not serve_forever's 0.5 s.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
