"""Serve tests/respserver.MiniRedisServer from a process of its own.

    python3 perfbench/server.py REGISTER_COUNT REGISTER_WIDTH

The server binds an ephemeral loopback port, and a plain echo listener
(no hllrt code) binds another; the first line of standard output is a
JSON object with both ports. The echo connection is the attack's
calibration: it times bare loopback round trips between the same two
processes. Each ``stats`` line on standard input is answered with one
JSON line holding the process's CPU seconds and peak resident memory.
End of standard input stops the server, so it cannot outlive the
benchmark process that holds the other end of the pipe.
"""

from __future__ import annotations

import json
import resource
import socket
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests")]

from respserver import MiniRedisServer  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def echo(listener: socket.socket) -> None:
    """Send back every byte of one connection until it closes."""
    conn, _ = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while data := conn.recv(4096):
            conn.sendall(data)


def main() -> None:
    server = MiniRedisServer(register_count=int(sys.argv[1]), register_width=int(sys.argv[2]))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    listener = socket.create_server(("127.0.0.1", 0))
    threading.Thread(target=echo, args=(listener,), daemon=True).start()
    try:
        print(json.dumps({"port": server.port, "echo_port": listener.getsockname()[1]}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps({"cpu_s": time.process_time(), "peak_rss_mb": peak_rss_mb()}), flush=True)
    finally:
        listener.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


if __name__ == "__main__":
    main()
