#!/usr/bin/env python
"""Standalone worker daemon for the network execution backend.

Serves the wire protocol of :mod:`repro.runtime.net_wire` over TCP: every
accepted connection gets its own service thread running the *same*
:func:`repro.runtime.net_transport.serve_connection` loop the loopback
transport runs in-process.  A worker holds no ATM engine: the executor
looks tasks up and commits them, and ships only the bodies that must run.

Usage::

    python scripts/net_worker.py --host 127.0.0.1 --port 9101
    python scripts/net_worker.py --port 0 --announce   # ephemeral port, printed

then point a session at it from config alone (DESIGN.md §6)::

    REPRO_RUNTIME_EXECUTOR=network \
    REPRO_RUNTIME_NET_ENDPOINTS=127.0.0.1:9101 python my_program.py

Task functions travel *by name* (``(module, qualname)``, resolved by
:func:`repro.runtime.codec.resolve_function`): the modules defining them must
be importable application code on this daemon's PYTHONPATH — not the
interpreter's stdlib or site-packages — and the body a plain module-level
function.

SIGTERM/SIGINT trigger a graceful shutdown: the listener stops accepting,
connections in the middle of serving a chunk get a grace period to finish
(their ATM deltas are pulled by the parent's final ``sync`` before it closes
the connection), then the sockets are closed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.runtime.net_server import FrameServer, run_daemon  # noqa: E402
from repro.runtime.net_transport import serve_connection  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9101,
                        help="bind port (0 = ephemeral, default 9101)")
    parser.add_argument("--announce", action="store_true",
                        help="print 'listening <host>:<port>' once bound "
                             "(for harnesses starting daemons on port 0)")
    args = parser.parse_args(argv)
    server, address = serve_in_thread(args.host, args.port)
    return run_daemon(address, server.shutdown_gracefully, args.announce)


def serve_in_thread(host: str = "127.0.0.1", port: int = 0):
    """Start a daemon in-process (tests/benchmarks); returns (server, addr).

    Call ``server.shutdown_gracefully()`` to stop it.
    """
    server = FrameServer((host, port), serve_connection)
    return server, server.serve_in_thread()


if __name__ == "__main__":
    raise SystemExit(main())
