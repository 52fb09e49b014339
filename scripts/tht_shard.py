#!/usr/bin/env python
"""Standalone THT cache-shard daemon (DESIGN.md §9).

Holds one :class:`repro.atm.tht.TaskHistoryTable` and serves it to any
number of sessions and gateways over the :mod:`repro.runtime.net_wire`
frame protocol: ``hello``/``hello_ack`` (protocol handshake), ``fetch``
(download the whole table as one delta), ``publish`` (merge a delta in),
``stats``.  Clients address it as ``atm.tht_store="tcp://host:port"`` —
the shard is what turns per-process memoization into a warm tier shared
across processes, machines and gateway restarts.

Usage::

    python scripts/tht_shard.py --host 127.0.0.1 --port 9201
    python scripts/tht_shard.py --port 0 --announce     # ephemeral, printed
    python scripts/tht_shard.py --backing /var/tmp/shard.tht

then point any session or gateway at it from config alone::

    REPRO_ATM_THT_STORE=tcp://127.0.0.1:9201 python my_program.py

``--backing FILE`` makes the shard itself durable: the table is warm-started
from that ``file://``-format snapshot at boot (a corrupt file cold-starts
the shard, mirroring the Session's semantics) and flushed back on graceful
shutdown and every ``--flush-every`` publishes.

SIGTERM/SIGINT trigger a graceful shutdown: the listener stops accepting,
in-flight requests get a grace period, the backing file (if any) receives a
final compacted snapshot, then the sockets close.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.atm.store import (  # noqa: E402
    FileTHTStore,
    ShardState,
    serve_shard_connection,
)
from repro.common.config import ATMConfig  # noqa: E402
from repro.runtime.net_server import FrameServer, run_daemon  # noqa: E402


def make_server(host: str, port: int, state: ShardState) -> FrameServer:
    """The shard daemon: every connection serves ``state``; a graceful
    shutdown leaves the backing file (if any) a final compacted snapshot."""
    return FrameServer(
        (host, port),
        lambda sock, _connection_id: serve_shard_connection(sock, state),
        on_shutdown=state.flush,
    )


def make_state(
    bucket_bits: int = ATMConfig.tht_bucket_bits,
    bucket_capacity: int = ATMConfig.tht_bucket_capacity,
    backing: "str | Path | None" = None,
    flush_every: int = 0,
) -> ShardState:
    """Build the shard's table state from its geometry + optional backing."""
    config = ATMConfig(
        tht_bucket_bits=bucket_bits, tht_bucket_capacity=bucket_capacity
    )
    store = FileTHTStore(backing, atm_config=config) if backing else None
    return ShardState(atm_config=config, backing=store, flush_every=flush_every)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9201,
                        help="bind port (0 = ephemeral, default 9201)")
    parser.add_argument("--announce", action="store_true",
                        help="print 'listening <host>:<port>' once bound "
                             "(for harnesses starting daemons on port 0)")
    parser.add_argument("--bucket-bits", type=int,
                        default=ATMConfig.tht_bucket_bits,
                        help="THT geometry: 2^bits buckets")
    parser.add_argument("--bucket-capacity", type=int,
                        default=ATMConfig.tht_bucket_capacity,
                        help="THT geometry: entries per bucket (FIFO evict)")
    parser.add_argument("--backing", default=None,
                        help="snapshot file to warm-start from and flush to")
    parser.add_argument("--flush-every", type=int, default=0,
                        help="flush the backing file every N publishes "
                             "(0 = only on shutdown)")
    args = parser.parse_args(argv)

    state = make_state(
        args.bucket_bits, args.bucket_capacity, args.backing, args.flush_every
    )
    server = make_server(args.host, args.port, state)
    return run_daemon(server.serve_in_thread(), server.shutdown_gracefully, args.announce)


def serve_in_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    bucket_bits: int = ATMConfig.tht_bucket_bits,
    bucket_capacity: int = ATMConfig.tht_bucket_capacity,
    backing: "str | Path | None" = None,
    flush_every: int = 0,
):
    """Start a shard in-process (tests/benchmarks); returns (server, addr).

    Call ``server.shutdown_gracefully()`` to stop it (flushes the backing).
    """
    state = make_state(bucket_bits, bucket_capacity, backing, flush_every)
    server = make_server(host, port, state)
    return server, server.serve_in_thread()


if __name__ == "__main__":
    raise SystemExit(main())
