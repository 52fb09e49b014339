#!/usr/bin/env python
"""Serving-gateway daemon: the multi-tenant front door (DESIGN.md §8).

Binds a :class:`repro.serving.Gateway` and serves until SIGTERM/SIGINT,
then shuts down gracefully: new submissions are refused, admitted work gets
``serving.shutdown_grace_s`` seconds to finish, shared-tier ATM deltas are
flushed, and the pool is closed.

Usage::

    python scripts/gateway.py --config gateway.toml
    python scripts/gateway.py --executor threaded --cores 4 --port 0 --announce

Configuration precedence: ``--config`` file, then ``REPRO_*`` environment
variables, then the explicit flags below.  Task functions are pickled by
reference, so the modules defining them must be importable on this daemon's
PYTHONPATH (same rule as ``scripts/net_worker.py``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.common.config import ReproConfig  # noqa: E402
from repro.runtime.net_server import run_daemon  # noqa: E402
from repro.serving import Gateway  # noqa: E402


def build_config(args: argparse.Namespace) -> ReproConfig:
    cfg = ReproConfig.from_file(args.config) if args.config else ReproConfig()
    cfg = ReproConfig.from_env(base=cfg)
    runtime: dict = {}
    serving: dict = {}
    atm: dict = {}
    if args.executor:
        runtime["executor"] = args.executor
    if args.cores is not None:
        runtime["num_threads"] = args.cores
    if args.host:
        serving["host"] = args.host
    if args.port is not None:
        serving["port"] = args.port
    if args.shared_tht:
        serving["shared_tht"] = True
    if args.atm:
        atm["mode"] = args.atm
    return cfg.with_overrides(runtime=runtime, serving=serving, atm=atm)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="TOML/JSON ReproConfig file")
    parser.add_argument("--host", default=None, help="bind address")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (0 = ephemeral)")
    parser.add_argument("--executor", default=None,
                        help="pool backend (serial/threaded/process/network)")
    parser.add_argument("--cores", type=int, default=None,
                        help="pool worker count")
    parser.add_argument("--atm", default=None,
                        help="default tenant ATM mode (none/static/dynamic/fixed_p)")
    parser.add_argument("--shared-tht", action="store_true",
                        help="enable the opt-in shared THT tier")
    parser.add_argument("--announce", action="store_true",
                        help="print 'listening <host>:<port>' once bound")
    args = parser.parse_args(argv)

    gateway = Gateway(build_config(args))
    address = f"{gateway.serving.host}:{gateway.start()}"
    return run_daemon(address, gateway.stop, args.announce)


if __name__ == "__main__":
    raise SystemExit(main())
