"""Public Session API: one declarative entry point for a whole run.

This package is the stable front door of the reproduction — the OmpSs-style
ergonomics the paper assumes, without hand-assembling engines, policies and
executors:

>>> from repro.session import Session, ReproConfig
>>> cfg = ReproConfig.from_dict({
...     "runtime": {"executor": "simulated", "num_threads": 8},
...     "atm": {"mode": "static"},
... })
>>> with Session(cfg) as s:
...     pass  # declare tasks with @s.task(...), then s.wait_all()

Three pieces:

* :class:`Session` (:mod:`repro.session.session`) — owns assembly of engine +
  policy + executor + graph and exposes ``@s.task`` / ``submit`` /
  ``wait_all`` / ``finish``;
* :class:`ReproConfig` (:mod:`repro.common.config`) — the unified
  ``runtime``/``atm``/``simulation``/``serving`` config tree with dict /
  TOML / JSON / environment round-tripping;
* the registries (:mod:`repro.common.registry`, which gives each one's
  factory signature) — ``EXECUTORS`` / ``POLICIES``, whose ``register`` /
  ``unregister`` / ``names`` are the extension hooks: a registered name is
  at once a valid ``runtime.executor`` / ``atm.mode`` value, a valid
  ``Session(executor=..., policy=...)`` argument and a valid config-file or
  environment value.

>>> from repro.session import EXECUTORS
>>> from repro.runtime.executor import SerialExecutor
>>> EXECUTORS.register("inline", lambda config, sim_config: SerialExecutor(config=config))
>>> "inline" in EXECUTORS.names()
True
>>> EXECUTORS.unregister("inline")
"""

from repro.common.config import ENV_PREFIX, ReproConfig
from repro.common.registry import EXECUTORS, POLICIES
from repro.runtime.data import In, InOut, Out
from repro.session.session import Session

__all__ = [
    "Session",
    "ReproConfig",
    "ENV_PREFIX",
    "In",
    "Out",
    "InOut",
    "EXECUTORS",
    "POLICIES",
]
