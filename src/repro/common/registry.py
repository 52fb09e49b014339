"""String-keyed component registries (executors, schedulers, ATM policies).

The public Session API (:mod:`repro.session`) selects execution backends,
ready-queue schedulers and ATM policies by *name* (``executor="process"``,
``policy="dynamic"``).  The name -> factory mappings live here, at the bottom
of the layering, so that

* configuration objects (:mod:`repro.common.config`) can validate names
  without importing the runtime or ATM layers, and
* new backends (e.g. the planned network-transport executor, DESIGN.md §4.3)
  can be plugged in by calling ``register(...)`` — no call site changes.

Each :class:`Registry` is born knowing its *builtin* names so that config
validation works even before the module providing the factories has been
imported; the factories themselves are installed when
:mod:`repro.runtime.executor`, :mod:`repro.runtime.scheduler` and
:mod:`repro.atm.policy` are imported (``Registry.factory`` imports the
providing module on demand, so lookups never race the import order).
"""

from __future__ import annotations

import importlib
import threading
from typing import Callable, Iterable, Optional

from repro.common.exceptions import ConfigurationError

__all__ = [
    "Registry",
    "EXECUTORS",
    "SCHEDULERS",
    "POLICIES",
]


class Registry:
    """A named, thread-safe ``name -> factory`` mapping with builtin seeding."""

    def __init__(
        self,
        kind: str,
        builtins: Iterable[str] = (),
        provider_module: Optional[str] = None,
    ) -> None:
        self.kind = kind
        #: Module whose import installs the builtin factories.
        self._provider_module = provider_module
        self._builtin_names = tuple(builtins)
        self._factories: dict[str, Callable] = {}
        self._names: set[str] = set(builtins)
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------------
    def register(self, name: str, factory: Callable, *, replace: bool = False) -> None:
        """Install ``factory`` under ``name`` (the extension hook).

        Builtin names may only be replaced with ``replace=True``; this keeps a
        plugin from silently shadowing e.g. the ``"process"`` backend.
        """
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{self.kind} name must be a non-empty string")
        with self._lock:
            if not replace and name in self._names:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass replace=True to override it"
                )
            self._factories[name] = factory
            self._names.add(name)

    def unregister(self, name: str) -> None:
        """Remove a plugin registration (builtins cannot be removed)."""
        if name in self._builtin_names:
            raise ConfigurationError(f"cannot unregister builtin {self.kind} {name!r}")
        with self._lock:
            self._factories.pop(name, None)
            self._names.discard(name)

    # -- lookup ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._names

    def names(self) -> tuple[str, ...]:
        """All registered names, builtins first, plugins alphabetically."""
        plugins = sorted(self._names - set(self._builtin_names))
        return self._builtin_names + tuple(plugins)

    def factory(self, name: str) -> Callable:
        """Resolve ``name`` to its factory, importing the provider if needed."""
        factory = self._factories.get(name)
        if factory is None and self._provider_module is not None:
            importlib.import_module(self._provider_module)
            factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
            )
        return factory

    def validate_name(self, name: str, field: str) -> None:
        """Raise :class:`ConfigurationError` naming ``field`` on a bad name."""
        if name not in self._names:
            raise ConfigurationError(
                f"{field}: unknown {self.kind} {name!r}; "
                f"known: {', '.join(self.names())}"
            )


#: Execution backends (DESIGN.md §4); factories take (config, sim_config) —
#: an executor holds no engine, each task names its owner's.
EXECUTORS = Registry(
    "executor",
    builtins=("serial", "threaded", "process", "simulated", "network"),
    provider_module="repro.runtime.executor",
)

#: Ready-queue policies; factories take (config,).
SCHEDULERS = Registry(
    "scheduler",
    builtins=("fifo",),
    provider_module="repro.runtime.scheduler",
)

#: ATM operating policies; factories take (config) — not (config, p) as
#: before PR 19: ``make_policy`` refuses that with a ``ConfigurationError``.
POLICIES = Registry(
    "policy",
    builtins=("none", "static", "dynamic", "fixed_p"),
    provider_module="repro.atm.policy",
)
