"""The configuration surface: four sections and the tree that holds them.

Everything a run can set lives here, so experiments are described
declaratively.  The sections carry the paper's Section III / IV parameters —
THT geometry (``2^N`` buckets of ``M`` entries), IKT on/off, the sampling
fraction ``p``, the training schedule's ``tau_max`` / ``L_training``,
type-aware selection, the hash function — plus the backend, supervision,
serving and simulated-machine settings; what the paper fixes (``p0 = 2^-15``,
unstable-output tracking) is not a field.

A :class:`ReproConfig` aggregates the sections into one tree that round-trips
losslessly through three exchange formats:

* **dict**  — ``ReproConfig.from_dict(cfg.to_dict()) == cfg``;
* **file**  — TOML (read via :mod:`tomllib`) and JSON, dispatched on the
  file suffix: ``ReproConfig.from_file("run.toml")`` /
  ``cfg.to_file("run.json")``;
* **env**   — flat ``REPRO_<SECTION>_<FIELD>`` variables:
  ``ReproConfig.from_env(cfg.to_env()) == cfg``, and
  ``ReproConfig.from_env()`` reads ``os.environ`` so deployments can
  override any knob without touching code.

Unknown sections or fields raise
:class:`~repro.common.exceptions.ConfigurationError` naming the offending
field; value errors surface from the sections' own ``validate``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tomllib
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.common.exceptions import ConfigurationError, THTStoreError
from repro.common.registry import EXECUTORS, POLICIES

__all__ = [
    "ATMConfig",
    "RuntimeConfig",
    "ServingConfig",
    "SimulationConfig",
    "ReproConfig",
    "ENV_PREFIX",
    "MIN_P",
    "P_LADDER",
]

#: Smallest sampling fraction explored by Dynamic ATM: 2^-15 (paper III-D).
MIN_P: float = 2.0 ** -15

#: The 16-step ladder of sampling fractions 2^-15, 2^-14, ..., 2^-1, 1.0.
P_LADDER: tuple[float, ...] = tuple(2.0 ** exp for exp in range(-15, 1))

#: Default prefix of the flat environment-variable encoding.
ENV_PREFIX = "REPRO_"


class _Section:
    """What every config section does: validate on construction and copy."""

    def __post_init__(self) -> None:
        self.validate()

    def with_overrides(self, **kwargs):
        """Return a copy with the given fields replaced (validated)."""
        return dataclasses.replace(self, **kwargs)


@dataclass
class ATMConfig(_Section):
    """Configuration of the ATM engine (Sections III-A to III-D).

    Attributes
    ----------
    mode:
        Operating policy name resolved through the policy registry
        (:data:`repro.common.registry.POLICIES`): ``"none"`` (no engine is
        installed), ``"static"``, ``"dynamic"``, ``"fixed_p"`` or any name a
        plugin registered.  The Session API builds the policy and the engine
        from this field; the engine itself never reads it.
    tht_bucket_bits:
        ``N``: the THT has ``2^N`` buckets.  The paper uses ``N = 8``.
    tht_bucket_capacity:
        ``M``: entries per bucket, FIFO-evicted.  The paper uses ``M = 16``
        for most benchmarks and ``M = 128`` for Kmeans (and for all reported
        experiments).
    use_ikt:
        Whether the In-flight Key Table is enabled.
    p:
        Input-byte sampling fraction used by Static ATM / fixed-p policies.
    tau_max:
        Per-task Chebyshev error threshold for Dynamic ATM training.
    l_training:
        Number of correctly approximated tasks required before Dynamic ATM
        freezes ``p`` and enters the steady-state phase.
    type_aware:
        Enable MSB-first type-aware input selection (Section III-C).
    hash_function:
        Which whole-buffer hash to use: ``"numpy"`` (vectorised, default),
        ``"lookup3"`` (exact Jenkins lookup3) or ``"one_at_a_time"``.
    hash_seed:
        Seed mixed into every hash key.
    shuffle_seed:
        Seed of the per-task-type index shuffle (stored once per task type).
    key_cache_budget_bytes:
        LRU budget shared by all entries of the region-version keyed caches
        (whole keys and per-input digests).  The caches rely on every
        write going through a declared ``out``/``inout`` access or
        :meth:`DataRegion.copy_from`, which is the dependence-system
        contract.
    shuffle_cache_entries:
        LRU bound on the number of stored shuffle records (one per
        ``(task type, total input bytes)``), fixing the unbounded growth the
        seed implementation exhibited for apps with many distinct sizes.
    tht_store:
        Persistent THT tier (DESIGN.md §9), ``None`` (default) for the
        classic session-lifetime table.  ``"file://<path>"`` warm-starts the
        THT from a snapshot file on Session open and flushes the run's delta
        back on ``finish()``; ``"tcp://<host>:<port>"`` attaches to the
        shared THT tier of a running gateway (``scripts/gateway.py
        --shared-tht``) so concurrent sessions and gateways share one warm
        tier.  A corrupt or unreachable
        store degrades to a cold start — it never fails the run.
    """

    mode: str = "none"
    tht_bucket_bits: int = 8
    tht_bucket_capacity: int = 128
    use_ikt: bool = True
    p: float = 1.0
    tau_max: float = 0.01
    l_training: int = 15
    type_aware: bool = True
    hash_function: str = "numpy"
    hash_seed: int = 0x5EED
    shuffle_seed: int = 0xC0FFEE
    key_cache_budget_bytes: int = 32 << 20
    shuffle_cache_entries: int = 256
    tht_store: Optional[str] = None

    def validate(self) -> None:
        POLICIES.validate_name(self.mode, field="mode")
        if self.tht_bucket_bits < 0 or self.tht_bucket_bits > 24:
            raise ConfigurationError(
                f"tht_bucket_bits must be in [0, 24], got {self.tht_bucket_bits}"
            )
        if self.tht_bucket_capacity < 1:
            raise ConfigurationError(
                f"tht_bucket_capacity must be >= 1, got {self.tht_bucket_capacity}"
            )
        if not (0.0 < self.p <= 1.0):
            raise ConfigurationError(f"p must be in (0, 1], got {self.p}")
        if self.tau_max < 0.0:
            raise ConfigurationError(f"tau_max must be >= 0, got {self.tau_max}")
        if self.l_training < 1:
            raise ConfigurationError(
                f"l_training must be >= 1, got {self.l_training}"
            )
        if self.hash_function not in ("numpy", "lookup3", "one_at_a_time"):
            raise ConfigurationError(
                f"unknown hash_function {self.hash_function!r}"
            )
        if self.key_cache_budget_bytes < 0:
            raise ConfigurationError("key_cache_budget_bytes must be >= 0")
        if self.shuffle_cache_entries < 1:
            raise ConfigurationError("shuffle_cache_entries must be >= 1")
        if self.tht_store is not None:
            # Deferred: repro.atm.store imports this module.
            from repro.atm.store import parse_store_url

            try:
                parse_store_url(self.tht_store)
            except THTStoreError as exc:
                raise ConfigurationError(str(exc)) from exc

    @property
    def n_buckets(self) -> int:
        return 1 << self.tht_bucket_bits


@dataclass
class RuntimeConfig(_Section):
    """Configuration of the task runtime itself.

    Attributes
    ----------
    num_threads:
        Worker threads / worker processes / loopback network workers /
        simulated cores: one worker count for every backend.
    executor:
        Execution backend selected by :func:`repro.runtime.executor.build_executor`:
        ``"serial"``, ``"threaded"``, ``"process"``, ``"network"`` or
        ``"simulated"`` (DESIGN.md §4), or a name registered on
        ``EXECUTORS``.
    enable_tracing:
        Record per-core state intervals and ready-queue depth samples.
    mp_chunk_size:
        Maximum ready tasks batched into one chunk of a worker pool — the
        threaded, process and network backends (amortises per-chunk hops
        and framing on wide graphs; narrow/wavefront graphs still dispatch
        singles, see DESIGN.md §4.3).  Workers × chunk size is a remote
        pool's in-flight window (the threaded pool's is one engine task per
        thread, shipped alone); under ``task_timeout_s`` a chunk is one task.
    net_endpoints:
        Worker endpoints for the ``"network"`` backend (DESIGN.md §4.5).
        Either ``"loopback"`` / ``"loopback:<n>"`` — spawn ``n`` in-process
        loopback workers (default: ``num_threads``) speaking the real wire
        protocol over socketpairs —
        or a comma-separated list of ``host:port`` addresses of
        ``scripts/net_worker.py`` daemons.
    net_timeout_s:
        Silence timeout of the network backend: an endpoint that owes an
        answer (an ack or a result) and stays silent this long is declared
        dead and its chunks are resubmitted elsewhere.  Under
        ``task_timeout_s`` a chunk the worker acked is that rule's instead;
        without it, this must exceed the worst-case wall-clock of one
        dispatched chunk.
    net_max_retries:
        How many times one task may be resubmitted after endpoint failures
        before the drain raises
        :class:`~repro.common.exceptions.NetworkDrainError`.
    net_residency:
        Must stay ``True``: per-endpoint data residency (DESIGN.md §4.5) is
        the network backend's one data plane, and
        :class:`~repro.runtime.net_executor.NetworkExecutor` refuses
        ``False`` with a :class:`~repro.common.exceptions.ConfigurationError`.
        Workers keep generation-tagged caches of shipped buffer spans, the
        parent tracks them in a :class:`repro.runtime.residency.
        ResidencyTable`, and dispatch ships bytes only for *stale* spans.
    task_timeout_s:
        Per-task wall-clock budget enforced by the supervision layer
        (DESIGN.md §7).  ``None`` (default) disables per-task timeouts.  The
        process and network backends enforce it preemptively, by one rule:
        chunks degrade to one task, and a task still running this long (plus
        a fixed grace) after its worker acknowledged it is failed with
        ``TaskTimeoutError`` at once — not retried, not re-run elsewhere —
        while its worker is killed / its endpoint excluded.  The in-process
        backends (serial/threaded) cannot preempt a running Python frame and
        detect the overrun when the task returns.
    task_max_retries:
        How many times a failed task (body raised, timed out, or its worker
        died) is re-run before it is declared failed.  ``0`` (default) fails
        on the first error, preserving pre-supervision behaviour.
    retry_backoff_s:
        Base of the exponential back-off between task retries: attempt *k*
        sleeps ``retry_backoff_s * 2**(k-1)`` seconds before re-running.
    drain_timeout_s:
        Safety deadline for a single drain (seconds).  Replaces the
        per-executor hardcoded ``DRAIN_TIMEOUT`` class constants; on expiry
        the drain dumps all thread stacks (``faulthandler``) and raises
        :class:`~repro.common.exceptions.DrainAbortedError` instead of
        hanging.
    on_task_failure:
        What a drain does when a task exhausts its retry budget:
        ``"abort"`` (default) raises
        :class:`~repro.common.exceptions.DrainAbortedError` carrying every
        recorded failure; ``"quarantine"`` marks the task ``FAILED``, cancels
        its dependent subgraph (``CANCELLED``) and keeps draining the
        independent tasks — the failures are reported in
        ``RunResult.failures``.
    """

    num_threads: int = 8
    executor: str = "serial"
    enable_tracing: bool = False
    mp_chunk_size: int = 8
    net_endpoints: str = "loopback"
    net_timeout_s: float = 30.0
    net_max_retries: int = 2
    net_residency: bool = True
    task_timeout_s: Optional[float] = None
    task_max_retries: int = 0
    retry_backoff_s: float = 0.05
    drain_timeout_s: float = 300.0
    on_task_failure: str = "abort"

    def validate(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be >= 1, got {self.num_threads}"
            )
        EXECUTORS.validate_name(self.executor, field="executor")
        if self.mp_chunk_size < 1:
            raise ConfigurationError("mp_chunk_size must be >= 1")
        if not self.net_endpoints or not self.net_endpoints.strip():
            raise ConfigurationError(
                "net_endpoints must name at least one endpoint "
                "('loopback', 'loopback:<n>' or 'host:port,...')"
            )
        if self.net_timeout_s <= 0:
            raise ConfigurationError(
                f"net_timeout_s must be > 0, got {self.net_timeout_s}"
            )
        if self.net_max_retries < 0:
            raise ConfigurationError(
                f"net_max_retries must be >= 0, got {self.net_max_retries}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be > 0 or None, got {self.task_timeout_s}"
            )
        if self.task_max_retries < 0:
            raise ConfigurationError(
                f"task_max_retries must be >= 0, got {self.task_max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        if self.on_task_failure not in ("abort", "quarantine"):
            raise ConfigurationError(
                f"on_task_failure must be 'abort' or 'quarantine', "
                f"got {self.on_task_failure!r}"
            )


@dataclass
class ServingConfig(_Section):
    """Configuration of the multi-tenant serving gateway (DESIGN.md §8).

    Attributes
    ----------
    host / port:
        TCP listen address of the gateway daemon.  ``port = 0`` binds an
        ephemeral port (the daemon prints the bound address), which is what
        the tests and ``make serve-smoke`` use.
    max_pending:
        Bounded global pending pool: at most this many admitted tasks may be
        in flight (submitted to the shared executor but not yet terminal)
        across all tenants — the Puppetmaster-style cap that keeps the
        shared scheduler's working set constant no matter how many clients
        connect.  Over-budget work waits in per-tenant queues.
    max_tenant_queue:
        Per-tenant backlog cap.  A single batch larger than this can never
        be admitted and is rejected with
        :class:`~repro.common.exceptions.AdmissionError`; otherwise a full
        queue exerts backpressure by blocking the tenant's connection.
    quantum:
        Deficit-round-robin quantum: credits (task admissions) granted per
        scheduling round to a weight-1.0 tenant.  A tenant's per-round
        credit is ``quantum * weight`` (weight 1.0 unless the tenant's
        ``hello`` requests one); unused credit carries over while the
        tenant has queued work, so bursty tenants are not penalised.
    shared_tht:
        Default for the opt-in shared THT tier: when on, a tenant-engine
        miss probes the gateway-wide shared table before executing, and the
        merge pump publishes tenant deltas into it (at least every
        ``repro.serving.gateway.MERGE_INTERVAL_S``).  Tenants can override
        per-connection in ``hello``.
    shutdown_grace_s:
        On SIGTERM/SIGINT the gateway stops admitting, waits up to this many
        seconds for in-flight tasks to finish, flushes ATM deltas and
        answers outstanding barriers before closing sockets.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 256
    max_tenant_queue: int = 4096
    quantum: int = 32
    shared_tht: bool = False
    shutdown_grace_s: float = 5.0

    def validate(self) -> None:
        if not self.host or not self.host.strip():
            raise ConfigurationError("host must be a non-empty address")
        if not (0 <= self.port <= 65535):
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_tenant_queue < 1:
            raise ConfigurationError(
                f"max_tenant_queue must be >= 1, got {self.max_tenant_queue}"
            )
        if self.quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {self.quantum}")
        if self.shutdown_grace_s < 0:
            raise ConfigurationError(
                f"shutdown_grace_s must be >= 0, got {self.shutdown_grace_s}"
            )


@dataclass
class SimulationConfig(_Section):
    """Cost model of the discrete-event simulated multicore.

    The simulator replaces the paper's real Sandy Bridge testbed (see
    DESIGN.md Section 4).  Costs are expressed in microseconds of simulated
    time; throughput figures are bytes per microsecond.

    Attributes
    ----------
    copy_bandwidth:
        Bytes/us for THT output copies.  The paper measures the SIMD copies to
        be ~10.3-10.8x faster than executing the task, which emerges from this
        bandwidth combined with the per-application task cost models.
    hash_bandwidth:
        Bytes/us processed by the hash-key generator.
    task_overhead:
        Fixed per-task runtime bookkeeping cost (scheduling, dependence
        release).
    tht_lookup_overhead:
        Fixed cost of one THT probe (lock + compare).
    ikt_lookup_overhead:
        Fixed cost of one IKT probe.
    creation_throughput:
        Tasks/us that the master thread can create; models the creation
        bottleneck seen in Blackscholes/Kmeans (Section V-C, Figure 8).
    memory_contention_factor:
        Extra latency factor applied to memory-bound ATM activities when
        several cores perform them concurrently: effective cost is multiplied
        by ``1 + factor * (concurrent_memory_ops - 1)``.  Models the 60 %
        slowdown of hash/copy states observed between 2 and 8 cores (Figure
        7).
    """

    copy_bandwidth: float = 2000.0
    hash_bandwidth: float = 400.0
    task_overhead: float = 0.2
    tht_lookup_overhead: float = 0.1
    ikt_lookup_overhead: float = 0.02
    creation_throughput: float = 8.0
    memory_contention_factor: float = 0.09

    def validate(self) -> None:
        for name in (
            "copy_bandwidth",
            "hash_bandwidth",
            "creation_throughput",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0")
        for name in (
            "task_overhead",
            "tht_lookup_overhead",
            "ikt_lookup_overhead",
            "memory_contention_factor",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass
class ReproConfig:
    """One declarative description of a whole run (see module docstring)."""

    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    atm: ATMConfig = field(default_factory=ATMConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)

    # -- dict ----------------------------------------------------------------------
    def to_dict(self) -> dict[str, dict[str, Any]]:
        """Nested plain-dict form (sections of scalar fields)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReproConfig":
        """Build from a (possibly partial) nested dict; unknown keys raise."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"config root must be a mapping, got {type(data).__name__}"
            )
        return cls(**{s: _build_section(s, values) for s, values in data.items()})

    # -- file ----------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: "str | Path") -> "ReproConfig":
        """Load a TOML or JSON config file (dispatched on the suffix)."""
        path = Path(path)
        kind = _file_format(path)
        loads = tomllib.loads if kind == ".toml" else json.loads
        try:
            data = loads(path.read_text())
        except ValueError as exc:  # TOMLDecodeError and JSONDecodeError both
            raise ConfigurationError(
                f"{path}: invalid {kind[1:].upper()}: {exc}"
            ) from exc
        return cls.from_dict(data)

    def to_file(self, path: "str | Path") -> Path:
        """Write the config as TOML or JSON (dispatched on the suffix).

        ``None`` fields are omitted from TOML (it has no null); loading the
        file back restores them to their defaults, which — because only
        Optional-typed fields can hold ``None`` and their defaults are
        ``None`` — round-trips exactly.
        """
        path = Path(path)
        data = self.to_dict()
        if _file_format(path) == ".toml":
            lines: list[str] = []
            for section, values in data.items():
                lines.append(f"[{section}]")
                lines.extend(
                    f"{name} = {_toml_scalar(value)}"
                    for name, value in values.items()
                    if value is not None
                )
                lines.append("")
            path.write_text("\n".join(lines))
        else:
            path.write_text(json.dumps(data, indent=2) + "\n")
        return path

    # -- environment ------------------------------------------------------------------
    def to_env(self, prefix: str = ENV_PREFIX) -> dict[str, str]:
        """Flat ``PREFIX_SECTION_FIELD -> str`` encoding (``None`` omitted)."""
        return {
            f"{prefix}{section}_{name}".upper(): str(value)
            for section, values in self.to_dict().items()
            for name, value in values.items()
            if value is not None
        }

    @classmethod
    def from_env(
        cls,
        env: Optional[Mapping[str, str]] = None,
        prefix: str = ENV_PREFIX,
        base: Optional["ReproConfig"] = None,
    ) -> "ReproConfig":
        """Build from flat environment variables, over ``base``'s values.

        Reads ``os.environ`` when ``env`` is not given.  Unrecognised
        ``PREFIX``-prefixed keys raise, so typos never silently no-op.
        """
        if env is None:
            env = os.environ
        merged = (base or cls()).to_dict()
        for key, raw in env.items():
            if not key.startswith(prefix):
                continue
            entry = _ENV_FIELDS.get(key[len(prefix):])
            if entry is None:
                # Section names hold no underscore, so the first one splits.
                section, _, name = key[len(prefix):].lower().partition("_")
                if section in _SECTIONS:
                    raise ConfigurationError(f"{key}: {_unknown_field(section, name)}")
                raise ConfigurationError(
                    f"{key}: unknown config section (expected "
                    f"{', '.join(prefix + s.upper() for s in _SECTIONS)}...)"
                )
            section, name, hint = entry
            merged[section][name] = _coerce_env_value(raw, hint, f"{section}.{name}")
        return cls.from_dict(merged)

    # -- convenience --------------------------------------------------------------------
    def with_overrides(self, **sections: Mapping[str, Any]) -> "ReproConfig":
        """Copy with per-section field overrides.

        >>> cfg = ReproConfig().with_overrides(runtime={"num_threads": 2})
        >>> cfg.runtime.num_threads
        2
        """
        merged = self.to_dict()
        for section, values in sections.items():
            merged.setdefault(section, {}).update(values)
        return type(self).from_dict(merged)

    @classmethod
    def coerce(
        cls, source: "ReproConfig | Mapping | str | Path | None"
    ) -> "ReproConfig":
        """Accept a config tree, nested dict, file path or ``None``."""
        if source is None:
            return cls()
        if isinstance(source, cls):
            return source
        if isinstance(source, Mapping):
            return cls.from_dict(source)
        if isinstance(source, (str, Path)):
            return cls.from_file(source)
        raise ConfigurationError(
            f"cannot build a ReproConfig from {type(source).__name__}"
        )


#: Section name -> section dataclass, read off :class:`ReproConfig` itself.
_SECTIONS: dict[str, type] = typing.get_type_hints(ReproConfig)

#: ``SECTION_FIELD`` as spelled in the environment -> (section, field, type).
_ENV_FIELDS: dict[str, tuple[str, str, Any]] = {
    f"{section}_{name}".upper(): (section, name, hint)
    for section, section_type in _SECTIONS.items()
    for name, hint in typing.get_type_hints(section_type).items()
}


def _unknown_field(section: str, name: str) -> str:
    return f"{section}.{name} is not a recognised {_SECTIONS[section].__name__} field"


def _build_section(section: str, data: Mapping[str, Any]) -> Any:
    """Instantiate one section from a mapping, naming what is unknown."""
    if section not in _SECTIONS:
        raise ConfigurationError(
            f"unknown config section {section!r}; "
            f"expected one of: {', '.join(_SECTIONS)}"
        )
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{section}: expected a mapping of fields, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(_SECTIONS[section])}
    for name in data:
        if name not in known:
            raise ConfigurationError(_unknown_field(section, name))
    try:
        return _SECTIONS[section](**data)
    except TypeError as exc:  # a value of the wrong type met a range check
        raise ConfigurationError(f"{section}: {exc}") from exc


def _file_format(path: Path) -> str:
    """The file's lower-cased suffix, when it names a supported format."""
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise ConfigurationError(
            f"{path}: unsupported config format {suffix!r} (use .toml or .json)"
        )
    return suffix


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise ConfigurationError(f"cannot serialise {value!r} to TOML")


def _coerce_env_value(raw: str, hint: Any, field_name: str) -> Any:
    """Parse one environment-variable string according to the field type."""
    optional = typing.get_origin(hint) is typing.Union  # Optional[X]
    inner = typing.get_args(hint)[0] if optional else hint
    text = raw.strip()
    if optional and text.lower() in ("", "none", "null"):
        return None
    try:
        if inner is bool:
            lowered = text.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return inner(text)  # int, float or str
    except ValueError as exc:
        raise ConfigurationError(f"{field_name}: cannot parse {raw!r}: {exc}") from exc
