"""Reproduction of *ATM: Approximate Task Memoization in the Runtime System*.

The package is organised in five layers, mirroring the system described in the
paper (Brumar et al., IPPS 2017):

``repro.common``
    Low-level substrates shared by everything else: a pure-Python Jenkins
    hashing implementation, the error metrics used by the paper (Chebyshev
    relative error, Euclidean relative error, the LU residual), typed data
    descriptors and configuration objects.

``repro.runtime``
    A task-based dataflow runtime system in the style of OmpSs / Nanos++:
    typed data regions, task and task-type abstractions, dependence analysis,
    a task dependence graph, a FIFO ready queue, serial, threaded, process and
    network executors and a deterministic discrete-event multicore simulator
    with tracing support.

``repro.atm``
    The paper's contribution: hash-key generation with sampled and type-aware
    input selection, the Task History Table (THT), the In-flight Key Table
    (IKT), the memoization engine, the Dynamic-ATM adaptive training algorithm
    and the Static/Dynamic/Oracle policies.

``repro.apps``
    The six evaluated applications written against the runtime API:
    Blackscholes, Gauss-Seidel, Jacobi, Kmeans, sparse LU and Swaptions,
    plus the workload registry describing the paper's configurations.

``repro.evaluation``
    The experiment harness that regenerates every table and figure of the
    paper's evaluation section.

``repro.session``
    The public front door: :class:`~repro.session.Session` assembles engine,
    policy, executor and graph from one declarative
    :class:`~repro.session.ReproConfig` tree and exposes the ``@s.task``
    programming model; pluggable name registries let new backends drop in
    (DESIGN.md §6).

Three packages are front doors and re-export names: this one (``Session``,
``ReproConfig``, ``EXECUTORS``, ``POLICIES``), :mod:`repro.session` and
:mod:`repro.serving` (``Gateway``, ``GatewayClient``).  Every other name is
imported from its defining module, and a backend or policy is loaded by its
registry name when a Session asks for it, so ``import repro`` loads neither
the ATM layer nor the process, network and simulated backends (DESIGN.md §1).
"""

from repro._version import __version__
from repro.session import EXECUTORS, POLICIES, ReproConfig, Session

__all__ = [
    "__version__",
    "Session",
    "ReproConfig",
    "EXECUTORS",
    "POLICIES",
]
