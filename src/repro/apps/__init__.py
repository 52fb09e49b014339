"""The six evaluated applications, written against the runtime API.

Each application follows the :class:`repro.apps.base.BenchmarkApp` interface:
it generates a deterministic workload, submits its tasks to a
:class:`~repro.session.Session` (declaring inputs/outputs exactly like
the OmpSs pragmas of the original benchmarks), exposes the final program
output for correctness measurement and describes its memoized task type and
Dynamic-ATM parameters (paper Tables I and II).
"""
