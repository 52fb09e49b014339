"""The repository benchmark: seven seeded workloads, end-to-end metrics with
bounds, and an outside-in per-layer ledger (see ``bench/README.md``).

Run ``python -m bench`` from the repository root.  The package drives the
runtime only through its public ``repro.session`` / ``repro.serving`` APIs and
lives entirely under ``bench/``; ``BENCHMARK.json`` at the root declares it.
"""
