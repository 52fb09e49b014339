"""Approximate Task Memoization (ATM) — the paper's core contribution.

Subcomponents (Section III of the paper):

* :mod:`repro.atm.keygen` — hash-key generation from (sampled, type-aware)
  task input bytes;
* :mod:`repro.atm.tht` — the Task History Table;
* :mod:`repro.atm.ikt` — the In-flight Key Table;
* :mod:`repro.atm.adaptive` — the Dynamic-ATM training algorithm;
* :mod:`repro.atm.policy` — Static / Dynamic / fixed-p / Oracle policies;
* :mod:`repro.atm.engine` — the memoization engine wired into the runtime;
* :mod:`repro.atm.stats` — reuse, memory-overhead and provenance statistics.
"""
