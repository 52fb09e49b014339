"""Test-support helpers shipped with the library.

:mod:`repro.testing.faults` is the backend-agnostic fault-injection
harness: module-level misbehaving task bodies plus a session factory that
builds any executor backend with the supervision knobs set, so one fault
matrix can run unchanged against serial, threaded, process and network
drains (DESIGN.md §"Failure semantics").
"""
