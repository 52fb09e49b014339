PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench size figures figures-diff examples process-backend net-loopback net-soak fault-matrix determinism serve-smoke tht-store wire-fuzz soak-threaded flake-audit ci

# Tier-1 verification: the full unit + integration suite.
test:
	$(PYTHON) -m pytest tests -x -q

# The repo benchmark (BENCHMARK.json, bench/README.md): seven workloads,
# medians with spread, results under bench/out/.
bench:
	$(PYTHON) -m bench

# Size of the codebase beside the previous commit: src/scripts lines, config
# fields per section, __all__ names, modules and the repro modules that
# `import repro` loads (what simplicity PRs report).
size:
	$(PYTHON) scripts/size_report.py HEAD~1

# Regenerate every paper figure/table as text (the assertions on their shape
# are tier-1 tests: tests/evaluation/test_figures_cli.py).
figures:
	$(PYTHON) -m repro.evaluation all --scale tiny

# The figures at REF (default HEAD~1) against the working tree, on this host:
# a unified diff, exit 1 when they differ.  Not a CI tier: a change that
# re-baselines the figures on purpose differs.
REF ?= HEAD~1
figures-diff:
	$(PYTHON) scripts/figures_diff.py $(REF)

# API-facing docs can't rot: run the doctests of the public API modules and
# execute all four examples serially at smoke scales.
examples:
	$(PYTHON) -m pytest --doctest-modules src/repro/session -q
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/heat_diffusion.py
	$(PYTHON) examples/option_pricing.py tiny
	$(PYTHON) examples/adaptive_approximation.py tiny

# Process backend: workers are forked children serving the one worker loop
# (serve_connection) on a socketpair.  The shared-memory protocol and pool
# lifecycle, the host-write contract (announced stores are seen; copy-in
# trusts write-versions and compares no bytes), the data plane's property +
# counting tests (first-touch copy-in by version, per-result copy-out), what
# failed drains leave at home and out of step, the
# executor parity matrix (its process cells; the simulator and network-only
# tests of that file are left to the tiers that own them), the copy-elision
# units (the parent elides as serial does, a remote MEMOIZED completion clears
# the tag), one access per region and mode for tasks rebuilt in the worker's
# arena (over shared segments, as over the other arenas), the reply contract
# over the shared hello and the one-worker-loop checks (no multiprocessing
# queue, pipe or connection.wait under src/).
process-backend:
	$(PYTHON) -m pytest tests/runtime/test_mp_executor.py \
		tests/runtime/test_host_writes.py \
		tests/atm/test_copy_elision.py \
		tests/runtime/test_shm_property.py \
		tests/runtime/test_lifecycle_cleanup.py \
		tests/runtime/test_executor_parity.py \
		tests/runtime/test_shared_access.py \
		tests/runtime/test_net_faults.py::test_one_worker_one_reply_vocabulary_under_both_transports \
		tests/common/test_config.py::TestOneRemoteWorkerProtocol \
		-k "not network_twin and not simulator" -p no:cacheprovider -x -q

# Network backend, whose one data plane is per-endpoint residency: parity +
# fault-injection matrix over the loopback transport (the silence/wedge
# precedence, the one-report failure reason and the failover scenarios that
# drop residency included), the wire property suite and the copy fences with
# the queued frames' alias rule, the residency protocol's hypothesis
# interleaving property + unit rules for the residency table and the worker's
# one arena (cached rows, re-ships, generation-guarded drops), one access per
# region and mode for tasks rebuilt in that arena, and the copy-elision units
# (the parent elides as serial does), cache-less and fail-fast (mirrors the
# CI step).
net-loopback:
	$(PYTHON) -m pytest tests/runtime/test_executor_parity.py \
		tests/runtime/test_net_faults.py \
		tests/runtime/test_net_wire_property.py \
		tests/runtime/test_net_wire_copies.py \
		tests/runtime/test_residency_property.py \
		tests/runtime/test_shared_access.py \
		tests/atm/test_copy_elision.py -p no:cacheprovider -x -q

# The soak tier: 500-task churn with mid-drain worker loss, excluded from
# tier-1.

net-soak:
	$(PYTHON) -m pytest -m net_soak -q

# Supervision tier: the cross-backend fault-injection matrix (raising,
# flaky, wedged and worker-killing tasks against timeouts/retries/
# quarantine on every executor; excluded from tier-1 by the marker
# expression in pytest.ini because it sleeps and kills workers on purpose).
fault-matrix:
	$(PYTHON) -m pytest -m fault -q

# Reproducibility tier: jacobi and lu at `small` scale under dynamic ATM on
# two threaded, process and network workers with chunks of eight, three runs
# each: one output checksum and one count tuple per cell (tasks retire in
# dispatch order; excluded from tier-1 by the `determinism` marker, ~30 s).
determinism:
	$(PYTHON) -m pytest -m determinism -q

# Serving tier: the gateway smoke (concurrent tenants bit-identical to a
# serial Session, ATM namespace isolation, shared-THT reuse) plus the
# multi-client soak tests excluded from tier-1 by the `serving` marker.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) -m pytest -m serving -q

# Persistent THT tier: the store unit + integration suite (file format,
# corruption handling, the refusal by name of a previous schema — whose
# entries sit under another key definition —, the gateway's store verbs and
# their version check, Session warm starts, the gateway's store-backed shared
# tier) and the daemon tests (the store greeting's version check against a
# real gateway process, a file:// tier across its restart) — proves warm
# restores stay bit-identical end to end.
tht-store:
	$(PYTHON) -m pytest tests/atm/test_tht_store.py \
		tests/serving/test_gateway.py tests/runtime/test_net_server.py -x -q

# Wire fuzz: the listener fuzz of tier-1 (tests/runtime/test_wire_fuzz.py:
# generated control sections inside valid frames and raw byte strings against
# the two listeners — net_worker and the gateway, as a tenant's peer and behind
# a THT store hello — and the file:// store reader) with 400 examples per
# reader instead of a dozen, plus the codec's hostile-input guards (pickled
# frames, object dtypes, foreign task bodies).
wire-fuzz:
	WIRE_FUZZ_EXAMPLES=400 $(PYTHON) -m pytest tests/runtime/test_wire_fuzz.py \
		tests/common/test_config.py -k "fuzz or listener or store_reader or Unpickled" \
		-p no:cacheprovider -x -q

# The suites of the threaded pool and what shares its threads: the executor
# contract (the in-process transport of the chunk dispatcher: worker threads
# fed round-robin from the draining thread, the wedge rule abandoning a thread),
# the scheduler's churn test (its one lock is the lock the draining thread and
# every submitting thread contend on), submit-while-draining, the live window's
# barriers opened from `submit`, concurrency stress, the whole serving tier,
# its `serving`-marked threaded-gateway soak included, and the server they
# are served on (FrameServer shutdown, gateway lifecycle: the lost-wake-up
# gate of the barrier condition), the copy-elision suites (the content tag is
# read while task bodies run on worker threads) and the keygen equivalence and
# property suites (digests are read and replaced beside running bodies; the
# lattice-reader property of test_keygen_property.py copies through
# per-thread scratch), the dependence tracker's property suite and the
# two-graph test of the region cache (two threads overwrite the one
# `DataRegion._dep_state` slot of shared regions).
THREADED_SUITES = tests/runtime/test_executors.py \
	tests/runtime/test_scheduler.py \
	tests/runtime/test_submit_while_draining.py \
	tests/session/test_live_window.py \
	tests/runtime/test_stress_concurrency.py \
	tests/runtime/test_copy_elision_property.py \
	tests/atm/test_copy_elision.py \
	tests/atm/test_keygen_equivalence.py \
	tests/atm/test_keygen_property.py \
	tests/runtime/test_dependences_property.py \
	tests/runtime/test_region_cache.py::test_two_graphs_on_two_threads_share_region_objects \
	tests/runtime/test_net_server.py tests/serving

# Threaded-pool soak: THREADED_SUITES ten times over with a 10 us switch
# interval, so thread interleavings a normal run never produces get their
# turn.  Zero failures required.
soak-threaded:
	for run in 1 2 3 4 5 6 7 8 9 10; do \
		$(PYTHON) -m pytest $(THREADED_SUITES) \
			-m "not net_soak and not fault" \
			--switch-interval 1e-5 -p no:cacheprovider -x -q || exit 1; \
	done

# Flake audit: SUITES (default THREADED_SUITES) in SEEDS (default 20) seeded
# random orders (the conftest's --shuffle-seed), so a test that passes only
# after, or only before, another shows; prints how many orders passed and
# fails unless all did.  `make flake-audit SUITES=tests SEEDS=3` audits the
# whole unit suite.  Not a CI tier.
SUITES ?= $(THREADED_SUITES)
SEEDS ?= 20
flake-audit:
	@passed=0; for seed in $$(seq 1 $(SEEDS)); do \
		if $(PYTHON) -m pytest $(SUITES) -m "not net_soak and not fault" \
			--shuffle-seed $$seed -p no:cacheprovider -q; then passed=$$((passed + 1)); \
		else echo "flake-audit: seed $$seed failed"; fi; \
	done; echo "flake-audit: $$passed/$(SEEDS) orders passed"; test $$passed -eq $(SEEDS)

# What .github/workflows/ci.yml runs (this target is the one list of CI
# tiers): tier-1 suite, examples smoke, process backend, network-loopback
# matrix + soak, serving smoke, fault matrix, small-scale
# reproducibility, THT store, wire fuzz, threaded soak.  Tier-1 includes the
# benchmark's own smoke pass (bench/tests/test_bench_smoke.py).
ci:
	$(PYTHON) -m pytest -x -q
	$(MAKE) examples
	$(MAKE) process-backend
	$(MAKE) net-loopback
	$(MAKE) net-soak
	$(MAKE) serve-smoke
	$(MAKE) fault-matrix
	$(MAKE) determinism
	$(MAKE) tht-store
	$(MAKE) wire-fuzz
	$(MAKE) soak-threaded
