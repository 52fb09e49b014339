"""A THT hit whose outputs are already in place copies nothing.

Units for the content-tag book (``RegionVersionRegistry`` in
``runtime/data.py``) and its one reader, ``copy_outputs_from_entry``: what a
tag survives, what clears it, whose identity it trusts and who never reads
it.  The random-program property lives in
``tests/runtime/test_copy_elision_property.py``.
"""

from __future__ import annotations

import pickle
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.atm.engine import copy_outputs_from_entry
from repro.common.exceptions import MemoizationError
from repro.runtime.data import DataRegion, In, InOut, Out, region_versions
from repro.runtime.task import TaskState, TaskType
from repro.serving import Gateway, GatewayClient
from repro.session import ReproConfig, Session

N = 32
BLOCK = N * 8
LOAD = TaskType("elision_load")
STEP = TaskType("elision_step", memoizable=True)
FOLD = TaskType("elision_fold", memoizable=True)
PAIR = TaskType("elision_pair", memoizable=True)
BOOM = TaskType("elision_boom")


def load(dst: np.ndarray, value: float) -> None:
    dst[:] = value


def step(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = 2.0 * src + 1.0


def fold(buf: np.ndarray) -> None:
    buf[:] = np.minimum(buf + 1.0, 3.0)


def pair(src: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    lo[:] = src - 1.0
    hi[:] = src + 1.0


def scribble_then_raise(dst: np.ndarray) -> None:
    dst[:4] = -1.0
    raise ValueError("injected failure after a partial write")


def static_session(executor: str = "serial", **runtime) -> Session:
    return Session({
        "runtime": {"executor": executor, "num_threads": 2, **runtime},
        "atm": {"mode": "static"},
    })


def submit_step(session, src, dst):
    return session.submit(STEP, step, accesses=[In(src), Out(dst)], args=(src, dst))


def tagged_entry(array: np.ndarray):
    """The THT entry the content tag of exactly ``array``'s bytes names."""
    region = DataRegion(array)
    return region_versions.tag_of(region._base, region.byte_interval)[0]()


def copies():
    """Spy on every ``np.copyto`` made by ``DataRegion.copy_from``."""
    return mock.patch("repro.runtime.data.np.copyto", wraps=np.copyto)


class TestSecondIdenticalHit:
    def test_moves_no_bytes_and_is_still_memoized(self):
        src, twin, dst = np.full(N, 2.0), np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, twin, np.zeros(N))       # the producer
            first = submit_step(session, src, dst)        # hit: copied, tagged
            session.wait_all()
            assert session.stats["copied_bytes"] == BLOCK
            with copies() as copyto:
                second = submit_step(session, src, dst)   # hit: already in place
                result = session.wait_all()
            assert copyto.call_count == 0
            stats = session.stats
        assert first.state is second.state is TaskState.MEMOIZED
        assert (result.tasks_executed, result.tasks_memoized) == (1, 2)
        assert (stats["tht_hits"], stats["copied_bytes"], stats["elided_bytes"]) == (
            2, BLOCK, BLOCK)
        assert np.all(dst == 5.0)

    def test_announced_host_write_into_the_output_is_repaired(self):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            submit_step(session, src, dst)
            session.wait_all()
            dst[:] = -7.0
            DataRegion(dst).bump_version()
            submit_step(session, src, dst)
            session.wait_all()
            assert session.stats["elided_bytes"] == 0
        assert np.all(dst == 5.0)

    def test_every_output_of_a_task_is_judged_on_its_own(self):
        src, lo, hi = np.full(N, 2.0), np.zeros(N), np.zeros(N)
        accesses = [In(src), Out(lo), Out(hi)]
        with static_session() as session:
            for _ in range(2):  # a miss, then a hit that tags both outputs
                session.submit(PAIR, pair, accesses=accesses, args=(src, lo, hi))
            session.wait_all()
            DataRegion(hi).copy_from(np.zeros(N))  # by hand: clears hi's tag only
            session.submit(PAIR, pair, accesses=accesses, args=(src, lo, hi))
            session.wait_all()
            stats = session.stats
        assert (stats["copied_bytes"], stats["elided_bytes"]) == (3 * BLOCK, BLOCK)
        assert np.all(lo == 1.0) and np.all(hi == 3.0)

    def test_inout_hit_at_its_fixed_point_elides(self):
        buf = np.zeros(N)
        with static_session() as session:
            for _ in range(6):  # 0 -> 1 -> 2 -> 3 -> 3 (miss), 3 (hit), 3 (hit)
                session.submit(FOLD, fold, accesses=[InOut(buf)], args=(buf,))
            session.wait_all()
            stats = session.stats
        assert np.all(buf == 3.0)
        assert (stats["tht_hits"], stats["copied_bytes"], stats["elided_bytes"]) == (
            2, BLOCK, BLOCK)

    def test_checks_run_before_the_elision_decision(self):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            task = submit_step(session, src, dst)
            session.wait_all()
            entry = tagged_entry(dst)
        assert task.memo_source is None  # committed as the tag, then dropped
        assert DataRegion(dst).holds(entry, 0)
        entry.outputs.append(entry.outputs[0])  # arity no task of this type has
        with pytest.raises(MemoizationError, match="arity"):
            copy_outputs_from_entry(task, entry)


class TestWhatClearsATag:
    def tagged_rows(self, session):
        """Rows 1 and 2 of one grid, each holding (and tagged with) a hit."""
        grid = np.zeros((4, N))
        src = np.full(N, 2.0)
        submit_step(session, np.full(N, 2.0), np.zeros(N))
        for row in (1, 2):
            submit_step(session, src, grid[row])
        session.wait_all()
        return grid, src, [tagged_entry(grid[row]) for row in (1, 2)]

    def test_sibling_write_keeps_the_tag_overlapping_write_clears_it(self):
        with static_session() as session:
            grid, src, (entry, _) = self.tagged_rows(session)
            row1, row2 = DataRegion(grid[1]), DataRegion(grid[2])
            assert row1.holds(entry, 0) and row2.holds(entry, 0)
            version = row1.version
            session.submit(LOAD, load, accesses=[Out(grid[0])], args=(grid[0], 9.0))
            session.wait_all()
            # The sibling's write moved the base's version, not this tag.
            assert row1.version != version
            assert row1.holds(entry, 0) and row2.holds(entry, 0)
            session.submit(LOAD, load, accesses=[Out(grid[0:2])], args=(grid[0:2], 8.0))
            session.wait_all()
            assert not row1.holds(entry, 0) and row2.holds(entry, 0)
            submit_step(session, src, grid[1])
            submit_step(session, src, grid[2])
            session.wait_all()
            stats = session.stats
        assert (stats["copied_bytes"], stats["elided_bytes"]) == (3 * BLOCK, BLOCK)
        assert np.all(grid[1] == 5.0) and np.all(grid[2] == 5.0)

    def test_a_tag_is_exact_about_index_layout_and_interval(self):
        with static_session() as session:
            grid, _, (entry, _) = self.tagged_rows(session)
        assert not DataRegion(grid[1]).holds(entry, 1)
        assert not DataRegion(grid[1][::-1]).holds(entry, 0)
        assert not DataRegion(grid[1].view(np.int64)).holds(entry, 0)
        assert not DataRegion(grid[1][: N // 2]).holds(entry, 0)
        assert not DataRegion(grid[1:3]).holds(entry, 0)
        assert DataRegion(grid[1]).holds(entry, 0)

    def test_tagged_intervals_stay_pairwise_disjoint(self):
        """Setting a tag clears what it overlaps, so an exact-interval bump
        may trust that nothing else overlaps it."""
        grid = np.zeros((4, N))
        source = TaskType("a source")
        rows = [DataRegion(grid[i]) for i in range(4)]
        wide = DataRegion(grid[1:3])
        for row in rows:
            row.bump_version(source, 0)
        wide.bump_version(source, 0)                   # covers rows 1 and 2
        assert [row.holds(source, 0) for row in rows] == [True, False, False, True]
        rows[1].bump_version(source, 0)                # overlaps the wide tag
        assert not wide.holds(source, 0) and rows[1].holds(source, 0)
        assert not rows[2].holds(source, 0)
        rows[1].bump_version()                         # exact interval, plain
        assert [row.holds(source, 0) for row in rows] == [True, False, False, True]
        assert sorted(region_versions._entries[id(grid)][2]) == [
            rows[0].byte_interval, rows[3].byte_interval]

    def test_whole_base_bump_clears_every_tag(self):
        with static_session() as session:
            grid, _, (entry, _) = self.tagged_rows(session)
        region_versions.bump(grid)
        assert not DataRegion(grid[1]).holds(entry, 0)
        assert not DataRegion(grid[2]).holds(entry, 0)

    def test_quarantined_scribble_clears_the_tag(self):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session(on_task_failure="quarantine") as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            submit_step(session, src, dst)
            session.wait_all()
            entry = tagged_entry(dst)
            session.submit(BOOM, scribble_then_raise, accesses=[Out(dst)], args=(dst,))
            session.wait_all()
            assert not DataRegion(dst).holds(entry, 0)

    def test_untagged_bases_carry_no_tag_dict(self):
        arrays = [np.zeros(N) for _ in range(4)]
        with Session() as session:
            for array in arrays:
                session.submit(LOAD, load, accesses=[Out(array)], args=(array, 1.0))
            session.wait_all()
        for array in arrays:
            assert region_versions._entries[id(array)][2] is None


class TestEntryIdentity:
    def test_refresh_in_place_is_a_different_identity(self):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            task = submit_step(session, src, dst)
            session.wait_all()
            entry, tht = tagged_entry(dst), session.engine.tht
            key = session.engine.keygen.compute(task, 1.0)
            # "Newest outputs win": the same key committed again.
            tht.insert(key, STEP.name, [np.full(N, 6.0)], producer_index=99)
            assert tht.lookup(key, STEP.name) is not entry
            submit_step(session, src, dst)
            session.wait_all()
            assert session.stats["elided_bytes"] == 0
        assert np.all(dst == 6.0)

    def test_unpickled_twin_merged_over_a_local_entry_never_elides(self):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            submit_step(session, src, dst)
            session.wait_all()
            entry = tagged_entry(dst)
            # What a gateway's tcp:// tier or a FileTHTStore delivers: an entry equal
            # in every pickled field, any identity field a forger might copy
            # included.
            entry.serial = 7
            twin = pickle.loads(pickle.dumps(entry))
            assert vars(twin).keys() == vars(entry).keys() and twin.serial == 7
            twin.outputs[0][:] = 6.0
            session.engine.tht.merge({"entries": [twin]})
            assert not DataRegion(dst).holds(twin, 0)
            submit_step(session, src, dst)
            session.wait_all()
            assert session.stats["elided_bytes"] == 0
        assert np.all(dst == 6.0)

    def test_tag_does_not_keep_an_evicted_entry_alive(self):
        import gc
        import weakref

        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as session:
            submit_step(session, np.full(N, 2.0), np.zeros(N))
            submit_step(session, src, dst)
            session.wait_all()
            alive = weakref.ref(tagged_entry(dst))
            session.engine.tht.clear()
            gc.collect()
            # Neither the tag nor the finished task the graph still lists.
            assert alive() is None
        assert region_versions.tag_of(dst, (0, dst.nbytes)) is not None  # dangling


class TestLedger:
    @pytest.mark.parametrize("executor", ["serial", "threaded", "simulated"])
    def test_copied_plus_elided_is_the_output_bytes_of_all_hits(self, executor):
        """Mixed program: misses, THT hits that copy, THT hits that elide,
        in-flight (IKT) hits on the simulated cores, two output sizes."""
        state = [np.full(N, float(i // 3)) for i in range(6)]  # adjacent twins
        out = [np.zeros(N) for _ in range(6)]
        lo, hi = np.zeros(N), np.zeros(N)
        tasks = []
        with static_session(executor) as session:
            for _ in range(3):
                for src, dst in zip(state, out):
                    tasks.append(submit_step(session, src, dst))
                tasks.append(session.submit(
                    PAIR, pair, accesses=[In(state[0]), Out(lo), Out(hi)],
                    args=(state[0], lo, hi)))
                session.wait_all()
            stats = session.stats
        hits = [task for task in tasks if task.state is TaskState.MEMOIZED]
        assert len(hits) == stats["tht_hits"] + stats["ikt_hits"]
        if executor != "threaded":  # two racing twins may both miss there
            assert len(hits) == 18
        assert stats["copied_bytes"] + stats["elided_bytes"] == sum(
            task.output_bytes for task in hits)
        assert stats["elided_bytes"] > 0
        if executor == "simulated":
            assert stats["ikt_hits"] > 0


def blocks_program(session, passes: int = 3, blocks: int = 4):
    """Twin-content blocks stepped ``passes`` times into the same outputs:
    in process, most hits after the first pass would elide."""
    state = [np.zeros(N) for _ in range(blocks)]
    out = [np.zeros(N) for _ in range(blocks)]
    for dst in state:
        session.submit(LOAD, load, accesses=[Out(dst)], args=(dst, 2.0))
    session.wait_all()
    for _ in range(passes):
        for src, dst in zip(state, out):
            submit_step(session, src, dst)
        session.wait_all()
    return state, out


class TestRemoteBackendsElideAsSerialDoes:
    @pytest.mark.parametrize("executor", ["process", "network"])
    def test_the_parent_elides_exactly_as_serial_does(self, executor):
        # One worker, chunks of one: the parent looks each task up after its
        # predecessor committed, copies THT outputs into its own memory and
        # tags them there, so the ledger is serial's to the byte.
        with static_session(executor, num_threads=1, mp_chunk_size=1) as session:
            _, out = blocks_program(session)
            stats = session.stats
        assert all(np.all(block == 5.0) for block in out)
        assert stats["tht_hits"] == 11
        assert (stats["copied_bytes"], stats["elided_bytes"]) == (4 * BLOCK, 7 * BLOCK)

    def test_in_process_the_same_program_elides(self):
        with static_session() as session:
            blocks_program(session)
            stats = session.stats
        assert stats["tht_hits"] == 11
        # Pass 1 tags three outputs, pass 2 elides them and tags the fourth,
        # pass 3 elides all four.
        assert (stats["copied_bytes"], stats["elided_bytes"]) == (4 * BLOCK, 7 * BLOCK)

    @pytest.mark.parametrize("executor", ["process", "network"])
    def test_remote_memoized_completion_clears_the_parents_tag(self, executor):
        src, dst = np.full(N, 2.0), np.zeros(N)
        with static_session() as local:
            submit_step(local, np.full(N, 2.0), np.zeros(N))
            submit_step(local, src, dst)
            local.wait_all()
            entry = tagged_entry(dst)
            assert DataRegion(dst).holds(entry, 0)
            with static_session(executor, num_threads=1, mp_chunk_size=1) as remote:
                submit_step(remote, np.full(N, 2.0), np.zeros(N))
                memoized = submit_step(remote, src, dst)
                remote.wait_all()
            assert memoized.state is TaskState.MEMOIZED and memoized.memo_source is None
            assert not DataRegion(dst).holds(entry, 0)
            submit_step(local, src, dst)
            local.wait_all()
            assert local.stats["elided_bytes"] == 0

    def test_a_hit_on_a_block_a_peer_wrote_since_copies(self):
        """Chunks of one go round-robin over two workers: worker 0 stores
        step(src) into ``dst``, worker 1 overwrites ``dst``, and worker 0's
        THT hit for step(src) must put its output back."""
        def program(session):
            src, other, dst = np.full(N, 2.0), np.full(N, 5.0), np.zeros(N)
            for source in (src, other, src):
                submit_step(session, source, dst)
                session.wait_all()
            return dst, session.stats

        with static_session() as serial:
            expected, _ = program(serial)
        with static_session("process", mp_chunk_size=1) as remote:
            dst, stats = program(remote)
        assert np.array_equal(dst, expected)
        assert stats["tht_hits"] == 1
        assert stats["elided_bytes"] == 0
        assert stats["copied_bytes"] == BLOCK


def gateway_step(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = 2.0 * src + 1.0


class TestGatewaySharedTier:
    def test_shared_hit_elides_only_where_the_tag_is(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )

        def tenant(gw, name):
            return GatewayClient("127.0.0.1", gw.port, tenant=name,
                                 atm_mode="static", shared_tht=True)

        def run(client, src, dst):
            client.submit(STEP, gateway_step, accesses=[In(src), Out(dst)],
                          args=(src, dst))
            return client.wait_all()

        with Gateway(cfg) as gw:
            with tenant(gw, "elide-a") as a:
                run(a, np.full(N, 2.0), np.zeros(N))
                a.finish()  # its delta reaches the shared tier
            b_src, b_dst = np.full(N, 2.0), np.zeros(N)
            c_src, c_dst = np.full(N, 2.0), np.zeros(N)
            with tenant(gw, "elide-b") as b, tenant(gw, "elide-c") as c, \
                    mock.patch.object(DataRegion, "copy_from", autospec=True,
                                      side_effect=DataRegion.copy_from) as copy_from:
                assert run(b, b_src, b_dst)["shared_hits"] == 1
                assert copy_from.call_count == 1          # copied, tagged
                assert run(b, b_src, b_dst)["shared_hits"] == 2
                assert copy_from.call_count == 1          # b's region holds it
                assert run(c, c_src, c_dst)["shared_hits"] == 1
                assert copy_from.call_count == 2          # c's does not
        assert np.all(b_dst == 5.0) and np.all(c_dst == 5.0)


class TestOneCopySite:
    def test_only_copy_outputs_from_entry_copies_tht_outputs_into_regions(self):
        """No second path may bypass the tag book: ``copy_from`` has one
        caller, inside ``copy_outputs_from_entry``, and no module that sees
        THT entries (``atm/``, ``serving/gateway.py``) copies arrays itself."""
        src = Path(repro.__file__).parent
        callers = {"copy_from": [], "copyto": []}
        for path in sorted(src.rglob("*.py")):
            code = "\n".join(
                line for line in path.read_text().splitlines()
                if not line.lstrip().startswith("#")
            )
            name = str(path.relative_to(src))
            callers["copy_from"] += [name] * len(re.findall(r"\.copy_from\(", code))
            callers["copyto"] += [name] * bool(re.search(r"np\.copyto\(", code))
        assert callers["copy_from"] == ["atm/engine.py"]
        # ``atm/keygen.py`` reads a sampled lattice of an *input* into its
        # hashing scratch; it sees no THT entry and writes no region.
        assert callers["copyto"] == [
            "atm/keygen.py", "runtime/data.py", "runtime/net_executor.py",
            "runtime/shm.py", "serving/client.py",
        ]
        engine = (src / "atm" / "engine.py").read_text()
        body = engine[engine.index("def copy_outputs_from_entry"):]
        assert ".copy_from(stored)" in body[: body.index("\ndef ", 1)]
