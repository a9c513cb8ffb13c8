"""Twin-trace tests for the declarative I/O-plan kernel.

Every planned primitive promises to be *observationally identical* to
the hand-rolled loop it replaced: same PRNG draw sequences, same device
bytes, same counters, same simulated clock, same trace events.  These
tests hold them to that promise with twin systems — two byte-identical
volumes, one driven by the pre-refactor loop (inlined here as the
oracle), one by the planned primitive — plus pure properties of
``fuse`` (order preservation, never merging distinct writes to one
block) and the :class:`~repro.core.plan.PlanJournal` ordering contract
(record strictly precedes the plan's first device request).
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.agent import UpdateResult
from repro.core.nonvolatile import NonVolatileAgent
from repro.core.plan import (
    KIND_CYCLE,
    KIND_WRITE,
    CycleStep,
    IoPlan,
    PlanJournal,
    ReadStep,
    ResealStep,
    WriteStep,
    _kind_of,
    execute_runs,
    fuse,
)
from repro.core.volatile import VolatileAgent
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.service.facade import HiddenVolumeService
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.device import RawDevice
from repro.storage.disk import RawStorage

from conftest import make_storage

_SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NUM_BLOCKS = 256
FILE_CONTENT = bytes(range(256)) * 12


def _assert_identical(a: RawStorage, b: RawStorage) -> None:
    """Every observable of the two devices matches exactly."""
    assert a.raw_bytes() == b.raw_bytes()
    assert a.counters == b.counters
    assert a.clock_ms == b.clock_ms
    assert a.trace.events == b.trace.events


def _twin(seed, construction="nonvolatile"):
    """Two byte-identical (storage, agent, handle) systems from one seed."""
    systems = []
    for _ in range(2):
        storage = make_storage(num_blocks=NUM_BLOCKS, timed=True)
        prng = Sha256Prng(f"plan-kernel-{seed}")
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        if construction == "volatile":
            agent = VolatileAgent(volume, prng.spawn("agent"))
        else:
            agent = NonVolatileAgent(volume, prng.spawn("agent"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        handle = agent.create_file(fak, "/data", FILE_CONTENT)
        if construction == "volatile":
            # The volatile agent draws Figure-6 swap targets from the
            # disclosed dummy files, so give it one.
            dummy_fak = FileAccessKey.generate(prng.spawn("dummy-fak"), is_dummy=True)
            agent.create_file(dummy_fak, "/decoy", b"\x00" * len(FILE_CONTENT))
        systems.append((storage, agent, handle))
    return systems[0], systems[1]


def _assert_draws_aligned(agent_a, agent_b) -> None:
    """Both twins' PRNG streams sit at the same point after the run."""
    assert agent_a._prng.randrange(1 << 30) == agent_b._prng.randrange(1 << 30)
    assert agent_a.volume.fresh_iv() == agent_b.volume.fresh_iv()


def _legacy_update_block(agent, handle, logical_index, payload, stream) -> UpdateResult:
    """The pre-plan-kernel Figure-6 loop, verbatim: interleaved device I/O."""
    b1 = handle.header.physical_block(logical_index)
    content_key = handle.content_key
    iterations = reads = writes = 0
    while True:
        iterations += 1
        b2 = agent.select_random_block()
        if b2 == b1:
            agent.volume.device.read_block(b1, stream)
            agent.volume.write_payload(b1, content_key, payload, stream)
            return UpdateResult(iterations, reads + 1, writes + 1, moved_from=b1, moved_to=b1)
        if agent.is_dummy_block(b2):
            agent.volume.device.read_block(b1, stream)
            agent.volume.write_payload(b2, content_key, payload, stream)
            handle.header.relocate(logical_index, b2)
            handle.mark_dirty()
            agent.volume.allocator.transfer(b1, b2)
            agent._untrack_block(b1)
            agent.claim_dummy_block(new_data_block=b2, released_block=b1)
            agent._track_block(b2, handle, "data")
            return UpdateResult(iterations, reads + 1, writes + 1, moved_from=b1, moved_to=b2)
        agent.volume.rewrite_with_new_iv(b2, agent.key_for_block(b2), stream)
        reads += 1
        writes += 1


class TestTwinTraceEquivalence:
    @_SLOW
    @given(seed=st.integers(0, 1 << 16), data=st.data())
    def test_read_blocks_matches_legacy_payload_loop(self, seed, data):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(seed)
        logicals = data.draw(
            st.lists(st.integers(0, handle_a.num_blocks - 1), min_size=1, max_size=8)
        )
        physicals = [handle_a.header.physical_block(i) for i in logicals]
        expected = agent_a.volume.read_payloads(physicals, handle_a.content_key, "r")
        got = agent_b.read_blocks(handle_b, logicals, "r")
        assert got == expected
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(seed=st.integers(0, 1 << 16))
    def test_dummy_update_matches_legacy_rewrite(self, seed):
        (storage_a, agent_a, _), (storage_b, agent_b, _) = _twin(seed)
        for _ in range(4):
            index_a = agent_a.select_random_block()
            agent_a.volume.rewrite_with_new_iv(index_a, agent_a.key_for_block(index_a), "d")
            index_b = agent_b.dummy_update("d")
            assert index_b == index_a
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(seed=st.integers(0, 1 << 16), count=st.integers(1, 12))
    def test_dummy_update_batch_matches_dummy_update_loop_bytes(self, seed, count):
        (storage_a, agent_a, _), (storage_b, agent_b, _) = _twin(seed)
        loop_indices = [agent_a.dummy_update("d") for _ in range(count)]
        batch_indices = agent_b.dummy_update_batch(count, "d")
        assert batch_indices == loop_indices
        # The batch schedules reads-then-writes, so the trace order (and
        # hence seek time) differs, but draws, bytes and op counts match.
        assert storage_a.raw_bytes() == storage_b.raw_bytes()
        assert storage_a.counters.reads == storage_b.counters.reads
        assert storage_a.counters.writes == storage_b.counters.writes
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(
        seed=st.integers(0, 1 << 16),
        construction=st.sampled_from(["nonvolatile", "volatile"]),
        data=st.data(),
    )
    def test_update_block_matches_legacy_interleaved_loop(self, seed, construction, data):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(
            seed, construction
        )
        for round_no in range(3):
            logical = data.draw(
                st.integers(0, handle_a.num_blocks - 1), label=f"logical-{round_no}"
            )
            payload = bytes([seed % 256, round_no]) * 8
            result_a = _legacy_update_block(agent_a, handle_a, logical, payload, "u")
            result_b = agent_b.update_block(handle_b, logical, payload, "u")
            assert result_b == result_a
        assert handle_a.header.block_pointers == handle_b.header.block_pointers
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(seed=st.integers(0, 1 << 16), data=st.data())
    def test_update_range_matches_legacy_update_block_loop(self, seed, data):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(seed)
        start = data.draw(st.integers(0, handle_a.num_blocks - 3))
        payloads = [bytes([0xB0 + i]) * 20 for i in range(3)]
        results_a = [
            _legacy_update_block(agent_a, handle_a, start + offset, payload, "u")
            for offset, payload in enumerate(payloads)
        ]
        results_b = agent_b.update_range(handle_b, start, payloads, "u")
        assert results_b == results_a
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(seed=st.integers(0, 1 << 16), count=st.integers(1, 6))
    def test_append_blocks_matches_legacy_per_block_loop(self, seed, count):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(seed)
        payloads = [bytes([0xC0 + i]) * 24 for i in range(count)]
        logicals_a = []
        for payload in payloads:
            logical = agent_a.volume.append_block(handle_a, payload, "ap")
            agent_a._track_block(handle_a.header.physical_block(logical), handle_a, "data")
            logicals_a.append(logical)
        logicals_b = agent_b.append_blocks(handle_b, payloads, "ap")
        assert logicals_b == logicals_a
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    @_SLOW
    @given(seed=st.integers(0, 1 << 16))
    def test_save_file_matches_legacy_header_save(self, seed):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(seed)
        handle_a.header.file_size += 1
        handle_a.mark_dirty()
        handle_b.header.file_size += 1
        handle_b.mark_dirty()
        agent_a.volume.save_header(handle_a, "h")
        agent_a._register_handle(handle_a)
        agent_b.save_file(handle_b, "h")
        assert not handle_b.dirty
        _assert_identical(storage_a, storage_b)
        _assert_draws_aligned(agent_a, agent_b)

    def test_delete_file_performs_no_device_io(self):
        (storage_a, agent_a, handle_a), (storage_b, agent_b, handle_b) = _twin(0)
        blocks = handle_b.header.all_blocks()
        before_ops = storage_b.counters.total_ops
        before_bytes = storage_b.raw_bytes()
        agent_b.delete_file(handle_b)
        assert storage_b.counters.total_ops == before_ops
        assert storage_b.raw_bytes() == before_bytes
        for index in blocks:
            assert not agent_b.volume.allocator.is_allocated(index)
        # The twin oracle: per-block frees leave the same allocator state.
        for index in handle_a.header.all_blocks():
            agent_a.volume.allocator.free(index)
        assert (
            agent_a.volume.allocator.free_blocks == agent_b.volume.allocator.free_blocks
        )


_step_strategy = st.one_of(
    st.builds(
        ReadStep,
        index=st.integers(0, 31),
        stream=st.sampled_from(["a", "b"]),
        keep=st.booleans(),
    ),
    st.builds(
        WriteStep,
        index=st.integers(0, 31),
        data=st.binary(min_size=4, max_size=4),
        stream=st.sampled_from(["a", "b"]),
    ),
    st.builds(
        CycleStep,
        read_index=st.integers(0, 31),
        write_index=st.integers(0, 31),
        data=st.binary(min_size=4, max_size=4),
        stream=st.sampled_from(["a", "b"]),
    ),
    st.builds(
        ResealStep,
        index=st.integers(0, 31),
        key=st.binary(min_size=4, max_size=4),
        new_iv=st.binary(min_size=4, max_size=4),
        stream=st.sampled_from(["a", "b"]),
        batched=st.booleans(),
    ),
)
_plans_strategy = st.lists(
    st.builds(IoPlan, steps=st.lists(_step_strategy, max_size=8)), max_size=6
)


class TestFusionProperties:
    @settings(max_examples=100, deadline=None)
    @given(plans=_plans_strategy)
    def test_fuse_never_reorders_steps(self, plans):
        """Fusion widens device calls; it never changes step or plan order."""
        runs = fuse(plans)
        assert [step for run in runs for step in run.steps] == [
            step for plan in plans for step in plan.steps
        ]
        assert [source for run in runs for source in run.sources] == [
            position for position, plan in enumerate(plans) for _ in plan.steps
        ]
        for run in runs:
            assert all(_kind_of(step) == run.kind for step in run.steps)

    @settings(max_examples=100, deadline=None)
    @given(plans=_plans_strategy)
    def test_fuse_never_merges_writes_to_one_block(self, plans):
        """Distinct-IV writes to one index stay distinct device events."""
        for run in fuse(plans):
            if run.kind == KIND_WRITE:
                indices = [step.index for step in run.steps]
                assert len(set(indices)) == len(indices)


class _FirstTouchSpy:
    """Device proxy recording the journal length at the first device request."""

    def __init__(self, inner, journal: PlanJournal):
        self._inner = inner
        self._journal = journal
        self.journal_len_at_first_io: int | None = None

    def _note(self) -> None:
        if self.journal_len_at_first_io is None:
            self.journal_len_at_first_io = len(self._journal)

    @property
    def block_size(self):
        return self._inner.block_size

    @property
    def num_blocks(self):
        return self._inner.num_blocks

    def read_block(self, index, stream="default"):
        self._note()
        return self._inner.read_block(index, stream)

    def write_block(self, index, data, stream="default"):
        self._note()
        self._inner.write_block(index, data, stream)

    def read_blocks(self, indices, stream="default"):
        self._note()
        return self._inner.read_blocks(indices, stream)

    def write_blocks(self, indices, datas, stream="default"):
        self._note()
        self._inner.write_blocks(indices, datas, stream)

    def read_write_blocks(self, indices, datas=None, stream="default", write_indices=None):
        self._note()
        self._inner.read_write_blocks(indices, datas, stream, write_indices=write_indices)

    def peek_block(self, index):
        return self._inner.peek_block(index)

    def peek_blocks(self, indices):
        return self._inner.peek_blocks(indices)


class TestPlanJournal:
    def test_journal_records_before_first_device_request(self):
        _, (storage, agent, handle) = _twin(1)
        journal = PlanJournal()
        spy = _FirstTouchSpy(agent.volume.device, journal)
        agent.volume.device = spy
        agent.plan_journal = journal
        agent.update_block(handle, 0, b"journal" * 3, "j")
        assert len(journal) == 1
        assert journal.entries[0].label == "update_block"
        # The entry was in the journal before the plan's first read/write.
        assert spy.journal_len_at_first_io == 1

    def test_journal_captures_every_primitive(self):
        _, (storage, agent, handle) = _twin(2)
        journal = PlanJournal()
        agent.plan_journal = journal
        agent.read_blocks(handle, [0, 1])
        agent.dummy_update()
        agent.dummy_update_batch(3)
        agent.update_block(handle, 1, b"x" * 10)
        agent.append_blocks(handle, [b"y" * 10])
        agent.save_file(handle)
        agent.delete_file(handle)
        labels = [entry.label for entry in journal.entries]
        assert labels == [
            "read_blocks",
            "dummy_update",
            "dummy_update_batch",
            "update_block",
            "append_blocks",
            "save_file",
            "delete_file",
        ]
        # Steps are captured with the entry, pre-execution.
        assert len(journal.entries[2].steps) == 3
        assert journal.entries[-1].steps == ()


class TestEnginePlanFusion:
    def _service_pair(self, seed=11):
        service = HiddenVolumeService.create(
            "nonvolatile", volume_mib=1, seed=seed, block_size=512
        )
        alice = service.login(service.new_keyring("alice"), "alice")
        bob = service.login(service.new_keyring("bob"), "bob")
        payload_bytes = service.volume.data_field_bytes
        alice.create("/a", b"a" * (payload_bytes * 4))
        bob.create("/b", b"b" * (payload_bytes * 4))
        return service, alice, bob, payload_bytes

    def test_cross_session_write_plans_fuse_and_execute(self):
        """Two sessions' planned writes fuse into one device run and
        still commit the right bytes — deterministic, no threads."""
        service, alice, bob, payload_bytes = self._service_pair()
        op_a = alice.plan_write("/a", b"A" * payload_bytes, at=0)
        op_b = bob.plan_write("/b", b"B" * payload_bytes, at=0)
        runs = fuse([op_a.plan, op_b.plan])
        fused = [
            run
            for run in runs
            if run.kind in (KIND_WRITE, KIND_CYCLE) and run.source_count >= 2
        ]
        assert fused, "adjacent cross-session write steps did not fuse"
        payloads = execute_runs(runs, service.volume.device, service.volume.cipher_for)
        assert op_a.finish(payloads.get(0, []))[0].writes == 1
        assert op_b.finish(payloads.get(1, []))[0].writes == 1
        assert alice.read("/a", at=0, size=payload_bytes) == b"A" * payload_bytes
        assert bob.read("/b", at=0, size=payload_bytes) == b"B" * payload_bytes

    def test_engine_counts_cross_session_write_fusion(self):
        service, *_ = self._service_pair(seed=12)
        engine = service.concurrent(dummy_to_real_ratio=0.0, quantum=8)
        users = [engine.login(service.new_keyring(f"w{i}")) for i in range(3)]
        payload_bytes = service.volume.data_field_bytes
        for i, user in enumerate(users):
            user.create(f"/w{i}", bytes([i]) * (payload_bytes * 2))
        barrier = threading.Barrier(len(users))

        def work(user, i):
            for n in range(30):
                barrier.wait()
                user.write(f"/w{i}", bytes([n]) * payload_bytes, at=0)
                assert user.read(f"/w{i}", at=0, size=payload_bytes) == bytes([n]) * payload_bytes

        threads = [threading.Thread(target=work, args=(u, i)) for i, u in enumerate(users)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine.close()
        assert engine.stats.write_fusions > 0
        assert engine.stats.largest_write_fusion >= 2

    def test_zero_gather_wait_preserves_per_session_fifo(self):
        """Satellite pin: a zero-gather engine loses batch width but must
        keep per-session program order (read-your-writes)."""
        service, *_ = self._service_pair(seed=13)
        engine = service.concurrent(dummy_to_real_ratio=0.5, quantum=8, gather_timeout_s=0)
        assert engine.gather_timeout_s == 0
        users = [engine.login(service.new_keyring(f"z{i}")) for i in range(2)]
        payload_bytes = service.volume.data_field_bytes
        for i, user in enumerate(users):
            user.create(f"/z{i}", bytes([i]) * (payload_bytes * 2))

        def work(user, i):
            for n in range(40):
                user.write(f"/z{i}", bytes([n]) * payload_bytes, at=0)
                got = user.read(f"/z{i}", at=0, size=payload_bytes)
                assert got == bytes([n]) * payload_bytes, "read observed a stale write"
                user.append(f"/z{i}", b"t" * 7)

        threads = [threading.Thread(target=work, args=(u, i)) for i, u in enumerate(users)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, user in enumerate(users):
            assert user.stat(f"/z{i}").size_bytes == payload_bytes * 2 + 40 * 7
        engine.close()

    def test_gather_wait_default_is_constructor_parameter(self):
        from repro.service.concurrent import _GATHER_TIMEOUT_S

        service, *_ = self._service_pair(seed=14)
        engine = service.concurrent()
        assert engine.gather_timeout_s == _GATHER_TIMEOUT_S
        engine.close()
        service.close()
