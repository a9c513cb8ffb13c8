"""Twin tests for the batched reseal executor and the batched cycle path.

A reseal run (the dummy updates of the Figure-6 probe loop, or an idle
burst) executes as one fetch of its blocks, per-key batched crypto and
one accounting call.  These tests hold it to the step-by-step loop it
replaced, on twin volumes: same bytes, counters, clock, trace rows and
later IV draws, including runs that draw one block several times.
They also pin the device-call budget that batching buys.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import IoPlan, ResealStep, execute_plan, fuse
from repro.core.volatile import VolatileAgent
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.backend import FaultInjectingBackend, MemoryBackend
from repro.storage.block import StoredBlock
from repro.storage.device import Partition, RawDevice
from repro.storage.disk import RawStorage, StorageGeometry

from conftest import make_storage

_SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NUM_BLOCKS = 96
KEYS = (b"reseal-key-one", b"reseal-key-two", b"reseal-key-three")


def _volume(device_kind: str, backend=None) -> tuple[RawStorage, StegFsVolume]:
    if backend is None:
        storage = make_storage(num_blocks=NUM_BLOCKS, timed=True)
    else:
        storage = RawStorage(StorageGeometry(512, NUM_BLOCKS), backend=backend)
        storage.fill_random(42)
    device = RawDevice(storage) if device_kind == "raw" else Partition(storage, 7, 64)
    return storage, StegFsVolume(device, Sha256Prng("reseal-executor").spawn("volume"))


def _seal_pool(volume: StegFsVolume, pool: int, key_of) -> dict[int, bytes]:
    """Seal a known payload into each pool block under its key."""
    payloads = {}
    for index in range(pool):
        payloads[index] = bytes([index + 1]) * 24
        volume.write_payload(index, key_of(index), payloads[index], "setup")
    return payloads


def _assert_identical(a: RawStorage, b: RawStorage) -> None:
    assert a.raw_bytes() == b.raw_bytes()
    assert a.counters == b.counters
    assert a.clock_ms == b.clock_ms
    assert a.trace.events == b.trace.events


def _loop_reseal(volume: StegFsVolume, indices, keys, batched: bool) -> None:
    """The oracle: one block at a time through the per-block primitive."""
    if not batched:
        for index, key in zip(indices, keys, strict=True):
            volume.rewrite_with_new_iv(index, key, "dummy")
        return
    # The batched schedule charges every read before the first write.
    for index in indices:
        volume.device.read_block(index, "dummy")
    for index, key in zip(indices, keys, strict=True):
        block = StoredBlock.from_raw(volume.device.peek_block(index))
        resealed = block.reseal_with_new_iv(volume.cipher_for(key), volume.fresh_iv())
        volume.device.write_block(index, resealed.raw, "dummy")


def _planned_reseal(volume: StegFsVolume, indices, keys, batched: bool) -> None:
    ivs = volume.fresh_ivs(len(indices))
    steps = [
        ResealStep(index, key, iv, "dummy", batched=batched)
        for index, key, iv in zip(indices, keys, ivs, strict=True)
    ]
    execute_plan(IoPlan(steps), volume.device, volume.cipher_for)


class TestResealRunTwins:
    @_SLOW
    @given(
        pool=st.integers(2, 8),
        draws=st.lists(st.integers(0, 7), max_size=24),
        key_count=st.integers(2, 3),
        batched=st.booleans(),
        device_kind=st.sampled_from(["raw", "partition"]),
    )
    def test_run_with_repeated_blocks_matches_per_block_loop(
        self, pool, draws, key_count, batched, device_kind
    ):
        # Blocks 0 and 1 (two keys) always appear, and block 0 repeats.
        indices = [0, 1, *(draw % pool for draw in draws), 0]

        def key_of(index: int) -> bytes:
            return KEYS[index % key_count]

        keys = [key_of(index) for index in indices]
        (storage_a, volume_a), (storage_b, volume_b) = _volume(device_kind), _volume(device_kind)
        payloads = _seal_pool(volume_a, pool, key_of)
        assert _seal_pool(volume_b, pool, key_of) == payloads

        _loop_reseal(volume_a, indices, keys, batched)
        _planned_reseal(volume_b, indices, keys, batched)

        _assert_identical(storage_a, storage_b)
        assert volume_a.fresh_iv() == volume_b.fresh_iv()
        for index, payload in payloads.items():
            assert volume_b.read_payload(index, key_of(index)).startswith(payload)

    @_SLOW
    @given(
        indices=st.lists(st.integers(0, 3), min_size=2, max_size=12),
        key_choice=st.data(),
        batched=st.booleans(),
    )
    def test_block_resealed_under_two_keys_matches_loop(self, indices, key_choice, batched):
        """A block drawn under two keys in one run (keys changed hands
        between plans) splits the run, so bytes still match the loop."""
        keys = [key_choice.draw(st.sampled_from(KEYS[:2])) for _ in indices]
        (storage_a, volume_a), (storage_b, volume_b) = _volume("raw"), _volume("raw")
        _loop_reseal(volume_a, indices, keys, batched)
        _planned_reseal(volume_b, indices, keys, batched)
        if not batched:
            _assert_identical(storage_a, storage_b)
        else:
            # A split batched run charges its reads per sub-run.
            assert storage_a.raw_bytes() == storage_b.raw_bytes()
        assert volume_a.fresh_iv() == volume_b.fresh_iv()

    def test_fuse_splits_reseals_of_one_block_under_two_keys(self):
        steps = [
            ResealStep(4, KEYS[0], b"a"),
            ResealStep(5, KEYS[1], b"b"),
            ResealStep(4, KEYS[0], b"c"),
            ResealStep(4, KEYS[1], b"d"),
            ResealStep(5, KEYS[1], b"e"),
        ]
        runs = fuse([IoPlan(steps)])
        assert [len(run.steps) for run in runs] == [3, 2]

    def test_strict_run_is_one_fetch_and_one_charge(self):
        backend = FaultInjectingBackend(MemoryBackend(512, NUM_BLOCKS))
        storage, volume = _volume("raw", backend)
        _seal_pool(volume, 6, lambda index: KEYS[index % 2])
        indices = [0, 1, 2, 0, 3, 4, 5, 2, 0]
        before, counters = backend.calls, storage.counters.snapshot()
        _planned_reseal(volume, indices, [KEYS[index % 2] for index in indices], False)
        # One uncharged read_many, one write_many for every charged cycle.
        assert backend.calls - before == 2
        delta = storage.counters.delta(counters)
        assert delta.reads == delta.writes == len(indices)


class TestCollidingCycles:
    @settings(max_examples=60, deadline=None)
    @given(
        reads=st.lists(st.integers(0, 5), min_size=1, max_size=16),
        data=st.data(),
        in_place=st.booleans(),
    )
    def test_read_write_blocks_with_shared_blocks_matches_loop(self, reads, data, in_place):
        size = len(reads)
        writes = reads
        if not in_place:
            writes = data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        datas = [bytes([cycle + 1]) * 512 for cycle in range(size)]
        loop = make_storage(num_blocks=16, timed=True)
        backend = FaultInjectingBackend(MemoryBackend(512, 16))
        batched = RawStorage(StorageGeometry(512, 16), backend=backend)
        batched.fill_random(42)
        for r, w, payload in zip(reads, writes, datas, strict=True):
            loop.read_block(r, "s")
            loop.write_block(w, payload, "s")
        before = backend.calls
        batched.read_write_blocks(reads, datas, "s", write_indices=writes)
        assert backend.calls - before == 1
        _assert_identical(loop, batched)


class TestUpdateBlockBudget:
    def _system(self):
        backend = FaultInjectingBackend(MemoryBackend(512, 256))
        storage = RawStorage(StorageGeometry(512, 256), backend=backend)
        storage.fill_random(3)
        prng = Sha256Prng("update-budget")
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        agent = VolatileAgent(volume, prng.spawn("agent"))
        handle = agent.create_file(
            FileAccessKey.generate(prng.spawn("fak")), "/data", bytes(range(256)) * 16
        )
        # One dummy block among the disclosed ones: long Figure-6 probe loops.
        agent.create_file(
            FileAccessKey.generate(prng.spawn("decoy"), is_dummy=True),
            "/decoy",
            b"\x00" * volume.data_field_bytes,
        )
        return backend, volume, agent, handle

    def test_backend_calls_per_update_do_not_grow_with_iterations(self):
        backend, _, agent, handle = self._system()
        iterations = []
        for round_no in range(24):
            before = backend.calls
            result = agent.update_block(handle, round_no % handle.num_blocks, b"u" * 40)
            assert backend.calls - before <= 3, result
            iterations.append(result.iterations)
        assert max(iterations) >= 8  # the gate is meaningful: long loops happened

    def test_one_iv_draw_per_update(self):
        _, volume, agent, handle = self._system()
        with mock.patch.object(
            volume._iv_prng, "random_bytes", wraps=volume._iv_prng.random_bytes
        ) as draws:
            for round_no in range(6):
                result = agent.update_block(handle, round_no % handle.num_blocks, b"v" * 40)
                assert draws.call_count == round_no + 1
                assert draws.call_args.args == (16 * result.iterations,)


def test_peek_blocks_is_uncharged_and_matches_peek_block():
    storage = make_storage(num_blocks=32, timed=True)
    _, partition = Partition(storage, 0, 8), Partition(storage, 8, 24)
    indices = [3, 0, 3, 23]
    assert partition.peek_blocks(indices) == [partition.peek_block(i) for i in indices]
    expected = [storage.peek_block(i) for i in indices]
    assert RawDevice(storage).peek_blocks(np.array(indices)) == expected
    assert storage.counters.total_ops == 0
    assert len(storage.trace) == 0
