"""Unit tests for the storage substrate: blocks, disk, bitmap, latency, partitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.cipher import FastFieldCipher
from repro.errors import (
    BlockOutOfRangeError,
    BlockSizeMismatchError,
)
from repro.storage.backend import FILL_CHUNK_BYTES, MemoryBackend, MmapFileBackend
from repro.storage.bitmap import Bitmap
from repro.storage.block import BLOCK_IV_SIZE, StoredBlock, data_field_size
from repro.storage.device import Partition, RawDevice, split_volume
from repro.storage.disk import IoCounters, StorageGeometry
from repro.storage.latency import DiskLatencyModel, ZeroLatencyModel

from conftest import make_storage


class TestStorageGeometry:
    def test_capacity(self):
        geometry = StorageGeometry(block_size=4096, num_blocks=100)
        assert geometry.capacity_bytes == 409_600

    def test_from_capacity(self):
        geometry = StorageGeometry.from_capacity(1024 * 1024, block_size=4096)
        assert geometry.num_blocks == 256

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            StorageGeometry(block_size=0, num_blocks=10)
        with pytest.raises(ValueError):
            StorageGeometry(block_size=512, num_blocks=0)


class TestStoredBlock:
    def test_raw_roundtrip(self):
        block = StoredBlock(iv=b"i" * BLOCK_IV_SIZE, ciphertext=b"c" * 100)
        assert StoredBlock.from_raw(block.raw) == block

    def test_seal_and_open(self):
        cipher = FastFieldCipher(b"key")
        block = StoredBlock.seal(cipher, b"\x01" * BLOCK_IV_SIZE, b"payload bytes")
        assert block.open(cipher) == b"payload bytes"

    def test_reseal_changes_ciphertext_not_content(self):
        cipher = FastFieldCipher(b"key")
        block = StoredBlock.seal(cipher, b"\x01" * BLOCK_IV_SIZE, b"payload")
        resealed = block.reseal_with_new_iv(cipher, b"\x02" * BLOCK_IV_SIZE)
        assert resealed.raw != block.raw
        assert resealed.open(cipher) == b"payload"

    def test_invalid_iv_size(self):
        with pytest.raises(BlockSizeMismatchError):
            StoredBlock(iv=b"short", ciphertext=b"c")

    def test_from_raw_too_small(self):
        with pytest.raises(BlockSizeMismatchError):
            StoredBlock.from_raw(b"tiny")

    def test_data_field_size(self):
        assert data_field_size(4096) == 4096 - BLOCK_IV_SIZE
        with pytest.raises(BlockSizeMismatchError):
            data_field_size(BLOCK_IV_SIZE)


class TestRawStorage:
    def test_write_then_read(self, storage):
        data = bytes(range(256)) * 2
        storage.write_block(7, data)
        assert storage.read_block(7) == data

    def test_fill_random_is_deterministic(self):
        a = make_storage(seed=5)
        b = make_storage(seed=5)
        assert a.raw_bytes() == b.raw_bytes()

    @pytest.mark.parametrize("backend_class", [MemoryBackend, "mmap"])
    def test_fill_random_in_chunks_matches_one_call_stream(self, backend_class, tmp_path):
        """Formatting chunk by chunk draws the bytes one full-volume
        ``rng.integers`` call would, without its volume-sized temporary."""
        assert FILL_CHUNK_BYTES % 4 == 0
        block_size, num_blocks = 4096, 300  # 1.17 chunks: a partial last chunk
        assert (block_size * num_blocks) % FILL_CHUNK_BYTES
        if backend_class == "mmap":
            backend = MmapFileBackend.create(tmp_path / "volume.img", block_size, num_blocks)
        else:
            backend = backend_class(block_size, num_blocks)
        backend.fill_random(11)
        expected = np.random.default_rng(11).integers(
            0, 256, size=block_size * num_blocks, dtype=np.uint8
        )
        assert backend.raw_bytes() == expected.tobytes()
        backend.close()

    def test_out_of_range_rejected(self, storage):
        with pytest.raises(BlockOutOfRangeError):
            storage.read_block(10_000)
        with pytest.raises(BlockOutOfRangeError):
            storage.write_block(-1, b"x" * 512)

    def test_wrong_write_size_rejected(self, storage):
        with pytest.raises(BlockSizeMismatchError):
            storage.write_block(0, b"short")

    def test_counters_track_operations(self, storage):
        storage.read_block(0)
        storage.read_block(1)
        storage.write_block(2, b"\x00" * 512)
        assert storage.counters.reads == 2
        assert storage.counters.writes == 1
        assert storage.counters.total_ops == 3

    def test_counters_delta(self, storage):
        storage.read_block(0)
        before = storage.counters.snapshot()
        storage.read_block(1)
        storage.write_block(2, b"\x00" * 512)
        delta = storage.counters.delta(before)
        assert delta.reads == 1
        assert delta.writes == 1

    def test_peek_does_not_count(self, storage):
        storage.peek_block(3)
        assert storage.counters.total_ops == 0
        assert len(storage.trace) == 0

    def test_trace_records_requests(self, storage):
        storage.read_block(5, stream="alice")
        storage.write_block(6, b"\x00" * 512, stream="bob")
        assert [e.op for e in storage.trace] == ["read", "write"]
        assert [e.index for e in storage.trace] == [5, 6]
        assert [e.stream for e in storage.trace] == ["alice", "bob"]

    def test_reset_counters_keeps_trace(self, storage):
        storage.read_block(0)
        storage.reset_counters()
        assert storage.counters.total_ops == 0
        assert len(storage.trace) == 1


class TestLatencyModel:
    def test_random_access_cost(self):
        model = DiskLatencyModel(seek_ms=8.0, rotational_ms=4.0, transfer_ms_per_block=0.1)
        assert model.cost_ms(None, 100) == pytest.approx(12.1)
        assert model.cost_ms(10, 500) == pytest.approx(12.1)

    def test_sequential_access_cost(self):
        model = DiskLatencyModel(seek_ms=8.0, rotational_ms=4.0, transfer_ms_per_block=0.1)
        assert model.cost_ms(99, 100) == pytest.approx(0.1)
        assert model.cost_ms(100, 100) == pytest.approx(0.1)

    def test_backwards_access_is_random(self):
        model = DiskLatencyModel()
        assert model.cost_ms(100, 99) == pytest.approx(model.random_access_ms)

    def test_zero_latency_model(self):
        model = ZeroLatencyModel()
        assert model.cost_ms(None, 5) == 0.0
        assert model.cost_ms(4, 5) == 0.0

    def test_sequential_reads_are_cheap_on_disk(self):
        storage = make_storage(timed=True)
        for index in range(100):
            storage.read_block(index)
        sequential_time = storage.clock_ms
        storage2 = make_storage(timed=True)
        for index in range(0, 500, 5):
            storage2.read_block(index)
        random_time = storage2.clock_ms
        assert sequential_time < random_time / 5

    def test_interleaved_streams_lose_sequentiality(self):
        storage = make_storage(timed=True)
        # One stream reading 0..49 sequentially.
        for index in range(50):
            storage.read_block(index, stream="a")
        single_time = storage.clock_ms
        storage2 = make_storage(timed=True)
        # Two interleaved streams reading far-apart extents.
        for index in range(50):
            storage2.read_block(index, stream="a")
            storage2.read_block(256 + index, stream="b")
        interleaved_time = storage2.clock_ms
        assert interleaved_time > 10 * single_time


class TestPartitions:
    def test_partition_translation(self, storage):
        partition = Partition(storage, start_block=100, num_blocks=50)
        partition.write_block(0, b"\xaa" * 512)
        assert storage.peek_block(100) == b"\xaa" * 512
        assert partition.read_block(0) == b"\xaa" * 512

    def test_partition_bounds(self, storage):
        partition = Partition(storage, start_block=100, num_blocks=50)
        with pytest.raises(BlockOutOfRangeError):
            partition.read_block(50)
        with pytest.raises(BlockOutOfRangeError):
            Partition(storage, start_block=500, num_blocks=50)

    def test_split_volume(self, storage):
        first, second = split_volume(storage, 200)
        assert first.num_blocks == 200
        assert second.num_blocks == storage.geometry.num_blocks - 200
        second.write_block(0, b"\xbb" * 512)
        assert storage.peek_block(200) == b"\xbb" * 512

    def test_split_volume_validation(self, storage):
        with pytest.raises(ValueError):
            split_volume(storage, 0)
        with pytest.raises(ValueError):
            split_volume(storage, storage.geometry.num_blocks)

    def test_raw_device_exposes_whole_volume(self, storage):
        device = RawDevice(storage)
        assert device.num_blocks == storage.geometry.num_blocks
        assert device.block_size == storage.geometry.block_size
        device.write_block(3, b"\xcc" * 512)
        assert device.peek_block(3) == b"\xcc" * 512


class TestBitmap:
    def test_set_get_clear(self):
        bitmap = Bitmap(100)
        assert not bitmap.get(10)
        bitmap.set(10)
        assert bitmap.get(10)
        bitmap.clear(10)
        assert not bitmap.get(10)

    def test_counts(self):
        bitmap = Bitmap(64)
        for index in range(10):
            bitmap.set(index)
        assert bitmap.set_count == 10
        assert bitmap.clear_count == 54

    def test_set_idempotent(self):
        bitmap = Bitmap(8)
        bitmap.set(1)
        bitmap.set(1)
        assert bitmap.set_count == 1

    def test_fill_constructor(self):
        bitmap = Bitmap(10, fill=True)
        assert bitmap.set_count == 10

    def test_iterators(self):
        bitmap = Bitmap(8)
        bitmap.set(2)
        bitmap.set(5)
        assert list(bitmap.iter_set()) == [2, 5]
        assert list(bitmap.iter_clear()) == [0, 1, 3, 4, 6, 7]

    def test_first_clear(self):
        bitmap = Bitmap(5)
        bitmap.set(0)
        bitmap.set(1)
        assert bitmap.first_clear() == 2
        for index in range(5):
            bitmap.set(index)
        assert bitmap.first_clear() is None

    def test_find_clear_run(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        assert bitmap.find_clear_run(3) == 0
        assert bitmap.find_clear_run(5) == 4
        assert bitmap.find_clear_run(7) is None

    def test_out_of_range(self):
        bitmap = Bitmap(4)
        with pytest.raises(BlockOutOfRangeError):
            bitmap.get(4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Bitmap(0)


class TestIoCounters:
    def test_totals(self):
        counters = IoCounters(reads=3, writes=2, read_time_ms=10.0, write_time_ms=5.0)
        assert counters.total_ops == 5
        assert counters.total_time_ms == 15.0
