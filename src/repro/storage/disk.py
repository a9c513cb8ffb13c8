"""The simulated raw block device.

This is the substitute for the paper's physical disk (Table 1).  It
charges access latency through a pluggable
:class:`~repro.storage.latency.DiskLatencyModel`, counts I/O operations,
and records every request into an
:class:`~repro.storage.trace.IoTrace` so that attackers can observe the
same things they could observe against the real system.  The block bytes
themselves live behind a pluggable
:class:`~repro.storage.backend.BlockBackend`: in memory by default, or a
durable memory-mapped volume file
(:class:`~repro.storage.backend.MmapFileBackend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import (
    BackendClosedError,
    BlockOutOfRangeError,
    BlockSizeMismatchError,
    VolumeFileError,
)
from repro.storage.backend import BlockBackend, MemoryBackend
from repro.storage.latency import DiskLatencyModel
from repro.storage.trace import OP_READ, OP_WRITE, IoTrace

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def _index_array(indices: Iterable[int]) -> np.ndarray:
    """Block indices as an int64 array (shared by the batched paths)."""
    if isinstance(indices, np.ndarray):
        return indices.astype(np.int64, copy=False)
    return np.fromiter(indices, dtype=np.int64)


def _sequential_sum(initial: float, costs: np.ndarray) -> float:
    """Accumulate ``costs`` onto ``initial`` with the same floating-point
    rounding as the single-block ``total += cost`` loop (cumsum is the
    identical left-to-right recurrence), keeping counters bit-exact."""
    return float(np.cumsum(np.concatenate(((initial,), costs)))[-1])


@dataclass(frozen=True)
class StorageGeometry:
    """Size parameters of a raw storage volume.

    The paper's workload (Table 2) uses 4 KB blocks on a 1 GB volume;
    benchmarks scale the volume down while keeping the block size.
    """

    block_size: int = 4 * KIB
    num_blocks: int = (1 * GIB) // (4 * KIB)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of the volume in bytes."""
        return self.block_size * self.num_blocks

    @classmethod
    def from_capacity(cls, capacity_bytes: int, block_size: int = 4 * KIB) -> "StorageGeometry":
        """Build a geometry holding at least ``capacity_bytes``.

        A capacity that is not a multiple of the block size rounds *up*
        to the next whole block, so the volume always honours the
        "at least" contract.  A non-positive capacity is a caller bug
        (it used to be silently clamped to one block) and raises.
        """
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        num_blocks = -(-capacity_bytes // block_size)
        return cls(block_size=block_size, num_blocks=num_blocks)


@dataclass
class IoCounters:
    """Aggregate I/O accounting maintained by :class:`RawStorage`."""

    reads: int = 0
    writes: int = 0
    read_time_ms: float = 0.0
    write_time_ms: float = 0.0

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_time_ms(self) -> float:
        return self.read_time_ms + self.write_time_ms

    def snapshot(self) -> "IoCounters":
        """An independent copy, useful for measuring deltas."""
        return IoCounters(self.reads, self.writes, self.read_time_ms, self.write_time_ms)

    def delta(self, earlier: "IoCounters") -> "IoCounters":
        """Counters accumulated since ``earlier`` was captured."""
        return IoCounters(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            read_time_ms=self.read_time_ms - earlier.read_time_ms,
            write_time_ms=self.write_time_ms - earlier.write_time_ms,
        )


class RawStorage:
    """In-memory simulated block device with latency accounting.

    Parameters
    ----------
    geometry:
        Block size and block count.
    latency:
        Latency model; defaults to a paper-era ATA disk.
    trace:
        Optional trace to record requests into; when omitted, a fresh
        one is created with an int16 index column (int32 past 32768
        blocks).
    backend:
        Block backend owning the bytes; defaults to a fresh
        :class:`~repro.storage.backend.MemoryBackend` (the historical,
        volatile behaviour).  Must match ``geometry``.
    """

    def __init__(
        self,
        geometry: StorageGeometry,
        latency: DiskLatencyModel | None = None,
        trace: IoTrace | None = None,
        backend: BlockBackend | None = None,
    ):
        self.geometry = geometry
        self.latency = latency if latency is not None else DiskLatencyModel()
        if trace is None:
            index_dtype = np.int16 if geometry.num_blocks <= 1 << 15 else np.int32
            trace = IoTrace(index_dtype=index_dtype)
        self.trace = trace
        self.counters = IoCounters()
        self.clock_ms = 0.0
        if backend is None:
            backend = MemoryBackend(geometry.block_size, geometry.num_blocks)
        elif (
            backend.block_size != geometry.block_size
            or backend.num_blocks != geometry.num_blocks
        ):
            raise VolumeFileError(
                f"backend of {backend.num_blocks} x {backend.block_size}-byte blocks "
                f"does not match geometry of {geometry.num_blocks} x "
                f"{geometry.block_size}-byte blocks"
            )
        self.backend = backend
        # The disk has a single head: sequentiality is judged against the
        # last accessed block regardless of which request stream touched it.
        # This is what makes interleaved multi-user workloads lose the
        # sequential-I/O advantage (Figures 10(b) and 11(c)).
        self._head_position: int | None = None

    # -- initialisation --------------------------------------------------------

    def fill_random(self, seed: int = 0) -> None:
        """Fill the whole volume with pseudo-random bytes.

        The paper initialises a StegFS volume by filling blocks with
        random data so that abandoned blocks, dummy blocks and encrypted
        data blocks are indistinguishable.  A numpy generator is used
        because the volume can be hundreds of megabytes.
        """
        self._check_open()
        self.backend.fill_random(seed)

    # -- block access ----------------------------------------------------------

    def _check_open(self) -> None:
        """Fail fast — and before any accounting — once the backend is closed.

        Without this, a request against a closed volume would bump the
        counters, advance the clock and append a trace event before the
        backend finally raised, leaving phantom I/O in the observable
        record.
        """
        if self.backend.closed:
            raise BackendClosedError("storage volume is closed")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.geometry.num_blocks:
            raise BlockOutOfRangeError(
                f"block {index} outside volume of {self.geometry.num_blocks} blocks"
            )

    def _charge(self, index: int, stream: str) -> float:
        cost = self.latency.cost_ms(self._head_position, index)
        self._head_position = index
        self.clock_ms += cost
        return cost

    def read_block(self, index: int, stream: str = "default") -> bytes:
        """Read one block, charging latency and recording the request."""
        self._check_open()
        self._check_index(index)
        cost = self._charge(index, stream)
        self.counters.reads += 1
        self.counters.read_time_ms += cost
        self.trace.record("read", index, self.clock_ms, stream)
        return self.backend.read(index)

    def write_block(self, index: int, data: bytes, stream: str = "default") -> None:
        """Write one block, charging latency and recording the request."""
        self._check_open()
        self._check_index(index)
        if len(data) != self.geometry.block_size:
            raise BlockSizeMismatchError(
                f"write of {len(data)} bytes to a {self.geometry.block_size}-byte block"
            )
        cost = self._charge(index, stream)
        self.counters.writes += 1
        self.counters.write_time_ms += cost
        self.trace.record("write", index, self.clock_ms, stream)
        self.backend.write(index, data)

    # -- batched block access ---------------------------------------------------
    #
    # The batched calls are *observationally identical* to a loop of the
    # single-block calls above: every block is charged latency against the
    # shared head position, bumps the same counters and clock, and records
    # the same trace event with the same timestamp.  Only the wall-clock
    # cost changes — latency is computed vectorized (sequential vs random
    # from an index-diff), trace rows append in one columnar write, and
    # the data moves through numpy in one gather/scatter instead of one
    # Python-level copy per block.  Unlike the single-block loop, all
    # indices (and data sizes) are validated up-front, so a failed batched
    # call leaves no partial side effects behind.
    #
    # ``stream`` may be a single name shared by the whole batch or a
    # sequence of per-block names: the concurrent serving engine coalesces
    # adjacent requests of *different* sessions into one batched call while
    # keeping per-session trace attribution intact.

    def _check_batch(
        self,
        indices: np.ndarray,
        datas: Sequence[bytes] | None,
        streams: str | Sequence[str] = "",
    ) -> None:
        if not isinstance(streams, str) and len(streams) != indices.size:
            raise ValueError(f"{indices.size} indices but {len(streams)} streams")
        if indices.size:
            bad = (indices < 0) | (indices >= self.geometry.num_blocks)
            if bad.any():
                raise BlockOutOfRangeError(
                    f"block {int(indices[bad][0])} outside volume of "
                    f"{self.geometry.num_blocks} blocks"
                )
        if datas is not None:
            if len(datas) != indices.size:
                raise ValueError(
                    f"{indices.size} indices but {len(datas)} data blocks"
                )
            for data in datas:
                if len(data) != self.geometry.block_size:
                    raise BlockSizeMismatchError(
                        f"write of {len(data)} bytes to a "
                        f"{self.geometry.block_size}-byte block"
                    )

    def _charge_many(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_charge` over a batch: per-block costs and the
        per-block clock timestamps, advancing head position and clock."""
        costs = self.latency.cost_ms_many(self._head_position, indices)
        times = np.cumsum(np.concatenate(((self.clock_ms,), costs)))[1:]
        self.clock_ms = float(times[-1])
        self._head_position = int(indices[-1])
        return costs, times

    def read_blocks(
        self, indices: Iterable[int], stream: str | Sequence[str] = "default"
    ) -> list[bytes]:
        """Read many blocks in one call; equivalent to a loop of :meth:`read_block`."""
        self._check_open()
        indices = _index_array(indices)
        self._check_batch(indices, None, stream)
        if indices.size == 0:
            return []
        costs, times = self._charge_many(indices)
        self.counters.reads += indices.size
        self.counters.read_time_ms = _sequential_sum(self.counters.read_time_ms, costs)
        self.trace.record_many("read", indices, times, stream)
        return self.backend.read_many(indices)

    def write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes],
        stream: str | Sequence[str] = "default",
    ) -> None:
        """Write many blocks in one call; equivalent to a loop of :meth:`write_block`."""
        self._check_open()
        indices = _index_array(indices)
        datas = list(datas)
        self._check_batch(indices, datas, stream)
        if indices.size == 0:
            return
        costs, times = self._charge_many(indices)
        self.counters.writes += indices.size
        self.counters.write_time_ms = _sequential_sum(self.counters.write_time_ms, costs)
        self.trace.record_many("write", indices, times, stream)
        self.backend.write_many(indices, datas)

    def read_write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes] | None = None,
        stream: str | Sequence[str] = "default",
        write_indices: Iterable[int] | None = None,
    ) -> None:
        """Charge an interleaved read+write *cycle* per entry, in one call.

        Equivalent to ``for r, w, d in zip(indices, write_indices,
        datas): read_block(r); write_block(w, d)`` with the read results
        discarded.  ``write_indices`` defaults to ``indices`` — the
        historical rewrite-in-place shape; a Figure-6 swap passes the
        update's target as the write index instead.  ``stream`` may be
        one name or a per-cycle sequence (both events of a cycle carry
        its label), which is what keeps per-session trace attribution
        intact when the concurrent engine fuses cycles across sessions.
        When ``datas`` is None every block is rewritten with its current
        content — a pure charging pass, which is what the oblivious
        store's non-final merge-sort passes need.

        Every batch takes the single vectorized path, even when cycles
        share blocks: the accounting depends only on the access order,
        the reads return nothing, and the backend applies repeated write
        targets in order, so the last writer wins exactly as in the loop.
        """
        self._check_open()
        read_idx = _index_array(indices)
        if datas is not None:
            datas = list(datas)
        if write_indices is None:
            write_idx = read_idx
        else:
            if datas is None:
                raise ValueError("write_indices requires datas")
            write_idx = _index_array(write_indices)
            if write_idx.size != read_idx.size:
                raise ValueError(
                    f"{read_idx.size} read indices but {write_idx.size} write indices"
                )
        self._check_batch(read_idx, None, stream)
        self._check_batch(write_idx, datas)
        if read_idx.size == 0:
            return
        # The head serves each cycle as two back-to-back accesses: read
        # the source, write the target.
        accesses = np.empty(read_idx.size * 2, dtype=np.int64)
        accesses[0::2] = read_idx
        accesses[1::2] = write_idx
        costs, times = self._charge_many(accesses)
        self.counters.reads += read_idx.size
        self.counters.writes += write_idx.size
        self.counters.read_time_ms = _sequential_sum(self.counters.read_time_ms, costs[0::2])
        self.counters.write_time_ms = _sequential_sum(self.counters.write_time_ms, costs[1::2])
        op_codes = np.tile(np.array([OP_READ, OP_WRITE], dtype=np.uint8), read_idx.size)
        event_streams: str | list[str] = stream
        if not isinstance(stream, str):
            event_streams = [label for label in stream for _ in range(2)]
        self.trace.record_many(op_codes, accesses, times, event_streams)
        if datas is not None:
            self.backend.write_many(write_idx, datas)

    def peek_block(self, index: int) -> bytes:
        """Read block bytes *without* charging latency or recording a request.

        This models an attacker scanning a snapshot of the raw device, or
        internal bookkeeping that would not generate device I/O; regular
        file-system code paths must use :meth:`read_block`.
        """
        self._check_open()
        self._check_index(index)
        return self.backend.read(index)

    def peek_blocks(self, indices: Iterable[int]) -> list[bytes]:
        """Batched :meth:`peek_block`: many blocks' bytes in one uncharged backend call.

        The reseal executor fetches a run's blocks this way and then
        charges the run's reads and writes in one accounting call.
        """
        self._check_open()
        indices = _index_array(indices)
        self._check_batch(indices, None)
        return self.backend.read_many(indices) if indices.size else []

    def raw_bytes(self) -> bytes:
        """A copy of the whole volume (used by snapshots)."""
        self._check_open()
        return self.backend.raw_bytes()

    # -- durability --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the backend has been closed."""
        return self.backend.closed

    def flush(self) -> None:
        """Push pending bytes to durable storage (a no-op for memory backends)."""
        self._check_open()
        self.backend.flush()

    def close(self) -> None:
        """Close the backend; later block access raises ``BackendClosedError``.

        Closing is idempotent.  The accounting half (counters, clock,
        trace) stays readable — an experiment can analyse its trace
        after the volume is closed.
        """
        if not self.backend.closed:
            self.backend.close()

    def __enter__(self) -> "RawStorage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- bookkeeping ------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the I/O counters and the clock (the trace is left intact)."""
        self.counters = IoCounters()
        self.clock_ms = 0.0
        self._head_position = None

    def reset_head_position(self) -> None:
        """Forget the head position (forces the next access to pay a full seek)."""
        self._head_position = None
