"""I/O traces: the observable the traffic-analysis attacker works from.

Section 3.2.2 of the paper: the second group of attackers "are able to
observe the I/O requests between the agent and the storage, either from
the activity log or by trapping requests directly at runtime".  An
:class:`IoTrace` is exactly that activity log — a sequence of
(operation, block index, stream, timestamp) events with no plaintext and
no knowledge of the agent's internal state.

The log is stored **columnar**: parallel numpy arrays for the
operation code, block index and timestamp, plus an interned stream-id
table.  Appends fill fixed-size chunks, so growth never copies what
is already recorded and leaves at most one chunk of slack; the first
query after an append merges the chunks into exact-size columns (and
holds both until the merge ends).
Every query the attackers and figures run (`indices`,
`index_histogram`, `between`, `slice_by_stream`, ...) touches arrays,
not per-event Python objects, so million-event traces analyse in
milliseconds.  :class:`IoEvent` objects are materialised lazily — the
``events`` view, iteration and ``reads()``/``writes()`` build them on
demand — so existing per-event callers keep working unchanged.

Invariants (see EXPERIMENTS.md "Observability contract"):

* the trace is append-only; events are stored in arrival order;
* traces produced by the device layer are time-ordered (the simulated
  clock never runs backwards), which lets ``between`` binary-search;
  hand-built traces may be unordered and fall back to a mask scan with
  identical results;
* single-block and batched device paths append identical events;
* appends are serialized behind an internal lock and publish the new
  size *after* the rows are written, so an observer capturing from
  another thread (``TraceObserver`` under the concurrent engine) sees
  a consistent prefix of the trace — never a torn row.  Readers take
  no lock unless they find unmerged chunks, and merged columns are
  never written again.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

Operation = Literal["read", "write"]

#: Column codes for the two operations; ``op_column()`` yields these.
OP_READ = 0
OP_WRITE = 1

_OP_CODES = {"read": OP_READ, "write": OP_WRITE}
_OP_NAMES = ("read", "write")

#: Capacity of the first chunk; later chunks match the rows recorded so
#: far (doubling the total) until they reach ``_CHUNK_EVENTS``.
_INITIAL_CAPACITY = 1024
#: Largest chunk, in events (13 bytes each in a device trace).
_CHUNK_EVENTS = 1 << 16

#: Stream ids are uint16: a trace holds at most this many stream names.
MAX_STREAMS = 1 << 16

#: One chunk or the merged base: (ops, indices, times, stream ids).
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _empty_columns(capacity: int, index_dtype: type) -> _Columns:
    return (
        np.empty(capacity, dtype=np.uint8),
        np.empty(capacity, dtype=index_dtype),
        np.empty(capacity, dtype=np.float64),
        np.empty(capacity, dtype=np.uint16),
    )


@dataclass(frozen=True)
class IoEvent:
    """One observed I/O request between the agent and the raw storage."""

    op: Operation
    index: int
    time_ms: float
    stream: str = "default"


def _event_at(columns: _Columns, names: list[str], i: int) -> IoEvent:
    ops, indices, times, streams = columns
    return IoEvent(
        op=_OP_NAMES[ops[i]],
        index=int(indices[i]),
        time_ms=float(times[i]),
        stream=names[streams[i]],
    )


class _EventsView(Sequence):
    """Lazy, read-only sequence of :class:`IoEvent` over a trace's columns."""

    def __init__(self, trace: "IoTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, item):
        columns = self._trace._columns()
        names = self._trace._stream_names
        size = len(columns[0])
        if isinstance(item, slice):
            return [_event_at(columns, names, i) for i in range(*item.indices(size))]
        index = item + size if item < 0 else item
        if not 0 <= index < size:
            raise IndexError(f"event {item} out of range for trace of {size} events")
        return _event_at(columns, names, index)

    def __iter__(self) -> Iterator[IoEvent]:
        columns = self._trace._columns()
        names = self._trace._stream_names
        for i in range(len(columns[0])):
            yield _event_at(columns, names, i)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_EventsView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class IoTrace:
    """An append-only columnar log of I/O events, with vectorized queries.

    ``index_dtype`` is the block-index column's integer type.  The
    default int64 holds any index a hand-built trace may use; a device
    passes the narrowest type that holds its block count (int16 up to
    32768 blocks).  Recording an index outside the type's range, or a
    stream name past the ``MAX_STREAMS``-th, raises ``ValueError``
    and records nothing.
    """

    def __init__(self, events: Iterable[IoEvent] | None = None, *, index_dtype: type = np.int64):
        info = np.iinfo(index_dtype)
        self._index_dtype = index_dtype
        self._index_range = (int(info.min), int(info.max))
        # Rows [0, len(base)) sit merged in ``_base``, which is never
        # written again; later rows fill ``_chunks`` in order, every
        # chunk full except the last, which starts at row ``_tail_start``.
        self._base = _empty_columns(0, index_dtype)
        self._chunks: list[_Columns] = []
        self._tail_start = 0
        self._size = 0
        self._last_time = 0.0
        self._stream_ids: dict[str, int] = {}
        self._stream_names: list[str] = []
        self._time_sorted = True
        # Serializes mutators and merges.  Readers snapshot ``_size``
        # first and then slice merged columns, and every append writes
        # its rows before publishing the grown size, so a concurrent
        # reader sees a consistent (possibly slightly stale) prefix.
        self._append_lock = threading.Lock()
        if events is not None:
            self.extend(events)

    # -- appending ---------------------------------------------------------------

    def _intern(self, stream: str) -> int:
        """The stream's id, assigned on first sight (lock held)."""
        code = self._stream_ids.get(stream)
        if code is None:
            code = len(self._stream_names)
            if code >= MAX_STREAMS:
                raise ValueError(f"a trace holds at most {MAX_STREAMS} stream names")
            self._stream_ids[stream] = code
            self._stream_names.append(stream)
        return code

    def _check_indices(self, low: int, high: int) -> None:
        """Raise unless the index column's type holds ``low`` and ``high``."""
        bottom, top = self._index_range
        if low < bottom or high > top:
            raise ValueError(
                f"block index outside [{bottom}, {top}], the range of this trace's "
                f"{np.dtype(self._index_dtype).name} index column"
            )

    def _merge(self) -> _Columns:
        """Fold the chunks into exact-size merged columns (lock held)."""
        if self._chunks:
            fill = self._size - self._tail_start
            last = tuple(column[:fill] for column in self._chunks[-1])
            parts = [self._base, *self._chunks[:-1], last]
            ops, indices, times, streams = (
                np.concatenate(columns) for columns in zip(*parts, strict=True)
            )
            self._base = (ops, indices, times, streams)
            self._chunks = []
        return self._base

    def _reserve(self, row: int) -> tuple[_Columns, int, int]:
        """The chunk holding ``row``, the row's offset in it and the room left there.

        Called with the lock held, for the next unwritten row.
        """
        if self._chunks:
            chunk = self._chunks[-1]
            offset = row - self._tail_start
            if offset < len(chunk[0]):
                return chunk, offset, len(chunk[0]) - offset
        capacity = min(_CHUNK_EVENTS, max(_INITIAL_CAPACITY, row))
        chunk = _empty_columns(capacity, self._index_dtype)
        self._chunks.append(chunk)
        self._tail_start = row
        return chunk, 0, capacity

    def _append(self, count: int, values: tuple) -> None:
        """Write ``count`` rows, then publish them (lock held).

        ``values`` holds, per column, an array of ``count`` entries or
        one scalar shared by every row.
        """
        n = self._size
        done = 0
        while done < count:
            (ops, indices, times, streams), offset, room = self._reserve(n + done)
            take = min(room, count - done)
            part = values
            if take != count:
                part = tuple(
                    value[done : done + take] if isinstance(value, np.ndarray) else value
                    for value in values
                )
            end = offset + take
            ops[offset:end], indices[offset:end], times[offset:end], streams[offset:end] = part
            done += take
        self._size = n + count

    def _note_times(self, first: float, last: float, sorted_within: bool) -> None:
        """Track time order for ``between`` ahead of an append (lock held)."""
        if self._time_sorted and (not sorted_within or (self._size and first < self._last_time)):
            self._time_sorted = False
        self._last_time = last

    def record(self, op: Operation, index: int, time_ms: float, stream: str = "default") -> None:
        """Append one event (O(1), thread-safe)."""
        self._check_indices(index, index)
        with self._append_lock:
            code = self._intern(stream)
            n = self._size
            (ops, indices, times, streams), offset, _ = self._reserve(n)
            ops[offset] = _OP_CODES[op]
            indices[offset] = index
            times[offset] = time_ms
            streams[offset] = code
            self._note_times(time_ms, time_ms, True)
            self._size = n + 1

    def record_many(
        self,
        op: Operation | Sequence[Operation] | np.ndarray,
        indices: Sequence[int] | np.ndarray,
        times_ms: Sequence[float] | np.ndarray,
        stream: str | Sequence[str] = "default",
    ) -> None:
        """Append a batch of events in one columnar write (thread-safe).

        ``op`` is either one operation name shared by the whole batch, a
        sequence of names, or a ready-made array of ``OP_READ``/``OP_WRITE``
        codes.  ``stream`` is one name shared by the whole batch or a
        sequence of per-event names (the concurrent engine batches
        adjacent requests of different sessions into one device call
        while keeping per-session trace attribution).  Equivalent to a
        loop of :meth:`record` over the batch, only faster.
        """
        index_column = np.asarray(indices, dtype=np.int64)
        time_column = np.asarray(times_ms, dtype=np.float64)
        count = index_column.size
        if time_column.size != count:
            raise ValueError(f"{count} indices but {time_column.size} timestamps")
        if isinstance(op, str):
            op_column: np.ndarray | int = _OP_CODES[op]
        else:
            if isinstance(op, np.ndarray):
                op_column = op
                if not np.issubdtype(op_column.dtype, np.integer):
                    raise ValueError("op codes must be an integer array")
                if op_column.size and not ((op_column >= OP_READ) & (op_column <= OP_WRITE)).all():
                    raise ValueError("op codes must be OP_READ or OP_WRITE")
            else:
                op_column = np.fromiter((_OP_CODES[o] for o in op), dtype=np.uint8, count=len(op))
            if op_column.size != count:
                raise ValueError(f"{count} indices but {op_column.size} operations")
        if not isinstance(stream, str) and len(stream) != count:
            raise ValueError(f"{count} indices but {len(stream)} streams")
        if count == 0:
            return
        self._check_indices(int(index_column.min()), int(index_column.max()))
        ascending = bool(np.all(time_column[1:] >= time_column[:-1]))
        with self._append_lock:
            if isinstance(stream, str):
                stream_column: np.ndarray | int = self._intern(stream)
            else:
                stream_column = np.fromiter(
                    (self._intern(name) for name in stream), dtype=np.uint16, count=count
                )
            self._note_times(time_column[0], time_column[-1], ascending)
            self._append(count, (op_column, index_column, time_column, stream_column))

    def extend(self, other: "IoTrace" | Iterable[IoEvent]) -> None:
        """Append events from another trace (column-wise when possible)."""
        if isinstance(other, IoTrace):
            ops, indices, times, streams = other._columns()
            if ops.size == 0:
                return
            names = list(other._stream_names)
            self._check_indices(int(indices.min()), int(indices.max()))
            with self._append_lock:
                remap = np.fromiter(
                    (self._intern(name) for name in names), dtype=np.uint16, count=len(names)
                )
                self._note_times(times[0], times[-1], other._time_sorted)
                self._append(ops.size, (ops, indices, times, remap[streams]))
            return
        for event in other:
            self.record(event.op, event.index, event.time_ms, event.stream)

    def clear(self) -> None:
        """Drop all recorded events.

        Fresh columns are allocated rather than reused, so any column
        view handed out before the clear keeps its (frozen) contents
        instead of silently changing under the caller.
        """
        with self._append_lock:
            self._base = _empty_columns(0, self._index_dtype)
            self._chunks = []
            self._size = 0
            self._time_sorted = True

    # -- merged columns ----------------------------------------------------------

    def _columns(self) -> _Columns:
        """The columns of every recorded row, merging pending chunks first.

        Lock-free when nothing is pending: the size is read before the
        columns, and merged columns hold at least that many rows.
        """
        n = self._size
        base = self._base
        if len(base[0]) < n:
            with self._append_lock:
                base = self._merge()
        ops, indices, times, streams = base
        return ops[:n], indices[:n], times[:n], streams[:n]

    # -- event (row) views --------------------------------------------------------

    @property
    def events(self) -> _EventsView:
        """Lazy sequence view materialising :class:`IoEvent` rows on demand."""
        return _EventsView(self)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[IoEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if isinstance(other, IoTrace):
            mine, theirs = self._columns(), other._columns()
            return (
                all(np.array_equal(a, b) for a, b in zip(mine[:3], theirs[:3], strict=True))
                and [self._stream_names[c] for c in mine[3]]
                == [other._stream_names[c] for c in theirs[3]]
            )
        return NotImplemented

    # -- columnar accessors (attacker analytics consume these directly) -----------

    def op_column(self) -> np.ndarray:
        """Operation codes (``OP_READ``/``OP_WRITE``) in arrival order."""
        return _readonly(self._columns()[0])

    def index_column(self, op: Operation | None = None) -> np.ndarray:
        """Block indices (int64) in arrival order, optionally filtered by operation.

        Unfiltered, the column is read-only: a view of an int64 trace's
        column, or an int64 copy of a narrower one.
        """
        ops, indices, _, _ = self._columns()
        if op is None:
            return _readonly(indices.astype(np.int64, copy=False))
        return indices[ops == _OP_CODES[op]].astype(np.int64, copy=False)

    def time_column(self) -> np.ndarray:
        """Timestamps (ms) in arrival order."""
        return _readonly(self._columns()[2])

    def stream_codes(self) -> np.ndarray:
        """Interned stream ids in arrival order (see :meth:`stream_names`)."""
        return _readonly(self._columns()[3])

    @property
    def stream_names(self) -> list[str]:
        """Stream-id table: ``stream_names[code]`` is the stream string."""
        return list(self._stream_names)

    @classmethod
    def _from_columns(cls, columns: _Columns, stream_names: list[str]) -> "IoTrace":
        ops, indices, times, _ = columns
        trace = cls(index_dtype=indices.dtype.type)
        # Exact-size columns with no headroom (selections are often
        # small or empty).  Slice views are kept without copying: merged
        # columns are never written again, and appends go to new chunks.
        trace._base = columns
        trace._stream_names = list(stream_names)
        trace._stream_ids = {name: code for code, name in enumerate(stream_names)}
        trace._size = len(ops)
        if trace._size:
            trace._last_time = float(times[-1])
        trace._time_sorted = trace._size < 2 or bool(np.all(np.diff(times) >= 0))
        return trace

    def _select(self, columns: _Columns, selection: np.ndarray | slice) -> "IoTrace":
        # ``columns`` pins the prefix a boolean mask was built against;
        # a concurrent append cannot make the lengths disagree.
        ops, indices, times, streams = columns
        return IoTrace._from_columns(
            (ops[selection], indices[selection], times[selection], streams[selection]),
            self._stream_names,
        )

    # -- queries used by attackers and analysis --------------------------------

    def _events_where(self, op: Operation) -> list[IoEvent]:
        columns = self._columns()
        return [
            _event_at(columns, self._stream_names, i)
            for i in np.flatnonzero(columns[0] == _OP_CODES[op])
        ]

    def reads(self) -> list[IoEvent]:
        """All read events in order."""
        return self._events_where("read")

    def writes(self) -> list[IoEvent]:
        """All write events in order."""
        return self._events_where("write")

    def indices(self, op: Operation | None = None) -> list[int]:
        """Block indices touched, optionally filtered by operation."""
        return self.index_column(op).tolist()

    def index_histogram(self, op: Operation | None = None) -> Counter:
        """How many times each block index was touched."""
        touched = self.index_column(op)
        if touched.size == 0:
            return Counter()
        # bincount allocates max(index)+1 slots — only worth it when the
        # index range is comparable to the event count (the device case).
        # Sparse or negative hand-built indices go through unique instead.
        if touched.min() >= 0 and touched.max() <= 4 * touched.size + 1024:
            counts = np.bincount(touched)
            hot = np.flatnonzero(counts)
            return Counter(dict(zip(hot.tolist(), counts[hot].tolist(), strict=True)))
        values, counts = np.unique(touched, return_counts=True)
        return Counter(dict(zip(values.tolist(), counts.tolist(), strict=True)))

    def touched_blocks(self, op: Operation | None = None) -> set[int]:
        """The set of distinct block indices touched."""
        return set(np.unique(self.index_column(op)).tolist())

    def slice_by_stream(self, stream: str) -> "IoTrace":
        """Events belonging to one request stream."""
        code = self._stream_ids.get(stream)
        if code is None:
            return IoTrace()
        columns = self._columns()
        return self._select(columns, columns[3] == code)

    def between(self, start_ms: float, end_ms: float) -> "IoTrace":
        """Events with timestamps in [start_ms, end_ms)."""
        columns = self._columns()
        times = columns[2]
        if self._time_sorted:
            lo = int(np.searchsorted(times, start_ms, side="left"))
            hi = int(np.searchsorted(times, end_ms, side="left"))
            return self._select(columns, slice(lo, max(lo, hi)))
        return self._select(columns, (times >= start_ms) & (times < end_ms))

    def since(self, mark: int) -> "IoTrace":
        """Events recorded at positions ``mark`` onwards (observer windows)."""
        return self._select(self._columns(), slice(max(0, mark), None))


def _readonly(column: np.ndarray) -> np.ndarray:
    view = column[:]
    view.flags.writeable = False
    return view
