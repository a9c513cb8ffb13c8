"""In-memory span recorder, and the wrappers that time each layer from outside.

The program's source is not touched: :class:`Instrumentation` replaces a
layer's public functions with timing wrappers for the traced phase of a
run and puts the originals back afterwards.  Where a module imports a
function by name (``repro.core.agent`` imports ``execute_plan``,
``repro.service.concurrent`` imports ``fuse`` and ``execute_runs``), the
wrapper goes on that module's binding, because that is the name the
caller looks up.

Each span has a name (its layer), a detail (the function), a start, an
end, a parent and a thread; every span of one operation carries the id
of that operation's root span.  Spans nest per thread, so a layer's
self time is its span's duration minus the time its child spans cover.
Aggregates are kept per thread and per (layer, parent layer) pair, which
is all the per-layer metrics need; full span records are kept only when
the run writes them out, up to a cap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core import agent as agent_module
from repro.core import plan as plan_module
from repro.core.agent import StegAgent
from repro.core.journal import JournalBackend
from repro.core.oblivious.reader import ObliviousReader
from repro.core.oblivious.store import ObliviousStore
from repro.crypto.cipher import FastFieldCipher
from repro.crypto.prng import Sha256Prng
from repro.service import concurrent as concurrent_module
from repro.service.concurrent import ConcurrentSession
from repro.service.facade import Session
from repro.storage.backend import MemoryBackend, MmapFileBackend
from repro.storage.disk import RawStorage
from repro.storage.trace import IoTrace


#: Matches any parent layer in :meth:`SpanRecorder.calls` and ``inclusive_ms``.
ANY = object()


class _Frame:
    __slots__ = ("name", "detail", "start", "child", "span_id", "parent_id", "op_id", "nested")

    def __init__(self, name, detail, start, span_id, parent):
        self.name = name
        self.detail = detail
        self.start = start
        self.child = 0
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else 0
        self.op_id = parent.op_id if parent is not None else span_id
        # True for a call made from inside the same layer (a cipher's
        # decrypt calling its encrypt): it is not a call into the layer.
        self.nested = parent is not None and parent.name == name


class _ThreadState:
    __slots__ = ("ident", "stack", "agg", "counts")

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[_Frame] = []
        # (layer, parent layer or None) -> [calls, inclusive ns, self ns]
        self.agg: dict[tuple[str, str | None], list[int]] = {}
        self.counts: dict[str, int] = defaultdict(int)


class SpanRecorder:
    """Collects spans in memory; aggregates per thread, keeps up to ``retain`` records."""

    def __init__(self, retain: int = 0):
        self.enabled = False
        self.retain = retain
        self.records: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str, detail: str = "") -> _Frame:
        stack = self._state().stack
        frame = _Frame(
            name, detail, time.perf_counter_ns(), next(self._ids), stack[-1] if stack else None
        )
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        state = self._local.state
        stack = state.stack
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        key = (frame.name, parent.name if parent is not None else None)
        agg = state.agg.get(key)
        if agg is None:
            agg = state.agg[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame.child
        if parent is not None:
            parent.child += duration
        if self.retain:
            if len(self.records) < self.retain:
                self.records.append(
                    (frame.span_id, frame.parent_id, frame.op_id, state.ident,
                     frame.name, frame.detail, frame.start, end)
                )
            else:
                self.dropped += 1

    @contextmanager
    def paused(self):
        """Record nothing inside the block (set-up and checks inside a traced phase)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def add(self, counter: str, value: int) -> None:
        """Add to a per-thread work counter (bytes, blocks, runs, ...)."""
        self._state().counts[counter] += value

    # -- summaries (read after the traced phase, with every thread joined) --------

    def _merged(self, client: bool | None = None) -> dict[tuple[str, str | None], list[int]]:
        merged: dict[tuple[str, str | None], list[int]] = defaultdict(lambda: [0, 0, 0])
        for state in self._states:
            if client is not None and self._is_client(state) != client:
                continue
            for key, (calls, incl, own) in state.agg.items():
                total = merged[key]
                total[0] += calls
                total[1] += incl
                total[2] += own
        return merged

    @staticmethod
    def _is_client(state: _ThreadState) -> bool:
        return ("op", None) in state.agg

    def _into(self, column: int, name: str, parent) -> int:
        return sum(
            v[column] for (n, p), v in self._merged().items()
            if n == name and p != name and (parent is ANY or p == parent)
        )

    def calls(self, name: str, parent=ANY) -> int:
        """Calls into layer ``name`` from another layer (or from ``parent`` only)."""
        return self._into(0, name, parent)

    def inclusive_ms(self, name: str, parent=ANY) -> float:
        """Wall time inside calls into layer ``name``, children included."""
        return self._into(1, name, parent) / 1e6

    def self_ms(self, name: str) -> float:
        """Time spent in layer ``name`` itself, its callees' spans excluded."""
        return sum(v[2] for (n, _), v in self._merged().items() if n == name) / 1e6

    def count(self, counter: str) -> int:
        return sum(state.counts.get(counter, 0) for state in self._states)

    def client_self_ms(self) -> float:
        """Self time of every span on the client threads (they sum to the ops' wall time)."""
        return sum(v[2] for v in self._merged(client=True).values()) / 1e6

    def background_root_ms(self) -> float:
        """Time inside top-level spans on non-client threads (the engine's scheduler)."""
        return sum(v[1] for (_, p), v in self._merged(client=False).items() if p is None) / 1e6

    def write_jsonl(self, path: str) -> None:
        fields = ("id", "parent", "op", "thread", "name", "detail", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(dict(zip(fields, record, strict=True))) + "\n")


# -- work counters, run after the wrapped call returns --------------------------------


def _count_fuse(rec, frame, args, kwargs, runs):
    rec.add("plan.plans", len(args[0]))
    rec.add("plan.runs", len(runs))
    rec.add("plan.steps", sum(len(run.steps) for run in runs))
    rec.add(
        "plan.strict_reseal_steps",
        sum(len(run.steps) for run in runs if run.kind == plan_module.KIND_RESEAL),
    )


def _count_cipher_one(rec, frame, args, kwargs, result):
    rec.add("cipher.blocks", 1)
    rec.add("cipher.bytes", len(args[2]))


def _count_cipher_many(rec, frame, args, kwargs, result):
    rec.add("cipher.blocks", len(args[2]))
    rec.add("cipher.bytes", sum(len(data) for data in args[2]))


def _count_blocks(per_index: int):
    def count(rec, frame, args, kwargs, result):
        rec.add("disk.blocks", per_index * len(args[1]))

    return count


def _count_disk_one(rec, frame, args, kwargs, result):
    rec.add("disk.blocks", 1)


def _count_backend_write(rec, frame, args, kwargs, result):
    rec.add("backend.bytes_written", len(args[2]))


def _count_backend_write_many(rec, frame, args, kwargs, result):
    rec.add("backend.bytes_written", sum(len(data) for data in args[2]))


def _count_backend_flush(rec, frame, args, kwargs, result):
    rec.add("backend.flushes", 1)


_BACKEND_FUNCTIONS = {
    "read": None,
    "write": _count_backend_write,
    "read_many": None,
    "write_many": _count_backend_write_many,
    "flush": _count_backend_flush,
}

#: owner, {function name: work counter or None}, layer name.  This table is
#: the layer map of the README: one row per layer boundary that is timed.
LAYER_MAP = [
    (Session, dict.fromkeys(["read", "write", "plan_read", "plan_write"]), "service"),
    (ConcurrentSession, dict.fromkeys(["read", "write"]), "engine"),
    (
        StegAgent,
        dict.fromkeys([
            "read_block", "read_blocks", "plan_read_blocks", "update_block", "update_range",
            "plan_update_range", "dummy_update", "dummy_update_batch",
            "plan_dummy_update_batch", "save_file", "plan_save_file",
        ]),
        "agent",
    ),
    (agent_module, {"execute_plan": None}, "plan.execute"),
    (plan_module, {"execute_runs": None}, "plan.execute"),
    (concurrent_module, {"execute_runs": None}, "plan.execute"),
    (plan_module, {"fuse": _count_fuse}, "plan.fuse"),
    (concurrent_module, {"fuse": _count_fuse}, "plan.fuse"),
    (
        Sha256Prng,
        dict.fromkeys([
            "random_bytes", "randrange", "randint", "choice", "shuffle", "sample", "random",
            "permutation",
        ]),
        "prng",
    ),
    (
        FastFieldCipher,
        {
            "encrypt": _count_cipher_one,
            "decrypt": _count_cipher_one,
            "encrypt_many": _count_cipher_many,
            "decrypt_many": _count_cipher_many,
        },
        "cipher",
    ),
    (
        RawStorage,
        {
            "read_block": _count_disk_one,
            "write_block": _count_disk_one,
            "read_blocks": _count_blocks(1),
            "write_blocks": _count_blocks(1),
            "read_write_blocks": _count_blocks(2),
        },
        "disk",
    ),
    (IoTrace, dict.fromkeys(["record", "record_many"]), "trace"),
    (MemoryBackend, _BACKEND_FUNCTIONS, "backend"),
    (MmapFileBackend, _BACKEND_FUNCTIONS, "backend"),
    (JournalBackend, {"record": None}, "journal.record"),
    (JournalBackend, {"mark_committed": None}, "journal.commit"),
    (JournalBackend, {"checkpoint": None}, "journal.checkpoint"),
    # The one private hook: each call writes one sealed record of
    # record_size bytes, and no public function reports that count.
    (JournalBackend, {"_write_record": None}, "journal.write_record"),
    (ObliviousReader, {"read_block": None}, "oblivious.reader"),
    (ObliviousStore, dict.fromkeys(["read", "write", "insert", "dummy_read"]), "oblivious.store"),
]


def _timed(recorder: SpanRecorder, name: str, detail: str, function, count):
    enter, leave = recorder.enter, recorder.exit

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        frame = enter(name, detail)
        try:
            result = function(*args, **kwargs)
        finally:
            leave(frame)
        if count is not None and not frame.nested:
            count(recorder, frame, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Installs the :data:`LAYER_MAP` wrappers; :meth:`restore` undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, bool, object]] = []

    def install(self) -> None:
        for owner, functions, layer in LAYER_MAP:
            for attribute, count in functions.items():
                own = vars(owner).get(attribute)
                original = getattr(owner, attribute)
                detail = f"{getattr(owner, '__name__', '?')}.{attribute}"
                setattr(owner, attribute, _timed(self.recorder, layer, detail, original, count))
                self._undo.append((owner, attribute, own is not None, own))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, had_own, own = self._undo.pop()
            if had_own:
                setattr(owner, attribute, own)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
