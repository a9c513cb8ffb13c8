"""Declarative I/O plans: plan → fuse → execute.

Every reading/mutating primitive of the update-hiding agents is split
into a pure **planner** — PRNG draws, allocator transfers, header
relocation and crypto run up front and emit a sequence of declarative
steps, with no device I/O — and a generic **executor** that *fuses*
adjacent compatible steps and runs them against any
:class:`~repro.storage.device.BlockDevice` through the batched
``read_blocks``/``write_blocks``/``read_write_blocks`` paths.

Planning before executing is sound for the Figure-6 machinery because
no hiding decision depends on device *contents*: the selection, IV and
allocator PRNGs are independent spawned streams, so hoisting their
draws to plan time preserves each stream's draw sequence, and the
Figure-6 dummy test consults only in-memory bookkeeping.  The executor
then replays the plan in step order, so the device sees the same
requests, in the same order, with the same bytes, as the legacy
hand-rolled loops — the twin-trace suite in
``tests/test_plan_kernel.py`` pins draw/byte/trace equivalence for
every primitive.

Step vocabulary
---------------
:class:`ReadStep`
    Read one block.  ``keep=False`` marks a charging-only read whose
    bytes are discarded (the Figure-6 read of ``B1`` before its payload
    moves).  When ``cipher`` is set the executor returns the decrypted
    data field instead of the raw block, batching decryption per cipher
    across a whole fused run.
:class:`WriteStep`
    Write pre-sealed raw bytes (``iv || ciphertext``) to one block.
:class:`CycleStep`
    Read one block, then write another (or the same) — the terminal
    read/write pair of one Figure-6 update, in place or as a swap.
:class:`ResealStep`
    Read a block and rewrite it with a fresh IV (a dummy update).  The
    plaintext is preserved, which is what makes reseals *transparent*:
    executing a pending reseal before or after an unrelated read of the
    same block cannot change the bytes that read decrypts to.
    ``batched=True`` lets a run of reseals execute as batched reads
    followed by batched writes (the ``dummy_update_batch`` schedule);
    the default charges strict read/write pairs in step order.

Fusion invariants
-----------------
``fuse`` groups *adjacent* same-kind steps into :class:`FusedRun`\\ s
and never reorders steps across runs, so the per-plan (per-session)
step order is always preserved.  Two writes to one index never share a
run, and a reseal run holds each block under one key only.  Each run
is charged by batched device calls, which apply repeated write targets
in order (last writer wins).  A reseal run reads its blocks in one
call (an uncharged ``peek_blocks`` when strict), reseals them per key
with ``decrypt_many``/``encrypt_many``, and charges strict read/write
pairs with one ``read_write_blocks``.  This equals the step-by-step
loop even for a block drawn twice: a reseal under one key preserves the
plaintext, so every reseal of the block starts from its pre-run
plaintext, and only the last one's bytes remain.

:class:`PlanJournal` is the crash-consistency seam: it records each
plan's step sequence *before* any of its I/O executes and is told via
:meth:`~PlanJournal.mark_committed` when the plan's I/O has fully
landed.  :class:`repro.core.journal.JournalBackend` subclasses it to
persist every entry (with before-images) to a cipher-sealed sidecar
file, which is what lets ``HiddenVolumeService.open`` roll a torn plan
back to its pre-plan bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from repro.storage.block import BLOCK_IV_SIZE
from repro.storage.device import BlockDevice

#: Builds (or looks up) the field cipher for a key; the volume's
#: ``cipher_for`` is the canonical implementation.
CipherFor = Callable[[bytes], Any]


@dataclass(frozen=True)
class ReadStep:
    """Read block ``index``; discard the bytes when ``keep`` is False."""

    index: int
    stream: str = "default"
    cipher: Any = None
    keep: bool = True


@dataclass(frozen=True)
class WriteStep:
    """Write pre-sealed raw bytes to block ``index``."""

    index: int
    data: bytes = b""
    stream: str = "default"


@dataclass(frozen=True)
class CycleStep:
    """Read ``read_index`` then write ``data`` to ``write_index``."""

    read_index: int
    write_index: int
    data: bytes = b""
    stream: str = "default"


@dataclass(frozen=True)
class ResealStep:
    """Dummy-update block ``index``: decrypt under ``key``, re-encrypt under ``new_iv``."""

    index: int
    key: bytes = field(default=b"", repr=False)
    new_iv: bytes = b""
    stream: str = "dummy"
    batched: bool = False


Step = Union[ReadStep, WriteStep, CycleStep, ResealStep]

#: Run kinds, in the executor's dispatch vocabulary.
KIND_READ = "read"
KIND_WRITE = "write"
KIND_CYCLE = "cycle"
KIND_RESEAL = "reseal"
KIND_RESEAL_BATCH = "reseal-batch"


def _kind_of(step: Step) -> str:
    if isinstance(step, ReadStep):
        return KIND_READ
    if isinstance(step, WriteStep):
        return KIND_WRITE
    if isinstance(step, CycleStep):
        return KIND_CYCLE
    if isinstance(step, ResealStep):
        return KIND_RESEAL_BATCH if step.batched else KIND_RESEAL
    raise TypeError(f"not an I/O plan step: {step!r}")


@dataclass
class IoPlan:
    """One primitive's declarative I/O, in execution order."""

    steps: list[Step] = field(default_factory=list)
    label: str = ""

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def device_ops(self) -> int:
        """Device operations this plan will charge (reads + writes)."""
        ops = 0
        for step in self.steps:
            ops += 1 if isinstance(step, (ReadStep, WriteStep)) else 2
        return ops


@dataclass
class PlannedOp:
    """A planned operation plus the finisher turning payloads into its result.

    ``finish`` receives the plan's kept-read payloads, in step order
    (decrypted where the step carried a cipher), and returns the
    operation's result; operations whose result is pre-known from
    planning ignore the argument.
    """

    plan: IoPlan
    finish: Callable[[list[bytes]], Any]


@dataclass
class FusedRun:
    """A maximal run of adjacent same-kind steps, ready for one device call.

    ``sources`` is parallel to ``steps``: the position (in the fused
    plan list) of the plan each step came from, which is what lets the
    executor hand payloads back per plan and lets the engine tell
    cross-session fusion from intra-request batching.
    """

    kind: str
    steps: list[Step] = field(default_factory=list)
    sources: list[int] = field(default_factory=list)

    @property
    def source_count(self) -> int:
        """Number of distinct plans contributing steps to this run."""
        return len(set(self.sources))


def fuse(plans: Sequence[IoPlan]) -> list[FusedRun]:
    """Group adjacent same-kind steps across ``plans`` into fused runs.

    Iterates plans in order and steps in plan order, so the relative
    order of any one plan's steps — and of any two steps from different
    plans — is preserved exactly; fusion never reorders, it only widens
    device calls.  A second write to one index starts a new run, so
    both stay distinct device events, and so does a reseal of a block
    the run already reseals under another key.
    """
    runs: list[FusedRun] = []
    current: FusedRun | None = None
    claimed: dict[int, object] = {}  # index -> key of the run's writes and reseals
    for source, plan in enumerate(plans):
        for step in plan.steps:
            kind = _kind_of(step)
            clash = False
            if isinstance(step, (WriteStep, ResealStep)):
                # A write's fresh object equals no claim: a second write splits.
                key = step.key if isinstance(step, ResealStep) else object()
                clash = claimed.get(step.index, key) != key
            if current is None or current.kind != kind or clash:
                current = FusedRun(kind)
                runs.append(current)
                claimed.clear()
            current.steps.append(step)
            current.sources.append(source)
            if isinstance(step, (WriteStep, ResealStep)):
                claimed[step.index] = key
    return runs


def _execute_read_run(
    run: FusedRun, device: BlockDevice, out: dict[int, list[bytes]]
) -> None:
    steps = run.steps
    raws = device.read_blocks([step.index for step in steps], [step.stream for step in steps])
    # Decrypt kept payloads per cipher through the vectorized path,
    # preserving per-step output order within each plan.
    by_cipher: dict[int, tuple[Any, list[int]]] = {}
    for position, step in enumerate(steps):
        if not step.keep:
            continue
        if step.cipher is None:
            out.setdefault(run.sources[position], []).append(raws[position])
            continue
        by_cipher.setdefault(id(step.cipher), (step.cipher, []))[1].append(position)
    for cipher, positions in by_cipher.values():
        plaintexts = cipher.decrypt_many(
            [raws[p][:BLOCK_IV_SIZE] for p in positions],
            [raws[p][BLOCK_IV_SIZE:] for p in positions],
        )
        for position, plaintext in zip(positions, plaintexts, strict=True):
            out.setdefault(run.sources[position], []).append(plaintext)


def _execute_reseal_run(run: FusedRun, device: BlockDevice, cipher_for: CipherFor) -> None:
    steps = run.steps
    indices = [step.index for step in steps]
    streams = [step.stream for step in steps]
    # Every reseal of a block starts from its pre-run plaintext and only
    # the last one lands (module docstring), so each block is sealed once,
    # under its last IV, and that block stands for each of its draws.
    last = {step.index: step for step in steps}
    if run.kind == KIND_RESEAL:
        # Strict reads are charged below, interleaved with the writes.
        raw_of = dict(zip(last, device.peek_blocks(list(last)), strict=True))
    else:
        raw_of = dict(zip(indices, device.read_blocks(indices, streams), strict=True))
    by_key: dict[bytes, list[int]] = {}
    for index, step in last.items():
        by_key.setdefault(step.key, []).append(index)
    sealed: dict[int, bytes] = {}
    for key, group in by_key.items():
        cipher = cipher_for(key)
        plaintexts = cipher.decrypt_many(
            [raw_of[i][:BLOCK_IV_SIZE] for i in group], [raw_of[i][BLOCK_IV_SIZE:] for i in group]
        )
        new_ivs = [last[i].new_iv for i in group]
        ciphertexts = cipher.encrypt_many(new_ivs, plaintexts)
        for index, new_iv, ciphertext in zip(group, new_ivs, ciphertexts, strict=True):
            sealed[index] = new_iv + ciphertext
    datas = [sealed[index] for index in indices]
    if run.kind == KIND_RESEAL:
        device.read_write_blocks(indices, datas, streams)
    else:
        device.write_blocks(indices, datas, streams)


def execute_runs(
    runs: Sequence[FusedRun], device: BlockDevice, cipher_for: CipherFor
) -> dict[int, list[bytes]]:
    """Execute fused runs in order; return kept-read payloads per source plan.

    Each run is charged through the batched device calls, so the device
    sees exactly the planned requests in the planned order.  Errors
    propagate to the caller mid-plan, matching the partial-progress
    semantics of the loops the plans replaced.
    """
    out: dict[int, list[bytes]] = {}
    for run in runs:
        if run.kind == KIND_READ:
            _execute_read_run(run, device, out)
        elif run.kind == KIND_WRITE:
            device.write_blocks(
                [step.index for step in run.steps],
                [step.data for step in run.steps],
                [step.stream for step in run.steps],
            )
        elif run.kind == KIND_CYCLE:
            device.read_write_blocks(
                [step.read_index for step in run.steps],
                [step.data for step in run.steps],
                [step.stream for step in run.steps],
                write_indices=[step.write_index for step in run.steps],
            )
        elif run.kind in (KIND_RESEAL, KIND_RESEAL_BATCH):
            _execute_reseal_run(run, device, cipher_for)
        else:  # pragma: no cover - fuse() only emits the kinds above
            raise ValueError(f"unknown fused-run kind {run.kind!r}")
    return out


def execute_plan(
    plan: IoPlan,
    device: BlockDevice,
    cipher_for: CipherFor,
    journal: "PlanJournal | None" = None,
) -> list[bytes]:
    """Fuse and execute one plan; return its kept-read payloads in step order.

    The journal (when given) sees the plan strictly before its first
    device request and is marked committed only after every run landed;
    an entry left uncommitted therefore brackets exactly the window in
    which a crash can leave the plan half-applied.
    """
    if journal is not None:
        journal.record(plan)
    payloads = execute_runs(fuse([plan]), device, cipher_for)
    if journal is not None:
        journal.mark_committed()
    return payloads.get(0, [])


@dataclass(frozen=True)
class JournalEntry:
    """One journalled plan: its label and its step sequence, pre-execution."""

    label: str
    steps: tuple[Step, ...]


class PlanJournal:
    """Records planned step sequences *before* they execute.

    This is the seam the crash-consistency intent log consumes: by the
    time any block of a plan is written, the journal already holds the
    full step sequence, so a torn plan can be recognised and rolled
    back.  The ordering contract (record strictly precedes the plan's
    first device request, :meth:`mark_committed` strictly follows its
    last) is guaranteed by the executors and pinned by tests.

    The in-memory journal keeps at most ``max_entries`` entries (a
    ring: recording past the cap drops the oldest entry), with the
    overflow visible through :attr:`truncated` and
    :attr:`total_recorded`.  :class:`repro.core.journal.JournalBackend`
    extends this class with a durable, cipher-sealed sidecar file.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._entries: list[JournalEntry] = []
        self._max_entries = max_entries
        self._total_recorded = 0
        self._truncated = 0

    def record(self, plan: IoPlan) -> None:
        """Journal one plan's step sequence ahead of its execution."""
        self._entries.append(JournalEntry(plan.label, tuple(plan.steps)))
        self._total_recorded += 1
        if self._max_entries is not None and len(self._entries) > self._max_entries:
            del self._entries[0]
            self._truncated += 1

    def mark_committed(self) -> None:
        """Note that every recorded-but-unexecuted plan has fully landed.

        A no-op for the in-memory journal; the durable journal writes a
        commit marker so recovery knows the entry needs no rollback.
        """

    @property
    def entries(self) -> list[JournalEntry]:
        """Journalled entries, oldest first (a copy)."""
        return list(self._entries)

    @property
    def max_entries(self) -> int | None:
        """Ring capacity, or ``None`` for an unbounded journal."""
        return self._max_entries

    @property
    def total_recorded(self) -> int:
        """Plans recorded over the journal's lifetime, truncated or not."""
        return self._total_recorded

    @property
    def truncated(self) -> int:
        """Entries dropped from the head of the ring to respect the cap."""
        return self._truncated

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (e.g. after a checkpoint)."""
        self._entries.clear()
