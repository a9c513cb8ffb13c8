"""The four workloads: set-up, closed-loop clients, and the checks on their outputs.

Every workload drives the public service API only (``HiddenVolumeService``,
``Session``, ``ConcurrentVolumeService``).  A client sends its next request
only after the previous one returned (a closed loop).  The benchmark keeps
its own shadow copy of every file, updated from its own writes, and
compares every read with it.  Sizes and seeds are described in the README
next to this file.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.service import HiddenVolumeService, ObliviousConfig
from repro.storage.block import data_field_size
from spans import Instrumentation, SpanRecorder

VOLUME_MIB = 32
FILES = 8
FILE_BYTES = 64 * 1024
#: Data blocks a file fills completely (4080 payload bytes per 4 KiB block).
FULL_BLOCKS_PER_FILE = FILE_BYTES // data_field_size(4096)
OP_BYTES = (1024, 2048)
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Rates and latency percentiles are medians over windows of about this
#: length, so a burst of load from elsewhere on the host moves one window,
#: not the run's figure.  An oblivious round is one window.
WINDOW_S = 1.0
#: The volatile workloads' decoy is one data block, so E = N/D is ~146.
DECOY_BLOCKS = 1
ENGINE_USERS = ("alice", "bob")
ENGINE_DUMMY_RATIO = 1.0

OBLIVIOUS_VOLUME_MIB = 8
OBLIVIOUS_CONFIG = ObliviousConfig(buffer_blocks=8, last_level_blocks=64)
OBLIVIOUS_READS_PER_ROUND = 400
#: Block choices of one oblivious round, as ranks among the files' full data
#: blocks sorted by physical index.  They are the same in every round and
#: every run: the store's fault (see README) depends only on this order, so
#: a fixed order makes the failed share exact whatever the seed.
_RANKS = random.Random("perfbench/oblivious-ranks")
OBLIVIOUS_RANKS = [
    _RANKS.randrange(FILES * FULL_BLOCKS_PER_FILE) for _ in range(OBLIVIOUS_READS_PER_ROUND)
]
#: Exception types of reads that hit the known ObliviousStore._evict fault.
OBLIVIOUS_FAULTS = ("KeyError", "ObliviousStorageError")

#: Chi-square critical value for 255 degrees of freedom at p = 1e-6.
CHI2_CRITICAL = 377.2
#: Figure-6 draws per block may sit this many standard errors from the law.
CYCLES_Z_LIMIT = 4.0
#: Span self times must account for the traced ops' wall time within this share.
SPAN_TOLERANCE = 0.02


# -- the closed loop -------------------------------------------------------------------


def mixed_ops(rng: random.Random, paths: list[str], read_share: float):
    """Endless stream of 1-2 KiB reads and writes at uniform offsets."""
    while True:
        path = paths[rng.randrange(len(paths))]
        size = rng.randint(*OP_BYTES)
        at = rng.randrange(FILE_BYTES - size + 1)
        if rng.random() < read_share:
            yield "read", path, at, size, None
        else:
            yield "write", path, at, size, rng.randbytes(size)


@dataclass
class Tally:
    """What one client loop did, and how long each operation took."""

    attempted: int = 0
    completed: int = 0
    failures: Counter = field(default_factory=Counter)
    mismatches: int = 0
    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    op_ns: int = 0
    seconds: float = 0.0
    done: list = field(default_factory=list)
    read_done: list = field(default_factory=list)
    intervals: list = field(default_factory=list)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.completed += other.completed
        self.failures.update(other.failures)
        self.mismatches += other.mismatches
        self.read_ms += other.read_ms
        self.write_ms += other.write_ms
        self.cycles += other.cycles
        self.op_ns += other.op_ns
        self.done += other.done
        self.read_done += other.read_done
        self.intervals += other.intervals


def drive(session, shadow, ops, tally, recorder, deadline=None, oblivious=False) -> None:
    """Run ``ops`` one after the other until they end or the deadline passes."""
    read_options = {"oblivious": True} if oblivious else {}
    started = time.perf_counter()
    for kind, path, at, size, data in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        tally.attempted += 1
        begin = time.perf_counter_ns()
        frame = recorder.enter("op", kind) if recorder.enabled else None
        try:
            if kind == "read":
                result = session.read(path, at, size, **read_options)
            else:
                result = session.write(path, data, at)
        except Exception as error:  # counted by type; the caller judges which are allowed
            tally.failures[type(error).__name__] += 1
            continue
        finally:
            if frame is not None:
                recorder.exit(frame)
            elapsed_ns = time.perf_counter_ns() - begin
            tally.op_ns += elapsed_ns
        tally.completed += 1
        finished = time.perf_counter()
        tally.done.append(finished)
        if kind == "read":
            tally.read_done.append(finished)
            tally.read_ms.append(elapsed_ns / 1e6)
            if result != shadow[path][at : at + size]:
                tally.mismatches += 1
        else:
            tally.write_ms.append(elapsed_ns / 1e6)
            shadow[path][at : at + size] = data
            tally.cycles.extend(update.iterations for update in result)
    ended = time.perf_counter()
    tally.seconds += ended - started
    tally.intervals.append((started, ended))


# -- checks ------------------------------------------------------------------------------


def chi_square(data: bytes | np.ndarray) -> float:
    """Pearson's statistic of the byte histogram against the uniform one."""
    values = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
    counts = np.zeros(256, dtype=np.int64)
    # bincount widens its input to 64-bit integers; chunks keep that copy
    # small, so the check does not set the run's peak_rss_mib.
    for start in range(0, values.size, 1 << 20):
        counts += np.bincount(values[start : start + (1 << 20)], minlength=256)
    expected = values.size / 256
    return float(((counts - expected) ** 2 / expected).sum())


class Report:
    """Checks, metrics and report-only figures of one workload run."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}
        self.tally = Tally()
        self.setup_s: list[float] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def check_uniform(self, name: str, data) -> None:
        statistic = chi_square(data)
        self.check(
            f"chi-square {name}", statistic < CHI2_CRITICAL, f"{statistic:.1f} < {CHI2_CRITICAL}"
        )

    def check_cycles(self, cycles: list[int], service: HiddenVolumeService) -> None:
        """Figure-6 draws per updated block follow the geometric law of N and D.

        A draw ends the update when it hits a dummy block (D of the N
        blocks) or the block itself, so the stop chance is (D + 1)/N and
        the mean is N/(D + 1); the paper's E = N/D leaves out the
        in-place hit.
        """
        blocks, dummies = service.disclosed_block_count(), service.disclosed_dummy_block_count()
        stop = (dummies + 1) / blocks
        mean_law = 1 / stop
        self.extra["figure6.E_model"] = (service.expected_update_overhead(), "cycles/block")
        self.extra["figure6.mean_law"] = (mean_law, "cycles/block")
        if not cycles:
            self.check("figure-6 cycles per block", False, "no block was updated")
            return
        mean = statistics.fmean(cycles)
        error = math.sqrt((1 - stop) / stop**2 / len(cycles))
        z = (mean - mean_law) / error if error else 0.0
        self.extra["figure6.mean_measured"] = (mean, "cycles/block")
        self.check(
            "figure-6 cycles per block",
            abs(z) <= CYCLES_Z_LIMIT,
            f"mean {mean:.2f} over {len(cycles)} blocks, law N/(D+1) = {mean_law:.2f}, "
            f"z = {z:.2f}, E = N/D = {service.expected_update_overhead():.2f}",
        )

    def check_counters(self, io_ops: int, trace_events: int) -> None:
        self.check(
            "io counters match trace", io_ops == trace_events,
            f"{io_ops} counted, {trace_events} traced",
        )


def percentile(values: list[float], share: int) -> float:
    """The ``share``-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[share - 1]


def windowed(tally: Tally) -> tuple[list[float], list[float], list[float]]:
    """Per-window completion rate, read p50 and read p90 over the timed intervals."""
    done = sorted(tally.done)
    order = sorted(range(len(tally.read_done)), key=tally.read_done.__getitem__)
    read_done = [tally.read_done[i] for i in order]
    read_ms = [tally.read_ms[i] for i in order]
    rates, p50, p90 = [], [], []
    for start, end in tally.intervals:
        count = max(1, round((end - start) / WINDOW_S))
        width = (end - start) / count
        for k in range(count):
            low, high = start + k * width, start + (k + 1) * width
            rates.append((bisect.bisect(done, high) - bisect.bisect(done, low)) / width)
            reads = read_ms[bisect.bisect(read_done, low) : bisect.bisect(read_done, high)]
            if len(reads) >= 2:
                p50.append(statistics.median(reads))
                p90.append(percentile(reads, 90))
    return rates, p50, p90


def end_to_end(report: Report, tally: Tally, sim_ms: float) -> None:
    """The end-to-end metrics of the untraced phase."""
    ops = tally.completed
    rates, p50, p90 = windowed(tally)
    report.metrics["setup_s"] = (statistics.median(report.setup_s), "s")
    report.metrics["ops_per_s"] = (statistics.median(rates), "ops/s")
    report.metrics["read_p50_ms"] = (statistics.median(p50), "ms")
    report.metrics["read_p90_ms"] = (statistics.median(p90), "ms")
    report.metrics["sim_io_ms_per_op"] = (sim_ms / ops, "ms")
    report.extra["windows"] = (len(rates), "count")
    if len(tally.read_ms) >= 1000:
        report.extra["read_p99_ms"] = (percentile(tally.read_ms, 99), "ms")
    if tally.write_ms:
        report.extra["write_p50_ms"] = (statistics.median(tally.write_ms), "ms")
    if len(tally.write_ms) >= 1000:
        report.extra["write_p99_ms"] = (percentile(tally.write_ms, 99), "ms")
    report.extra["reads"] = (len(tally.read_ms), "count")
    report.extra["writes"] = (len(tally.write_ms), "count")


# -- per-layer metrics ----------------------------------------------------------------

#: Unit of every per-layer metric; ``per_layer`` computes them in this order.
LAYER_UNITS = {
    "service.self_ms_per_op": "ms/op",
    "engine.read_batch_mean": "requests/batch",
    "engine.write_fusions_per_op": "count/op",
    "engine.quanta_per_op": "count/op",
    "engine.dummy_updates_per_op": "count/op",
    "engine.scheduler_busy_ms_per_op": "ms/op",
    "engine.scheduler_idle_ms_per_op": "ms/op",
    "agent.plan_ms_per_op": "ms/op",
    "agent.cycles_per_block_write": "cycles/block",
    "agent.useful_cycle_ratio": "ratio",
    "prng.draws_per_op": "count/op",
    "prng.ms_per_op": "ms/op",
    "plan.fuse_ms_per_op": "ms/op",
    "plan.execute_self_ms_per_op": "ms/op",
    "plan.runs_per_plan": "runs/plan",
    "plan.steps_per_run": "steps/run",
    "plan.strict_reseal_steps_per_op": "count/op",
    "cipher.calls_per_op": "count/op",
    "cipher.blocks_per_call": "blocks/call",
    "cipher.bytes_per_op": "bytes/op",
    "cipher.ms_per_op": "ms/op",
    "disk.calls_per_op": "count/op",
    "disk.blocks_per_call": "blocks/call",
    "disk.block_reads_per_op": "count/op",
    "disk.block_writes_per_op": "count/op",
    "disk.self_ms_per_op": "ms/op",
    "trace.events_per_op": "count/op",
    "trace.ms_per_op": "ms/op",
    "backend.ms_per_op": "ms/op",
    "backend.bytes_written_per_op": "bytes/op",
    "backend.flushes_per_op": "count/op",
    "journal.record_ms_per_op": "ms/op",
    "journal.commit_ms_per_op": "ms/op",
    "journal.bytes_per_op": "bytes/op",
    "journal.before_images_per_op": "count/op",
    "journal.checkpoints_per_op": "count/op",
    "oblivious.device_ops_per_read": "count/read",
    "oblivious.sort_io_share": "share",
    "oblivious.shuffles_per_read": "count/read",
    "oblivious.evictions_per_read": "count/read",
    "oblivious.stegfs_fetches_per_read": "count/read",
    "oblivious.store_ms_per_read": "ms/read",
    "tracing.overhead_share": "share",
}



def per_layer(recorder: SpanRecorder, tally: Tally, work: dict, untraced_ops_per_s: float) -> dict:
    """Per-layer metrics of the traced phase, per completed operation."""
    ops = max(tally.completed, 1)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cycles = sum(tally.cycles) + work.get("dummy_updates", 0)
    plans, runs = recorder.count("plan.plans"), recorder.count("plan.runs")
    cipher_calls, disk_calls = recorder.calls("cipher"), recorder.calls("disk")
    sort_io = work.get("sort_io", 0)
    busy = recorder.background_root_ms()
    metrics = {
        "service.self_ms_per_op": recorder.self_ms("service") / ops,
        "engine.read_batch_mean": ratio(
            work.get("batched_read_requests", 0), work.get("read_batches", 0)
        ),
        "engine.write_fusions_per_op": work.get("write_fusions", 0) / ops,
        "engine.quanta_per_op": work.get("quanta", 0) / ops,
        "engine.dummy_updates_per_op": work.get("dummy_updates", 0) / ops,
        "engine.scheduler_busy_ms_per_op": busy / ops if work.get("engine") else 0.0,
        "engine.scheduler_idle_ms_per_op": (
            (tally.seconds * 1e3 - busy) / ops if work.get("engine") else 0.0
        ),
        "agent.plan_ms_per_op": (
            recorder.inclusive_ms("agent") - recorder.inclusive_ms("plan.execute", "agent")
        ) / ops,
        "agent.cycles_per_block_write": ratio(sum(tally.cycles), len(tally.cycles)),
        "agent.useful_cycle_ratio": ratio(len(tally.cycles), cycles),
        "prng.draws_per_op": recorder.calls("prng") / ops,
        "prng.ms_per_op": recorder.inclusive_ms("prng") / ops,
        "plan.fuse_ms_per_op": recorder.inclusive_ms("plan.fuse") / ops,
        "plan.execute_self_ms_per_op": recorder.self_ms("plan.execute") / ops,
        "plan.runs_per_plan": ratio(runs, plans),
        "plan.steps_per_run": ratio(recorder.count("plan.steps"), runs),
        "plan.strict_reseal_steps_per_op": recorder.count("plan.strict_reseal_steps") / ops,
        "cipher.calls_per_op": cipher_calls / ops,
        "cipher.blocks_per_call": ratio(recorder.count("cipher.blocks"), cipher_calls),
        "cipher.bytes_per_op": recorder.count("cipher.bytes") / ops,
        "cipher.ms_per_op": recorder.inclusive_ms("cipher") / ops,
        "disk.calls_per_op": disk_calls / ops,
        "disk.blocks_per_call": ratio(recorder.count("disk.blocks"), disk_calls),
        "disk.block_reads_per_op": work["block_reads"] / ops,
        "disk.block_writes_per_op": work["block_writes"] / ops,
        "disk.self_ms_per_op": recorder.self_ms("disk") / ops,
        "trace.events_per_op": work["trace_events"] / ops,
        "trace.ms_per_op": recorder.inclusive_ms("trace") / ops,
        "backend.ms_per_op": recorder.inclusive_ms("backend") / ops,
        "backend.bytes_written_per_op": recorder.count("backend.bytes_written") / ops,
        "backend.flushes_per_op": recorder.count("backend.flushes") / ops,
        "journal.record_ms_per_op": recorder.inclusive_ms("journal.record") / ops,
        "journal.commit_ms_per_op": recorder.inclusive_ms("journal.commit") / ops,
        "journal.bytes_per_op": (
            recorder.calls("journal.write_record") * work.get("journal_record_size", 0) / ops
        ),
        "journal.before_images_per_op": recorder.calls("backend", "journal.record") / ops,
        "journal.checkpoints_per_op": recorder.calls("journal.checkpoint") / ops,
        "oblivious.device_ops_per_read": (
            (work["block_reads"] + work["block_writes"]) / ops if work.get("oblivious") else 0.0
        ),
        "oblivious.sort_io_share": ratio(sort_io, work.get("store_io", 0)),
        "oblivious.shuffles_per_read": work.get("shuffles", 0) / ops,
        "oblivious.evictions_per_read": work.get("evictions", 0) / ops,
        "oblivious.stegfs_fetches_per_read": work.get("stegfs_fetches", 0) / ops,
        "oblivious.store_ms_per_read": recorder.inclusive_ms("oblivious.store") / ops,
        "tracing.overhead_share": 1 - (tally.completed / tally.seconds) / untraced_ops_per_s,
    }
    return metrics


# -- the workloads ---------------------------------------------------------------------


def _service_seed(seed: int, label: str) -> int:
    return random.Random(f"perfbench/{seed}/{label}").getrandbits(32)


def _file_contents(seed: int, owner: str) -> dict[str, bytes]:
    rng = random.Random(f"perfbench/{seed}/files/{owner}")
    return {f"/{owner}/file{i}": rng.randbytes(FILE_BYTES) for i in range(FILES)}


def _timed_setups(build, close) -> tuple[list[float], object]:
    """Build the system SETUP_REPEATS times; keep the last, close the others."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            close(state)
        begin = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - begin)
    return times, state


def _storage_work(storage, before) -> dict:
    delta = storage.counters.delta(before[0])
    return {
        "block_reads": delta.reads,
        "block_writes": delta.writes,
        "sim_ms": delta.total_time_ms,
        "trace_events": len(storage.trace) - before[1],
    }


def _storage_mark(storage):
    return storage.counters.snapshot(), len(storage.trace)


class Phases:
    """Runs a workload's untraced phase and, when asked, its traced phase."""

    def __init__(self, trace: bool, retain: int):
        self.trace = trace
        self.recorder = SpanRecorder(retain if trace else 0)

    def run(self, report: Report, run_phase, seconds: float) -> dict:
        """``run_phase(seconds, recorder) -> (Tally, work)``; returns the per-layer metrics."""
        tally, work = run_phase(seconds, self.recorder)
        report.tally.merge(tally)
        end_to_end(report, tally, work["sim_ms"])
        report.check_counters(work["block_reads"] + work["block_writes"], work["trace_events"])
        if not self.trace:
            return {}
        with Instrumentation(self.recorder):
            self.recorder.enabled = True
            try:
                traced, traced_work = run_phase(seconds, self.recorder)
            finally:
                self.recorder.enabled = False
        report.tally.merge(traced)
        report.check_counters(
            traced_work["block_reads"] + traced_work["block_writes"], traced_work["trace_events"]
        )
        spans_ms = self.recorder.client_self_ms()
        ops_ms = traced.op_ns / 1e6
        report.check(
            "span self times cover traced ops",
            abs(spans_ms - ops_ms) <= SPAN_TOLERANCE * ops_ms,
            f"{spans_ms:.1f} ms of span self time, {ops_ms:.1f} ms of op wall time",
        )
        return per_layer(self.recorder, traced, traced_work, tally.completed / tally.seconds)


class _SingleSession:
    """One session driving the 50/50 mix; shared by mem-mixed and file-journal-mixed."""

    def __init__(self, seed: int, path_for=None):
        self.seed = seed
        self.contents = _file_contents(seed, "alice")
        self.path_for = path_for
        self.setups = 0

    def build(self):
        self.setups += 1
        location = self.path_for(self.setups) if self.path_for else None
        service = HiddenVolumeService.create(
            "volatile", volume_mib=VOLUME_MIB, seed=_service_seed(self.seed, "volume"),
            path=location,
        )
        try:
            keyring = service.new_keyring("alice")
            session = service.login(keyring)
            for path, data in self.contents.items():
                session.create(path, data)
            session.create_decoy("/alice/decoy", DECOY_BLOCKS * service.volume.data_field_bytes)
        except BaseException:
            service.close()
            raise
        return service, keyring, session, location

    @staticmethod
    def close(state) -> None:
        service, _, _, location = state
        service.close()
        if location is not None:
            shutil.rmtree(os.path.dirname(location))

    def run(self, report: Report, seconds: float, phases: Phases) -> tuple[tuple, dict, dict]:
        report.setup_s, state = _timed_setups(self.build, self.close)
        service, _, session, _ = state
        shadow = {path: bytearray(data) for path, data in self.contents.items()}
        ops = mixed_ops(random.Random(f"perfbench/{self.seed}/ops"), sorted(shadow), 0.5)

        def run_phase(length, recorder):
            tally, mark = Tally(), _storage_mark(service.storage)
            drive(session, shadow, ops, tally, recorder, deadline=time.perf_counter() + length)
            work = _storage_work(service.storage, mark)
            if service.journal is not None:
                work["journal_record_size"] = service.journal.record_size
            return tally, work

        try:
            layers = phases.run(report, run_phase, seconds)
            report.check_cycles(report.tally.cycles, service)
            whole = [session.read(path) == bytes(data) for path, data in shadow.items()]
            report.check("whole files match shadow", all(whole), f"{sum(whole)}/{len(whole)}")
        except BaseException:
            self.close(state)
            raise
        return state, shadow, layers


def mem_mixed(seed: int, seconds: float, phases: Phases, tmp: str) -> tuple[Report, dict]:
    report = Report()
    workload = _SingleSession(seed)
    state, _, layers = workload.run(report, seconds, phases)
    service = state[0]
    try:
        report.check_uniform("volume image", service.storage.raw_bytes())
    finally:
        workload.close(state)
    return report, layers


def file_journal_mixed(seed: int, seconds: float, phases: Phases, tmp: str) -> tuple[Report, dict]:
    report = Report()

    def path_for(number: int) -> str:
        directory = os.path.join(tmp, f"setup{number}")
        os.makedirs(directory)
        return os.path.join(directory, "volume.img")

    workload = _SingleSession(seed, path_for)
    state, shadow, layers = workload.run(report, seconds, phases)
    service, keyring, _, location = state
    try:
        service.close()
        begin = time.perf_counter()
        reopened = HiddenVolumeService.open(
            location, "volatile", seed=_service_seed(seed, "volume"), session_nonce=1
        )
        try:
            session = reopened.login(keyring)
            report.extra["reopen_s"] = (time.perf_counter() - begin, "s")
            whole = [session.read(path) == bytes(data) for path, data in shadow.items()]
            report.check("reopened files match shadow", all(whole), f"{sum(whole)}/{len(whole)}")
        finally:
            reopened.close()
        report.check_uniform("volume file", np.fromfile(location, dtype=np.uint8))
        report.check_uniform("journal sidecar", np.fromfile(f"{location}.journal", dtype=np.uint8))
    finally:
        workload.close(state)
    return report, layers


def engine_read_heavy(seed: int, seconds: float, phases: Phases, tmp: str) -> tuple[Report, dict]:
    report = Report()
    contents = {user: _file_contents(seed, user) for user in ENGINE_USERS}

    def build():
        service = HiddenVolumeService.create(
            "nonvolatile", volume_mib=VOLUME_MIB, seed=_service_seed(seed, "volume")
        )
        engine = service.concurrent(dummy_to_real_ratio=ENGINE_DUMMY_RATIO)
        try:
            sessions = []
            for user in ENGINE_USERS:
                session = engine.login(service.new_keyring(user))
                for path, data in contents[user].items():
                    session.create(path, data)
                sessions.append(session)
        except BaseException:
            engine.close()
            raise
        return service, engine, sessions

    def close(state) -> None:
        state[1].close()

    report.setup_s, state = _timed_setups(build, close)
    service, engine, sessions = state
    try:
        shadows = [
            {path: bytearray(data) for path, data in contents[user].items()}
            for user in ENGINE_USERS
        ]
        streams = [
            mixed_ops(random.Random(f"perfbench/{seed}/ops/{user}"), sorted(shadow), 0.9)
            for user, shadow in zip(ENGINE_USERS, shadows, strict=True)
        ]
        errors: list[BaseException] = []

        def run_phase(length, recorder):
            stats, mark = engine.stats.snapshot(), _storage_mark(service.storage)
            tallies = [Tally() for _ in ENGINE_USERS]
            deadline = time.perf_counter() + length

            def client(k):
                try:
                    drive(sessions[k], shadows[k], streams[k], tallies[k], recorder, deadline)
                except BaseException as error:  # reported as a failed check
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(k,)) for k in range(len(sessions))]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
            tally = Tally()
            for part in tallies:
                tally.merge(part)
            tally.seconds, tally.intervals = end - begin, [(begin, end)]
            # Barrier: every dummy burst owed to the loop's operations has run.
            engine.idle(0)
            now = engine.stats
            work = _storage_work(service.storage, mark)
            work.update(
                engine=True,
                read_batches=now.read_batches - stats.read_batches,
                batched_read_requests=now.batched_read_requests - stats.batched_read_requests,
                write_fusions=now.write_fusions - stats.write_fusions,
                quanta=now.quanta - stats.quanta,
                dummy_updates=now.dummy_updates - stats.dummy_updates,
            )
            return tally, work

        layers = phases.run(report, run_phase, seconds)
        report.check("client threads raised nothing", not errors, repr(errors[:1]))
        report.check_cycles(report.tally.cycles, service)
        stats = engine.stats
        owed = math.floor(ENGINE_DUMMY_RATIO * stats.real_ops)
        report.check(
            "dummy updates follow the ratio",
            abs(stats.dummy_updates - owed) <= 1,
            f"{stats.dummy_updates} dummies for {stats.real_ops} real ops",
        )
        whole = [
            session.read(path) == bytes(data)
            for session, shadow in zip(sessions, shadows, strict=True)
            for path, data in shadow.items()
        ]
        report.check("whole files match shadow", all(whole), f"{sum(whole)}/{len(whole)}")
        report.check_uniform("volume image", service.storage.raw_bytes())
    finally:
        engine.close()
    return report, layers


def oblivious_read(seed: int, seconds: float, phases: Phases, tmp: str) -> tuple[Report, dict]:
    report = Report()
    contents = _file_contents(seed, "alice")
    shadow = {path: bytearray(data) for path, data in contents.items()}
    round_failures: list[Counter] = []
    rounds_with_wrong_files: list[int] = []
    rounds = itertools.count()

    def build(number: int):
        service = HiddenVolumeService.create(
            "volatile", volume_mib=OBLIVIOUS_VOLUME_MIB, seed=_service_seed(seed, f"round{number}"),
            oblivious=OBLIVIOUS_CONFIG,
        )
        try:
            session = service.login(service.new_keyring("alice"))
            for path, data in contents.items():
                session.create(path, data)
        except BaseException:
            service.close()
            raise
        return service, session

    def round_ops(service, number: int):
        # Full data blocks in physical order; a read stays inside one block.
        agent, payload = service.agent, service.volume.data_field_bytes
        blocks = []
        for index in sorted(agent.known_blocks):
            handle, role = agent.owner_of(index)
            logical = handle.header.logical_of_physical(index)
            if role == "data" and (logical + 1) * payload <= handle.size_bytes:
                blocks.append((handle.path, logical))
        rng = random.Random(f"perfbench/{seed}/round{number}/offsets")
        for rank in OBLIVIOUS_RANKS:
            path, logical = blocks[rank]
            size = rng.randint(*OP_BYTES)
            yield "read", path, logical * payload + rng.randrange(payload - size + 1), size, None

    def run_phase(length, recorder):
        tally, work = Tally(), Counter()
        deadline = time.perf_counter() + length
        while time.perf_counter() < deadline:
            number = next(rounds)
            with recorder.paused():
                begin = time.perf_counter()
                service, session = build(number)
                report.setup_s.append(time.perf_counter() - begin)
            try:
                mark, store = _storage_mark(service.storage), service.oblivious_store
                part = Tally()
                drive(session, shadow, round_ops(service, number), part, recorder, oblivious=True)
                with recorder.paused():
                    tally.merge(part)
                    tally.seconds += part.seconds
                    round_failures.append(part.failures)
                    work.update(_storage_work(service.storage, mark))
                    work.update(
                        sort_io=store.stats.sort_reads + store.stats.sort_writes,
                        store_io=store.stats.total_ops,
                        shuffles=store.stats.shuffles,
                        evictions=store.stats.evictions,
                        stegfs_fetches=service.oblivious_reader.stats.stegfs_reads,
                    )
                    if not all(session.read(path) == data for path, data in shadow.items()):
                        rounds_with_wrong_files.append(number)
                    if number == 0:
                        image = service.storage.raw_bytes()
                        report.check_uniform("volume image (first round)", image)
            finally:
                with recorder.paused():
                    service.close()
        return tally, dict(work, oblivious=True)

    layers = phases.run(report, run_phase, seconds)
    report.check(
        "whole files match shadow after every round",
        not rounds_with_wrong_files,
        f"rounds {rounds_with_wrong_files}",
    )
    report.check(
        "failures repeat exactly every round",
        all(counts == round_failures[0] for counts in round_failures),
        f"{len(round_failures)} rounds, {dict(round_failures[0])} each",
    )
    report.extra["rounds"] = (len(round_failures), "count")
    return report, layers


WORKLOADS = {
    "mem-mixed": mem_mixed,
    "file-journal-mixed": file_journal_mixed,
    "engine-read-heavy": engine_read_heavy,
    "oblivious-read": oblivious_read,
}


def run(name: str, seed: int, seconds: float, trace: bool, tmp: str, retain: int) -> dict:
    """Run one workload in this process; plain-data result, the span recorder under "spans"."""
    phases = Phases(trace, retain)
    report, layers = WORKLOADS[name](seed, seconds, phases, tmp)
    report.metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
    )
    main = threading.main_thread()
    stray = [thread.name for thread in threading.enumerate() if thread is not main]
    report.check("no thread left but the main thread", not stray, ", ".join(stray))
    tally = report.tally
    allowed = OBLIVIOUS_FAULTS if name == "oblivious-read" else ()
    failed = sum(tally.failures.values())
    report.check(
        "no unexpected failures",
        all(kind in allowed for kind in tally.failures),
        str(dict(tally.failures)),
    )
    report.check("reads match shadow", tally.mismatches == 0, f"{tally.mismatches} mismatches")
    return {
        "workload": name,
        "seed": seed,
        "attempted": tally.attempted,
        "failed": failed,
        "failures": dict(tally.failures),
        "checks": report.checks,
        "metrics": report.metrics,
        "extra": report.extra,
        "per_layer": {name: (value, LAYER_UNITS[name]) for name, value in layers.items()},
        "spans": phases.recorder,
    }
