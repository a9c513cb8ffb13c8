"""Every public entrypoint fails loudly — and typed — after close().

A closed service must never half-work: block access raises
``BackendClosedError`` at the storage layer, service methods raise
``ServiceClosedError`` before touching anything, and the sessions a
``close()`` logged out raise ``SessionClosedError``.  These sweeps walk
the public surface method by method so a newly added entrypoint that
forgets its guard shows up as a missing-exception failure here.

The sweep tables below are additionally asserted equal to the *static*
inventory computed by the CLS001 lint rule
(:func:`repro.lint.rules.closedguards.static_inventory`), so the two
enforcement layers pin each other: a new public method must both call a
guard (or the linter fails) and be exercised here (or the cross-check
fails).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HiddenVolumeService, JournalBackend, MemoryBackend, MmapFileBackend
from repro.core.plan import IoPlan
from repro.errors import (
    BackendClosedError,
    JournalError,
    ServiceClosedError,
    SessionClosedError,
)
from repro.lint.rules.closedguards import static_inventory

SERVICE_CALLS = {
    "login": lambda service: service.login(service.new_keyring("bob")),
    "idle": lambda service: service.idle(1),
    "flush": lambda service: service.flush(),
    "concurrent": lambda service: service.concurrent(),
    "dummy_oblivious_read": lambda service: service.dummy_oblivious_read(),
}

SESSION_CALLS = {
    "stat": lambda session: session.stat("/alice/file"),
    "create": lambda session: session.create("/alice/new", b"x"),
    "create_decoy": lambda session: session.create_decoy("/alice/decoy", 512),
    "delete": lambda session: session.delete("/alice/file"),
    "logout": lambda session: session.logout(),
    "read": lambda session: session.read("/alice/file"),
    "write": lambda session: session.write("/alice/file", b"x"),
    "append": lambda session: session.append("/alice/file", b"x"),
    "plan_read": lambda session: session.plan_read("/alice/file"),
    "plan_write": lambda session: session.plan_write("/alice/file", b"x"),
    "plan_append": lambda session: session.plan_append("/alice/file", b"x"),
    "deniable_view": lambda session: session.deniable_view(),
}

STORAGE_CALLS = {
    "read_block": lambda storage: storage.read_block(0),
    "write_block": lambda storage: storage.write_block(0, bytes(512)),
    "read_blocks": lambda storage: storage.read_blocks([0, 1]),
    "write_blocks": lambda storage: storage.write_blocks([0, 1], [bytes(512)] * 2),
    "read_write_blocks": lambda storage: storage.read_write_blocks([0, 1]),
    "peek_block": lambda storage: storage.peek_block(0),
    "peek_blocks": lambda storage: storage.peek_blocks([0, 1]),
    "raw_bytes": lambda storage: storage.raw_bytes(),
    "fill_random": lambda storage: storage.fill_random(1),
    "flush": lambda storage: storage.flush(),
}

BACKEND_CALLS = {
    "read": lambda backend: backend.read(0),
    "write": lambda backend: backend.write(0, bytes(64)),
    "read_many": lambda backend: backend.read_many(np.array([0, 1], dtype=np.int64)),
    "write_many": lambda backend: backend.write_many(
        np.array([0, 1], dtype=np.int64), [bytes(64)] * 2
    ),
    "fill_random": lambda backend: backend.fill_random(1),
    "raw_bytes": lambda backend: backend.raw_bytes(),
    "flush": lambda backend: backend.flush(),
}

JOURNAL_CALLS = {
    "record": lambda journal: journal.record(IoPlan([], label="x")),
    "mark_committed": lambda journal: journal.mark_committed(),
    "checkpoint": lambda journal: journal.checkpoint(),
    "flush": lambda journal: journal.flush(),
    "recover": lambda journal: journal.recover(MemoryBackend(64, 8)),
}

ENGINE_CALLS = {
    "login": lambda engine, service: engine.login(service.new_keyring("carol")),
    "idle": lambda engine, service: engine.idle(1),
    "flush": lambda engine, service: engine.flush(),
}


@pytest.fixture(params=["volatile", "nonvolatile"])
def closed_setup(request, tmp_path):
    """A closed file-backed service plus the session it logged out."""
    service = HiddenVolumeService.create(
        request.param, volume_mib=1, seed=5, block_size=512, path=tmp_path / "vol.img"
    )
    session = service.login(service.new_keyring("alice"))
    session.create("/alice/file", b"contents before close")
    service.close()
    return service, session


@pytest.mark.parametrize("method", sorted(SERVICE_CALLS))
def test_closed_service_method_raises(closed_setup, method):
    service, _ = closed_setup
    with pytest.raises(ServiceClosedError):
        SERVICE_CALLS[method](service)


@pytest.mark.parametrize("method", sorted(SESSION_CALLS))
def test_logged_out_session_method_raises(closed_setup, method):
    _, session = closed_setup
    with pytest.raises(SessionClosedError):
        SESSION_CALLS[method](session)


@pytest.mark.parametrize("method", sorted(STORAGE_CALLS))
def test_closed_storage_method_raises(closed_setup, method):
    service, _ = closed_setup
    with pytest.raises(BackendClosedError):
        STORAGE_CALLS[method](service.storage)


def test_closed_storage_leaves_no_phantom_accounting(closed_setup):
    """A refused request must not bump counters, clock, or trace."""
    service, _ = closed_setup
    storage = service.storage
    counters = storage.counters.snapshot()
    clock, events = storage.clock_ms, len(storage.trace)
    for method in sorted(STORAGE_CALLS):
        with pytest.raises(BackendClosedError):
            STORAGE_CALLS[method](storage)
    assert storage.counters.total_ops == counters.total_ops
    assert storage.clock_ms == clock
    assert len(storage.trace) == events


@pytest.mark.parametrize("method", sorted(BACKEND_CALLS))
def test_closed_mmap_backend_method_raises(tmp_path, method):
    backend = MmapFileBackend.create(tmp_path / "b.img", 64, 8)
    backend.close()
    assert backend.closed
    with pytest.raises(BackendClosedError):
        BACKEND_CALLS[method](backend)


@pytest.mark.parametrize("method", sorted(JOURNAL_CALLS))
def test_closed_journal_method_raises(tmp_path, method):
    journal = JournalBackend.create(tmp_path / "j", bytes(32))
    backend = MemoryBackend(64, 8)
    backend.fill_random(1)
    journal.bind(backend)
    journal.close()
    assert journal.closed
    with pytest.raises(JournalError):
        JOURNAL_CALLS[method](journal)


@pytest.mark.parametrize("method", sorted(ENGINE_CALLS))
def test_closed_engine_method_raises(method):
    service = HiddenVolumeService.create("volatile", volume_mib=1, seed=9, block_size=512)
    engine = service.concurrent()
    engine.close()
    assert engine.closed
    with pytest.raises(ServiceClosedError):
        ENGINE_CALLS[method](engine, service)
    service.close()


def test_closed_service_keeps_forensic_surface(closed_setup):
    service, _ = closed_setup
    assert service.closed
    assert service.logged_in_users == []
    assert service.storage.counters.reads >= 0  # counters stay readable
    service.close()  # idempotent


def test_dynamic_sweep_matches_static_inventory():
    """The sweep tables equal CLS001's guarded-method inventory.

    If a guarded public method is added, the linter keeps the tree
    honest and this assertion fails until the sweep exercises it; if a
    sweep entry is removed, the mismatch shows up just the same.
    """
    inventory = static_inventory("src")
    dynamic = {
        "HiddenVolumeService": tuple(sorted(SERVICE_CALLS)),
        "Session": tuple(sorted(SESSION_CALLS)),
        "RawStorage": tuple(sorted(STORAGE_CALLS)),
        "MmapFileBackend": tuple(sorted(BACKEND_CALLS)),
        "JournalBackend": tuple(sorted(JOURNAL_CALLS)),
        "ConcurrentVolumeService": tuple(sorted(ENGINE_CALLS)),
    }
    assert dynamic == inventory
