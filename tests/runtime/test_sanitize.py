"""Write-sanitizer behavior: freezing, scratch poisoning, task guards.

Workers must never write attached views, and kernels must keep
scratch discipline.  No lint rule checks either: these tests prove the
runtime layer that enforces both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.topology import two_tier_gnutella
from repro.runtime.sanitize import (
    POISON_BYTE,
    SANITIZE_ENV,
    freeze,
    freeze_artifact,
    sanitize_faults,
    scratch_alloc,
    scratch_outstanding,
    scratch_release,
    shm_sanitize_enabled,
    task_guard,
)
from repro.runtime.shm import SharedTopology, attach_topology


@pytest.fixture()
def sanitize_on(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "shm")
    yield


@pytest.fixture()
def sanitize_off(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    yield


class TestModeSwitch:
    def test_env_values(self, monkeypatch):
        for value in ("shm", "all", "1", "on", " SHM "):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert shm_sanitize_enabled()
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert not shm_sanitize_enabled()


class TestFreeze:
    def test_freeze_rejects_writes(self):
        arr = np.arange(8)
        out = freeze(arr)
        assert out is arr
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = 99

    def test_freeze_is_idempotent(self):
        arr = freeze(np.arange(4))
        assert freeze(arr) is arr

    def test_freeze_artifact_walks_structures(self):
        from dataclasses import dataclass

        @dataclass
        class Blob:
            data: np.ndarray
            meta: dict

        inner = np.arange(3)
        blob = Blob(data=np.ones(4), meta={"idx": inner, "n": 3})
        wrapped = [blob, (np.zeros(2),)]
        freeze_artifact(wrapped)
        assert blob.data.flags.writeable is False
        assert inner.flags.writeable is False
        assert wrapped[1][0].flags.writeable is False

    def test_freeze_artifact_skips_object_dtype(self):
        ragged = np.empty(2, dtype=object)
        ragged[0] = [1, 2]
        freeze_artifact({"ragged": ragged})
        assert ragged.flags.writeable is True

    def test_attached_views_are_frozen_unconditionally(self, sanitize_off):
        # Attach paths freeze with or without sanitize mode, so every
        # in-place write shape raises at the write itself.
        topo = two_tier_gnutella(150, seed=3)
        with SharedTopology(topo) as share:
            attached = attach_topology(share.spec)
            assert attached.neighbors.flags.writeable is False
            assert attached.offsets.flags.writeable is False
            view = attached.neighbors
            writes = (
                lambda: view.__setitem__(0, -1),
                lambda: view.fill(0),
                lambda: view.sort(),
                lambda: np.add(view, 1, out=view),
                lambda: np.copyto(view, 0),
            )
            for write in writes:
                with pytest.raises(ValueError):
                    write()


class TestScratch:
    def test_alloc_release_poisons(self, sanitize_on):
        buf = scratch_alloc(16, np.uint8)
        assert scratch_outstanding() >= 1
        before = scratch_outstanding()
        scratch_release(buf)
        assert scratch_outstanding() == before - 1
        assert bool(np.all(buf == POISON_BYTE))

    def test_poison_breaks_parity_loudly(self, sanitize_on):
        # int64 scratch decodes 0xA5A5... — nothing like a real depth.
        buf = scratch_alloc(4, np.int64)
        scratch_release(buf)
        assert bool(np.all(buf != 0))
        assert bool(np.all(np.abs(buf) > 2**32))

    def test_unpaired_release_is_a_fault(self, sanitize_on):
        before = sanitize_faults()
        scratch_release(np.zeros(4, dtype=np.uint8))
        assert sanitize_faults() == before + 1

    def test_disabled_mode_is_a_noop(self, sanitize_off):
        buf = scratch_alloc(8, np.uint8)
        assert scratch_outstanding() == 0
        before = sanitize_faults()
        scratch_release(buf)
        assert sanitize_faults() == before
        assert bool(np.all(buf == 0))


class TestTaskGuard:
    def test_leaked_scratch_faults(self, sanitize_on):
        before = sanitize_faults()
        with task_guard():
            leaked = scratch_alloc(8, np.uint8)
        assert sanitize_faults() == before + 1
        scratch_release(leaked)  # restore balance for other tests

    def test_balanced_scratch_is_clean(self, sanitize_on):
        before = sanitize_faults()
        with task_guard():
            buf = scratch_alloc(8, np.uint8)
            scratch_release(buf)
        assert sanitize_faults() == before

    def test_disabled_guard_is_transparent(self, sanitize_off):
        before = sanitize_faults()
        with task_guard():
            pass
        assert sanitize_faults() == before


class TestKernelDiscipline:
    def test_flood_kernel_releases_its_scratch(self, sanitize_on):
        from repro.overlay.flooding import flood_depths

        topo = two_tier_gnutella(200, seed=5)
        before_faults = sanitize_faults()
        outstanding = scratch_outstanding()
        depth, _ = flood_depths(topo, np.array([0, 3]), max_depth=4)
        assert scratch_outstanding() == outstanding
        assert sanitize_faults() == before_faults
        assert depth[0] == 0
