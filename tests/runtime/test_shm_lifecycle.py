"""Lifecycle tests for the shm layer: signal cleanup + attach eviction.

Three bugs these lock in against regression:

* SIGTERM/SIGINT never run ``__del__``/``finally`` safety nets, so a
  killed owner process used to orphan its ``/dev/shm`` segments
  forever; :func:`cleanup_on_signal` must unlink them and still let
  the process die with the signal's status.
* the per-process attachment caches grew without bound; they are now a
  bounded LRU with weakref-guarded eviction plus explicit
  :func:`detach`.
* that guard used to probe only the cached view object, so an array
  taken out of a view did not pin its mapping: ``detach`` unmapped it
  and the next read segfaulted.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import metrics
from repro.overlay.topology import flat_random
from repro.runtime.shm import (
    SharedTopology,
    _AttachCache,
    _CACHE,
    attach_topology,
    detach,
    set_attach_capacity,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class _FakeSegment:
    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class _Value:
    """A weakref-able stand-in for an attached view object."""


class TestAttachCacheEviction:
    def test_lru_evicts_oldest_unreferenced(self):
        cache = _AttachCache(capacity=2)
        segments = {k: [_FakeSegment()] for k in ("a", "b", "c")}
        for key in ("a", "b", "c"):
            cache.put(key, _Value(), segments[key])
        assert len(cache) == 2
        assert segments["a"][0].closed
        assert not segments["b"][0].closed
        assert not segments["c"][0].closed

    def test_get_refreshes_recency(self):
        cache = _AttachCache(capacity=2)
        segments = {k: [_FakeSegment()] for k in ("a", "b", "c")}
        cache.put("a", _Value(), segments["a"])
        cache.put("b", _Value(), segments["b"])
        assert cache.get("a") is not None  # touch: now "b" is LRU
        cache.put("c", _Value(), segments["c"])
        assert segments["b"][0].closed
        assert not segments["a"][0].closed

    def test_referenced_mapping_is_never_closed(self):
        cache = _AttachCache(capacity=1)
        held = _Value()  # live reference outside the cache
        seg_held = [_FakeSegment()]
        cache.put("held", held, seg_held)
        seg_new = [_FakeSegment()]
        cache.put("new", _Value(), seg_new)
        # The pinned entry survives; the over-budget pass closed the
        # newer unreferenced one instead of invalidating live views.
        assert not seg_held[0].closed
        assert cache.get("held") is held

    def test_owner_entries_are_pinned(self):
        cache = _AttachCache(capacity=1)
        cache.put("owner", _Value(), None)  # owner-preseeded
        seg = [_FakeSegment()]
        cache.put("worker", _Value(), seg)
        assert cache.get("owner") is not None

    def test_drop_closes_unreferenced(self):
        cache = _AttachCache(capacity=4)
        seg = [_FakeSegment()]
        cache.put("a", _Value(), seg)
        assert cache.drop("a") is True
        assert seg[0].closed
        assert cache.drop("a") is False

    def test_drop_refuses_referenced(self):
        cache = _AttachCache(capacity=4)
        held = _Value()
        seg = [_FakeSegment()]
        cache.put("a", held, seg)
        with pytest.raises(RuntimeError, match="still referenced"):
            cache.drop("a")
        # Entry restored: still served, still not closed.
        assert cache.get("a") is held
        assert not seg[0].closed

    def test_detach_real_segments(self):
        owner = SharedTopology(flat_random(48, 4.0, seed=3))
        try:
            spec = owner.spec
            # Forget the owner's preseeded view, then re-attach by name
            # the way a worker would: the new entry holds segments.
            assert _CACHE.drop(spec) is True
            attached = attach_topology(spec)
            with pytest.raises(RuntimeError, match="still referenced"):
                detach(spec)
            del attached
            before = metrics().counter("shm.attach.detached")
            assert detach(spec) is True
            assert metrics().counter("shm.attach.detached") == before + 1
            assert detach(spec) is False
        finally:
            owner.close()

    def test_arrays_and_flat_views_pin_their_mapping(self):
        # In a child process: at the bug, the final reads segfault.
        proc = subprocess.run(
            [sys.executable, "-c", _PIN_CHILD],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        names, _, verdicts = proc.stdout.partition("\n")
        for path in _segment_paths(names.split()):  # a crashed child leaks
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        assert proc.returncode == 0, proc.stderr
        assert verdicts.split() == ["refused", "ok", "refused", "ok", "detached"]

    def test_set_attach_capacity_validates_and_restores(self):
        with pytest.raises(ValueError):
            set_attach_capacity(0)
        previous = set_attach_capacity(5)
        assert set_attach_capacity(previous) == 5


_PIN_CHILD = """
from repro.overlay.topology import flat_random
from repro.runtime.shm import _CACHE, SharedTopology, attach_topology, detach

topology = flat_random(48, 4.0, seed=3)
expected = int(topology.neighbors.sum())
with SharedTopology(topology) as owner:
    spec = owner.spec
    print(*(array.name for array in spec.arrays()), flush=True)
    # Forget the owner's own view, then attach by name as a worker does.
    assert _CACHE.drop(spec) is True
    neighbors = attach_topology(spec).neighbors
    for held in ("array", "topology view"):
        try:
            detach(spec)
        except RuntimeError as exc:
            assert "still referenced" in str(exc)
            print("refused")
        if held == "array":
            assert int(neighbors.sum()) == expected
            view = attach_topology(spec)
            del neighbors
        else:
            assert int(view.neighbors.sum()) == expected
            del view
        print("ok", flush=True)
    assert detach(spec) is True
    print("detached")
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


_CHILD_TEMPLATE = """
import signal
from repro.overlay.topology import flat_random
from repro.runtime.shm import SharedTopology, cleanup_on_signal

owner = SharedTopology(flat_random(64, 4.0, seed=1))
{install}
print(*(array.name for array in owner.spec.arrays()), flush=True)
signal.pause()
"""


def _spawn_owner_child(install: str) -> tuple[subprocess.Popen, list[str]]:
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_TEMPLATE.format(install=install)],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    assert proc.stdout is not None
    names = proc.stdout.readline().split()
    assert len(names) == 3, "child failed before publishing"
    return proc, names


def _segment_paths(names: list[str]) -> list[str]:
    return ["/dev/shm/" + name for name in names]


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem required"
)
class TestSignalCleanup:
    def test_sigterm_unlinks_owned_segments(self):
        proc, names = _spawn_owner_child("cleanup_on_signal()")
        paths = _segment_paths(names)
        try:
            assert all(os.path.exists(p) for p in paths)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # Died *with* SIGTERM (handler re-raised), and left nothing.
        assert proc.returncode == -signal.SIGTERM
        assert not any(os.path.exists(p) for p in paths)

    def test_without_handler_segments_leak(self):
        # Control: the default disposition really does orphan segments
        # — this is what proves the assertion above is load-bearing.
        proc, names = _spawn_owner_child("")
        paths = _segment_paths(names)
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert all(os.path.exists(p) for p in paths)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for path in paths:  # clean the deliberate leak
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass

    def test_sigint_also_covered(self):
        proc, names = _spawn_owner_child("cleanup_on_signal()")
        paths = _segment_paths(names)
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert not any(os.path.exists(p) for p in paths)

    def test_uninstall_restores_previous_handlers(self):
        from repro.runtime.shm import cleanup_on_signal

        previous = signal.getsignal(signal.SIGTERM)
        uninstall = cleanup_on_signal(signals=(signal.SIGTERM,))
        assert signal.getsignal(signal.SIGTERM) is not previous
        uninstall()
        assert signal.getsignal(signal.SIGTERM) is previous
