"""Tests for repro.runtime.parallel.

The load-bearing property is worker-count independence: ``pmap`` must
return bitwise-identical results for any ``n_workers``, because each
task's generator is derived from ``(seed, key, index)`` alone.
"""

from __future__ import annotations

import dataclasses
import os
from functools import partial

import numpy as np
import pytest

from repro.core.experiment import Fig8TopologyConfig
from repro.core.flood_sim import (
    FloodSimConfig,
    PlacementSpec,
    _run_fig8_uncached,
    run_flood_success,
)
from repro.core.hybrid_eval import HybridEvalConfig, evaluate_hybrid
from repro.overlay.flooding import reach_fractions
from repro.overlay.topology import two_tier_gnutella
from repro.runtime import parallel
from repro.runtime.parallel import pmap, resolve_workers
from repro.utils.rng import derive, make_rng


def _draw(item: float, rng: np.random.Generator) -> np.ndarray:
    """Worker that consumes its task rng (module-level: picklable)."""
    return item + rng.random(4)


def _identity(item: int, rng: np.random.Generator) -> int:
    return item


def _double(item: int) -> int:
    """Plain task: registered with needs_rng=False, so no rng arg."""
    return item * 2


def _index_draw(item: int, rng: np.random.Generator) -> float:
    return float(rng.random())


class TestResolveWorkers:
    def test_serial(self):
        assert resolve_workers(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_explicit_pool(self):
        assert resolve_workers(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            resolve_workers(-1)


class TestPmapDeterminism:
    def test_serial_vs_parallel_bitwise(self):
        items = [0.5, 1.5, 2.5, 3.5, 4.5]
        serial = pmap(_draw, items, seed=11, key="det", n_workers=1)
        parallel = pmap(_draw, items, seed=11, key="det", n_workers=3)  # simlint: ignore[SIM011] serial-vs-parallel equivalence needs the identical stream
        assert len(serial) == len(parallel) == len(items)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_matches_explicit_derivation(self):
        results = pmap(_index_draw, [10, 20, 30], seed=7, key="k", n_workers=1)
        expected = [float(derive(7, "k", i).random()) for i in range(3)]
        assert results == expected

    def test_order_preserved(self):
        items = list(range(17))
        assert pmap(_identity, items, seed=0, key="o", n_workers=4) == items

    def test_seed_changes_results(self):
        a = pmap(_draw, [1.0], seed=1, key="s", n_workers=1)
        b = pmap(_draw, [1.0], seed=2, key="s", n_workers=1)
        assert not np.array_equal(a[0], b[0])

    def test_key_changes_results(self):
        a = pmap(_draw, [1.0], seed=1, key="ka", n_workers=1)
        b = pmap(_draw, [1.0], seed=1, key="kb", n_workers=1)
        assert not np.array_equal(a[0], b[0])


class TestPlainTasks:
    """needs_rng=False: deterministic tasks take no generator at all."""

    def test_serial_calls_without_rng(self):
        assert pmap(_double, [1, 2, 3], seed=0, key="p", n_workers=1,
                    needs_rng=False) == [2, 4, 6]

    def test_parallel_matches_serial(self):
        items = list(range(9))
        serial = pmap(_double, items, seed=0, key="p", n_workers=1,
                      needs_rng=False)
        parallel = pmap(_double, items, seed=0, key="p", n_workers=3,  # simlint: ignore[SIM011] serial-vs-parallel equivalence needs the identical stream
                        needs_rng=False)
        assert serial == parallel == [2 * i for i in items]

    def test_rng_task_rejects_plain_contract(self):
        # A task expecting an rng fails loudly if registered plain,
        # instead of silently running with a missing argument.
        with pytest.raises(TypeError):
            pmap(_draw, [1.0, 2.0], seed=0, key="p", n_workers=1,
                 needs_rng=False)


class TestPmapMetrics:
    """pmap's counters must tally tasks exactly, serial and parallel."""

    def test_serial_task_count(self):
        from repro.obs import metrics

        before = metrics().snapshot()
        pmap(_identity, list(range(7)), seed=0, key="m", n_workers=1)
        delta = metrics().delta_since(before)
        assert delta.counter("pmap.tasks") == 7
        assert delta.counter("pmap.maps") == 1
        assert delta.timers["pmap.task"].count == 7

    def test_parallel_worker_deltas_merge_to_serial_totals(self):
        from repro.obs import metrics

        before = metrics().snapshot()
        pmap(_identity, list(range(8)), seed=0, key="m", n_workers=2)
        delta = metrics().delta_since(before)
        assert delta.counter("pmap.tasks") == 8
        assert delta.timers["pmap.task"].count == 8
        per_worker = [
            n for name, n in delta.counters.items()
            if name.startswith("pmap.worker.") and name.endswith(".tasks")
        ]
        assert sum(per_worker) == 8
        assert delta.gauges["pmap.workers"] == 2.0


class TestPmapEdges:
    def test_empty(self):
        assert pmap(_identity, [], seed=0, key="e", n_workers=4) == []

    def test_single_item_stays_serial(self):
        assert pmap(_identity, [42], seed=0, key="e", n_workers=8) == [42]

    def test_accepts_iterator(self):
        assert pmap(_identity, iter(range(3)), seed=0, key="e") == [0, 1, 2]


def _scaled(item: float, rng: np.random.Generator, *, scale=None) -> float:
    return item * float(scale.random())


def _shifted(shift, item: float, rng: np.random.Generator) -> float:
    return item + float(shift.random())


def _generator_shapes(shared: np.random.Generator) -> dict:
    """Each way a live generator can reach a task: (fn, items) per shape.

    The first four are the shapes the deleted static rule flagged
    (docs/static-analysis.md, "Deleted rules"): lambda capture,
    nested-def capture, the generator as the task, and an alias of a
    captured generator.
    """

    def task(item, task_rng):
        return item + shared.random()

    alias = shared
    return {
        "lambda capture": (lambda item, task_rng: item * shared.random(), [1.0, 2.0]),
        "nested def capture": (task, [1.0, 2.0]),
        "generator as task": (shared, [1.0, 2.0]),
        "alias capture": (lambda item, task_rng: item * alias.random(), [1.0, 2.0]),
        "partial keyword": (partial(_scaled, scale=shared), [1.0, 2.0]),
        "partial argument": (partial(partial(_shifted, shared)), [1.0, 2.0]),
        "item": (_identity, [1.0, shared]),
        "tuple item": (_identity, [(1.0, 2.0), (3.0, shared)]),
    }


class TestLiveGeneratorGuard:
    """pmap refuses a shared generator before any task or worker runs."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("shape", list(_generator_shapes(make_rng(0))))
    def test_every_shape_raises_before_any_work(self, shape, n_workers, monkeypatch):
        shared = make_rng(5)
        state = shared.bit_generator.state
        fn, items = _generator_shapes(shared)[shape]

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        with pytest.raises(TypeError, match="live np.random.Generator"):
            pmap(fn, items, seed=0, key=shape, n_workers=n_workers)
        assert shared.bit_generator.state == state  # no task drew from it

    def test_tasks_that_use_their_own_generator_run(self):
        rng = make_rng(5)
        scale = float(rng.random())  # data drawn from a generator is fine
        assert pmap(_draw, [1.0], seed=3, key="own", n_workers=1)[0].shape == (4,)
        assert pmap(
            lambda item, task_rng: item * scale, [1.0, 2.0],
            seed=3, key="data", n_workers=1,
        ) == [scale, 2.0 * scale]


def _reach(n_workers: int) -> np.ndarray:
    topo = two_tier_gnutella(800, seed=3)
    return reach_fractions(
        topo, np.arange(0, 800, 100), [1, 2, 3], n_workers=n_workers
    )


def _flood_success(n_workers: int) -> np.ndarray:
    topo = two_tier_gnutella(800, seed=3)
    return run_flood_success(
        topo, PlacementSpec(), ttls=(1, 2, 3), n_eval_objects=8, seed=2,
        n_workers=n_workers,
    ).success


def _fig8(n_workers: int) -> np.ndarray:
    result = _run_fig8_uncached(
        FloodSimConfig(
            topology=Fig8TopologyConfig(n_nodes=2_000),
            ttls=(1, 2, 3),
            n_eval_objects=6,
            uniform_replicas=(1,),
            n_workers=n_workers,
        )
    )
    return np.stack([curve.success for curve in result.curves])


def _hybrid(n_workers: int) -> np.ndarray:
    result = evaluate_hybrid(
        HybridEvalConfig(
            topology=Fig8TopologyConfig(n_nodes=2_000),
            n_eval_objects=6,
            n_flood_probes=4,
            dht_lookup_samples=10,
            n_workers=n_workers,
        )
    )
    return np.asarray(dataclasses.astuple(result))


#: (experiment, module whose ``pmap`` it fans out through).
CALLERS = [
    pytest.param(_reach, "repro.runtime.parallel", id="reach_fractions"),
    pytest.param(_flood_success, "repro.core.flood_sim", id="run_flood_success"),
    pytest.param(_fig8, "repro.core.flood_sim", id="run_fig8"),
    pytest.param(_hybrid, "repro.core.hybrid_eval", id="evaluate_hybrid"),
]


class TestCallersResolveWorkers:
    """Experiments honour ``n_workers``'s contract: 0 is one per CPU."""

    @pytest.mark.parametrize(("run", "pmap_module"), CALLERS)
    def test_zero_fans_out_per_cpu(self, run, pmap_module, monkeypatch):
        serial = run(1)
        widths: list[int] = []

        def spy(*args, **kwargs):
            widths.append(kwargs["n_workers"])
            return pmap(*args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(f"{pmap_module}.pmap", spy)
        np.testing.assert_array_equal(run(0), serial)
        assert widths and set(widths) == {2}

    @pytest.mark.parametrize(("run", "pmap_module"), CALLERS)
    def test_negative_rejected(self, run, pmap_module):
        with pytest.raises(ValueError, match="n_workers"):
            run(-1)
