"""Deterministic process-pool fan-out (``pmap``).

The contract: ``pmap(fn, items, seed=s, key=k)`` calls
``fn(item, derive(s, k, index))`` for every item and returns the
results in item order.  Because each task's generator is *derived*
from ``(seed, key, index)`` — never from a shared stream — the output
is bitwise-identical whether the tasks run serially in-process or
fanned out over any number of worker processes.  Tasks that consume no
randomness pass ``needs_rng=False`` and are called as ``fn(item)``,
skipping the per-task seed derivation entirely.

Workers receive ``fn`` by pickling, so it must be a module-level
function (or a :func:`functools.partial` of one).  Large shared inputs
— chiefly the CSR :class:`~repro.overlay.topology.Topology` arrays —
should travel through :mod:`repro.runtime.shm` rather than being
captured in the partial, which would re-pickle them for every task.

A task must draw only from the generator ``pmap`` hands it.  ``pmap``
refuses, with ``TypeError`` and on the serial path too, a live
``np.random.Generator`` that is the task, sits in the task's closure
cells or in a :func:`functools.partial`'s arguments, or is an item (or
an element of a tuple item): serially the tasks would advance one
shared stream in order, while every worker's pickled copy restarts
from the same state, so serial and parallel results would differ.

Instrumentation: every task is timed into the ``pmap.task`` timer and
counted under ``pmap.worker.<pid>.tasks``; parallel runs measure these
inside each worker process and ship the per-task metrics delta back
with the result, so the coordinator's registry reports the same
totals a serial run would.  Metrics are observational only — they
never affect task results.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar, Union

import numpy as np

from repro.obs import MetricsSnapshot, metrics
from repro.runtime.sanitize import task_guard
from repro.utils.rng import derive

__all__ = ["pmap", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Per-task callables receive the item and a task-private generator.
TaskFn = Callable[[T, np.random.Generator], R]
#: RNG-free task callables (``needs_rng=False``) receive just the item.
PlainTaskFn = Callable[[T], R]


def resolve_workers(n_workers: int) -> int:
    """Normalize a worker-count config field.

    ``1`` (the default everywhere) means serial in-process execution;
    ``0`` means "one per available CPU"; anything negative is an error.
    """
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers == 0:
        return os.cpu_count() or 1
    return n_workers


def _holds_generator(values: Iterable[object]) -> bool:
    return any(isinstance(value, np.random.Generator) for value in values)


def _closure_values(fn: object) -> list[object]:
    """The bound contents of ``fn``'s closure cells (empty cells skipped)."""
    values: list[object] = []
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # a free name not bound yet
            pass
    return values


def _generator_site(fn: object, items: Sequence[object]) -> str | None:
    """Where a live generator would cross the task boundary, or ``None``."""
    task = fn
    while isinstance(task, functools.partial):
        if _holds_generator((*task.args, *task.keywords.values())):
            return "is bound by functools.partial"
        task = task.func
    if isinstance(task, np.random.Generator):
        return "is the task itself"
    if _holds_generator(_closure_values(task)):
        return "is captured by the task's closure"
    for item in items:
        if isinstance(item, np.random.Generator) or (
            isinstance(item, tuple) and _holds_generator(item)
        ):
            return "is passed as an item"
    return None


def _call_task(
    fn: Union[TaskFn, PlainTaskFn],
    item: T,
    seed: int,
    key: str | int,
    index: int,
    needs_rng: bool,
) -> R:
    """Derive the task RNG (when the task wants one), then run the task."""
    if needs_rng:
        return fn(item, derive(seed, key, index))  # type: ignore[call-arg]
    return fn(item)  # type: ignore[call-arg]


def _run_task(
    fn: Union[TaskFn, PlainTaskFn],
    item: T,
    seed: int,
    key: str | int,
    index: int,
    needs_rng: bool,
) -> R:
    """In-process task execution, recording into the live registry."""
    registry = metrics()
    with registry.timer("pmap.task"), task_guard():
        result = _call_task(fn, item, seed, key, index, needs_rng)
    registry.inc(f"pmap.worker.{os.getpid()}.tasks")
    return result


def _run_task_traced(
    fn: Union[TaskFn, PlainTaskFn],
    item: T,
    seed: int,
    key: str | int,
    index: int,
    needs_rng: bool,
) -> tuple[R, MetricsSnapshot]:
    """Worker-side shim: run the task, ship its metrics delta home.

    The delta covers everything the task recorded in this process —
    flood counters, cache hits, its own ``pmap.task`` timing — so
    merging all task deltas into the coordinator's registry makes a
    parallel run report the same totals as a serial one.
    """
    registry = metrics()
    before = registry.snapshot()
    result = _run_task(fn, item, seed, key, index, needs_rng)
    return result, registry.delta_since(before)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap start, inherits shm attachments)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def pmap(
    fn: Union[TaskFn, PlainTaskFn],
    items: Iterable[T],
    *,
    seed: int,
    key: str | int,
    n_workers: int = 1,
    needs_rng: bool = True,
) -> list[R]:
    """Deterministic (possibly parallel) map over ``items``.

    Each task ``i`` runs ``fn(items[i], derive(seed, key, i))``;
    results come back in item order.  ``n_workers <= 1`` runs in
    process with no pool at all, ``n_workers == 0`` auto-sizes to the
    CPU count, and any worker count yields bitwise-identical results
    because the per-task generators depend only on ``(seed, key, i)``.

    ``key`` namespaces the task streams: two ``pmap`` calls inside one
    experiment must use distinct keys or their tasks will share RNG
    streams index-for-index.

    ``needs_rng=False`` declares the task deterministic: ``fn`` is
    called as ``fn(item)`` and no per-task seed derivation happens.
    Use it for pure fan-outs (BFS rows, batch chunks) where a dangling
    ``rng`` parameter would only invite misuse.
    """
    items_list = list(items)
    site = _generator_site(fn, items_list)
    if site is not None:
        raise TypeError(
            f"a live np.random.Generator {site}; each pmap task must draw "
            "from the generator pmap derives for it from (seed, key, index)"
        )
    workers = resolve_workers(n_workers)
    registry = metrics()
    registry.inc("pmap.maps")
    registry.inc("pmap.tasks", len(items_list))
    if workers <= 1 or len(items_list) <= 1:
        registry.gauge("pmap.workers", 1)
        with registry.timer("pmap.map"):
            return [
                _run_task(fn, item, seed, key, i, needs_rng)
                for i, item in enumerate(items_list)
            ]
    workers = min(workers, len(items_list))
    registry.gauge("pmap.workers", workers)
    with registry.timer("pmap.map"):
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context()
        ) as pool:
            futures: list[Future[tuple[R, MetricsSnapshot]]] = [
                pool.submit(_run_task_traced, fn, item, seed, key, i, needs_rng)
                for i, item in enumerate(items_list)
            ]
            outcomes = [f.result() for f in futures]
        for _, delta in outcomes:
            registry.merge(delta)
        return [result for result, _ in outcomes]
