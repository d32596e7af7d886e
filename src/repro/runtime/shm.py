"""Shared-memory transport for topologies and posting lists.

Pickling the Fig. 8 topology's ~1M CSR entries (or a content index's
posting lists) into every worker task would dominate the fan-out cost.
Instead an *owner* publishes each artifact into POSIX shared-memory
segments once, and workers attach zero-copy read-only views by segment
name.  There is one layout for each artifact: a topology is its three
flat CSR arrays (:class:`SharedTopology`; attaching yields a read-only
:class:`~repro.overlay.topology.Topology` the flat kernels run on
unchanged), and a posting index is the term-range posting shards of
:mod:`repro.overlay.content` (:class:`ShardedPostings`, one shard by
default), one segment per array.  Each :class:`SharedArraySpec`
carries its array's dtype string, so the transport is dtype-agnostic:
narrowing a kernel array never touches this layer.

Lifecycle: the owner creates a :class:`SharedTopology` or
:class:`ShardedPostings` (ideally as a context manager) and ships the
tiny picklable spec to workers, which call :func:`attach_topology` or
:func:`attach_postings`.  Attachments are cached per process, so a
pool worker maps each segment once no matter how many tasks it runs.
The owner's ``close()`` unlinks the segments; workers must not outlive
it.  Under the ``fork`` start method workers inherit the owner's
attachment cache and never reopen the segments by name at all.  An
owner dropped without ``close()`` is closed by its ``__del__`` safety
net, which counts it in the ``shm.unclosed_owners`` counter; the test
suite fails any test that moves that counter.

Two guarantees added for long-lived processes (the serving loop):

* the attachment cache is a bounded LRU — a worker that attaches many
  specs over its lifetime unmaps the least recently used mapping
  instead of accumulating dead ones; :func:`detach` drops one
  explicitly, and only mappings with no live views are ever closed;
* :func:`cleanup_on_signal` installs SIGTERM/SIGINT handlers that
  close every live owner and re-raise, because the ``__del__`` /
  ``finally`` safety nets never run in a killed process and an
  unlinked-too-late segment is orphaned in ``/dev/shm`` forever.
"""

from __future__ import annotations

import signal
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, NoReturn, Sequence, TypeVar, cast

import numpy as np

from repro.obs import metrics, span
from repro.overlay.content import (
    DensePostings,
    PostingShard,
    PostingShardSet,
    SharedContentIndex,
    partition_postings,
)
from repro.overlay.topology import Topology
from repro.runtime.sanitize import freeze

__all__ = [
    "PostingShardSpec",
    "ShardedPostings",
    "ShardedPostingsSpec",
    "SharedArraySpec",
    "SharedTopology",
    "SharedTopologySpec",
    "attach_postings",
    "attach_topology",
    "cleanup_on_signal",
    "close_all_owners",
    "detach",
    "set_attach_capacity",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """Address of one array in shared memory (picklable, tiny)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedTopologySpec:
    """Picklable address of a published :class:`Topology`'s CSR arrays."""

    offsets: SharedArraySpec
    neighbors: SharedArraySpec
    forwards: SharedArraySpec

    def arrays(self) -> tuple[SharedArraySpec, ...]:
        """Every segment address, in publication order."""
        return (self.offsets, self.neighbors, self.forwards)


@dataclass(frozen=True)
class PostingShardSpec:
    """Addresses of one posting shard's arrays plus its term range."""

    lo: int
    hi: int
    offsets: SharedArraySpec
    instances: SharedArraySpec


@dataclass(frozen=True)
class ShardedPostingsSpec:
    """Picklable address of a published posting shard set.

    ``bounds`` is value-carried (O(shards) metadata); the per-shard
    offset/instance arrays and the instance-to-peer map live in their
    own segments.
    """

    bounds: tuple[int, ...]
    instance_peer: SharedArraySpec
    shards: tuple[PostingShardSpec, ...]

    def arrays(self) -> tuple[SharedArraySpec, ...]:
        """Every segment address, in publication order."""
        return (
            self.instance_peer,
            *(a for s in self.shards for a in (s.offsets, s.instances)),
        )


def _topology_view(
    spec: SharedTopologySpec, arrays: Sequence[np.ndarray]
) -> Topology:
    """The :class:`Topology` over arrays laid out as ``spec.arrays()``."""
    return Topology(*arrays)


def _posting_set_view(
    spec: ShardedPostingsSpec, arrays: Sequence[np.ndarray]
) -> PostingShardSet:
    """The :class:`PostingShardSet` over arrays laid out as ``spec.arrays()``."""
    return PostingShardSet(
        bounds=freeze(np.asarray(spec.bounds, dtype=np.int64)),
        shards=tuple(
            PostingShard(s.lo, s.hi, arrays[1 + 2 * i], arrays[2 + 2 * i])
            for i, s in enumerate(spec.shards)
        ),
        instance_peer=arrays[0],
        spec=spec,
    )


@dataclass
class _Entry:
    """One cached attachment: the view object plus what keeps it mapped."""

    value: object
    #: ``None`` for the owner's own pre-seeded view (pinned).
    segments: list[shared_memory.SharedMemory] | None
    #: Weakrefs to every array built over ``segments``.
    pins: list["weakref.ref[np.ndarray]"]
    #: Builds a fresh view object (and its arrays) over ``segments``.
    rebuild: Callable[[], tuple[object, list[np.ndarray]]] | None


class _AttachCache:
    """Per-process attachment cache with a bounded LRU over mappings.

    One entry per published artifact spec.  Two kinds of entry:

    * **owner-preseeded** (``segments is None``): the owning process's
      view over its own segments.  Pinned — the owner's ``close()``
      drops it; the LRU never touches it.
    * **attached** (``segments`` held): a worker-side mapping opened by
      name.  These counted toward ``capacity``; the least recently
      used mapping is *closed* (unmapped) when the bound is exceeded,
      which is what keeps a long-lived worker that attaches many
      topologies over its lifetime from accumulating dead mappings.

    Eviction (and explicit :func:`detach`) only ever closes a mapping
    that nothing outside the cache references: neither the view object
    nor any array built over the segments (see :meth:`_release`).  So a
    consumer holding a view or an array taken out of one (a resident
    ``FloodDepthCache``, a serving engine) can never have its memory
    unmapped out from under it.  A still-referenced candidate is
    treated as recently used instead.
    """

    def __init__(self, capacity: int = 16) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[object, _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: object) -> object | None:
        entry = self._entries.get(spec)
        if entry is None:
            return None
        self._entries.move_to_end(spec)
        return entry.value

    def put(
        self,
        spec: object,
        value: object,
        segments: list[shared_memory.SharedMemory] | None = None,
        arrays: Sequence[np.ndarray] = (),
        rebuild: Callable[[], tuple[object, list[np.ndarray]]] | None = None,
    ) -> None:
        pins = [weakref.ref(a) for a in arrays]
        self._entries[spec] = _Entry(value, segments, pins, rebuild)
        self._entries.move_to_end(spec)
        if segments is not None:
            self._evict_over_capacity()

    def _release(self, spec: object) -> bool:
        """Pop an attached entry and unmap it unless still referenced.

        Numpy arrays over ``SharedMemory.buf`` do not block ``close()``,
        so this probe is the only thing between a live array and a read
        of unmapped memory.  It watches the view object *and* every
        array built over the segments: an array taken out of a view
        outlives the view object itself.  The cache's own reference to
        the view is dropped before probing, or the probe would always
        read "referenced".

        Returns ``True`` after closing.  Otherwise the entry goes back
        as most recently used — with a fresh view object over the same
        segments when only bare arrays were keeping the mapping alive —
        and ``False`` is returned.
        """
        entry = self._entries.pop(spec)
        assert entry.segments is not None
        held = weakref.ref(entry.value)
        entry.value = None
        if held() is None and all(pin() is None for pin in entry.pins):
            for segment in entry.segments:
                segment.close()
            return True
        value = held()
        if value is None:
            assert entry.rebuild is not None  # only arrays pin, and they rebuild
            value, arrays = entry.rebuild()
            entry.pins = [pin for pin in entry.pins if pin() is not None]
            entry.pins.extend(weakref.ref(a) for a in arrays)
        entry.value = value
        self._entries[spec] = entry
        return False

    def drop(self, spec: object) -> bool:
        """Detach ``spec``: forget the entry, unmap attached segments.

        Returns ``False`` when the spec was not cached.  Raises
        ``RuntimeError`` (entry restored) when the mapping is still
        referenced — detaching memory in use would invalidate live
        arrays.
        """
        entry = self._entries.get(spec)
        if entry is None:
            return False
        if entry.segments is None:
            del self._entries[spec]
            return True  # owner-preseeded: the owner closes its segments
        if not self._release(spec):
            raise RuntimeError(
                f"cannot detach {type(spec).__name__}: attached views are "
                "still referenced (drop them first)"
            )
        metrics().inc("shm.attach.detached")
        return True

    def _evict_over_capacity(self) -> None:
        """Close least-recently-used unreferenced mappings over budget."""
        attached = [
            spec for spec, entry in self._entries.items()
            if entry.segments is not None
        ]
        excess = len(attached) - self.capacity
        for spec in attached:
            if excess <= 0:
                break
            if self._release(spec):
                metrics().inc("shm.attach.evicted")
                excess -= 1
            else:
                metrics().inc("shm.attach.pinned")


#: The process-wide attachment cache.  Workers (fork or spawn) each
#: get their own instance.
_CACHE = _AttachCache()


def detach(spec: object) -> bool:
    """Explicitly drop a cached attachment and unmap its segments.

    The long-lived-worker counterpart of attach caching: a process that
    serves many topologies calls this when it swaps one out, instead of
    waiting for LRU pressure.  Returns ``False`` if ``spec`` was not
    attached.  Raises ``RuntimeError`` if views over the mapping, or
    arrays taken out of them, are still referenced.
    """
    return _CACHE.drop(spec)


def set_attach_capacity(capacity: int) -> int:
    """Set the LRU bound on concurrently-cached attachments.

    Returns the previous capacity.  The bound counts worker-side
    mappings only (owner-preseeded entries are pinned until the owner
    closes).  Shrinking triggers an immediate eviction pass.
    """
    if capacity < 1:
        raise ValueError("attach capacity must be positive")
    previous = _CACHE.capacity
    _CACHE.capacity = capacity
    _CACHE._evict_over_capacity()
    return previous


#: Live owner handles in this process, for signal-time cleanup.  Weak:
#: an owner that was garbage collected already ran its safety net.
_LIVE_OWNERS: "weakref.WeakSet[_SharedArrayOwner]" = weakref.WeakSet()


def _view(segment: shared_memory.SharedMemory, spec: SharedArraySpec) -> np.ndarray:
    """A read-only array over one segment's buffer."""
    view: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    return freeze(view)


def _export(
    arrays: Sequence[np.ndarray],
) -> tuple[list[SharedArraySpec], list[shared_memory.SharedMemory], list[np.ndarray]]:
    """Copy each array into a fresh segment; return specs, segments, views."""
    specs: list[SharedArraySpec] = []
    segments: list[shared_memory.SharedMemory] = []
    views: list[np.ndarray] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        specs.append(SharedArraySpec(segment.name, array.shape, array.dtype.str))
        segments.append(segment)
        views.append(freeze(view))
    return specs, segments, views


class _SharedArrayOwner:
    """Common owner lifecycle for a set of published arrays.

    Subclasses export their arrays in ``__init__`` and hand the result
    to :meth:`_adopt`; this base handles cache pre-seeding, the live-
    owner registry, unlinking, and the context-manager/GC plumbing.
    """

    spec: object
    _segments: list[shared_memory.SharedMemory]
    _closed: bool

    def _adopt(
        self,
        spec: object,
        segments: list[shared_memory.SharedMemory],
        attached: object,
    ) -> None:
        """Take ownership of freshly exported segments.

        Pre-seeds the attachment cache (fork-started workers inherit
        it and read the owner's mapping directly; in-process
        ``n_workers=1`` fallbacks skip the name lookup) and registers
        this owner for :func:`close_all_owners` signal-time cleanup.
        """
        self.spec = spec
        self._segments = segments
        self._closed = False
        _CACHE.put(spec, attached)
        _LIVE_OWNERS.add(self)

    def close(self) -> None:
        """Unlink the segments.  Workers must be joined before this.

        Idempotent and safe to call from a signal handler: the closed
        flag flips first, so a re-entrant call (handler interrupting an
        in-progress close) returns immediately instead of
        double-unlinking.
        """
        if self._closed:
            return
        self._closed = True
        try:
            _CACHE.drop(self.spec)
        except RuntimeError:
            # Views over the owner's segments may legitimately outlive
            # the cache entry; dropping the entry is all close() needs.
            pass
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                # A consumer still holds views over the owner's own
                # mapping; the segment object stays open in this
                # process but the backing file is still unlinked below.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __enter__(self) -> "_SharedArrayOwner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __reduce__(self) -> NoReturn:
        # An unpickled copy would be a second owner: dropping it in a
        # worker runs close() there and unlinks the publisher's segments.
        raise TypeError(
            f"{type(self).__name__} owns its shm segments and cannot be "
            "pickled; send its .spec and attach in the worker"
        )

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                # Every owner must be closed by its holder; count each
                # one this net had to close (tests fail when it moves).
                metrics().inc("shm.unclosed_owners")
            self.close()
        except (AttributeError, TypeError):
            # A constructor that raised before _adopt, or interpreter
            # shutdown: module globals may already be gone.
            pass


def close_all_owners() -> int:
    """Close every live owner handle in this process; returns the count.

    The teardown path behind :func:`cleanup_on_signal`, also usable
    directly by a serving loop's drain sequence.  Closing unlinks the
    ``/dev/shm`` backing files, which is the part a killed process must
    not skip — orphaned segments survive process death.
    """
    closed = 0
    for owner in list(_LIVE_OWNERS):
        if not owner._closed:
            owner.close()
            closed += 1
    return closed


def cleanup_on_signal(
    signals: tuple[signal.Signals, ...] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Install handlers that unlink owned shm segments before dying.

    ``__del__``/``finally`` safety nets never run when a process is
    killed: Python's default SIGTERM disposition terminates the
    interpreter immediately, orphaning every ``/dev/shm`` segment this
    process owns.  The installed handler closes all live owner handles
    (:func:`close_all_owners`), restores the previous disposition, and
    re-raises the signal so the process still dies with the expected
    status (and any outer handler still runs).

    Returns an ``uninstall()`` callable restoring the previous
    handlers.  Must be called from the main thread (a CPython
    ``signal.signal`` requirement).
    """
    previous: dict[int, object] = {}

    def _handler(signum: int, frame: object) -> None:
        close_all_owners()
        restored = previous.get(signum)
        if not (callable(restored) or isinstance(restored, int)):
            restored = signal.SIG_DFL
        signal.signal(signum, restored)  # type: ignore[arg-type]
        signal.raise_signal(signal.Signals(signum))

    for sig in signals:
        previous[int(sig)] = signal.signal(sig, _handler)

    def uninstall() -> None:
        for signum, handler in previous.items():
            restored = handler
            if not (callable(restored) or isinstance(restored, int)):
                restored = signal.SIG_DFL
            signal.signal(signum, restored)  # type: ignore[arg-type]

    return uninstall


class SharedTopology(_SharedArrayOwner):
    """Owner handle for a topology published to shared memory.

    The offsets, neighbors and forwards arrays get one segment each.
    The owner pre-seeds the attachment cache with a :class:`Topology`
    over the published segments, so the owning process (and
    fork-started workers) read the exact bytes the spec addresses.
    """

    spec: SharedTopologySpec

    def __init__(self, topology: Topology) -> None:
        with span("topology.publish", nodes=topology.n_nodes):
            specs, segments, views = _export(
                [topology.offsets, topology.neighbors, topology.forwards]
            )
        spec = SharedTopologySpec(*specs)
        self._adopt(spec, segments, _topology_view(spec, views))

    def __enter__(self) -> "SharedTopology":
        return self


class ShardedPostings(_SharedArrayOwner):
    """Owner handle for posting shards published to shared memory.

    Accepts a content index (or dense provider) plus ``n_shards``
    (default one shard), or a pre-partitioned
    :class:`~repro.overlay.content.PostingShardSet`.  The pre-seeded
    attachment is a view-backed shard set carrying ``spec``, so
    consumers holding the provider can recover the worker address
    without re-publishing.
    """

    spec: ShardedPostingsSpec

    def __init__(
        self,
        source: SharedContentIndex | DensePostings | PostingShardSet,
        *,
        n_shards: int | None = None,
    ) -> None:
        if isinstance(source, PostingShardSet):
            if n_shards is not None and n_shards != source.n_shards:
                raise ValueError(
                    f"source is already partitioned into {source.n_shards} "
                    f"shards; n_shards={n_shards} conflicts"
                )
            shard_set = source
        else:
            shard_set = partition_postings(source, n_shards or 1)
        with span("postings.publish", shards=shard_set.n_shards):
            specs, segments, views = _export(
                [shard_set.instance_peer]
                + [a for s in shard_set.shards for a in (s.offsets, s.instances)]
            )
        spec = ShardedPostingsSpec(
            bounds=tuple(int(b) for b in shard_set.bounds),
            instance_peer=specs[0],
            shards=tuple(
                PostingShardSpec(s.lo, s.hi, specs[1 + 2 * i], specs[2 + 2 * i])
                for i, s in enumerate(shard_set.shards)
            ),
        )
        self._adopt(spec, segments, _posting_set_view(spec, views))

    def __enter__(self) -> "ShardedPostings":
        return self

    @property
    def provider(self) -> PostingShardSet:
        """The view-backed shard set over the published segments."""
        return attach_postings(self.spec)


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Undo the attach-side resource_tracker registration.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the process's resource tracker, which then tries
    to unlink it again at exit (the owner already did) and warns about
    "leaked" objects.  Only the owner should track the segment.
    """
    resource_tracker.unregister(getattr(segment, "_name", segment.name), "shared_memory")


_Spec = TypeVar("_Spec", SharedTopologySpec, ShardedPostingsSpec)
_View = TypeVar("_View")


def _attach(
    spec: _Spec, build: Callable[[_Spec, Sequence[np.ndarray]], _View]
) -> _View:
    """Map every segment of ``spec`` read-only and cache the built view."""
    cached = _CACHE.get(spec)
    if cached is not None:
        return cast(_View, cached)
    array_specs = spec.arrays()
    segments: list[shared_memory.SharedMemory] = []
    for array_spec in array_specs:
        segment = shared_memory.SharedMemory(name=array_spec.name)
        _untrack(segment)
        segments.append(segment)

    def views() -> tuple[object, list[np.ndarray]]:
        arrays = [_view(seg, s) for seg, s in zip(segments, array_specs)]
        return build(spec, arrays), arrays

    value, arrays = views()
    _CACHE.put(spec, value, segments, arrays, views)
    return cast(_View, value)


def attach_topology(spec: SharedTopologySpec) -> Topology:
    """Map a published topology into this process (cached, read-only)."""
    return _attach(spec, _topology_view)


def attach_postings(spec: ShardedPostingsSpec) -> PostingShardSet:
    """Map published posting shards into this process (cached, read-only)."""
    return _attach(spec, _posting_set_view)
