"""Datasets as shards, and the one membership index that answers over them.

Every simulated answer reduces to one primitive — "does this set of
objects hold a member of ``g``?" — and :class:`ShardedMembershipIndex`
is the single implementation of it. A :class:`ShardedDataset`
partitions the object space into fixed-size **shards** whose columnar
code chunks are loaded lazily (from a memory map, a generator, or any
loader callable) and evicted LRU under a resident-shard cap; an in-RAM
:class:`~repro.data.dataset.LabeledDataset` is answered as a single
shard whose chunk is its own code matrix
(:meth:`ShardedMembershipIndex.for_dataset`). The index answers
``count`` / ``any_match`` / batched queries from a **bitmap index**:

* **value bitmaps** — one little-endian ``uint64`` bitmap over all N
  objects per ``(attribute, value)`` a query reads (N/8 bytes), built
  in a **fused** streaming pass (:func:`~repro.data.kernels.pack_columns`)
  that packs every new value of a batch off one chunk touch per shard,
  whatever the shard size;
* **predicate words** — a predicate's words are combined from its
  values' bitmaps word by word
  (:func:`~repro.data.kernels.predicate_words`: AND, OR, NOT with the
  tail masked), over the whole bitmap or only the gathered words a
  query reads; and
* **rank directories** — one ``int32`` count per word for each
  predicate with run queries, so a run's member count is two rank
  lookups plus a masked ``np.bitwise_count`` per end.

A scattered key is a gathered bit test and a run key two rank lookups,
so no set query loads a chunk once its bitmaps are built: chunks load
only for the streaming builds and for point labels
(:meth:`ShardedMembershipIndex.value_codes`). Bitmaps and rank
directories share one byte budget and are evicted whole, least recently
used first; the budget always holds every value bitmap and one rank
directory (:func:`bitmap_floor`). The
streaming build maps shards through a :class:`ShardExecutor`, in the
calling thread or on a thread pool; either way chunks become resident
in shard order, so residency and its counters are those of a serial
pass.

Everything is *exact*, so oracles answering over any shard geometry
are bit-identical to answering over the in-RAM dataset: same verdicts,
same task counts, same rng streams (pinned across layouts and executor
modes by the differential harness ``tests/test_differential.py``). Peak
memory is structurally bounded by ``max_resident_shards`` chunks plus the
bitmap budget — ``benchmarks/bench_shards.py`` asserts it while
auditing datasets 10× larger than an in-RAM index could hold.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import LabeledDataset
from repro.data.groups import GroupPredicate
from repro.data.kernels import (
    BIT,
    WORD,
    Condition,
    n_words,
    pack_columns,
    predicate_conditions,
    predicate_words,
    rank,
    rank_directory,
)
from repro.data.schema import Schema
from repro.errors import InvalidParameterError, OracleError

if TYPE_CHECKING:
    from repro.engine.requests import IndexKey, QueryKey

__all__ = [
    "ShardStats",
    "ShardExecutor",
    "ShardedDataset",
    "ShardedMembershipIndex",
    "bitmap_floor",
    "dense_index_bytes",
    "immutable",
]


def _check_object_indices(index_array: np.ndarray, n_objects: int) -> None:
    """Raise :class:`~repro.errors.OracleError` for any index outside
    ``[0, n_objects)`` — the bounds contract set queries and label
    decoding share, so a negative index raises instead of silently
    wrapping."""
    out_of_range = (index_array < 0) | (index_array >= n_objects)
    if out_of_range.any():
        bad = int(index_array[out_of_range][0])
        raise OracleError(f"object index {bad} out of range [0, {n_objects})")


def immutable(array: np.ndarray) -> bool:
    """Whether no array can change ``array``'s entries: it and every
    array it is a view of are read-only, over ``bytes`` or its own data.

    >>> view = np.arange(3)
    >>> immutable(view), immutable(np.frombuffer(view.tobytes(), dtype=view.dtype))
    (False, True)
    """
    base: object = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or isinstance(base, bytes)


#: an ascending view takes the run form of
#: :meth:`ShardedMembershipIndex.view_rank` when it misses at most one
#: object in this many between its ends: its run arrays (24 bytes a run)
#: then take at most 1.5 bytes per view object
_RUN_VIEW_HOLES = 16


def _run_starts(view: np.ndarray, holes: int) -> np.ndarray:
    """The positions where the maximal runs of the strictly ascending
    ``view`` start, ``0`` first; ``holes`` is the number of objects
    between its first and last that it misses. The steps are read in
    blocks of about ``sqrt(len(view) / holes)``: a block whose two ends
    lie on one run holds no break and is skipped, and at most ``holes``
    blocks are read step by step, so the whole costs about
    ``2 * sqrt(len(view) * holes)`` reads.

    >>> _run_starts(np.array([3, 4, 5, 9, 10, 12]), 4).tolist()
    [0, 3, 5]
    """
    size = len(view)
    span = max(1, math.isqrt(size // (holes + 1)))
    low = np.arange(0, size - 1, span)
    high = np.minimum(low + span, size - 1)
    broken = low[view[high] - view[low] != high - low]
    steps = (broken[:, None] + np.arange(span)).ravel()
    steps = steps[steps < size - 1]
    rises = steps[view[steps + 1] - view[steps] != 1] + 1
    return np.concatenate([np.zeros(1, dtype=np.int64), rises])


@dataclass
class ShardStats:
    """Residency accounting of one :class:`ShardedDataset`.

    The structural memory guarantee of the sharded path lives here:
    ``peak_resident_bytes`` can never exceed ``max_resident_shards ×
    bytes-per-chunk``, whatever the dataset size — the number
    ``benchmarks/bench_shards.py`` asserts against an in-RAM index's
    requirement. Every resident chunk came from exactly one counted load,
    so ``loads - evictions == resident_shards`` holds at every quiescent
    point, even when threads race to load one shard: the losers' loads
    count in ``raced_loads`` instead.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.sharded import ShardedDataset
    >>> dense = binary_dataset(100, 5, rng=np.random.default_rng(0))
    >>> sharded = ShardedDataset.from_dataset(dense, shard_size=30,
    ...                                       max_resident_shards=2)
    >>> _ = [sharded.chunk(s) for s in range(sharded.n_shards)]
    >>> sharded.stats.loads, sharded.stats.peak_resident_shards
    (4, 2)
    """

    #: chunk materializations that became resident (a regenerated
    #: evicted shard counts again)
    loads: int = 0
    #: materializations that lost a load race to another thread and were
    #: dropped for the winner's chunk (never resident, so not in ``loads``)
    raced_loads: int = 0
    #: chunks dropped to respect ``max_resident_shards``
    evictions: int = 0
    #: chunks resident right now / the lifetime high-water mark
    resident_shards: int = 0
    peak_resident_shards: int = 0
    #: bytes of resident chunks right now / the lifetime high-water mark
    resident_bytes: int = 0
    peak_resident_bytes: int = 0


class ShardExecutor:
    """Maps a function over shards: serially or on threads.

    The executor is the parallelism seam of the sharded path: the
    streaming bitmap build (:meth:`ShardedMembershipIndex.build_totals`)
    hands it one work item per shard, and that full-shard pass is its
    only caller — set queries read bitmaps and touch no chunk. Two
    modes, validated at construction:

    * ``"serial"`` (default) — runs in the calling thread; exact answers
      need no concurrency.
    * ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
      pays off when chunk loading is IO-bound or packing dominates
      (NumPy releases the GIL for large chunks). Chunks still become
      resident in shard order, so residency and its counters are those
      of a serial pass.

    Results always come back in input order, so answers are identical in
    both modes — pinned by ``tests/test_differential.py``. An exception
    raised by the mapped function (a failing loader, say) propagates
    as it is, and the executor stays usable.

    Examples
    --------
    >>> from repro.data.sharded import ShardExecutor
    >>> with ShardExecutor(mode="threads", max_workers=2) as executor:
    ...     executor.map(lambda s: s * s, range(4))
    [0, 1, 4, 9]
    """

    _MODES = ("serial", "threads")

    def __init__(
        self, *, mode: str = "serial", max_workers: int | None = None
    ) -> None:
        if mode not in self._MODES:
            raise InvalidParameterError(
                f"executor mode must be one of {'/'.join(self._MODES)}, "
                f"got {mode!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.mode = mode
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def effective_workers(self) -> int:
        """How many pool threads may hold a chunk concurrently (0 in
        serial mode) — the width of a bitmap build's window of shards."""
        if self.mode == "serial":
            return 0
        return self.max_workers if self.max_workers else (os.cpu_count() or 1)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="shard"
                )
            return self._pool

    def map(self, fn: Callable, items) -> list:
        """``[fn(item) for item in items]``, possibly shard-parallel;
        result order always matches input order. Single-item (and
        serial-mode) maps run in the calling thread."""
        items = list(items)
        if self.mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        """Shut the pool down (idempotent; serial mode is a no-op)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ShardedDataset:
    """A dataset partitioned into fixed-size, lazily materialized shards.

    Rows ``[s·shard_size, (s+1)·shard_size)`` form shard ``s``; the last
    shard may be shorter. Chunks — ``(rows, d)`` ``int16`` code matrices
    — are produced by ``loader(shard_index, start, stop)`` on first
    access, kept in an LRU table capped at ``max_resident_shards``, and
    transparently regenerated after eviction, so the full ``(N, d)``
    matrix never exists in memory. The loader must be **deterministic**:
    an evicted shard that reloads with different content would break the
    exactness guarantees of every index built on top.

    Use the constructors instead of wiring a loader by hand:
    :meth:`from_dataset` (shard an in-RAM :class:`~repro.data.dataset.\
LabeledDataset` — equivalence tests and small jobs),
    :meth:`from_generator` (compute chunks on demand — synthetic
    benchmarks at any N), and :meth:`from_memmap` (``.npy`` file via
    ``numpy`` memory mapping — on-disk corpora).

    ``executor`` selects how the shared membership index
    (:meth:`ShardedMembershipIndex.for_dataset`, and through it every
    oracle/session/service over this dataset) parallelizes its fused
    bitmap builds; the default is serial.

    The class mirrors the read-only surface oracles need
    (``schema`` / ``__len__`` / ``value_row``) so
    :class:`~repro.crowd.oracle.GroundTruthOracle`,
    :class:`~repro.crowd.oracle.FlakyOracle`, and
    :class:`~repro.crowd.platform.CrowdPlatform` accept it wherever they
    accept a dense dataset.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.sharded import ShardedDataset
    >>> dense = binary_dataset(1_000, 30, rng=np.random.default_rng(0))
    >>> sharded = ShardedDataset.from_dataset(dense, shard_size=256)
    >>> len(sharded), sharded.n_shards
    (1000, 4)
    >>> sharded.value_row(17) == dense.value_row(17)
    True
    """

    def __init__(
        self,
        schema: Schema,
        n_objects: int,
        shard_size: int,
        loader: Callable[[int, int, int], np.ndarray],
        *,
        executor: ShardExecutor | None = None,
        max_resident_shards: int = 4,
        name: str = "sharded-dataset",
    ) -> None:
        if n_objects < 0:
            raise InvalidParameterError(
                f"n_objects must be non-negative, got {n_objects}"
            )
        if shard_size < 1:
            raise InvalidParameterError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        if max_resident_shards < 1:
            raise InvalidParameterError(
                f"max_resident_shards must be >= 1, got {max_resident_shards}"
            )
        self.schema = schema
        self.name = name
        self.shard_size = int(shard_size)
        self.max_resident_shards = int(max_resident_shards)
        self.executor = executor
        self._n_objects = int(n_objects)
        self._loader = loader
        self.stats = ShardStats()
        self._chunks: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: LabeledDataset,
        shard_size: int,
        *,
        executor: ShardExecutor | None = None,
        max_resident_shards: int = 4,
        name: str | None = None,
    ) -> "ShardedDataset":
        """Shard an in-RAM dense dataset (chunks are copies of its code
        slices, so residency accounting stays honest). The sharded view
        holds identical content — the substrate of every
        dense-vs-sharded equivalence test.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.data.synthetic import binary_dataset
        >>> dense = binary_dataset(100, 7, rng=np.random.default_rng(3))
        >>> sharded = ShardedDataset.from_dataset(dense, shard_size=33)
        >>> [sharded.shard_bounds(s) for s in range(sharded.n_shards)]
        [(0, 33), (33, 66), (66, 99), (99, 100)]
        """
        codes = dataset.codes

        def load(shard_index: int, start: int, stop: int) -> np.ndarray:
            return np.array(codes[start:stop], dtype=np.int16)

        return cls(
            dataset.schema,
            len(dataset),
            shard_size,
            load,
            executor=executor,
            max_resident_shards=max_resident_shards,
            name=name or f"{dataset.name}[sharded:{shard_size}]",
        )

    @classmethod
    def from_generator(
        cls,
        schema: Schema,
        n_objects: int,
        shard_size: int,
        generate: Callable[[int, int, int], np.ndarray],
        *,
        executor: ShardExecutor | None = None,
        max_resident_shards: int = 4,
        name: str = "generated-sharded-dataset",
    ) -> "ShardedDataset":
        """A dataset whose chunks are computed on demand.

        ``generate(shard_index, start, stop)`` must deterministically
        return the ``(stop-start, d)`` code chunk of rows ``[start,
        stop)`` — seed a per-shard rng from the shard index so a
        regenerated chunk is identical to the evicted one. This is how
        the benchmarks audit 10M-row datasets that never materialize.
        With a ``threads`` executor the generator runs on pool threads,
        several shards at once, so it must not share mutable state
        between calls.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.data.schema import Schema
        >>> schema = Schema.from_dict({"gender": ["male", "female"]})
        >>> def chunk(shard, start, stop):
        ...     rng = np.random.default_rng([7, shard])
        ...     return (rng.random((stop - start, 1)) < 0.01).astype(np.int16)
        >>> ds = ShardedDataset.from_generator(schema, 10_000, 2_500, chunk)
        >>> ds.n_shards
        4
        """
        return cls(
            schema,
            n_objects,
            shard_size,
            generate,
            executor=executor,
            max_resident_shards=max_resident_shards,
            name=name,
        )

    @classmethod
    def from_memmap(
        cls,
        schema: Schema,
        path,
        shard_size: int,
        *,
        executor: ShardExecutor | None = None,
        max_resident_shards: int = 4,
        name: str | None = None,
    ) -> "ShardedDataset":
        """A dataset backed by an on-disk ``.npy`` code matrix.

        The file (written with ``np.save(path, codes)``) is opened with
        ``mmap_mode="r"``, so only the chunk slices a query touches are
        ever paged in and copied; evicted chunks fall back to the page
        cache, not the Python heap — the substrate of the benchmark's
        100M-row tier.

        Examples
        --------
        >>> import numpy as np, tempfile, os
        >>> from repro.data.schema import Schema
        >>> schema = Schema.from_dict({"gender": ["male", "female"]})
        >>> path = os.path.join(tempfile.mkdtemp(), "codes.npy")
        >>> np.save(path, np.zeros((1_000, 1), dtype=np.int16))
        >>> ds = ShardedDataset.from_memmap(schema, path, shard_size=400)
        >>> len(ds), ds.n_shards
        (1000, 3)
        """
        mapped = np.load(path, mmap_mode="r")
        if mapped.ndim != 2 or mapped.shape[1] != schema.n_attributes:
            raise InvalidParameterError(
                f"memmapped codes at {path!r} have shape {mapped.shape}, "
                f"need (N, {schema.n_attributes})"
            )

        def load(shard_index: int, start: int, stop: int) -> np.ndarray:
            return np.array(mapped[start:stop], dtype=np.int16)

        return cls(
            schema,
            mapped.shape[0],
            shard_size,
            load,
            executor=executor,
            max_resident_shards=max_resident_shards,
            name=name or f"memmap({path})",
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_objects

    @property
    def n_objects(self) -> int:
        """Dataset size ``N`` (rows across all shards)."""
        return self._n_objects

    @property
    def n_shards(self) -> int:
        """Number of shards, ``ceil(N / shard_size)`` (0 when empty)."""
        return -(-self._n_objects // self.shard_size)

    def shard_bounds(self, shard_index: int) -> tuple[int, int]:
        """The global row range ``[start, stop)`` of one shard."""
        if not 0 <= shard_index < self.n_shards:
            raise InvalidParameterError(
                f"shard index {shard_index} out of range [0, {self.n_shards})"
            )
        start = shard_index * self.shard_size
        return start, min(start + self.shard_size, self._n_objects)

    # ------------------------------------------------------------------
    # chunk residency
    # ------------------------------------------------------------------
    def chunk(self, shard_index: int) -> np.ndarray:
        """The shard's resident ``(rows, d)`` code chunk, loading (and
        evicting the least recently used shard) as needed. Thread-safe;
        returned arrays are read-only. When two threads load one shard at
        once, the first to finish makes its chunk resident and counts in
        ``stats.loads``; the other returns that chunk and counts in
        ``stats.raced_loads``."""
        with self._lock:
            cached = self._chunks.get(shard_index)
            if cached is not None:
                self._chunks.move_to_end(shard_index)
                return cached
        return self._admit(shard_index, self._load(shard_index))

    def _peek(self, shard_index: int) -> np.ndarray | None:
        """The shard's resident chunk, or ``None``, leaving the LRU order
        as it is."""
        with self._lock:
            return self._chunks.get(shard_index)

    def _load(self, shard_index: int) -> np.ndarray:
        """Materialize and check one chunk without making it resident."""
        start, stop = self.shard_bounds(shard_index)
        chunk = np.asarray(self._loader(shard_index, start, stop), dtype=np.int16)
        if chunk.ndim != 2 or chunk.shape != (stop - start, self.schema.n_attributes):
            raise InvalidParameterError(
                f"loader returned shape {chunk.shape} for shard {shard_index}, "
                f"expected ({stop - start}, {self.schema.n_attributes})"
            )
        # Every load, reloads included, checks this outside input: as
        # uint16 a negative code is >= 32768, so one max per column does.
        if len(chunk):
            for j, attribute in enumerate(self.schema):
                if chunk[:, j].view(np.uint16).max() >= attribute.cardinality:
                    raise InvalidParameterError(
                        f"shard {shard_index} codes for attribute "
                        f"{attribute.name!r} outside [0, {attribute.cardinality})"
                    )
        chunk.setflags(write=False)
        return chunk

    def _admit(self, shard_index: int, chunk: np.ndarray) -> np.ndarray:
        """Make ``chunk`` the shard's resident chunk, most recently used,
        evicting least recently used shards past the cap, and return the
        resident chunk. A shard whose chunk is already resident is only
        touched; if that chunk is another thread's, this one lost a load
        race and counts in ``raced_loads``. A chunk in hand that was
        evicted meanwhile becomes resident again and counts as the
        reload it replaces."""
        with self._lock:
            resident = self._chunks.get(shard_index)
            if resident is not None:
                if resident is not chunk:
                    self.stats.raced_loads += 1
                self._chunks.move_to_end(shard_index)
                return resident
            self.stats.loads += 1
            self._chunks[shard_index] = chunk
            self.stats.resident_bytes += chunk.nbytes
            self.stats.resident_shards += 1
            while len(self._chunks) > self.max_resident_shards:
                _, evicted = self._chunks.popitem(last=False)
                self.stats.evictions += 1
                self.stats.resident_bytes -= evicted.nbytes
                self.stats.resident_shards -= 1
            self.stats.peak_resident_shards = max(
                self.stats.peak_resident_shards, self.stats.resident_shards
            )
            self.stats.peak_resident_bytes = max(
                self.stats.peak_resident_bytes, self.stats.resident_bytes
            )
        return chunk

    # ------------------------------------------------------------------
    # row access (the oracle surface)
    # ------------------------------------------------------------------
    def value_row(self, index: int) -> dict[str, str]:
        """Ground-truth ``{attribute: value}`` mapping of one object,
        decoded from its owning shard's chunk."""
        index = int(index)
        if not 0 <= index < self._n_objects:
            raise OracleError(
                f"object index {index} out of range [0, {self._n_objects})"
            )
        shard = index // self.shard_size
        row = self.chunk(shard)[index - shard * self.shard_size]
        return {
            attribute.name: attribute.value_of(int(row[j]))
            for j, attribute in enumerate(self.schema)
        }

    def describe(self) -> str:
        """A short summary used by examples and reports."""
        return (
            f"{self.name}: N={self._n_objects}, shards={self.n_shards}"
            f"×{self.shard_size}, resident≤{self.max_resident_shards}, "
            f"attributes={list(self.schema.names)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"ShardedDataset(name={self.name!r}, N={self._n_objects}, "
            f"shards={self.n_shards}x{self.shard_size})"
        )


def bitmap_floor(dataset: ShardedDataset) -> int:
    """The least bitmap budget of an index over ``dataset``: one bitmap
    per value its schema declares plus one rank directory, so no call
    re-streams the dataset to rebuild a bitmap it just dropped.

    >>> import numpy as np
    >>> from repro.data.synthetic import binary_dataset
    >>> dense = binary_dataset(1_000, 30, rng=np.random.default_rng(0))
    >>> bitmap_floor(ShardedDataset.from_dataset(dense, shard_size=1))  # 2.5 bitmaps
    320
    """
    words = n_words(len(dataset))
    rank_bytes = 4 if 64 * words < 2**31 else 8  # rank_directory's dtype
    return (8 * sum(dataset.schema.cardinalities) + rank_bytes) * words


@dataclass
class _BitmapCache:
    """Byte-capped LRU of the index's bitmaps (internal; callers hold the
    index lock).

    Entries are value bitmaps, keyed by their ``(attribute, value)``
    condition, and rank directories, keyed by their predicate. Inserting
    evicts least recently used entries until the cache fits
    ``max_bytes`` again. The index never sets ``max_bytes`` below
    :func:`bitmap_floor`, so every value bitmap and a rank directory fit;
    an evicted entry is rebuilt when next read."""

    max_bytes: int
    entries: "OrderedDict[object, np.ndarray]" = field(default_factory=OrderedDict)
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    bitmap_builds: int = 0
    rank_builds: int = 0
    evictions: int = 0

    def get(self, key: object) -> np.ndarray | None:
        cached = self.entries.get(key)
        if cached is not None:
            self.entries.move_to_end(key)
        return cached

    def put(self, key: object, array: np.ndarray) -> None:
        if key in self.entries:
            return
        self.entries[key] = array
        self.resident_bytes += array.nbytes
        while self.resident_bytes > self.max_bytes:
            _, evicted = self.entries.popitem(last=False)
            self.evictions += 1
            self.resident_bytes -= evicted.nbytes
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)


class ShardedMembershipIndex:
    """The membership index: exact ground-truth answers over any dataset.

    The query surface — :meth:`count`, :meth:`any_match`,
    :meth:`any_match_runs`, :meth:`any_match_batch`, :meth:`matches`,
    :meth:`member_mask`, :meth:`view_rank`, :meth:`value_rows` — is
    what every simulated oracle, platform, session, and service answers
    from, whether the dataset is in RAM (one shard, see
    :meth:`for_dataset`) or out of core. Set queries answer from packed
    bitmaps: one ``uint64`` bitmap per ``(attribute, value)`` a
    predicate reads, built by one streaming pass per batch of new values
    (each chunk touched once however many values it packs), combined
    word-wise into the predicate's words
    (:func:`~repro.data.kernels.predicate_words`). A scattered key is a
    gathered bit test; a run key counts with the predicate's rank
    directory and one masked popcount per end, whatever shards it
    crosses. Neither loads a chunk once the bitmaps are built. Set
    queries arrive keyed by :class:`~repro.engine.requests.IndexKey`,
    so the index never re-detects a query's shape.

    Parameters
    ----------
    dataset:
        The :class:`ShardedDataset` to answer over.
    executor:
        The :class:`ShardExecutor` for streaming bitmap builds; defaults
        to the dataset's executor, else serial (answers are identical in
        both modes).
    max_cached_prefixes:
        The bitmap budget, in units of one shard's ``int32`` prefix
        table: ``max_cached_prefixes × 4·(shard_size + 1)`` bytes of
        value bitmaps and rank directories, evicted whole, least
        recently used first, but never less than :func:`bitmap_floor`.
        Defaults to the dataset's ``max_resident_shards``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.groups import group
    >>> from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.engine.requests import IndexKey
    >>> dense = binary_dataset(1_000, 30, rng=np.random.default_rng(0))
    >>> sharded = ShardedMembershipIndex.for_dataset(
    ...     ShardedDataset.from_dataset(dense, shard_size=137))
    >>> female = group(gender="female")
    >>> run = np.arange(100, 900)
    >>> sharded.count(female, IndexKey.of(run)) == int(dense.mask(female)[run].sum())
    True
    """

    def __init__(
        self,
        dataset: ShardedDataset,
        *,
        executor: ShardExecutor | None = None,
        max_cached_prefixes: int | None = None,
    ) -> None:
        if max_cached_prefixes is not None and max_cached_prefixes < 1:
            raise InvalidParameterError(
                f"max_cached_prefixes must be >= 1, got {max_cached_prefixes}"
            )
        if executor is None:
            executor = dataset.executor
        self.dataset = dataset
        self.executor = executor if executor is not None else ShardExecutor()
        entries = (
            max_cached_prefixes
            if max_cached_prefixes is not None
            else dataset.max_resident_shards
        )
        self._bitmaps = _BitmapCache(
            max_bytes=max(entries * 4 * (dataset.shard_size + 1), bitmap_floor(dataset))
        )
        #: validated predicates -> the conditions their bitmaps combine
        self._conditions: dict[GroupPredicate, tuple[Condition, ...]] = {}
        self._lock = threading.Lock()

    @classmethod
    def for_dataset(
        cls, dataset: "LabeledDataset | ShardedDataset"
    ) -> "ShardedMembershipIndex":
        """The shared index of one dataset (created on first use and
        memoized on the dataset), so every oracle, platform, and session
        over it shares its bitmaps.

        A :class:`ShardedDataset` is indexed as it is, and the index
        inherits its executor. An in-RAM
        :class:`~repro.data.dataset.LabeledDataset` is one shard whose
        chunk is a read-only view of its code matrix (no copy), under a
        budget that never evicts, so no bitmap is ever built twice.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
        >>> from repro.data.synthetic import binary_dataset
        >>> dense = binary_dataset(100, 5, rng=np.random.default_rng(0))
        >>> ds = ShardedDataset.from_dataset(dense, shard_size=40)
        >>> a = ShardedMembershipIndex.for_dataset(ds)
        >>> a is ShardedMembershipIndex.for_dataset(ds)
        True
        >>> ShardedMembershipIndex.for_dataset(dense).dataset.n_shards
        1
        """
        index = dataset.__dict__.get("_membership_index")
        if index is None:
            if isinstance(dataset, ShardedDataset):
                index = cls(dataset)
            else:
                codes = dataset.codes

                def view(shard_index: int, start: int, stop: int) -> np.ndarray:
                    return codes[start:stop]

                one_shard = ShardedDataset(
                    dataset.schema, len(dataset), max(len(dataset), 1), view,
                    name=dataset.name,
                )
                index = cls(one_shard, max_cached_prefixes=sys.maxsize)
            dataset.__dict__["_membership_index"] = index
        return index

    def __len__(self) -> int:
        return len(self.dataset)

    # ------------------------------------------------------------------
    # the bitmap substrate
    # ------------------------------------------------------------------
    def build_totals(self, predicates: Sequence[GroupPredicate]) -> None:
        """Build the value bitmaps and rank directories of every listed
        predicate that lacks them. The missing values are packed in
        **one** streaming pass: each chunk is materialized once
        (shard-parallel through the executor) however many values it
        packs, and the rank directories follow from the bitmaps without
        touching a chunk.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
        >>> from repro.data.synthetic import binary_dataset
        >>> ds = ShardedDataset.from_dataset(
        ...     binary_dataset(100, 5, rng=np.random.default_rng(0)), shard_size=25)
        >>> index = ShardedMembershipIndex(ds)
        >>> index.build_totals([group(gender="female"), group(gender="male")])
        >>> ds.stats.loads  # four shards, one pass for BOTH predicates
        4
        """
        self._held(predicates, predicates)

    def _conditions_of(self, predicate: GroupPredicate) -> tuple[Condition, ...]:
        """The conditions ``predicate`` reads, validating it against the
        schema on its first touch."""
        conditions = self._conditions.get(predicate)
        if conditions is None:
            predicate.validate(self.dataset.schema)
            conditions = predicate_conditions(predicate)
            with self._lock:
                self._conditions[predicate] = conditions
        return conditions

    def _held(
        self,
        predicates: Sequence[GroupPredicate],
        ranked: Sequence[GroupPredicate] = (),
    ) -> tuple[dict[Condition, np.ndarray], dict[GroupPredicate, np.ndarray]]:
        """The value bitmaps of every condition ``predicates`` read and
        the rank directories of ``ranked``, built as needed. The caller
        holds them for its batch, whatever the budget evicts meanwhile."""
        conditions = dict.fromkeys(c for p in predicates for c in self._conditions_of(p))
        cache = self._bitmaps
        with self._lock:
            bitmaps = {c: w for c in conditions if (w := cache.get(c)) is not None}
            ranks = {p: d for p in ranked if (d := cache.get(p)) is not None}
        if len(bitmaps) < len(conditions):
            built = self._stream([c for c in conditions if c not in bitmaps])
            with self._lock:
                for condition, words in built.items():
                    cache.bitmap_builds += 1
                    cache.put(condition, words)
            bitmaps.update(built)
        for predicate in ranked:
            if predicate not in ranks:
                ranks[predicate] = rank_directory(predicate_words(predicate, bitmaps, len(self)))
                with self._lock:
                    cache.rank_builds += 1
                    cache.put(predicate, ranks[predicate])
        return bitmaps, ranks

    def _stream(self, conditions: Sequence[Condition]) -> dict[Condition, np.ndarray]:
        """Value bitmaps of ``conditions``, packed in one pass over every
        shard (:func:`~repro.data.kernels.pack_columns`)."""
        dataset = self.dataset
        schema = dataset.schema
        columns = [
            (schema.index_of(name), schema.attribute(name).code_of(value))
            for name, value in conditions
        ]
        bitmaps = [np.zeros(n_words(len(dataset)), dtype=WORD) for _ in columns]

        def merge(shard_index: int, pieces: list[np.ndarray]) -> None:
            offset = shard_index * dataset.shard_size >> 6
            for bitmap, piece in zip(bitmaps, pieces):
                bitmap[offset : offset + len(piece)] |= piece

        def pack(item: tuple[int, np.ndarray | None]) -> tuple[np.ndarray, list[np.ndarray]]:
            shard_index, chunk = item
            if chunk is None:
                chunk = dataset._load(shard_index)
            return chunk, pack_columns(chunk, shard_index * dataset.shard_size, columns)

        # Workers load and pack a window of shards at a time, and this
        # thread admits their chunks in shard order: the LRU and its
        # counters end as a serial pass leaves them, whatever order the
        # workers finish in, and no more than the residency cap of chunks
        # is held outside the LRU.
        n_shards = dataset.n_shards
        window = max(1, min(dataset.max_resident_shards, self.executor.effective_workers))
        for first in range(0, n_shards, window):
            items = [(s, dataset._peek(s)) for s in range(first, min(first + window, n_shards))]
            for (shard_index, _), (chunk, pieces) in zip(items, self.executor.map(pack, items)):
                dataset._admit(shard_index, chunk)
                merge(shard_index, pieces)
        for bitmap in bitmaps:
            bitmap.setflags(write=False)
        return dict(zip(conditions, bitmaps))

    def _rank(
        self,
        predicate: GroupPredicate,
        bitmaps: dict[Condition, np.ndarray],
        directory: np.ndarray,
        ends,
    ):
        """Members of ``predicate`` among objects ``[0, end)`` for each of
        ``ends`` (an ``int64`` array, or one ``int`` with no array
        allocated)."""
        return rank(directory, predicate_words(predicate, bitmaps, len(self), ends >> 6), ends)

    def _bits(
        self, predicate: GroupPredicate, bitmaps: dict[Condition, np.ndarray], indices: np.ndarray
    ) -> np.ndarray:
        """Membership of each of ``indices``: one gathered bit test."""
        words = predicate_words(predicate, bitmaps, len(self), indices >> 6)
        return (words & BIT[indices & 63]) != 0

    def shard_totals(self, predicate: GroupPredicate) -> np.ndarray:
        """Cumulative member counts at shard boundaries: ``totals[s]`` =
        members among shards ``[0, s)`` (length ``n_shards + 1``), read
        off the predicate's rank directory (built on first use).

        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.synthetic import binary_dataset
        >>> index = ShardedMembershipIndex(ShardedDataset.from_dataset(
        ...     binary_dataset(10, 3, placement="front"), 4))
        >>> index.shard_totals(group(gender="female")).tolist()
        [0, 3, 3, 3]
        """
        bitmaps, ranks = self._held((predicate,), (predicate,))
        ends = np.arange(self.dataset.n_shards + 1, dtype=np.int64) * self.dataset.shard_size
        ends = np.minimum(ends, len(self))
        return self._rank(predicate, bitmaps, ranks[predicate], ends).astype(np.int64)

    def _check_run(self, start: int, stop: int) -> None:
        """Same contract as value_rows: a non-empty run outside the
        dataset raises instead of silently clamping (a rank lookup
        would overrun, or wrap on a negative start, on the same
        input)."""
        if start < 0 or stop > len(self.dataset):
            raise OracleError(
                f"query run [{start}, {stop}) outside dataset "
                f"[0, {len(self.dataset)})"
            )

    def _count_run(self, predicate: GroupPredicate, start: int, stop: int) -> int:
        """Exact member count over the contiguous run ``[start, stop)``:
        two scalar rank lookups, whatever shards the run crosses."""
        if stop <= start:
            return 0
        if start < 0 or stop > len(self.dataset):
            self._check_run(start, stop)
        bitmaps, ranks = self._held((predicate,), (predicate,))
        directory = ranks[predicate]
        return int(self._rank(predicate, bitmaps, directory, stop)) - int(
            self._rank(predicate, bitmaps, directory, start)
        )

    # ------------------------------------------------------------------
    # the query surface
    # ------------------------------------------------------------------
    def count(self, predicate: GroupPredicate, key: IndexKey) -> int:
        """Number of objects in the keyed index set matching
        ``predicate`` (exact, whatever the shard geometry).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
        >>> from repro.data.synthetic import binary_dataset
        >>> from repro.engine.requests import IndexKey
        >>> ds = ShardedDataset.from_dataset(
        ...     binary_dataset(100, 100, rng=np.random.default_rng(0)),
        ...     shard_size=32)
        >>> ShardedMembershipIndex(ds).count(group(gender="female"),
        ...                                  IndexKey.of_run(10, 90))
        80
        """
        if key.payload is None:
            return self._count_run(predicate, key.start, key.stop)
        if not key.payload:
            return 0
        return int(self.member_mask(predicate, key.to_array()).sum())

    def any_match(self, predicate: GroupPredicate, key: IndexKey) -> bool:
        """Does the keyed index set contain at least one member of
        ``predicate``?"""
        return self.count(predicate, key) > 0

    def matches(self, predicate: GroupPredicate, index: int) -> bool:
        """Ground-truth membership of a single object: one bit test, no
        array allocated."""
        index = int(index)
        if not 0 <= index < len(self.dataset):
            raise OracleError(f"object index {index} out of range [0, {len(self.dataset)})")
        bitmaps, _ = self._held((predicate,))
        words = predicate_words(predicate, bitmaps, len(self), index >> 6)
        return bool(words & BIT[index & 63])

    def member_mask(self, predicate: GroupPredicate, indices: np.ndarray) -> np.ndarray:
        """Ground-truth membership of each of the (non-empty, ``int64``)
        ``indices``: one gathered bit test."""
        _check_object_indices(indices, len(self.dataset))
        bitmaps, _ = self._held((predicate,))
        return self._bits(predicate, bitmaps, indices)

    def any_match_runs(
        self, predicate: GroupPredicate, starts: np.ndarray, stops: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`any_match` over the runs ``[starts[i],
        stops[i])`` of one predicate; empty runs answer ``False``. Every
        end is one rank lookup, gathered in one pass.

        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.synthetic import binary_dataset
        >>> index = ShardedMembershipIndex.for_dataset(
        ...     ShardedDataset.from_dataset(binary_dataset(10, 3, placement="front"), 4))
        >>> index.any_match_runs(group(gender="female"), [0, 3, 5], [2, 9, 5]).tolist()
        [True, False, False]
        """
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        stops = np.asarray(stops, dtype=np.int64).reshape(-1)
        live = stops > starts
        outside = np.flatnonzero(live & ((starts < 0) | (stops > len(self.dataset))))
        if len(outside):
            self._check_run(int(starts[outside[0]]), int(stops[outside[0]]))
        # Empty runs count nothing: both of their ends read position 0.
        ends = np.concatenate([np.where(live, starts, 0), np.where(live, stops, 0)])
        bitmaps, ranks = self._held((predicate,), (predicate,))
        before = self._rank(predicate, bitmaps, ranks[predicate], ends)
        return live & (before[len(starts) :] > before[: len(starts)])

    def view_rank(
        self, predicate: GroupPredicate, view: np.ndarray, *, ascending: bool | None = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The members of ``predicate`` among ``view[:end]`` for each of an
        ``int64`` array of ``ends`` in ``[0, len(view)]``, as a function:
        the view segment ``[b, e)`` holds a member iff ``rank(e) >
        rank(b)``, whatever its entries are.

        ``view`` holds distinct object indices (``ascending`` says
        whether they are strictly ascending, when the caller knows) and
        is range-checked once, here. An ascending view with few holes
        (at most one object in 16 between its ends missed) keeps each of
        its maximal runs' view position, first object and member offset,
        and reads the predicate's own rank directory: a view that is one
        run builds nothing else. Any other view is one
        :meth:`member_mask` gather, packed in view order under a
        :func:`~repro.data.kernels.rank_directory`. The function does not
        hold ``view``.

        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.synthetic import binary_dataset
        >>> index = ShardedMembershipIndex.for_dataset(binary_dataset(10, 3, placement="front"))
        >>> rank = index.view_rank(group(gender="female"), np.array([9, 1, 5, 0]))
        >>> rank(np.arange(5)).tolist()
        [0, 0, 1, 1, 2]
        >>> index.view_rank(group(gender="female"), np.array([1, 2, 6, 7]))(np.arange(5)).tolist()
        [0, 1, 2, 2, 2]
        """
        size = len(view)
        if size and (ascending or ascending is None and bool((view[1:] > view[:-1]).all())):
            holes = int(view[-1]) - int(view[0]) + 1 - size
            if holes * _RUN_VIEW_HOLES <= size:
                _check_object_indices(view[[0, -1]], len(self.dataset))
                at = _run_starts(view, holes) if holes else np.zeros(1, dtype=np.int64)
                first = view[at]
                bitmaps, ranks = self._held((predicate,), (predicate,))
                ends = np.concatenate([first, first + np.diff(at, append=size)])
                edges = self._rank(predicate, bitmaps, ranks[predicate], ends).astype(np.int64)
                before, members = edges[: len(at)], edges[len(at) :] - edges[: len(at)]
                # Run k holds view[at[k] + i] = first[k] + i, and
                # shift[k] + rank(object) counts the members before it.
                offset, shift = first - at, np.cumsum(members) - members - before

                def ranked(ends: np.ndarray) -> np.ndarray:
                    run = np.searchsorted(at, ends, side="right") - 1
                    bitmaps, ranks = self._held((predicate,), (predicate,))
                    objects = offset[run] + ends
                    return self._rank(predicate, bitmaps, ranks[predicate], objects) + shift[run]

                return ranked
        packed = np.zeros(8 * n_words(size), dtype=np.uint8)
        bits = np.packbits(self.member_mask(predicate, view), bitorder="little")
        packed[: len(bits)] = bits
        words = packed.view("<u8")
        directory = rank_directory(words)
        return lambda ends: rank(directory, words[ends >> 6], ends)

    def any_match_batch(self, queries: Sequence[QueryKey]) -> list[bool]:
        """Answer many set queries, each named by its
        :data:`~repro.engine.requests.QueryKey`; empty keys answer ``False``.

        Each predicate's keys are read in one pass: its run ends as one
        ``int64`` array, its scattered payloads joined once and read with
        one ``np.frombuffer``. Every key is range-checked before one
        streaming pass builds the value bitmaps the batch lacks; then
        each predicate answers its runs with one gathered rank lookup and
        its scattered keys with one gathered bit test and one
        ``logical_or.reduceat``."""
        groups: dict[GroupPredicate, list[int]] = {}  # predicate -> positions
        last = None
        for position, predicate in enumerate(map(itemgetter(0), queries)):
            if predicate is not last:  # hash each span's predicate once
                last = predicate
                if predicate not in groups:
                    groups[predicate] = []
                where = groups[predicate]
            where.append(position)
        n_objects, reads = len(self), []
        for predicate, where in groups.items():
            keys = [queries[position] for position in where] if len(groups) > 1 else queries
            starts, stops, payloads = zip(*map(itemgetter(1), keys))
            runs = []
            if None in payloads:  # a run key carries no payload
                runs = [i for i, payload in enumerate(payloads) if payload is None]
            for i in runs:
                if starts[i] < 0 or stops[i] > n_objects:
                    self._check_run(starts[i], stops[i])
            scattered = list(filter(None, payloads))  # empty keys answer False
            indices = np.frombuffer(b"".join(scattered), dtype=np.int64)
            # One unsigned maximum: a negative index reads as a huge one.
            if scattered and int(np.maximum.reduce(indices.view(np.uint64))) >= n_objects:
                _check_object_indices(indices, n_objects)
            ends = [starts[i] for i in runs] + [stops[i] for i in runs]
            reads.append((predicate, where, payloads, runs, ends, scattered, indices))
        bitmaps, ranks = self._held(list(groups), [read[0] for read in reads if read[3]])
        answers = [False] * len(queries)
        for predicate, where, payloads, runs, ends, scattered, indices in reads:
            hits = [False] * len(payloads)
            if runs:
                ends = np.array(ends, dtype=np.int64)
                before = self._rank(predicate, bitmaps, ranks[predicate], ends)
                for i, hit in zip(runs, (before[len(runs) :] > before[: len(runs)]).tolist()):
                    hits[i] = hit
            if scattered:
                starts = [size >> 3 for size in accumulate(map(len, scattered[:-1]), initial=0)]
                found = np.logical_or.reduceat(self._bits(predicate, bitmaps, indices), starts)
                if len(scattered) == len(payloads):
                    hits = found.tolist()
                else:
                    for i, hit in zip([i for i, p in enumerate(payloads) if p], found.tolist()):
                        hits[i] = hit
            if len(groups) == 1:
                return hits
            for position, hit in zip(where, hits):
                answers[position] = hit
        return answers

    # ------------------------------------------------------------------
    # point labels
    # ------------------------------------------------------------------
    def value_codes(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Ground-truth ``(k, d)`` ``int16`` code rows of many objects,
        gathered shard by shard; a negative or too-large index raises
        instead of wrapping the way raw fancy-indexing would.

        >>> import numpy as np
        >>> from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
        >>> from repro.data.synthetic import binary_dataset
        >>> dense = binary_dataset(10, 3, placement="front")
        >>> index = ShardedMembershipIndex.for_dataset(
        ...     ShardedDataset.from_dataset(dense, shard_size=4))
        >>> index.value_codes([9, 0, 5]).ravel().tolist()
        [0, 1, 0]
        """
        index_array = np.asarray(indices, dtype=np.int64)
        _check_object_indices(index_array, len(self.dataset))
        if self.dataset.n_shards == 1:
            return self.dataset.chunk(0)[index_array]
        size = self.dataset.shard_size
        shards = index_array // size
        codes = np.empty(
            (len(index_array), self.dataset.schema.n_attributes), dtype=np.int16
        )
        for shard_index in np.unique(shards):
            selector = shards == shard_index
            local = index_array[selector] - int(shard_index) * size
            codes[selector] = self.dataset.chunk(int(shard_index))[local]
        return codes

    def value_rows(self, indices: Sequence[int]) -> list[dict[str, str]]:
        """Ground-truth ``{attribute: value}`` rows for many objects:
        :meth:`value_codes` decoded in schema order."""
        if len(indices) == 0:
            return []
        return self.dataset.schema.decode_rows(self.value_codes(indices))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_report(self) -> dict[str, int]:
        """Structural memory accounting of the sharded path.

        ``peak_tracked_bytes`` (resident chunks + cached bitmaps and rank
        directories, at their high-water marks) is what
        ``benchmarks/bench_shards.py`` compares against
        :func:`dense_index_bytes`; ``cap_bytes`` is the
        configuration-implied ceiling it can never exceed: twice the
        resident chunks plus the bitmap budget.
        """
        stats = self.dataset.stats
        row_bytes = 2 * self.dataset.schema.n_attributes
        chunk_bytes = self.dataset.shard_size * row_bytes
        # LRU-resident chunks plus the window of chunks a bitmap build
        # holds before admitting them (at most the residency cap): worst
        # case 2 × the residency cap.
        chunk_cap = 2 * self.dataset.max_resident_shards * chunk_bytes
        cache = self._bitmaps
        return {
            "peak_chunk_bytes": stats.peak_resident_bytes,
            "peak_bitmap_bytes": cache.peak_resident_bytes,
            "peak_tracked_bytes": stats.peak_resident_bytes + cache.peak_resident_bytes,
            "cap_bytes": chunk_cap + cache.max_bytes,
            "chunk_loads": stats.loads,
            "chunk_evictions": stats.evictions,
            "bitmap_builds": cache.bitmap_builds,
            "rank_builds": cache.rank_builds,
            "bitmap_evictions": cache.evictions,
            "indexed_predicates": len(self._conditions),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"ShardedMembershipIndex({self.dataset.name!r}, "
            f"N={len(self.dataset)}, shards={self.dataset.n_shards}, "
            f"indexed_predicates={len(self._conditions)})"
        )


def dense_index_bytes(n_objects: int, n_attributes: int, n_predicates: int) -> int:
    """Bytes a fully in-RAM index of the classic layout needs for the
    same workload: the ``(N, d)`` ``int16`` code matrix plus, per indexed
    predicate, one boolean membership column and one ``int64`` prefix
    table.

    The yardstick ``benchmarks/bench_shards.py`` measures the sharded
    path's tracked peak against.

    Examples
    --------
    >>> dense_index_bytes(1_000_000, 1, 1)  # ~11 MB at N=1M, one predicate
    11000008
    """
    codes = n_objects * n_attributes * 2
    per_predicate = n_objects * 1 + 8 * (n_objects + 1)
    return codes + n_predicates * per_predicate
