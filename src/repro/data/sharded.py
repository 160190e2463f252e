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
``count`` / ``any_match`` / batched-gather queries by combining

* **cross-shard totals** — one ``int64`` per shard per predicate
  (``totals[s]`` = members among shards ``[0, s)``), built in a single
  **fused** streaming pass (:mod:`repro.data.kernels`) that evaluates
  every requested predicate and its local prefix table off one chunk
  touch, and from then on answering every *shard-aligned* run in O(1)
  without touching a single chunk; and
* **prefix tables** — when the cache budget covers a predicate's full
  shard count, the predicate's first query (whatever its shape) runs
  the fused build, which splices its per-shard tables into one *pinned*
  global prefix table (``prefix[i]`` = members among rows ``[0, i)``)
  and every later query on that predicate answers lock-free from it;
  an in-RAM dataset pins every predicate. Otherwise boundary tables
  build on demand for the (at most two) *partially* covered shards of
  a run and cache LRU under an entry-count budget shared with the
  pinned tier (each entry is at most ``4·(shard_size+1)`` bytes, so the
  byte footprint is bounded too).

A contiguous-run query spanning many shards therefore splits at shard
boundaries — interior shards answer from the totals, boundary shards
from their local prefix tables — and the partial counts re-merge into
the exact answer. Scattered index arrays group by owning shard and
resolve shard-parallel through a :class:`ShardExecutor`, whose
``processes`` mode runs the picklable kernels of
:mod:`repro.data.kernels` on a :class:`~concurrent.futures.\
ProcessPoolExecutor` — workers materialize chunks from the dataset's
:class:`~repro.data.kernels.ChunkSource` (memory map or deterministic
generator) on their own side, so chunk arrays never cross the pickle
boundary.

Everything is *exact*, so oracles answering over any shard geometry
are bit-identical to answering over the in-RAM dataset: same verdicts,
same task counts, same rng streams (pinned across layouts and executor
modes by the differential harness ``tests/test_differential.py``). Peak
memory is structurally bounded by ``max_resident_shards`` chunks plus the
prefix-table budget — ``benchmarks/bench_shards.py`` asserts it while
auditing datasets 10× larger than an in-RAM index could hold.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import LabeledDataset
from repro.data.groups import GroupPredicate
from repro.data.kernels import (
    CallableChunkSource,
    ChunkSource,
    MemmapChunkSource,
    fused_prefix_tables,
    fused_source_pass,
    scattered_hits_pass,
)
from repro.data.schema import Schema
from repro.errors import InvalidParameterError, OracleError, ShardExecutionError

if TYPE_CHECKING:
    from repro.engine.requests import IndexKey

__all__ = [
    "ShardStats",
    "ShardExecutor",
    "ShardedDataset",
    "ShardedMembershipIndex",
    "dense_index_bytes",
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


def _run_fused_task(task: tuple) -> tuple[list[int], list[np.ndarray] | None]:
    """Unpack one fused-build work item (module-level so it pickles)."""
    return fused_source_pass(*task)


def _run_scattered_task(task: tuple) -> np.ndarray:
    """Unpack one scattered-gather work item (module-level so it pickles)."""
    return scattered_hits_pass(*task)


def _noop(item: int) -> int:
    """Round-trip payload for ShardExecutor.warm (module-level so it
    pickles into pool workers)."""
    return item


@dataclass
class ShardStats:
    """Residency accounting of one :class:`ShardedDataset`.

    The structural memory guarantee of the sharded path lives here:
    ``peak_resident_bytes`` can never exceed ``max_resident_shards ×
    bytes-per-chunk``, whatever the dataset size — the number
    ``benchmarks/bench_shards.py`` asserts against an in-RAM index's
    requirement. Counters track the *calling* process only: pool workers
    of a ``processes`` executor materialize their chunks on their own
    side (bounded to one chunk per worker at a time) and never touch
    this ledger.

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

    #: chunk materializations (a regenerated evicted shard counts again)
    loads: int = 0
    #: chunks dropped to respect ``max_resident_shards``
    evictions: int = 0
    #: chunks resident right now / the lifetime high-water mark
    resident_shards: int = 0
    peak_resident_shards: int = 0
    #: bytes of resident chunks right now / the lifetime high-water mark
    resident_bytes: int = 0
    peak_resident_bytes: int = 0


class ShardExecutor:
    """Maps a function over shards: serially, on threads, or on processes.

    The executor is the parallelism seam of the sharded path: fused
    totals builds and scattered-batch gathers hand it one work item per
    shard. Three modes, validated at construction:

    * ``"serial"`` (default) — runs in the calling thread; exact answers
      need no concurrency.
    * ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
      pays off when chunk loading is IO-bound or mask evaluation
      dominates (NumPy releases the GIL for large chunks).
    * ``"processes"`` — a :class:`~concurrent.futures.\
ProcessPoolExecutor` running the picklable kernels of
      :mod:`repro.data.kernels`; sidesteps the GIL entirely. Work items
      carry a :class:`~repro.data.kernels.ChunkSource` (never chunk
      arrays), so each worker materializes rows from the shard file or
      generator on its own side. A worker killed mid-map surfaces as
      :class:`~repro.errors.ShardExecutionError` (the broken pool is
      discarded); a retry on a fresh executor replays deterministically.

    Results always come back in input order, so answers are identical in
    every mode — pinned by ``tests/test_differential.py``.

    Examples
    --------
    >>> from repro.data.sharded import ShardExecutor
    >>> with ShardExecutor(mode="threads", max_workers=2) as executor:
    ...     executor.map(lambda s: s * s, range(4))
    [0, 1, 4, 9]
    """

    _MODES = ("serial", "threads", "processes")

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
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def uses_processes(self) -> bool:
        """``True`` for ``mode="processes"`` — work items must then be
        picklable (module-level kernels + :class:`~repro.data.kernels.\
ChunkSource` specs, no closures, no chunk arrays)."""
        return self.mode == "processes"

    @property
    def effective_workers(self) -> int:
        """How many pool workers may hold a chunk concurrently (0 in
        serial mode) — the worker term of
        :meth:`ShardedMembershipIndex.memory_report`'s structural cap."""
        if self.mode == "serial":
            return 0
        return self.max_workers if self.max_workers else (os.cpu_count() or 1)

    def _ensure_pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                if self.mode == "threads":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers, thread_name_prefix="shard"
                    )
                else:
                    self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def map(self, fn: Callable, items) -> list:
        """``[fn(item) for item in items]``, possibly shard-parallel;
        result order always matches input order. Single-item (and
        serial-mode) maps run in the calling thread."""
        items = list(items)
        if self.mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, items))
        except BrokenProcessPool as error:
            # A worker died (OOM killer, SIGKILL, hard crash). Discard
            # the broken pool so this executor fails fast instead of
            # hanging, and surface a library error callers can catch;
            # rebuilding on a fresh executor is bit-identical because
            # every kernel is deterministic.
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False)
            raise ShardExecutionError(
                "a shard pool worker died mid-map; the broken pool was "
                "discarded — retry on a fresh ShardExecutor to rebuild "
                "(results are deterministic, so the retry is bit-identical)"
            ) from error

    def warm(self) -> None:
        """Spin the pool up ahead of the first real map — in
        ``processes`` mode this forks the workers and round-trips one
        no-op through each, so build latency measurements (and
        latency-sensitive callers) don't pay one-time pool construction.
        No-op in serial mode; idempotent."""
        if self.mode == "serial":
            return
        pool = self._ensure_pool()
        width = self.effective_workers
        list(pool.map(_noop, range(max(2, width))))

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
    ``numpy`` memory mapping — on-disk corpora). The latter two also
    record a picklable :class:`~repro.data.kernels.ChunkSource`, which
    is what a ``processes`` :class:`ShardExecutor` ships to its pool
    workers; :meth:`from_dataset` holds its rows only in this process's
    RAM, so it cannot drive a process pool (validated at construction).

    ``executor`` selects how the shared membership index
    (:meth:`ShardedMembershipIndex.for_dataset`, and through it every
    oracle/session/service over this dataset) parallelizes its builds
    and gathers; the default is serial.

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
        loader: Callable[[int, int, int], np.ndarray] | None = None,
        *,
        chunk_source: ChunkSource | None = None,
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
        if loader is None and chunk_source is None:
            raise InvalidParameterError(
                "a ShardedDataset needs a loader or a chunk_source"
            )
        if executor is not None and executor.uses_processes:
            if chunk_source is None:
                raise InvalidParameterError(
                    "a processes-mode ShardExecutor needs a picklable chunk "
                    "source (use ShardedDataset.from_memmap or from_generator "
                    "with a module-level generate function); from_dataset "
                    "chunks live only in this process's RAM"
                )
            try:
                pickle.dumps(chunk_source)
            except Exception as error:
                raise InvalidParameterError(
                    f"chunk source {chunk_source!r} does not pickle "
                    f"({error}); processes-mode workers re-create chunks on "
                    "their own side, so the source must be picklable — use a "
                    "module-level generate function or functools.partial "
                    "over one"
                ) from error
        self.schema = schema
        self.name = name
        self.shard_size = int(shard_size)
        self.max_resident_shards = int(max_resident_shards)
        self.chunk_source = chunk_source
        self.executor = executor
        self._n_objects = int(n_objects)
        self._loader = loader if loader is not None else chunk_source.chunk
        self.stats = ShardStats()
        self._chunks: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._hold_slots: threading.BoundedSemaphore | None = None

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
        dense-vs-sharded equivalence test. In-RAM rows cannot feed a
        process pool, so a ``processes`` executor is rejected here.

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
        With a ``processes`` executor the generator also runs inside
        pool workers, so it must pickle (a module-level function or
        :func:`functools.partial` over one — checked at construction).

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
            chunk_source=CallableChunkSource(generate),
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
        cache, not the Python heap. With a ``processes`` executor only
        the *path* crosses the pickle boundary — each pool worker opens
        its own map and slices zero-copy chunk views from it, which is
        the substrate of the benchmark's 100M-row tier.

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
            chunk_source=MemmapChunkSource(path=os.fspath(path)),
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
    def hold_slots(self) -> threading.BoundedSemaphore:
        """Bounds how many chunks shard-parallel workers may *hold* (load
        + compute over) at once, so the worst-case footprint stays at
        twice the residency cap that ``memory_report`` budgets for.
        Created on first use, so an unqueried dataset costs nothing."""
        with self._lock:
            if self._hold_slots is None:
                self._hold_slots = threading.BoundedSemaphore(
                    self.max_resident_shards
                )
            return self._hold_slots

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

    def shard_of(self, index: int) -> int:
        """The shard owning global row ``index``."""
        return int(index) // self.shard_size

    # ------------------------------------------------------------------
    # chunk residency
    # ------------------------------------------------------------------
    def chunk(self, shard_index: int) -> np.ndarray:
        """The shard's resident ``(rows, d)`` code chunk, loading (and
        evicting the least recently used shard) as needed. Thread-safe;
        returned arrays are read-only."""
        with self._lock:
            cached = self._chunks.get(shard_index)
            if cached is not None:
                self._chunks.move_to_end(shard_index)
                return cached
        start, stop = self.shard_bounds(shard_index)
        chunk = np.asarray(self._loader(shard_index, start, stop), dtype=np.int16)
        if chunk.ndim != 2 or chunk.shape != (stop - start, self.schema.n_attributes):
            raise InvalidParameterError(
                f"loader returned shape {chunk.shape} for shard {shard_index}, "
                f"expected ({stop - start}, {self.schema.n_attributes})"
            )
        for j, attribute in enumerate(self.schema):
            column = chunk[:, j]
            if column.size and (
                column.min() < 0 or column.max() >= attribute.cardinality
            ):
                raise InvalidParameterError(
                    f"shard {shard_index} codes for attribute "
                    f"{attribute.name!r} outside [0, {attribute.cardinality})"
                )
        chunk.setflags(write=False)
        with self._lock:
            raced = self._chunks.get(shard_index)
            if raced is not None:
                # Another thread loaded it first; this thread's loader
                # call still materialized a chunk, so it still counts.
                self.stats.loads += 1
                self._chunks.move_to_end(shard_index)
                return raced
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
        shard = self.shard_of(index)
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


@dataclass
class _PrefixCache:
    """Entry-capped store of prefix tables (internal).

    Two tiers sharing one ``max_entries`` budget (the unit is one
    shard-sized ``int32`` table of at most ``4·(shard_size+1)`` bytes,
    so the byte footprint is bounded by ``max_entries`` times that plus
    a two-entry LRU floor — the ``prefix_cap`` term of
    :meth:`ShardedMembershipIndex.memory_report`):

    * ``pinned`` — whole-predicate **global** prefix tables (length
      ``N + 1``, global cumulative counts) assembled by the fused build
      when the predicate's full ``n_shards`` tables fit the remaining
      budget. A pinned predicate charges ``n_shards`` entries — the same
      bytes as its per-shard tables — and answers *every* run, scatter,
      and point query with one lookup, read lock-free on the hot
      path (the dict is only ever grown, under the index lock).
    * ``entries`` — the on-demand per-(predicate, shard) LRU for
      boundary shards of predicates too large to pin. Eviction triggers
      on total entry count (pinned cost + LRU), but the LRU always
      keeps a floor of two live entries — a run touches at most two
      boundary shards, so the floor stops fully-pinned budgets from
      starving unpinned predicates into a rebuild per query. Byte
      counters are tracked for reporting, not for eviction."""

    max_entries: int
    pinned: "dict[GroupPredicate, np.ndarray]" = field(default_factory=dict)
    pinned_entry_cost: int = 0
    entries: "OrderedDict[tuple[GroupPredicate, int], np.ndarray]" = field(
        default_factory=OrderedDict
    )
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    builds: int = 0
    evictions: int = 0

    def get(self, key) -> np.ndarray | None:
        cached = self.entries.get(key)
        if cached is not None:
            self.entries.move_to_end(key)
        return cached

    def can_pin(self, n_entries: int) -> bool:
        """Whether ``n_entries`` more shard-table-equivalents of pinned
        budget are available."""
        return self.pinned_entry_cost + n_entries <= self.max_entries

    def pin(self, predicate, global_prefix: np.ndarray, cost: int) -> None:
        """Pin one predicate's global table (caller checked
        :meth:`can_pin` with the same ``cost``)."""
        if predicate in self.pinned:
            return
        self.builds += 1
        self.pinned[predicate] = global_prefix
        self.pinned_entry_cost += cost
        self.resident_bytes += global_prefix.nbytes
        self._shrink()

    def put(self, key, prefix: np.ndarray) -> None:
        if key in self.entries:
            return
        self.builds += 1
        self.entries[key] = prefix
        self.resident_bytes += prefix.nbytes
        self._shrink()

    def _shrink(self) -> None:
        # The LRU keeps a small floor of entries even when pinned tables
        # consume the whole budget: a run has at most two boundary
        # shards, so two live slots are what stops an unpinned
        # predicate's boundary queries from rebuilding (chunk load +
        # mask + cumsum) on every call. The floor is accounted for in
        # ``memory_report``'s ``prefix_cap`` term.
        floor = min(2, self.max_entries)
        keep = max(self.max_entries - self.pinned_entry_cost, floor)
        while len(self.entries) > keep:
            _, evicted = self.entries.popitem(last=False)
            self.evictions += 1
            self.resident_bytes -= evicted.nbytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )


class ShardedMembershipIndex:
    """The membership index: exact ground-truth answers over any dataset.

    The query surface — :meth:`count`, :meth:`any_match`,
    :meth:`any_match_runs`, :meth:`any_match_batch`, :meth:`matches`,
    :meth:`value_rows` — is what every simulated oracle, platform,
    session, and service answers from, whether the dataset is in RAM
    (one shard, see :meth:`for_dataset`) or out of core. Internally a
    query splits at shard boundaries: interior shards answer from the
    cross-shard totals (built by one fused streaming pass per *set* of
    predicates — each chunk is touched once however many predicates need
    totals), boundary shards from their local prefix tables (pinned by
    the fused build when they fit the cache budget, else built on demand
    and LRU-capped), and the partial counts merge. Shard-aligned runs
    never load a chunk at all. Set queries arrive keyed by
    :class:`~repro.engine.requests.IndexKey`, so the index never
    re-detects a query's shape: run keys answer from prefixes,
    scattered keys gather over their zero-copy index view.

    Parameters
    ----------
    dataset:
        The :class:`ShardedDataset` to answer over.
    executor:
        The :class:`ShardExecutor` for fused builds and scattered-batch
        gathers; defaults to the dataset's executor, else serial
        (answers are identical in every mode). A ``processes`` executor
        requires the dataset to carry a picklable
        :class:`~repro.data.kernels.ChunkSource`.
    max_cached_prefixes:
        Entry budget shared by pinned and LRU prefix tables (each ≤
        ``4·(shard_size+1)`` bytes). Defaults to the dataset's
        ``max_resident_shards``.

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
        if executor is not None and executor.uses_processes:
            if dataset.chunk_source is None:
                raise InvalidParameterError(
                    "a processes-mode ShardExecutor needs a dataset with a "
                    "picklable chunk source (from_memmap / from_generator); "
                    f"{dataset.name!r} has none"
                )
        self.dataset = dataset
        self.executor = executor if executor is not None else ShardExecutor()
        self._totals: dict[GroupPredicate, np.ndarray] = {}
        self._prefixes = _PrefixCache(
            max_entries=(
                max_cached_prefixes
                if max_cached_prefixes is not None
                else dataset.max_resident_shards
            )
        )
        self._lock = threading.Lock()

    @classmethod
    def for_dataset(
        cls, dataset: "LabeledDataset | ShardedDataset"
    ) -> "ShardedMembershipIndex":
        """The shared index of one dataset (created on first use and
        memoized on the dataset), so every oracle, platform, and session
        over it shares totals and prefix tables.

        A :class:`ShardedDataset` is indexed as it is, and the index
        inherits its executor. An in-RAM
        :class:`~repro.data.dataset.LabeledDataset` is one shard whose
        chunk is a read-only view of its code matrix (no copy), under a
        budget that pins every predicate, so no table is ever evicted
        and rebuilt.

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
    # the sharded substrate
    # ------------------------------------------------------------------
    def build_totals(self, predicates: Sequence[GroupPredicate]) -> None:
        """Build cross-shard totals for every listed predicate that
        lacks them, in **one** fused streaming pass: each chunk is
        materialized once (shard-parallel through the executor) and
        every missing predicate's mask, member count, and local prefix
        table come off that single touch. When the missing predicates'
        table sets fit the prefix budget the tables are pinned, so later
        queries answer lock-free without ever reloading a chunk.

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
        >>> ds.stats.loads  # four shards, one fused pass for BOTH predicates
        4
        """
        missing: list[GroupPredicate] = []
        for predicate in predicates:
            if predicate not in self._totals and predicate not in missing:
                missing.append(predicate)
        if not missing:
            return
        schema = self.dataset.schema
        for predicate in missing:
            predicate.validate(schema)
        n_shards = self.dataset.n_shards
        # Ship tables back only when they can all be pinned: otherwise
        # most would be evicted on arrival (and, under a process pool,
        # pickled across the boundary for nothing).
        with self._lock:
            want_tables = self._can_pin(len(missing))

        if self.executor.uses_processes and n_shards > 1:
            source = self.dataset.chunk_source
            if source is None:
                raise InvalidParameterError(
                    "processes-mode builds need a dataset chunk source "
                    "(from_memmap / from_generator)"
                )
            tasks = [
                (source, schema, s, *self.dataset.shard_bounds(s),
                 tuple(missing), want_tables)
                for s in range(n_shards)
            ]
            results = self.executor.map(_run_fused_task, tasks)
        else:
            def build_shard(shard_index: int):
                # The hold slot bounds how many chunks threaded workers
                # keep alive at once (load + mask evaluation) to the
                # residency cap.
                with self.dataset.hold_slots:
                    chunk = self.dataset.chunk(shard_index)
                    tables = fused_prefix_tables(schema, chunk, missing)
                counts = [int(table[-1]) for table in tables]
                return counts, (tables if want_tables else None)

            results = self.executor.map(build_shard, range(n_shards))

        counts = np.zeros((len(missing), n_shards), dtype=np.int64)
        for shard_index, (shard_counts, _) in enumerate(results):
            counts[:, shard_index] = shard_counts
        with self._lock:
            for row, predicate in enumerate(missing):
                totals = np.zeros(n_shards + 1, dtype=np.int64)
                np.cumsum(counts[row], out=totals[1:])
                totals.setflags(write=False)
                # A racing build produced identical content; keep the first.
                self._totals.setdefault(predicate, totals)
            tables_present = want_tables and n_shards > 0 and all(
                tables is not None for _, tables in results
            )
            if tables_present:
                for row, predicate in enumerate(missing):
                    if predicate in self._prefixes.pinned:
                        continue
                    if not self._prefixes.can_pin(n_shards):
                        break
                    # Splice the per-shard tables into ONE global prefix
                    # table (prefix[i] = members among rows [0, i)), at
                    # the exact bytes the per-shard tables would have
                    # cost, so every later query on this predicate is a
                    # lookup in one array.
                    totals = self._totals[predicate]
                    global_prefix = np.empty(
                        len(self.dataset) + 1, dtype=np.int32
                    )
                    global_prefix[0] = 0
                    for shard_index in range(n_shards):
                        start, stop = self.dataset.shard_bounds(shard_index)
                        np.add(
                            results[shard_index][1][row][1:],
                            int(totals[shard_index]),
                            out=global_prefix[start + 1 : stop + 1],
                        )
                    global_prefix.setflags(write=False)
                    self._prefixes.pin(predicate, global_prefix, n_shards)

    def _can_pin(self, n_predicates: int) -> bool:
        """Whether the prefix budget can pin ``n_predicates`` more
        predicates (callers hold the index lock). Pinned global tables
        are int32 (counts are bounded by N), so pinning is only
        well-defined below the int32 ceiling — far beyond any dataset
        the sharded tier targets."""
        return len(self.dataset) < 2**31 - 1 and self._prefixes.can_pin(
            n_predicates * self.dataset.n_shards
        )

    def _pin_on_first_touch(self, predicate: GroupPredicate) -> np.ndarray | None:
        """Pin a predicate no query has touched yet, when the budget can.

        Run and batch queries pin through their totals build; this gives
        scattered and point queries the same first touch, so they never
        build a per-shard LRU table that a later run query would build a
        second time. Returns the pinned global table, or ``None`` when
        the predicate was touched before or the budget cannot pin it —
        then the caller keeps the per-shard path."""
        if predicate in self._totals:
            return None
        with self._lock:
            pinnable = self._can_pin(1)
        if not pinnable:
            return None
        self.build_totals((predicate,))
        return self._prefixes.pinned.get(predicate)

    def shard_totals(self, predicate: GroupPredicate) -> np.ndarray:
        """Cumulative member counts at shard boundaries: ``totals[s]`` =
        members among shards ``[0, s)`` (length ``n_shards + 1``),
        building through :meth:`build_totals` on first use; afterwards
        any shard-aligned range is answered in O(1) from this table
        alone."""
        cached = self._totals.get(predicate)
        if cached is not None:
            return cached
        self.build_totals((predicate,))
        return self._totals[predicate]

    def _shard_prefix(
        self, predicate: GroupPredicate, shard_index: int
    ) -> np.ndarray:
        """The shard's local prefix-count table (length ``rows + 1``):
        sliced out of a pinned global table when one exists, otherwise
        built from the chunk on demand and cached LRU."""
        pinned = self._prefixes.pinned.get(predicate)
        if pinned is not None:
            start, stop = self.dataset.shard_bounds(shard_index)
            return pinned[start : stop + 1] - pinned[start]
        key = (predicate, shard_index)
        with self._lock:
            cached = self._prefixes.get(key)
        if cached is not None:
            return cached
        chunk = self.dataset.chunk(shard_index)
        prefix = fused_prefix_tables(self.dataset.schema, chunk, (predicate,))[0]
        with self._lock:
            raced = self._prefixes.get(key)
            if raced is not None:
                return raced
            self._prefixes.put(key, prefix)
        return prefix

    def _count_run(
        self,
        predicate: GroupPredicate,
        start: int,
        stop: int,
        totals: np.ndarray | None = None,
    ) -> int:
        """Exact member count over the contiguous run ``[start, stop)``:
        totals for whole shards, local prefixes for the (at most two)
        partially covered boundary shards. ``totals`` lets batched
        callers hoist the per-predicate lookup out of their per-run
        loop."""
        if stop <= start:
            return 0
        if start < 0 or stop > len(self.dataset):
            # Same contract as value_rows: out-of-range queries raise
            # instead of silently clamping (a pinned prefix table would
            # overrun, or wrap on a negative start, on the same input).
            raise OracleError(
                f"query run [{start}, {stop}) outside dataset "
                f"[0, {len(self.dataset)})"
            )
        pinned = self._prefixes.pinned.get(predicate)
        if pinned is not None:
            return int(pinned[stop] - pinned[start])
        size = self.dataset.shard_size
        first = start // size
        last = (stop - 1) // size
        if totals is None:
            totals = self.shard_totals(predicate)
        count = int(totals[last + 1] - totals[first])
        first_base = first * size
        if start > first_base:
            count -= int(self._shard_prefix(predicate, first)[start - first_base])
        last_base = last * size
        _, last_stop = self.dataset.shard_bounds(last)
        if stop < last_stop:
            in_last = int(totals[last + 1] - totals[last])
            count -= in_last - int(
                self._shard_prefix(predicate, last)[stop - last_base]
            )
        return count

    def _scattered_hits(
        self, predicate: GroupPredicate, indices: np.ndarray
    ) -> np.ndarray:
        """Per-index membership of an arbitrary (non-empty) index array,
        resolved shard-by-shard through the executor. In ``processes``
        mode each shard's gather runs as a picklable kernel — only the
        local index array and its boolean hits cross the boundary —
        unless the predicate's global prefix table is already pinned, in
        which case the parent answers lock-free without dispatching (or
        touching a chunk) at all."""
        _check_object_indices(indices, len(self.dataset))
        pinned = self._prefixes.pinned.get(predicate)
        if pinned is None:
            pinned = self._pin_on_first_touch(predicate)
        if pinned is not None:
            return np.asarray(pinned[indices + 1] > pinned[indices])
        size = self.dataset.shard_size
        shards = indices // size
        unique_shards = np.unique(shards)
        hits = np.zeros(len(indices), dtype=bool)

        if self.executor.uses_processes and len(unique_shards) > 1:
            source = self.dataset.chunk_source
            predicate.validate(self.dataset.schema)
            selectors = []
            tasks = []
            for shard_index in (int(s) for s in unique_shards):
                selector = shards == shard_index
                local = indices[selector] - shard_index * size
                selectors.append(selector)
                tasks.append(
                    (source, self.dataset.schema, shard_index,
                     *self.dataset.shard_bounds(shard_index), predicate, local)
                )
            for selector, shard_hits in zip(
                selectors, self.executor.map(_run_scattered_task, tasks)
            ):
                hits[selector] = shard_hits
            return hits

        def eval_shard(shard_index: int):
            selector = shards == shard_index
            local = indices[selector] - shard_index * size
            with self.dataset.hold_slots:
                prefix = self._shard_prefix(predicate, int(shard_index))
            return selector, prefix[local + 1] > prefix[local]

        if self.executor.uses_processes:
            # Single-shard gather with no chunk source advantage: build
            # the boundary prefix in-parent (the closure would not
            # pickle anyway).
            results = [eval_shard(int(s)) for s in unique_shards]
        else:
            results = self.executor.map(
                eval_shard, (int(s) for s in unique_shards)
            )
        for selector, shard_hits in results:
            hits[selector] = shard_hits
        return hits

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
        return int(self._scattered_hits(predicate, key.to_array()).sum())

    def any_match(self, predicate: GroupPredicate, key: IndexKey) -> bool:
        """Does the keyed index set contain at least one member of
        ``predicate``?"""
        if key.payload is None:
            return self._count_run(predicate, key.start, key.stop) > 0
        if not key.payload:
            return False
        return bool(self._scattered_hits(predicate, key.to_array()).any())

    def matches(self, predicate: GroupPredicate, index: int) -> bool:
        """Ground-truth membership of a single object."""
        index = int(index)
        _check_object_indices(np.asarray([index], dtype=np.int64), len(self.dataset))
        pinned = self._prefixes.pinned.get(predicate)
        if pinned is None:
            pinned = self._pin_on_first_touch(predicate)
        if pinned is not None:
            return bool(pinned[index + 1] > pinned[index])
        shard = self.dataset.shard_of(index)
        prefix = self._shard_prefix(predicate, shard)
        local = index - shard * self.dataset.shard_size
        return bool(prefix[local + 1] > prefix[local])

    def any_match_runs(
        self, predicate: GroupPredicate, starts: np.ndarray, stops: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`any_match` over many runs of one predicate."""
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        totals = self.shard_totals(predicate)
        return np.array(
            [
                self._count_run(predicate, int(start), int(stop), totals) > 0
                for start, stop in zip(starts, stops)
            ],
            dtype=bool,
        )

    def any_match_batch(
        self, queries: Sequence[tuple[IndexKey, GroupPredicate]]
    ) -> list[bool]:
        """Answer many keyed set queries, grouped by predicate; empty
        keys answer ``False``. Totals for every predicate the batch
        needs are built in one fused streaming pass first; then run keys
        split/merge at shard boundaries and the scattered keys of one
        predicate concatenate into a single shard-parallel gather."""
        answers = [False] * len(queries)
        by_predicate: dict[GroupPredicate, list[int]] = {}
        for position, (_, predicate) in enumerate(queries):
            by_predicate.setdefault(predicate, []).append(position)
        # One chunk touch builds totals for every predicate missing them.
        self.build_totals(list(by_predicate))
        for predicate, positions in by_predicate.items():
            totals = self.shard_totals(predicate)
            scattered: list[int] = []
            for position in positions:
                key = queries[position][0]
                if key.payload is None:
                    answers[position] = (
                        self._count_run(predicate, key.start, key.stop, totals) > 0
                    )
                elif key.payload:
                    scattered.append(position)
            if scattered:
                arrays = [queries[position][0].to_array() for position in scattered]
                hits = self._scattered_hits(predicate, np.concatenate(arrays))
                # Per-query ``any`` over the concatenated gather (every
                # array is non-empty, as ``reduceat`` requires).
                starts = np.cumsum([0] + [len(a) for a in arrays[:-1]])
                for position, hit in zip(
                    scattered, np.logical_or.reduceat(hits, starts)
                ):
                    answers[position] = bool(hit)
        return answers

    # ------------------------------------------------------------------
    # point labels
    # ------------------------------------------------------------------
    def value_rows(self, indices: Sequence[int]) -> list[dict[str, str]]:
        """Ground-truth ``{attribute: value}`` rows for many objects,
        decoded shard by shard; a negative or too-large index raises
        instead of wrapping the way raw fancy-indexing would."""
        if len(indices) == 0:
            return []
        index_array = np.asarray(indices, dtype=np.int64)
        _check_object_indices(index_array, len(self.dataset))
        size = self.dataset.shard_size
        shards = index_array // size
        codes = np.empty(
            (len(index_array), self.dataset.schema.n_attributes), dtype=np.int16
        )
        for shard_index in np.unique(shards):
            selector = shards == shard_index
            local = index_array[selector] - int(shard_index) * size
            codes[selector] = self.dataset.chunk(int(shard_index))[local]
        # One fancy-index per attribute decodes the whole batch.
        columns = [
            (attribute.name, np.asarray(attribute.values, dtype=object)[codes[:, j]])
            for j, attribute in enumerate(self.dataset.schema)
        ]
        return [
            {name: column[i] for name, column in columns}
            for i in range(len(codes))
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_report(self) -> dict[str, int]:
        """Structural memory accounting of the sharded path.

        ``peak_tracked_bytes`` (resident chunks + prefix tables + totals,
        at their high-water marks) is what ``benchmarks/bench_shards.py``
        compares against :func:`dense_index_bytes`; ``cap_bytes`` is the
        configuration-implied ceiling it can never exceed. Under a
        ``processes`` executor each pool worker additionally holds at
        most one chunk at a time in its own address space — that bound
        is the ``worker_chunk_cap`` term of ``cap_bytes`` (it can never
        appear in ``peak_tracked_bytes``, which ledgers this process
        only).
        """
        stats = self.dataset.stats
        row_bytes = 2 * self.dataset.schema.n_attributes
        chunk_bytes = self.dataset.shard_size * row_bytes
        # LRU-resident chunks plus the chunks shard-parallel workers may
        # hold outside the table (bounded by the dataset's hold_slots
        # semaphore to the same count): worst case 2 × the residency cap.
        chunk_cap = 2 * self.dataset.max_resident_shards * chunk_bytes
        # Pool workers of a processes executor each materialize at most
        # one chunk at a time on their own side.
        worker_chunk_cap = (
            self.executor.effective_workers * chunk_bytes
            if self.executor.uses_processes
            else 0
        )
        # Prefix tables are int32 (4 bytes/entry); the +2 is the LRU's
        # boundary-table floor, which survives even a fully-pinned
        # budget (see _PrefixCache._shrink).
        prefix_cap = (
            (self._prefixes.max_entries + 2) * 4 * (self.dataset.shard_size + 1)
        )
        totals_bytes = sum(t.nbytes for t in self._totals.values())
        return {
            "peak_chunk_bytes": stats.peak_resident_bytes,
            "peak_prefix_bytes": self._prefixes.peak_resident_bytes,
            "totals_bytes": totals_bytes,
            "peak_tracked_bytes": (
                stats.peak_resident_bytes
                + self._prefixes.peak_resident_bytes
                + totals_bytes
            ),
            "worker_chunk_cap": worker_chunk_cap,
            "cap_bytes": chunk_cap
            + worker_chunk_cap
            + prefix_cap
            + (self.dataset.n_shards + 1) * 8 * max(len(self._totals), 1),
            "chunk_loads": stats.loads,
            "chunk_evictions": stats.evictions,
            "prefix_builds": self._prefixes.builds,
            "prefix_evictions": self._prefixes.evictions,
            "pinned_predicates": len(self._prefixes.pinned),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"ShardedMembershipIndex({self.dataset.name!r}, "
            f"N={len(self.dataset)}, shards={self.dataset.n_shards}, "
            f"indexed_predicates={len(self._totals)})"
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
