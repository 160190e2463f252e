"""Picklable predicate kernels: the compute units of the sharded path.

The sharded out-of-core index (:mod:`repro.data.sharded`) hands its hot
loops — predicate-mask evaluation, fused count + prefix-table
construction, scattered membership gathers — to a
:class:`~repro.data.sharded.ShardExecutor`. In ``serial`` and
``threads`` modes any callable works, but ``processes`` mode crosses a
pickle boundary: the work item must describe *how to get the chunk*
(never the chunk array itself — workers open the shard file or run the
generator on their own side, so chunk bytes never cross the boundary)
plus module-level functions to run over it. This module is that
vocabulary:

* **chunk sources** — :class:`MemmapChunkSource` (reopen an ``.npy``
  file with ``mmap_mode="r"`` in the worker, cached per process) and
  :class:`CallableChunkSource` (re-run a picklable deterministic
  generator), unified under :class:`ChunkSource`;
* **mask kernel** — :func:`predicate_mask`, the one predicate evaluator
  every membership substrate shares (the dense
  :class:`~repro.data.dataset.LabeledDataset` routes its memoized masks
  through it too);
* **fused kernels** — :func:`fused_prefix_tables` evaluates *many*
  predicates over *one* chunk touch and returns their local prefix-count
  tables (``prefix[-1]`` is the shard total, so a totals-plus-prefix
  build streams each chunk exactly once), and :func:`fused_source_pass`
  / :func:`scattered_hits_pass` are their process-safe forms taking a
  :class:`ChunkSource` instead of an in-memory chunk.

Everything here is deterministic and allocation-bounded: one chunk is
materialized per call, masks are evaluated once per predicate, and the
returned tables are exactly what the two-pass route (mask, then count,
then cumsum) would have produced — pinned by
``tests/data/test_kernel_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from repro.data.groups import Group, GroupPredicate, Negation, SuperGroup
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

__all__ = [
    "ChunkSource",
    "MemmapChunkSource",
    "CallableChunkSource",
    "predicate_mask",
    "fused_prefix_tables",
    "fused_source_pass",
    "scattered_hits_pass",
]


def predicate_mask(
    schema: Schema,
    codes: NDArray[np.int16],
    predicate: GroupPredicate,
    *,
    resolve: Callable[[GroupPredicate], NDArray[np.bool_]] | None = None,
) -> NDArray[np.bool_]:
    """Boolean membership mask of ``predicate`` over a code matrix.

    The one predicate evaluator every membership substrate shares:
    :class:`~repro.data.dataset.LabeledDataset` routes its memoized
    masks through it, and the sharded out-of-core index evaluates it per
    shard chunk (in-process or inside pool workers). ``resolve``
    optionally maps a *sub*-predicate to an existing mask (the dense
    dataset passes its memo cache); by default sub-predicates recurse
    through this function.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.schema import Schema
    >>> from repro.data.groups import group
    >>> schema = Schema.from_dict({"gender": ["male", "female"]})
    >>> predicate_mask(schema, np.array([[0], [1], [1]]), group(gender="female"))
    array([False,  True,  True])
    """
    if isinstance(predicate, Group):
        result: NDArray[np.bool_] = np.ones(len(codes), dtype=bool)
        for attr_name, value in predicate.conditions:
            attribute = schema.attribute(attr_name)
            j = schema.index_of(attr_name)
            result &= codes[:, j] == attribute.code_of(value)
        return result
    def _recurse(sub: GroupPredicate) -> NDArray[np.bool_]:
        return predicate_mask(schema, codes, sub)
    resolver = resolve if resolve is not None else _recurse
    if isinstance(predicate, SuperGroup):
        merged: NDArray[np.bool_] = np.zeros(len(codes), dtype=bool)
        for member in predicate.members:
            merged |= resolver(member)
        return merged
    if isinstance(predicate, Negation):
        return ~resolver(predicate.inner)
    raise InvalidParameterError(f"unsupported predicate type: {type(predicate)!r}")


@runtime_checkable
class ChunkSource(Protocol):
    """A picklable recipe for materializing shard chunks.

    Process-pool workers receive the *source*, never chunk arrays: each
    worker materializes the rows it needs on its own side (memory map or
    deterministic generator), so the parent's residency accounting and
    the pickle channel stay free of chunk bytes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.kernels import CallableChunkSource, ChunkSource
    >>> def zeros(shard_index, start, stop):
    ...     return np.zeros((stop - start, 1), dtype=np.int16)
    >>> isinstance(CallableChunkSource(generate=zeros), ChunkSource)
    True
    """

    def chunk(self, shard_index: int, start: int, stop: int) -> NDArray[np.int16]:
        """The ``(stop - start, d)`` code chunk of rows ``[start, stop)``."""
        ...


#: Per-process cache of opened memory maps, keyed by file path. A pool
#: worker opens each shard file once and reuses the map across tasks;
#: maps are read-only so sharing them between tasks is safe.
_MEMMAP_CACHE: dict[str, NDArray[np.int16]] = {}


@dataclass(frozen=True)
class MemmapChunkSource:
    """Chunks sliced from an on-disk ``.npy`` code matrix.

    Only the path crosses the pickle boundary; every process (parent or
    pool worker) opens the file with ``mmap_mode="r"`` on first use and
    caches the map, so a chunk view touches exactly the pages of its row
    range — the zero-copy substrate of the 100M-row benchmark tier.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> from repro.data.kernels import MemmapChunkSource
    >>> path = os.path.join(tempfile.mkdtemp(), "codes.npy")
    >>> np.save(path, np.arange(20, dtype=np.int16).reshape(10, 2))
    >>> source = MemmapChunkSource(path=path)
    >>> source.chunk(1, 4, 6).tolist()
    [[8, 9], [10, 11]]
    """

    path: str

    def chunk(self, shard_index: int, start: int, stop: int) -> NDArray[np.int16]:
        """Copy rows ``[start, stop)`` out of the (cached) memory map."""
        mapped = _MEMMAP_CACHE.get(self.path)
        if mapped is None:
            mapped = np.load(self.path, mmap_mode="r")
            _MEMMAP_CACHE[self.path] = mapped
        return np.array(mapped[start:stop], dtype=np.int16)


@dataclass(frozen=True)
class CallableChunkSource:
    """Chunks computed by a picklable deterministic generator.

    ``generate(shard_index, start, stop)`` must return the same
    ``(stop - start, d)`` chunk every time it is called with the same
    arguments — in ``processes`` mode it runs inside pool workers, so it
    must also pickle (a module-level function or a
    :func:`functools.partial` over one; closures and lambdas will not).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.kernels import CallableChunkSource
    >>> def zeros(shard_index, start, stop):
    ...     return np.zeros((stop - start, 1), dtype=np.int16)
    >>> CallableChunkSource(generate=zeros).chunk(0, 3, 7).shape
    (4, 1)
    """

    generate: Callable[[int, int, int], NDArray[np.int16]]

    def chunk(self, shard_index: int, start: int, stop: int) -> NDArray[np.int16]:
        """Run the generator for rows ``[start, stop)``."""
        return np.asarray(self.generate(shard_index, start, stop), dtype=np.int16)


def fused_prefix_tables(
    schema: Schema,
    chunk: NDArray[np.int16],
    predicates: Sequence[GroupPredicate],
) -> list[NDArray[np.int32]]:
    """Local prefix-count tables of many predicates over one chunk.

    The fused form of the old two-pass route: each predicate's mask is
    evaluated once and immediately cumsum-ed into its ``rows + 1``-long
    prefix table, so a totals-plus-prefix build touches the chunk
    exactly once however many predicates it indexes. ``table[-1]`` is
    the shard's member count — the totals entry — and
    ``table[b] - table[a]`` counts members of local rows ``[a, b)``.
    Tables are ``int32``: a local count is bounded by the shard's row
    count, and chunks anywhere near 2³¹ rows could not be materialized
    in the first place — half the bytes of ``int64`` tables, which is
    where the index's prefix-cache headroom comes from.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.schema import Schema
    >>> from repro.data.groups import group
    >>> from repro.data.kernels import fused_prefix_tables
    >>> schema = Schema.from_dict({"gender": ["male", "female"]})
    >>> tables = fused_prefix_tables(
    ...     schema, np.array([[0], [1], [1], [0]], dtype=np.int16),
    ...     [group(gender="female"), group(gender="male")])
    >>> [table.tolist() for table in tables]
    [[0, 0, 1, 2, 2], [0, 1, 1, 1, 2]]
    """
    tables: list[NDArray[np.int32]] = []
    for predicate in predicates:
        mask = predicate_mask(schema, chunk, predicate)
        table = np.zeros(len(mask) + 1, dtype=np.int32)
        np.cumsum(mask, out=table[1:])
        table.setflags(write=False)
        tables.append(table)
    return tables


def fused_source_pass(
    source: ChunkSource,
    schema: Schema,
    shard_index: int,
    start: int,
    stop: int,
    predicates: Sequence[GroupPredicate],
    want_tables: bool,
) -> tuple[list[int], list[NDArray[np.int32]] | None]:
    """One shard's contribution to a fused totals + prefix build.

    Materializes the chunk from ``source`` (inside the calling process —
    under a pool this is the worker, so chunk bytes never pickle),
    evaluates every predicate once, and returns the per-predicate member
    counts plus, when ``want_tables`` is set, the full local prefix
    tables. Builders pass ``want_tables=False`` when shipping tables
    back would cost more than rebuilding the few boundary ones on
    demand.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.schema import Schema
    >>> from repro.data.groups import group
    >>> from repro.data.kernels import CallableChunkSource, fused_source_pass
    >>> schema = Schema.from_dict({"gender": ["male", "female"]})
    >>> def chunk(shard_index, start, stop):
    ...     return np.arange(start, stop, dtype=np.int16).reshape(-1, 1) % 2
    >>> counts, tables = fused_source_pass(
    ...     CallableChunkSource(chunk), schema, 0, 0, 6,
    ...     [group(gender="female")], True)
    >>> counts, tables[0].tolist()
    ([3], [0, 0, 1, 1, 2, 2, 3])
    """
    chunk = source.chunk(shard_index, start, stop)
    tables = fused_prefix_tables(schema, chunk, predicates)
    counts = [int(table[-1]) for table in tables]
    return counts, (tables if want_tables else None)


def scattered_hits_pass(
    source: ChunkSource,
    schema: Schema,
    shard_index: int,
    start: int,
    stop: int,
    predicate: GroupPredicate,
    local_indices: NDArray[np.int64],
) -> NDArray[np.bool_]:
    """Membership bits of scattered *local* rows within one shard.

    The process-safe form of a scattered gather: the worker materializes
    its shard's chunk from ``source``, evaluates the predicate mask
    once, and returns only the (small) boolean hit array for the
    requested rows — never the chunk.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.schema import Schema
    >>> from repro.data.groups import group
    >>> from repro.data.kernels import CallableChunkSource, scattered_hits_pass
    >>> schema = Schema.from_dict({"gender": ["male", "female"]})
    >>> def chunk(shard_index, start, stop):
    ...     return np.arange(start, stop, dtype=np.int16).reshape(-1, 1) % 2
    >>> scattered_hits_pass(
    ...     CallableChunkSource(chunk), schema, 0, 0, 8,
    ...     group(gender="female"), np.array([0, 3, 5]))
    array([False,  True,  True])
    """
    chunk = source.chunk(shard_index, start, stop)
    mask = predicate_mask(schema, chunk, predicate)
    return np.asarray(mask[local_indices], dtype=bool)
