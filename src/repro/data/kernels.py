"""Picklable predicate kernels: the compute units of the membership index.

The membership index (:mod:`repro.data.sharded`) answers every set
query from packed bitmaps, and these kernels build and read them. Its
one full-shard streaming pass, the bitmap build, goes through a
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
* **mask kernel** — :func:`predicate_mask`, the row-wise predicate
  evaluator (the dense :class:`~repro.data.dataset.LabeledDataset`
  routes its memoized masks through it, and it is the reference every
  bitmap kernel is tested against);
* **build kernels** — :func:`pack_columns` turns one chunk into the
  little-endian ``uint64`` bitmap words of many ``(attribute, value)``
  columns off one chunk touch, aligned to the chunk's global first row
  so shards of any size OR into one global bitmap; and
  :func:`fused_source_pass` is its process-safe form taking a
  :class:`ChunkSource` instead of an in-memory chunk;
* **read kernels** — :func:`predicate_words`, the word-wise twin of
  :func:`predicate_mask` (``Group`` = AND, ``SuperGroup`` = OR,
  ``Negation`` = NOT with the tail masked) over the whole bitmap, a
  gathered set of words or one word; :func:`rank_directory` (one
  ``int32`` count per word) and :func:`rank`, which with one masked
  ``np.bitwise_count`` counts the members before any position.

Everything here is deterministic and exact: a bit test equals the
predicate mask at that row and a rank equals the mask's ``cumsum`` —
pinned by ``tests/data/test_kernel_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

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
    "predicate_conditions",
    "predicate_words",
    "pack_columns",
    "fused_source_pass",
    "valid_words",
    "rank_directory",
    "rank",
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




#: One bitmap word: 64 objects, object ``64·w + r`` at bit ``r`` of word
#: ``w`` (little-endian, the order :func:`numpy.packbits` writes with
#: ``bitorder="little"``).
WORD = np.dtype("<u8")
#: ``BIT[r]`` has only bit ``r`` set; ``LOW[r]`` has the ``r`` bits below it.
BIT: NDArray[np.uint64] = np.left_shift(np.uint64(1), np.arange(64, dtype=WORD))
LOW: NDArray[np.uint64] = BIT - np.uint64(1)
BIT.setflags(write=False)
LOW.setflags(write=False)
_ALL = np.uint64(2**64 - 1)

#: An ``(attribute, value)`` condition, as a :class:`Group` stores it.
Condition = tuple[str, str]


def n_words(n_objects: int) -> int:
    """Words of a bitmap over ``n_objects`` objects. Word ``n_objects //
    64`` always exists (it holds the tail, possibly no bits), so a rank
    lookup at any end in ``[0, n_objects]`` reads a real word."""
    return n_objects // 64 + 1


def predicate_conditions(predicate: GroupPredicate) -> tuple[Condition, ...]:
    """The distinct conditions ``predicate`` reads, in first-use order:
    the value bitmaps :func:`predicate_words` combines.

    >>> from repro.data.groups import Negation, SuperGroup, group
    >>> predicate_conditions(Negation(SuperGroup([
    ...     group(race="black"), group(gender="female", race="black")])))
    (('race', 'black'), ('gender', 'female'))
    """
    if isinstance(predicate, Group):
        return predicate.conditions
    if isinstance(predicate, SuperGroup):
        return tuple(dict.fromkeys(c for m in predicate.members for c in m.conditions))
    if isinstance(predicate, Negation):
        return predicate_conditions(predicate.inner)
    raise InvalidParameterError(f"unsupported predicate type: {type(predicate)!r}")


def pack_columns(
    chunk: NDArray[np.int16], start: int, columns: Sequence[tuple[int, int]]
) -> list[NDArray[np.uint64]]:
    """Bitmap words of ``chunk[:, j] == code`` for each ``(j, code)`` of
    ``columns``, for a chunk whose first row is global row ``start``.

    Word 0 of each result is global word ``start // 64``, and the bits
    of rows before ``start`` are zero, so OR-ing every shard's words
    into one zeroed bitmap assembles the global bitmap exactly, whatever
    the shard size. One chunk touch packs every column.

    >>> import numpy as np
    >>> chunk = np.array([[1], [0], [1]], dtype=np.int16)
    >>> [hex(int(w)) for w in pack_columns(chunk, 62, [(0, 1)])[0]]
    ['0x4000000000000000', '0x1']
    """
    pad = start & 63
    rows = len(chunk)
    bits = np.zeros(-(-(pad + rows) // 64) * 64, dtype=bool)
    words = []
    for j, code in columns:
        np.equal(chunk[:, j], code, out=bits[pad : pad + rows])
        words.append(np.packbits(bits, bitorder="little").view(WORD))
    return words


def fused_source_pass(
    source: ChunkSource,
    shard_index: int,
    start: int,
    stop: int,
    columns: Sequence[tuple[int, int]],
) -> list[NDArray[np.uint64]]:
    """One shard's contribution to a streaming bitmap build:
    :func:`pack_columns` over the chunk materialized from ``source``
    inside the calling process. Under a process pool that is the worker,
    so only the packed words (an eighth of a byte per row and column)
    cross the pickle boundary, never chunk bytes.

    >>> import numpy as np
    >>> from repro.data.kernels import CallableChunkSource, fused_source_pass
    >>> def chunk(shard_index, start, stop):
    ...     return np.arange(start, stop, dtype=np.int16).reshape(-1, 1) % 2
    >>> source = CallableChunkSource(chunk)
    >>> [bin(int(w)) for w in fused_source_pass(source, 0, 0, 6, [(0, 1)])[0]]
    ['0b101010']
    """
    return pack_columns(source.chunk(shard_index, start, stop), start, columns)


def valid_words(n_objects: int, at: Any = slice(None)) -> Any:
    """The words of the all-objects bitmap at ``at``: every bit set
    except those past ``n_objects`` in the tail word.

    >>> [hex(int(w)) for w in valid_words(66)]
    ['0xffffffffffffffff', '0x3']
    """
    last, tail = n_objects >> 6, np.uint64((1 << (n_objects & 63)) - 1)
    if isinstance(at, slice):
        words = np.full(last + 1, _ALL, dtype=WORD)
        words[last] = tail
        return words[at]
    if isinstance(at, (int, np.integer)):
        return tail if at == last else _ALL
    return np.where(at == last, tail, _ALL)


def predicate_words(
    predicate: GroupPredicate,
    bitmaps: Mapping[Condition, NDArray[np.uint64]],
    n_objects: int,
    at: Any = slice(None),
) -> Any:
    """The word-wise twin of :func:`predicate_mask`: ``predicate``'s
    bitmap words at ``at``, combined from the value bitmaps of its
    conditions (``bitmaps[(attribute, value)]``, as
    :func:`pack_columns` builds them over ``n_objects`` objects).

    A :class:`Group` is an AND of its conditions' words, a
    :class:`SuperGroup` an OR of its members' and a :class:`Negation` a
    NOT with the bits past ``n_objects`` masked off, so every result
    has a zero tail. ``at`` is a slice (the whole bitmap, possibly a
    view of a value bitmap: do not write to it), an array of word
    indices (a gathered array) or one word index (one ``uint64``, no
    array allocated).

    >>> import numpy as np
    >>> from repro.data.groups import Negation, group
    >>> female = pack_columns(np.array([[1], [0], [1]], dtype=np.int16), 0, [(0, 1)])[0]
    >>> bitmaps = {("gender", "female"): female}
    >>> bin(int(predicate_words(Negation(group(gender="female")), bitmaps, 3, 0)))
    '0b10'
    """
    if isinstance(predicate, Group):
        conditions = iter(predicate.conditions)
        words = bitmaps[next(conditions)][at]
        for condition in conditions:
            words = words & bitmaps[condition][at]
        return words
    if isinstance(predicate, SuperGroup):
        members = iter(predicate.members)
        words = predicate_words(next(members), bitmaps, n_objects, at)
        for member in members:
            words = words | predicate_words(member, bitmaps, n_objects, at)
        return words
    if isinstance(predicate, Negation):
        inner = predicate_words(predicate.inner, bitmaps, n_objects, at)
        return ~inner & valid_words(n_objects, at)
    raise InvalidParameterError(f"unsupported predicate type: {type(predicate)!r}")


def rank_directory(words: NDArray[np.uint64]) -> NDArray[Any]:
    """``directory[w]`` = set bits in ``words[:w]``, one ``int32`` per
    word (``int64`` past 2³¹ objects): with one masked popcount of word
    ``i // 64`` it gives the members among objects ``[0, i)``
    (:func:`rank`).

    >>> import numpy as np
    >>> rank_directory(np.array([3, 0, 1], dtype=np.uint64)).tolist()
    [0, 2, 2]
    """
    dtype = np.int32 if 64 * len(words) < 2**31 else np.int64
    directory = np.zeros(len(words), dtype=dtype)
    np.cumsum(np.bitwise_count(words[:-1]), out=directory[1:], dtype=dtype)
    directory.setflags(write=False)
    return directory


def rank(directory: NDArray[Any], words: Any, ends: Any) -> Any:
    """Members among objects ``[0, end)`` for each of ``ends`` (an array
    or one ``int``), given ``words`` = the predicate's bitmap words at
    ``ends // 64``.

    >>> import numpy as np
    >>> words = np.array([0b1011, 0], dtype=np.uint64)
    >>> int(rank(rank_directory(words), words[0], 2)), int(rank(rank_directory(words), words[0], 4))
    (2, 3)
    """
    masked = words & LOW[ends & 63]
    if isinstance(ends, np.ndarray):
        return directory[ends >> 6] + np.bitwise_count(masked)
    # One end: Python's popcount, with no ufunc call and no array.
    return int(directory[ends >> 6]) + int(masked).bit_count()
