"""Predicate kernels: the compute units of the membership index.

The membership index (:mod:`repro.data.sharded`) answers every set
query from packed bitmaps, and these kernels build and read them:

* **mask kernel** — :func:`predicate_mask`, the row-wise predicate
  evaluator (the dense :class:`~repro.data.dataset.LabeledDataset`
  routes its memoized masks through it, and it is the reference every
  bitmap kernel is tested against);
* **build kernels** — :func:`pack_columns` turns one chunk into the
  little-endian ``uint64`` bitmap words of many ``(attribute, value)``
  columns off one chunk touch, aligned to the chunk's global first row
  so shards of any size OR into one global bitmap;
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

from typing import Any, Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.data.groups import Group, GroupPredicate, Negation, SuperGroup
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

__all__ = [
    "predicate_mask",
    "predicate_conditions",
    "predicate_words",
    "pack_columns",
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

    The row-wise predicate evaluator:
    :class:`~repro.data.dataset.LabeledDataset` routes its memoized
    masks through it, and every bitmap kernel is tested against it.
    ``resolve`` optionally maps a *sub*-predicate to an existing mask
    (the dense dataset passes its memo cache); by default sub-predicates
    recurse through this function.

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
