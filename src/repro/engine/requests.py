"""The unit of work the engine schedules: one pending set query.

A request is keyed by *(predicate, exact index content)* so that two runs
asking the same question about the same objects — whatever view slice the
indices came from — collide in the answer cache and in the in-flight
dedup table.

Index identity is carried by :class:`IndexKey`, which comes in two
shapes. A **contiguous ascending run** (``start, start+1, ..., stop-1``
— the only shape tree nodes over ``arange`` views ever produce) is keyed
by its endpoints: O(1) to build and to hash, no byte-string
materialized. Any other index array falls back to its raw little-endian
int64 bytes with the hash computed exactly once; keys are **interned**
per process, so every later lookup of the same content compares by
object identity instead of re-hashing megabyte byte-strings.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.groups import GroupPredicate

__all__ = ["IndexKey", "QueryKey", "SetRequest", "set_query_key"]


def _as_run(indices: np.ndarray) -> tuple[int, int] | None:
    """``(start, stop)`` if ``indices`` is a contiguous ascending run
    (``start, start+1, ..., stop-1``), else ``None`` — the one place a
    query's shape is detected (:meth:`IndexKey.of`).

    The O(n) check is far cheaper than the O(n) gather it replaces with
    an O(1) prefix lookup, and run-shaped queries dominate: every tree
    node over an ``arange`` view slices out exactly such a run.

    Examples
    --------
    >>> import numpy as np
    >>> _as_run(np.arange(5, 12)), _as_run(np.array([1, 3])), _as_run(np.array([]))
    ((5, 12), None, None)
    """
    length = len(indices)
    if length == 0:
        return None
    start = int(indices[0])
    stop = int(indices[-1]) + 1
    if stop - start != length:
        return None
    if length > 1 and not bool((np.diff(indices) == 1).all()):
        return None
    return (start, stop)


class IndexKey:
    """Interned, hash-cached identity of a set query's index array.

    Use :meth:`IndexKey.of` — the constructor is an implementation
    detail. Equal index content always yields the *same object*, so dict
    probes against previously seen keys short-circuit on identity.
    """

    __slots__ = ("start", "stop", "payload", "_hash")

    #: Intern table: one canonical IndexKey per distinct index content.
    #: Run keys are tiny; payload keys hold the bytes they deduplicate.
    _interned: "dict[tuple[int, int] | bytes, IndexKey]" = {}

    #: Interning is a cache, not a registry: equality and hashing are
    #: content-based, so the table may be dropped at any time without
    #: affecting correctness. Clearing it when it grows past this many
    #: entries keeps a long-lived service from retaining every distinct
    #: scattered index array (megabytes each at million-object scale)
    #: for the life of the process.
    _MAX_INTERNED = 1 << 16

    def __init__(
        self, start: int, stop: int, payload: bytes | None, hash_value: int
    ) -> None:
        self.start = start
        self.stop = stop
        self.payload = payload
        self._hash = hash_value

    @classmethod
    def of(cls, indices: np.ndarray) -> "IndexKey":
        """The canonical key of ``indices`` (int64 content equality)."""
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        run = _as_run(indices)
        if run is not None:
            return cls.of_run(*run)
        return cls.of_scattered(indices)

    @classmethod
    def of_run(cls, start: int, stop: int) -> "IndexKey":
        """The canonical key of the contiguous run ``[start, stop)``
        without materializing the index array (checkpoint resume uses
        this for million-object runs)."""
        if stop <= start:
            return cls.of_scattered(np.empty(0, dtype=np.int64))
        probe = (int(start), int(stop))
        key = cls._interned.get(probe)
        if key is None:
            key = cls(probe[0], probe[1], None, hash(probe))
            cls._intern(probe, key)
        return key

    @classmethod
    def of_scattered(cls, indices: np.ndarray) -> "IndexKey":
        """The canonical key of a contiguous int64 array the caller knows
        is *not* a contiguous ascending run (:meth:`of` without the run
        check). Passing a run would intern a second, non-canonical key
        for its content."""
        payload = indices.tobytes()  # hashed exactly once, on interning
        key = cls._interned.get(payload)
        if key is None:
            key = cls(-1, -1, payload, hash(payload))
            cls._intern(payload, key)
        return key

    @classmethod
    def _intern(cls, probe, key: "IndexKey") -> None:
        if len(cls._interned) >= cls._MAX_INTERNED:
            cls._interned.clear()
        cls._interned[probe] = key

    @property
    def is_run(self) -> bool:
        """True when this key denotes a contiguous ascending run."""
        return self.payload is None

    @property
    def n_objects(self) -> int:
        """How many indices the key denotes."""
        if self.payload is None:
            return self.stop - self.start
        return len(self.payload) // 8

    def to_array(self) -> np.ndarray:
        """Rebuild the index array the key was derived from."""
        if self.payload is None:
            return np.arange(self.start, self.stop, dtype=np.int64)
        return np.frombuffer(self.payload, dtype=np.int64)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IndexKey):
            return NotImplemented
        # Interning makes equal keys identical in-process, but keys can
        # also be rebuilt (checkpoint resume), so fall back to content.
        return (
            self.start == other.start
            and self.stop == other.stop
            and self.payload == other.payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        if self.payload is None:
            return f"IndexKey(run=[{self.start}, {self.stop}))"
        return f"IndexKey({self.n_objects} scattered indices)"


#: Cache/dedup key of a set query. Predicates are immutable, hashable
#: value objects (see :mod:`repro.data.groups`); the second component is
#: the interned :class:`IndexKey` of the index array.
QueryKey = Tuple[GroupPredicate, IndexKey]


def set_query_key(indices: np.ndarray, predicate: GroupPredicate) -> QueryKey:
    """The :data:`QueryKey` of a set query over ``indices``."""
    return (predicate, IndexKey.of(indices))


class SetRequest:
    """A ready set query emitted by a stepper, awaiting an answer.

    ``index_key`` lets emitters that already know their indices' shape
    (a stepper slicing a strictly ascending view knows from a node's two
    end values whether it is a run) skip the O(n) run detection; when
    omitted the key is derived from the array.
    """

    __slots__ = ("indices", "predicate", "key")

    def __init__(
        self,
        indices: np.ndarray,
        predicate: GroupPredicate,
        *,
        index_key: IndexKey | None = None,
    ) -> None:
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.predicate = predicate
        self.key: QueryKey = (
            predicate,
            index_key if index_key is not None else IndexKey.of(self.indices),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"SetRequest({len(self.indices)} objects, "
            f"{self.predicate.describe()!r})"
        )
