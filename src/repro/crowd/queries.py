"""Query (HIT) types of the crowdsourcing model (§2.3).

Two query types, exactly as the paper defines them:

* :class:`PointQuery` — "provide the attribute values of this one image"
  (Figure 1 in the paper).
* :class:`SetQuery` — "does this *set* of images contain at least one
  object satisfying the predicate?" (Figure 2). The predicate may be a
  group, a super-group (OR), or a negation (Classifier-Coverage's reverse
  question).

A published query together with the individual worker answers and the
aggregated truth is recorded as a :class:`HitRecord`, the platform's audit
trail (used to compute the raw worker error rates that §6.3.1 reports).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError

__all__ = ["PointQuery", "SetQuery", "HitRecord"]


@dataclass(frozen=True)
class PointQuery:
    """A request to label a single object with all attributes of interest."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidParameterError(f"negative object index: {self.index}")


class SetQuery:
    """A yes/no question about a set of objects.

    "Does ``{t_i : i in indices}`` contain at least one object satisfying
    ``predicate``?"

    ``indices`` is an immutable tuple of Python ints; callers typically
    pass a contiguous range of a dataset view, but any index set is
    allowed. :meth:`of_key` builds a query from the interned
    :class:`~repro.engine.requests.IndexKey` an oracle batch already
    holds, and builds ``indices`` only when something reads it. Either
    way a query is frozen, and compares and hashes by ``(indices,
    predicate)``.
    """

    __slots__ = ("predicate", "_indices", "_key")

    predicate: GroupPredicate

    def __init__(self, indices: Sequence[int] | np.ndarray, predicate: GroupPredicate) -> None:
        index_array = np.asarray(indices, dtype=np.int64)
        _check(index_array.size, bool((index_array < 0).any()))
        object.__setattr__(self, "_indices", tuple(index_array.tolist()))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "predicate", predicate)

    @classmethod
    def of_key(cls, key: IndexKey, predicate: GroupPredicate) -> "SetQuery":
        """The query over the indices ``key`` denotes, checked as the
        constructor checks them; ``indices`` is built on first read.

        >>> from repro.data.groups import group
        >>> query = SetQuery.of_key(IndexKey.of_run(4, 7), group(gender="female"))
        >>> len(query), query.indices
        (3, (4, 5, 6))
        """
        start, stop, payload = key
        if payload is None:
            _check(stop - start, start < 0)
        else:
            _check(len(payload), bool(payload) and np.frombuffer(payload, np.int64).min() < 0)
        query = object.__new__(cls)
        object.__setattr__(query, "_indices", None)
        object.__setattr__(query, "_key", key)
        object.__setattr__(query, "predicate", predicate)
        return query

    @property
    def indices(self) -> tuple[int, ...]:
        """The queried object indices, in the order given."""
        indices = self._indices
        if indices is None:
            start, stop, payload = self._key
            if payload is None:
                indices = tuple(range(start, stop))
            else:
                indices = tuple(np.frombuffer(payload, dtype=np.int64).tolist())
            object.__setattr__(self, "_indices", indices)
        return indices

    @property
    def index_key(self) -> IndexKey:
        """The interned :class:`~repro.engine.requests.IndexKey` of
        :attr:`indices`."""
        key = self._key
        if key is None:
            key = IndexKey.of(np.array(self._indices, dtype=np.int64))
            object.__setattr__(self, "_key", key)
        return key

    def __len__(self) -> int:
        indices = self._indices
        return self._key.n_objects if indices is None else len(indices)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.indices, self.predicate) == (other.indices, other.predicate)

    def __hash__(self) -> int:
        return hash((self.indices, self.predicate))

    def __repr__(self) -> str:
        return f"SetQuery(indices={self.indices!r}, predicate={self.predicate!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self.indices, self.predicate))

    def describe(self) -> str:
        """HIT instructions shown to the (simulated) worker."""
        return (
            f"Is there at least one image matching [{self.predicate.describe()}] "
            f"among these {len(self)} images?"
        )


def _check(size: int, negative: bool) -> None:
    """Raise for an empty or negative index set, as :class:`SetQuery` does."""
    if size <= 0:
        raise InvalidParameterError("a SetQuery needs at least one object")
    if negative:
        raise InvalidParameterError("negative object index in SetQuery")


@dataclass(frozen=True)
class HitRecord:
    """Audit record of one published HIT.

    Attributes
    ----------
    query:
        The published :class:`PointQuery` or :class:`SetQuery`.
    worker_ids:
        Workers the HIT was assigned to.
    answers:
        Individual answers, aligned with ``worker_ids``. Booleans for set
        queries; ``{attribute: value}`` mappings for point queries.
    aggregated:
        The post-aggregation answer the algorithm received.
    truth:
        The ground-truth answer (known to the simulator only; used for
        error accounting, never shown to algorithms).
    """

    query: PointQuery | SetQuery
    worker_ids: tuple[int, ...]
    answers: tuple[bool | Mapping[str, str], ...]
    aggregated: bool | Mapping[str, str]
    truth: bool | Mapping[str, str]
    price: float = field(default=0.0)

    @property
    def n_incorrect_answers(self) -> int:
        """How many individual worker answers disagree with the truth."""
        return sum(1 for answer in self.answers if answer != self.truth)

    @property
    def aggregation_correct(self) -> bool:
        """Did aggregation recover the truth?"""
        return self.aggregated == self.truth
