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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.data.groups import GroupPredicate
from repro.errors import InvalidParameterError

__all__ = ["PointQuery", "SetQuery", "HitRecord"]


@dataclass(frozen=True)
class PointQuery:
    """A request to label a single object with all attributes of interest."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidParameterError(f"negative object index: {self.index}")


@dataclass(frozen=True)
class SetQuery:
    """A yes/no question about a set of objects.

    "Does ``{t_i : i in indices}`` contain at least one object satisfying
    ``predicate``?"

    ``indices`` is stored as an immutable tuple; callers typically pass a
    contiguous range of a dataset view, but any index set is allowed.
    """

    indices: tuple[int, ...]
    predicate: GroupPredicate

    def __init__(self, indices: Sequence[int] | np.ndarray, predicate: GroupPredicate) -> None:
        index_array = np.asarray(indices, dtype=np.int64)
        if not index_array.size:
            raise InvalidParameterError("a SetQuery needs at least one object")
        if (index_array < 0).any():
            raise InvalidParameterError("negative object index in SetQuery")
        object.__setattr__(self, "indices", tuple(index_array.tolist()))
        object.__setattr__(self, "predicate", predicate)

    def __len__(self) -> int:
        return len(self.indices)

    def describe(self) -> str:
        """HIT instructions shown to the (simulated) worker."""
        return (
            f"Is there at least one image matching [{self.predicate.describe()}] "
            f"among these {len(self.indices)} images?"
        )


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
