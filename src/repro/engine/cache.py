"""Range-keyed answer cache shared across coverage runs.

Coverage algorithms re-ask overlapping questions constantly: repeated
audits over the same view, the covered-super-group penalty path of
Multiple-Coverage re-scanning the very ranges the super-group run just
pruned, sibling trees of two concurrent runs chunking the same view the
same way. The cache answers those for free.

Beyond literal replay, the cache knows one sound implication: a **"no"**
for a super-group over a range is a "no" for *every member* over that
same range (a super-group is a disjunction). Registering the implication
lets the penalty path of Multiple-Coverage skip whole chunks the
super-group run already ruled out.

Like the rest of the system, the cache treats crowd answers as truth
(the paper's model); under a noisy oracle it replays whatever answer the
crowd gave first.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.data.groups import GroupPredicate
from repro.engine.requests import QueryKey
from repro.errors import InvalidParameterError

__all__ = ["AnswerCache"]

#: Sentinel distinguishing "key absent" from any cached value in one
#: dict probe (values are plain bools, never identical to this object).
_MISS = object()


class AnswerCache:
    """Memoizes set-query answers by :data:`~repro.engine.requests.QueryKey`.

    Attributes
    ----------
    hits / misses:
        Lookup accounting. A hit is a lookup answered from the cache
        (including implied answers); a miss is a lookup that fell through
        to the oracle. Increments hold ``_stats_lock``: ``count += 1``
        is a read-modify-write, so two threads sharing a cache through
        a threaded backend would otherwise lose counts (RPL007).
    """

    def __init__(self) -> None:
        self._answers: dict[QueryKey, bool] = {}
        self._implications: dict[GroupPredicate, tuple[GroupPredicate, ...]] = {}
        self._source: object | None = None
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def bind(self, source: object) -> None:
        """Pin the cache to one answer source (a dataset, or the oracle
        itself when it exposes none).

        Keys carry only (predicate, indices), so answers from different
        datasets would silently collide; the first engine to use the
        cache binds it, and binding it to a *different* source raises.
        Sharing stays legal across engines/oracles over the same dataset.
        """
        if self._source is None:
            self._source = source
        elif self._source is not source:
            raise InvalidParameterError(
                "answer cache is already bound to a different answer source; "
                "sharing a cache across datasets would replay wrong answers"
            )

    def register_implication(
        self, parent: GroupPredicate, members: Iterable[GroupPredicate]
    ) -> None:
        """Declare that ``parent`` is the disjunction of ``members``.

        From then on, storing a negative answer for ``parent`` over a
        range also stores a negative answer for every member over that
        range (no member in the range can match if their union does not).
        """
        self._implications[parent] = tuple(members)

    def lookup(self, key: QueryKey) -> bool | None:
        """The cached answer for ``key``, or ``None`` (counted as a miss).

        One dict probe per lookup: stored values are always ``bool``, so
        a private sentinel distinguishes "absent" without a second
        ``in`` check — this is the hottest lookup in engine mode.
        """
        answer = self._answers.get(key, _MISS)
        if answer is _MISS:
            with self._stats_lock:
                self.misses += 1
            return None
        with self._stats_lock:
            self.hits += 1
        return answer

    def store(self, key: QueryKey, answer: bool) -> None:
        """Record an oracle answer, propagating negative implications."""
        answer = bool(answer)
        self._answers[key] = answer
        if not answer:
            predicate, index_key = key
            for member in self._implications.get(predicate, ()):
                self._answers.setdefault((member, index_key), False)

    def clear(self) -> None:
        """Drop all cached answers (implications stay registered)."""
        self._answers.clear()

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def __len__(self) -> int:
        return len(self._answers)

    def __contains__(self, key: object) -> bool:
        return key in self._answers
