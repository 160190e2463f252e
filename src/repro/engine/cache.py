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
from typing import Iterable, Sequence

from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey, QueryKey
from repro.errors import InvalidParameterError

__all__ = ["AnswerCache"]

class AnswerCache:
    """Memoizes set-query answers by :data:`~repro.engine.requests.QueryKey`,
    in one table per predicate: a batch about one predicate costs one
    probe per :class:`~repro.engine.requests.IndexKey`.

    Attributes
    ----------
    hits / misses:
        Lookup accounting. A hit is a lookup answered from the cache
        (including implied answers); a miss is a lookup that fell through
        to the oracle. Increments hold ``_stats_lock``, once per batch:
        ``count += k`` is a read-modify-write, so two threads sharing a
        cache through a threaded backend would otherwise lose counts
        (RPL007).
    """

    def __init__(self) -> None:
        self._answers: dict[GroupPredicate, dict[IndexKey, bool]] = {}
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
        """The cached answer for ``key``, or ``None`` (counted as a miss)."""
        return self.lookup_batch(key[0], [key[1]])[0]

    def lookup_batch(
        self, predicate: GroupPredicate, index_keys: Sequence[IndexKey]
    ) -> list[bool | None]:
        """The cached answers of ``predicate`` over each of
        ``index_keys`` (``None`` where absent), counted as hits and
        misses under one lock acquisition."""
        table = self._answers.get(predicate, {})
        answers = [table.get(index_key) for index_key in index_keys]
        hits = len(answers) - answers.count(None)
        with self._stats_lock:
            self.hits += hits
            self.misses += len(answers) - hits
        return answers

    def store(self, key: QueryKey, answer: bool) -> None:
        """Record an oracle answer, propagating negative implications."""
        self.store_batch(key[0], [key[1]], [answer])

    def store_batch(
        self,
        predicate: GroupPredicate,
        index_keys: Sequence[IndexKey],
        answers: Sequence[bool],
    ) -> None:
        """Record the oracle's answers for ``predicate`` over each of
        ``index_keys``, propagating negative implications."""
        self._answers.setdefault(predicate, {}).update(zip(index_keys, map(bool, answers)))
        members = self._implications.get(predicate, ())
        if members:
            negatives = [key for key, answer in zip(index_keys, answers) if not answer]
            for member in members:
                implied = self._answers.setdefault(member, {})
                for index_key in negatives:
                    implied.setdefault(index_key, False)

    def clear(self) -> None:
        """Drop all cached answers (implications stay registered)."""
        self._answers.clear()

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def __len__(self) -> int:
        return sum(map(len, self._answers.values()))

    def __contains__(self, key: QueryKey) -> bool:
        return key[1] in self._answers.get(key[0], ())
