"""The one set-answer store: what the engine caches and the recording
proxy bills.

Coverage algorithms re-ask overlapping questions constantly: repeated
audits over the same view, the covered-super-group penalty path of
Multiple-Coverage re-scanning the very ranges the super-group run just
pruned, sibling trees of two concurrent runs chunking the same view the
same way. An :class:`AnswerCache` answers those for free. It keeps one
table per predicate, ``IndexKey -> entry``, and each layer probes a
query's entry once: the :class:`~repro.engine.QueryEngine` to resolve
it against the round's answers, its in-flight waiters and the held
answers together; the :class:`~repro.audit.proxy.RecordingOracleProxy`
that owns the store to answer it free or pay for it and append it to
:attr:`AnswerCache.bill`, the bill-order record its answer log reads.

A held answer's entry is an ``int`` code: bit :data:`YES` is the answer,
:data:`ABSORBED` marks one an engine gathered (only those are cache
hits), :data:`LOGGED` one on the bill, and the bits from :data:`STAMP`
up the last pump that read it as a hit (a second read in that pump is
dedup). A query in flight on an engine is a ``list``: ``[code or None,
flow, position, flow, position, ...]``, the held code (``None`` until
paid) and the engine's waiters, the dispatcher first.

The store knows one sound implication: a **"no"** for a super-group over
a range is a "no" for *every member* over that range (a super-group is a
disjunction). A held "no" writes its members' implied "no"s when it is
held or when the implication is registered, whichever comes last, so a
resume may replay and register in either order. An implied entry never
overwrites a direct answer and is never logged (nobody paid for it); it
is a cache hit once an engine gathered the "no" behind it.

Like the rest of the system, the store treats crowd answers as truth
(the paper's model); under a noisy oracle it replays whatever answer the
crowd gave first.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Sequence

from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey, QueryKey

__all__ = ["AnswerCache"]

#: entry code bits (see the module docstring)
YES, ABSORBED, LOGGED, STAMP = 1, 2, 4, 8


class AnswerCache:
    """The set-answer store of one recording proxy, or of one engine
    over any other oracle.

    Attributes
    ----------
    tables:
        ``predicate -> {IndexKey: entry}`` (see the module docstring).
    bill:
        The :data:`~repro.engine.requests.QueryKey` of every logged
        answer (paid through the owning proxy, or loaded), in bill order.
    implications:
        ``super-group -> members``, from :meth:`register_implication`.
    hits / misses:
        Engine lookups answered by an answer some engine gathered, and
        lookups dispatched to the oracle. Increments hold
        ``_stats_lock``: ``count += k`` is a read-modify-write, so two
        threads sharing a store would otherwise lose counts (RPL007).
    """

    def __init__(self) -> None:
        self.tables: dict[GroupPredicate, dict[IndexKey, int | list]] = {}
        self.bill: list[QueryKey] = []
        self.implications: dict[GroupPredicate, tuple[GroupPredicate, ...]] = {}
        self._stats_lock = threading.Lock()
        #: bumped by every engine pump: the stamp its hits carry
        self.pumps = 0
        self.hits = 0
        self.misses = 0

    def register_implication(
        self, parent: GroupPredicate, members: Iterable[GroupPredicate]
    ) -> None:
        """Declare that ``parent`` is the disjunction of ``members``: every
        "no" held for ``parent`` over a range, now or later, implies "no"
        for every member over that range."""
        members = tuple(members)
        if self.implications.get(parent) == members:
            return
        self.implications[parent] = members
        negatives: dict[bool, list[IndexKey]] = {False: [], True: []}
        for key, code in list(self.tables.get(parent, {}).items()):
            if code.__class__ is int and not code & YES:
                negatives[bool(code & ABSORBED)].append(key)
        for absorbed, keys in negatives.items():
            self.imply(parent, keys, absorbed=absorbed)

    def table(self, predicate: GroupPredicate) -> dict[IndexKey, int | list]:
        """The table of ``predicate``, created empty on first use."""
        try:
            return self.tables[predicate]
        except KeyError:  # setdefault: a racing backend thread keeps one table
            return self.tables.setdefault(predicate, {})

    def imply(self, parent: GroupPredicate, keys: Iterable[IndexKey], *, absorbed: bool) -> None:
        """Write the implied member "no"s of ``parent``'s "no"s over
        ``keys``, cache hits if an engine ``absorbed`` those. A member's
        held answer stays (an unabsorbed "no" becomes a hit); one in
        flight is left to its own answer."""
        code = ABSORBED if absorbed else 0
        for member in self.implications.get(parent, ()):
            table = self.table(member)
            for key in keys:
                entry = table.get(key)
                if entry is None:
                    table[key] = code
                elif absorbed and entry.__class__ is int and not entry & (YES | ABSORBED):
                    table[key] = entry | ABSORBED

    def count(self, hits: int, misses: int) -> None:
        """Add one engine pump's lookups to :attr:`hits` and :attr:`misses`."""
        with self._stats_lock:
            self.hits += hits
            self.misses += misses

    def answer(
        self, queries: Sequence[QueryKey], ask: Callable[[list[QueryKey]], Sequence[bool]]
    ) -> list[bool]:
        """The answers of ``queries``: held and implied ones free, the rest
        from one ``ask(fresh)`` call and logged in bill order. A paid
        query in flight on an engine fills its entry (the engine writes
        the implied answers when it gathers it)."""
        answers: list[bool] = []
        fresh: list[int] = []
        entries: list[int | list | None] = []
        last = None
        for predicate, key in queries:
            if predicate is not last:
                table, last = self.table(predicate), predicate
            entry = table.get(key)
            code = entry[0] if entry.__class__ is list else entry
            if code is None:
                fresh.append(len(answers))
                entries.append(entry)
            answers.append(code is not None and code & YES == YES)
        if fresh:
            asked = list(queries) if len(fresh) == len(queries) else [queries[i] for i in fresh]
            for position, entry, answer in zip(fresh, entries, ask(asked)):
                answers[position] = answer
                if entry.__class__ is list:
                    entry[0] = YES | LOGGED if answer else LOGGED
                    self.bill.append(queries[position])
                else:  # not in flight: a sequential ask
                    self.record(*queries[position], answer)
        return answers

    def record(self, predicate: GroupPredicate, key: IndexKey, answer: bool) -> None:
        """Log an answer paid outside :meth:`answer` (a scan's) or loaded
        from a checkpoint. One already logged keeps its place and takes
        the new value, as a dict assignment does."""
        table = self.table(predicate)
        entry = table.get(key)
        code = entry[0] if entry.__class__ is list else entry
        if code is None or not code & LOGGED:
            self.bill.append((predicate, key))
        code = (YES | LOGGED if answer else LOGGED) | (code or 0) & ABSORBED
        if entry.__class__ is list:
            entry[0] = code
        else:
            table[key] = code
        if not answer:
            self.imply(predicate, [key], absorbed=False)

    def logged(self, since: int = 0) -> Iterator[tuple[QueryKey, bool]]:
        """``(key, answer)`` of the bill from position ``since`` on."""
        for key in self.bill[since:]:
            entry = self.tables[key[0]][key[1]]
            code = entry[0] if entry.__class__ is list else entry
            yield key, code & YES == YES

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def __len__(self) -> int:
        """Held answers, implied ones included."""
        return sum(map(self._held, (e for t in self.tables.values() for e in t.values())))

    def __contains__(self, key: QueryKey) -> bool:
        return self._held(self.tables.get(key[0], {}).get(key[1]))

    @staticmethod
    def _held(entry) -> bool:
        return entry is not None and (entry.__class__ is int or entry[0] is not None)
