"""Oracles: the only channel between algorithms and labels.

Every coverage algorithm in :mod:`repro.core` is written against the
:class:`Oracle` interface — *ask a set question, ask a point question,
pay a task* — and is therefore agnostic to where answers come from, exactly
as the paper requires ("the proposed techniques are agnostic to the choice
of the crowdsourcing framework, quality control, and HIT aggregation
model").

Three implementations:

* :class:`GroundTruthOracle` — noise-free answers straight from the hidden
  labels. This is the paper's §6.5 simulation setting and the correctness
  reference in tests.
* :class:`CrowdOracle` — routes every query through a
  :class:`~repro.crowd.platform.CrowdPlatform` (redundant noisy workers +
  aggregation). This is the Table 1 reproduction setting.
* :class:`FlakyOracle` — a lightweight noisy oracle that flips answers
  i.i.d. without simulating individual workers; useful for stress tests.

All oracles share a :class:`TaskLedger` that counts queries and enforces an
optional task budget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.crowd.platform import CrowdPlatform
from repro.crowd.queries import PointQuery, SetQuery
from repro.data.dataset import LabeledDataset
from repro.data.groups import GroupPredicate
from repro.data.kernels import predicate_mask
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
from repro.engine.requests import IndexKey, QueryKey
from repro.errors import BudgetExceededError, InvalidParameterError

__all__ = ["TaskLedger", "Oracle", "GroundTruthOracle", "CrowdOracle", "FlakyOracle"]


@dataclass
class TaskLedger:
    """Counts crowd tasks and enforces an optional budget.

    The paper's cost model is fixed-price, so *number of tasks* is the
    cost; algorithms snapshot the ledger before/after a run to report the
    tasks they consumed.

    ``n_rounds`` additionally counts *oracle round-trips*: one per
    single-query ask, and one per batch regardless of batch size. Tasks
    are the dollar cost; rounds are the latency cost a real platform pays
    per published batch of HITs.
    """

    n_set_queries: int = 0
    n_point_queries: int = 0
    budget: int | None = None
    n_rounds: int = 0

    @property
    def total(self) -> int:
        return self.n_set_queries + self.n_point_queries

    @property
    def remaining(self) -> int | None:
        """Tasks the budget still allows (``None`` without a budget)."""
        return None if self.budget is None else max(self.budget - self.total, 0)

    def note_round(self, n: int = 1) -> None:
        """Record ``n`` oracle round-trips (rounds are free; tasks cost)."""
        self.n_rounds += n

    def charge_set(self) -> None:
        self._check_budget()
        self.n_set_queries += 1

    def charge_point(self) -> None:
        self._check_budget()
        self.n_point_queries += 1

    def charge_set_batch(self, n: int) -> None:
        """Charge ``n`` set tasks atomically: either the whole batch fits
        in the remaining budget or nothing is charged — the ledger never
        bills queries whose answers were not produced."""
        self._check_batch_budget(n)
        self.n_set_queries += n

    def charge_point_batch(self, n: int) -> None:
        """Atomic batch variant of :meth:`charge_point`."""
        self._check_batch_budget(n)
        self.n_point_queries += n

    def _check_batch_budget(self, n: int) -> None:
        if self.budget is not None and self.total + n > self.budget:
            raise BudgetExceededError(
                f"task budget of {self.budget} cannot absorb a batch of {n} "
                f"({self.n_set_queries} set + {self.n_point_queries} point "
                f"queries already charged)"
            )

    def _check_budget(self) -> None:
        if self.budget is not None and self.total >= self.budget:
            raise BudgetExceededError(
                f"task budget of {self.budget} exhausted "
                f"({self.n_set_queries} set + {self.n_point_queries} point queries)"
            )


class Oracle(ABC):
    """Answer source for coverage algorithms.

    Subclasses implement :meth:`_answer_set` / :meth:`_answer_point`; the
    base class owns task accounting so implementations cannot forget to
    charge, and keys every set query once so hooks always receive its
    :class:`~repro.engine.requests.IndexKey`.
    """

    def __init__(self, schema, *, budget: int | None = None) -> None:
        if budget is not None and budget <= 0:
            raise InvalidParameterError(
                f"task budget must be positive, got {budget}; an oracle "
                "with no budget ceiling is budget=None"
            )
        self.schema = schema
        self.ledger = TaskLedger(budget=budget)

    # -- public API ------------------------------------------------------
    def ask_set(
        self,
        indices: Sequence[int] | np.ndarray,
        predicate: GroupPredicate,
        *,
        key: QueryKey | None = None,
    ) -> bool:
        """One set query: does ``indices`` contain >=1 object matching
        ``predicate``? Charges one set task and one round-trip.

        ``key`` is an optional precomputed
        :data:`~repro.engine.requests.QueryKey` for the same query (the
        engine and steppers already hold one); without it the index key
        is derived here, once, by
        :meth:`~repro.engine.requests.IndexKey.of`. Answers are
        identical either way.
        """
        self.ledger.charge_set()  # budget check first: a refused query is no round
        self.ledger.note_round()
        indices = np.asarray(indices, dtype=np.int64)
        return self._answer_set(
            indices, predicate, IndexKey.of(indices) if key is None else key[1]
        )

    def ask_point(self, index: int) -> dict[str, str]:
        """One point query: the attribute values of object ``index``.
        Charges one point task and one round-trip."""
        self.ledger.charge_point()
        self.ledger.note_round()
        return self._answer_point(int(index))

    def ask_set_batch(
        self,
        queries: Sequence[tuple[Sequence[int] | np.ndarray, GroupPredicate]],
        *,
        keys: Sequence[QueryKey] | None = None,
    ) -> list[bool]:
        """Answer many set queries in one oracle round-trip.

        Each query is still charged one set task (the fixed-price cost
        model is unchanged); the batch costs a single round-trip, which is
        what :mod:`repro.engine` minimises. Budget enforcement is atomic
        per batch: a batch the remaining budget cannot absorb raises
        ``BudgetExceededError`` before anything is charged or answered,
        so the ledger never pays for answers the caller did not receive.
        ``keys`` — a parallel sequence of precomputed
        :data:`~repro.engine.requests.QueryKey` — is the batched form of
        :meth:`ask_set`'s ``key``.
        """
        if not queries:
            return []
        prepared = [
            (np.asarray(indices, dtype=np.int64), predicate)
            for indices, predicate in queries
        ]
        self.ledger.charge_set_batch(len(prepared))
        self.ledger.note_round()
        if keys is None:
            index_keys = [IndexKey.of(indices) for indices, _ in prepared]
        else:
            index_keys = [key[1] for key in keys]
        return [
            bool(answer) for answer in self._answer_set_batch(prepared, index_keys)
        ]

    def ask_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        """Answer many point queries in one oracle round-trip.

        Per-query task charging with atomic budget enforcement, single
        round-trip — the point-query analogue of :meth:`ask_set_batch`
        (used to batch the sampling phase of Multiple-Coverage).
        """
        if len(indices) == 0:
            return []
        prepared = [int(index) for index in indices]
        self.ledger.charge_point_batch(len(prepared))
        self.ledger.note_round()
        return self._answer_point_batch(prepared)

    def scan_points(
        self,
        indices: Sequence[int] | np.ndarray,
        predicate: GroupPredicate,
        tau: int | None,
    ) -> np.ndarray:
        """Point-query ``indices`` in order, stopping after the
        ``tau``-th member of ``predicate`` (``tau=None``: never), at the
        end of ``indices``, or when the task budget is spent.

        Returns the ``(k, d)`` ``int16`` code rows of the prefix
        ``indices[:k]`` it asked, each charged one point task and one
        round-trip exactly as :meth:`ask_point` charges it. It never
        raises for budget: a prefix that ends before the ``tau``-th
        member and before the end of ``indices`` means the budget ran
        out. This default asks :meth:`ask_point` once per object, so
        every answer hook, rng stream and per-point cost is the
        per-point loop's.

        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.synthetic import binary_dataset
        >>> oracle = GroundTruthOracle(binary_dataset(9, 3, placement="front"))
        >>> oracle.scan_points(np.arange(9), group(gender="female"), 2).ravel()
        array([1, 1], dtype=int16)
        >>> oracle.ledger.n_point_queries, oracle.ledger.n_rounds
        (2, 2)
        """
        indices = scan_indices(indices, tau)
        rows: list[list[int]] = []
        members = 0
        for index in indices.tolist():
            if self.ledger.remaining == 0:
                break
            labels = self.ask_point(index)
            rows.append(self.schema.encode_row(labels))
            if tau is not None and predicate.matches_row(labels):
                members += 1
                if members == tau:
                    break
        return np.array(rows, dtype=np.int16).reshape(len(rows), self.schema.n_attributes)

    def scan_sets(
        self,
        view: Sequence[int] | np.ndarray,
        starts: Sequence[int] | np.ndarray,
        stops: Sequence[int] | np.ndarray,
        predicate: GroupPredicate,
        need: int | None,
        *,
        paired: bool = False,
    ) -> np.ndarray:
        """Set-query the view segments ``view[starts[i]:stops[i]]`` in
        order — one generation of Algorithm 1's FIFO — stopping after the
        ``need``-th credited "yes" (``need=None``: never), at the end of
        the segments, or at the first query the task budget refuses.

        Unpaired, every "yes" is credited. In a ``paired`` generation
        segments ``2j`` and ``2j + 1`` are the left and right halves of
        a range that held a member: the right half is asked only after
        the left answered "yes" (a left "no" implies the right "yes" for
        free), and only a right "yes" after a left "yes" is credited.
        ``view`` holds distinct dataset indices, as a stepper's does.

        Returns one answer per segment of the prefix the scan reached,
        an implied right "yes" included (:func:`scan_asked` tells which
        were asked). Each asked query is charged one set task and one
        round-trip exactly as :meth:`ask_set` charges it, and the scan
        never raises for budget: a prefix that ends before the
        ``need``-th credited "yes" and before the last segment means the
        budget ran out. This default asks :meth:`ask_set` once per
        asked segment, keyed by the segment's exact
        :class:`~repro.engine.requests.IndexKey`, so every answer hook,
        rng stream and per-query cost is the per-query loop's.

        >>> import numpy as np
        >>> from repro.data.groups import group
        >>> from repro.data.synthetic import binary_dataset
        >>> oracle = GroundTruthOracle(binary_dataset(8, 1, placement="front"))
        >>> oracle.scan_sets(np.arange(8), [0, 2, 4, 6], [2, 4, 6, 8],
        ...                  group(gender="female"), None, paired=True).tolist()
        [True, False, False, True]
        >>> oracle.ledger.n_set_queries, oracle.ledger.n_rounds
        (3, 3)
        """
        view, starts, stops = scan_segments(view, starts, stops, need, paired)
        answers: list[bool] = []
        credited = 0
        for position, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
            right = paired and position % 2 == 1
            if right and not answers[-1]:
                answers.append(True)  # implied by the left half's "no"
                continue
            segment = view[start:stop]
            try:
                answer = self.ask_set(segment, predicate, key=(predicate, IndexKey.of(segment)))
            except BudgetExceededError:
                break
            answers.append(answer)
            if answer and (right or not paired):
                credited += 1
                if credited == need:
                    break
        return np.array(answers, dtype=bool)

    def ask_point_membership(self, index: int, predicate: GroupPredicate) -> bool:
        """Point query phrased as membership ("is this image a female?").

        Same cost as :meth:`ask_point`; the answer is derived from the
        labels the worker provides.
        """
        return predicate.matches_row(self.ask_point(index))

    # -- implementation hooks --------------------------------------------
    @abstractmethod
    def _answer_set(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key: IndexKey
    ) -> bool:
        """Answer one set query; ``index_key`` is the interned key of
        ``indices``, so implementations never re-detect its shape."""

    @abstractmethod
    def _answer_point(self, index: int) -> dict[str, str]: ...

    def _answer_set_batch(
        self,
        queries: Sequence[tuple[np.ndarray, GroupPredicate]],
        index_keys: Sequence[IndexKey],
    ) -> list[bool]:
        """Default batch path: answer one by one. Subclasses with a
        vectorizable backend override this."""
        return [
            self._answer_set(indices, predicate, index_key)
            for (indices, predicate), index_key in zip(queries, index_keys)
        ]

    def _answer_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        return [self._answer_point(index) for index in indices]


def scan_indices(indices, tau: int | None) -> np.ndarray:
    """A scan's ``indices`` as a flat ``int64`` array, once its ``tau``
    is checked to be ``None`` or positive."""
    if tau is not None and tau < 1:
        raise InvalidParameterError(
            f"a scan stops after its tau-th member; tau must be >= 1 or None, got {tau}"
        )
    return np.asarray(indices, dtype=np.int64).reshape(-1)


def scan_segments(
    view, starts, stops, need: int | None, paired: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A set scan's ``view``, ``starts`` and ``stops`` as flat ``int64``
    arrays, once checked: ``need`` is ``None`` or positive, every
    segment is non-empty and inside ``view``, and a ``paired`` scan has
    whole pairs."""
    if need is not None and need < 1:
        raise InvalidParameterError(
            f"a set scan stops after its need-th credited yes; need must be >= 1 "
            f"or None, got {need}"
        )
    # A flat int64 view comes back as the same object: callers may key on it.
    view, starts, stops = (
        array if array.ndim == 1 else array.reshape(-1)
        for array in (np.asarray(values, dtype=np.int64) for values in (view, starts, stops))
    )
    if len(starts) != len(stops) or (paired and len(starts) % 2):
        raise InvalidParameterError(
            f"a set scan needs one stop per start and, when paired, whole pairs; "
            f"got {len(starts)} starts and {len(stops)} stops"
        )
    if len(starts) and ((starts < 0) | (stops <= starts) | (stops > len(view))).any():
        raise InvalidParameterError(
            f"set scan segments must be non-empty ranges of the {len(view)}-entry view"
        )
    return view, starts, stops


def scan_asked(answers: np.ndarray, paired: bool) -> np.ndarray:
    """Which of a set scan's ``answers`` were asked: all of them, except
    in a ``paired`` scan each right half whose left half said "no"."""
    asked = np.ones(len(answers), dtype=bool)
    if paired:
        asked[1::2] = answers[0::2][: len(answers) // 2]
    return asked


def cut_scan(
    truths: np.ndarray, paired: bool, need: int | None, budget: int | None
) -> np.ndarray:
    """The answers a set scan reaches when ``truths`` are its segments'
    answers: implied right halves read "yes", and the prefix ends after
    the ``need``-th credited "yes" or before the query past ``budget``
    asked ones, whichever comes first."""
    answers = truths.copy()
    credited = truths.copy()
    if paired:
        answers[1::2] |= ~truths[0::2]
        credited[0::2] = False
        credited[1::2] &= truths[0::2]
    end = len(answers)
    if need is not None:
        hits = np.flatnonzero(credited)
        if len(hits) >= need:
            end = int(hits[need - 1]) + 1
    if budget is not None:
        asked = np.flatnonzero(scan_asked(answers, paired))
        if len(asked) > budget:
            end = min(end, int(asked[budget]))
    return answers[:end]


def cut_after_member(
    schema: Schema, codes: np.ndarray, predicate: GroupPredicate, need: int | None
) -> tuple[np.ndarray, int]:
    """``codes`` cut after their ``need``-th member of ``predicate``
    (whole when they hold fewer, or when ``need`` is ``None``), and the
    number of members the kept rows hold (0 when ``need`` is ``None``)."""
    if need is None:
        return codes, 0
    hits = np.flatnonzero(predicate_mask(schema, codes, predicate))
    if len(hits) >= need:
        return codes[: hits[need - 1] + 1], need
    return codes, len(hits)


class GroundTruthOracle(Oracle):
    """Noise-free oracle answering from the dataset's hidden labels.

    All answering is vectorized through the dataset's shared
    :class:`~repro.data.sharded.ShardedMembershipIndex`: contiguous-run
    set queries resolve in O(1) from prefix-count tables, scattered ones
    through one gather per batch, and point-query batches through one
    fancy-index per attribute. Many oracles over one dataset share that
    index, so none recomputes a membership column; ``index=`` must be
    that same index (or one over the same shards). ``dataset`` may be
    in RAM or a sharded out-of-core
    :class:`~repro.data.sharded.ShardedDataset` — answers are
    bit-identical, without the latter ever fully materializing.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.groups import group
    >>> from repro.data.synthetic import binary_dataset
    >>> oracle = GroundTruthOracle(
    ...     binary_dataset(1_000, 30, rng=np.random.default_rng(0)))
    >>> oracle.ask_set(np.arange(0, 1_000), group(gender="female"))
    True
    >>> oracle.ledger.total
    1
    """

    def __init__(
        self,
        dataset: "LabeledDataset | ShardedDataset",
        *,
        budget: int | None = None,
        index: ShardedMembershipIndex | None = None,
    ) -> None:
        super().__init__(dataset.schema, budget=budget)
        self.dataset = dataset
        shared = ShardedMembershipIndex.for_dataset(dataset)
        # An in-RAM dataset is indexed through a one-shard wrapper, so
        # compare against the shards the shared index answers over.
        if index is not None and index.dataset is not shared.dataset:
            raise InvalidParameterError(
                "membership index was built over a different dataset"
            )
        self.membership_index = index if index is not None else shared
        # Subclasses (tracing/recording test doubles, decorators) that
        # override only the per-query hooks must keep seeing every batched
        # query; the vectorized batch paths run only while those hooks
        # are still this class's own.
        self._native_set_hook = type(self)._answer_set is GroundTruthOracle._answer_set
        self._native_point_hook = (
            type(self)._answer_point is GroundTruthOracle._answer_point
        )

    def _answer_set(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key: IndexKey
    ) -> bool:
        return self.membership_index.any_match(predicate, index_key)

    def _answer_set_batch(
        self,
        queries: Sequence[tuple[np.ndarray, GroupPredicate]],
        index_keys: Sequence[IndexKey],
    ) -> list[bool]:
        if not self._native_set_hook:
            # Only the per-query hook was customized: batches must still
            # flow through it, one query at a time.
            return super()._answer_set_batch(queries, index_keys)
        return self.membership_index.any_match_batch(
            [(key, predicate) for key, (_, predicate) in zip(index_keys, queries)]
        )

    def _answer_point(self, index: int) -> dict[str, str]:
        return self.dataset.value_row(index)

    def _answer_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        if not self._native_point_hook:
            # A subclass customized per-point answering; every batched
            # point query must keep flowing through its hook.
            return [self._answer_point(index) for index in indices]
        return self.membership_index.value_rows(indices)

    #: rows a native scan gathers first; every later slice doubles, so an
    #: early stop gathers at most about twice the prefix it charges
    SCAN_SLICE = 4096

    def scan_points(
        self,
        indices: Sequence[int] | np.ndarray,
        predicate: GroupPredicate,
        tau: int | None,
    ) -> np.ndarray:
        """:meth:`Oracle.scan_points` as gathers of code rows: each
        slice is one :meth:`~repro.data.sharded.ShardedMembershipIndex.value_codes`
        gather, one predicate mask and one ``flatnonzero``. The charged
        prefix, and its ``k`` point tasks and ``k`` round-trips, are
        exactly what the per-point loop would charge."""
        if not self._native_point_hook:
            return super().scan_points(indices, predicate, tau)
        indices = scan_indices(indices, tau)
        remaining = self.ledger.remaining
        limit = len(indices) if remaining is None else min(len(indices), remaining)
        slices: list[np.ndarray] = []
        asked, members, size = 0, 0, self.SCAN_SLICE
        while asked < limit and (tau is None or members < tau):
            codes = self.membership_index.value_codes(indices[asked : min(asked + size, limit)])
            codes, found = cut_after_member(
                self.schema, codes, predicate, None if tau is None else tau - members
            )
            slices.append(codes)
            asked, members, size = asked + len(codes), members + found, 2 * size
        self.ledger.charge_point_batch(asked)
        self.ledger.note_round(asked)
        if not slices:
            return np.empty((0, self.schema.n_attributes), dtype=np.int16)
        return np.concatenate(slices)

    def scan_sets(
        self,
        view: Sequence[int] | np.ndarray,
        starts: Sequence[int] | np.ndarray,
        stops: Sequence[int] | np.ndarray,
        predicate: GroupPredicate,
        need: int | None,
        *,
        paired: bool = False,
    ) -> np.ndarray:
        """:meth:`Oracle.scan_sets` as one truth pass over the whole
        generation: segments of a strictly ascending view that are runs
        answer through
        :meth:`~repro.data.sharded.ShardedMembershipIndex.any_match_runs`,
        the rest through one
        :meth:`~repro.data.sharded.ShardedMembershipIndex.member_mask`
        gather and a segmented ``any``. The answers, and the tasks and
        round-trips charged for them, are exactly what the per-query
        loop would produce."""
        if not self._native_set_hook:
            return super().scan_sets(view, starts, stops, predicate, need, paired=paired)
        view, starts, stops = scan_segments(view, starts, stops, need, paired)
        truths = np.zeros(len(starts), dtype=bool)
        if len(starts):
            low, high = view[starts], view[stops - 1]
            runs = high - low == stops - starts - 1
            if len(view) > 1 and not (view[1:] > view[:-1]).all():
                runs[:] = False  # first and last bound only an ascending segment
            index = self.membership_index
            if runs.any():
                truths[runs] = index.any_match_runs(predicate, low[runs], high[runs] + 1)
            gathered = np.flatnonzero(~runs)
            if len(gathered):
                lengths = stops[gathered] - starts[gathered]
                offsets = np.cumsum(lengths) - lengths
                positions = np.arange(int(lengths.sum())) + np.repeat(
                    starts[gathered] - offsets, lengths
                )
                hits = index.member_mask(predicate, view[positions])
                truths[gathered] = np.logical_or.reduceat(hits, offsets)
        answers = cut_scan(truths, paired, need, self.ledger.remaining)
        asked = int(np.count_nonzero(scan_asked(answers, paired)))
        self.ledger.charge_set_batch(asked)
        self.ledger.note_round(asked)
        return answers


class CrowdOracle(Oracle):
    """Oracle backed by the full platform simulator (noisy workers,
    redundancy, aggregation, dollars)."""

    def __init__(self, platform: CrowdPlatform, *, budget: int | None = None) -> None:
        super().__init__(platform.dataset.schema, budget=budget)
        self.platform = platform
        #: the platform's hidden-truth index — exposed so sessions and
        #: diagnostics reach one shared index whatever the oracle kind.
        self.membership_index = platform.membership_index

    def _answer_set(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key: IndexKey
    ) -> bool:
        return self.platform.publish_set_query(SetQuery(indices, predicate))

    def _answer_point(self, index: int) -> dict[str, str]:
        return self.platform.publish_point_query(PointQuery(index))

    def drain_set_votes(self) -> list[tuple[tuple[int, bool], ...]]:
        """Return-and-clear the platform's buffered per-HIT
        ``(worker_id, answer)`` set votes — how backends surface worker
        identities alongside answers (``record_votes=True``)."""
        return self.platform.drain_set_votes()


class FlakyOracle(Oracle):
    """Ground truth with i.i.d. answer flips — a cheap noise model.

    Set answers flip with probability ``set_error_rate``; point labels are
    replaced attribute-wise with a uniformly wrong value with probability
    ``point_error_rate``. No redundancy and no aggregation: this models a
    *single* unreliable worker and is primarily for robustness testing.
    """

    def __init__(
        self,
        dataset: "LabeledDataset | ShardedDataset",
        rng: np.random.Generator,
        *,
        set_error_rate: float = 0.0,
        point_error_rate: float = 0.0,
        budget: int | None = None,
    ) -> None:
        if not 0.0 <= set_error_rate <= 1.0 or not 0.0 <= point_error_rate <= 1.0:
            raise InvalidParameterError("error rates must be in [0, 1]")
        super().__init__(dataset.schema, budget=budget)
        self.dataset = dataset
        self.membership_index = ShardedMembershipIndex.for_dataset(dataset)
        self.rng = rng
        self.set_error_rate = set_error_rate
        self.point_error_rate = point_error_rate
        self._native_set_hook = type(self)._answer_set is FlakyOracle._answer_set
        self._native_point_hook = (
            type(self)._answer_point is FlakyOracle._answer_point
        )

    def _answer_set(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key: IndexKey
    ) -> bool:
        truth = self.membership_index.any_match(predicate, index_key)
        if self.rng.random() < self.set_error_rate:
            return not truth
        return truth

    def _answer_set_batch(
        self,
        queries: Sequence[tuple[np.ndarray, GroupPredicate]],
        index_keys: Sequence[IndexKey],
    ) -> list[bool]:
        if not self._native_set_hook:
            # One scalar flip draw per query — the same stream the
            # vectorized draw below consumes, so the fallback stays
            # bit-identical too.
            return super()._answer_set_batch(queries, index_keys)
        # Truths come from the vectorized index; the flip draws stay one
        # vector of length len(queries), which consumes the generator's
        # stream exactly like len(queries) scalar draws — sequential and
        # batched execution remain bit-identical under one seed.
        truths = self.membership_index.any_match_batch(
            [(key, predicate) for key, (_, predicate) in zip(index_keys, queries)]
        )
        flips = self.rng.random(len(queries)) < self.set_error_rate
        return [truth != bool(flip) for truth, flip in zip(truths, flips)]

    def _answer_point(self, index: int) -> dict[str, str]:
        return self._flip_point(self.dataset.value_row(index))

    def _answer_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        if not self._native_point_hook:
            return [self._answer_point(index) for index in indices]
        # Truth rows are fetched in one vectorized gather; the flips stay
        # a per-row loop because each flip conditionally consumes rng
        # draws — vectorizing them would shift the stream and break
        # bit-identity with sequential execution.
        truths = self.membership_index.value_rows(indices)
        return [self._flip_point(truth) for truth in truths]

    def _flip_point(self, truth: Mapping[str, str]) -> dict[str, str]:
        answer: dict[str, str] = {}
        for attribute in self.schema:
            true_value = truth[attribute.name]
            if self.rng.random() < self.point_error_rate:
                wrong = [v for v in attribute.values if v != true_value]
                answer[attribute.name] = wrong[self.rng.integers(len(wrong))]
            else:
                answer[attribute.name] = true_value
        return answer
