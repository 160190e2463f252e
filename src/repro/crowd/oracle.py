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
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
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

    def note_round(self) -> None:
        """Record one oracle round-trip (rounds are free; tasks cost)."""
        self.n_rounds += 1

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
    charge.
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
        key=None,
    ) -> bool:
        """One set query: does ``indices`` contain >=1 object matching
        ``predicate``? Charges one set task and one round-trip.

        ``key`` is an optional precomputed
        :data:`~repro.engine.requests.QueryKey` for the same query — a
        pure performance hint that lets vectorized backends skip
        re-detecting the index array's shape. Answers are identical with
        or without it.
        """
        self.ledger.charge_set()  # budget check first: a refused query is no round
        self.ledger.note_round()
        return self._answer_set_keyed(
            np.asarray(indices, dtype=np.int64),
            predicate,
            key[1] if key is not None else None,
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
        keys: Sequence | None = None,
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
        :meth:`ask_set`'s performance hint.
        """
        if not queries:
            return []
        prepared = [
            (np.asarray(indices, dtype=np.int64), predicate)
            for indices, predicate in queries
        ]
        self.ledger.charge_set_batch(len(prepared))
        self.ledger.note_round()
        return [
            bool(answer)
            for answer in self._answer_set_batch_keyed(
                prepared, None if keys is None else [key[1] for key in keys]
            )
        ]

    def ask_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        """Answer many point queries in one oracle round-trip.

        Per-query task charging with atomic budget enforcement, single
        round-trip — the point-query analogue of :meth:`ask_set_batch`
        (used to batch the sampling phase of Multiple-Coverage).
        """
        if not indices:
            return []
        prepared = [int(index) for index in indices]
        self.ledger.charge_point_batch(len(prepared))
        self.ledger.note_round()
        return self._answer_point_batch(prepared)

    def ask_point_membership(self, index: int, predicate: GroupPredicate) -> bool:
        """Point query phrased as membership ("is this image a female?").

        Same cost as :meth:`ask_point`; the answer is derived from the
        labels the worker provides.
        """
        return predicate.matches_row(self.ask_point(index))

    # -- implementation hooks --------------------------------------------
    @abstractmethod
    def _answer_set(self, indices: np.ndarray, predicate: GroupPredicate) -> bool: ...

    @abstractmethod
    def _answer_point(self, index: int) -> dict[str, str]: ...

    def _answer_set_keyed(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key
    ) -> bool:
        """Key-hinted answering hook. The default drops the hint and
        calls :meth:`_answer_set`, so subclasses that know nothing about
        index keys (crowd platforms, decorators, test doubles) keep
        their two-argument hook; vectorized backends override this."""
        return self._answer_set(indices, predicate)

    def _answer_set_batch(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]]
    ) -> list[bool]:
        """Default batch path: answer one by one. Subclasses with a
        vectorizable backend override this."""
        return [self._answer_set(indices, predicate) for indices, predicate in queries]

    def _answer_set_batch_keyed(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]], index_keys
    ) -> list[bool]:
        """Batched form of :meth:`_answer_set_keyed`; same default."""
        return self._answer_set_batch(queries)

    def _answer_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        return [self._answer_point(index) for index in indices]


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
        # override the classic two-argument hooks must keep seeing every
        # query; the keyed fast path short-circuits them only when the
        # hooks are still this class's own.
        self._native_set_hook = type(self)._answer_set is GroundTruthOracle._answer_set
        self._native_set_batch_hook = (
            type(self)._answer_set_batch is GroundTruthOracle._answer_set_batch
        )
        self._native_point_hook = (
            type(self)._answer_point is GroundTruthOracle._answer_point
        )

    def _answer_set(self, indices: np.ndarray, predicate: GroupPredicate) -> bool:
        return self.membership_index.any_match(predicate, indices)

    def _answer_set_keyed(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key
    ) -> bool:
        if not self._native_set_hook:
            return self._answer_set(indices, predicate)
        return self.membership_index.any_match(predicate, indices, key=index_key)

    def _answer_set_batch(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]]
    ) -> list[bool]:
        if not self._native_set_hook:
            # Only the per-query hook was customized: batches must still
            # flow through it, one query at a time.
            return [self._answer_set(i, p) for i, p in queries]
        return self.membership_index.any_match_batch(queries)

    def _answer_set_batch_keyed(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]], index_keys
    ) -> list[bool]:
        if not (self._native_set_batch_hook and self._native_set_hook):
            return self._answer_set_batch(queries)
        return self.membership_index.any_match_batch(queries, keys=index_keys)

    def _answer_point(self, index: int) -> dict[str, str]:
        return self.dataset.value_row(index)

    def _answer_point_batch(self, indices: Sequence[int]) -> list[dict[str, str]]:
        if not self._native_point_hook:
            # A subclass customized per-point answering; every batched
            # point query must keep flowing through its hook.
            return [self._answer_point(index) for index in indices]
        return self.membership_index.value_rows(indices)


class CrowdOracle(Oracle):
    """Oracle backed by the full platform simulator (noisy workers,
    redundancy, aggregation, dollars)."""

    def __init__(self, platform: CrowdPlatform, *, budget: int | None = None) -> None:
        super().__init__(platform.dataset.schema, budget=budget)
        self.platform = platform
        #: the platform's hidden-truth index — exposed so sessions and
        #: diagnostics reach one shared index whatever the oracle kind.
        self.membership_index = platform.membership_index

    def _answer_set(self, indices: np.ndarray, predicate: GroupPredicate) -> bool:
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
        self._native_set_batch_hook = (
            type(self)._answer_set_batch is FlakyOracle._answer_set_batch
        )
        self._native_point_hook = (
            type(self)._answer_point is FlakyOracle._answer_point
        )

    def _answer_set(self, indices: np.ndarray, predicate: GroupPredicate) -> bool:
        truth = self.membership_index.any_match(predicate, indices)
        if self.rng.random() < self.set_error_rate:
            return not truth
        return truth

    def _answer_set_keyed(
        self, indices: np.ndarray, predicate: GroupPredicate, index_key
    ) -> bool:
        if not self._native_set_hook:
            return self._answer_set(indices, predicate)
        truth = self.membership_index.any_match(predicate, indices, key=index_key)
        if self.rng.random() < self.set_error_rate:
            return not truth
        return truth

    def _answer_set_batch(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]]
    ) -> list[bool]:
        if not self._native_set_hook:
            # One scalar flip draw per query — the same stream the
            # vectorized draw below consumes, so the fallback stays
            # bit-identical too.
            return [self._answer_set(i, p) for i, p in queries]
        # Truths come from the vectorized index; the flip draws stay one
        # vector of length len(queries), which consumes the generator's
        # stream exactly like len(queries) scalar draws — sequential and
        # batched execution remain bit-identical under one seed.
        truths = self.membership_index.any_match_batch(queries)
        flips = self.rng.random(len(queries)) < self.set_error_rate
        return [truth != bool(flip) for truth, flip in zip(truths, flips)]

    def _answer_set_batch_keyed(
        self, queries: Sequence[tuple[np.ndarray, GroupPredicate]], index_keys
    ) -> list[bool]:
        if not (self._native_set_batch_hook and self._native_set_hook):
            return self._answer_set_batch(queries)
        truths = self.membership_index.any_match_batch(queries, keys=index_keys)
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
