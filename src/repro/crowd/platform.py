"""The crowd platform simulator.

Publishes HITs the way the paper's MTurk deployment does (§6.3.1): each
HIT is assigned to ``assignments_per_hit`` workers (the paper uses 3),
individual answers are aggregated by majority vote, and screening policies
decide which workers are eligible at all. The platform keeps a full audit
trail (:class:`~repro.crowd.queries.HitRecord`) and a cost ledger, from
which it reports the same statistics the paper does — raw worker error
rate, aggregated error rate, dollars spent.

The platform answers from the dataset's hidden ground truth; algorithms
must route through :mod:`repro.crowd.oracle` and never touch it directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crowd.aggregation import DawidSkene, majority_point, majority_vote
from repro.crowd.pricing import CostLedger, FixedPricing, PricingModel
from repro.crowd.quality import QC_MAJORITY_ONLY, ScreeningPolicy, screen_workers
from repro.crowd.queries import HitRecord, PointQuery, SetQuery
from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy
from repro.crowd.workers import Worker
from repro.data.dataset import LabeledDataset
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError, NoEligibleWorkersError

__all__ = ["CrowdPlatform"]


class CrowdPlatform:
    """A simulated crowdsourcing marketplace bound to one dataset.

    Parameters
    ----------
    dataset:
        The dataset whose hidden labels workers answer from — a dense
        :class:`~repro.data.dataset.LabeledDataset` or a sharded
        out-of-core :class:`~repro.data.sharded.ShardedDataset` (the
        hidden-truth computation then streams through the sharded
        membership index).
    workers:
        The full worker population; screening policies select the eligible
        subset at construction time.
    rng:
        Source of all randomness (worker selection and worker errors).
    assignments_per_hit:
        Redundancy per HIT (the paper uses 3 with majority vote).
    screening:
        Quality-control policies (see :mod:`repro.crowd.quality`).
    pricing:
        The fixed-price model.
    record_hits:
        Keep per-HIT audit records. Disable for very large simulations to
        save memory; statistics counters stay accurate either way.
    reliability:
        Optional :class:`~repro.crowd.reliability.AdaptiveAssignmentPolicy`.
        When set, HITs are routed adaptively — trusted workers first,
        quarantined workers excluded, vote collection stopped once the
        posterior log-odds clears the policy's threshold — instead of the
        fixed ``assignments_per_hit`` fan-out. The charging path is
        unchanged (every collected vote is billed through the pricing
        model); with ``reliability=None`` the platform's rng stream and
        behavior are bit-identical to previous releases.
    record_votes:
        Buffer per-HIT ``(worker_id, answer)`` set votes for
        :meth:`drain_set_votes` (how backends surface vote attributions
        to an external estimator). Defaults to ``True`` iff
        ``reliability`` is set.
    """

    def __init__(
        self,
        dataset: "LabeledDataset | ShardedDataset",
        workers: Sequence[Worker],
        rng: np.random.Generator,
        *,
        assignments_per_hit: int = 3,
        screening: Sequence[ScreeningPolicy] = QC_MAJORITY_ONLY,
        pricing: PricingModel | None = None,
        record_hits: bool = True,
        reliability: AdaptiveAssignmentPolicy | None = None,
        record_votes: bool | None = None,
    ) -> None:
        if assignments_per_hit <= 0:
            raise InvalidParameterError("assignments_per_hit must be positive")
        self.dataset = dataset
        self.membership_index = ShardedMembershipIndex.for_dataset(dataset)
        self.rng = rng
        self.assignments_per_hit = assignments_per_hit
        self.eligible_workers = screen_workers(workers, screening, rng)
        if len(self.eligible_workers) < assignments_per_hit:
            raise NoEligibleWorkersError(
                f"screening left {len(self.eligible_workers)} eligible workers, "
                f"need at least {assignments_per_hit}"
            )
        self.ledger = CostLedger(pricing=pricing or FixedPricing())
        self.record_hits = record_hits
        self.reliability = reliability
        self.record_votes = (
            reliability is not None if record_votes is None else record_votes
        )
        self._pending_set_votes: list[tuple[tuple[int, bool], ...]] = []
        self.hit_records: list[HitRecord] = []
        self.n_raw_answers = 0
        self.n_raw_incorrect = 0
        self.n_aggregated_incorrect = 0

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def _assign_workers(self) -> list[Worker]:
        chosen = self.rng.choice(
            len(self.eligible_workers), size=self.assignments_per_hit, replace=False
        )
        return [self.eligible_workers[int(i)] for i in chosen]

    def publish_set_query(self, query: SetQuery) -> bool:
        """Publish a set query; returns the aggregated answer.

        The HIT shows ``len(query.indices)`` images, which is what a
        size-dependent pricing model bills for. With ``reliability=None``
        (the default) this is the paper's fixed-redundancy majority vote;
        with a policy attached, routing and stopping are adaptive.
        """
        index_array = np.asarray(query.indices, dtype=np.int64)
        truth = self.membership_index.any_match(
            query.predicate, IndexKey.of(index_array)
        )
        if self.reliability is not None:
            return self._publish_set_adaptive(query, index_array, truth)
        assigned = self._assign_workers()
        answers = tuple(worker.answer_set(truth, self.rng) for worker in assigned)
        aggregated = bool(majority_vote(answers, rng=self.rng))
        if self.record_votes:
            self._pending_set_votes.append(
                tuple(
                    (worker.worker_id, bool(answer))
                    for worker, answer in zip(assigned, answers)
                )
            )
        self._account(
            query, assigned, answers, aggregated, truth,
            n_images=max(len(index_array), 1),
        )
        return aggregated

    def _publish_set_adaptive(
        self, query: SetQuery, index_array: np.ndarray, truth: bool
    ) -> bool:
        """Adaptive set-query path: sequential votes from trusted workers,
        stopped on posterior log-odds; every vote is billed as usual."""
        policy = self.reliability
        assert policy is not None
        order, probe = policy.plan(self.eligible_workers, self.rng)
        assigned: list[Worker] = []
        answers: list[bool] = []
        log_odds = policy.prior_log_odds()
        for pos in order:
            worker = self.eligible_workers[pos]
            answer = bool(worker.answer_set(truth, self.rng))
            assigned.append(worker)
            answers.append(answer)
            log_odds += policy.vote_log_odds(worker.worker_id, answer)
            if policy.should_stop(log_odds, len(answers)):
                break
        aggregated = policy.decide(log_odds)
        n_probes = 0
        if probe is not None:
            # Paid probation probe: feeds the estimator, never the verdict.
            probe_worker = self.eligible_workers[probe]
            assigned.append(probe_worker)
            answers.append(bool(probe_worker.answer_set(truth, self.rng)))
            n_probes = 1
        votes = tuple(
            (worker.worker_id, answer)
            for worker, answer in zip(assigned, answers)
        )
        policy.observe_set(votes, n_probes=n_probes)
        if self.record_votes:
            self._pending_set_votes.append(votes)
        self._account(
            query, assigned, tuple(answers), aggregated, truth,
            n_images=max(len(index_array), 1),
        )
        return aggregated

    def publish_point_query(self, query: PointQuery) -> dict[str, str]:
        """Publish a point query; returns the attribute-wise aggregated
        labels (majority vote, or the reliability policy's MAP)."""
        truth = self.dataset.value_row(query.index)
        if self.reliability is not None:
            return self._publish_point_adaptive(query, truth)
        assigned = self._assign_workers()
        answers = tuple(
            worker.answer_point(truth, self.dataset.schema, self.rng)
            for worker in assigned
        )
        aggregated = majority_point(answers, rng=self.rng)
        self._account(query, assigned, answers, aggregated, truth, n_images=1)
        return aggregated

    def _publish_point_adaptive(
        self, query: PointQuery, truth: dict[str, str]
    ) -> dict[str, str]:
        """Adaptive point-query path: sequential labelings from trusted
        workers, stopped once every attribute's posterior margin clears
        the policy threshold."""
        policy = self.reliability
        assert policy is not None
        order, probe = policy.plan(self.eligible_workers, self.rng)
        assigned: list[Worker] = []
        answers: list[dict[str, str]] = []
        votes: list[tuple[int, dict[str, str]]] = []
        for pos in order:
            worker = self.eligible_workers[pos]
            answer = worker.answer_point(truth, self.dataset.schema, self.rng)
            assigned.append(worker)
            answers.append(answer)
            votes.append((worker.worker_id, answer))
            posteriors = policy.estimator.point_posteriors(votes)
            if policy.should_stop_point(posteriors, len(answers)):
                break
        # The verdict uses only verdict-bearing votes, decided before the
        # estimator absorbs them (mirrors the set-query path).
        posteriors = policy.estimator.point_posteriors(votes)
        aggregated = {
            attribute: max(values, key=values.__getitem__)
            for attribute, values in posteriors.items()
        }
        n_probes = 0
        if probe is not None:
            probe_worker = self.eligible_workers[probe]
            probe_answer = probe_worker.answer_point(
                truth, self.dataset.schema, self.rng
            )
            assigned.append(probe_worker)
            answers.append(probe_answer)
            votes.append((probe_worker.worker_id, probe_answer))
            n_probes = 1
        policy.observe_point(votes, n_probes=n_probes)
        self._account(
            query, assigned, tuple(answers), aggregated, truth, n_images=1
        )
        return aggregated

    def drain_set_votes(self) -> list[tuple[tuple[int, bool], ...]]:
        """Return-and-clear the buffered per-HIT set-vote attributions
        (``record_votes=True``); backends call this right after a
        dispatch to ship worker identities along with answers."""
        votes = self._pending_set_votes
        self._pending_set_votes = []
        return votes

    def _account(
        self,
        query: SetQuery | PointQuery,
        assigned: list[Worker],
        answers: tuple,
        aggregated,
        truth,
        *,
        n_images: int,
    ) -> None:
        price = self.ledger.charge(
            is_set_query=isinstance(query, SetQuery),
            n_assignments=len(assigned),
            n_images=n_images,
        )
        self.n_raw_answers += len(answers)
        self.n_raw_incorrect += sum(1 for answer in answers if answer != truth)
        if aggregated != truth:
            self.n_aggregated_incorrect += 1
        if self.record_hits:
            self.hit_records.append(
                HitRecord(
                    query=query,
                    worker_ids=tuple(worker.worker_id for worker in assigned),
                    answers=answers,
                    aggregated=aggregated,
                    truth=truth,
                    price=price,
                )
            )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def raw_error_rate(self) -> float:
        """Fraction of individual worker answers that were incorrect —
        the paper reports 1.36 % for its live runs."""
        if self.n_raw_answers == 0:
            return 0.0
        return self.n_raw_incorrect / self.n_raw_answers

    @property
    def aggregated_error_rate(self) -> float:
        """Fraction of HITs whose aggregated answer was incorrect."""
        if self.ledger.n_hits == 0:
            return 0.0
        return self.n_aggregated_incorrect / self.ledger.n_hits

    def reaggregate_set_hits_with_dawid_skene(self) -> tuple[int, int]:
        """Re-run truth inference over all recorded *set* HITs with
        Dawid–Skene instead of majority vote.

        Returns
        -------
        (n_majority_errors, n_dawid_skene_errors)
            Aggregation errors under each scheme, over the same records.
            Requires ``record_hits=True``.
        """
        records = [r for r in self.hit_records if isinstance(r.query, SetQuery)]
        if not records:
            return (0, 0)
        responses = {
            task_id: {
                worker: int(bool(answer))
                for worker, answer in zip(record.worker_ids, record.answers)
            }
            for task_id, record in enumerate(records)
        }
        inferred = DawidSkene(n_classes=2).fit_predict(responses)
        majority_errors = sum(1 for r in records if r.aggregated != r.truth)
        ds_errors = sum(
            1
            for task_id, record in enumerate(records)
            if bool(inferred[task_id]) != record.truth
        )
        return (majority_errors, ds_errors)

    def summary(self) -> str:
        return (
            f"platform[{self.dataset.name}]: {self.ledger.summary()}; "
            f"raw error {self.raw_error_rate:.2%}, "
            f"aggregated error {self.aggregated_error_rate:.2%}"
        )
