"""Tests for the online worker-reliability subsystem.

Covers the streaming estimator (:class:`OnlineDawidSkene`), the
quarantine lifecycle (:class:`ReliabilityTracker`), the adaptive router
(:class:`AdaptiveAssignmentPolicy`), platform wiring, backend vote
surfacing, and the session checkpoint round trip.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crowd.oracle import CrowdOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.queries import PointQuery, SetQuery
from repro.crowd.reliability import (
    AdaptiveAssignmentPolicy,
    OnlineDawidSkene,
    ReliabilitySnapshot,
    ReliabilityTracker,
)
from repro.crowd.workers import Worker, make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.errors import CheckpointVersionError, InvalidParameterError

FEMALE = group(gender="female")


def _feed(estimator, rng, n_hits, behaviors):
    """Stream ``n_hits`` synthetic set HITs; ``behaviors`` maps worker id
    to a callable ``truth, rng -> answer``."""
    for _ in range(n_hits):
        truth = bool(rng.random() < 0.5)
        votes = [(w, bool(answer(truth, rng))) for w, answer in behaviors.items()]
        estimator.observe_set_batch([votes])


def good(error=0.05):
    return lambda truth, rng: truth if rng.random() > error else not truth


def always(value):
    return lambda truth, rng: value


def uniform():
    return lambda truth, rng: bool(rng.random() < 0.5)


def adversarial(error=0.9):
    return lambda truth, rng: (not truth) if rng.random() < error else truth


class TestOnlineDawidSkene:
    def test_ranks_workers_by_quality(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 60, {0: good(0.02), 1: good(0.02), 2: good(0.3)})
        assert est.worker_accuracy(0) > est.worker_accuracy(2)
        assert est.n_observations(0) == 60
        assert est.worker_ids == (0, 1, 2)

    def test_vote_log_odds_signs(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
        assert est.vote_log_odds(0, True) > 0
        assert est.vote_log_odds(0, False) < 0
        # A good worker's learned vote outweighs an unknown worker's.
        assert est.vote_log_odds(0, True) > est.vote_log_odds(99, True)

    def test_unknown_worker_gets_prior_confusion(self):
        est = OnlineDawidSkene(prior_correct=0.7)
        confusion = est.confusion(5)
        assert np.allclose(confusion, [[0.7, 0.3], [0.3, 0.7]])
        assert est.n_observations(5) == 0

    def test_empty_batch_is_a_no_op(self):
        est = OnlineDawidSkene()
        assert est.observe_set_batch([]).shape == (0,)
        assert est.observe_point_batch([]) == []

    def test_posterior_follows_reliable_majority(self, rng):
        est = OnlineDawidSkene()
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
        post = est.observe_set_batch([[(0, True), (1, True), (2, True)]])
        assert post[0] > 0.9
        post = est.observe_set_batch([[(0, False), (1, False), (2, False)]])
        assert post[0] < 0.1

    def test_decay_tracks_drifting_quality(self, rng):
        sticky = OnlineDawidSkene(decay=1.0)
        forgetful = OnlineDawidSkene(decay=0.9)
        for est in (sticky, forgetful):
            feed_rng = np.random.default_rng(17)
            _feed(est, feed_rng, 80, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
            _feed(est, feed_rng, 40, {0: adversarial(), 1: good(0.02), 2: good(0.02)})
        # The forgetful estimator notices worker 0 went bad much faster.
        assert forgetful.worker_accuracy(0) < sticky.worker_accuracy(0)

    def test_point_batch_learns_map_labels(self, rng):
        est = OnlineDawidSkene()
        for _ in range(30):
            est.observe_point_batch(
                [[(0, {"gender": "f"}), (1, {"gender": "f"}), (2, {"gender": "m"})]]
            )
        labels = est.observe_point_batch(
            [[(0, {"gender": "f"}), (1, {"gender": "f"}), (2, {"gender": "m"})]]
        )
        assert labels == [{"gender": "f"}]
        posteriors = est.point_posteriors([(0, {"gender": "f"})])
        assert posteriors["gender"]["f"] > posteriors["gender"]["m"]

    def test_state_round_trips_bit_identically_through_json(self, rng):
        est = OnlineDawidSkene(decay=0.95)
        _feed(est, rng, 25, {0: good(), 3: uniform(), 7: adversarial()})
        est.observe_point_batch([[(0, {"gender": "f"}), (3, {"gender": "m"})]])
        state = json.loads(json.dumps(est.state_dict()))
        clone = OnlineDawidSkene(decay=0.95)
        clone.load_state_dict(state)
        assert clone.state_dict() == est.state_dict()
        assert np.array_equal(clone.confusion(7), est.confusion(7))
        # Subsequent updates evolve identically.
        more = [[(0, True), (3, False), (7, True)]]
        assert np.array_equal(
            clone.observe_set_batch(more), est.observe_set_batch(more)
        )
        assert clone.state_dict() == est.state_dict()

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"damping": 0.0},
            {"damping": 1.5},
            {"decay": 0.0},
            {"prior_correct": 0.4},
            {"prior_correct": 1.0},
            {"prior_strength": 0.0},
            {"sweeps": 0},
        ):
            with pytest.raises(InvalidParameterError):
                OnlineDawidSkene(**kwargs)


class TestReliabilityTracker:
    def _tracked(self, rng, behaviors, n_hits=60, **kwargs):
        est = OnlineDawidSkene()
        tracker = ReliabilityTracker(est, **kwargs)
        _feed(est, rng, n_hits, behaviors)
        tracker.review()
        return est, tracker

    def test_flags_always_yes_and_always_no(self, rng):
        behaviors = {
            0: good(0.02), 1: good(0.02), 2: good(0.02),
            8: always(True), 9: always(False),
        }
        _, tracker = self._tracked(rng, behaviors)
        assert tracker.flag(8) == "always_yes"
        assert tracker.flag(9) == "always_no"
        assert tracker.is_quarantined(8) and tracker.is_quarantined(9)
        assert not tracker.is_quarantined(0)
        assert tracker.quarantined_ids() == (8, 9)

    def test_flags_adversary_with_negative_j(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 2: good(0.02), 7: adversarial()}
        _, tracker = self._tracked(rng, behaviors)
        assert tracker.flag(7) == "adversary"
        assert tracker.youden_j(7) < 0

    def test_flags_uniform_guesser(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 2: good(0.02), 5: uniform()}
        _, tracker = self._tracked(rng, behaviors, n_hits=120)
        assert tracker.flag(5) == "uniform_guesser"

    def test_insufficient_evidence_never_flags(self, rng):
        behaviors = {0: good(0.02), 1: good(0.02), 5: always(True)}
        _, tracker = self._tracked(rng, behaviors, n_hits=5, min_observations=12)
        assert tracker.flag(5) is None
        assert not tracker.is_quarantined(5)

    def test_probation_reinstates_recovered_worker(self, rng):
        est = OnlineDawidSkene(decay=0.97)
        tracker = ReliabilityTracker(
            est, min_observations=10, probation_votes=5, reentry_margin=0.2
        )
        _feed(est, rng, 40, {0: good(0.02), 1: good(0.02), 2: always(True)})
        tracker.review()
        assert tracker.is_quarantined(2)
        assert tracker.n_quarantines == 1
        # The worker recovers; probe votes keep feeding the estimator.
        for _ in range(60):
            _feed(est, rng, 1, {0: good(0.02), 1: good(0.02), 2: good(0.02)})
            tracker.review()
        assert not tracker.is_quarantined(2)
        assert tracker.n_reinstatements == 1
        assert tracker.flag(2) is None

    def test_state_round_trips_through_json(self, rng):
        _, tracker = self._tracked(
            rng, {0: good(0.02), 1: good(0.02), 2: good(0.02), 8: always(True)}
        )
        state = json.loads(json.dumps(tracker.state_dict()))
        clone = ReliabilityTracker(tracker.estimator)
        clone.load_state_dict(state)
        assert clone.state_dict() == tracker.state_dict()
        assert clone.is_quarantined(8)

    def test_invalid_parameters_rejected(self):
        est = OnlineDawidSkene()
        for kwargs in (
            {"min_observations": 0},
            {"spam_margin": 0.0},
            {"extreme_rate": 0.5},
            {"reentry_margin": 1.0},
            {"probation_votes": 0},
        ):
            with pytest.raises(InvalidParameterError):
                ReliabilityTracker(est, **kwargs)


class TestAdaptiveAssignmentPolicy:
    def _pool(self, n=6):
        return [Worker(worker_id=i, set_error_rate=0.02) for i in range(n)]

    def test_plan_excludes_quarantined_and_caps(self, rng):
        policy = AdaptiveAssignmentPolicy(max_assignments=3)
        feed_rng = np.random.default_rng(1)
        _feed(
            policy.estimator, feed_rng, 60,
            {0: good(0.02), 1: good(0.02), 2: good(0.02), 3: always(True)},
        )
        policy.tracker.review()
        pool = self._pool(4)
        order, probe = policy.plan(pool, rng)
        assert len(order) <= 3
        assert 3 not in order  # quarantined position (worker_id == position)
        assert probe is None or probe == 3

    def test_plan_falls_back_to_full_pool_when_all_quarantined(self, rng):
        policy = AdaptiveAssignmentPolicy()
        feed_rng = np.random.default_rng(2)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: always(True)})
        policy.tracker.review()
        pool = [Worker(worker_id=2, set_error_rate=0.02)]
        order, _ = policy.plan(pool, rng)
        assert order == [0]

    def test_probe_fires_on_probation_cadence(self, rng):
        policy = AdaptiveAssignmentPolicy(probation_interval=3)
        feed_rng = np.random.default_rng(3)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: good(0.02), 3: always(False)})
        policy.tracker.review()
        pool = self._pool(4)
        probes = []
        for hit in range(6):
            _, probe = policy.plan(pool, rng)
            probes.append(probe)
            policy.n_hits += 1  # simulate the observe step advancing hits
        assert probes[2] == 3 and probes[5] == 3
        assert probes[0] is None and probes[1] is None

    def test_stop_rule_respects_bounds(self):
        policy = AdaptiveAssignmentPolicy(
            min_assignments=2, max_assignments=4, log_odds_threshold=1.0
        )
        assert not policy.should_stop(99.0, n_votes=1)  # below min
        assert policy.should_stop(1.5, n_votes=2)       # threshold cleared
        assert not policy.should_stop(0.1, n_votes=3)   # not confident yet
        assert policy.should_stop(0.1, n_votes=4)       # max exhausted
        assert policy.decide(0.2) is True
        assert policy.decide(-0.2) is False

    def test_observe_set_updates_counters_and_report(self, rng):
        policy = AdaptiveAssignmentPolicy()
        policy.observe_set([(0, True), (1, True), (2, False)], n_probes=1)
        report = policy.report()
        assert report.n_hits == 1
        assert report.n_votes == 2
        assert report.n_probes == 1
        assert report.n_workers == 3
        assert report.mean_votes_per_hit == 2.0

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            AdaptiveAssignmentPolicy().plan([], rng)

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"min_assignments": 0},
            {"min_assignments": 5, "max_assignments": 3},
            {"log_odds_threshold": 0.0},
            {"exploration": -0.1},
            {"probation_interval": 0},
        ):
            with pytest.raises(InvalidParameterError):
                AdaptiveAssignmentPolicy(**kwargs)


class TestAdaptivePlatform:
    @pytest.fixture
    def dataset(self):
        return binary_dataset(1000, 20, rng=np.random.default_rng(7))

    def _pool(self):
        return make_worker_pool(
            20, np.random.default_rng(3), error_rate=0.03,
            spammer_fraction=0.25, spammer_error_rate=0.45,
        )

    def _run(self, dataset, reliability, n=150):
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(11),
            reliability=reliability,
        )
        query_rng = np.random.default_rng(42)
        for _ in range(n):
            indices = query_rng.choice(len(dataset), size=15, replace=False)
            platform.publish_set_query(
                SetQuery(np.asarray(indices, dtype=np.int64), FEMALE)
            )
        return platform

    def test_adaptive_spends_fewer_assignments_at_equal_accuracy(self, dataset):
        fixed = self._run(dataset, None)
        adaptive = self._run(
            dataset, AdaptiveAssignmentPolicy(log_odds_threshold=3.5)
        )
        assert adaptive.ledger.n_assignments < fixed.ledger.n_assignments
        assert adaptive.n_aggregated_incorrect <= fixed.n_aggregated_incorrect
        assert adaptive.ledger.n_hits == fixed.ledger.n_hits

    def test_assignments_match_cost_ledger_and_raw_answers(self, dataset):
        adaptive = self._run(dataset, AdaptiveAssignmentPolicy())
        assert adaptive.ledger.n_assignments == adaptive.n_raw_answers
        report = adaptive.reliability.report()
        assert report.n_votes + report.n_probes == adaptive.n_raw_answers

    def test_adaptive_runs_are_deterministic(self, dataset):
        a = self._run(dataset, AdaptiveAssignmentPolicy(), n=60)
        b = self._run(dataset, AdaptiveAssignmentPolicy(), n=60)
        assert a.ledger.n_assignments == b.ledger.n_assignments
        assert a.n_aggregated_incorrect == b.n_aggregated_incorrect
        assert (
            a.reliability.estimator.state_dict()
            == b.reliability.estimator.state_dict()
        )

    def test_record_votes_buffers_and_drains(self, dataset):
        adaptive = self._run(dataset, AdaptiveAssignmentPolicy(), n=10)
        votes = adaptive.drain_set_votes()
        assert len(votes) == 10
        assert all(
            isinstance(w, int) and isinstance(a, bool)
            for hit in votes for (w, a) in hit
        )
        assert adaptive.drain_set_votes() == []  # drained

    def test_plain_platform_records_votes_when_asked(self, dataset, rng):
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(1), record_votes=True
        )
        indices = np.arange(5, dtype=np.int64)
        platform.publish_set_query(SetQuery(indices, FEMALE))
        votes = platform.drain_set_votes()
        assert len(votes) == 1
        assert len(votes[0]) == platform.assignments_per_hit

    def test_adaptive_point_query_reaches_truth(self, dataset):
        policy = AdaptiveAssignmentPolicy(log_odds_threshold=1.5)
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(5), reliability=policy
        )
        labels = platform.publish_point_query(PointQuery(3))
        assert labels == dataset.value_row(3)
        assert policy.n_hits == 1

    def test_probes_are_billed_but_not_verdict_bearing(self, dataset):
        policy = AdaptiveAssignmentPolicy(
            probation_interval=1, log_odds_threshold=3.5
        )
        platform = CrowdPlatform(
            dataset, self._pool(), np.random.default_rng(11), reliability=policy
        )
        # Quarantine someone first so probes have a target.
        feed_rng = np.random.default_rng(8)
        _feed(policy.estimator, feed_rng, 60,
              {0: good(0.02), 1: good(0.02), 2: good(0.02),
               platform.eligible_workers[0].worker_id: always(True)})
        policy.tracker.review()
        assert policy.tracker.quarantined_ids()
        before = platform.ledger.n_assignments
        platform.publish_set_query(
            SetQuery(np.arange(4, dtype=np.int64), FEMALE)
        )
        billed = platform.ledger.n_assignments - before
        report = policy.report()
        assert report.n_probes >= 1
        assert billed == report.n_votes + report.n_probes


class TestSessionReliabilityCheckpoint:
    def _build(self, policy):
        dataset = binary_dataset(800, 25, rng=np.random.default_rng(7))
        pool = make_worker_pool(
            15, np.random.default_rng(3), error_rate=0.03,
            spammer_fraction=0.2, spammer_error_rate=0.45,
        )
        platform = CrowdPlatform(
            dataset, pool, np.random.default_rng(11), reliability=policy
        )
        return dataset, CrowdOracle(platform)

    def test_checkpoint_carries_versioned_reliability_section(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            payload = json.loads(session.checkpoint())
        assert payload["version"] == 3
        assert payload["reliability"]["version"] == 1
        assert payload["reliability"]["platform_rng_state"] is not None
        assert session.reliability_report().n_hits > 0

    def test_checkpoint_reliability_none_without_policy(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(None)
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            payload = json.loads(session.checkpoint())
        assert payload["reliability"] is None
        assert session.reliability_report() is None

    def test_resume_restores_estimator_and_rng_bit_identically(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        specs = [
            GroupAuditSpec(predicate=FEMALE, tau=10),
            GroupAuditSpec(predicate=group(gender="male"), tau=10),
        ]
        # Uninterrupted reference run.
        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            reference = [session.run(spec) for spec in specs]
            reference_state = oracle.platform.reliability.state_dict()

        # Interrupted run: checkpoint after the first spec, resume onto a
        # *fresh* identically-configured platform, run the second spec.
        _, first_oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(first_oracle, seed=5) as session:
            first_report = session.run(specs[0])
            checkpoint = session.checkpoint()
        _, fresh_oracle = self._build(AdaptiveAssignmentPolicy())
        resumed = AuditSession.resume(checkpoint, fresh_oracle)
        with resumed:
            second_report = resumed.run(specs[1])

        assert first_report.entries[0].result == reference[0].entries[0].result
        assert (
            second_report.entries[0].result == reference[1].entries[0].result
        )
        assert (
            fresh_oracle.platform.reliability.state_dict() == reference_state
        )
        # No recorded answer was re-asked: the resumed session paid only
        # for the second spec's queries.
        assert (
            first_oracle.ledger.total + fresh_oracle.ledger.total
            == oracle.ledger.total
        )

    def test_resume_without_reliability_platform_rejected(self):
        from repro.audit.session import AuditSession
        from repro.audit.specs import GroupAuditSpec

        _, oracle = self._build(AdaptiveAssignmentPolicy())
        with AuditSession(oracle, seed=5) as session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=10))
            checkpoint = session.checkpoint()
        _, bare_oracle = self._build(None)
        with pytest.raises(CheckpointVersionError):
            AuditSession.resume(checkpoint, bare_oracle)

    def test_snapshot_rejects_unknown_versions_and_missing_keys(self):
        with pytest.raises(CheckpointVersionError):
            ReliabilitySnapshot.from_dict({"version": 99})
        with pytest.raises(CheckpointVersionError):
            ReliabilitySnapshot.from_dict({"policy": {}})


# -- scalar reference: the per-worker reads the pool view replaced ---------
_LOG_FLOOR = 1e-300


class _ScalarDawidSkene(OnlineDawidSkene):
    """Test-only reference: every read recomputes one worker's 2x2
    matrices from the raw statistics, and ``observe_set_batch`` runs the
    full-pool E-step with one scatter per truth."""

    def confusion(self, worker_id):
        row = self._row(worker_id)
        counts = self._set_prior_counts() + self._set_obs[row]
        return counts / counts.sum(axis=1, keepdims=True)

    def worker_accuracy(self, worker_id):
        confusion = self.confusion(worker_id)
        priors = self.class_priors
        return float(priors[0] * confusion[0, 0] + priors[1] * confusion[1, 1])

    def prior_log_odds(self):
        priors = self.class_priors
        return float(np.log(priors[1] + _LOG_FLOOR) - np.log(priors[0] + _LOG_FLOOR))

    def vote_log_odds(self, worker_id, answer):
        confusion = self.confusion(worker_id)
        a = 1 if answer else 0
        return float(
            np.log(confusion[1, a] + _LOG_FLOOR) - np.log(confusion[0, a] + _LOG_FLOOR)
        )

    def observe_set_batch(self, hits):
        hits = [list(votes) for votes in hits]
        n_hits = len(hits)
        flat = [(i, w, a) for i, votes in enumerate(hits) for (w, a) in votes]
        if not flat:
            return np.zeros(n_hits, dtype=np.float64)
        task_idx = np.array([i for i, _, _ in flat], dtype=np.int64)
        rows = np.array([self._row(w) for _, w, _ in flat], dtype=np.int64)
        ans = np.array([1 if a else 0 for _, _, a in flat], dtype=np.int64)
        self._forget()
        prior_counts = self._set_prior_counts()
        n_rows = len(self._row_ids)
        step = self.damping / self.sweeps
        for _ in range(self.sweeps):
            counts = prior_counts[None, :, :] + self._set_obs[:n_rows]
            log_conf = np.log(counts / counts.sum(axis=2, keepdims=True) + _LOG_FLOOR)
            priors = self.class_priors
            log_post = np.tile(np.log(priors + _LOG_FLOOR), (n_hits, 1))
            np.add.at(log_post, task_idx, log_conf[rows, :, ans])
            log_post -= log_post.max(axis=1, keepdims=True)
            post = np.exp(log_post)
            post /= post.sum(axis=1, keepdims=True)
            for truth in (0, 1):
                np.add.at(
                    self._set_obs[:, truth, :], (rows, ans), step * post[task_idx, truth]
                )
            self._set_class_obs += step * post.sum(axis=0)
        np.add.at(self._set_votes, rows, 1)
        self.n_set_batches += 1
        return post[:, 1].copy()


class _ScalarTracker(ReliabilityTracker):
    """Test-only reference: classifies one worker at a time and reviews
    every known worker in a Python loop."""

    def classify(self, worker_id):
        if self.estimator.n_observations(worker_id) < self.min_observations:
            return None
        confusion = self.estimator.confusion(worker_id)
        yes_rate_when_no = float(confusion[0, 1])
        yes_rate_when_yes = float(confusion[1, 1])
        if (
            yes_rate_when_no >= self.extreme_rate
            and yes_rate_when_yes >= self.extreme_rate
        ):
            return "always_yes"
        if (
            1.0 - yes_rate_when_no >= self.extreme_rate
            and 1.0 - yes_rate_when_yes >= self.extreme_rate
        ):
            return "always_no"
        j = yes_rate_when_yes - yes_rate_when_no
        if j <= -self.spam_margin:
            return "adversary"
        if abs(j) < self.spam_margin:
            return "uniform_guesser"
        return None

    def review(self):
        changed = []
        est = self.estimator
        for worker_id in est.worker_ids:
            state = self._states.get(worker_id, "active")
            flag = self.classify(worker_id)
            if state == "active":
                if flag is not None:
                    self._states[worker_id] = "quarantined"
                    self._flags[worker_id] = flag
                    self._obs_at_quarantine[worker_id] = est.n_observations(worker_id)
                    self.n_quarantines += 1
                    changed.append(worker_id)
            else:
                probes = est.n_observations(worker_id) - self._obs_at_quarantine.get(
                    worker_id, 0
                )
                if (
                    probes >= self.probation_votes
                    and flag is None
                    and self.youden_j(worker_id) >= self.reentry_margin
                ):
                    self._states[worker_id] = "active"
                    self._flags.pop(worker_id, None)
                    self._obs_at_quarantine.pop(worker_id, None)
                    self.n_reinstatements += 1
                    changed.append(worker_id)
                elif flag is not None:
                    self._flags[worker_id] = flag
                    self._obs_at_quarantine[worker_id] = est.n_observations(worker_id)
        return changed


class _ScalarPolicy(AdaptiveAssignmentPolicy):
    """Test-only reference: ranks the pool with one ``worker_accuracy``
    read per active worker, over the scalar estimator and tracker."""

    def __init__(self, **kwargs):
        estimator = _ScalarDawidSkene()
        super().__init__(
            estimator=estimator, tracker=_ScalarTracker(estimator), **kwargs
        )

    def plan(self, eligible, rng):
        active = [
            pos
            for pos, worker in enumerate(eligible)
            if not self.tracker.is_quarantined(worker.worker_id)
        ]
        if not active:
            active = list(range(len(eligible)))
        noise = rng.random(len(active))
        scores = np.array(
            [self.estimator.worker_accuracy(eligible[pos].worker_id) for pos in active],
            dtype=np.float64,
        )
        scores += self.exploration * noise
        ranked = [active[i] for i in np.argsort(-scores, kind="stable")]
        order = ranked[: self.max_assignments]
        probe = None
        if self.n_hits % self.probation_interval == self.probation_interval - 1:
            quarantined = [
                pos
                for pos, worker in enumerate(eligible)
                if self.tracker.is_quarantined(worker.worker_id)
            ]
            if quarantined:
                probe = min(
                    quarantined,
                    key=lambda pos: (
                        self.estimator.n_observations(eligible[pos].worker_id),
                        eligible[pos].worker_id,
                    ),
                )
        return order, probe


def _random_hits(rng, n_workers, kinds):
    """One random batch of set HITs; a worker may vote twice in a HIT."""
    hits = []
    for _ in range(int(rng.integers(0, 4))):
        truth = bool(rng.random() < 0.5)
        votes = []
        for worker_id in rng.integers(0, n_workers, int(rng.integers(0, 8))):
            behavior = (good(0.05), always(True), uniform(), adversarial())[
                kinds[worker_id]
            ]
            votes.append((int(worker_id), bool(behavior(truth, rng))))
        hits.append(votes)
    return hits


def _assert_pool_matches_scalar(est, ref, tracker, ref_tracker):
    """Exact (``==``) agreement of every pool read with the scalar path."""
    assert est.state_dict() == ref.state_dict()
    pool = est.pool()
    assert pool.prior_log_odds == ref.prior_log_odds()
    for row, worker_id in enumerate(ref.worker_ids):
        assert np.array_equal(pool.confusion[row], ref.confusion(worker_id))
        assert np.array_equal(est.confusion(worker_id), ref.confusion(worker_id))
        assert pool.accuracy[row] == ref.worker_accuracy(worker_id)
        assert est.worker_accuracy(worker_id) == ref.worker_accuracy(worker_id)
        for answer in (False, True):
            expected = ref.vote_log_odds(worker_id, answer)
            assert pool.log_odds[row, int(answer)] == expected
            assert est.vote_log_odds(worker_id, answer) == expected
        assert pool.votes[row] == ref.n_observations(worker_id)
        assert tracker.classify(worker_id) == ref_tracker.classify(worker_id)
    assert est.prior_log_odds() == ref.prior_log_odds()


class TestPoolViewMatchesScalarFormulas:
    @pytest.mark.parametrize("decay", [1.0, 0.93])
    def test_random_streams(self, decay):
        for seed in range(25):
            rng = np.random.default_rng([seed, int(decay * 100)])
            kwargs = dict(
                decay=decay,
                damping=float(rng.uniform(0.2, 1.0)),
                sweeps=int(rng.integers(1, 4)),
            )
            est, ref = OnlineDawidSkene(**kwargs), _ScalarDawidSkene(**kwargs)
            min_observations = int(rng.integers(1, 10))
            tracker = ReliabilityTracker(est, min_observations=min_observations)
            ref_tracker = _ScalarTracker(ref, min_observations=min_observations)
            n_workers = int(rng.integers(1, 25))
            kinds = rng.integers(0, 4, n_workers)
            for _ in range(int(rng.integers(5, 40))):
                hits = _random_hits(rng, n_workers, kinds)
                assert np.array_equal(
                    est.observe_set_batch(hits), ref.observe_set_batch(hits)
                )
                assert tracker.review() == ref_tracker.review()
                assert tracker.state_dict() == ref_tracker.state_dict()
                _assert_pool_matches_scalar(est, ref, tracker, ref_tracker)

    def test_duplicate_worker_in_one_hit(self, rng):
        # The all-quarantined fallback routes the lone eligible worker and,
        # on a probe round, probes the same worker: it votes twice.
        policy = AdaptiveAssignmentPolicy(probation_interval=1)
        reference = _ScalarPolicy(probation_interval=1)
        for p in (policy, reference):
            _feed(p.estimator, np.random.default_rng(2), 60,
                  {0: good(0.02), 1: good(0.02), 2: always(True)})
            assert p.tracker.review() == [2]
        eligible = [Worker(worker_id=2, set_error_rate=0.02)]
        for _ in range(8):
            plan = policy.plan(eligible, np.random.default_rng(5))
            assert plan == reference.plan(eligible, np.random.default_rng(5))
            assert plan == ([0], 0)
            votes = [(2, bool(rng.random() < 0.5)), (2, True)]
            assert policy.observe_set(votes, n_probes=1) == reference.observe_set(
                votes, n_probes=1
            )
            _assert_pool_matches_scalar(
                policy.estimator, reference.estimator,
                policy.tracker, reference.tracker,
            )
        assert policy.state_dict() == reference.state_dict()

    def test_confusion_returns_a_copy_of_a_read_only_pool(self):
        est = OnlineDawidSkene()
        est.observe_set_batch([[(0, True), (1, False)]])
        est.confusion(0)[:] = 0.0
        assert est.confusion(0).sum() == pytest.approx(2.0)
        with pytest.raises(ValueError):
            est.pool().accuracy[0] = 1.0


class TestPoolViewInvalidation:
    def _pair(self):
        est, ref = OnlineDawidSkene(), _ScalarDawidSkene()
        for e in (est, ref):
            _feed(e, np.random.default_rng(4), 20, {0: good(), 1: uniform()})
        return est, ref

    def test_new_worker_after_a_read(self):
        est, ref = self._pair()
        stale = est.pool()
        assert est.worker_accuracy(7) == ref.worker_accuracy(7)
        assert est.pool() is not stale
        assert est.pool().accuracy.shape == (3,)
        assert est.rows([0, 8, 7]) == [0, 3, 2]
        assert est.pool().accuracy.shape == (4,)
        assert est.row_of(9) is None

    def test_observe_set_batch(self):
        est, ref = self._pair()
        stale = est.pool()
        hits = [[(0, True), (1, True)]]
        est.observe_set_batch(hits)
        ref.observe_set_batch(hits)
        assert est.pool() is not stale
        assert est.vote_log_odds(1, True) == ref.vote_log_odds(1, True)
        assert est.pool().votes.tolist() == [21, 21]

    def test_load_state_dict(self):
        est, ref = self._pair()
        other = OnlineDawidSkene()
        _feed(other, np.random.default_rng(9), 5, {0: always(False), 1: good()})
        stale = est.pool()
        est.load_state_dict(json.loads(json.dumps(other.state_dict())))
        assert est.pool() is not stale
        assert np.array_equal(est.pool().confusion, other.pool().confusion)
        assert est.prior_log_odds() == other.prior_log_odds()

    def test_point_checkpoint_with_more_than_sixteen_workers_loads(self):
        est = OnlineDawidSkene()
        votes = [(w, {"gender": "f" if w % 3 else "m"}) for w in range(17)]
        est.observe_point_batch([votes])
        state = json.loads(json.dumps(est.state_dict()))
        clone = OnlineDawidSkene()
        clone.load_state_dict(state)
        assert json.dumps(clone.state_dict()) == json.dumps(state)
        more = [votes[:5], [(17, {"gender": "m"}), (3, {"gender": "f"})]]
        assert clone.observe_point_batch(more) == est.observe_point_batch(more)
        assert clone.state_dict() == est.state_dict()


class TestAdaptivePlatformMatchesScalarPath:
    def _run(self, policy):
        dataset = binary_dataset(600, 20, rng=np.random.default_rng(7))
        pool = make_worker_pool(
            14, np.random.default_rng(3), error_rate=0.03,
            spammer_fraction=0.3, spammer_error_rate=0.5,
            adversary_fraction=0.15,
        )
        platform = CrowdPlatform(
            dataset, pool, np.random.default_rng(11), reliability=policy
        )
        query_rng = np.random.default_rng(42)
        drained = []
        for hit in range(260):
            if hit % 20 == 19:
                platform.publish_point_query(PointQuery(int(query_rng.integers(600))))
            else:
                indices = query_rng.choice(600, size=int(query_rng.integers(1, 20)),
                                           replace=False)
                platform.publish_set_query(
                    SetQuery(np.asarray(indices, dtype=np.int64), FEMALE)
                )
            if hit % 50 == 49:
                drained.append(platform.drain_set_votes())
        records = [
            (r.worker_ids, r.answers, r.aggregated, r.truth, r.price)
            for r in platform.hit_records
        ]
        ledger = platform.ledger
        totals = (ledger.n_set_hits, ledger.n_point_hits, ledger.n_assignments,
                  ledger.worker_payments, ledger.service_fees)
        return records, totals, drained, json.dumps(policy.state_dict())

    def test_same_verdicts_bills_votes_and_state(self):
        # Heavy exploration routes votes to spammers, so they get flagged.
        kwargs = dict(log_odds_threshold=3.5, probation_interval=3, exploration=2.0)
        policy = AdaptiveAssignmentPolicy(**kwargs)
        reference = self._run(_ScalarPolicy(**kwargs))
        assert self._run(policy) == reference
        report = policy.report()
        assert report.n_quarantines > 0 and report.n_probes > 0
        assert report.n_workers == 14
