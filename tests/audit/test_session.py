"""AuditSession behavior: binding, budgets, progress, run_many, warnings."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.audit import (
    AuditProgress,
    AuditSession,
    BaseAuditSpec,
    GroupAuditSpec,
    MultipleAuditSpec,
)
from repro.core.group_coverage import group_coverage
from repro.core.multiple_coverage import multiple_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")
MALE = group(gender="male")


@pytest.fixture
def dataset():
    return binary_dataset(2000, 25, rng=np.random.default_rng(3))


class TestBinding:
    def test_dataset_size_inferred_from_oracle(self, dataset):
        with AuditSession(GroundTruthOracle(dataset)) as session:
            assert session.dataset_size == len(dataset)
            report = session.run(GroupAuditSpec(predicate=FEMALE, tau=30))
        assert report.result.count == 25

    def test_explicit_dataset_size_wins(self, dataset):
        with AuditSession(GroundTruthOracle(dataset), dataset_size=100) as session:
            report = session.run(GroupAuditSpec(predicate=FEMALE, tau=5))
        # Only the first 100 objects were searched.
        assert all(index < 100 for index in report.result.discovered_indices)

    def test_engine_true_builds_engine_over_session(self, dataset):
        with AuditSession(
            GroundTruthOracle(dataset), engine=True, batch_size=16, speculation=0
        ) as session:
            assert isinstance(session.engine, QueryEngine)
            assert session.engine.batch_size == 16
            assert session.engine.speculation == 0

    def test_adopting_foreign_engine_is_rejected(self, dataset):
        other_oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(other_oracle)
        with pytest.raises(InvalidParameterError):
            AuditSession(GroundTruthOracle(dataset), engine=engine)

    def test_adopting_own_engine_is_accepted(self, dataset):
        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(oracle)
        with AuditSession(oracle, engine=engine) as session:
            assert session.engine is engine
            report = session.run(GroupAuditSpec(predicate=FEMALE, tau=30))
        assert report.engine_stats is not None
        assert report.engine_stats.oracle_round_trips > 0

    def test_batch_size_requires_engine_true(self, dataset):
        with pytest.raises(InvalidParameterError):
            AuditSession(GroundTruthOracle(dataset), batch_size=8)

    def test_seed_and_rng_are_mutually_exclusive(self, dataset):
        with pytest.raises(InvalidParameterError):
            AuditSession(
                GroundTruthOracle(dataset),
                seed=1,
                rng=np.random.default_rng(1),
            )

    def test_rng_required_for_sampling_specs(self, dataset):
        with AuditSession(GroundTruthOracle(dataset)) as session:
            with pytest.raises(InvalidParameterError, match="seed=.*or rng="):
                session.run(MultipleAuditSpec(groups=(FEMALE, MALE), tau=10))

    def test_task_budget_installed_and_restored(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=7777)
        with AuditSession(oracle, task_budget=50) as session:
            assert oracle.ledger.budget == 50
            assert session.task_budget == 50
        assert oracle.ledger.budget == 7777


class TestViewValidation:
    def test_duplicate_view_index_rejected(self):
        dataset = binary_dataset(100, 100, placement="front")
        oracle = GroundTruthOracle(dataset)
        spec = GroupAuditSpec(predicate=FEMALE, tau=5, n=2, view=(5, 5, 5, 5, 6, 7))
        with AuditSession(oracle) as session:
            with pytest.raises(InvalidParameterError, match="more than once"):
                session.run(spec)
        assert oracle.ledger.total == 0


class TestRunMany:
    def test_cross_spec_dedup_on_one_engine(self, dataset):
        """Two identical group specs in one batch pay once."""
        oracle = GroundTruthOracle(dataset)
        with AuditSession(oracle, engine=True) as session:
            batch = session.run_many(
                [
                    GroupAuditSpec(predicate=FEMALE, tau=30),
                    GroupAuditSpec(predicate=FEMALE, tau=30),
                ]
            )
        first, second = batch.results
        assert (first.covered, first.count) == (second.covered, second.count)
        # The second spec's questions were all in flight already.
        assert second.tasks.n_set_queries == 0
        assert batch.engine_stats.deduped_queries >= first.tasks.n_set_queries

        # Solo run for comparison: the batch cost one spec's bill, not two.
        solo_oracle = GroundTruthOracle(dataset)
        with AuditSession(solo_oracle, engine=True) as solo:
            solo.run(GroupAuditSpec(predicate=FEMALE, tau=30))
        assert oracle.ledger.total == solo_oracle.ledger.total

    def test_mixed_specs_keep_input_order(self, dataset):
        with AuditSession(GroundTruthOracle(dataset), engine=True) as session:
            batch = session.run_many(
                [
                    BaseAuditSpec(predicate=FEMALE, tau=5),
                    GroupAuditSpec(predicate=FEMALE, tau=30),
                    GroupAuditSpec(predicate=MALE, tau=10),
                ]
            )
        kinds = [type(entry.spec).__name__ for entry in batch.entries]
        assert kinds == ["BaseAuditSpec", "GroupAuditSpec", "GroupAuditSpec"]
        assert batch.results[2].covered  # males are the majority

    def test_attributed_tasks_sum_to_engine_dispatch(self, dataset):
        with AuditSession(GroundTruthOracle(dataset), engine=True) as session:
            batch = session.run_many(
                [
                    GroupAuditSpec(predicate=FEMALE, tau=30),
                    GroupAuditSpec(predicate=MALE, tau=10),
                ]
            )
        attributed = sum(result.tasks.n_set_queries for result in batch.results)
        assert attributed == batch.engine_stats.dispatched_queries
        assert attributed == batch.tasks.n_set_queries


class TestProgress:
    def test_progress_events_bracket_the_run(self, dataset):
        events: list[AuditProgress] = []
        spec = GroupAuditSpec(predicate=FEMALE, tau=30)
        with AuditSession(
            GroundTruthOracle(dataset), engine=True, progress=events.append
        ) as session:
            report = session.run(spec)
        stages = [event.stage for event in events]
        assert stages[0] == "start"
        assert stages[-1] == "finish"
        assert stages.count("round") == report.engine_stats.scheduler_rounds
        assert events[-1].tasks == report.tasks.total
        # Monotone progress totals.
        rounds = [event.tasks for event in events if event.stage == "round"]
        assert rounds == sorted(rounds)

    def test_per_run_callback_overrides_session_default(self, dataset):
        session_events, run_events = [], []
        with AuditSession(
            GroundTruthOracle(dataset), progress=session_events.append
        ) as session:
            session.run(
                GroupAuditSpec(predicate=FEMALE, tau=5),
                on_progress=run_events.append,
            )
        assert not session_events
        assert run_events

    def test_sequential_round_events_count_oracle_asks(self, dataset):
        events: list[AuditProgress] = []
        with AuditSession(GroundTruthOracle(dataset)) as session:
            report = session.run(
                GroupAuditSpec(predicate=FEMALE, tau=30),
                on_progress=events.append,
            )
        rounds = [event for event in events if event.stage == "round"]
        assert len(rounds) == report.tasks.total


class TestLegacyDeprecation:
    def test_adhoc_engine_inside_active_session_warns_once(self, dataset):
        oracle = GroundTruthOracle(dataset)
        adhoc = QueryEngine(oracle)
        with AuditSession(oracle, engine=True) as session:
            with pytest.warns(
                DeprecationWarning,
                match=r"group_coverage\(\) called with an ad-hoc engine= while "
                r"an AuditSession is active on the same oracle",
            ):
                group_coverage(
                    oracle, FEMALE, 30, dataset_size=len(dataset), engine=adhoc
                )
            # Once per session: the second call stays silent.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                group_coverage(
                    oracle, FEMALE, 30, dataset_size=len(dataset), engine=adhoc
                )

    def test_warning_is_suppressible(self, dataset):
        oracle = GroundTruthOracle(dataset)
        adhoc = QueryEngine(oracle)
        with AuditSession(oracle, engine=True) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                result = group_coverage(
                    oracle, FEMALE, 30, dataset_size=len(dataset), engine=adhoc
                )
        assert result.count == 25

    def test_sessions_own_engine_does_not_warn(self, dataset):
        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(oracle)
        with AuditSession(oracle, engine=engine):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                group_coverage(
                    oracle, FEMALE, 30, dataset_size=len(dataset), engine=engine
                )

    def test_no_warning_without_active_session(self, dataset):
        oracle = GroundTruthOracle(dataset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            group_coverage(
                oracle,
                FEMALE,
                30,
                dataset_size=len(dataset),
                engine=QueryEngine(oracle),
            )

    def test_multiple_coverage_warns_too(self):
        counts = {"white": 500, "black": 40}
        ds = single_attribute_dataset(counts, rng=np.random.default_rng(2))
        oracle = GroundTruthOracle(ds)
        adhoc = QueryEngine(oracle)
        with AuditSession(oracle, engine=True):
            with pytest.warns(DeprecationWarning, match="multiple_coverage"):
                multiple_coverage(
                    oracle,
                    [group(race=v) for v in counts],
                    30,
                    rng=np.random.default_rng(0),
                    dataset_size=len(ds),
                    engine=adhoc,
                )


def test_session_exposes_sharded_membership_index(dataset):
    sharded = ShardedDataset.from_dataset(dataset, 512)
    oracle = GroundTruthOracle(sharded)
    with AuditSession(oracle) as session:
        assert isinstance(session.membership_index, ShardedMembershipIndex)
        assert session.dataset_size == len(dataset)
