"""Unit tests for the batched query-execution engine."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.group_coverage import (
    GroupCoverageStepper,
    group_coverage,
    run_sequential,
)
from repro.core.multiple_coverage import multiple_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.engine import AnswerCache, QueryEngine
from repro.errors import BudgetExceededError, InvalidParameterError

FEMALE = group(gender="female")


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(2000, 30, rng=np.random.default_rng(7))


def fresh_engine(dataset, **kwargs):
    oracle = GroundTruthOracle(dataset)
    return oracle, QueryEngine(oracle, **kwargs)


def make_stepper(dataset, tau=50, n=50):
    return GroupCoverageStepper(
        FEMALE, tau, n=n, view=np.arange(len(dataset), dtype=np.int64)
    )


class TestConstruction:
    def test_batch_size_must_be_positive(self, dataset):
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            QueryEngine(oracle, batch_size=0)

    def test_engine_must_wrap_the_same_oracle(self, dataset):
        oracle = GroundTruthOracle(dataset)
        other = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            group_coverage(
                oracle, FEMALE, 5, dataset_size=len(dataset),
                engine=QueryEngine(other),
            )


class TestBatching:
    def test_round_trips_bounded_by_batches_not_queries(self, dataset):
        oracle, engine = fresh_engine(dataset, batch_size=1000)
        stepper = make_stepper(dataset)
        engine.run([stepper])
        assert stepper.done
        assert oracle.ledger.n_rounds == engine.scheduler_rounds
        assert oracle.ledger.n_rounds < oracle.ledger.n_set_queries

    def test_batch_size_one_degenerates_to_one_query_per_round_trip(self, dataset):
        oracle, engine = fresh_engine(dataset, batch_size=1)
        engine.run([make_stepper(dataset)])
        assert oracle.ledger.n_rounds == oracle.ledger.n_set_queries

    def test_uncovered_run_dispatches_exactly_the_sequential_queries(self, dataset):
        sequential = GroundTruthOracle(dataset)
        reference = group_coverage(sequential, FEMALE, 50, dataset_size=len(dataset))
        assert not reference.covered
        oracle, engine = fresh_engine(dataset, batch_size=16)
        engine.run([make_stepper(dataset)])
        assert oracle.ledger.n_set_queries == reference.tasks.n_set_queries


class TestDedupAcrossRuns:
    def test_identical_concurrent_runs_pay_once(self, dataset):
        oracle, engine = fresh_engine(dataset, batch_size=32)
        first, second = make_stepper(dataset), make_stepper(dataset)
        engine.run([first, second])
        solo = GroundTruthOracle(dataset)
        reference = group_coverage(solo, FEMALE, 50, dataset_size=len(dataset))
        assert (first.covered, first.count) == (second.covered, second.count)
        assert (first.covered, first.count) == (reference.covered, reference.count)
        # Every query the second run wanted was already in flight for the
        # first: one oracle task per distinct question.
        assert oracle.ledger.n_set_queries == reference.tasks.n_set_queries
        assert engine.deduped_queries == reference.tasks.n_set_queries

    def test_cache_hits_across_sequential_reruns(self, dataset):
        oracle, engine = fresh_engine(dataset, batch_size=32)
        engine.run([make_stepper(dataset)])
        dispatched_first = engine.dispatched_queries
        tasks_after_first = oracle.ledger.n_set_queries
        engine.run([make_stepper(dataset)])
        # The rerun is answered fully from the cache: no new oracle tasks.
        assert oracle.ledger.n_set_queries == tasks_after_first
        assert engine.dispatched_queries == dispatched_first
        assert engine.cache.hits >= dispatched_first


class TestCacheAccounting:
    def test_misses_equal_dispatches_on_cold_cache(self, dataset):
        _, engine = fresh_engine(dataset, batch_size=32)
        engine.run([make_stepper(dataset)])
        assert engine.cache.misses == engine.dispatched_queries
        assert engine.cache.hits == 0

    def test_stats_since_snapshot_isolates_one_run(self, dataset):
        oracle, engine = fresh_engine(dataset, batch_size=32)
        engine.run([make_stepper(dataset)])
        snapshot = engine.snapshot()
        engine.run([make_stepper(dataset)])
        stats = engine.stats_since(snapshot)
        assert stats.dispatched_queries == 0
        assert stats.cache_misses == 0
        assert stats.cache_hits > 0
        assert stats.oracle_round_trips == 0

    def test_shared_cache_across_engines(self, dataset):
        cache = AnswerCache()
        oracle_a = GroundTruthOracle(dataset)
        QueryEngine(oracle_a, cache=cache).run([make_stepper(dataset)])
        oracle_b = GroundTruthOracle(dataset)
        QueryEngine(oracle_b, cache=cache).run([make_stepper(dataset)])
        assert oracle_b.ledger.n_set_queries == 0

    def test_shared_cache_across_datasets_rejected(self, dataset):
        cache = AnswerCache()
        QueryEngine(GroundTruthOracle(dataset), cache=cache)
        other = binary_dataset(100, 5, rng=np.random.default_rng(1))
        with pytest.raises(InvalidParameterError):
            QueryEngine(GroundTruthOracle(other), cache=cache)


def engine_driver(oracle):
    return QueryEngine(oracle, batch_size=32).run


def sequential_driver(oracle):
    return functools.partial(run_sequential, oracle)


#: Both drivers honour one contract: steppers in, ``on_complete`` may
#: spawn follow-ups, ``on_round`` reports progress.
DRIVERS = pytest.mark.parametrize(
    "make_driver", [engine_driver, sequential_driver], ids=["engine", "sequential"]
)


class TestCompletionHooks:
    @DRIVERS
    def test_on_complete_can_spawn_follow_up_steppers(self, dataset, make_driver):
        run = make_driver(GroundTruthOracle(dataset))
        spawned = []

        def on_complete(stepper):
            if not spawned:
                follow_up = make_stepper(dataset, tau=10)
                spawned.append(follow_up)
                return [follow_up]
            return None

        run([make_stepper(dataset)], on_complete=on_complete)
        assert spawned and spawned[0].done

    @DRIVERS
    def test_born_done_stepper_completes_without_queries(self, dataset, make_driver):
        oracle = GroundTruthOracle(dataset)
        run = make_driver(oracle)
        stepper = make_stepper(dataset, tau=0)
        finished = []
        run([stepper], on_complete=finished.append)
        assert finished == [stepper]
        assert oracle.ledger.n_set_queries == 0


class TestSequentialDriver:
    def test_spawned_steppers_finish_before_the_next_root_starts(self, dataset):
        events = []
        names = {}

        def named(name, tau):
            events.append(f"{name} built")
            stepper = make_stepper(dataset, tau=tau)
            names[stepper] = name
            scan = stepper.scan

            def logged_scan(oracle):
                if events[-1] != name:
                    events.append(name)
                return scan(oracle)

            stepper.scan = logged_scan
            return stepper

        children = {"a": [("a1", 3), ("a2", 2)], "a1": [("a1x", 1)]}

        def on_complete(stepper):
            name = names[stepper]
            events.append(f"{name} done")
            return (named(child, tau) for child, tau in children.get(name, ()))

        roots = (named(name, tau) for name, tau in [("a", 5), ("b", 4)])
        run_sequential(GroundTruthOracle(dataset), roots, on_complete=on_complete)
        # Depth first, and each stepper is drawn from its (lazy) iterable
        # only when it is about to run.
        assert events == [
            "a built", "a", "a done",
            "a1 built", "a1", "a1 done",
            "a1x built", "a1x", "a1x done",
            "a2 built", "a2", "a2 done",
            "b built", "b", "b done",
        ]

    def test_on_round_fires_once_per_generation_scan(self, dataset):
        oracle = GroundTruthOracle(dataset)
        rounds = []
        spawned = []
        scans = []
        scan_sets = oracle.scan_sets

        def counted_scan_sets(*args, **kwargs):
            scans.append(oracle.ledger.n_set_queries)
            return scan_sets(*args, **kwargs)

        oracle.scan_sets = counted_scan_sets

        def on_complete(stepper):
            if not spawned:
                spawned.append(make_stepper(dataset, tau=10))
                return spawned
            return None

        run_sequential(
            oracle,
            [make_stepper(dataset), make_stepper(dataset, tau=5)],
            on_complete=on_complete,
            on_round=lambda: rounds.append(oracle.ledger.n_set_queries),
        )
        asked = oracle.ledger.n_set_queries
        assert asked > 0
        # After each scan, and each scan asks: the counts strictly rise.
        assert len(rounds) == len(scans) > 3
        assert scans == [0, *rounds[:-1]] and rounds == sorted(set(rounds))
        assert rounds[-1] == asked == oracle.ledger.n_rounds

    def test_budget_exhaustion_propagates_and_charges_only_asked_queries(
        self, dataset
    ):
        oracle = GroundTruthOracle(dataset, budget=10)
        rounds = []
        stepper = make_stepper(dataset)
        with pytest.raises(BudgetExceededError):
            run_sequential(oracle, [stepper], on_round=lambda: rounds.append(1))
        assert not stepper.done
        assert rounds == []  # the cut scan of the 40 roots completes no round
        assert oracle.ledger.n_set_queries == oracle.ledger.n_rounds == 10


class TestStepperContract:
    def test_feeding_an_unrequested_answer_raises(self, dataset):
        stepper = make_stepper(dataset)
        with pytest.raises(InvalidParameterError):
            stepper.feed({(FEMALE, b"bogus"): True})

    def test_result_before_done_raises(self, dataset):
        stepper = make_stepper(dataset)
        with pytest.raises(InvalidParameterError):
            stepper.result()

    def test_pending_limit_one_returns_the_fifo_front(self, dataset):
        stepper = make_stepper(dataset)
        front = stepper.pending(limit=1)
        assert len(front) == 1
        # The front is now in flight: a second scan skips it rather than
        # re-emitting (a driver would double-pay the oracle otherwise).
        assert front[0].key not in {r.key for r in stepper.pending()}

    def test_partial_feed_does_not_reemit_in_flight_queries(self, dataset):
        oracle = GroundTruthOracle(dataset)
        stepper = make_stepper(dataset, tau=5)
        first_round = stepper.pending()
        assert len(first_round) > 1
        answered = first_round[0]
        stepper.feed({answered.key: oracle.ask_set(answered.indices, FEMALE)})
        emitted = {request.key for request in stepper.pending()}
        for still_waiting in first_round[1:]:
            assert still_waiting.key not in emitted

    def test_pending_capped_by_certification_deficit(self, dataset):
        stepper = make_stepper(dataset, tau=3)
        assert len(stepper.pending()) == 3

    def test_speculation_widens_the_frontier(self, dataset):
        stepper = GroupCoverageStepper(
            FEMALE, 1, n=50,
            view=np.arange(len(dataset), dtype=np.int64),
            speculation=16,
        )
        assert len(stepper.pending()) == 17  # deficit 1 + speculation 16

    def test_negative_speculation_rejected(self, dataset):
        with pytest.raises(InvalidParameterError):
            GroupCoverageStepper(
                FEMALE, 1, view=np.arange(10, dtype=np.int64), speculation=-1
            )

    def test_stepper_rejects_negative_view_indices(self):
        with pytest.raises(InvalidParameterError):
            GroupCoverageStepper(FEMALE, 1, view=np.array([0, -1, 2]))


class TestSpeculationEconomics:
    def test_small_tau_uncovered_still_batches(self):
        # The degenerate case for a naive deficit-only cap: tau=1 over a
        # memberless group forces ~N/n root queries; engine mode must
        # still batch them (at zero task overhead, since every query is
        # needed).
        dataset = binary_dataset(10_000, 0, rng=np.random.default_rng(0))
        sequential = GroundTruthOracle(dataset)
        reference = group_coverage(sequential, FEMALE, 1, dataset_size=len(dataset))
        oracle = GroundTruthOracle(dataset)
        result = group_coverage(
            oracle, FEMALE, 1, dataset_size=len(dataset),
            engine=QueryEngine(oracle, batch_size=64),
        )
        assert result.tasks.n_set_queries == reference.tasks.n_set_queries
        assert result.tasks.n_rounds * 10 < reference.tasks.n_rounds

    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_covered_run_waste_bounded_by_batch_size(self, batch_size):
        dataset = binary_dataset(3000, 170, rng=np.random.default_rng(3))
        for tau in (1, 10, 100):
            sequential = GroundTruthOracle(dataset)
            reference = group_coverage(sequential, FEMALE, tau, dataset_size=len(dataset))
            assert reference.covered
            oracle = GroundTruthOracle(dataset)
            result = group_coverage(
                oracle, FEMALE, tau, dataset_size=len(dataset),
                engine=QueryEngine(oracle, batch_size=batch_size),
            )
            waste = result.tasks.n_set_queries - reference.tasks.n_set_queries
            assert 0 <= waste <= batch_size


def test_engine_run_attaches_stats():
    dataset = binary_dataset(500, 10, rng=np.random.default_rng(0))
    oracle = GroundTruthOracle(dataset)
    result = group_coverage(
        oracle, FEMALE, 20, dataset_size=len(dataset),
        engine=QueryEngine(oracle),
    )
    assert result.engine_stats is not None
    assert result.engine_stats.dispatched_queries == result.tasks.n_set_queries
    sequential = group_coverage(
        GroundTruthOracle(dataset), FEMALE, 20, dataset_size=len(dataset)
    )
    assert sequential.engine_stats is None


def test_penalty_path_reuses_supergroup_pruning():
    # Six groups of 100 in a 20k dataset with tau=40: the sampled
    # estimates merge them, the merged super-group is covered, and the
    # per-member penalty re-runs hit the implied-negative cache.
    counts = {"maj": 20000 - 600, **{f"m{i}": 100 for i in range(6)}}
    dataset = single_attribute_dataset(counts, rng=np.random.default_rng(0))
    groups = [group(race=value) for value in counts]
    sequential = multiple_coverage(
        GroundTruthOracle(dataset), groups, 40,
        rng=np.random.default_rng(9), dataset_size=len(dataset),
    )
    engine_oracle = GroundTruthOracle(dataset)
    # speculation=0 isolates the cache effect: any task saving below
    # comes purely from implied-negative replay, not batching luck.
    engine = QueryEngine(engine_oracle, batch_size=32, speculation=0)
    batched = multiple_coverage(
        engine_oracle, groups, 40,
        rng=np.random.default_rng(9), dataset_size=len(dataset),
        engine=engine,
    )
    assert any(len(sg) > 1 for sg in batched.super_groups)
    for ours, theirs in zip(batched.entries, sequential.entries):
        assert (ours.covered, ours.count) == (theirs.covered, theirs.count)
    assert batched.engine_stats.cache_hits > 0
    assert batched.tasks.total < sequential.tasks.total
