"""Unit tests for the oracle layer (ledgers, budgets, three backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.group_coverage import GroupCoverageStepper, run_sequential
from repro.crowd.oracle import (
    CrowdOracle,
    FlakyOracle,
    GroundTruthOracle,
    TaskLedger,
    scan_asked,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import Worker, make_worker_pool
from repro.data.dataset import LabeledDataset
from repro.data.groups import Negation, group
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset
from repro.data.synthetic import binary_dataset
from repro.engine.requests import IndexKey, set_query_key
from repro.errors import BudgetExceededError, InvalidParameterError, OracleError

FEMALE = group(gender="female")


@pytest.fixture
def dataset(rng):
    return binary_dataset(50, 10, rng=rng)


class TestTaskLedger:
    def test_counting(self):
        ledger = TaskLedger()
        ledger.charge_set()
        ledger.charge_set()
        ledger.charge_point()
        assert (ledger.n_set_queries, ledger.n_point_queries, ledger.total) == (2, 1, 3)

    def test_budget_enforcement(self):
        ledger = TaskLedger(budget=2)
        ledger.charge_set()
        ledger.charge_point()
        with pytest.raises(BudgetExceededError):
            ledger.charge_set()

    def test_round_counting(self):
        ledger = TaskLedger()
        ledger.note_round()
        ledger.charge_set_batch(5)
        assert (ledger.n_rounds, ledger.n_set_queries) == (1, 5)

    def test_batch_budget_is_atomic(self):
        ledger = TaskLedger(budget=10)
        ledger.charge_set_batch(5)
        with pytest.raises(BudgetExceededError):
            ledger.charge_set_batch(7)
        # The refused batch charged nothing.
        assert ledger.n_set_queries == 5
        ledger.charge_point_batch(5)  # exactly exhausts the budget
        assert ledger.total == 10


class TestBatchQueries:
    def test_set_batch_matches_single_asks(self, dataset, rng):
        batched = GroundTruthOracle(dataset)
        single = GroundTruthOracle(dataset)
        queries = [
            (rng.choice(len(dataset), size=int(rng.integers(1, 8)), replace=False), FEMALE)
            for _ in range(20)
        ]
        queries.append((np.arange(len(dataset)), group(gender="male")))
        answers = batched.ask_set_batch([set_query_key(i, p) for i, p in queries])
        assert answers == [single.ask_set(i, p) for i, p in queries]

    def test_batch_charges_per_query_but_one_round(self, dataset):
        oracle = GroundTruthOracle(dataset)
        oracle.ask_set_batch([set_query_key(np.arange(5), FEMALE)] * 7)
        assert oracle.ledger.n_set_queries == 7
        assert oracle.ledger.n_rounds == 1

    def test_point_batch_matches_single_asks(self, dataset):
        batched = GroundTruthOracle(dataset)
        single = GroundTruthOracle(dataset)
        indices = [0, 3, 17, 49]
        codes = batched.ask_point_batch(indices)
        assert codes.dtype == np.int16
        assert codes.tolist() == dataset.schema.encode_rows(map(single.ask_point, indices)).tolist()
        assert batched.ledger.n_point_queries == 4
        assert batched.ledger.n_rounds == 1

    @pytest.mark.parametrize("indices", [[], [3], [1, 2, 5]])
    @pytest.mark.parametrize("kind", ["ground-truth", "flaky"])
    def test_point_batch_takes_numpy_arrays_like_lists(self, dataset, indices, kind):
        def make():
            if kind == "flaky":
                return FlakyOracle(
                    dataset, np.random.default_rng(0), point_error_rate=0.5
                )
            return GroundTruthOracle(dataset)

        from_list, from_array = make(), make()
        codes = from_array.ask_point_batch(np.array(indices, dtype=np.int64))
        np.testing.assert_array_equal(codes, from_list.ask_point_batch(list(indices)))
        assert (codes.dtype, codes.shape) == (np.int16, (len(indices), 1))
        assert (from_array.ledger.n_point_queries, from_array.ledger.n_rounds) == (
            from_list.ledger.n_point_queries, from_list.ledger.n_rounds,
        )

    def test_empty_batches_are_free(self, dataset):
        oracle = GroundTruthOracle(dataset)
        assert oracle.ask_set_batch([]) == []
        assert oracle.ask_point_batch([]).shape == (0, dataset.schema.n_attributes)
        assert oracle.ledger.total == 0
        assert oracle.ledger.n_rounds == 0

    def test_unaffordable_batch_charges_nothing(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=3)
        with pytest.raises(BudgetExceededError):
            oracle.ask_set_batch([set_query_key(np.arange(5), FEMALE)] * 4)
        assert oracle.ledger.total == 0

    def test_flaky_batch_error_rate(self, dataset):
        oracle = FlakyOracle(
            dataset, np.random.default_rng(0), set_error_rate=1.0
        )
        truth = GroundTruthOracle(dataset)
        queries = [
            set_query_key(np.arange(10), FEMALE), set_query_key(np.arange(10, 20), FEMALE)
        ]
        flipped = oracle.ask_set_batch(queries)
        straight = truth.ask_set_batch(queries)
        assert flipped == [not answer for answer in straight]

    def test_flaky_point_batch_reads_the_per_point_stream(self):
        """A flip draws one pick among the attribute's other values; with
        three or more values the pick matters, and single and batched
        answers must read the same draws and leave the same stream."""
        schema = Schema.from_dict({"gender": ["male", "female"], "age": ["0", "1", "2", "3"]})
        codes = np.random.default_rng(3).integers(0, [2, 4], size=(60, 2)).astype(np.int16)
        dataset = LabeledDataset(schema, codes)
        indices = list(range(0, 60, 2))
        looping = FlakyOracle(dataset, np.random.default_rng(8), point_error_rate=0.4)
        batching = FlakyOracle(dataset, np.random.default_rng(8), point_error_rate=0.4)
        labels = [looping.ask_point(index) for index in indices]
        batched = batching.ask_point_batch(indices)
        assert schema.decode_rows(batched) == labels
        assert (batched != codes[indices]).any(axis=0).all()  # both attributes flipped
        assert looping.rng.random() == batching.rng.random()


class TestIndexKeyBoundary:
    """The oracle keys every set query once; hooks receive that key."""

    @staticmethod
    def set_hook_oracle(dataset, seen):
        class Recording(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                seen.append(index_key)
                return super()._answer_set(indices, predicate, index_key)

        return Recording(dataset)

    @staticmethod
    def batch_hook_oracle(dataset, seen):
        class Recording(GroundTruthOracle):
            def _answer_set_batch(self, queries):
                seen.extend(index_key for _, index_key in queries)
                return super()._answer_set_batch(queries)

        return Recording(dataset)

    QUERIES = [np.arange(5, 15), np.array([2, 9, 4]), np.empty(0, dtype=np.int64)]

    def test_unkeyed_ask_set_passes_the_interned_key(self, dataset):
        seen = []
        oracle = self.set_hook_oracle(dataset, seen)
        for indices in self.QUERIES:
            oracle.ask_set(indices, FEMALE)
        assert len(seen) == len(self.QUERIES)
        for indices, key in zip(self.QUERIES, seen):
            assert key is IndexKey.of(indices)

    def test_ask_set_batch_passes_the_interned_keys(self, dataset):
        for make in (self.set_hook_oracle, self.batch_hook_oracle):
            seen = []
            make(dataset, seen).ask_set_batch(
                [set_query_key(indices, FEMALE) for indices in self.QUERIES]
            )
            assert len(seen) == len(self.QUERIES)
            for indices, key in zip(self.QUERIES, seen):
                assert key is IndexKey.of(indices)

    def test_a_callers_key_reaches_the_hook_unchanged(self, dataset):
        # Equal to the interned run key but a distinct object, so identity
        # shows the oracle forwarded it rather than re-deriving one.
        own = IndexKey(5, 15, None)
        assert own == IndexKey.of_run(5, 15) and own is not IndexKey.of_run(5, 15)
        indices = np.arange(5, 15)
        seen = []
        self.set_hook_oracle(dataset, seen).ask_set(
            indices, FEMALE, key=(FEMALE, own)
        )
        assert seen[0] is own
        for make in (self.set_hook_oracle, self.batch_hook_oracle):
            seen = []
            make(dataset, seen).ask_set_batch(
                [(FEMALE, own), set_query_key(indices, FEMALE)]
            )
            assert seen[0] is own and seen[1] is IndexKey.of_run(5, 15)


class TestGroundTruthOracle:
    def test_set_answers_match_ground_truth(self, dataset):
        oracle = GroundTruthOracle(dataset)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:3], FEMALE) is True
        males = dataset.positions(group(gender="male"))
        assert oracle.ask_set(males[:5], FEMALE) is False

    def test_negated_predicate(self, dataset):
        oracle = GroundTruthOracle(dataset)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:4], Negation(FEMALE)) is False

    def test_point_answers(self, dataset):
        oracle = GroundTruthOracle(dataset)
        index = int(dataset.positions(FEMALE)[0])
        assert oracle.ask_point(index) == {"gender": "female"}
        assert oracle.ask_point_membership(index, FEMALE) is True

    def test_tasks_are_charged(self, dataset):
        oracle = GroundTruthOracle(dataset)
        oracle.ask_set([0, 1], FEMALE)
        oracle.ask_point(0)
        oracle.ask_point_membership(1, FEMALE)
        assert oracle.ledger.n_set_queries == 1
        assert oracle.ledger.n_point_queries == 2

    def test_budget(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=1)
        oracle.ask_point(0)
        with pytest.raises(BudgetExceededError):
            oracle.ask_point(1)

    def test_out_of_range_point(self, dataset):
        with pytest.raises(OracleError):
            GroundTruthOracle(dataset).ask_point(999)


class TestCrowdOracle:
    def test_delegates_to_platform(self, dataset, rng):
        workers = [Worker(worker_id=i, set_error_rate=0.0, point_error_rate=0.0) for i in range(3)]
        platform = CrowdPlatform(dataset, workers, rng)
        oracle = CrowdOracle(platform)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:2], FEMALE) is True
        assert oracle.ask_point(int(members[0])) == {"gender": "female"}
        # Oracle tasks and platform HITs agree 1:1.
        assert oracle.ledger.total == platform.ledger.n_hits == 2


class TestFlakyOracle:
    def test_zero_error_equals_ground_truth(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng)
        truth = GroundTruthOracle(dataset)
        for start in range(0, 50, 5):
            indices = list(range(start, start + 5))
            assert oracle.ask_set(indices, FEMALE) == truth.ask_set(indices, FEMALE)

    def test_full_error_always_flips(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng, set_error_rate=1.0)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:3], FEMALE) is False

    def test_point_errors_produce_valid_labels(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng, point_error_rate=1.0)
        answer = oracle.ask_point(0)
        assert answer["gender"] in {"male", "female"}
        assert answer != dataset.value_row(0)

    def test_invalid_rates(self, dataset, rng):
        with pytest.raises(InvalidParameterError):
            FlakyOracle(dataset, rng, set_error_rate=2.0)


class TestPointAndHookContracts:
    def test_point_batch_bounds_checked(self, dataset):
        """Batched point queries reject out-of-range indices like the
        single-query path instead of wrapping via fancy-indexing."""
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(OracleError):
            oracle.ask_point_batch([0, -1])
        with pytest.raises(OracleError):
            oracle.ask_point_batch([len(dataset)])

    def test_subclassed_point_hook_sees_batched_queries(self, dataset):
        """A subclass overriding only _answer_point must observe every
        batched point query, exactly like the set-hook contract."""
        seen: list[int] = []

        class Tracing(GroundTruthOracle):
            def _answer_point(self, index):
                seen.append(index)
                return super()._answer_point(index)

        class TracingFlaky(FlakyOracle):
            def _answer_point(self, index):
                seen.append(index)
                return super()._answer_point(index)

        Tracing(dataset).ask_point_batch([0, 1, 2, 3])
        assert seen == [0, 1, 2, 3]
        seen.clear()
        TracingFlaky(dataset, np.random.default_rng(0)).ask_point_batch([5, 6])
        assert seen == [5, 6]

    def test_subclassed_set_hook_sees_every_query(self, dataset):
        """Same contract for set queries, sequential and batched."""
        seen: list[tuple] = []

        class Tracing(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                seen.append((int(indices[0]), int(indices[-1])))
                return super()._answer_set(indices, predicate, index_key)

        oracle = Tracing(dataset)
        oracle.ask_set(np.arange(0, 10), FEMALE)
        oracle.ask_set_batch(
            [set_query_key(np.arange(10, 20), FEMALE), set_query_key(np.array([1, 5, 9]), FEMALE)]
        )
        assert seen == [(0, 9), (10, 19), (1, 9)]


def per_point_scan(oracle, indices, predicate, tau):
    """The loop :meth:`Oracle.scan_points` replaces: ask in order, stop
    after the tau-th member or when the budget is spent."""
    rows, members = [], 0
    for index in indices:
        if oracle.ledger.remaining == 0:
            break
        labels = oracle.ask_point(int(index))
        rows.append(labels)
        if tau is not None and predicate.matches_row(labels):
            members += 1
            if members == tau:
                break
    return rows


def oracle_state(oracle):
    """Ledger counters and the noise rng state an oracle leaves behind."""
    source = getattr(oracle, "platform", oracle)
    rng = getattr(source, "rng", None)
    return (
        oracle.ledger.n_point_queries,
        oracle.ledger.n_rounds,
        rng and rng.bit_generator.state,
        getattr(getattr(source, "ledger", None), "n_hits", None),
    )


class TestScanPoints:
    """``scan_points`` charges the points and rounds a per-point loop
    charges, leaves the same rng state and returns the same answers."""

    N = 2_000

    @pytest.fixture(scope="class")
    def scan_dataset(self):
        return binary_dataset(self.N, 60, rng=np.random.default_rng(8))

    def make(self, kind, dataset, budget=None):
        if kind == "dense":
            oracle = GroundTruthOracle(dataset, budget=budget)
        elif kind == "sharded":
            sharded = ShardedDataset.from_dataset(dataset, 300, max_resident_shards=2)
            oracle = GroundTruthOracle(sharded, budget=budget)
        elif kind == "flaky":
            oracle = FlakyOracle(
                dataset, np.random.default_rng(3), point_error_rate=0.2, budget=budget
            )
        elif kind == "crowd":
            workers = make_worker_pool(5, np.random.default_rng(4), error_rate=0.2)
            platform = CrowdPlatform(dataset, workers, np.random.default_rng(5))
            oracle = CrowdOracle(platform, budget=budget)
        else:

            class Hooked(GroundTruthOracle):
                def _answer_point(self, index):
                    self.seen.append(index)
                    return super()._answer_point(index)

            oracle = Hooked(dataset, budget=budget)
            oracle.seen = []
        # Small slices make a native scan cross slices and shards.
        oracle.SCAN_SLICE = 7
        return oracle

    def views(self):
        rng = np.random.default_rng(9)
        yield np.arange(self.N)
        yield rng.permutation(self.N)[:900]
        yield np.array([], dtype=np.int64)

    @pytest.mark.parametrize("kind", ["dense", "sharded", "flaky", "crowd", "hooked"])
    @pytest.mark.parametrize("tau", [None, 1, 7, 25, 10_000])
    def test_scan_equals_the_per_point_loop(self, scan_dataset, kind, tau):
        for view in self.views():
            scanning, looping = self.make(kind, scan_dataset), self.make(kind, scan_dataset)
            codes = scanning.scan_points(view, FEMALE, tau)
            rows = per_point_scan(looping, view, FEMALE, tau)
            assert codes.dtype == np.int16
            assert codes.shape == (len(rows), scanning.schema.n_attributes)
            assert scanning.schema.decode_rows(codes) == rows
            assert oracle_state(scanning) == oracle_state(looping)
            if kind == "hooked":
                assert scanning.seen == looping.seen == [int(i) for i in view[: len(rows)]]

    @pytest.mark.parametrize("kind", ["dense", "sharded", "flaky", "crowd", "hooked"])
    def test_budget_stops_the_scan_without_raising(self, scan_dataset, kind):
        scanning = self.make(kind, scan_dataset, budget=40)
        looping = self.make(kind, scan_dataset, budget=40)
        scanning.ask_set(np.arange(10), FEMALE)
        looping.ask_set(np.arange(10), FEMALE)
        codes = scanning.scan_points(np.arange(self.N), FEMALE, None)
        assert len(codes) == 39
        assert scanning.schema.decode_rows(codes) == per_point_scan(
            looping, np.arange(self.N), FEMALE, None
        )
        assert oracle_state(scanning) == oracle_state(looping)
        assert len(scanning.scan_points(np.arange(5), FEMALE, None)) == 0

    def test_native_scan_gathers_in_growing_slices(self, scan_dataset, monkeypatch):
        """An early stop gathers geometrically growing slices, never the
        whole view."""
        oracle = GroundTruthOracle(scan_dataset)
        oracle.SCAN_SLICE = 16
        index, gathered = oracle.membership_index, []
        gather = index.value_codes
        monkeypatch.setattr(index, "value_codes", lambda i: gathered.append(len(i)) or gather(i))
        first = int(scan_dataset.positions(FEMALE)[0])
        assert len(oracle.scan_points(np.arange(self.N), FEMALE, 1)) == first + 1
        assert gathered == [16 * 2**k for k in range(len(gathered))]
        assert sum(gathered[:-1]) <= first < sum(gathered)

    def test_tau_must_be_positive(self, scan_dataset):
        with pytest.raises(InvalidParameterError):
            GroundTruthOracle(scan_dataset).scan_points(np.arange(5), FEMALE, 0)

    def test_out_of_range_index_raises(self, scan_dataset):
        with pytest.raises(OracleError):
            GroundTruthOracle(scan_dataset).scan_points([0, self.N], FEMALE, None)


def per_query_set_scan(oracle, view, starts, stops, predicate, need, paired):
    """The loop :meth:`Oracle.scan_sets` replaces: ask each segment in
    order (a right half only after its left half's "yes"), stop after the
    need-th credited "yes" or when the budget is spent."""
    answers, credited = [], 0
    for position, (start, stop) in enumerate(zip(starts, stops)):
        right = paired and position % 2 == 1
        if right and not answers[-1]:
            answers.append(True)
            continue
        if oracle.ledger.remaining == 0:
            break
        answers.append(oracle.ask_set(view[start:stop], predicate))
        if answers[-1] and (right or not paired):
            credited += 1
            if credited == need:
                break
    return answers


def set_scan_state(oracle):
    """Set-query counters and the noise rng state an oracle leaves behind."""
    source = getattr(oracle, "platform", oracle)
    rng = getattr(source, "rng", None)
    return (
        oracle.ledger.n_set_queries,
        oracle.ledger.n_rounds,
        rng and rng.bit_generator.state,
        getattr(getattr(source, "ledger", None), "n_hits", None),
    )


class TestScanSets:
    """``scan_sets`` asks the queries a per-query loop asks, in its
    order, charges the same tasks and rounds, leaves the same rng state
    and returns the same answers."""

    N = 2_000

    @pytest.fixture(scope="class")
    def scan_dataset(self):
        return binary_dataset(self.N, 60, rng=np.random.default_rng(8))

    def make(self, kind, dataset, budget=None):
        if kind == "dense":
            return GroundTruthOracle(dataset, budget=budget)
        if kind == "sharded":
            sharded = ShardedDataset.from_dataset(dataset, 300, max_resident_shards=2)
            return GroundTruthOracle(sharded, budget=budget)
        if kind == "flaky":
            return FlakyOracle(
                dataset, np.random.default_rng(3), set_error_rate=0.2, budget=budget
            )
        if kind == "crowd":
            workers = make_worker_pool(5, np.random.default_rng(4), error_rate=0.2)
            platform = CrowdPlatform(dataset, workers, np.random.default_rng(5))
            return CrowdOracle(platform, budget=budget)

        class Hooked(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                self.seen.append((indices.tolist(), index_key))
                return super()._answer_set(indices, predicate, index_key)

        oracle = Hooked(dataset, budget=budget)
        oracle.seen = []
        return oracle

    def generations(self):
        """Roots and paired halves over ascending, sampled and shuffled views."""
        rng = np.random.default_rng(9)
        for view in (
            np.arange(self.N),
            np.sort(rng.choice(self.N, 900, replace=False)),
            rng.permutation(self.N)[:900],
        ):
            for n in (7, 64):
                starts = np.arange(0, len(view), n)
                stops = np.minimum(starts + n, len(view))
                yield view, starts, stops, False
                picked = np.sort(rng.choice(len(starts), 12, replace=False))
                begin, end = starts[picked], stops[picked]
                middle = (begin + end + 1) // 2
                yield (view, np.column_stack([begin, middle]).ravel(),
                       np.column_stack([middle, end]).ravel(), True)

    KINDS = ["dense", "sharded", "flaky", "crowd", "hooked"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("need", [None, 1, 3, 10_000])
    def test_scan_equals_the_per_query_loop(self, scan_dataset, kind, need):
        for view, starts, stops, paired in self.generations():
            scanning, looping = self.make(kind, scan_dataset), self.make(kind, scan_dataset)
            answers = scanning.scan_sets(view, starts, stops, FEMALE, need, paired=paired)
            expected = per_query_set_scan(looping, view, starts, stops, FEMALE, need, paired)
            assert answers.dtype == bool and answers.tolist() == expected
            assert set_scan_state(scanning) == set_scan_state(looping)
            asked = np.flatnonzero(scan_asked(answers, paired))
            assert scanning.ledger.n_set_queries == len(asked)
            if kind == "hooked":
                # Every asked segment, in order, under its exact key.
                assert scanning.seen == looping.seen == [
                    (view[a:b].tolist(), IndexKey.of(view[a:b]))
                    for a, b in zip(starts[asked], stops[asked])
                ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_known_view_order_gives_the_same_scan(self, scan_dataset, kind):
        for view, starts, stops, paired in self.generations():
            ascending = bool((view[1:] > view[:-1]).all())
            told, checked = self.make(kind, scan_dataset), self.make(kind, scan_dataset)
            answers = told.scan_sets(
                view, starts, stops, FEMALE, None, paired=paired, ascending=ascending
            )
            expected = checked.scan_sets(view, starts, stops, FEMALE, None, paired=paired)
            assert answers.tolist() == expected.tolist()
            assert set_scan_state(told) == set_scan_state(checked)

    def test_the_stepper_passes_its_view_order(self, scan_dataset):
        oracle = GroundTruthOracle(scan_dataset)
        scan_sets, seen = oracle.scan_sets, []

        def recorded(*args, **kwargs):
            seen.append(kwargs["ascending"])
            return scan_sets(*args, **kwargs)

        oracle.scan_sets = recorded
        for view, ascending in [
            (np.arange(self.N), True),
            (np.random.default_rng(3).permutation(self.N), False),
        ]:
            seen.clear()
            run_sequential(oracle, [GroupCoverageStepper(FEMALE, 5, n=64, view=view)])
            assert seen and set(seen) == {ascending}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("paired", [False, True])
    def test_budget_cut_inside_a_generation(self, scan_dataset, kind, paired):
        view, starts, stops, _ = next(
            g for g in self.generations() if g[3] == paired and len(g[1]) > 20
        )
        scanning = self.make(kind, scan_dataset, budget=8)
        looping = self.make(kind, scan_dataset, budget=8)
        scanning.ask_point(0)
        looping.ask_point(0)
        answers = scanning.scan_sets(view, starts, stops, FEMALE, None, paired=paired)
        expected = per_query_set_scan(looping, view, starts, stops, FEMALE, None, paired)
        assert answers.tolist() == expected and len(expected) < len(starts)
        assert scan_asked(answers, paired).sum() == 7 == scanning.ledger.n_set_queries
        assert set_scan_state(scanning) == set_scan_state(looping)
        assert len(scanning.scan_sets(view, starts[:4], stops[:4], FEMALE, None)) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_budget_cut_raises_the_per_query_error(self, scan_dataset, kind):
        """A sequential run the budget cuts mid-generation raises the
        error text the per-query loop raised, with the same bill."""
        errors, states = [], []
        for drive in ("scan", "loop"):
            oracle = self.make(kind, scan_dataset, budget=37)
            stepper = GroupCoverageStepper(FEMALE, 60, n=16, view=np.arange(self.N))
            with pytest.raises(BudgetExceededError) as raised:
                if drive == "scan":
                    run_sequential(oracle, [stepper])
                while drive == "loop":
                    batch = stepper.pending(limit=1)
                    (index_key,) = batch.keys
                    answer = oracle.ask_set(
                        index_key.to_array(), FEMALE, key=(FEMALE, index_key)
                    )
                    stepper.feed(batch.positions, [answer])
            errors.append(str(raised.value))
            states.append(set_scan_state(oracle))
        assert errors[0] == errors[1] and states[0] == states[1]

    def test_arguments_are_checked(self, scan_dataset):
        oracle = GroundTruthOracle(scan_dataset)
        view = np.arange(10)
        for starts, stops, need, paired in [
            ([0], [5], 0, False),  # need must be positive
            ([0, 5], [5], None, False),  # one stop per start
            ([0], [5], None, True),  # whole pairs
            ([3], [3], None, False),  # empty segment
            ([5], [11], None, False),  # past the view
        ]:
            with pytest.raises(InvalidParameterError):
                oracle.scan_sets(view, starts, stops, FEMALE, need, paired=paired)
        assert oracle.ledger.total == 0
