"""Unit tests for LabelSamples and the labeled pool."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.audit import AuditSession, MultipleAuditSpec
from repro.audit.proxy import RecordingOracleProxy
from repro.core import sampling
from repro.core.multiple_coverage import execute_multiple_coverage
from repro.core.sampling import LabeledPool, label_samples
from repro.crowd.oracle import FlakyOracle, GroundTruthOracle
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.errors import BudgetExceededError, InvalidParameterError, UnknownGroupError

FEMALE = group(gender="female")


GENDER = Schema.from_dict({"gender": ["male", "female"]})
JOINT = Schema.from_dict({"gender": ["male", "female"], "race": ["white", "black", "asian"]})


def pool_of(schema: Schema, rows: dict[int, dict[str, str]]) -> LabeledPool:
    pool = LabeledPool(schema)
    pool.add(list(rows), schema.encode_rows(rows.values()))
    return pool


class TestLabeledPool:
    def test_count_and_members(self):
        pool = pool_of(GENDER, {3: {"gender": "female"}, 7: {"gender": "male"}})
        pool.add([9], GENDER.encode_rows([{"gender": "female"}]))
        assert pool.count(FEMALE) == 2
        assert pool.members(FEMALE) == (3, 9)
        assert len(pool) == 3
        assert 3 in pool and 4 not in pool

    def test_counts_compound_predicates(self):
        pool = pool_of(JOINT, {
            0: {"gender": "male", "race": "black"},
            1: {"gender": "male", "race": "asian"},
            2: {"gender": "female", "race": "white"},
        })
        sg = SuperGroup([group(race="black"), group(race="asian")])
        assert pool.count(sg) == 2
        assert pool.count(Negation(sg)) == 1

    def test_relabel_rejected(self):
        pool = pool_of(GENDER, {0: {"gender": "male"}})
        with pytest.raises(InvalidParameterError):
            pool.add([0], GENDER.encode_rows([{"gender": "female"}]))
        assert len(pool) == 1
        assert pool.count(FEMALE) == 0

    def test_index_repeated_in_one_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            pool_of(GENDER, {}).add([0, 0], GENDER.encode_rows([{"gender": "female"}] * 2))

    def test_empty_pool_counts_nothing(self):
        pool = LabeledPool(JOINT)
        assert pool.count(group(gender="female", race="asian")) == 0
        assert pool.members(FEMALE) == ()
        assert len(pool) == 0 and 0 not in pool

    def test_add_needs_one_code_row_per_index(self):
        with pytest.raises(InvalidParameterError):
            LabeledPool(GENDER).add([0, 1], GENDER.encode_rows([{"gender": "male"}]))

    def test_members_preserve_labeling_order(self):
        pool = pool_of(GENDER, {index: {"gender": "female"} for index in (9, 2, 7, 4)})
        assert pool.members(FEMALE) == (9, 2, 7, 4)

    def test_counts_match_row_at_a_time(self, rng):
        """The pool's masks agree with matches_row over every decoded row."""
        codes = np.column_stack([rng.integers(2, size=200), rng.integers(2, size=200)])
        pool = LabeledPool(JOINT)
        pool.add(np.arange(200), codes)  # "asian" is never labeled
        rows = JOINT.decode_rows(pool.codes)
        predicates = [
            FEMALE,
            group(gender="female", race="black"),
            SuperGroup([group(race="black"), group(race="asian")]),
            Negation(group(gender="male")),
            group(race="asian"),
        ]
        for predicate in predicates:
            expected = [index for index, labels in enumerate(rows) if predicate.matches_row(labels)]
            assert pool.count(predicate) == len(expected)
            assert pool.members(predicate) == tuple(expected)
        with pytest.raises(UnknownGroupError):
            pool.count(group(age="old"))  # an attribute outside the schema


class TestLabelSamples:
    def test_sample_size_and_view_shrink(self, rng):
        dataset = binary_dataset(200, 40, rng=rng)
        oracle = GroundTruthOracle(dataset)
        view, pool = label_samples(oracle, np.arange(200), tau=25, c=2.0, rng=rng)
        assert len(pool) == 50
        assert len(view) == 150
        assert oracle.ledger.n_point_queries == 50
        # Removed objects are exactly the labeled ones.
        assert set(np.arange(200)) - set(view.tolist()) == set(pool.indices.tolist())

    def test_sample_capped_at_view_size(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        view, pool = label_samples(oracle, np.arange(10), tau=50, c=2.0, rng=rng)
        assert len(pool) == 10
        assert len(view) == 0

    def test_c_zero_disables_sampling(self, rng):
        dataset = binary_dataset(50, 5, rng=rng)
        oracle = GroundTruthOracle(dataset)
        view, pool = label_samples(oracle, np.arange(50), tau=10, c=0.0, rng=rng)
        assert len(pool) == 0
        assert len(view) == 50
        assert oracle.ledger.total == 0

    def test_labels_match_ground_truth_under_perfect_oracle(self, rng):
        dataset = binary_dataset(100, 30, rng=rng)
        oracle = GroundTruthOracle(dataset)
        _, pool = label_samples(oracle, np.arange(100), tau=20, rng=rng)
        for index, labels in zip(pool.indices, dataset.schema.decode_rows(pool.codes)):
            assert labels == dataset.value_row(index)

    def test_extends_existing_pool(self, rng):
        dataset = binary_dataset(100, 30, rng=rng)
        oracle = GroundTruthOracle(dataset)
        view, pool = label_samples(oracle, np.arange(100), tau=10, rng=rng)
        view, pool2 = label_samples(oracle, view, tau=10, rng=rng, pool=pool)
        assert pool2 is pool
        assert len(pool) == 40

    def test_sample_overlapping_the_pool_rejected_before_any_query(self, rng):
        dataset = binary_dataset(100, 30, rng=rng)
        oracle = GroundTruthOracle(dataset)
        _, pool = label_samples(oracle, np.arange(100), tau=10, rng=rng)
        with pytest.raises(InvalidParameterError):
            label_samples(oracle, np.arange(100), tau=50, rng=rng, pool=pool)
        assert len(pool) == 20
        assert oracle.ledger.n_point_queries == 20

    def test_view_order_preserved(self, rng):
        dataset = binary_dataset(100, 10, rng=rng)
        oracle = GroundTruthOracle(dataset)
        view, _ = label_samples(oracle, np.arange(100), tau=10, rng=rng)
        assert (np.diff(view) > 0).all()

    def test_fractional_budget_rounds_up(self, rng):
        """Regression: int(round(c·tau)) banker's-rounded half-integer
        products down (c=2.5, tau=1 -> 2 samples, not 3); the paper's
        c·tau budget must round up."""
        dataset = binary_dataset(100, 10, rng=rng)
        oracle = GroundTruthOracle(dataset)
        _, pool = label_samples(oracle, np.arange(100), tau=1, c=2.5, rng=rng)
        assert len(pool) == 3
        assert oracle.ledger.n_point_queries == 3

    def test_float_artifacts_do_not_inflate_ceiling(self, rng):
        # 0.1 * 30 == 3.0000000000000004 in binary floating point; the
        # sample size must still be 3, not 4.
        dataset = binary_dataset(100, 10, rng=rng)
        oracle = GroundTruthOracle(dataset)
        _, pool = label_samples(oracle, np.arange(100), tau=30, c=0.1, rng=rng)
        assert len(pool) == 3

    def test_invalid_parameters(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            label_samples(oracle, np.arange(10), tau=-1, rng=rng)
        with pytest.raises(InvalidParameterError):
            label_samples(oracle, np.arange(10), tau=5, c=-1.0, rng=rng)


MULTIPLE = sys.modules[execute_multiple_coverage.__module__]
RACE_COUNTS = {"white": 1500, "g1": 60, "g2": 45, "g3": 35, "g4": 25, "g5": 12, "g6": 6, "g7": 3}
ORACLE_KINDS = ["truth", "flaky", "proxy"]


def per_point_labels(oracle, indices, *, batched):
    """The labeling loop point scans replaced: one ``ask_point`` per object."""
    assert not batched
    return oracle.schema.encode_rows([oracle.ask_point(int(index)) for index in indices])


def make_oracle(kind: str, dataset, budget: int | None):
    if kind == "flaky":
        return FlakyOracle(dataset, np.random.default_rng(4), point_error_rate=0.2, budget=budget)
    oracle = GroundTruthOracle(dataset, budget=budget)
    if kind == "proxy":
        oracle = RecordingOracleProxy(oracle)
        for index in range(0, 400, 7):  # held answers: replayed, never re-paid
            oracle.ask_point(index)
    return oracle


def outcome(oracle, run) -> tuple:
    """What a run leaves behind: its error, ledger, noise stream and
    recorded answers."""
    try:
        run()
        error = None
    except BudgetExceededError as raised:
        error = str(raised)
    ledger = oracle.ledger
    return (
        error,
        (ledger.n_set_queries, ledger.n_point_queries, ledger.n_rounds),
        repr(oracle.rng.bit_generator.state) if hasattr(oracle, "rng") else None,
        json.dumps(oracle.answer_log()) if hasattr(oracle, "answer_log") else None,
    )


class TestPointScansMatchThePerPointLoop:
    """Sequential labeling is one ``scan_points`` walk; under a task
    budget that runs out mid-walk it pays, records and raises exactly what
    the per-point loop did."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return single_attribute_dataset(RACE_COUNTS, attribute="race", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("budget", [70, 120, None])
    def test_label_samples(self, dataset, monkeypatch, kind, budget):
        def run(oracle):
            return lambda: label_samples(
                oracle, np.arange(len(dataset)), tau=50, rng=np.random.default_rng(1)
            )

        scanning = make_oracle(kind, dataset, budget)
        scanned = outcome(scanning, run(scanning))
        monkeypatch.setattr(sampling, "label_points", per_point_labels)
        looping = make_oracle(kind, dataset, budget)
        assert scanned == outcome(looping, run(looping))
        if budget == 70:
            assert scanned[0] == "task budget of 70 exhausted (0 set + 70 point queries)"

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("budget", [60, 150, 450, 700, None])
    def test_multiple_coverage(self, dataset, monkeypatch, kind, budget):
        """Budgets that end in the sample, in the super-group runs and
        in the member attribution, or never."""

        def run(oracle):
            return lambda: execute_multiple_coverage(
                oracle,
                [group(race=value) for value in RACE_COUNTS],
                50,
                rng=np.random.default_rng(3),
                dataset_size=len(dataset),
                attribute_supergroup_members=True,
            )

        scanning = make_oracle(kind, dataset, budget)
        scanned = outcome(scanning, run(scanning))
        monkeypatch.setattr(sampling, "label_points", per_point_labels)
        monkeypatch.setattr(MULTIPLE, "label_points", per_point_labels)
        looping = make_oracle(kind, dataset, budget)
        assert scanned == outcome(looping, run(looping))

    def test_session_checkpoints_the_paid_sample_prefix(self, dataset, monkeypatch):
        spec = MultipleAuditSpec(groups=tuple(group(race=value) for value in RACE_COUNTS), tau=50)

        def checkpoint() -> tuple:
            session = AuditSession(GroundTruthOracle(dataset), task_budget=70, seed=8)
            with pytest.raises(BudgetExceededError) as error:
                with session:
                    session.run(spec)
            return str(error.value), json.loads(session.checkpoint())["point_answers"]

        scanned = checkpoint()
        monkeypatch.setattr(sampling, "label_points", per_point_labels)
        assert scanned == checkpoint()
        assert scanned[0] == "task budget of 70 exhausted (0 set + 70 point queries)"
        assert len(scanned[1]) == 70

    def test_sample_loads_each_shard_at_most_once(self, dataset, monkeypatch):
        def loads() -> int:
            sharded = ShardedDataset.from_dataset(
                dataset, len(dataset) // 8 + 1, max_resident_shards=2
            )
            assert sharded.n_shards == 8
            oracle = GroundTruthOracle(sharded)
            before = sharded.stats.loads
            label_samples(oracle, np.arange(len(dataset)), tau=50, rng=np.random.default_rng(1))
            return sharded.stats.loads - before

        assert loads() <= 8
        monkeypatch.setattr(sampling, "label_points", per_point_labels)
        assert loads() > 8  # the per-point loop thrashed the two resident chunks
