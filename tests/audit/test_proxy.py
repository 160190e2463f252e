"""The recording oracle proxy: delegation semantics and budget guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import AuditSession
from repro.audit.proxy import PointStore, RecordingOracleProxy
from repro.crowd.oracle import GroundTruthOracle
from repro.data.schema import Schema
from repro.data.synthetic import binary_dataset
from repro.errors import InvalidParameterError


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(200, 10, rng=np.random.default_rng(2))


class TestGetattrDelegation:
    def test_plain_attributes_delegate(self, dataset):
        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        assert proxy.dataset is oracle.dataset
        assert proxy.membership_index is oracle.membership_index

    def test_truly_missing_attribute_stays_an_attribute_error(self, dataset):
        proxy = RecordingOracleProxy(GroundTruthOracle(dataset))
        with pytest.raises(AttributeError):
            proxy.no_such_attribute
        assert getattr(proxy, "no_such_attribute", None) is None

    def test_property_raising_attribute_error_is_not_masked(self, dataset):
        """An AttributeError raised *inside* an inner-oracle property must
        surface as a real error (chained), not masquerade as a missing
        attribute — hasattr()/getattr(default) would silently hide the
        bug otherwise."""

        class BuggyOracle(GroundTruthOracle):
            @property
            def flaky_metadata(self):
                raise AttributeError("broken internals: self._meta missing")

        proxy = RecordingOracleProxy(BuggyOracle(dataset))
        with pytest.raises(RuntimeError) as excinfo:
            proxy.flaky_metadata
        assert "flaky_metadata" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, AttributeError)
        assert "broken internals" in str(excinfo.value.__cause__)
        # And crucially: the existence check does not lie anymore.
        with pytest.raises(RuntimeError):
            hasattr(proxy, "flaky_metadata")

    def test_session_surfaces_buggy_inner_properties(self, dataset):
        class BuggyOracle(GroundTruthOracle):
            @property
            def platform(self):
                raise AttributeError("platform wiring broke")

        session = AuditSession(BuggyOracle(dataset))
        with pytest.raises(RuntimeError):
            session._proxy.platform
        session.close()


class TestBudgetValidation:
    @pytest.mark.parametrize("budget", [0, -1, -100])
    def test_session_rejects_non_positive_task_budget(self, dataset, budget):
        with pytest.raises(InvalidParameterError):
            AuditSession(GroundTruthOracle(dataset), task_budget=budget)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_oracle_rejects_non_positive_budget(self, dataset, budget):
        with pytest.raises(InvalidParameterError):
            GroundTruthOracle(dataset, budget=budget)

    def test_unbounded_budgets_still_allowed(self, dataset):
        session = AuditSession(GroundTruthOracle(dataset), task_budget=None)
        session.close()
        GroundTruthOracle(dataset, budget=1)  # the smallest legal ceiling


class TestPointAnswers:
    def test_codes_fold_pending_batches_before_slicing(self):
        store = PointStore(Schema.from_dict({"gender": ["male", "female"]}))
        store.record(np.arange(20), np.ones((20, 1), np.int16))
        codes = store.codes  # the first read folds the batch and grows the buffer
        assert codes.shape == (20, 1)
        assert (codes == 1).all()

    def test_point_batch_returns_code_rows_held_and_fresh(self, dataset):
        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        proxy.ask_point(7)
        codes = proxy.ask_point_batch([9, 7, 3])
        np.testing.assert_array_equal(codes, dataset.codes[[9, 7, 3]])
        assert (oracle.ledger.n_point_queries, oracle.ledger.n_rounds) == (3, 2)
        assert proxy.ask_point_batch([]).shape == (0, 1)
        assert list(proxy.points.positions) == [7, 9, 3]

    def test_point_batch_pays_a_repeated_index_once(self, dataset):
        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        codes = proxy.ask_point_batch([3, 5, 3])
        np.testing.assert_array_equal(codes, dataset.codes[[3, 5, 3]])
        assert oracle.ledger.n_point_queries == 2
        assert [entry["index"] for entry in proxy.answer_log()["point_answers"]] == [3, 5]

    def test_scan_pays_a_repeated_index_once(self, dataset):
        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        codes = proxy.scan_points([5, 5], None, None)
        np.testing.assert_array_equal(codes, dataset.codes[[5, 5]])
        assert oracle.ledger.n_point_queries == 1
        assert [entry["index"] for entry in proxy.answer_log()["point_answers"]] == [5]
        # Repeats inside and after a fresh run, and of an object held
        # before the scan, all answer from the store.
        proxy.ask_point(9)
        codes = proxy.scan_points([3, 7, 3, 9, 7, 8, 9, 8], None, None)
        np.testing.assert_array_equal(codes, dataset.codes[[3, 7, 3, 9, 7, 8, 9, 8]])
        assert oracle.ledger.n_point_queries == 5
        assert list(proxy.points.positions) == [5, 9, 3, 7, 8]
