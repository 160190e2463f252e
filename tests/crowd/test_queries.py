"""Unit tests for crowd query/HIT types."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.crowd.queries import HitRecord, PointQuery, SetQuery
from repro.data.groups import group
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")


class TestPointQuery:
    def test_basic(self):
        assert PointQuery(3).index == 3

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            PointQuery(-1)


class TestSetQuery:
    def test_indices_coerced_to_tuple(self):
        query = SetQuery([3, 1, 2], FEMALE)
        assert query.indices == (3, 1, 2)
        assert len(query) == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            SetQuery([], FEMALE)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            SetQuery([1, -2], FEMALE)

    @pytest.mark.parametrize(
        "indices",
        [
            [3, 1, 2],
            (3, 1, 2),
            range(3, 0, -1),
            range(7, 70, 9),
            np.array([3, 1, 2], dtype=np.int16),
            np.array([3, 1, 2], dtype=np.uint8),
            [3.0, 1.7, 2.2],
            [np.int64(3), 1, True + 1],
        ],
    )
    def test_every_index_sequence_gives_the_same_python_int_tuple(self, indices):
        query = SetQuery(indices, FEMALE)
        assert query.indices == tuple(int(index) for index in indices)
        assert all(type(index) is int for index in query.indices)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([], "a SetQuery needs at least one object"),
            (np.array([], dtype=np.int64), "a SetQuery needs at least one object"),
            ([1, -2], "negative object index in SetQuery"),
            (np.array([4, -1], dtype=np.int16), "negative object index in SetQuery"),
        ],
    )
    def test_error_texts(self, indices, message):
        with pytest.raises(InvalidParameterError) as raised:
            SetQuery(indices, FEMALE)
        assert str(raised.value) == message

    def test_describe_mentions_predicate_and_size(self):
        text = SetQuery([0, 1, 2], FEMALE).describe()
        assert "gender=female" in text
        assert "3" in text

    def test_hashable(self):
        assert SetQuery([1, 2], FEMALE) == SetQuery((1, 2), FEMALE)

    def test_frozen_and_picklable(self):
        query = SetQuery([1, 2], FEMALE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.predicate = FEMALE
        lazy = SetQuery.of_key(IndexKey.of(np.array([5, 1])), FEMALE)
        for original in (query, lazy):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and copy.indices == original.indices

    @pytest.mark.parametrize("indices", [[4, 5, 6, 7], [9, 2, 30], [0], [3, 2]])
    def test_of_key_is_the_query_over_the_keys_indices(self, indices):
        array = np.array(indices, dtype=np.int64)
        key = IndexKey.of(array)
        lazy = SetQuery.of_key(key, FEMALE)
        eager = SetQuery(array, FEMALE)
        assert len(lazy) == len(eager) == len(indices)
        assert lazy.index_key is key and eager.index_key is key
        assert lazy == eager and hash(lazy) == hash(eager)
        assert lazy.indices == eager.indices == tuple(indices)
        assert all(type(index) is int for index in lazy.indices)
        assert repr(lazy) == repr(eager) and lazy.describe() == eager.describe()

    @pytest.mark.parametrize(
        "key, message",
        [
            (IndexKey.of_run(3, 3), "a SetQuery needs at least one object"),
            (IndexKey.of(np.array([], dtype=np.int64)), "a SetQuery needs at least one object"),
            (IndexKey.of_run(-2, 3), "negative object index in SetQuery"),
            (IndexKey.of(np.array([4, -1])), "negative object index in SetQuery"),
        ],
    )
    def test_of_key_error_texts(self, key, message):
        with pytest.raises(InvalidParameterError) as raised:
            SetQuery.of_key(key, FEMALE)
        assert str(raised.value) == message


class TestHitRecord:
    def test_error_accounting(self):
        record = HitRecord(
            query=SetQuery([0, 1], FEMALE),
            worker_ids=(1, 2, 3),
            answers=(True, False, True),
            aggregated=True,
            truth=True,
        )
        assert record.n_incorrect_answers == 1
        assert record.aggregation_correct

    def test_aggregation_incorrect(self):
        record = HitRecord(
            query=PointQuery(0),
            worker_ids=(1,),
            answers=({"gender": "male"},),
            aggregated={"gender": "male"},
            truth={"gender": "female"},
        )
        assert record.n_incorrect_answers == 1
        assert not record.aggregation_correct
