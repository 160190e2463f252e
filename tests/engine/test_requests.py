"""IndexKey: interned contiguous-run query keys."""

from __future__ import annotations

import numpy as np

from repro.data.groups import group
from repro.engine import IndexKey, SetRequest, set_query_key

FEMALE = group(gender="female")


class TestIndexKey:
    def test_runs_are_interned(self):
        a = IndexKey.of(np.arange(10, 20))
        b = IndexKey.of(np.arange(10, 20))
        assert a is b
        assert a.is_run and a.start == 10 and a.stop == 20
        assert a.n_objects == 10

    def test_of_run_matches_of(self):
        assert IndexKey.of_run(5, 9) is IndexKey.of(np.arange(5, 9))

    def test_of_scattered_matches_of(self):
        indices = np.array([4, 9, 10, 30], dtype=np.int64)
        key = IndexKey.of_scattered(indices)
        assert key is IndexKey.of(indices.copy())
        assert not key.is_run
        assert np.array_equal(key.to_array(), indices)

    def test_scattered_arrays_are_interned_by_content(self):
        a = IndexKey.of(np.array([3, 1, 7]))
        b = IndexKey.of(np.array([3, 1, 7]))
        assert a is b
        assert not a.is_run
        assert a.n_objects == 3

    def test_distinct_content_distinct_keys(self):
        assert IndexKey.of(np.array([0, 1, 2])) != IndexKey.of(np.array([0, 2, 1]))
        assert IndexKey.of(np.arange(3)) != IndexKey.of(np.arange(4))
        # Same endpoints and length as the run [0, 4) but different
        # content must not collide with it.
        assert IndexKey.of(np.array([0, 0, 3, 3])) != IndexKey.of(np.arange(0, 4))

    def test_to_array_round_trips(self):
        for array in (np.arange(7, 19), np.array([5, 2, 9]), np.array([], dtype=np.int64)):
            key = IndexKey.of(array)
            assert np.array_equal(key.to_array(), array)
            assert IndexKey.of(key.to_array()) == key

    def test_empty_is_not_a_run(self):
        key = IndexKey.of(np.array([], dtype=np.int64))
        assert not key.is_run
        assert key.n_objects == 0
        assert IndexKey.of_run(5, 5) == key

    def test_hash_is_cached_and_content_based(self):
        key = IndexKey.of(np.arange(2, 6))
        rebuilt = IndexKey(2, 6, None, hash((2, 6)))  # bypass interning
        assert key == rebuilt and hash(key) == hash(rebuilt)


class TestSetRequest:
    def test_key_matches_set_query_key(self):
        indices = np.arange(4, 9)
        request = SetRequest(indices, FEMALE)
        assert request.key == set_query_key(indices, FEMALE)
        assert request.key[1].is_run

    def test_precomputed_index_key_is_trusted(self):
        indices = np.arange(4, 9)
        request = SetRequest(indices, FEMALE, index_key=IndexKey.of_run(4, 9))
        assert request.key == set_query_key(indices, FEMALE)

    def test_dtype_normalization(self):
        request = SetRequest(np.array([1, 2, 3], dtype=np.int32), FEMALE)
        assert request.indices.dtype == np.int64
        assert request.key[1] is IndexKey.of(np.arange(1, 4))
