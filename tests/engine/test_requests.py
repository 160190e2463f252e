"""IndexKey: interned contiguous-run query keys."""

from __future__ import annotations

import numpy as np

from repro.data.groups import group
from repro.engine import IndexKey, set_query_key

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
        rebuilt = IndexKey(2, 6, None)  # bypass interning
        assert key == rebuilt and hash(key) == hash(rebuilt)


class TestSetQueryKey:
    def test_key_is_the_predicate_and_the_content_key(self):
        assert set_query_key(np.arange(4, 9), FEMALE) == (FEMALE, IndexKey.of_run(4, 9))
        scattered = np.array([4, 9, 5])
        key = set_query_key(scattered, FEMALE)
        assert key[0] is FEMALE and key[1] is IndexKey.of(scattered.copy())
        assert np.array_equal(key[1].to_array(), scattered)

    def test_dtype_normalization(self):
        run = set_query_key(np.array([1, 2, 3], dtype=np.int32), FEMALE)
        assert run[1] is IndexKey.of(np.arange(1, 4))
        scattered = set_query_key(np.array([7, 2], dtype=np.int32), FEMALE)
        assert scattered[1] is IndexKey.of(np.array([7, 2], dtype=np.int64))
        assert scattered[1].to_array().dtype == np.int64
