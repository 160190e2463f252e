"""The one set-answer store: the recording proxy's store is the engine's
cache.

One :class:`~repro.engine.AnswerCache` holds every set answer of a
session or service. The engine's accounting is what it was with two
stores: only answers an engine gathered are cache hits; an answer the
store holds for another reason — paid by a sequential run, or replayed
from a checkpoint — is still dispatched and billed to the run that asks
it, and the proxy answers it without charging the crowd. Implied
answers (a super-group's "no" for its members) are free and never
reach the answer log, whatever order a resume replays and registers
them in.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.audit.proxy import RecordingOracleProxy
from repro.core.group_coverage import GroupCoverageStepper, run_sequential
from repro.crowd.backends import ThreadedBackend
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import SuperGroup, group
from repro.data.schema import Schema
from repro.data.synthetic import binary_dataset
from repro.engine import AnswerCache, IndexKey, QueryBatch, QueryEngine

FEMALE = group(gender="female")
A, B = group(race="a"), group(race="b")
AB = SuperGroup([A, B])


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(2000, 30, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def races():
    """Race ``a`` on objects 0-4, ``b`` on 5-9, ``c`` on 10-19."""
    codes = np.repeat(np.array([0, 1, 2], dtype=np.int16), [5, 5, 10]).reshape(-1, 1)
    return LabeledDataset(Schema.from_dict({"race": ["a", "b", "c"]}), codes)


class FixedStepper:
    """A run that asks ``keys`` about ``predicate`` once, in one batch."""

    def __init__(self, predicate, keys):
        self.predicate, self.keys, self.asked = predicate, list(keys), len(keys)
        self.answers: dict[int, bool] = {}

    @property
    def done(self):
        return not self.keys and len(self.answers) == self.asked

    def pending(self):
        keys, self.keys = self.keys, []
        return QueryBatch(self.predicate, list(range(len(keys))), keys)

    def feed(self, positions, answers):
        self.answers.update(zip(positions, answers))


def ask(engine, predicate, *index_lists):
    """Run one batch through ``engine``: its answers, and the queries
    dispatched for it."""
    keys = [IndexKey.of(np.asarray(indices, dtype=np.int64)) for indices in index_lists]
    stepper = FixedStepper(predicate, keys)
    dispatched = engine.run([stepper])[stepper]
    return [stepper.answers[position] for position in range(len(keys))], dispatched


def make_stepper(dataset, tau=50):
    return GroupCoverageStepper(FEMALE, tau, n=50, view=np.arange(len(dataset)))


def fresh_bill(dataset):
    """The queries a fresh engine run dispatches, and its verdict."""
    stepper = make_stepper(dataset)
    dispatched = QueryEngine(GroundTruthOracle(dataset), batch_size=16).run([stepper])
    return dispatched[stepper], stepper.result()


class TestHitMissAccounting:
    def test_miss_then_hit(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        assert ask(engine, A, [1, 2, 3]) == ([True], 1)
        assert (engine.cache.hits, engine.cache.misses) == (0, 1)
        assert ask(engine, A, [1, 2, 3]) == ([True], 0)
        assert (engine.cache.hits, engine.cache.misses) == (1, 1)
        assert engine.cache.hit_rate == 0.5

    def test_false_answers_are_hits_not_misses(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, A, [7])
        assert ask(engine, A, [7]) == ([False], 0)
        assert (engine.cache.hits, engine.cache.misses) == (1, 1)

    def test_same_indices_different_predicate_do_not_collide(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, A, [1, 2])
        assert ask(engine, B, [1, 2]) == ([False], 1)

    def test_same_content_different_container_collides(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, A, np.arange(5))
        assert ask(engine, A, [0, 1, 2, 3, 4]) == ([True], 0)

    def test_hit_rate_empty(self):
        assert AnswerCache().hit_rate == 0.0

    def test_len_and_contains(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, A, [1])
        assert len(engine.cache) == 1
        assert (A, IndexKey.of(np.array([1]))) in engine.cache
        assert (A, IndexKey.of(np.array([2]))) not in engine.cache

    def test_a_second_asker_in_the_same_round_is_dedup_not_a_hit(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, A, [3])
        keys = [IndexKey.of(np.array([3]))]
        first, second = FixedStepper(A, keys), FixedStepper(A, keys)
        engine.run([first, second])
        assert (engine.cache.hits, engine.deduped_queries) == (1, 1)
        assert first.answers == second.answers == {0: True}


class TestImplications:
    def test_negative_supergroup_answer_implies_member_answers(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        engine.cache.register_implication(AB, AB.members)
        assert ask(engine, AB, [13, 14, 15]) == ([False], 1)
        assert ask(engine, A, [13, 14, 15]) == ([False], 0)
        assert ask(engine, B, [13, 14, 15]) == ([False], 0)
        assert engine.cache.hits == 2

    def test_positive_supergroup_answer_implies_nothing(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        engine.cache.register_implication(AB, AB.members)
        assert ask(engine, AB, [3, 13]) == ([True], 1)
        assert ask(engine, B, [3, 13]) == ([False], 1)

    def test_implied_answer_never_overwrites_direct_answer(self, races):
        class Noisy(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                if predicate == AB:
                    return False
                return super()._answer_set(indices, predicate, index_key)

        engine = QueryEngine(Noisy(races))
        engine.cache.register_implication(AB, AB.members)
        assert ask(engine, A, [1]) == ([True], 1)
        assert ask(engine, AB, [1]) == ([False], 1)  # contradictory (noisy oracle)
        assert ask(engine, A, [1]) == ([True], 0)

    def test_a_no_held_before_registration_implies_after_it(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        ask(engine, AB, [13, 14])
        engine.cache.register_implication(AB, AB.members)
        assert ask(engine, A, [13, 14]) == ([False], 0)

    def test_implication_only_applies_to_the_same_range(self, races):
        engine = QueryEngine(GroundTruthOracle(races))
        engine.cache.register_implication(AB, AB.members)
        ask(engine, AB, [13, 14])
        assert ask(engine, A, [13, 14, 15]) == ([False], 1)


class TestBill:
    def test_answer_pays_only_fresh_queries_once_in_bill_order(self):
        cache = AnswerCache()
        asked = []

        def answer(queries):
            asked.append(list(queries))
            return [len(query[1].to_array()) > 1 for query in queries]

        def key(indices):
            return (FEMALE, IndexKey.of(np.array(indices)))

        assert cache.answer([key([1, 2]), key([5])], answer) == [True, False]
        assert cache.answer([key([5]), key([7, 8]), key([1, 2])], answer) == [False, True, True]
        assert asked == [[key([1, 2]), key([5])], [key([7, 8])]]
        assert list(cache.logged()) == [
            (key([1, 2]), True), (key([5]), False), (key([7, 8]), True),
        ]
        assert list(cache.logged(since=2)) == [(key([7, 8]), True)]

    def test_record_keeps_a_logged_answers_place(self):
        cache = AnswerCache()
        for indices, answer in (([1], True), ([2], False), ([1], False)):
            cache.record(FEMALE, IndexKey.of(np.array(indices)), answer)
        assert [answer for _, answer in cache.logged()] == [False, False]
        assert len(cache.bill) == 2

    def test_implied_answers_are_free_and_never_logged(self):
        cache = AnswerCache()
        cache.register_implication(AB, AB.members)
        key = IndexKey.of(np.array([3, 4]))
        cache.record(AB, key, False)

        def answer(queries):
            raise AssertionError(f"paid for {queries}")

        assert cache.answer([(A, key), (B, key)], answer) == [False, False]
        assert list(cache.logged()) == [((AB, key), False)]
        # A member answer paid after all (a replayed log) is logged.
        cache.record(A, key, False)
        assert len(cache.bill) == 2


class TestOneStoreUnderTheEngine:
    def test_an_engine_over_a_proxy_caches_in_its_store(self, dataset):
        proxy = RecordingOracleProxy(GroundTruthOracle(dataset))
        assert QueryEngine(proxy).cache is proxy.answer_cache
        assert QueryEngine(GroundTruthOracle(dataset)).cache is not proxy.answer_cache

    def test_a_key_paid_by_a_sequential_run_is_dispatched_and_answered_free(self, dataset):
        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        run_sequential(proxy, [make_stepper(dataset)])
        paid = oracle.ledger.n_set_queries
        logged = len(proxy.answer_log()["set_answers"])
        assert paid == logged > 0

        engine = QueryEngine(proxy, batch_size=16)
        stepper = make_stepper(dataset)
        dispatched = engine.run([stepper])
        expected, result = fresh_bill(dataset)
        # Billed to the run exactly as a fresh engine run bills it...
        assert dispatched[stepper] == engine.dispatched_queries == expected
        assert stepper.result() == result
        # ...but none of it charged: the store held every answer.
        assert oracle.ledger.n_set_queries == paid
        assert (engine.cache.hits, engine.cache.misses) == (0, expected)
        assert len(proxy.answer_log()["set_answers"]) == logged

    def test_a_key_replayed_from_a_checkpoint_is_dispatched_and_answered_free(self, dataset):
        first = RecordingOracleProxy(GroundTruthOracle(dataset))
        QueryEngine(first, batch_size=16).run([make_stepper(dataset)])
        log = first.answer_log()

        oracle = GroundTruthOracle(dataset)
        proxy = RecordingOracleProxy(oracle)
        proxy.replay(RecordingOracleProxy.decode_answer_log(
            {"version": 2, **log}, oracle, reliability=True, source="test"
        ))
        engine = QueryEngine(proxy, batch_size=16)
        stepper = make_stepper(dataset)
        dispatched = engine.run([stepper])
        assert dispatched[stepper] == fresh_bill(dataset)[0]
        assert oracle.ledger.n_set_queries == 0
        assert engine.cache.hits == 0
        assert proxy.answer_log() == log  # replayed answers keep their bill order

    def test_a_key_the_engine_absorbed_is_a_cache_hit(self, dataset):
        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(RecordingOracleProxy(oracle), batch_size=16)
        engine.run([make_stepper(dataset)])
        dispatched, paid = engine.dispatched_queries, oracle.ledger.n_set_queries
        again = make_stepper(dataset)
        assert engine.run([again]) == {again: 0}
        assert engine.dispatched_queries == dispatched
        assert oracle.ledger.n_set_queries == paid
        assert engine.cache.hits == dispatched

    @pytest.mark.parametrize("order", ["replay, then register", "register, then replay"])
    def test_a_replayed_super_group_no_answers_its_members_free(self, races, order):
        keys = [[10, 11], [12, 13], [14, 15], [16, 17]]
        first = RecordingOracleProxy(GroundTruthOracle(races))
        first.ask_set_batch([(AB, IndexKey.of(np.array(indices))) for indices in keys])
        log = first.answer_log()

        oracle = GroundTruthOracle(races)
        proxy = RecordingOracleProxy(oracle)
        decoded = RecordingOracleProxy.decode_answer_log(
            {"version": 2, **log}, oracle, reliability=True, source="test"
        )
        steps = [
            lambda: proxy.replay(decoded),
            lambda: proxy.answer_cache.register_implication(AB, AB.members),
        ]
        for step in steps if order.startswith("replay") else reversed(steps):
            step()

        # A sequential ask is answered by the implication, free.
        assert proxy.ask_set(np.array(keys[0]), A) is False
        # No engine gathered the super-group's "no": an engine dispatches
        # the member queries, billed to their run, and the proxy answers
        # them free.
        engine = QueryEngine(proxy)
        assert ask(engine, B, *keys[1:]) == ([False] * 3, 3)
        assert oracle.ledger.n_set_queries == 0
        assert engine.cache.hits == 0
        # Implied answers were never paid: the log holds the replayed ones only.
        assert proxy.answer_log() == log

    def test_an_absorbed_super_group_no_makes_member_queries_cache_hits(self, races):
        oracle = GroundTruthOracle(races)
        proxy = RecordingOracleProxy(oracle)
        engine = QueryEngine(proxy)
        engine.cache.register_implication(AB, AB.members)
        keys = [[10], [12, 19], [15]]
        assert ask(engine, AB, *keys) == ([False] * 3, 3)
        assert ask(engine, A, *keys) == ([False] * 3, 0)
        assert (engine.cache.hits, engine.cache.misses) == (3, 3)
        assert oracle.ledger.n_set_queries == 3
        assert len(proxy.answer_log()["set_answers"]) == 3  # the super-group's only


def test_threaded_dispatch_into_the_shared_store_loses_no_answer(dataset):
    """Pool threads answer through the proxy into the store while the
    engine's thread probes and writes the same tables: every paid answer
    is logged once, every run gets the inline run's verdict."""
    reference = [make_stepper(dataset, tau) for tau in (10, 25, 40, 55)]
    QueryEngine(GroundTruthOracle(dataset), batch_size=4).run(reference)
    oracle = GroundTruthOracle(dataset)
    proxy = RecordingOracleProxy(oracle)
    backend = ThreadedBackend(proxy, max_workers=8)
    engine = QueryEngine(proxy, backend=backend, batch_size=4)
    steppers = [make_stepper(dataset, tau) for tau in (10, 25, 40, 55)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        driver = threading.Thread(target=engine.run, args=(steppers,))
        driver.start()
        driver.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    assert not driver.is_alive()
    assert [s.result() for s in steppers] == [s.result() for s in reference]
    logged = proxy.answer_log()["set_answers"]
    assert len(logged) == len(set(map(str, logged))) == oracle.ledger.n_set_queries
    assert oracle.ledger.n_set_queries == engine.dispatched_queries


class TestCounterThreadSafety:
    def test_hit_miss_counters_exact_under_concurrent_counts(self):
        """A store shared through a threaded backend takes counts from
        many threads at once; ``hits``/``misses`` are read-modify-write
        increments, so without ``_stats_lock`` this stress loses counts.
        Exactness (not just plausibility) is the assertion."""
        n_threads, rounds = 8, 200
        cache = AnswerCache()
        barrier = threading.Barrier(n_threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(rounds):
                cache.count(1, 1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.hits == cache.misses == n_threads * rounds
        assert cache.hit_rate == 0.5
