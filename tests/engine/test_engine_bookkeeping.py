"""Pin the engine's dedup and cache bookkeeping on a sharded batch.

Two ``AuditSession(engine=True).run_many`` batches, each shaped like one
batch of the ``engine-sharded`` benchmark workload: a whole-dataset group
audit, two audits of one predicate over the same sampled view (in-flight
deduplication), a multiple audit and an intersectional audit over that
view (the second batch answers part of them from the cache). The
dataset keeps fewer chunks resident than it has shards. The exact
:class:`~repro.engine.EngineStats` and ledger totals were recorded from
the per-node stepper and engine; :mod:`tests.core.test_call_sequence`
pins oracle calls, which cannot show dedup or cache hits.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import (
    AuditSession,
    GroundTruthOracle,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
    Schema,
    ShardedDataset,
    ShardExecutor,
    group,
)
from repro.engine import EngineStats

GENDERS = ("male", "female")
RACES = ("white", "black", "asian", "other")
CELLS = {
    ("female", "white"): 1_200,
    ("male", "black"): 60,
    ("female", "black"): 40,
    ("male", "asian"): 300,
    ("female", "asian"): 70,
    ("male", "other"): 55,
    ("female", "other"): 25,
}
N_OBJECTS = 8_000
SCHEMA = Schema.from_dict({"gender": list(GENDERS), "race": list(RACES)})


def _rows(codes: np.ndarray, shard_index: int, start: int, stop: int) -> np.ndarray:
    return np.array(codes[start:stop], dtype=np.int16)


def sharded_dataset(rng: np.random.Generator) -> ShardedDataset:
    joint = dict(CELLS)
    joint[("male", "white")] = N_OBJECTS - sum(joint.values())
    codes = np.concatenate(
        [
            np.tile([GENDERS.index(g), RACES.index(r)], (count, 1))
            for (g, r), count in joint.items()
        ]
    ).astype(np.int16)[rng.permutation(N_OBJECTS)]
    return ShardedDataset.from_generator(
        SCHEMA,
        N_OBJECTS,
        1_000,
        functools.partial(_rows, codes),
        executor=ShardExecutor(mode="serial"),
        max_resident_shards=3,
        name="bookkeeping",
    )


def batch(view: np.ndarray, position: int) -> list:
    predicates = (group(race="black"), group(race="other"))
    return [
        GroupAuditSpec(group(gender="female", race="other"), 20 + position),
        GroupAuditSpec(predicates[position], 30, view=view),
        GroupAuditSpec(predicates[position], 34, view=view),
        MultipleAuditSpec(
            groups=tuple(group(race=value) for value in RACES), tau=30, view=view
        ),
        IntersectionalAuditSpec(schema=SCHEMA, tau=8, view=view[::4]),
    ]


def summary(result) -> object:
    if hasattr(result, "mups"):
        return sorted(str(pattern.values) for pattern in result.mups)
    if hasattr(result, "entries"):
        return [(entry.covered, entry.count) for entry in result.entries]
    return (result.covered, result.count)


def test_two_sharded_batches_pin_dedup_and_cache_counts():
    rng = np.random.default_rng(5)
    dataset = sharded_dataset(rng)
    oracle = GroundTruthOracle(dataset)
    view = np.sort(rng.choice(N_OBJECTS, size=N_OBJECTS // 4, replace=False))
    stats = []
    verdicts = []
    with AuditSession(oracle, engine=True, seed=3) as session:
        for position in range(2):
            before = session.engine.snapshot()
            report = session.run_many(batch(view, position))
            stats.append(session.engine.stats_since(before))
            verdicts.append([summary(entry.result) for entry in report.entries])
    assert dataset.stats.evictions > 0
    assert stats == [
        EngineStats(
            scheduler_rounds=40, oracle_round_trips=51, dispatched_queries=1013,
            deduped_queries=217, cache_hits=58, cache_misses=1013,
        ),
        EngineStats(
            scheduler_rounds=40, oracle_round_trips=47, dispatched_queries=790,
            deduped_queries=225, cache_hits=350, cache_misses=790,
        ),
    ]
    assert (oracle.ledger.total, oracle.ledger.n_rounds) == (1948, 102)
    mups = [
        "('female', 'asian')", "('female', 'black')", "('male', 'black')", "(None, 'other')"
    ]
    assert verdicts == [
        [(True, 20), (False, 22), (False, 22),
         [(True, 50), (False, 22), (True, 30), (False, 24)], mups],
        [(True, 21), (False, 24), (False, 24),
         [(True, 56), (False, 22), (True, 30), (False, 24)], mups],
    ]
