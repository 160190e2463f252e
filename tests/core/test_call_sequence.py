"""Pin the exact oracle call sequence of sequential and engine runs.

Every ``ask_set``, ``ask_set_batch``, ``ask_point`` and ``ask_point_batch``
call is logged in order as (method, predicate, index bytes). Each case
compares the log's sha256, a digest of the verdicts, and the ledger's
``total``/``n_rounds`` with values recorded from the reference
implementation, for both execution modes: one query at a time (the
paper's order) and a ``QueryEngine`` with batch size 8. Under
``FlakyOracle`` the order decides which answers flip, so any reordering
of queries shows up in the verdicts as well as in the log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.group_coverage import execute_group_coverage
from repro.core.intersectional_coverage import execute_intersectional_coverage
from repro.core.multiple_coverage import execute_multiple_coverage
from repro.crowd.oracle import FlakyOracle, GroundTruthOracle, scan_asked
from repro.data.groups import group
from repro.data.schema import Schema
from repro.data.synthetic import intersectional_dataset, single_attribute_dataset
from repro.engine import QueryEngine

TAU = 50
RACE_COUNTS = {
    "white": 1500, "g1": 60, "g2": 45, "g3": 35,
    "g4": 25, "g5": 12, "g6": 6, "g7": 3,
}
SCHEMA = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black", "asian", "hispanic"]}
)
LEAF_COUNTS = {
    ("male", "white"): 900, ("female", "white"): 300,
    ("male", "black"): 55, ("female", "black"): 30,
    ("male", "asian"): 30, ("female", "asian"): 25,
    ("male", "hispanic"): 8, ("female", "hispanic"): 4,
}
# Multiple-Coverage: seeds 1 and 9 draw a merged super-group that is
# jointly covered (the per-member penalty re-runs); seeds 0 and 3 draw
# one that stays uncovered (member attribution). Intersectional-Coverage
# draws a covered merged leaf super-group at seed 9 and uncovered ones
# at the other seeds.
SEEDS = [0, 1, 3, 9]
ORACLES = ["truth", "flaky"]
MODES = ["sequential", "engine"]
KINDS = ["group", "multiple", "multiple+attribution", "intersectional"]


class CallLog:
    """Replaces an oracle's four ``ask_*`` methods and ``scan_sets`` with
    recording wrappers that hash every call, in order, into one sha256.
    A set scan logs each query it charged as the ``set`` call the
    per-query loop made, once, whether or not it asked ``ask_set``."""

    def __init__(self, oracle) -> None:
        self._digest = hashlib.sha256()
        self._scanning = False
        ask_set, ask_set_batch = oracle.ask_set, oracle.ask_set_batch
        ask_point, ask_point_batch = oracle.ask_point, oracle.ask_point_batch
        scan_sets = oracle.scan_sets

        def logged_ask_set(indices, predicate, *, key=None):
            if not self._scanning:
                self._record(b"set", [(indices, predicate)])
            return ask_set(indices, predicate, key=key)

        def logged_scan_sets(view, starts, stops, predicate, need, *, paired=False):
            self._scanning = True
            try:
                answers = scan_sets(view, starts, stops, predicate, need, paired=paired)
            finally:
                self._scanning = False
            for position in np.flatnonzero(scan_asked(answers, paired)):
                segment = np.asarray(view)[starts[position] : stops[position]]
                self._record(b"set", [(segment, predicate)])
            return answers

        def logged_ask_set_batch(queries, *, keys=None):
            self._record(b"set_batch", queries)
            return ask_set_batch(queries, keys=keys)

        def logged_ask_point(index):
            self._record(b"point", [(index, None)])
            return ask_point(index)

        def logged_ask_point_batch(indices):
            self._record(b"point_batch", [(index, None) for index in indices])
            return ask_point_batch(indices)

        oracle.ask_set = logged_ask_set
        oracle.ask_set_batch = logged_ask_set_batch
        oracle.ask_point = logged_ask_point
        oracle.ask_point_batch = logged_ask_point_batch
        oracle.scan_sets = logged_scan_sets

    def _record(self, method: bytes, queries) -> None:
        self._digest.update(b"%s:%d;" % (method, len(queries)))
        for indices, predicate in queries:
            described = b"" if predicate is None else predicate.describe().encode()
            raw = np.asarray(indices, dtype=np.int64).tobytes()
            self._digest.update(b"%d:%s%d:%s" % (len(described), described, len(raw), raw))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _entries(report) -> tuple:
    return tuple(
        (entry.group.describe(), entry.covered, entry.count, entry.count_is_exact)
        for entry in report.entries
    )


def run_case(kind: str, oracle_kind: str, mode: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "intersectional":
        dataset = intersectional_dataset(SCHEMA, LEAF_COUNTS, rng=rng)
    else:
        dataset = single_attribute_dataset(RACE_COUNTS, attribute="race", rng=rng)
    if oracle_kind == "truth":
        oracle = GroundTruthOracle(dataset)
    else:
        oracle = FlakyOracle(
            dataset,
            np.random.default_rng(seed + 1000),
            set_error_rate=0.05,
            point_error_rate=0.05,
        )
    log = CallLog(oracle)
    engine = QueryEngine(oracle, batch_size=8) if mode == "engine" else None
    common = dict(dataset_size=len(dataset), engine=engine)
    if kind == "group":
        result = execute_group_coverage(oracle, group(race="g2"), TAU, **common)
        verdicts = (result.covered, result.count, result.discovered_indices)
    elif kind == "intersectional":
        report = execute_intersectional_coverage(
            oracle, SCHEMA, TAU, rng=rng, **common
        )
        verdicts = (
            _entries(report.leaf_report),
            tuple(pattern.describe() for pattern in report.mups),
        )
    else:
        report = execute_multiple_coverage(
            oracle,
            [group(race=value) for value in RACE_COUNTS],
            TAU,
            rng=rng,
            attribute_supergroup_members=kind == "multiple+attribution",
            **common,
        )
        verdicts = (_entries(report), report.super_groups)
    verdict_digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    return (
        log.hexdigest()[:16],
        verdict_digest[:16],
        oracle.ledger.total,
        oracle.ledger.n_rounds,
    )


# (kind, oracle, mode, seed) -> (log sha256[:16], verdict sha256[:16],
# ledger.total, ledger.n_rounds), recorded from the reference
# implementation.
EXPECTED: dict[tuple[str, str, str, int], tuple[str, str, int, int]] = {
    ('group', 'truth', 'sequential', 0): ('2a7f375e6706f70d', 'c0ffb560d36a9fcf', 366, 366),
    ('group', 'truth', 'sequential', 1): ('70c03420aa3dd2fe', '54582412eb06e46a', 377, 377),
    ('group', 'truth', 'sequential', 3): ('b5a9b7585d86ec7a', 'd29be9b9dbbca6b3', 366, 366),
    ('group', 'truth', 'sequential', 9): ('4ec4e9939fa5eaca', '32b030f9413c4e82', 363, 363),
    ('group', 'truth', 'engine', 0): ('d210d2f7d68fb320', 'c0ffb560d36a9fcf', 366, 61),
    ('group', 'truth', 'engine', 1): ('96254c2752ff6fa8', '54582412eb06e46a', 377, 66),
    ('group', 'truth', 'engine', 3): ('5975f76248e042d9', 'd29be9b9dbbca6b3', 366, 63),
    ('group', 'truth', 'engine', 9): ('f81fedb7c5be3e54', '32b030f9413c4e82', 363, 61),
    ('group', 'flaky', 'sequential', 0): ('91d88194ca71dcd7', 'e3cbedd6274508dc', 292, 292),
    ('group', 'flaky', 'sequential', 1): ('f9704f15da4f216a', '3ca956f02d1c5667', 329, 329),
    ('group', 'flaky', 'sequential', 3): ('e4fada79b9dc67e4', '4a024400ab1925aa', 344, 344),
    ('group', 'flaky', 'sequential', 9): ('a8a06145bb58a8ac', '0dd4f7a440087f61', 329, 329),
    ('group', 'flaky', 'engine', 0): ('5e7e519008bc91bb', 'fde6155b1b58f13c', 310, 52),
    ('group', 'flaky', 'engine', 1): ('13de5f3f4184bb03', 'fddebb978288bb89', 328, 60),
    ('group', 'flaky', 'engine', 3): ('cb55a614250135c9', '70f2aa3595cfadfa', 344, 62),
    ('group', 'flaky', 'engine', 9): ('daefbe421df91b92', 'e95bdf268c27e4a1', 328, 56),
    ('multiple', 'truth', 'sequential', 0): ('d31f6019f2a10138', 'e68bba1a2788018e', 1253, 1253),
    ('multiple', 'truth', 'sequential', 1): ('94c851d1354b3c6e', 'd3c366c90dea90e8', 1435, 1435),
    ('multiple', 'truth', 'sequential', 3): ('861542a41ef32305', 'bde730da66d12d70', 1201, 1201),
    ('multiple', 'truth', 'sequential', 9): ('e9da57dbea853b68', 'd40726641fb59693', 1645, 1645),
    ('multiple', 'truth', 'engine', 0): ('35403cc4247d2d86', 'e68bba1a2788018e', 1261, 155),
    ('multiple', 'truth', 'engine', 1): ('242afbb56b24911f', 'd3c366c90dea90e8', 1421, 187),
    ('multiple', 'truth', 'engine', 3): ('ee705602f429e6d5', 'bde730da66d12d70', 1209, 153),
    ('multiple', 'truth', 'engine', 9): ('ad070a95c5e0ec31', 'd40726641fb59693', 1523, 207),
    ('multiple', 'flaky', 'sequential', 0): ('e0100a447db61c3b', 'f71e8c86adf786f2', 1088, 1088),
    ('multiple', 'flaky', 'sequential', 1): ('7ba180743776f253', 'f8bb44fc3e05dfee', 1269, 1269),
    ('multiple', 'flaky', 'sequential', 3): ('7b4e2b99bbf4d427', '077b5764835fa9c1', 1218, 1218),
    ('multiple', 'flaky', 'sequential', 9): ('c4edcbdc95a6ec5a', '7010d634dc27e0bc', 1400, 1400),
    ('multiple', 'flaky', 'engine', 0): ('1b513e8f9b8f5248', 'd7921e0a11aac223', 1265, 161),
    ('multiple', 'flaky', 'engine', 1): ('951c9723e87454ee', 'ee6c9a3f7aa5cb07', 1425, 184),
    ('multiple', 'flaky', 'engine', 3): ('acb07e1dc8ce2fae', '679ef4ec056b7073', 1244, 158),
    ('multiple', 'flaky', 'engine', 9): ('26e807a6813837be', '869d08334b2bcfcc', 1300, 162),
    ('multiple+attribution', 'truth', 'sequential', 0): ('b536598766580c33', 'a0bcd6cd7ac446bb', 1292, 1292),
    ('multiple+attribution', 'truth', 'sequential', 1): ('94c851d1354b3c6e', 'd3c366c90dea90e8', 1435, 1435),
    ('multiple+attribution', 'truth', 'sequential', 3): ('bc269806d3052dc2', '499a6e5dc4994167', 1246, 1246),
    ('multiple+attribution', 'truth', 'sequential', 9): ('e9da57dbea853b68', 'd40726641fb59693', 1645, 1645),
    ('multiple+attribution', 'truth', 'engine', 0): ('ef1661be282d7318', 'a0bcd6cd7ac446bb', 1300, 156),
    ('multiple+attribution', 'truth', 'engine', 1): ('242afbb56b24911f', 'd3c366c90dea90e8', 1421, 187),
    ('multiple+attribution', 'truth', 'engine', 3): ('8cfa5de2cb6652cb', '499a6e5dc4994167', 1254, 154),
    ('multiple+attribution', 'truth', 'engine', 9): ('ad070a95c5e0ec31', 'd40726641fb59693', 1523, 207),
    ('multiple+attribution', 'flaky', 'sequential', 0): ('e0c51e698e36b8fc', '8e9c5dfc1bcd6021', 1211, 1211),
    ('multiple+attribution', 'flaky', 'sequential', 1): ('7ba180743776f253', 'f8bb44fc3e05dfee', 1269, 1269),
    ('multiple+attribution', 'flaky', 'sequential', 3): ('0b891b71d3630465', '1e6213d2e3ee6c49', 1469, 1469),
    ('multiple+attribution', 'flaky', 'sequential', 9): ('68fbf5b82ced2f9b', 'b065d43508b9d37d', 1222, 1222),
    ('multiple+attribution', 'flaky', 'engine', 0): ('d2f6530635f57ec1', 'f12626dc560290fe', 1302, 162),
    ('multiple+attribution', 'flaky', 'engine', 1): ('951c9723e87454ee', 'ee6c9a3f7aa5cb07', 1425, 184),
    ('multiple+attribution', 'flaky', 'engine', 3): ('78d4e004390ee360', '7720158043860c3b', 1290, 159),
    ('multiple+attribution', 'flaky', 'engine', 9): ('ab882a04303e760e', 'd7c373f0e582d11c', 1311, 163),
    ('intersectional', 'truth', 'sequential', 0): ('5760fe57b5794a32', '1957e09dbf3a28d2', 1086, 1086),
    ('intersectional', 'truth', 'sequential', 1): ('b734727098d0edbe', '6341afd4d8c45bb9', 1058, 1058),
    ('intersectional', 'truth', 'sequential', 3): ('9471bd35f9a72501', '6eb5a48a9ccf7ef6', 1183, 1183),
    ('intersectional', 'truth', 'sequential', 9): ('c0cdfe464a32bf60', 'b4e4d45dc6bbc9f2', 1292, 1292),
    ('intersectional', 'truth', 'engine', 0): ('55f9c6d67348d799', '1957e09dbf3a28d2', 1091, 130),
    ('intersectional', 'truth', 'engine', 1): ('18f0073f992d4314', '6341afd4d8c45bb9', 1072, 129),
    ('intersectional', 'truth', 'engine', 3): ('c811bd48db3a7774', '6eb5a48a9ccf7ef6', 1197, 148),
    ('intersectional', 'truth', 'engine', 9): ('e3d12cdf53d0aa13', 'b4e4d45dc6bbc9f2', 1260, 164),
    ('intersectional', 'flaky', 'sequential', 0): ('794e93c870102dff', '45073f3bab5a1256', 1052, 1052),
    ('intersectional', 'flaky', 'sequential', 1): ('23d80741e5bd081c', 'dbbf55aa4ef7596a', 1030, 1030),
    ('intersectional', 'flaky', 'sequential', 3): ('f27b0bf07cb3a4a7', 'e3464f340c967297', 1509, 1509),
    ('intersectional', 'flaky', 'sequential', 9): ('fe047337550bbca5', '20738d24b95031ee', 1075, 1075),
    ('intersectional', 'flaky', 'engine', 0): ('0b992ca5185b9adf', '58cb9cae70d8461c', 1096, 133),
    ('intersectional', 'flaky', 'engine', 1): ('07214ce34c296f38', '34e4c7a5c64d970c', 1102, 133),
    ('intersectional', 'flaky', 'engine', 3): ('a14d0b5cff9bbef0', '968bec77226b709d', 1302, 167),
    ('intersectional', 'flaky', 'engine', 9): ('39771f4d091875bd', '9b485b5d96afa188', 1079, 133),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("oracle_kind", ORACLES)
@pytest.mark.parametrize("kind", KINDS)
def test_call_sequence_is_pinned(kind, oracle_kind, mode, seed):
    assert run_case(kind, oracle_kind, mode, seed) == EXPECTED[
        kind, oracle_kind, mode, seed
    ]


def test_draws_cover_both_supergroup_paths():
    """The seeds include a merged super-group that is jointly covered
    (penalty re-runs) and one that stays uncovered (attribution)."""
    covered = uncovered = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        dataset = single_attribute_dataset(RACE_COUNTS, attribute="race", rng=rng)
        report = execute_multiple_coverage(
            GroundTruthOracle(dataset),
            [group(race=value) for value in RACE_COUNTS],
            TAU,
            rng=rng,
            dataset_size=len(dataset),
        )
        for super_group in report.super_groups:
            if len(super_group) > 1:
                total = sum(RACE_COUNTS[m.value_of("race")] for m in super_group)
                covered += total >= TAU
                uncovered += total < TAU
    assert covered and uncovered
