"""Fidelity tests: the paper's own worked examples, traced exactly.

These pin our implementation to the paper's published traces — if a
refactor changes query order or the sibling/checked bookkeeping, these
fail even when the verdicts stay correct.
"""

from __future__ import annotations

import numpy as np

from repro.core.group_coverage import group_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.schema import Schema

SHAPE_SCHEMA = Schema.from_dict({"shape": ["square", "triangle"]})
TRIANGLE = group(shape="triangle")


def shapes_dataset(layout: str) -> LabeledDataset:
    """Build a dataset from the paper's pictogram string (s=square,
    t=triangle)."""
    codes = np.array(
        [[1 if symbol == "t" else 0] for symbol in layout], dtype=np.int16
    )
    return LabeledDataset(SHAPE_SCHEMA, codes)


class TestFigure4RunningExample:
    """§3.1's running example: 16 images, tau=3, check triangle coverage.

    The paper's layout (Figure 4): ssss t ss t | ssss tt s t — triangles
    at positions 4, 7, 12, 13, 15. The narrated trace: root yes (cnt=1),
    both halves yes (cnt=2), the left-most quarter answers no (its sibling
    is implied), same on the right, then the first two level-4 queries are
    yes, cnt reaches 3 and the algorithm stops — "the algorithm issues
    seven queries to the crowd before it stops".
    """

    def test_seven_queries_and_covered(self):
        dataset = shapes_dataset("sssstsstssssttst")
        assert dataset.count(TRIANGLE) == 5
        oracle = GroundTruthOracle(dataset)
        result = group_coverage(oracle, TRIANGLE, tau=3, n=16, dataset_size=16)
        assert result.covered
        assert result.count == 3
        assert oracle.ledger.n_set_queries == 7  # the paper's number

    def test_trace_query_ranges(self):
        """Replay the exact ranges the paper's Figure 4 narrates."""
        dataset = shapes_dataset("sssstsstssssttst")
        asked: list[tuple[int, int]] = []

        class TracingOracle(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                asked.append((int(indices[0]), int(indices[-1])))
                return super()._answer_set(indices, predicate, index_key)

        group_coverage(
            TracingOracle(dataset), TRIANGLE, tau=3, n=16, dataset_size=16
        )
        assert asked == [
            (0, 15),   # root: yes -> cnt=1
            (0, 7),    # left half: yes (sets checked)
            (8, 15),   # right half: yes -> cnt=2
            (0, 3),    # left quarter: no -> (4,7) implied yes, no task
            (8, 11),   # third quarter: no -> (12,15) implied yes, no task
            (4, 5),    # first level-4 set: yes (sets checked)
            (6, 7),    # second level-4 set: yes -> cnt=3 -> stop
        ]


class TestSection4SupergroupExamples:
    """§4's Asian-Female / Asian-Male arithmetic, via the combiner."""

    def test_15_plus_20_keeps_asian_uncovered(self):
        from repro.data.synthetic import intersectional_dataset
        from repro.patterns.tabular import assess_tabular_coverage
        from repro.patterns.pattern import Pattern

        schema = Schema.from_dict(
            {"gender": ["male", "female"], "race": ["white", "asian"]}
        )
        dataset = intersectional_dataset(
            schema,
            {
                ("male", "white"): 500,
                ("female", "white"): 400,
                ("female", "asian"): 15,
                ("male", "asian"): 20,
            },
            shuffle=False,
        )
        report = assess_tabular_coverage(dataset, tau=50)
        asian = Pattern.from_mapping(schema, {"race": "asian"})
        assert not report.verdict(asian).covered
        assert report.verdict(asian).count_lower_bound == 35

    def test_28_plus_32_covers_asian_without_extra_tasks(self):
        from repro.data.synthetic import intersectional_dataset
        from repro.patterns.tabular import assess_tabular_coverage
        from repro.patterns.pattern import Pattern

        schema = Schema.from_dict(
            {"gender": ["male", "female"], "race": ["white", "asian"]}
        )
        dataset = intersectional_dataset(
            schema,
            {
                ("male", "white"): 500,
                ("female", "white"): 400,
                ("female", "asian"): 28,
                ("male", "asian"): 32,
            },
            shuffle=False,
        )
        report = assess_tabular_coverage(dataset, tau=50)
        asian = Pattern.from_mapping(schema, {"race": "asian"})
        assert report.verdict(asian).covered
        assert report.verdict(asian).count_lower_bound == 60
