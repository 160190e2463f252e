"""The paper's core contribution: crowd-efficient coverage identification."""

from repro.core.aggregate import aggregate_groups, expected_count
from repro.core.base_coverage import base_coverage
from repro.core.bounds import (
    adversarial_tree_size,
    lower_bound_tasks,
    single_tree_upper_bound,
    upper_bound_tasks,
)
from repro.core.classifier_coverage import (
    classifier_coverage,
    label_positive_set,
    partition_positive_set,
)
from repro.core.cost_aware import (
    CostAwareResult,
    SpendingOracle,
    choose_set_size,
    cost_aware_group_coverage,
    dollar_cost_upper_bound,
)
from repro.core.group_coverage import GroupCoverageStepper, group_coverage
from repro.core.intersectional_coverage import intersectional_coverage
from repro.core.multiple_coverage import multiple_coverage
from repro.core.resolution import (
    AcquisitionPlan,
    acquisition_plan,
    find_members,
    resolve_coverage,
)
from repro.core.results import (
    ClassifierCoverageResult,
    GroupCoverageResult,
    GroupEntry,
    IntersectionalCoverageReport,
    MultipleCoverageReport,
    TaskUsage,
)
from repro.core.sampling import LabeledPool, label_samples
from repro.core.tree import TreeNode

__all__ = [
    "group_coverage",
    "GroupCoverageStepper",
    "base_coverage",
    "multiple_coverage",
    "intersectional_coverage",
    "classifier_coverage",
    "partition_positive_set",
    "label_positive_set",
    "aggregate_groups",
    "expected_count",
    "label_samples",
    "LabeledPool",
    "upper_bound_tasks",
    "lower_bound_tasks",
    "single_tree_upper_bound",
    "adversarial_tree_size",
    "TaskUsage",
    "GroupCoverageResult",
    "GroupEntry",
    "MultipleCoverageReport",
    "IntersectionalCoverageReport",
    "ClassifierCoverageResult",
    "TreeNode",
    "CostAwareResult",
    "SpendingOracle",
    "choose_set_size",
    "cost_aware_group_coverage",
    "dollar_cost_upper_bound",
    "AcquisitionPlan",
    "acquisition_plan",
    "find_members",
    "resolve_coverage",
]
