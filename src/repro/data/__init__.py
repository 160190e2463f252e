"""Data substrate: schemas, group predicates, labeled datasets, generators.

Public surface:

* :class:`~repro.data.schema.Attribute`, :class:`~repro.data.schema.Schema`
* :class:`~repro.data.groups.Group`, :class:`~repro.data.groups.SuperGroup`,
  :class:`~repro.data.groups.Negation`, :func:`~repro.data.groups.group`
* :class:`~repro.data.dataset.LabeledDataset`
* the membership index and the sharded out-of-core layer
  (:mod:`repro.data.sharded`):
  :class:`~repro.data.sharded.ShardedMembershipIndex` (answers in-RAM and
  sharded datasets alike), :class:`~repro.data.sharded.ShardedDataset`,
  :class:`~repro.data.sharded.ShardExecutor`
* synthetic generators (:mod:`repro.data.synthetic`)
* image rendering (:mod:`repro.data.images`)
* the paper's evaluation corpora (:mod:`repro.data.corpora`)
"""

from repro.data.corpora import (
    feret_mturk_slice,
    feret_unique_slice,
    mrl_eye_pool,
    utkface_gender_pool,
    utkface_slice,
)
from repro.data.dataset import LabeledDataset, predicate_mask
from repro.data.groups import Group, GroupPredicate, Negation, SuperGroup, group
from repro.data.images import ImageRenderer, attach_images
from repro.data.schema import Attribute, Schema
from repro.data.sharded import (
    ShardedDataset,
    ShardedMembershipIndex,
    ShardExecutor,
    ShardStats,
    dense_index_bytes,
)
from repro.data.synthetic import (
    adversarial_tightness_dataset,
    binary_dataset,
    intersectional_dataset,
    proportions_dataset,
    single_attribute_dataset,
)

__all__ = [
    "Attribute",
    "Schema",
    "Group",
    "GroupPredicate",
    "SuperGroup",
    "Negation",
    "group",
    "LabeledDataset",
    "predicate_mask",
    "ShardedDataset",
    "ShardedMembershipIndex",
    "ShardExecutor",
    "ShardStats",
    "dense_index_bytes",
    "ImageRenderer",
    "attach_images",
    "binary_dataset",
    "single_attribute_dataset",
    "intersectional_dataset",
    "proportions_dataset",
    "adversarial_tightness_dataset",
    "feret_mturk_slice",
    "feret_unique_slice",
    "utkface_slice",
    "utkface_gender_pool",
    "mrl_eye_pool",
]
