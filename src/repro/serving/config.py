"""Deployment configuration of one serving root.

A serving root is a directory every process of the deployment — the
HTTP gateway and any number of worker processes, possibly on different
machines sharing a filesystem — agrees on. ``serving.json`` at its top
records the two things they must agree on *exactly*:

* the **oracle recipe** — how a worker rebuilds the answer source
  (dataset + oracle) in its own process. Audits are deterministic given
  the oracle and the per-job seed, so identical recipes are what makes
  a job resumable by *any* worker with bit-identical verdicts;
* the **engine and scheduling knobs** — batch size, speculation, lease
  TTL, admission limits — so a re-leased job replays under the same
  batching it started with.

Recipes cover the synthetic generators the paper's experiments use
(§6.5); a deployment over real data registers its own builder under a
new kind via :func:`register_recipe`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.crowd.oracle import GroundTruthOracle, Oracle
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.errors import InvalidParameterError
from repro.service.store import write_atomic

__all__ = [
    "ServingConfig",
    "build_oracle",
    "register_recipe",
    "init_serving_root",
    "load_serving_config",
]

_CONFIG_NAME = "serving.json"
_CONFIG_VERSION = 1

#: kind -> builder(recipe_dict) -> Oracle
_RECIPES: dict[str, Callable[[Mapping[str, Any]], Oracle]] = {}


def register_recipe(kind: str, builder: Callable[[Mapping[str, Any]], Oracle]) -> None:
    """Register an oracle builder for recipe ``kind``.

    Every worker process must register the same builder before it can
    serve jobs from a root whose recipe uses it.

    Examples
    --------
    >>> register_recipe("null-for-doc", lambda recipe: None)
    >>> "null-for-doc" in _RECIPES
    True
    """
    _RECIPES[str(kind)] = builder


def _binary_recipe(recipe: Mapping[str, Any]) -> Oracle:
    dataset = binary_dataset(
        int(recipe["n"]),
        int(recipe["n_minority"]),
        rng=np.random.default_rng(int(recipe["dataset_seed"])),
    )
    return GroundTruthOracle(dataset)


def _single_attribute_recipe(recipe: Mapping[str, Any]) -> Oracle:
    counts = {str(k): int(v) for k, v in recipe["counts"].items()}
    dataset = single_attribute_dataset(
        counts, rng=np.random.default_rng(int(recipe["dataset_seed"]))
    )
    return GroundTruthOracle(dataset)


register_recipe("synthetic-binary", _binary_recipe)
register_recipe("synthetic-single-attribute", _single_attribute_recipe)


def build_oracle(recipe: Mapping[str, Any]) -> Oracle:
    """Build the deployment's oracle from its recipe dict.

    Examples
    --------
    >>> oracle = build_oracle({"kind": "synthetic-binary", "n": 100,
    ...                        "n_minority": 10, "dataset_seed": 0})
    >>> len(oracle.dataset)
    100
    """
    kind = recipe.get("kind")
    builder = _RECIPES.get(kind)
    if builder is None:
        raise InvalidParameterError(
            f"unknown oracle recipe kind {kind!r}; registered: "
            f"{sorted(_RECIPES)}"
        )
    return builder(recipe)


@dataclass(frozen=True)
class ServingConfig:
    """Everything a gateway or worker needs to serve one root.

    Attributes
    ----------
    recipe:
        Oracle recipe dict (see :func:`build_oracle`).
    batch_size / speculation:
        Engine knobs every worker runs jobs under (identical batching is
        part of what makes re-leased jobs bit-identical).
    lease_ttl_seconds:
        A lease whose heartbeat is older than this is *stale*: any
        worker may take the job over. Live workers heartbeat at a third
        of this.
    checkpoint_every:
        Scheduler-step period of per-job durable checkpoints. 1 means
        every paid round is durable before the next is asked — the
        zero-re-asked-queries setting the chaos suite pins.
    max_queued_per_tenant:
        Admission ceiling: submits beyond this many *queued* (unclaimed)
        jobs for one tenant are refused with 429 + Retry-After.
    retry_after_seconds:
        The back-off a refused submit advertises.
    step_delay_seconds:
        Optional worker-side sleep between scheduler steps — simulates
        crowd latency in tests and keeps chaos kills mid-job.

    Examples
    --------
    >>> config = ServingConfig(recipe={"kind": "synthetic-binary", "n": 100,
    ...                                "n_minority": 10, "dataset_seed": 0})
    >>> ServingConfig.from_dict(config.to_dict()) == config
    True
    """

    recipe: Mapping[str, Any] = field(default_factory=dict)
    batch_size: int = 32
    speculation: int | None = None
    lease_ttl_seconds: float = 5.0
    checkpoint_every: int = 1
    max_queued_per_tenant: int = 1024
    retry_after_seconds: float = 1.0
    step_delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.lease_ttl_seconds <= 0:
            raise InvalidParameterError(
                f"lease_ttl_seconds must be positive, got {self.lease_ttl_seconds}"
            )
        if self.max_queued_per_tenant < 1:
            raise InvalidParameterError(
                "max_queued_per_tenant must be >= 1, got "
                f"{self.max_queued_per_tenant}"
            )
        # Freeze the recipe so equal configs compare equal.
        object.__setattr__(self, "recipe", dict(self.recipe))

    def to_dict(self) -> dict[str, Any]:
        """JSON form persisted as ``serving.json``."""
        return {
            "version": _CONFIG_VERSION,
            "recipe": dict(self.recipe),
            "batch_size": self.batch_size,
            "speculation": self.speculation,
            "lease_ttl_seconds": self.lease_ttl_seconds,
            "checkpoint_every": self.checkpoint_every,
            "max_queued_per_tenant": self.max_queued_per_tenant,
            "retry_after_seconds": self.retry_after_seconds,
            "step_delay_seconds": self.step_delay_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        """Rebuild a config from its :meth:`to_dict` form."""
        version = data.get("version")
        if version != _CONFIG_VERSION:
            raise InvalidParameterError(
                f"unsupported serving config version {version!r} "
                f"(this build reads version {_CONFIG_VERSION})"
            )
        try:
            return cls(
                recipe=data["recipe"],
                batch_size=int(data["batch_size"]),
                speculation=data["speculation"],
                lease_ttl_seconds=float(data["lease_ttl_seconds"]),
                checkpoint_every=int(data["checkpoint_every"]),
                max_queued_per_tenant=int(data["max_queued_per_tenant"]),
                retry_after_seconds=float(data["retry_after_seconds"]),
                step_delay_seconds=float(data["step_delay_seconds"]),
            )
        except KeyError as error:
            raise InvalidParameterError(
                f"serving config payload is missing field {error.args[0]!r}"
            ) from error

    def build_oracle(self) -> Oracle:
        """A fresh oracle from this config's recipe (one per job run,
        so per-process ledgers attribute spend to exactly one job)."""
        return build_oracle(self.recipe)


def init_serving_root(root: str | os.PathLike[str], config: ServingConfig) -> Path:
    """Create (or validate) a serving root: writes ``serving.json`` and
    the ``jobs/`` directory; idempotent when the existing config matches,
    and refuses to silently re-purpose a root whose config differs.

    Examples
    --------
    >>> import tempfile
    >>> config = ServingConfig(recipe={"kind": "synthetic-binary", "n": 100,
    ...                                "n_minority": 10, "dataset_seed": 0})
    >>> root = init_serving_root(tempfile.mkdtemp(), config)
    >>> load_serving_config(root) == config
    True
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "jobs").mkdir(exist_ok=True)
    config_path = root / _CONFIG_NAME
    # try/except instead of exists(): a concurrent initialiser may publish
    # serving.json between the check and the read.
    try:
        existing = ServingConfig.from_dict(json.loads(config_path.read_text()))
    except FileNotFoundError:
        existing = None
    if existing is not None:
        if existing != config:
            raise InvalidParameterError(
                f"serving root {root} is already initialised with a "
                "different config; refusing to overwrite it"
            )
        return root
    write_atomic(config_path, json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return root


def load_serving_config(root: str | os.PathLike[str]) -> ServingConfig:
    """Read the root's ``serving.json``.

    Examples
    --------
    >>> import tempfile
    >>> config = ServingConfig(recipe={"kind": "synthetic-binary", "n": 50,
    ...                                "n_minority": 5, "dataset_seed": 1})
    >>> root = init_serving_root(tempfile.mkdtemp(), config)
    >>> load_serving_config(root).batch_size
    32
    """
    path = Path(root) / _CONFIG_NAME
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise InvalidParameterError(
            f"{path} does not exist; initialise the root with "
            "init_serving_root first"
        ) from None
    return ServingConfig.from_dict(payload)
