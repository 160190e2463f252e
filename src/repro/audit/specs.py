"""Declarative audit specs: *what* to audit, frozen and serializable.

Each spec captures the parameters of one coverage question — the target
group(s), the threshold, the algorithm knobs — and nothing about *how* to
execute it. Execution state (oracle, engine, rng, budget) lives in the
:class:`~repro.audit.session.AuditSession` that runs the spec; the spec
itself is an immutable, hashable value object that can be stored, hashed
into experiment manifests, embedded in an
:class:`~repro.audit.report.AuditReport`, or shipped across a process
boundary via :meth:`to_dict`/:meth:`from_dict`.

Views are normalized at construction time to their native ``int64``
bytes (a frozen dataclass cannot hold a mutable ndarray; bytes hash and
compare by content, and :meth:`view_array` reads them without a copy);
``view=None`` means the session's whole dataset. Semantic validation
(``tau`` ranges, view bounds) happens at run time, in the exact order
the legacy functions validated, so ``session.run(spec)`` raises
precisely what the function form would have raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Sequence, Union, cast

import numpy as np
import numpy.typing as npt

from repro.audit.serialization import (
    predicate_from_dict,
    predicate_to_dict,
    schema_from_dict,
    schema_to_dict,
)
from repro.data.groups import Group, GroupPredicate
from repro.data.schema import Schema
from repro.errors import InvalidParameterError

__all__ = [
    "AuditSpec",
    "GroupAuditSpec",
    "BaseAuditSpec",
    "MultipleAuditSpec",
    "IntersectionalAuditSpec",
    "ClassifierAuditSpec",
    "spec_from_dict",
]


def _index_bytes(
    indices: Sequence[int] | npt.NDArray[np.int64] | bytes | None,
) -> bytes | None:
    """An index collection as the native ``int64`` bytes a spec stores:
    hashable, compared by content, and readable without a copy by
    :func:`_index_array`. Stored bytes pass through unchanged."""
    if indices is None or isinstance(indices, bytes):
        return indices
    return np.asarray(indices, dtype=np.int64).tobytes()


def _index_array(data: bytes | None) -> npt.NDArray[np.int64] | None:
    """The stored bytes as a read-only ``int64`` array over the same
    buffer (``None`` stays ``None``)."""
    return None if data is None else np.frombuffer(data, dtype=np.int64)


def _index_list(data: bytes | None) -> list[int] | None:
    """The stored bytes as the JSON list :meth:`to_dict` writes."""
    if data is None:
        return None
    values: list[int] = np.frombuffer(data, dtype=np.int64).tolist()
    return values


def _missing_field(spec_type: type[object], error: KeyError) -> InvalidParameterError:
    """The error-contract translation of a missing payload field."""
    return InvalidParameterError(
        f"{spec_type.__name__} payload is missing field {error.args[0]!r}"
    )


@dataclass(frozen=True)
class GroupAuditSpec:
    """Audit one group with Group-Coverage (Algorithm 1).

    Attributes
    ----------
    predicate:
        The target group (a :class:`~repro.data.groups.Group`, a
        :class:`~repro.data.groups.SuperGroup`, or a
        :class:`~repro.data.groups.Negation`).
    tau:
        Coverage threshold.
    n:
        Set-query size bound.
    view:
        Dataset indices to search, stored as their native ``int64``
        bytes (:meth:`view_array` reads them); ``None`` means the
        session's whole dataset.

    Examples
    --------
    >>> from repro.audit import GroupAuditSpec, spec_from_dict
    >>> from repro.data.groups import group
    >>> spec = GroupAuditSpec(predicate=group(gender="female"), tau=50)
    >>> spec.describe()
    'group-coverage(gender=female, tau=50)'
    >>> spec_from_dict(spec.to_dict()) == spec
    True
    """

    kind: ClassVar[str] = "group"

    predicate: GroupPredicate
    tau: int
    n: int = 50
    view: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "view", _index_bytes(self.view))

    def view_array(self) -> npt.NDArray[np.int64] | None:
        """The normalized view as a read-only ``int64`` array over the
        stored bytes (``None`` = whole dataset)."""
        return _index_array(self.view)

    def describe(self) -> str:
        """One-line human-readable summary of the audit question."""
        return f"group-coverage({self.predicate.describe()}, tau={self.tau})"

    def to_dict(self) -> dict[str, Any]:
        """Kind-tagged JSON form; :func:`spec_from_dict` inverts it losslessly."""
        return {
            "kind": self.kind,
            "predicate": predicate_to_dict(self.predicate),
            "tau": self.tau,
            "n": self.n,
            "view": _index_list(self.view),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GroupAuditSpec":
        """Rebuild the spec from its :meth:`to_dict` form."""
        try:
            return cls(
                predicate=predicate_from_dict(data["predicate"]),
                tau=int(data["tau"]),
                n=int(data["n"]),
                view=data["view"],
            )
        except KeyError as error:
            raise _missing_field(cls, error) from error


@dataclass(frozen=True)
class BaseAuditSpec:
    """Audit one group with the Base-Coverage baseline (Algorithm 7).

    Examples
    --------
    >>> from repro.audit import BaseAuditSpec
    >>> from repro.data.groups import group
    >>> BaseAuditSpec(predicate=group(gender="female"), tau=50).describe()
    'base-coverage(gender=female, tau=50)'
    """

    kind: ClassVar[str] = "base"

    predicate: GroupPredicate
    tau: int
    view: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "view", _index_bytes(self.view))

    def view_array(self) -> npt.NDArray[np.int64] | None:
        """The normalized view as a read-only ``int64`` array over the
        stored bytes (``None`` = whole dataset)."""
        return _index_array(self.view)

    def describe(self) -> str:
        """One-line human-readable summary of the audit question."""
        return f"base-coverage({self.predicate.describe()}, tau={self.tau})"

    def to_dict(self) -> dict[str, Any]:
        """Kind-tagged JSON form; :func:`spec_from_dict` inverts it losslessly."""
        return {
            "kind": self.kind,
            "predicate": predicate_to_dict(self.predicate),
            "tau": self.tau,
            "view": _index_list(self.view),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BaseAuditSpec":
        """Rebuild the spec from its :meth:`to_dict` form."""
        try:
            return cls(
                predicate=predicate_from_dict(data["predicate"]),
                tau=int(data["tau"]),
                view=data["view"],
            )
        except KeyError as error:
            raise _missing_field(cls, error) from error


@dataclass(frozen=True)
class MultipleAuditSpec:
    """Audit many non-intersectional groups with Algorithm 2.

    Requires the session to hold an rng (``AuditSession(..., seed=...)``
    or ``rng=...``) for the sampling phase.

    Examples
    --------
    >>> from repro.audit import MultipleAuditSpec
    >>> from repro.data.groups import group
    >>> spec = MultipleAuditSpec(
    ...     groups=(group(race="black"), group(race="asian")), tau=50)
    >>> spec.describe()
    'multiple-coverage(2 groups, tau=50)'
    """

    kind: ClassVar[str] = "multiple"

    groups: tuple[Group, ...]
    tau: int
    n: int = 50
    c: float = 2.0
    multi: bool = False
    attribute_supergroup_members: bool = False
    view: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "view", _index_bytes(self.view))

    def view_array(self) -> npt.NDArray[np.int64] | None:
        """The normalized view as a read-only ``int64`` array over the
        stored bytes (``None`` = whole dataset)."""
        return _index_array(self.view)

    def describe(self) -> str:
        """One-line human-readable summary of the audit question."""
        return f"multiple-coverage({len(self.groups)} groups, tau={self.tau})"

    def to_dict(self) -> dict[str, Any]:
        """Kind-tagged JSON form; :func:`spec_from_dict` inverts it losslessly."""
        return {
            "kind": self.kind,
            "groups": [predicate_to_dict(group) for group in self.groups],
            "tau": self.tau,
            "n": self.n,
            "c": self.c,
            "multi": self.multi,
            "attribute_supergroup_members": self.attribute_supergroup_members,
            "view": _index_list(self.view),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MultipleAuditSpec":
        """Rebuild the spec from its :meth:`to_dict` form."""
        try:
            return cls(
                # The codec guarantees plain groups here (kind tag "group");
                # the cast records that, it does not re-validate.
                groups=tuple(
                    cast(Group, predicate_from_dict(group))
                    for group in data["groups"]
                ),
                tau=int(data["tau"]),
                n=int(data["n"]),
                c=float(data["c"]),
                multi=bool(data["multi"]),
                attribute_supergroup_members=bool(
                    data["attribute_supergroup_members"]
                ),
                view=data["view"],
            )
        except KeyError as error:
            raise _missing_field(cls, error) from error


@dataclass(frozen=True)
class IntersectionalAuditSpec:
    """Audit all attribute combinations of a schema with Algorithm 3.

    Requires a session rng (sampling phase of the leaf-level solve).

    Examples
    --------
    >>> from repro.audit import IntersectionalAuditSpec
    >>> from repro.data.schema import Schema
    >>> schema = Schema.from_dict(
    ...     {"gender": ["male", "female"], "race": ["white", "black"]})
    >>> IntersectionalAuditSpec(schema=schema, tau=50).describe()
    'intersectional-coverage(2x2, tau=50)'
    """

    kind: ClassVar[str] = "intersectional"

    schema: Schema
    tau: int
    n: int = 50
    c: float = 2.0
    view: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "view", _index_bytes(self.view))

    def view_array(self) -> npt.NDArray[np.int64] | None:
        """The normalized view as a read-only ``int64`` array over the
        stored bytes (``None`` = whole dataset)."""
        return _index_array(self.view)

    def describe(self) -> str:
        """One-line human-readable summary of the audit question."""
        return (
            f"intersectional-coverage({'x'.join(map(str, self.schema.cardinalities))}"
            f", tau={self.tau})"
        )

    def to_dict(self) -> dict[str, Any]:
        """Kind-tagged JSON form; :func:`spec_from_dict` inverts it losslessly."""
        return {
            "kind": self.kind,
            "schema": schema_to_dict(self.schema),
            "tau": self.tau,
            "n": self.n,
            "c": self.c,
            "view": _index_list(self.view),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IntersectionalAuditSpec":
        """Rebuild the spec from its :meth:`to_dict` form."""
        try:
            return cls(
                schema=schema_from_dict(data["schema"]),
                tau=int(data["tau"]),
                n=int(data["n"]),
                c=float(data["c"]),
                view=data["view"],
            )
        except KeyError as error:
            raise _missing_field(cls, error) from error


@dataclass(frozen=True)
class ClassifierAuditSpec:
    """Verify a classifier's predicted-positive set with Algorithm 4.

    Requires a session rng (the precision-estimation sample).

    Examples
    --------
    >>> from repro.audit import ClassifierAuditSpec
    >>> from repro.data.groups import group
    >>> spec = ClassifierAuditSpec(group=group(gender="female"), tau=50,
    ...                            predicted_positive=(3, 1, 4))
    >>> spec.describe()
    'classifier-coverage(gender=female, tau=50, |G|=3)'
    >>> spec.predicted_positive_array()
    array([3, 1, 4])
    """

    kind: ClassVar[str] = "classifier"

    group: Group
    tau: int
    predicted_positive: bytes = b""
    n: int = 50
    sample_fraction: float = 0.10
    fp_threshold: float = 0.25
    view: bytes | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "predicted_positive", _index_bytes(self.predicted_positive) or b""
        )
        object.__setattr__(self, "view", _index_bytes(self.view))

    def view_array(self) -> npt.NDArray[np.int64] | None:
        """The normalized view as a read-only ``int64`` array over the
        stored bytes (``None`` = whole dataset)."""
        return _index_array(self.view)

    def predicted_positive_array(self) -> npt.NDArray[np.int64]:
        """The classifier's predicted-positive set as a read-only
        ``int64`` array over the stored bytes."""
        return np.frombuffer(self.predicted_positive, dtype=np.int64)

    def describe(self) -> str:
        """One-line human-readable summary of the audit question."""
        return (
            f"classifier-coverage({self.group.describe()}, tau={self.tau}, "
            f"|G|={len(self.predicted_positive_array())})"
        )

    def to_dict(self) -> dict[str, Any]:
        """Kind-tagged JSON form; :func:`spec_from_dict` inverts it losslessly."""
        return {
            "kind": self.kind,
            "group": predicate_to_dict(self.group),
            "tau": self.tau,
            "predicted_positive": self.predicted_positive_array().tolist(),
            "n": self.n,
            "sample_fraction": self.sample_fraction,
            "fp_threshold": self.fp_threshold,
            "view": _index_list(self.view),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClassifierAuditSpec":
        """Rebuild the spec from its :meth:`to_dict` form."""
        try:
            return cls(
                group=cast(Group, predicate_from_dict(data["group"])),
                tau=int(data["tau"]),
                predicted_positive=data["predicted_positive"],
                n=int(data["n"]),
                sample_fraction=float(data["sample_fraction"]),
                fp_threshold=float(data["fp_threshold"]),
                view=data["view"],
            )
        except KeyError as error:
            raise _missing_field(cls, error) from error


#: Anything :meth:`AuditSession.run` accepts.
AuditSpec = Union[
    GroupAuditSpec,
    BaseAuditSpec,
    MultipleAuditSpec,
    IntersectionalAuditSpec,
    ClassifierAuditSpec,
]

_SPEC_TYPES: dict[str, type[AuditSpec]] = {
    spec_type.kind: spec_type
    for spec_type in (
        GroupAuditSpec,
        BaseAuditSpec,
        MultipleAuditSpec,
        IntersectionalAuditSpec,
        ClassifierAuditSpec,
    )
}


def spec_from_dict(data: Mapping[str, Any]) -> AuditSpec:
    """Rebuild any spec from its :meth:`to_dict` form (kind-tagged).

    Examples
    --------
    >>> from repro.audit import GroupAuditSpec, spec_from_dict
    >>> from repro.data.groups import group
    >>> spec = GroupAuditSpec(predicate=group(gender="female"), tau=9)
    >>> spec_from_dict(spec.to_dict()) == spec
    True
    """
    spec_type = _SPEC_TYPES.get(data.get("kind"))
    if spec_type is None:
        raise InvalidParameterError(
            f"unknown audit spec kind {data.get('kind')!r}; "
            f"supported: {sorted(_SPEC_TYPES)}"
        )
    return spec_type.from_dict(data)
