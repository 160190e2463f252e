"""Attribute schemas for the attributes of interest.

The paper considers a small number of low-cardinality categorical
*attributes of interest* (gender, race, age-group, ...). A
:class:`Schema` is an ordered collection of :class:`Attribute` objects and
is shared by datasets, group predicates, and the pattern graph.

Values are stored both as strings (the human-readable group names shown to
crowd workers, e.g. ``"female"``) and as integer codes (the compact form
stored in dataset label arrays). The schema owns the string<->code mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, UnknownGroupError

__all__ = ["Attribute", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """A categorical attribute of interest.

    Parameters
    ----------
    name:
        Attribute identifier, e.g. ``"gender"``.
    values:
        The attribute's domain as an ordered tuple of distinct value names,
        e.g. ``("male", "female")``. Order defines the integer coding:
        ``values[code] == name``.

    Raises
    ------
    SchemaError
        If the domain has fewer than two values or contains duplicates.
    """

    name: str
    values: tuple[str, ...]

    def __init__(self, name: str, values: Iterable[str]) -> None:
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "values", tuple(str(v) for v in values))
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if len(self.values) < 2:
            raise SchemaError(
                f"attribute {self.name!r} needs at least two values, "
                f"got {self.values!r}"
            )
        if len(set(self.values)) != len(self.values):
            raise SchemaError(
                f"attribute {self.name!r} has duplicate values: {self.values!r}"
            )

    @property
    def cardinality(self) -> int:
        """Number of values in the domain (the paper's sigma)."""
        return len(self.values)

    def code_of(self, value: str) -> int:
        """Integer code of ``value``.

        Raises
        ------
        UnknownGroupError
            If ``value`` is not in this attribute's domain.
        """
        try:
            return self.values.index(value)
        except ValueError:
            raise UnknownGroupError(
                f"value {value!r} not in domain of attribute {self.name!r} "
                f"(domain: {self.values!r})"
            ) from None

    def value_of(self, code: int) -> str:
        """Value name for an integer ``code``."""
        if not 0 <= code < len(self.values):
            raise UnknownGroupError(
                f"code {code} out of range for attribute {self.name!r}"
            )
        return self.values[code]

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)


@dataclass(frozen=True)
class Schema:
    """An ordered set of attributes of interest.

    The schema defines the universe for group predicates and patterns:
    a fully-specified subgroup picks one value per attribute, and the
    number of such subgroups is the product of the cardinalities.
    """

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        object.__setattr__(self, "attributes", tuple(attributes))
        if not self.attributes:
            raise SchemaError("schema must contain at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names!r}")

    @classmethod
    def from_dict(cls, spec: Mapping[str, Sequence[str]]) -> "Schema":
        """Build a schema from ``{attribute_name: [values...]}``.

        >>> Schema.from_dict({"gender": ["male", "female"]}).cardinalities
        (2,)
        """
        return cls(Attribute(name, values) for name, values in spec.items())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Per-attribute cardinalities ``(sigma_1, ..., sigma_d)``."""
        return tuple(a.cardinality for a in self.attributes)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_full_groups(self) -> int:
        """Number of fully-specified subgroups (product of cardinalities)."""
        total = 1
        for a in self.attributes:
            total *= a.cardinality
        return total

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name.

        Raises
        ------
        UnknownGroupError
            If no attribute with that name exists.
        """
        for a in self.attributes:
            if a.name == name:
                return a
        raise UnknownGroupError(
            f"attribute {name!r} not in schema (have: {self.names!r})"
        )

    def index_of(self, name: str) -> int:
        """Position of attribute ``name`` within the schema."""
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise UnknownGroupError(
            f"attribute {name!r} not in schema (have: {self.names!r})"
        )

    def encode_row(self, labels: Mapping[str, str]) -> list[int]:
        """The codes of one ``{attribute: value}`` labeling, in schema
        order; a missing attribute or a value outside its domain raises
        :class:`UnknownGroupError`.

        >>> Schema.from_dict({"gender": ["male", "female"]}).encode_row(
        ...     {"gender": "female"})
        [1]
        """
        try:
            return [a.code_of(labels[a.name]) for a in self.attributes]
        except KeyError as error:
            raise UnknownGroupError(
                f"labeling {dict(labels)!r} has no value for attribute {error.args[0]!r}"
            ) from None

    def encode_rows(self, labelings: Iterable[Mapping[str, str]]) -> np.ndarray:
        """The ``(k, d)`` ``int16`` code matrix of many labelings, one
        :meth:`encode_row` each, in order.

        >>> Schema.from_dict({"gender": ["male", "female"]}).encode_rows(
        ...     [{"gender": "female"}, {"gender": "male"}]).tolist()
        [[1], [0]]
        """
        rows = [self.encode_row(labels) for labels in labelings]
        return np.array(rows, dtype=np.int16).reshape(len(rows), self.n_attributes)

    def decode_rows(self, codes: np.ndarray) -> list[dict[str, str]]:
        """``{attribute: value}`` labelings of a ``(k, d)`` code matrix,
        keys in schema order; one fancy-index per attribute decodes the
        whole matrix.

        >>> import numpy as np
        >>> Schema.from_dict({"gender": ["male", "female"]}).decode_rows(
        ...     np.array([[1], [0]], dtype=np.int16))
        [{'gender': 'female'}, {'gender': 'male'}]
        """
        columns = [
            (a.name, np.asarray(a.values, dtype=object)[codes[:, j]])
            for j, a in enumerate(self.attributes)
        ]
        return [{name: column[i] for name, column in columns} for i in range(len(codes))]

    def __contains__(self, name: object) -> bool:
        return any(a.name == name for a in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)
