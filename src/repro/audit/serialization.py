"""Lossless JSON codecs for predicates, schemas, and result dataclasses.

The :mod:`repro.io` helpers flatten reports into *human/archival* JSON
(descriptions instead of structure) and deliberately do not round-trip.
The audit layer needs the opposite: a :class:`~repro.audit.report.AuditReport`
must cross a process boundary and come back **equal** to the original —
``from_dict(to_dict(x)) == x`` for every supported type. These codecs
therefore preserve structure: predicates keep their conditions, patterns
keep their schema, and every counter survives bit-for-bit.

Supported payloads:

* predicates — :class:`~repro.data.groups.Group`,
  :class:`~repro.data.groups.SuperGroup`, :class:`~repro.data.groups.Negation`
* :class:`~repro.data.schema.Schema` / :class:`~repro.data.schema.Attribute`
* :class:`~repro.core.results.TaskUsage`, :class:`~repro.engine.stats.EngineStats`
* every result dataclass in :mod:`repro.core.results`, plus
  :class:`~repro.patterns.combiner.PatternCoverageReport`
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.results import (
    ClassifierCoverageResult,
    GroupCoverageResult,
    GroupEntry,
    IntersectionalCoverageReport,
    MultipleCoverageReport,
    TaskUsage,
)
from repro.data.groups import Group, GroupPredicate, Negation, SuperGroup
from repro.data.schema import Attribute, Schema
from repro.engine.stats import EngineStats
from repro.errors import CheckpointVersionError, InvalidParameterError
from repro.patterns.combiner import PatternCoverageReport, PatternVerdict
from repro.patterns.pattern import Pattern

__all__ = [
    "predicate_to_dict",
    "predicate_from_dict",
    "schema_to_dict",
    "schema_from_dict",
    "task_usage_to_dict",
    "task_usage_from_dict",
    "engine_stats_to_dict",
    "engine_stats_from_dict",
    "result_to_dict",
    "result_from_dict",
    "set_answer_to_dict",
    "set_answers_from_list",
    "point_answers_to_list",
    "point_answers_from_list",
]


# -- paid crowd answers: the entries of the answer log that
# :class:`~repro.audit.proxy.RecordingOracleProxy` writes and replays.
# Contiguous-run index keys serialize as compact ``{"run": [start, stop]}``
# endpoints; scattered arrays spell their indices out.


def set_answer_to_dict(predicate, index_key, answer: bool) -> dict[str, Any]:
    """One checkpointed set answer; runs stay compact endpoints."""
    entry: dict[str, Any] = {
        "predicate": predicate_to_dict(predicate),
        "answer": bool(answer),
    }
    if index_key.is_run:
        entry["run"] = [index_key.start, index_key.stop]
    else:
        entry["indices"] = index_key.to_array().tolist()
    return entry


def _index_key_from_dict(entry: Mapping[str, Any]):
    """Rebuild the interned ``IndexKey`` of a checkpoint entry."""
    import numpy as np

    from repro.engine.requests import IndexKey

    run = entry.get("run")
    if run is not None:
        return IndexKey.of_run(int(run[0]), int(run[1]))
    indices = entry.get("indices")
    if indices is None:
        raise CheckpointVersionError(
            "checkpointed set answer carries neither 'run' endpoints nor an "
            "'indices' list — the entry was written by an incompatible "
            f"checkpoint version (keys: {sorted(entry)})"
        )
    return IndexKey.of(np.asarray(indices, dtype=np.int64))


def set_answers_from_list(entries) -> dict:
    """Invert a list of :func:`set_answer_to_dict` entries into the
    ``{QueryKey: bool}`` mapping replay proxies and caches consume."""
    try:
        return {
            (
                predicate_from_dict(entry["predicate"]),
                _index_key_from_dict(entry),
            ): bool(entry["answer"])
            for entry in entries
        }
    except CheckpointVersionError:
        raise
    except KeyError as error:
        raise CheckpointVersionError(
            f"checkpointed set answer is missing the {error.args[0]!r} "
            "field — written by an incompatible checkpoint version?"
        ) from error
    except (InvalidParameterError, ValueError) as error:
        # e.g. an unknown predicate type, or corrupt values, from a
        # newer build.
        raise CheckpointVersionError(
            f"checkpointed set answer is not readable by this build ({error})"
        ) from error


def point_answers_to_list(answers: Mapping[int, Mapping[str, str]]) -> list[dict]:
    return [
        {"index": index, "labels": dict(labels)}
        for index, labels in answers.items()
    ]


def point_answers_from_list(entries) -> dict[int, dict[str, str]]:
    try:
        return {int(entry["index"]): dict(entry["labels"]) for entry in entries}
    except (KeyError, ValueError, TypeError) as error:
        raise CheckpointVersionError(
            f"checkpointed point answer is not readable by this build "
            f"({error}) — written by an incompatible checkpoint version?"
        ) from error


# -- predicates ---------------------------------------------------------


def predicate_to_dict(predicate: GroupPredicate) -> dict[str, Any]:
    """Structure-preserving form of a group predicate.

    Examples
    --------
    >>> from repro.data.groups import group
    >>> predicate_to_dict(group(gender="female"))
    {'type': 'group', 'conditions': {'gender': 'female'}}
    """
    if isinstance(predicate, Group):
        return {"type": "group", "conditions": dict(predicate.conditions)}
    if isinstance(predicate, SuperGroup):
        return {
            "type": "supergroup",
            "members": [predicate_to_dict(member) for member in predicate.members],
        }
    if isinstance(predicate, Negation):
        return {"type": "negation", "inner": predicate_to_dict(predicate.inner)}
    raise InvalidParameterError(
        f"cannot serialize predicate of type {type(predicate).__name__}"
    )


def predicate_from_dict(data: Mapping[str, Any]) -> Group | SuperGroup | Negation:
    """Inverse of :func:`predicate_to_dict` — the rebuilt predicate
    compares (and hashes) equal to the original.

    Examples
    --------
    >>> from repro.data.groups import group
    >>> predicate_from_dict(predicate_to_dict(group(race="black"))) == group(race="black")
    True
    """
    kind = data.get("type")
    try:
        if kind == "group":
            return Group(data["conditions"])
        if kind == "supergroup":
            return SuperGroup(
                predicate_from_dict(member) for member in data["members"]
            )
        if kind == "negation":
            return Negation(predicate_from_dict(data["inner"]))
    except KeyError as error:
        raise InvalidParameterError(
            f"predicate payload of type {kind!r} is missing field "
            f"{error.args[0]!r}"
        ) from error
    raise InvalidParameterError(f"unknown predicate type {kind!r}")


# -- schema -------------------------------------------------------------


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    """JSON-ready form of a schema: attribute names with ordered domains.

    Examples
    --------
    >>> from repro.data.schema import Schema
    >>> schema_to_dict(Schema.from_dict({"gender": ["male", "female"]}))
    {'attributes': [{'name': 'gender', 'values': ['male', 'female']}]}
    """
    return {
        "attributes": [
            {"name": attribute.name, "values": list(attribute.values)}
            for attribute in schema
        ]
    }


def schema_from_dict(data: Mapping[str, Any]) -> Schema:
    """Inverse of :func:`schema_to_dict`; the rebuilt schema compares equal.

    Examples
    --------
    >>> from repro.data.schema import Schema
    >>> schema = Schema.from_dict({"gender": ["male", "female"]})
    >>> schema_from_dict(schema_to_dict(schema)) == schema
    True
    """
    try:
        return Schema(
            Attribute(entry["name"], entry["values"]) for entry in data["attributes"]
        )
    except KeyError as error:
        raise InvalidParameterError(
            f"schema payload is missing field {error.args[0]!r}"
        ) from error


# -- counters -----------------------------------------------------------


def task_usage_to_dict(usage: TaskUsage) -> dict[str, int]:
    return {
        "n_set_queries": usage.n_set_queries,
        "n_point_queries": usage.n_point_queries,
        "n_rounds": usage.n_rounds,
    }


def task_usage_from_dict(data: Mapping[str, Any]) -> TaskUsage:
    try:
        return TaskUsage(
            n_set_queries=int(data["n_set_queries"]),
            n_point_queries=int(data["n_point_queries"]),
            n_rounds=int(data["n_rounds"]),
        )
    except KeyError as error:
        raise InvalidParameterError(
            f"task usage payload is missing field {error.args[0]!r}"
        ) from error


def engine_stats_to_dict(stats: EngineStats | None) -> dict[str, int] | None:
    if stats is None:
        return None
    return {
        "scheduler_rounds": stats.scheduler_rounds,
        "oracle_round_trips": stats.oracle_round_trips,
        "dispatched_queries": stats.dispatched_queries,
        "deduped_queries": stats.deduped_queries,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def engine_stats_from_dict(data: Mapping[str, Any] | None) -> EngineStats | None:
    if data is None:
        return None
    return EngineStats(**{key: int(value) for key, value in data.items()})


# -- results ------------------------------------------------------------


def _group_coverage_to_dict(result: GroupCoverageResult) -> dict[str, Any]:
    return {
        "kind": "group-coverage",
        "predicate": predicate_to_dict(result.predicate),
        "covered": result.covered,
        "count": result.count,
        "tau": result.tau,
        "tasks": task_usage_to_dict(result.tasks),
        "discovered_indices": list(result.discovered_indices),
        "engine_stats": engine_stats_to_dict(result.engine_stats),
    }


def _group_coverage_from_dict(data: Mapping[str, Any]) -> GroupCoverageResult:
    return GroupCoverageResult(
        predicate=predicate_from_dict(data["predicate"]),
        covered=bool(data["covered"]),
        count=int(data["count"]),
        tau=int(data["tau"]),
        tasks=task_usage_from_dict(data["tasks"]),
        discovered_indices=tuple(int(i) for i in data["discovered_indices"]),
        engine_stats=engine_stats_from_dict(data["engine_stats"]),
    )


def _entry_to_dict(entry: GroupEntry) -> dict[str, Any]:
    return {
        "group": predicate_to_dict(entry.group),
        "covered": entry.covered,
        "count": entry.count,
        "count_is_exact": entry.count_is_exact,
        "via_supergroup": (
            predicate_to_dict(entry.via_supergroup)
            if entry.via_supergroup is not None
            else None
        ),
    }


def _entry_from_dict(data: Mapping[str, Any]) -> GroupEntry:
    return GroupEntry(
        group=predicate_from_dict(data["group"]),
        covered=bool(data["covered"]),
        count=int(data["count"]),
        count_is_exact=bool(data["count_is_exact"]),
        via_supergroup=(
            predicate_from_dict(data["via_supergroup"])
            if data["via_supergroup"] is not None
            else None
        ),
    )


def _multiple_to_dict(report: MultipleCoverageReport) -> dict[str, Any]:
    return {
        "kind": "multiple-coverage",
        "entries": [_entry_to_dict(entry) for entry in report.entries],
        "super_groups": [predicate_to_dict(sg) for sg in report.super_groups],
        "sampled_counts": [
            [predicate_to_dict(group), count]
            for group, count in report.sampled_counts.items()
        ],
        "tasks": task_usage_to_dict(report.tasks),
        "engine_stats": engine_stats_to_dict(report.engine_stats),
    }


def _multiple_from_dict(data: Mapping[str, Any]) -> MultipleCoverageReport:
    return MultipleCoverageReport(
        entries=tuple(_entry_from_dict(entry) for entry in data["entries"]),
        super_groups=tuple(predicate_from_dict(sg) for sg in data["super_groups"]),
        sampled_counts={
            predicate_from_dict(group): int(count)
            for group, count in data["sampled_counts"]
        },
        tasks=task_usage_from_dict(data["tasks"]),
        engine_stats=engine_stats_from_dict(data["engine_stats"]),
    )


def _pattern_report_to_dict(report: PatternCoverageReport) -> dict[str, Any]:
    # Every pattern shares the report's schema; serialize it once and the
    # patterns as their value tuples (null = wildcard).
    schema = next(iter(report.verdicts)).schema
    return {
        "kind": "pattern-coverage",
        "tau": report.tau,
        "schema": schema_to_dict(schema),
        "verdicts": [
            {
                "values": list(pattern.values),
                "covered": verdict.covered,
                "count_lower_bound": verdict.count_lower_bound,
                "count_is_exact": verdict.count_is_exact,
            }
            for pattern, verdict in report.verdicts.items()
        ],
        "mups": [list(pattern.values) for pattern in report.mups],
    }


def _pattern_report_from_dict(data: Mapping[str, Any]) -> PatternCoverageReport:
    schema = schema_from_dict(data["schema"])

    def pattern_of(values: list[str | None]) -> Pattern:
        return Pattern(schema, tuple(values))

    verdicts: dict[Pattern, PatternVerdict] = {}
    for entry in data["verdicts"]:
        pattern = pattern_of(entry["values"])
        verdicts[pattern] = PatternVerdict(
            pattern=pattern,
            covered=bool(entry["covered"]),
            count_lower_bound=int(entry["count_lower_bound"]),
            count_is_exact=bool(entry["count_is_exact"]),
        )
    return PatternCoverageReport(
        tau=int(data["tau"]),
        verdicts=verdicts,
        mups=tuple(pattern_of(values) for values in data["mups"]),
    )


def _intersectional_to_dict(report: IntersectionalCoverageReport) -> dict[str, Any]:
    return {
        "kind": "intersectional-coverage",
        "leaf_report": _multiple_to_dict(report.leaf_report),
        "pattern_report": _pattern_report_to_dict(report.pattern_report),
        "tasks": task_usage_to_dict(report.tasks),
        "engine_stats": engine_stats_to_dict(report.engine_stats),
    }


def _intersectional_from_dict(data: Mapping[str, Any]) -> IntersectionalCoverageReport:
    return IntersectionalCoverageReport(
        leaf_report=_multiple_from_dict(data["leaf_report"]),
        pattern_report=_pattern_report_from_dict(data["pattern_report"]),
        tasks=task_usage_from_dict(data["tasks"]),
        engine_stats=engine_stats_from_dict(data["engine_stats"]),
    )


def _classifier_to_dict(result: ClassifierCoverageResult) -> dict[str, Any]:
    return {
        "kind": "classifier-coverage",
        "group": predicate_to_dict(result.group),
        "covered": result.covered,
        "count": result.count,
        "tau": result.tau,
        "strategy": result.strategy,
        "precision_estimate": result.precision_estimate,
        "verified_count": result.verified_count,
        "tasks": task_usage_to_dict(result.tasks),
        "fallback": (
            _group_coverage_to_dict(result.fallback)
            if result.fallback is not None
            else None
        ),
        "sample_size": result.sample_size,
    }


def _classifier_from_dict(data: Mapping[str, Any]) -> ClassifierCoverageResult:
    return ClassifierCoverageResult(
        group=predicate_from_dict(data["group"]),
        covered=bool(data["covered"]),
        count=int(data["count"]),
        tau=int(data["tau"]),
        strategy=data["strategy"],
        precision_estimate=float(data["precision_estimate"]),
        verified_count=int(data["verified_count"]),
        tasks=task_usage_from_dict(data["tasks"]),
        fallback=(
            _group_coverage_from_dict(data["fallback"])
            if data["fallback"] is not None
            else None
        ),
        sample_size=int(data["sample_size"]),
    )


_TO_DICT = {
    GroupCoverageResult: _group_coverage_to_dict,
    MultipleCoverageReport: _multiple_to_dict,
    IntersectionalCoverageReport: _intersectional_to_dict,
    ClassifierCoverageResult: _classifier_to_dict,
    PatternCoverageReport: _pattern_report_to_dict,
}

_FROM_DICT = {
    "group-coverage": _group_coverage_from_dict,
    "multiple-coverage": _multiple_from_dict,
    "intersectional-coverage": _intersectional_from_dict,
    "classifier-coverage": _classifier_from_dict,
    "pattern-coverage": _pattern_report_from_dict,
}


def result_to_dict(result: Any) -> dict[str, Any]:
    """Lossless dict form of any coverage result/report; tagged by ``kind``.

    Examples
    --------
    >>> from repro.core.results import GroupCoverageResult, TaskUsage
    >>> from repro.data.groups import group
    >>> result = GroupCoverageResult(predicate=group(gender="female"),
    ...                              covered=True, count=3, tau=3,
    ...                              tasks=TaskUsage(n_set_queries=5),
    ...                              discovered_indices=(1, 2, 9))
    >>> result_to_dict(result)["kind"]
    'group-coverage'
    """
    converter = _TO_DICT.get(type(result))
    if converter is None:
        raise InvalidParameterError(
            f"cannot serialize {type(result).__name__}; supported: "
            f"{sorted(t.__name__ for t in _TO_DICT)}"
        )
    return converter(result)


def result_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`result_to_dict`: ``result_from_dict(result_to_dict(x)) == x``.

    Examples
    --------
    >>> from repro.core.results import GroupCoverageResult, TaskUsage
    >>> from repro.data.groups import group
    >>> result = GroupCoverageResult(predicate=group(gender="female"),
    ...                              covered=True, count=3, tau=3,
    ...                              tasks=TaskUsage(n_set_queries=5),
    ...                              discovered_indices=(1, 2, 9))
    >>> result_from_dict(result_to_dict(result)) == result
    True
    """
    converter = _FROM_DICT.get(data.get("kind"))
    if converter is None:
        raise InvalidParameterError(
            f"unknown result kind {data.get('kind')!r}; supported: "
            f"{sorted(_FROM_DICT)}"
        )
    return converter(data)
