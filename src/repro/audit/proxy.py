"""The recording/replaying oracle proxy sessions and services share.

Both :class:`~repro.audit.session.AuditSession` and
:class:`~repro.service.AuditService` wrap their oracle in a
:class:`RecordingOracleProxy` so that every answer the crowd was paid
for can be checkpointed, and answers loaded from a checkpoint replay for
free. The proxy shares the raw oracle's schema and ledger (charging is
unchanged) and is transparent when nothing is loaded: same calls, same
charges, same rounds, bit-identical results.

It also owns the answer log that ends every checkpoint: the
``set_answers``, ``point_answers`` and ``reliability`` sections.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.audit import serialization as codec
from repro.crowd.oracle import Oracle
from repro.crowd.reliability.serialization import ReliabilitySnapshot
from repro.engine.requests import QueryKey, set_query_key
from repro.errors import CheckpointVersionError

__all__ = ["AnswerLog", "RecordingOracleProxy"]


def _infer_dataset_size(oracle: Oracle) -> int | None:
    """The dataset size behind an oracle, when it exposes one."""
    dataset = getattr(oracle, "dataset", None)
    if dataset is None:
        dataset = getattr(getattr(oracle, "platform", None), "dataset", None)
    return len(dataset) if dataset is not None else None


def _reliability_platform(oracle: Oracle):
    """The reliability-enabled :class:`~repro.crowd.platform.CrowdPlatform`
    behind an oracle (or oracle proxy), when there is one, else ``None``."""
    platform = getattr(oracle, "platform", None)
    return platform if getattr(platform, "reliability", None) is not None else None


@dataclass(frozen=True)
class AnswerLog:
    """A decoded answer log, as :meth:`RecordingOracleProxy.replay` loads it."""

    set_answers: dict[QueryKey, bool]
    point_answers: dict[int, dict[str, str]]
    reliability: ReliabilitySnapshot | None


class RecordingOracleProxy(Oracle):
    """Records every paid answer; replays checkpointed ones for free.

    * **recording** — each answer the inner oracle produces is kept, so
      a checkpoint can persist everything the crowd was paid for, and
    * **replaying** — answers loaded from a checkpoint are returned
      without consulting (or charging) the inner oracle: the mechanism
      behind resume-without-re-asking.
    """

    def __init__(self, inner: Oracle) -> None:
        self._session_inner = inner
        self.schema = inner.schema
        self.ledger = inner.ledger
        self._set_seen: dict[QueryKey, bool] = {}
        self._point_seen: dict[int, dict[str, str]] = {}
        self._set_replay: dict[QueryKey, bool] = {}
        self._point_replay: dict[int, dict[str, str]] = {}

    def __getattr__(self, name: str):
        if name == "_session_inner":
            raise AttributeError(name)
        inner = self._session_inner
        try:
            return getattr(inner, name)
        except AttributeError as error:
            # Distinguish "the inner oracle has no such attribute" (a
            # genuine miss the proxy should report as its own) from "a
            # property on the inner oracle *raised* AttributeError while
            # computing" — swallowing the latter makes a real bug look
            # like a missing attribute (hasattr() returns False, getattr
            # defaults kick in) and hides the original traceback.
            if inspect.getattr_static(inner, name, _MISSING) is _MISSING:
                raise
            raise RuntimeError(
                f"accessing {type(inner).__name__}.{name} raised "
                f"AttributeError internally; re-raising so it is not "
                f"mistaken for a missing attribute"
            ) from error

    # -- the answer log --------------------------------------------------
    def answer_log(self, cache=None) -> dict[str, Any]:
        """The answer-log sections: every recorded answer, then the
        entries of the :class:`~repro.engine.cache.AnswerCache` ``cache``
        (implied negatives included), and the reliability snapshot
        (``None`` without a reliability-enabled platform).

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> oracle = GroundTruthOracle(binary_dataset(9, 3, placement="front"))
        >>> RecordingOracleProxy(oracle).answer_log()
        {'set_answers': [], 'point_answers': [], 'reliability': None}
        """
        set_answers = {**self._set_seen, **dict(() if cache is None else cache.entries())}
        platform = _reliability_platform(self._session_inner)
        return {
            "set_answers": [
                codec.set_answer_to_dict(predicate, index_key, answer)
                for (predicate, index_key), answer in set_answers.items()
            ],
            "point_answers": codec.point_answers_to_list(self._point_seen),
            "reliability": (
                None
                if platform is None
                else ReliabilitySnapshot.capture(platform).to_dict()
            ),
        }

    @staticmethod
    def decode_answer_log(
        data: Mapping[str, Any], oracle: Oracle, *, reliability: bool, source: str
    ) -> AnswerLog:
        """Decode the answer log of checkpoint ``data`` (whose version
        has a reliability section when ``reliability``) for a resume
        onto ``oracle``, changing nothing. Unreadable sections, and a
        reliability section ``oracle`` has no platform for, raise
        :class:`~repro.errors.CheckpointVersionError` naming ``source``.

        >>> RecordingOracleProxy.decode_answer_log(
        ...     {"version": 2}, None, reliability=True, source="checkpoint")
        Traceback (most recent call last):
        repro.errors.CheckpointVersionError: checkpoint declares version 2 but is missing the 'set_answers' field that version requires
        """
        try:
            raw_set_answers = data["set_answers"]
            raw_point_answers = data["point_answers"]
            raw_reliability = data["reliability"] if reliability else None
        except KeyError as error:
            raise CheckpointVersionError(
                f"{source} declares version {data.get('version')} but is "
                f"missing the {error.args[0]!r} field that version requires"
            ) from error
        if raw_reliability is not None and _reliability_platform(oracle) is None:
            raise CheckpointVersionError(
                f"{source} carries a reliability section but the resuming "
                "oracle has no reliability-enabled platform — resume with the "
                "same CrowdPlatform(reliability=...) configuration the "
                "checkpoint was written under"
            )
        return AnswerLog(
            codec.set_answers_from_list(raw_set_answers),
            codec.point_answers_from_list(raw_point_answers),
            None if raw_reliability is None else ReliabilitySnapshot.from_dict(raw_reliability),
        )

    def replay(self, log: AnswerLog, cache=None) -> None:
        """Load a decoded log: its answers replay for free through this
        proxy and ``cache``; its reliability snapshot is restored.

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> proxy = RecordingOracleProxy(
        ...     GroundTruthOracle(binary_dataset(9, 3, placement="front")))
        >>> proxy.replay(AnswerLog({}, {0: {"gender": "male"}}, None))
        >>> proxy.ask_point(0), proxy.ledger.total
        ({'gender': 'male'}, 0)
        """
        self._set_replay.update(log.set_answers)
        self._set_seen.update(log.set_answers)
        self._point_replay.update(log.point_answers)
        self._point_seen.update(log.point_answers)
        if cache is not None:
            for key, answer in log.set_answers.items():
                cache.store(key, answer)
        if log.reliability is not None:
            log.reliability.restore(_reliability_platform(self._session_inner))

    def reliability_report(self):
        """The inner platform's current
        :class:`~repro.crowd.reliability.ReliabilityReport`, or ``None``.

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> oracle = GroundTruthOracle(binary_dataset(9, 3, placement="front"))
        >>> print(RecordingOracleProxy(oracle).reliability_report())
        None
        """
        platform = _reliability_platform(self._session_inner)
        return None if platform is None else platform.reliability.report()

    # -- public oracle API ------------------------------------------------
    def ask_set(self, indices, predicate, *, key=None) -> bool:
        if key is None:
            key = set_query_key(np.asarray(indices, dtype=np.int64), predicate)
        if key in self._set_replay:
            return self._set_replay[key]
        answer = self._session_inner.ask_set(indices, predicate, key=key)
        self._set_seen[key] = answer
        return answer

    def ask_set_batch(self, queries, *, keys=None) -> list[bool]:
        prepared = [
            (np.asarray(indices, dtype=np.int64), predicate)
            for indices, predicate in queries
        ]
        if keys is None:
            keys = [
                set_query_key(indices, predicate) for indices, predicate in prepared
            ]
        fresh = [
            (position, query)
            for position, (key, query) in enumerate(zip(keys, prepared))
            if key not in self._set_replay
        ]
        answers: list[bool] = [False] * len(prepared)
        for position, key in enumerate(keys):
            if key in self._set_replay:
                answers[position] = self._set_replay[key]
        if fresh:
            fresh_answers = self._session_inner.ask_set_batch(
                [query for _, query in fresh],
                keys=[keys[position] for position, _ in fresh],
            )
            for (position, _), answer in zip(fresh, fresh_answers):
                answers[position] = answer
                self._set_seen[keys[position]] = answer
        return answers

    def ask_point(self, index: int) -> dict[str, str]:
        index = int(index)
        if index in self._point_replay:
            return dict(self._point_replay[index])
        labels = self._session_inner.ask_point(index)
        self._point_seen[index] = dict(labels)
        return labels

    def ask_point_batch(self, indices) -> list[dict[str, str]]:
        prepared = [int(index) for index in indices]
        fresh = [
            (position, index)
            for position, index in enumerate(prepared)
            if index not in self._point_replay
        ]
        answers: list[dict[str, str]] = [
            dict(self._point_replay[index]) if index in self._point_replay else {}
            for index in prepared
        ]
        if fresh:
            fresh_answers = self._session_inner.ask_point_batch(
                [index for _, index in fresh]
            )
            for (position, index), labels in zip(fresh, fresh_answers):
                answers[position] = labels
                self._point_seen[index] = dict(labels)
        return answers

    # -- implementation hooks (unused: public methods are overridden) -----
    def _answer_set(self, indices, predicate, index_key) -> bool:  # pragma: no cover
        return self._session_inner._answer_set(indices, predicate, index_key)

    def _answer_point(self, index: int) -> dict[str, str]:  # pragma: no cover
        return self._session_inner._answer_point(index)


_MISSING = object()
