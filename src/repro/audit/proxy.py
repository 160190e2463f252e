"""The recording/replaying oracle proxy sessions and services share.

Both :class:`~repro.audit.session.AuditSession` and
:class:`~repro.service.AuditService` wrap their oracle in a
:class:`RecordingOracleProxy` so that every answer the crowd was paid
for can be checkpointed, and answers loaded from a checkpoint replay for
free. The proxy shares the raw oracle's schema and ledger (charging is
unchanged) and is transparent when nothing is loaded: same calls, same
charges, same rounds, bit-identical results.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.crowd.oracle import Oracle
from repro.engine.requests import QueryKey, set_query_key

__all__ = ["RecordingOracleProxy"]


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

    # -- replay loading --------------------------------------------------
    def load_set_answers(self, answers: dict[QueryKey, bool]) -> None:
        self._set_replay.update(answers)
        self._set_seen.update(answers)

    def load_point_answers(self, answers: dict[int, dict[str, str]]) -> None:
        self._point_replay.update(answers)
        self._point_seen.update(answers)

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
