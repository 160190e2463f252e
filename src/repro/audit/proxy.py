"""The recording oracle proxy sessions and services share: the one
answer store.

Both :class:`~repro.audit.session.AuditSession` and
:class:`~repro.service.AuditService` wrap their oracle in a
:class:`RecordingOracleProxy`. It pays the inner oracle once per
distinct set or point query over its lifetime: every answer it holds,
recorded or loaded from a checkpoint, answers again for free, across a
session's runs and a service's jobs. The proxy shares the raw oracle's
schema and ledger (charging is unchanged), so the first asking of a
query makes the same call, charge and round as the raw oracle would.

It also owns the answer log that ends every checkpoint: the
``set_answers``, ``point_answers`` and ``reliability`` sections. Point
answers are kept as ``int16`` code rows (:class:`PointStore`) and
decoded to labels, in schema order, only when the log is written or a
caller reads one. Set answers of a generation scan are kept as the
scan's arrays and keyed, in bill order, only when the log is written or
a query looks an answer up.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import islice
from typing import Any, Mapping

import numpy as np

from repro.audit import serialization as codec
from repro.crowd.oracle import (
    Oracle,
    cut_after_member,
    scan_asked,
    scan_indices,
    scan_segments,
)
from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy
from repro.crowd.reliability.serialization import ReliabilitySnapshot
from repro.data.schema import Schema
from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey, QueryKey, set_query_key
from repro.errors import CheckpointVersionError, UnknownGroupError

__all__ = ["AnswerLog", "PointStore", "RecordingOracleProxy"]


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
    """A decoded answer log, as :meth:`RecordingOracleProxy.replay` loads
    it: the recorded answers and, for a reliability-enabled platform, the
    policy and platform rng the checkpoint restores (else ``None``)."""

    set_answers: dict[QueryKey, bool]
    point_answers: dict[int, dict[str, str]]
    reliability: AdaptiveAssignmentPolicy | None
    platform_rng: np.random.Generator | None


class PointStore:
    """Point answers as code rows: one ``(n, d)`` ``int16`` matrix whose
    row order is the insertion order of a position map (object index ->
    row). Recording an index again keeps its first row and takes the
    latest codes, as a dict keeps its first key and latest value.

    Batches are appended as they come and folded into the map only when
    rows are read, so a scan's answers cost no per-object work until a
    lookup or a checkpoint reads them.

    >>> import numpy as np
    >>> store = PointStore(Schema.from_dict({"gender": ["male", "female"]}))
    >>> store.record([4, 2], np.array([[1], [0]], dtype=np.int16))
    >>> store.record([4], np.array([[0]], dtype=np.int16))
    >>> store.labels()
    {4: {'gender': 'male'}, 2: {'gender': 'male'}}
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._positions: dict[int, int] = {}
        self._codes = np.empty((16, schema.n_attributes), dtype=np.int16)
        #: ``(indices, codes)`` batches not folded into the map yet
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def positions(self) -> dict[int, int]:
        """Object index -> row, in first-recorded order."""
        pending, self._pending = self._pending, []
        for indices, codes in pending:
            self._insert(indices.tolist(), codes)
        return self._positions

    @property
    def codes(self) -> np.ndarray:
        """The recorded ``(n, d)`` code rows, in insertion order."""
        return self._codes[: len(self.positions)]

    def record(self, indices, codes: np.ndarray) -> None:
        """Record the code rows ``codes`` of objects ``indices``."""
        self._pending.append((np.asarray(indices, dtype=np.int64).reshape(-1), codes))

    def record_one(self, index: int, codes: list[int]) -> None:
        """:meth:`record` for one object's codes, inserted at once."""
        positions = self.positions
        row = positions.setdefault(index, len(positions))
        self._reserve(len(positions))
        self._codes[row] = codes

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """The row of each of ``indices``, ``-1`` where none is recorded."""
        positions = self.positions
        if not positions:  # a fresh store answers a whole scan in one call
            return np.full(len(indices), -1, dtype=np.int64)
        return np.fromiter(
            (positions.get(index, -1) for index in indices.tolist()),
            dtype=np.int64,
            count=len(indices),
        )

    def _insert(self, indices: list[int], codes: np.ndarray) -> None:
        size, positions = len(self._positions), self._positions
        fresh = dict(zip(indices, range(size, size + len(indices))))
        if len(fresh) == len(indices) and positions.keys().isdisjoint(fresh):
            rows: slice | list[int] = slice(size, size + len(indices))
            positions.update(fresh)
        else:  # re-recorded indices keep their first row
            rows = [positions.setdefault(index, len(positions)) for index in indices]
        self._reserve(len(positions))
        self._codes[rows] = codes

    def _reserve(self, size: int) -> None:
        if size > len(self._codes):
            codes = np.empty(
                (max(size, 2 * len(self._codes)), self.schema.n_attributes), dtype=np.int16
            )
            codes[: len(self._codes)] = self._codes
            self._codes = codes

    def labels(self) -> dict[int, dict[str, str]]:
        """``{index: labels}`` of every recorded object, in insertion
        order, labels in schema order."""
        return dict(zip(self.positions, self.schema.decode_rows(self.codes)))


def _encode_labels(schema: Schema, point_answers: Mapping[int, Mapping[str, str]]) -> np.ndarray:
    """The code rows of ``point_answers``' labels, in their order."""
    return np.array(
        [schema.encode_row(labels) for labels in point_answers.values()], dtype=np.int16
    ).reshape(len(point_answers), schema.n_attributes)


class RecordingOracleProxy(Oracle):
    """The one answer store: every query is paid at most once.

    * **recording** — each answer the inner oracle produces is kept, so
      a checkpoint persists exactly what the crowd was paid for, and
    * **answering** — every set or point query the proxy holds an
      answer for, recorded or loaded from a checkpoint, is answered
      without consulting (or charging) the inner oracle: the mechanism
      behind resume-without-re-asking and behind runs and jobs sharing
      what an earlier one paid for.
    """

    def __init__(self, inner: Oracle) -> None:
        self._session_inner = inner
        self.schema = inner.schema
        self.ledger = inner.ledger
        #: set answers in bill order: the keyed prefix, then the scans
        #: (predicate, view, starts, stops, answers of the asked ranges)
        #: not keyed yet
        self._set_answers: dict[QueryKey, bool] = {}
        self._scans: list[
            tuple[GroupPredicate, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        #: predicates answered query by query, recorded or loaded, as of
        #: the first ``_indexed`` answers of the store
        self._keyed: set[GroupPredicate] = set()
        self._indexed = 0
        #: predicate -> the view its scans ran over, and their asked
        #: ranges as ``start * (len(view) + 1) + stop`` codes
        self._scanned: dict[GroupPredicate, tuple[np.ndarray, set[int]]] = {}
        #: every point answer recorded or loaded, as code rows
        self.points = PointStore(inner.schema)

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
    def answer_log(self) -> dict[str, Any]:
        """The answer-log sections: every answer the proxy holds, each
        paid once, and the reliability snapshot (``None`` without a
        reliability-enabled platform).

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> oracle = GroundTruthOracle(binary_dataset(9, 3, placement="front"))
        >>> RecordingOracleProxy(oracle).answer_log()
        {'set_answers': [], 'point_answers': [], 'reliability': None}
        """
        platform = _reliability_platform(self._session_inner)
        self._key_scans()
        return {
            "set_answers": [
                codec.set_answer_to_dict(predicate, index_key, answer)
                for (predicate, index_key), answer in self._set_answers.items()
            ],
            "point_answers": codec.point_answers_to_list(self.points.labels()),
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
        point_answers = codec.point_answers_from_list(raw_point_answers)
        try:
            _encode_labels(oracle.schema, point_answers)
        except UnknownGroupError as error:
            raise CheckpointVersionError(
                f"{source} holds a point answer outside the oracle's schema ({error})"
            ) from error
        policy, platform_rng = None, None
        if raw_reliability is not None:
            policy, platform_rng = ReliabilitySnapshot.from_dict(
                raw_reliability
            ).restored(_reliability_platform(oracle))
        return AnswerLog(
            codec.set_answers_from_list(raw_set_answers),
            point_answers,
            policy,
            platform_rng,
        )

    def replay(self, log: AnswerLog) -> None:
        """Load a decoded log: this proxy answers its queries for free;
        its policy and platform rng are installed on the
        reliability-enabled platform.

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> proxy = RecordingOracleProxy(
        ...     GroundTruthOracle(binary_dataset(9, 3, placement="front")))
        >>> proxy.replay(AnswerLog({}, {0: {"gender": "male"}}, None, None))
        >>> proxy.ask_point(0), proxy.ledger.total
        ({'gender': 'male'}, 0)
        """
        self._key_scans()
        self._set_answers.update(log.set_answers)
        self.points.record(
            list(log.point_answers), _encode_labels(self.schema, log.point_answers)
        )
        if log.reliability is not None:
            platform = _reliability_platform(self._session_inner)
            platform.reliability = log.reliability
            if log.platform_rng is not None:
                platform.rng = log.platform_rng

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
        if self._scans:
            self._key_scans()
        answer = self._set_answers.get(key)
        if answer is None:
            answer = self._session_inner.ask_set(indices, predicate, key=key)
            self._set_answers[key] = answer
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
        if self._scans:
            self._key_scans()
        answers = [self._set_answers.get(key) for key in keys]
        fresh = [position for position, answer in enumerate(answers) if answer is None]
        if fresh:
            fresh_answers = self._session_inner.ask_set_batch(
                [prepared[position] for position in fresh],
                keys=[keys[position] for position in fresh],
            )
            for position, answer in zip(fresh, fresh_answers):
                answers[position] = self._set_answers[keys[position]] = answer
        return answers

    def scan_sets(self, view, starts, stops, predicate, need, *, paired=False) -> np.ndarray:
        """The inner oracle's scan when this proxy can hold no answer the
        scan might ask: none for ``predicate`` at all, or only answers of
        earlier scans over this same ``view`` array, on other ranges
        (the generations of one run). Its answers are kept as arrays and
        keyed only when read. Otherwise the per-query loop through
        :meth:`ask_set`, so every held answer stays free."""
        view, starts, stops = scan_segments(view, starts, stops, need, paired)
        self._index_keyed()
        codes = starts * (len(view) + 1) + stops
        held = self._scanned.setdefault(predicate, (view, set()))
        if predicate in self._keyed or held[0] is not view or not held[1].isdisjoint(
            codes.tolist()
        ):
            return super().scan_sets(view, starts, stops, predicate, need, paired=paired)
        answers = self._session_inner.scan_sets(
            view, starts, stops, predicate, need, paired=paired
        )
        asked = np.flatnonzero(scan_asked(answers, paired))
        self._scans.append((predicate, view, starts[asked], stops[asked], answers[asked]))
        held[1].update(codes[asked].tolist())
        return answers

    def _index_keyed(self) -> None:
        """Note the predicates of the answers keyed query by query since
        the last call: the newest entries of the store, read from its end."""
        fresh = len(self._set_answers) - self._indexed
        self._keyed.update(key[0] for key in islice(reversed(self._set_answers), fresh))
        self._indexed = len(self._set_answers)

    def _key_scans(self) -> None:
        """Key the recorded scans' answers into the answer store, in
        bill order (they are not query-by-query answers)."""
        self._index_keyed()
        scans, self._scans = self._scans, []
        for predicate, view, starts, stops, answers in scans:
            for start, stop, answer in zip(starts.tolist(), stops.tolist(), answers.tolist()):
                self._set_answers[predicate, IndexKey.of(view[start:stop])] = answer
        self._indexed = len(self._set_answers)

    def ask_point(self, index: int) -> dict[str, str]:
        index = int(index)
        row = self.points.positions.get(index)
        if row is not None:
            return self.schema.decode_rows(self.points.codes[[row]])[0]
        labels = self._session_inner.ask_point(index)
        self.points.record_one(index, self.schema.encode_row(labels))
        return labels

    def ask_point_batch(self, indices) -> list[dict[str, str]]:
        prepared = np.array([int(index) for index in indices], dtype=np.int64)
        rows = self.points.rows(prepared)
        answers: list[dict[str, str]] = [{} for _ in prepared]
        held = np.flatnonzero(rows >= 0)
        for position, labels in zip(held, self.schema.decode_rows(self.points.codes[rows[held]])):
            answers[position] = labels
        fresh = np.flatnonzero(rows < 0)
        if len(fresh):
            fresh_answers = self._session_inner.ask_point_batch(prepared[fresh].tolist())
            for position, labels in zip(fresh, fresh_answers):
                answers[position] = labels
            self.points.record(
                prepared[fresh],
                _encode_labels(self.schema, dict(enumerate(fresh_answers))),
            )
        return answers

    def scan_points(self, indices, predicate, tau) -> np.ndarray:
        """The scan in runs: held objects answer from the store for free,
        and each fresh run is one scan of the inner oracle, whose paid
        prefix is recorded before the next run starts. A resume, or a
        scan over objects an earlier one labelled, re-asks nothing."""
        indices = scan_indices(indices, tau)
        rows = self.points.rows(indices)
        held = rows >= 0
        cuts = np.flatnonzero(np.diff(held)) + 1
        pieces: list[np.ndarray] = []
        members = 0
        for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(indices)]):
            need = None if tau is None else tau - members
            if start == stop or need == 0:
                break
            if held[start]:
                codes = self.points.codes[rows[start:stop]]
            else:
                codes = self._session_inner.scan_points(indices[start:stop], predicate, need)
                self.points.record(indices[start : start + len(codes)], codes)
            # A fresh run already ends at its need-th member: only counted.
            codes, found = cut_after_member(self.schema, codes, predicate, need)
            pieces.append(codes)
            members += found
            if len(codes) < stop - start:
                break  # the tau-th member, or the end of the budget
        if not pieces:
            return np.empty((0, self.schema.n_attributes), dtype=np.int16)
        return np.concatenate(pieces)

    # -- implementation hooks (unused: public methods are overridden) -----
    def _answer_set(self, indices, predicate, index_key) -> bool:  # pragma: no cover
        return self._session_inner._answer_set(indices, predicate, index_key)

    def _answer_point(self, index: int) -> dict[str, str]:  # pragma: no cover
        return self._session_inner._answer_point(index)


_MISSING = object()
