"""The recording/replaying oracle proxy sessions and services share.

Both :class:`~repro.audit.session.AuditSession` and
:class:`~repro.service.AuditService` wrap their oracle in a
:class:`RecordingOracleProxy` so that every answer the crowd was paid
for can be checkpointed, and answers loaded from a checkpoint replay for
free. The proxy shares the raw oracle's schema and ledger (charging is
unchanged) and is transparent when nothing is loaded: same calls, same
charges, same rounds, bit-identical results.

It also owns the answer log that ends every checkpoint: the
``set_answers``, ``point_answers`` and ``reliability`` sections. Point
answers are kept as ``int16`` code rows (:class:`PointStore`) and
decoded to labels, in schema order, only when the log is written or a
caller reads one.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.audit import serialization as codec
from repro.crowd.oracle import Oracle, cut_after_member, scan_indices
from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy
from repro.crowd.reliability.serialization import ReliabilitySnapshot
from repro.data.schema import Schema
from repro.engine.requests import QueryKey, set_query_key
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
    Replayable rows — answers loaded from a checkpoint — are flagged.

    Fresh batches are appended as they come and folded into the map only
    when rows are read, so a scan's answers cost no per-object work
    until a checkpoint decodes them.

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
        self._replayable = np.zeros(16, dtype=bool)
        self.n_replayable = 0
        #: fresh ``(indices, codes)`` batches not folded into the map yet
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def positions(self) -> dict[int, int]:
        """Object index -> row, in first-recorded order."""
        self._fold()
        return self._positions

    @property
    def codes(self) -> np.ndarray:
        """The recorded ``(n, d)`` code rows, in insertion order."""
        return self._codes[: len(self.positions)]

    def record(self, indices, codes: np.ndarray, *, replayable: bool = False) -> None:
        """Record the code rows ``codes`` of objects ``indices``;
        ``replayable`` marks them as answers a replay serves for free."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if not replayable:
            self._pending.append((indices, codes))
            return
        self._fold()
        rows = self._insert(indices.tolist(), codes)
        self._replayable[rows] = True
        self.n_replayable = int(self._replayable[: len(self._positions)].sum())

    def record_one(self, index: int, codes: list[int]) -> None:
        """:meth:`record` for one fresh object's codes."""
        self._fold()
        position = self._positions.setdefault(index, len(self._positions))
        self._reserve(len(self._positions))
        self._codes[position] = codes

    def _fold(self) -> None:
        pending, self._pending = self._pending, []
        for indices, codes in pending:
            self._insert(indices.tolist(), codes)

    def _insert(self, indices: list[int], codes: np.ndarray) -> "slice | list[int]":
        size, positions = len(self._positions), self._positions
        fresh = dict(zip(indices, range(size, size + len(indices))))
        if len(fresh) == len(indices) and positions.keys().isdisjoint(fresh):
            rows: slice | list[int] = slice(size, size + len(indices))
            positions.update(fresh)
        else:  # re-recorded indices keep their first row
            rows = [positions.setdefault(index, len(positions)) for index in indices]
        self._reserve(len(positions))
        self._codes[rows] = codes
        return rows

    def _reserve(self, size: int) -> None:
        capacity = len(self._replayable)
        if size > capacity:
            capacity = max(size, 2 * capacity)
            codes = np.empty((capacity, self.schema.n_attributes), dtype=np.int16)
            codes[: len(self._codes)] = self._codes
            replayable = np.zeros(capacity, dtype=bool)
            replayable[: len(self._replayable)] = self._replayable
            self._codes, self._replayable = codes, replayable

    # Fresh batches never touch a replayable row (a replayable object is
    # served, not asked), so replay lookups need no fold.
    def replay_row(self, index: int) -> int | None:
        """The replayable row of object ``index``, else ``None``."""
        row = self._positions.get(index) if self.n_replayable else None
        return row if row is not None and self._replayable[row] else None

    def replay_rows(self, indices: np.ndarray) -> np.ndarray:
        """The replayable row of each of ``indices``, ``-1`` where none."""
        if not self.n_replayable:
            return np.full(len(indices), -1, dtype=np.int64)
        get = self._positions.get
        rows = np.fromiter(
            (get(index, -1) for index in indices.tolist()), dtype=np.int64, count=len(indices)
        )
        known = rows >= 0
        rows[known] = np.where(self._replayable[rows[known]], rows[known], -1)
        return rows

    def codes_of(self, rows) -> np.ndarray:
        """The code rows of replayable ``rows`` (as :meth:`replay_rows`
        returns them)."""
        return self._codes[rows]

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
        self._set_replay: dict[QueryKey, bool] = {}
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

    def replay(self, log: AnswerLog, cache=None) -> None:
        """Load a decoded log: its answers replay for free through this
        proxy and ``cache``; its policy and platform rng are installed on
        the reliability-enabled platform.

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> proxy = RecordingOracleProxy(
        ...     GroundTruthOracle(binary_dataset(9, 3, placement="front")))
        >>> proxy.replay(AnswerLog({}, {0: {"gender": "male"}}, None, None))
        >>> proxy.ask_point(0), proxy.ledger.total
        ({'gender': 'male'}, 0)
        """
        self._set_replay.update(log.set_answers)
        self._set_seen.update(log.set_answers)
        self.points.record(
            list(log.point_answers),
            _encode_labels(self.schema, log.point_answers),
            replayable=True,
        )
        if cache is not None:
            for key, answer in log.set_answers.items():
                cache.store(key, answer)
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
        row = self.points.replay_row(index)
        if row is not None:
            return self.schema.decode_rows(self.points.codes_of([row]))[0]
        labels = self._session_inner.ask_point(index)
        self.points.record_one(index, self.schema.encode_row(labels))
        return labels

    def ask_point_batch(self, indices) -> list[dict[str, str]]:
        prepared = np.array([int(index) for index in indices], dtype=np.int64)
        rows = self.points.replay_rows(prepared)
        answers: list[dict[str, str]] = [{} for _ in prepared]
        replayed = np.flatnonzero(rows >= 0)
        replayed_labels = self.schema.decode_rows(self.points.codes_of(rows[replayed]))
        for position, labels in zip(replayed, replayed_labels):
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
        """The scan in runs: replayed objects answer from the store for
        free, and each fresh run is one scan of the inner oracle, whose
        paid prefix is recorded before the next run starts. A resume
        therefore re-asks nothing."""
        indices = scan_indices(indices, tau)
        rows = self.points.replay_rows(indices)
        replayed = rows >= 0
        cuts = np.flatnonzero(np.diff(replayed)) + 1
        pieces: list[np.ndarray] = []
        members = 0
        for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(indices)]):
            need = None if tau is None else tau - members
            if start == stop or need == 0:
                break
            if replayed[start]:
                codes = self.points.codes_of(rows[start:stop])
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
