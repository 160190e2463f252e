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

Its set answers live in one :class:`~repro.engine.cache.AnswerCache`
(:attr:`RecordingOracleProxy.answer_cache`), which a
:class:`~repro.engine.QueryEngine` over the proxy uses as its cache: a
dispatched query's entry is probed once, by the engine, and filled by
the proxy when it pays; an answer the proxy holds that no engine
gathered is still dispatched and billed, and answered free.

It also owns the answer log that ends every checkpoint: the
``set_answers``, ``point_answers`` and ``reliability`` sections. Point
answers are kept as ``int16`` code rows (:class:`PointStore`) and
decoded to labels, in schema order, only when the log is written or a
caller reads one. Set answers of a generation scan are kept as the
scan's arrays and keyed, in bill order, only when the log is written or
a query looks an answer up. A service's checkpoint writes only the
answers past a persisted cursor (:meth:`RecordingOracleProxy.answer_delta`);
its job store folds them onto the ones it holds.
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
    scan_checked,
    scan_indices,
    scan_segments,
)
from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy
from repro.crowd.reliability.serialization import ReliabilitySnapshot
from repro.data.schema import Schema
from repro.data.groups import GroupPredicate
from repro.engine.cache import AnswerCache
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


def _shapes(view: np.ndarray, codes) -> set[tuple[int, int, int]]:
    """The first entry, last entry and length of each range of ``view``
    that ``codes`` name (``start * (len(view) + 1) + stop``): ranges of
    equal content have equal shapes, over any views."""
    starts, stops = np.divmod(np.fromiter(codes, np.int64, len(codes)), len(view) + 1)
    return set(zip(view[starts].tolist(), view[stops - 1].tolist(), (stops - starts).tolist()))


@dataclass(frozen=True)
class AnswerLog:
    """A decoded answer log, as :meth:`RecordingOracleProxy.replay` loads
    it: the recorded answers (points as indices and their code rows) and,
    for a reliability-enabled platform, the policy and platform rng the
    checkpoint restores (else ``None``)."""

    set_answers: dict[QueryKey, bool]
    point_answers: tuple[list[int], np.ndarray]
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
        #: rows recorded again by a later batch than the one that added them
        self.rerecorded: set[int] = set()

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
        size = len(self.positions)  # folding may grow the buffer: first
        return self._codes[:size]

    def record(self, indices, codes: np.ndarray) -> None:
        """Record the code rows ``codes`` of objects ``indices``."""
        self._pending.append((np.asarray(indices, dtype=np.int64).reshape(-1), codes))

    def record_one(self, index: int, codes: list[int]) -> None:
        """:meth:`record` for one object's codes, inserted at once."""
        positions = self.positions
        size = len(positions)
        row = positions.setdefault(index, size)
        if row < size:
            self.rerecorded.add(row)
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
            self.rerecorded.update(row for row in rows if row < size)
        self._reserve(len(positions))
        self._codes[rows] = codes

    def _reserve(self, size: int) -> None:
        if size > len(self._codes):
            codes = np.empty(
                (max(size, 2 * len(self._codes)), self.schema.n_attributes), dtype=np.int16
            )
            codes[: len(self._codes)] = self._codes
            self._codes = codes

    def labels(self, since: int = 0) -> dict[int, dict[str, str]]:
        """``{index: labels}`` of the objects recorded at rows ``since``
        on, in insertion order, after those at :attr:`rerecorded` rows
        below ``since``; labels in schema order.

        >>> store = PointStore(Schema.from_dict({"gender": ["male", "female"]}))
        >>> store.record([4, 2], np.array([[1], [0]], dtype=np.int16))
        >>> store.labels(since=1)
        {2: {'gender': 'male'}}
        >>> store.record([4], np.array([[0]], dtype=np.int16))
        >>> store.labels(since=1)
        {4: {'gender': 'male'}, 2: {'gender': 'male'}}
        """
        positions = self.positions
        indices = list(islice(positions, since, None))
        codes = self.codes[since:]
        again = sorted(row for row in self.rerecorded if row < since)
        if again:
            order = list(positions)
            indices = [order[row] for row in again] + indices
            codes = np.concatenate([self._codes[again], codes])
        return dict(zip(indices, self.schema.decode_rows(codes)))


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
        #: the set-answer store, which an engine over this proxy caches
        #: in: its bill holds the keyed answers in bill order; the scans
        #: (predicate, view, starts, stops, answers of the asked ranges)
        #: follow them, not keyed yet
        self.answer_cache = AnswerCache()
        self._scans: list[
            tuple[GroupPredicate, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        #: predicate -> the view its last scans ran over, their asked
        #: ranges as ``start * (len(view) + 1) + stop`` codes, and the
        #: :func:`_shapes` of the ranges its scans asked over earlier views
        self._scanned: dict[
            GroupPredicate, tuple[np.ndarray, set[int], set[tuple[int, int, int]]]
        ] = {}
        #: every point answer recorded or loaded, as code rows
        self.points = PointStore(inner.schema)
        #: the set answers and point rows a journal already holds:
        #: :meth:`answer_delta` starts there
        self.persisted: tuple[int, int] = (0, 0)

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
        self._key_scans()
        return self._log_sections(self.answer_cache.logged(), self.points.labels())

    def log_end(self) -> tuple[int, int]:
        """The cursor past every answer held: ``(set answers, point rows)``."""
        self._key_scans()
        return len(self.answer_cache.bill), len(self.points.positions)

    def answer_delta(self) -> tuple[dict[str, Any], tuple[int, int]]:
        """The answer-log sections a journal holding every answer before
        :attr:`persisted` is missing, and the cursor past them: the set
        answers and point rows recorded since, the point rows recorded
        again below it, and the whole reliability snapshot. Folded onto
        that journal (:class:`~repro.service.store.JournalFold`), they
        give :meth:`answer_log`.

        >>> from repro import GroundTruthOracle, binary_dataset
        >>> proxy = RecordingOracleProxy(
        ...     GroundTruthOracle(binary_dataset(9, 3, placement="front")))
        >>> _ = proxy.ask_point(0)
        >>> proxy.mark_persisted(proxy.log_end())
        >>> _ = proxy.ask_point(1)
        >>> proxy.answer_delta()
        ({'set_answers': [], 'point_answers': [{'index': 1, 'labels': {'gender': 'female'}}], 'reliability': None}, (0, 2))
        """
        end = self.log_end()
        sets, rows = self.persisted
        return (
            self._log_sections(self.answer_cache.logged(sets), self.points.labels(since=rows)),
            end,
        )

    def mark_persisted(self, cursor: tuple[int, int]) -> None:
        """Note that a journal holds every answer before ``cursor`` (as
        :meth:`answer_delta` returned it), re-recorded rows included."""
        self.persisted = cursor
        self.points.rerecorded.clear()

    def _log_sections(self, set_answers, point_answers) -> dict[str, Any]:
        platform = _reliability_platform(self._session_inner)
        return {
            "set_answers": [
                codec.set_answer_to_dict(predicate, index_key, answer)
                for (predicate, index_key), answer in set_answers
            ],
            "point_answers": codec.point_answers_to_list(point_answers),
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
            point_codes = oracle.schema.encode_rows(point_answers.values())
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
            (list(point_answers), point_codes),
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
        >>> proxy.replay(AnswerLog({}, ([0], np.array([[0]], np.int16)), None, None))
        >>> proxy.ask_point(0), proxy.ledger.total
        ({'gender': 'male'}, 0)
        """
        self._key_scans()
        for (predicate, index_key), answer in log.set_answers.items():
            self.answer_cache.record(predicate, index_key, answer)
        self.points.record(*log.point_answers)
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
            key = set_query_key(indices, predicate)
        if self._scans:
            self._key_scans()
        inner = self._session_inner
        (answer,) = self.answer_cache.answer(
            [key], lambda fresh: [inner.ask_set(indices, predicate, key=key)]
        )
        return answer

    def ask_set_batch(self, queries) -> list[bool]:
        if self._scans:
            self._key_scans()
        return self.answer_cache.answer(queries, self._session_inner.ask_set_batch)

    def scan_sets(
        self, view, starts, stops, predicate, need, *, paired=False, ascending=None
    ) -> np.ndarray:
        """The inner oracle's scan when this proxy can hold no answer the
        scan might ask: no range of the generation was asked by an
        earlier scan of ``predicate``, over this ``view`` array or,
        compared by first entry, last entry and length, over an earlier
        one, and, when the store holds answers for ``predicate``, none
        of the generation's keys is held. Its answers are kept as arrays
        and keyed only when read. Otherwise the per-query loop through
        :meth:`ask_set`, so every held answer stays free."""
        view, starts, stops = scan_segments(view, starts, stops, need, paired)
        codes = starts * (len(view) + 1) + stops
        held = self._scanned.get(predicate)
        if held is None:
            held = self._scanned[predicate] = (view, set(), set())
        elif held[0] is not view:
            held[2].update(_shapes(held[0], held[1]))
            held = self._scanned[predicate] = (view, set(), held[2])
        table = self.answer_cache.tables.get(predicate)
        if (
            not held[1].isdisjoint(codes.tolist())
            or held[2] and not held[2].isdisjoint(_shapes(view, codes))
            or table and any(
                IndexKey.of(view[start:stop]) in table
                for start, stop in zip(starts.tolist(), stops.tolist())
            )
        ):
            return super()._scan_sets(view, starts, stops, predicate, need, paired, ascending)
        answers = scan_checked(
            self._session_inner, view, starts, stops, predicate, need, paired, ascending
        )
        asked = np.flatnonzero(scan_asked(answers, paired))
        self._scans.append((predicate, view, starts[asked], stops[asked], answers[asked]))
        held[1].update(codes[asked].tolist())
        return answers

    def _key_scans(self) -> None:
        """Key the recorded scans' answers into the answer store, in
        bill order."""
        scans, self._scans = self._scans, []
        record = self.answer_cache.record
        for predicate, view, starts, stops, answers in scans:
            for start, stop, answer in zip(starts.tolist(), stops.tolist(), answers.tolist()):
                record(predicate, IndexKey.of(view[start:stop]), answer)

    def ask_point(self, index: int) -> dict[str, str]:
        index = int(index)
        row = self.points.positions.get(index)
        if row is not None:
            return self.schema.decode_rows(self.points.codes[[row]])[0]
        labels = self._session_inner.ask_point(index)
        self.points.record_one(index, self.schema.encode_row(labels))
        return labels

    def ask_point_batch(self, indices) -> np.ndarray:
        """Held objects answer from the store for free; the fresh ones,
        each once in first-seen order, are one inner batch, recorded."""
        prepared = np.array([int(index) for index in indices], dtype=np.int64)
        rows = self.points.rows(prepared)
        fresh = list(dict.fromkeys(prepared[rows < 0].tolist()))
        if fresh:
            self.points.record(fresh, self._session_inner.ask_point_batch(fresh))
            rows = self.points.rows(prepared)
        return self.points.codes[rows]

    def scan_points(self, indices, predicate, tau) -> np.ndarray:
        """The scan in runs: held objects answer from the store for free,
        and each fresh run is one scan of the inner oracle, whose paid
        prefix is recorded before the next run starts. A resume, or a
        scan over objects an earlier one labelled, re-asks nothing, and
        an object the scan repeats is paid once: the scan reaches a
        repeat only after its first occurrence was paid and recorded, so
        the repeat answers from the store as a held object does."""
        indices = scan_indices(indices, tau)
        rows = self.points.rows(indices)
        held = rows >= 0
        fresh = np.sort(indices[~held])
        if (fresh[1:] == fresh[:-1]).any():
            first = np.zeros(len(indices), dtype=bool)
            first[np.unique(indices, return_index=True)[1]] = True
            held |= ~first
        cuts = np.flatnonzero(np.diff(held)) + 1
        pieces: list[np.ndarray] = []
        members = 0
        for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(indices)]):
            need = None if tau is None else tau - members
            if start == stop or need == 0:
                break
            if held[start]:
                run = rows[start:stop]
                if (run < 0).any():  # repeats, recorded since the lookup
                    run = self.points.rows(indices[start:stop])
                codes = self.points.codes[run]
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
