"""`OnlineDawidSkene`: streaming, vectorized worker-reliability estimation.

The batch :class:`~repro.crowd.aggregation.DawidSkene` estimator needs
every response up front and re-solves EM from scratch; an audit platform
sees answers *arrive* — HIT by HIT, batch by batch — and needs current
confusion estimates between batches to route the next assignment. This
module keeps Dawid–Skene's model (per-worker confusion matrices, class
priors, task posteriors) but replaces the batch EM loop with **damped
partial E-steps over sufficient statistics**:

* the estimator stores, per worker, *observed* confusion counts (plus a
  weak symmetric prior applied at read time, so estimates never
  degenerate to 0/1),
* each observed batch of HITs runs a vectorized E-step — task posteriors
  from the current priors and confusions — and then folds the implied
  counts back in, scaled by a ``damping`` step size below 1 so one noisy
  batch cannot yank the estimates,
* an optional exponential ``decay`` forgets old counts, letting the
  estimator track workers whose quality drifts over an audit's lifetime.

Set queries use 2x2 matrices (truth in {no, yes}); point queries use one
k x k matrix per schema attribute, with value codes discovered online.
All updates are :func:`numpy.add.at` scatter-adds over the whole batch —
no per-vote Python loops on the hot path. Reads go through one cached
:class:`PoolView` — every worker's set confusion, accuracy and vote
log-odds as whole-pool arrays — built lazily after each update, so the
per-vote routing and stopping decisions between batches are array
indexing, not fresh 2x2 NumPy work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import InvalidParameterError

__all__ = ["OnlineDawidSkene", "PoolView"]

#: Votes on one set-query HIT: ``(worker_id, answered_yes)`` pairs.
SetVotes = Sequence[tuple[int, bool]]
#: Votes on one point-query HIT: ``(worker_id, {attribute: value})`` pairs.
PointVotes = Sequence[tuple[int, Mapping[str, str]]]

_ROW_GROWTH = 16
_LOG_FLOOR = 1e-300
_TRUTHS = np.arange(2)


class _AttributeModel:
    """Per-attribute confusion statistics with lazily discovered values."""

    def __init__(self, n_rows: int) -> None:
        self.values: list[str] = []
        self.codes: dict[str, int] = {}
        #: observed damped counts, shape ``(n_rows, k, k)`` (truth, answer).
        self.obs: npt.NDArray[np.float64] = np.zeros((n_rows, 0, 0), dtype=np.float64)
        #: observed damped class counts, shape ``(k,)``.
        self.class_obs: npt.NDArray[np.float64] = np.zeros(0, dtype=np.float64)

    def ensure_rows(self, n_rows: int) -> None:
        if n_rows > self.obs.shape[0]:
            k = self.obs.shape[1]
            grown = np.zeros((n_rows, k, k), dtype=np.float64)
            grown[: self.obs.shape[0]] = self.obs
            self.obs = grown

    def code_for(self, value: str) -> int:
        code = self.codes.get(value)
        if code is None:
            code = len(self.values)
            self.values.append(value)
            self.codes[value] = code
            k = code + 1
            grown = np.zeros((self.obs.shape[0], k, k), dtype=np.float64)
            grown[:, :code, :code] = self.obs
            self.obs = grown
            grown_class = np.zeros(k, dtype=np.float64)
            grown_class[:code] = self.class_obs
            self.class_obs = grown_class
        return code

    def state_dict(self) -> dict[str, Any]:
        return {
            "values": list(self.values),
            "obs": self.obs.tolist(),
            "class_obs": self.class_obs.tolist(),
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, Any], n_rows: int, capacity: int
    ) -> "_AttributeModel":
        """Restore :meth:`state_dict` output. ``obs`` is saved at the
        estimator's row capacity, which may exceed ``n_rows``: the first
        ``n_rows`` rows are kept and padded with zeros to ``capacity``."""
        model = cls(capacity)
        model.values = [str(value) for value in state["values"]]
        model.codes = {value: code for code, value in enumerate(model.values)}
        k = len(model.values)
        saved = np.asarray(state["obs"], dtype=np.float64).reshape(
            len(state["obs"]), k, k
        )
        model.obs = np.zeros((capacity, k, k), dtype=np.float64)
        model.obs[:n_rows] = saved[:n_rows]
        model.class_obs = np.asarray(state["class_obs"], dtype=np.float64).reshape(k)
        return model


@dataclass(frozen=True)
class PoolView:
    """Whole-pool set-query estimates, one row per worker in first-seen
    order (:attr:`OnlineDawidSkene.worker_ids`).

    Built by :meth:`OnlineDawidSkene.pool` and cached until the
    estimator's statistics or worker registry change; the arrays are
    read-only.
    """

    #: ``P(answer | truth)`` per worker, shape ``(W, 2, 2)``.
    confusion: npt.NDArray[np.float64]
    #: class-prior-weighted confusion diagonal per worker, shape ``(W,)``.
    accuracy: npt.NDArray[np.float64]
    #: log-likelihood-ratio increment of a vote, shape ``(W, 2)``
    #: indexed by ``[row, answer]``.
    log_odds: npt.NDArray[np.float64]
    #: observed set-query votes per worker, shape ``(W,)``.
    votes: npt.NDArray[np.int64]
    #: ``log P(yes) - log P(no)`` before any vote is seen.
    prior_log_odds: float


class OnlineDawidSkene:
    """Streaming Dawid–Skene: per-worker confusions updated as votes arrive.

    Examples
    --------
    >>> est = OnlineDawidSkene()
    >>> round(est.prior_log_odds(), 3) == 0.0    # symmetric class prior
    True
    >>> post = est.observe_set_batch([[(0, True), (1, True), (2, False)]])
    >>> bool(post[0] > 0.5)                      # majority leaning
    True
    >>> est.n_observations(2)
    1

    Parameters
    ----------
    damping:
        Step size in (0, 1] of each partial M-step: the fraction of a
        batch's implied confusion counts folded into the running
        statistics per sweep. Below 1, one aberrant batch moves the
        estimates only part way — the "damped" in damped partial EM.
    decay:
        Exponential forgetting in (0, 1] applied to observed counts
        before each batch. ``1.0`` (default) never forgets; lower values
        track quality drift at the cost of a larger steady-state
        variance.
    prior_correct:
        Prior probability that an unknown worker answers correctly;
        the symmetric prior pseudo-counts are built from it.
    prior_strength:
        Total pseudo-count mass per confusion row. Larger values make
        early estimates stickier (more votes needed to move them).
    sweeps:
        Partial E/M sweeps per observed batch; each sweep re-computes
        posteriors with the freshly updated statistics and folds in
        ``damping / sweeps`` of the counts.
    """

    def __init__(
        self,
        *,
        damping: float = 0.8,
        decay: float = 1.0,
        prior_correct: float = 0.7,
        prior_strength: float = 4.0,
        sweeps: int = 2,
    ) -> None:
        if not 0.0 < damping <= 1.0:
            raise InvalidParameterError(f"damping must be in (0, 1], got {damping}")
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError(f"decay must be in (0, 1], got {decay}")
        if not 0.5 <= prior_correct < 1.0:
            raise InvalidParameterError(
                f"prior_correct must be in [0.5, 1), got {prior_correct}"
            )
        if prior_strength <= 0.0:
            raise InvalidParameterError(
                f"prior_strength must be positive, got {prior_strength}"
            )
        if sweeps < 1:
            raise InvalidParameterError(f"sweeps must be >= 1, got {sweeps}")
        self.damping = damping
        self.decay = decay
        self.prior_correct = prior_correct
        self.prior_strength = prior_strength
        self.sweeps = sweeps

        self._rows: dict[int, int] = {}
        self._row_ids: list[int] = []
        self._set_obs: npt.NDArray[np.float64] = np.zeros((0, 2, 2), dtype=np.float64)
        self._set_votes: npt.NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        self._set_class_obs: npt.NDArray[np.float64] = np.zeros(2, dtype=np.float64)
        self._point_models: dict[str, _AttributeModel] = {}
        self._pool: PoolView | None = None
        self.n_set_batches = 0
        self.n_point_batches = 0

    # -- worker registry ---------------------------------------------------
    def _row(self, worker_id: int) -> int:
        row = self._rows.get(worker_id)
        if row is None:
            row = len(self._row_ids)
            self._rows[worker_id] = row
            self._row_ids.append(worker_id)
            self._pool = None
            if row >= self._set_obs.shape[0]:
                capacity = self._set_obs.shape[0] + _ROW_GROWTH
                grown = np.zeros((capacity, 2, 2), dtype=np.float64)
                grown[: self._set_obs.shape[0]] = self._set_obs
                self._set_obs = grown
                grown_votes = np.zeros(capacity, dtype=np.int64)
                grown_votes[: self._set_votes.shape[0]] = self._set_votes
                self._set_votes = grown_votes
                for model in self._point_models.values():
                    model.ensure_rows(capacity)
        return row

    def rows(self, worker_ids: Iterable[int]) -> list[int]:
        """The workers' rows in :class:`PoolView` arrays, registering
        unseen workers (in the given order) first."""
        known = self._rows
        return [known[w] if w in known else self._row(w) for w in worker_ids]

    def row_of(self, worker_id: int) -> int | None:
        """The worker's row in :class:`PoolView` arrays, or ``None`` for
        a worker the estimator has not seen."""
        return self._rows.get(worker_id)

    @property
    def worker_ids(self) -> tuple[int, ...]:
        """Every worker the estimator has seen (or registered), in
        first-seen order."""
        return tuple(self._row_ids)

    def n_observations(self, worker_id: int) -> int:
        """How many set-query votes by ``worker_id`` have been observed."""
        row = self._rows.get(worker_id)
        return 0 if row is None else int(self._set_votes[row])

    # -- read-time estimates ----------------------------------------------
    def _set_prior_counts(self) -> npt.NDArray[np.float64]:
        p = self.prior_correct
        return self.prior_strength * np.array(
            [[p, 1.0 - p], [1.0 - p, p]], dtype=np.float64
        )

    def pool(self) -> PoolView:
        """Every registered worker's current set-query estimates as one
        :class:`PoolView`, built on first read and reused until a worker
        is registered, a set batch is observed, or state is loaded."""
        pool = self._pool
        if pool is None:
            n_rows = len(self._row_ids)
            counts = self._set_prior_counts() + self._set_obs[:n_rows]
            confusion = counts / counts.sum(axis=2, keepdims=True)
            priors = self.class_priors
            accuracy = priors[0] * confusion[:, 0, 0] + priors[1] * confusion[:, 1, 1]
            log_conf = np.log(confusion + _LOG_FLOOR)
            log_odds = log_conf[:, 1, :] - log_conf[:, 0, :]
            log_priors = np.log(priors + _LOG_FLOOR)
            votes = self._set_votes[:n_rows].copy()
            for array in (confusion, accuracy, log_odds, votes):
                array.flags.writeable = False
            pool = self._pool = PoolView(
                confusion=confusion,
                accuracy=accuracy,
                log_odds=log_odds,
                votes=votes,
                prior_log_odds=float(log_priors[1] - log_priors[0]),
            )
        return pool

    def confusion(self, worker_id: int) -> npt.NDArray[np.float64]:
        """The worker's current 2x2 set confusion ``P(answer | truth)``
        (row = truth in {no, yes}, column = answer), prior included."""
        row = self._row(worker_id)
        return self.pool().confusion[row].copy()

    def worker_accuracy(self, worker_id: int) -> float:
        """Estimated P(correct) for the worker: the confusion diagonal
        weighted by the current class priors."""
        row = self._row(worker_id)
        return float(self.pool().accuracy[row])

    @property
    def class_priors(self) -> npt.NDArray[np.float64]:
        """Current class prior ``[P(truth=no), P(truth=yes)]``,
        smoothed by the symmetric pseudo-count prior."""
        counts = self.prior_strength * 0.5 + self._set_class_obs
        result: npt.NDArray[np.float64] = counts / counts.sum()
        return result

    def prior_log_odds(self) -> float:
        """``log P(yes) - log P(no)`` before any vote is seen."""
        return self.pool().prior_log_odds

    def vote_log_odds(self, worker_id: int, answer: bool) -> float:
        """The log-likelihood-ratio increment one vote contributes to the
        posterior log-odds of "truth = yes", under the worker's current
        confusion estimate."""
        row = self._row(worker_id)
        return float(self.pool().log_odds[row, 1 if answer else 0])

    def posterior_log_odds(self, votes: SetVotes) -> float:
        """Posterior log-odds of "truth = yes" after all ``votes``,
        starting from the class prior."""
        total = self.prior_log_odds()
        for worker_id, answer in votes:
            total += self.vote_log_odds(worker_id, bool(answer))
        return total

    # -- streaming updates -------------------------------------------------
    def observe_set_batch(self, hits: Sequence[SetVotes]) -> npt.NDArray[np.float64]:
        """Fold one batch of set-query HITs into the running statistics.

        Runs the damped partial E/M sweeps over the whole batch at once
        (vectorized scatter-adds) and returns the final per-HIT posterior
        ``P(truth = yes)`` under the *updated* estimates.
        """
        n_hits = len(hits)
        task_list: list[int] = []
        row_list: list[int] = []
        ans_list: list[int] = []
        for i, votes in enumerate(hits):
            for worker_id, answer in votes:
                task_list.append(i)
                row_list.append(self._row(worker_id))
                ans_list.append(1 if answer else 0)
        if not task_list:
            return np.zeros(n_hits, dtype=np.float64)
        task_idx = np.array(task_list, dtype=np.int64)
        rows = np.array(row_list, dtype=np.int64)
        ans = np.array(ans_list, dtype=np.int64)
        votes_idx = np.arange(len(task_list))
        # Scatter targets of both truths at once, shape (votes, 2): cell
        # (rows[v], truth, ans[v]) for v in vote order, so duplicate rows
        # accumulate in the same order as one scatter per truth would.
        obs_idx = (rows[:, None], _TRUTHS, ans[:, None])

        self._forget()
        prior_counts = self._set_prior_counts()
        step = self.damping / self.sweeps
        for _ in range(self.sweeps):
            # Only the voting workers' rows enter the E-step.
            counts = prior_counts + self._set_obs[rows]
            conf = counts / counts.sum(axis=2, keepdims=True)
            log_conf = np.log(conf[votes_idx, :, ans] + _LOG_FLOOR)
            log_post = np.empty((n_hits, 2), dtype=np.float64)
            log_post[:] = np.log(self.class_priors + _LOG_FLOOR)
            np.add.at(log_post, task_idx, log_conf)
            log_post -= log_post.max(axis=1, keepdims=True)
            post = np.exp(log_post)
            post /= post.sum(axis=1, keepdims=True)
            np.add.at(self._set_obs, obs_idx, step * post[task_idx])
            self._set_class_obs += step * post.sum(axis=0)
        np.add.at(self._set_votes, rows, 1)
        self.n_set_batches += 1
        self._pool = None
        posterior: npt.NDArray[np.float64] = post[:, 1].copy()
        return posterior

    def observe_point_batch(self, hits: Sequence[PointVotes]) -> list[dict[str, str]]:
        """Fold one batch of point-query HITs into the per-attribute
        statistics and return the MAP ``{attribute: value}`` labeling of
        each HIT under the updated estimates."""
        hits = [list(votes) for votes in hits]
        labels: list[dict[str, str]] = [{} for _ in hits]
        attributes: dict[str, list[tuple[int, int, str]]] = {}
        for i, votes in enumerate(hits):
            for worker_id, row_values in votes:
                for attribute, value in row_values.items():
                    attributes.setdefault(attribute, []).append((i, worker_id, value))
        if not attributes:
            return labels
        for model in self._point_models.values():
            model.obs *= self.decay
            model.class_obs *= self.decay
        for attribute, flat in attributes.items():
            model = self._point_models.get(attribute)
            if model is None:
                model = _AttributeModel(self._set_obs.shape[0])
                self._point_models[attribute] = model
            codes = np.array([model.code_for(v) for _, _, v in flat], dtype=np.int64)
            rows = np.array([self._row(w) for _, w, _ in flat], dtype=np.int64)
            model.ensure_rows(self._set_obs.shape[0])
            task_idx = np.array([i for i, _, _ in flat], dtype=np.int64)
            post = self._point_posterior(model, task_idx, rows, codes, len(hits))
            step = self.damping
            k = len(model.values)
            for truth in range(k):
                np.add.at(
                    model.obs[:, truth, :],
                    (rows, codes),
                    step * post[task_idx, truth],
                )
            model.class_obs += step * post.sum(axis=0)
            map_codes = post.argmax(axis=1)
            seen = {int(i) for i, _, _ in flat}
            for i in seen:
                labels[i][attribute] = model.values[int(map_codes[i])]
        self.n_point_batches += 1
        return labels

    def point_posteriors(
        self, votes: PointVotes
    ) -> dict[str, dict[str, float]]:
        """Per-attribute posterior over values for one HIT's votes, under
        the current estimates. No confusion or class counts are updated,
        but unseen workers, attributes and values are registered (which
        grows ``worker_ids`` and the attribute models, as a batch would)."""
        result: dict[str, dict[str, float]] = {}
        per_attribute: dict[str, list[tuple[int, str]]] = {}
        for worker_id, row_values in votes:
            for attribute, value in row_values.items():
                per_attribute.setdefault(attribute, []).append((worker_id, value))
        for attribute, pairs in per_attribute.items():
            model = self._point_models.get(attribute)
            if model is None:
                model = _AttributeModel(self._set_obs.shape[0])
                self._point_models[attribute] = model
            codes = np.array([model.code_for(v) for _, v in pairs], dtype=np.int64)
            rows = np.array([self._row(w) for w, _ in pairs], dtype=np.int64)
            model.ensure_rows(self._set_obs.shape[0])
            task_idx = np.zeros(len(pairs), dtype=np.int64)
            post = self._point_posterior(model, task_idx, rows, codes, 1)
            result[attribute] = {
                value: float(post[0, code])
                for code, value in enumerate(model.values)
            }
        return result

    def _point_posterior(
        self,
        model: _AttributeModel,
        task_idx: npt.NDArray[np.int64],
        rows: npt.NDArray[np.int64],
        codes: npt.NDArray[np.int64],
        n_hits: int,
    ) -> npt.NDArray[np.float64]:
        k = len(model.values)
        p = self.prior_correct if k > 1 else 1.0
        off = (1.0 - p) / (k - 1) if k > 1 else 0.0
        prior_counts = self.prior_strength * np.full((k, k), off, dtype=np.float64)
        np.fill_diagonal(prior_counts, self.prior_strength * p)
        counts = prior_counts[None, :, :] + model.obs[: len(self._row_ids)]
        log_conf = np.log(counts / counts.sum(axis=2, keepdims=True) + _LOG_FLOOR)
        class_counts = self.prior_strength / k + model.class_obs
        priors = class_counts / class_counts.sum()
        log_post = np.tile(np.log(priors + _LOG_FLOOR), (n_hits, 1))
        np.add.at(log_post, task_idx, log_conf[rows, :, codes])
        log_post -= log_post.max(axis=1, keepdims=True)
        post: npt.NDArray[np.float64] = np.exp(log_post)
        post /= post.sum(axis=1, keepdims=True)
        return post

    def _forget(self) -> None:
        if self.decay < 1.0:
            self._set_obs *= self.decay
            self._set_class_obs *= self.decay

    # -- serializable state ------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The estimator's complete mutable state as JSON-compatible
        primitives; nested inside the versioned
        :class:`~repro.crowd.reliability.ReliabilitySnapshot` envelope."""
        n_rows = len(self._row_ids)
        return {
            "workers": list(self._row_ids),
            "set_obs": self._set_obs[:n_rows].tolist(),
            "set_votes": self._set_votes[:n_rows].tolist(),
            "set_class_obs": self._set_class_obs.tolist(),
            "point": {
                attribute: model.state_dict()
                for attribute, model in sorted(self._point_models.items())
            },
            "n_set_batches": self.n_set_batches,
            "n_point_batches": self.n_point_batches,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output bit-identically (floats
        survive JSON round-trips exactly)."""
        workers = [int(worker_id) for worker_id in state["workers"]]
        self._rows = {worker_id: row for row, worker_id in enumerate(workers)}
        self._row_ids = workers
        n_rows = len(workers)
        # The capacity an uninterrupted estimator reaches registering
        # ``n_rows`` workers, so point-model ``obs`` re-serializes unchanged.
        capacity = _ROW_GROWTH * max(1, -(-n_rows // _ROW_GROWTH))
        self._set_obs = np.zeros((capacity, 2, 2), dtype=np.float64)
        self._set_obs[:n_rows] = np.asarray(
            state["set_obs"], dtype=np.float64
        ).reshape(n_rows, 2, 2)
        self._set_votes = np.zeros(capacity, dtype=np.int64)
        self._set_votes[:n_rows] = np.asarray(state["set_votes"], dtype=np.int64)
        self._set_class_obs = np.asarray(
            state["set_class_obs"], dtype=np.float64
        ).reshape(2)
        self._point_models = {
            str(attribute): _AttributeModel.from_state(model_state, n_rows, capacity)
            for attribute, model_state in state["point"].items()
        }
        self.n_set_batches = int(state["n_set_batches"])
        self.n_point_batches = int(state["n_point_batches"])
        self._pool = None
