"""`OnlineDawidSkene`: streaming worker-reliability estimation.

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
* each observed batch of HITs runs an E-step — task posteriors from the
  current priors and confusions — and then folds the implied counts
  back in, scaled by a ``damping`` step size below 1 so one noisy batch
  cannot yank the estimates,
* an optional exponential ``decay`` forgets old counts, letting the
  estimator track workers whose quality drifts over an audit's lifetime.

Set queries use 2x2 matrices (truth in {no, yes}); point queries use one
k x k matrix per schema attribute, with value codes discovered online.

A set batch touches only the rows of the workers who voted in it, so
its sweeps run in Python scalars over those rows' 2x2 counts, with one
:func:`numpy.log` call per sweep and one scalar :func:`numpy.exp` per
HIT and sweep: less its maximum, one side of a HIT's log posterior is
exactly ``0.0``, whose exponential is ``1.0``. Python's float arithmetic
is NumPy's float64 arithmetic, and NumPy's ``log`` and ``exp`` give an
element the same result whatever the array's length (a scalar
included), so the result is bit-identical to the whole-pool formula
(``math.log`` and ``math.exp`` are not: they differ from NumPy in the
last bit on some inputs). Each row's confusion, vote log-odds and vote
count are cached and refreshed with every change to the rows' counts:
after each sweep for the voters, and for every row when ``decay < 1``
forgets them all. So the per-vote routing and stopping reads between
batches are list lookups. The whole pool as arrays, :class:`PoolView`,
is built from those caches only when something reads it.

The set counts are Python floats, four in one list per row, which a
sweep updates in place. Every set update runs one routine, the damped
E/M sweeps of :meth:`OnlineDawidSkene._update`.
:meth:`~OnlineDawidSkene.observe_set_batch` resolves worker ids for it;
:meth:`~OnlineDawidSkene.observe_hit` is the adaptive policy's lean
entry, for one HIT whose rows the policy has already resolved, and it
returns the posterior as a Python float.
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

    Built by :meth:`OnlineDawidSkene.pool` from the estimator's per-row
    caches and kept until its statistics or worker registry change; the
    arrays are read-only.
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
        # The set statistics as Python numbers, at the row capacity: four
        # counts per row (no|no, yes|no, no|yes, yes|yes, indexed by
        # ``2 * truth + answer``), a vote count per row, and the two class
        # counts. The ``_set_*`` properties copy them to and from arrays.
        self._obs: list[list[float]] = []
        self._votes: list[int] = []
        self._class_obs = [0.0, 0.0]
        self._point_models: dict[str, _AttributeModel] = {}
        # Read caches of the set statistics: each row's confusion, laid out
        # like its counts, and its logs (floored), and the class priors and
        # their logs.
        self._conf: list[Sequence[float]] = []
        self._logs: list[Sequence[float]] = []
        self._priors: tuple[float, ...] = (0.5, 0.5)
        self._log_priors: tuple[float, ...] = (0.0, 0.0)
        self._pool: PoolView | None = None
        self.n_set_batches = 0
        self.n_point_batches = 0
        self._refresh(())

    # -- worker registry ---------------------------------------------------
    def _row(self, worker_id: int) -> int:
        row = self._rows.get(worker_id)
        if row is None:
            row = len(self._row_ids)
            self._rows[worker_id] = row
            self._row_ids.append(worker_id)
            if row >= len(self._votes):
                self._obs += [[0.0] * 4 for _ in range(_ROW_GROWTH)]
                self._conf += [()] * _ROW_GROWTH
                self._logs += [()] * _ROW_GROWTH
                self._votes += [0] * _ROW_GROWTH
                capacity = len(self._votes)
                for model in self._point_models.values():
                    model.ensure_rows(capacity)
            self._refresh((row,))
        return row

    def rows(self, worker_ids: Sequence[int]) -> list[int]:
        """The workers' rows in :class:`PoolView` arrays, registering
        unseen workers (in the given order) first."""
        try:
            return list(map(self._rows.__getitem__, worker_ids))
        except KeyError:
            return [self._row(worker_id) for worker_id in worker_ids]

    @property
    def registry(self) -> Mapping[int, int]:
        """Every registered worker's row by worker id: read it, never
        change it. Registering a worker adds to it, and loading state
        replaces it with a new mapping."""
        return self._rows

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
        return 0 if row is None else self._votes[row]

    def row_votes(self, row: int) -> int:
        """:meth:`n_observations` of the worker at ``row``."""
        return self._votes[row]

    @property
    def _set_obs(self) -> npt.NDArray[np.float64]:
        """The set counts as a ``(capacity, 2, 2)`` array, a copy;
        assigning an array stores its values."""
        return np.array(self._obs, dtype=np.float64).reshape(-1, 2, 2)

    @_set_obs.setter
    def _set_obs(self, counts: npt.NDArray[np.float64]) -> None:
        self._obs = np.asarray(counts, dtype=np.float64).reshape(-1, 4).tolist()

    @property
    def _set_votes(self) -> npt.NDArray[np.int64]:
        """The vote counts as a ``(capacity,)`` array, a copy."""
        return np.array(self._votes, dtype=np.int64)

    @_set_votes.setter
    def _set_votes(self, votes: npt.NDArray[np.int64]) -> None:
        self._votes = np.asarray(votes, dtype=np.int64).ravel().tolist()

    @property
    def _set_class_obs(self) -> npt.NDArray[np.float64]:
        """The class counts as a ``(2,)`` array, a copy."""
        return np.array(self._class_obs, dtype=np.float64)

    @_set_class_obs.setter
    def _set_class_obs(self, counts: npt.NDArray[np.float64]) -> None:
        self._class_obs = np.asarray(counts, dtype=np.float64).reshape(2).tolist()

    # -- read-time estimates ----------------------------------------------
    def _prior_pair(self) -> tuple[float, float]:
        """The symmetric set prior's pseudo-counts of a right and of a
        wrong answer."""
        p = self.prior_correct
        return self.prior_strength * p, self.prior_strength * (1.0 - p)

    def _set_prior_counts(self) -> npt.NDArray[np.float64]:
        """The set prior's pseudo-counts as a ``(truth, answer)`` array."""
        right, wrong = self._prior_pair()
        return np.array([[right, wrong], [wrong, right]], dtype=np.float64)

    def _refresh(self, rows: Sequence[int]) -> None:
        """Recompute the read caches of ``rows`` and of the class priors
        from the raw statistics: the float operations of ``counts /
        counts.sum(axis=-1)`` over ``prior + obs`` and over ``prior +
        class_obs``, and their logs from one :func:`numpy.log` call (each
        of the value plus ``_LOG_FLOOR``)."""
        right, wrong = self._prior_pair()
        half = self.prior_strength * 0.5
        count_no, count_yes = half + self._class_obs[0], half + self._class_obs[1]
        total = count_no + count_yes
        rates = [count_no / total, count_yes / total]
        obs, conf = self._obs, self._conf
        for row in rows:
            no_no, yes_no, no_yes, yes_yes = obs[row]
            no_no = right + no_no
            yes_no = wrong + yes_no
            no_yes = wrong + no_yes
            yes_yes = right + yes_yes
            when_no = no_no + yes_no
            when_yes = no_yes + yes_yes
            conf[row] = row_rates = (
                no_no / when_no, yes_no / when_no, no_yes / when_yes, yes_yes / when_yes
            )
            rates += row_rates
        logs = np.log(np.add(rates, _LOG_FLOOR)).tolist()
        self._priors = (rates[0], rates[1])
        self._log_priors = (logs[0], logs[1])
        log_rows = self._logs
        k = 2
        for row in rows:
            log_rows[row] = logs[k : k + 4]
            k += 4
        self._pool = None

    def pool(self) -> PoolView:
        """Every registered worker's current set-query estimates as one
        :class:`PoolView`, built from the per-row caches on first read
        and reused until a worker is registered, a set batch is
        observed, or state is loaded."""
        pool = self._pool
        if pool is None:
            n_rows = len(self._row_ids)
            confusion = np.array(self._conf[:n_rows], dtype=np.float64).reshape(
                n_rows, 2, 2
            )
            prior_no, prior_yes = self._priors
            accuracy = prior_no * confusion[:, 0, 0] + prior_yes * confusion[:, 1, 1]
            log_conf = np.array(self._logs[:n_rows], dtype=np.float64).reshape(n_rows, 2, 2)
            log_odds = log_conf[:, 1, :] - log_conf[:, 0, :]
            votes = np.array(self._votes[:n_rows], dtype=np.int64)
            for values in (confusion, accuracy, log_odds, votes):
                values.flags.writeable = False
            pool = self._pool = PoolView(
                confusion=confusion,
                accuracy=accuracy,
                log_odds=log_odds,
                votes=votes,
                prior_log_odds=self.prior_log_odds(),
            )
        return pool

    def row_confusion(self, row: int) -> Sequence[float]:
        """Row ``row``'s current set confusion ``P(answer | truth)``,
        prior included, flattened as ``(no | no, yes | no, no | yes,
        yes | yes)``: the cached values every other read is built from."""
        return self._conf[row]

    def confusion(self, worker_id: int) -> npt.NDArray[np.float64]:
        """The worker's current 2x2 set confusion ``P(answer | truth)``
        (row = truth in {no, yes}, column = answer), prior included."""
        return np.array(self.row_confusion(self._row(worker_id)), dtype=np.float64).reshape(
            2, 2
        )

    def worker_accuracy(self, worker_id: int) -> float:
        """Estimated P(correct) for the worker: the confusion diagonal
        weighted by the current class priors."""
        return self.accuracies((worker_id,))[0]

    def accuracies(self, worker_ids: Sequence[int]) -> list[float]:
        """:meth:`worker_accuracy` of each worker, registering unseen
        workers (in the given order) first."""
        return self.row_accuracies(self.rows(worker_ids))

    def row_accuracies(self, rows: Iterable[int]) -> list[float]:
        """:meth:`worker_accuracy` of the workers at ``rows``."""
        prior_no, prior_yes = self._priors
        conf = self._conf
        return [prior_no * conf[row][0] + prior_yes * conf[row][3] for row in rows]

    @property
    def class_priors(self) -> npt.NDArray[np.float64]:
        """Current class prior ``[P(truth=no), P(truth=yes)]``,
        smoothed by the symmetric pseudo-count prior."""
        counts = self.prior_strength * 0.5 + self._set_class_obs
        result: npt.NDArray[np.float64] = counts / counts.sum()
        return result

    def prior_log_odds(self) -> float:
        """``log P(yes) - log P(no)`` before any vote is seen."""
        return self._log_priors[1] - self._log_priors[0]

    def vote_log_odds(self, worker_id: int, answer: bool) -> float:
        """The log-likelihood-ratio increment one vote contributes to the
        posterior log-odds of "truth = yes", under the worker's current
        confusion estimate."""
        row = self._rows.get(worker_id)
        if row is None:
            row = self._row(worker_id)
        return self.row_log_odds(row, answer)

    def row_log_odds(self, row: int, answer: bool) -> float:
        """:meth:`vote_log_odds` of a vote by the worker at ``row``."""
        logs = self._logs[row]
        return logs[3] - logs[1] if answer else logs[2] - logs[0]

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

        Runs the damped partial E/M sweeps over the voters' rows only and
        returns the final per-HIT posterior ``P(truth = yes)`` under the
        *updated* estimates. A worker who votes more than once (in one
        HIT or across the batch's HITs) accumulates in vote order.
        """
        known = self._rows
        voters: dict[int, None] = {}
        hit_votes: list[list[tuple[int, int]]] = []
        for votes in hits:
            resolved = []
            for worker_id, answer in votes:
                row = known.get(worker_id)
                if row is None:
                    row = self._row(worker_id)
                voters[row] = None
                resolved.append((row, 1 if answer else 0))
            hit_votes.append(resolved)
        if not voters:
            return np.zeros(len(hits), dtype=np.float64)
        return np.array(self._update(list(voters), hit_votes))

    def observe_hit(self, rows: Sequence[int], answers: Sequence[bool]) -> float:
        """Fold one set-query HIT into the running statistics, its votes
        given as the voters' registered rows (:meth:`rows`) and their
        answers, and return its posterior ``P(truth = yes)`` under the
        updated estimates: :meth:`observe_set_batch` of that one HIT, for
        a caller that resolved the rows already."""
        if not rows:
            return 0.0
        votes = [(row, 1 if answer else 0) for row, answer in zip(rows, answers)]
        return self._update(list(dict.fromkeys(rows)), [votes])[0]

    def _update(
        self, voters: list[int], hit_votes: list[list[tuple[int, int]]]
    ) -> list[float]:
        """The damped partial E/M sweeps, every set update's one routine.

        ``hit_votes`` holds each HIT's votes in vote order as ``(row,
        answer)`` pairs, the answer ``0`` (no) or ``1`` (yes): the vote's
        count given truth = no is at ``answer`` in its row's counts, and
        given truth = yes at ``answer + 2``. ``voters`` are the distinct
        rows that voted. The counts change in place, and the voters'
        caches are refreshed after each sweep, so a sweep reads the logs
        of the counts as they stand. Returns each HIT's posterior
        ``P(truth = yes)`` under the updated estimates."""
        if self.decay < 1.0:
            self._forget()
            self._refresh(voters)
        step = self.damping / self.sweeps
        obs = self._obs
        for _ in range(self.sweeps):
            log_rows = self._logs
            log_prior_no, log_prior_yes = self._log_priors
            post: list[tuple[float, float]] = []
            for votes in hit_votes:
                # E-step: the HIT's log posterior, votes added in vote order.
                no, yes = log_prior_no, log_prior_yes
                for row, answer in votes:
                    logs = log_rows[row]
                    no += logs[answer]
                    yes += logs[answer + 2]
                # Less its maximum, one side of a log posterior is 0.0,
                # whose exp is 1.0: the other side takes one scalar np.exp.
                if no >= yes:
                    exp_no, exp_yes = 1.0, float(np.exp(yes - no))
                else:
                    exp_no, exp_yes = float(np.exp(no - yes)), 1.0
                post.append((exp_no / (exp_no + exp_yes), exp_yes / (exp_no + exp_yes)))
            # Damped M-step into the voters' counts and the class counts.
            for votes, (post_no, post_yes) in zip(hit_votes, post):
                for row, answer in votes:
                    counts = obs[row]
                    counts[answer] += step * post_no
                    counts[answer + 2] += step * post_yes
            sum_no, sum_yes = post[0]
            for post_no, post_yes in post[1:]:
                sum_no += post_no
                sum_yes += post_yes
            class_obs = self._class_obs
            self._class_obs = [class_obs[0] + step * sum_no, class_obs[1] + step * sum_yes]
            self._refresh(voters)
        n_votes = self._votes
        for votes in hit_votes:
            for row, _ in votes:
                n_votes[row] += 1
        self.n_set_batches += 1
        if self.decay < 1.0:  # decay moved every row's counts
            self._refresh(range(len(self._row_ids)))
        return [post_yes for _, post_yes in post]

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
                model = _AttributeModel(len(self._votes))
                self._point_models[attribute] = model
            codes = np.array([model.code_for(v) for _, _, v in flat], dtype=np.int64)
            rows = np.array([self._row(w) for _, w, _ in flat], dtype=np.int64)
            model.ensure_rows(len(self._votes))
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
                model = _AttributeModel(len(self._votes))
                self._point_models[attribute] = model
            codes = np.array([model.code_for(v) for _, v in pairs], dtype=np.int64)
            rows = np.array([self._row(w) for w, _ in pairs], dtype=np.int64)
            model.ensure_rows(len(self._votes))
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
        decay = self.decay
        if decay < 1.0:
            self._obs = [[count * decay for count in counts] for counts in self._obs]
            self._class_obs = [count * decay for count in self._class_obs]

    # -- serializable state ------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The estimator's complete mutable state as JSON-compatible
        primitives; nested inside the versioned
        :class:`~repro.crowd.reliability.ReliabilitySnapshot` envelope."""
        n_rows = len(self._row_ids)
        return {
            "workers": list(self._row_ids),
            "set_obs": [[counts[:2], counts[2:]] for counts in self._obs[:n_rows]],
            "set_votes": self._votes[:n_rows],
            "set_class_obs": list(self._class_obs),
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
        obs = np.zeros((capacity, 2, 2), dtype=np.float64)
        obs[:n_rows] = np.asarray(state["set_obs"], dtype=np.float64).reshape(n_rows, 2, 2)
        self._set_obs = obs
        votes = np.zeros(capacity, dtype=np.int64)
        votes[:n_rows] = np.asarray(state["set_votes"], dtype=np.int64)
        self._set_votes = votes
        self._set_class_obs = np.asarray(state["set_class_obs"], dtype=np.float64)
        self._point_models = {
            str(attribute): _AttributeModel.from_state(model_state, n_rows, capacity)
            for attribute, model_state in state["point"].items()
        }
        self.n_set_batches = int(state["n_set_batches"])
        self.n_point_batches = int(state["n_point_batches"])
        self._conf = [()] * capacity
        self._logs = [()] * capacity
        self._refresh(range(n_rows))
