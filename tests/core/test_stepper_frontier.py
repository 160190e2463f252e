"""The Group-Coverage stepper's ready frontier and its query keys.

:class:`GroupCoverageStepper` keeps Algorithm 1's FIFO as arrays, emits
its dispatchable queries from a cursor, and derives run keys
arithmetically. These tests hold it to the plain formulation: a stepper
that rescans its FIFO queue on every :meth:`pending` call and keys every
node from its index array.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group_coverage import GroupCoverageStepper, run_sequential
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.schema import Schema
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")


class ScanStepper:
    """Algorithm 1 with a FIFO scan per :meth:`pending` call: the
    reference the ready frontier must reproduce query for query.

    A node is an id into parallel lists: its view range ``[start, stop)``,
    its parent's id (``None`` for a root), whether it is a left half, and
    its parent's ``checked`` flag (set once one half answered "yes")."""

    def __init__(self, tau: int, n: int, view: np.ndarray, speculation: int) -> None:
        self.tau = tau
        self.speculation = speculation
        self.view = view
        self.cnt = 0
        self.discovered: list[int] = []
        self.unapplied = 0
        self.starts: list[int] = []
        self.stops: list[int] = []
        self.parents: list[int | None] = []
        self.lefts: list[bool] = []
        self.checked: list[bool] = []
        self.answers: dict[int, bool] = {}
        self.requests: dict[IndexKey, int] = {}
        self.covered = tau == 0
        self.done = tau == 0 or len(view) == 0
        self.queue = [
            self.node(begin, min(begin + n, len(view)), None, False)
            for begin in range(0, len(view), n)
        ]

    def node(self, start: int, stop: int, parent: int | None, left: bool) -> int:
        self.starts.append(start)
        self.stops.append(stop)
        self.parents.append(parent)
        self.lefts.append(left)
        self.checked.append(False)
        return len(self.starts) - 1

    def split(self, node: int) -> list[int]:
        """The two halves; the left one ends at the floor of the midpoint."""
        start, stop = self.starts[node], self.stops[node]
        middle = (start + stop + 1) // 2
        return [self.node(start, middle, node, True), self.node(middle, stop, node, False)]

    def pending(self, limit: int | None) -> list[IndexKey]:
        if self.done:
            return []
        outstanding = len(self.requests) + self.unapplied
        cap = max(self.tau - self.cnt + self.speculation - outstanding, 1)
        limit = cap if limit is None else min(limit, cap)
        in_flight = set(self.requests.values())
        keys: list[IndexKey] = []
        for node in self.queue:
            if len(keys) >= limit:
                break
            if node in self.answers or node in in_flight:
                continue
            if (
                self.parents[node] is not None
                and not self.lefts[node]
                and self.answers.get(node - 1) is not True  # the left sibling
            ):
                continue
            key = IndexKey.of(self.view[self.starts[node] : self.stops[node]])
            self.requests[key] = node
            keys.append(key)
        return keys

    def feed(self, answers: dict[IndexKey, bool]) -> None:
        for key, answer in answers.items():
            self.answers[self.requests.pop(key)] = answer
            self.unapplied += 1
        while not self.done:
            if not self.queue:
                self.done = True
                return
            node = self.queue[0]
            if node not in self.answers:
                return
            self.queue.pop(0)
            answer = self.answers[node]
            self.unapplied -= 1
            parent = self.parents[node]
            if parent is None:
                if not answer:
                    continue
                self.cnt += 1
            else:
                if not answer:
                    if not self.lefts[node]:
                        continue
                    node += 1  # the right sibling, implied "yes"
                    self.queue.remove(node)
                if self.checked[parent]:
                    self.cnt += 1
                else:
                    self.checked[parent] = True
            size = self.stops[node] - self.starts[node]
            if size == 1:
                self.discovered.append(int(self.view[self.starts[node]]))
            if self.cnt == self.tau:
                self.done = self.covered = True
                return
            if size > 1:
                self.queue.extend(self.split(node))


@st.composite
def views(draw, *, ordered: bool) -> np.ndarray:
    """Distinct dataset indices: a few ascending runs with gaps between
    them, shuffled unless ``ordered``."""
    view: list[int] = []
    position = 0
    for _ in range(draw(st.integers(1, 6))):
        position += draw(st.integers(0, 5))
        length = draw(st.integers(1, 40))
        view.extend(range(position, position + length))
        position += length
    array = np.array(view, dtype=np.int64)
    if not ordered:
        array = array[draw(st.permutations(range(len(array))))]
    return array


@settings(max_examples=150, deadline=None)
@given(
    view=st.one_of(views(ordered=True), views(ordered=False)),
    data=st.data(),
    tau=st.integers(0, 12),
    n=st.integers(1, 20),
    speculation=st.integers(0, 8),
)
def test_frontier_matches_fifo_scan(view, data, tau, n, speculation):
    """Random limits and out-of-order partial feeds: the stepper emits the
    same keys in the same order as the scan and ends with the same result."""
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, tau, n=n, view=view, speculation=speculation)
    reference = ScanStepper(tau, n, view, speculation)
    in_flight: dict[IndexKey, int] = {}  # key -> the stepper's position
    for _ in range(10_000):
        if stepper.done:
            break
        if not in_flight or data.draw(st.booleans()):
            limit = data.draw(st.one_of(st.none(), st.integers(1, 6)))
            batch = stepper.pending(limit)
            assert batch.keys == reference.pending(limit)
            assert len(batch) or in_flight, "stepper stalled"
            in_flight.update(zip(batch.keys, batch.positions))
            continue
        chosen = data.draw(
            st.lists(st.sampled_from(list(in_flight)), min_size=1, unique=True)
        )
        answers = {
            key: not members.isdisjoint(key.to_array().tolist()) for key in chosen
        }
        stepper.feed([in_flight.pop(key) for key in chosen], list(answers.values()))
        reference.feed(answers)
        assert stepper.done == reference.done
    assert stepper.done and reference.done
    assert (stepper.covered, stepper.count) == (reference.covered, reference.cnt)
    assert stepper.discovered_indices == tuple(reference.discovered)


@settings(max_examples=100, deadline=None)
@given(
    view=st.one_of(views(ordered=True), views(ordered=False)),
    data=st.data(),
    tau=st.integers(0, 12),
    n=st.integers(1, 20),
    speculation=st.integers(0, 8),
)
def test_shuffled_arrivals_split_across_feeds(view, data, tau, n, speculation):
    """Each pending batch is answered in a shuffled arrival order, split
    across several feed calls, as a multi-ticket engine round delivers
    it: the stepper still emits and concludes as the FIFO scan does."""
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, tau, n=n, view=view, speculation=speculation)
    reference = ScanStepper(tau, n, view, speculation)
    while not stepper.done:
        batch = stepper.pending()
        assert batch.keys == reference.pending(None)
        assert len(batch), "stepper stalled"
        arrivals = data.draw(st.permutations(range(len(batch))))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(batch) - 1)))))
        for first, last in zip([0, *cuts], [*cuts, len(batch)]):
            part = arrivals[first:last]
            if not part:
                continue
            keys = [batch.keys[i] for i in part]
            answers = [not members.isdisjoint(key.to_array().tolist()) for key in keys]
            stepper.feed([batch.positions[i] for i in part], answers)
            reference.feed(dict(zip(keys, answers)))
            assert stepper.done == reference.done
    assert reference.done
    assert (stepper.covered, stepper.count) == (reference.covered, reference.cnt)
    assert stepper.discovered_indices == tuple(reference.discovered)


@settings(max_examples=100, deadline=None)
@given(
    view=st.one_of(views(ordered=True), views(ordered=False)),
    data=st.data(),
    tau=st.integers(1, 12),
    n=st.integers(1, 20),
    speculation=st.integers(0, 8),
)
def test_scans_and_batches_share_the_fifo(view, data, tau, n, speculation):
    """Batches and generation scans drive one FIFO: a run that alternates
    between them, switching whenever nothing is outstanding and the head
    is not a lone right half, asks the one-drive run's queries and ends
    with its result."""
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    codes = np.zeros((int(view.max()) + 1, 1), dtype=np.int16)
    codes[sorted(members), 0] = 1
    dataset = LabeledDataset(Schema.from_dict({"gender": ["male", "female"]}), codes)
    oracle = GroundTruthOracle(dataset)
    mixed = GroupCoverageStepper(FEMALE, tau, n=n, view=view, speculation=speculation)
    while not mixed.done:
        if data.draw(st.booleans()):
            asked = oracle.ledger.n_set_queries
            try:
                mixed.scan(oracle)
            except InvalidParameterError:
                pass  # half a pair applied: batches until it is not
            else:
                # A scan asks a whole generation: roots and left halves
                # are always asked, so it is never empty.
                assert oracle.ledger.n_set_queries > asked
                continue
        batch = mixed.pending(data.draw(st.one_of(st.none(), st.integers(1, 6))))
        assert len(batch), "stepper stalled"
        queries = [(FEMALE, key) for key in batch.keys]
        mixed.feed(batch.positions, oracle.ask_set_batch(queries))
    alone = GroupCoverageStepper(FEMALE, tau, n=n, view=view)
    run_sequential(GroundTruthOracle(dataset), [alone])
    assert (mixed.covered, mixed.count) == (alone.covered, alone.count)
    assert mixed.discovered_indices == alone.discovered_indices


@settings(max_examples=100, deadline=None)
@given(view=views(ordered=True), data=st.data(), n=st.integers(1, 30))
def test_ascending_view_keys_are_canonical(view, data, n):
    """Run and scattered nodes of an ascending view get exactly the
    interned key :meth:`IndexKey.of` gives their index array."""
    IndexKey._interned.clear()  # no eviction between emission and check
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, len(view) + 1, n=n, view=view)
    while not stepper.done:
        batch = stepper.pending()
        indices = [key.to_array() for key in batch.keys]
        for key, array in zip(batch.keys, indices):
            assert key is IndexKey.of(array)
        stepper.feed(
            batch.positions, [not members.isdisjoint(array.tolist()) for array in indices]
        )
    assert stepper.count == len(members)
    assert set(stepper.discovered_indices) == members


@settings(max_examples=60, deadline=None)
@given(view=views(ordered=False), data=st.data(), n=st.integers(1, 30))
def test_unordered_view_keys_are_canonical(view, data, n):
    """A view in any other order keys every node through :meth:`IndexKey.of`
    and reaches the same count as the members it holds."""
    IndexKey._interned.clear()  # no eviction between emission and check
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, len(view) + 1, n=n, view=view)
    while not stepper.done:
        batch = stepper.pending()
        indices = [key.to_array() for key in batch.keys]
        for key, array in zip(batch.keys, indices):
            assert key is IndexKey.of(array)
        stepper.feed(
            batch.positions, [not members.isdisjoint(array.tolist()) for array in indices]
        )
    assert stepper.count == len(members)
    assert set(stepper.discovered_indices) == members
