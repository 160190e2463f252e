"""The Group-Coverage stepper's ready frontier and its query keys.

:class:`GroupCoverageStepper` keeps its dispatchable queries as an
incremental frontier and derives run keys arithmetically. These tests
hold it to the plain formulation: a stepper that rescans its FIFO queue
on every :meth:`pending` call and keys every node from its index array.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.group_coverage import GroupCoverageStepper
from repro.core.tree import TreeNode
from repro.data.groups import group
from repro.engine.requests import IndexKey

FEMALE = group(gender="female")


class ScanStepper:
    """Algorithm 1 with a FIFO scan per :meth:`pending` call: the
    reference the ready frontier must reproduce query for query."""

    def __init__(self, tau: int, n: int, view: np.ndarray, speculation: int) -> None:
        self.tau = tau
        self.speculation = speculation
        self.view = view
        self.cnt = 0
        self.discovered: list[int] = []
        self.unapplied = 0
        self.answers: dict[TreeNode, bool] = {}
        self.requests: dict[IndexKey, TreeNode] = {}
        self.covered = tau == 0
        self.done = tau == 0 or len(view) == 0
        self.queue = [
            TreeNode(begin, min(begin + n, len(view)) - 1)
            for begin in range(0, len(view), n)
        ]

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
            parent = node.parent
            if (
                parent is not None
                and parent.right is node
                and self.answers.get(parent.left) is not True
            ):
                continue
            key = IndexKey.of(self.view[node.b_index : node.e_index + 1])
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
            if node.is_root:
                if not answer:
                    continue
                self.cnt += 1
            else:
                if not answer:
                    if not node.is_left_child:
                        continue
                    node = node.parent.right
                    self.queue.remove(node)
                if node.parent.checked:
                    self.cnt += 1
                else:
                    node.parent.checked = True
            if node.size == 1:
                self.discovered.append(int(self.view[node.b_index]))
            if self.cnt == self.tau:
                self.done = self.covered = True
                return
            if node.size > 1:
                self.queue.extend(node.split())


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
    in_flight: list[IndexKey] = []
    for _ in range(10_000):
        if stepper.done:
            break
        if not in_flight or data.draw(st.booleans()):
            limit = data.draw(st.one_of(st.none(), st.integers(1, 6)))
            emitted = [request.key[1] for request in stepper.pending(limit)]
            assert emitted == reference.pending(limit)
            assert emitted or in_flight, "stepper stalled"
            in_flight.extend(emitted)
            continue
        chosen = data.draw(
            st.lists(st.sampled_from(in_flight), min_size=1, unique=True)
        )
        answers = {
            key: not members.isdisjoint(key.to_array().tolist()) for key in chosen
        }
        stepper.feed({(FEMALE, key): answer for key, answer in answers.items()})
        reference.feed(answers)
        in_flight = [key for key in in_flight if key not in answers]
        assert stepper.done == reference.done
    assert stepper.done and reference.done
    assert (stepper.covered, stepper.count) == (reference.covered, reference.cnt)
    assert stepper.discovered_indices == tuple(reference.discovered)


@settings(max_examples=100, deadline=None)
@given(view=views(ordered=True), data=st.data(), n=st.integers(1, 30))
def test_ascending_view_keys_are_canonical(view, data, n):
    """Run and scattered nodes of an ascending view get exactly the
    interned key :meth:`IndexKey.of` gives their index array."""
    IndexKey._interned.clear()  # no eviction between emission and check
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, len(view) + 1, n=n, view=view)
    while not stepper.done:
        requests = stepper.pending()
        for request in requests:
            assert request.key[1] is IndexKey.of(request.indices)
        stepper.feed(
            {
                request.key: not members.isdisjoint(request.indices.tolist())
                for request in requests
            }
        )
    assert stepper.count == len(members)


@settings(max_examples=60, deadline=None)
@given(view=views(ordered=False), data=st.data(), n=st.integers(1, 30))
def test_unordered_view_keys_are_canonical(view, data, n):
    """A view in any other order keys every node through :meth:`IndexKey.of`
    and reaches the same count as the members it holds."""
    IndexKey._interned.clear()  # no eviction between emission and check
    members = set(data.draw(st.sets(st.sampled_from(view.tolist()))))
    stepper = GroupCoverageStepper(FEMALE, len(view) + 1, n=n, view=view)
    while not stepper.done:
        requests = stepper.pending()
        for request in requests:
            assert request.key[1] is IndexKey.of(request.indices)
        stepper.feed(
            {
                request.key: not members.isdisjoint(request.indices.tolist())
                for request in requests
            }
        )
    assert stepper.count == len(members)
    assert set(stepper.discovered_indices) == members
