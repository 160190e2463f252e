"""The execution-tree data structures of Algorithm 1.

The paper implements Group-Coverage over a binary tree whose nodes carry::

    struct node:
        b_index      // beginning index of the range
        e_index      // end index of the range
        parent=null, left=null, right=null,
        checked=false   // true once one child returned a yes answer

plus a FIFO queue of nodes. Algorithm 1 also removes a *specific*
enqueued node (line 12: ``T <- Q.del(T.parent.right)`` — when a left child
answers "no", its right sibling's answer is implied "yes" and the sibling
must be pulled out of the queue without being asked). Siblings are
enqueued back to back, so that sibling is always the node directly behind
the left child just popped, and a plain :class:`collections.deque` serves.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InvalidParameterError

__all__ = ["TreeNode"]


class TreeNode:
    """One set query's range ``[b_index, e_index]`` (inclusive positions in
    the current view) plus tree links and the ``checked`` flag."""

    __slots__ = ("b_index", "e_index", "parent", "left", "right", "checked")

    def __init__(
        self, b_index: int, e_index: int, parent: Optional["TreeNode"] = None
    ) -> None:
        if b_index < 0 or e_index < b_index:
            raise InvalidParameterError(
                f"invalid node range [{b_index}, {e_index}]"
            )
        self.b_index = b_index
        self.e_index = e_index
        self.parent = parent
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.checked = False

    @property
    def size(self) -> int:
        return self.e_index - self.b_index + 1

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_left_child(self) -> bool:
        return self.parent is not None and self.parent.left is self

    def split(self) -> tuple["TreeNode", "TreeNode"]:
        """Create and link the two half-range children (paper line 18:
        left gets ``[b, floor((b+e)/2)]``, right the rest)."""
        if self.size < 2:
            raise InvalidParameterError("cannot split a singleton node")
        middle = (self.b_index + self.e_index) // 2
        self.left = TreeNode(self.b_index, middle, parent=self)
        self.right = TreeNode(middle + 1, self.e_index, parent=self)
        return self.left, self.right

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"TreeNode[{self.b_index}, {self.e_index}]"
