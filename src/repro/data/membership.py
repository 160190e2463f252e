"""Import stub for the removed in-RAM index class.

Every dataset is answered by
:class:`~repro.data.sharded.ShardedMembershipIndex`. The old name stays
importable only because ``perfbench/tracing.py`` patches its methods by
name; nothing uses it. Delete this module with that import.
"""

__all__: list[str] = []


def _removed(*args: object, **kwargs: object) -> None:
    raise TypeError("removed: use ShardedMembershipIndex.for_dataset(dataset)")


class GroupMembershipIndex:
    """Removed: every method raises."""

    __init__ = count = any_match = any_match_runs = any_match_batch = matches = _removed
