"""Group a request batch by user: every batched ``predict_many`` serves
per-user blocks, so each user's profile is read (and, for CFSF, the
user's state folded in) once per batch."""

from __future__ import annotations

import numpy as np

__all__ = ["user_blocks", "user_runs"]


def user_runs(users: np.ndarray) -> tuple[np.ndarray | None, list[int]]:
    """The stable user-sorted order of *users*, and its run edges.

    Returns ``(order, edges)``.  ``order`` is ``np.argsort(users,
    kind="stable")``, or ``None`` when *users* is already
    non-decreasing (the live-traffic shape: one user, or a batch a
    router grouped), which skips the sort.  In the sorted batch, run
    ``j`` spans ``edges[j]:edges[j + 1]`` and holds every request of
    one user; runs ascend by user.  An empty batch has no runs
    (``edges == [0]``).
    """
    diffs = np.diff(users)
    order = None
    if (diffs < 0).any():
        order = np.argsort(users, kind="stable")
        diffs = np.diff(users[order])
    edges = [0, *(np.flatnonzero(diffs) + 1).tolist(), users.size]
    return order, edges if users.size else [0]


def user_blocks(users: np.ndarray, rows: np.ndarray | None = None) -> list[np.ndarray]:
    """*rows* (parallel to *users*; default: every position) in per-user
    blocks, users ascending, each block in batch order: the
    :func:`user_runs` grouping as index arrays."""
    order, edges = user_runs(users)
    if rows is None:
        rows = np.arange(users.size)
    if order is not None:
        rows = rows[order]
    return [rows[start:stop] for start, stop in zip(edges, edges[1:])]
