"""Property tests for the group-by-user helper (:mod:`repro.utils.groups`)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import user_blocks, user_runs

#: Request batches: empty, one user, few users with repeats, sorted or not.
_BATCHES = st.one_of(
    st.just([]),
    st.integers(0, 9).flatmap(lambda u: st.lists(st.just(u), min_size=1, max_size=8)),
    st.lists(st.integers(0, 6), max_size=40),
    st.lists(st.integers(0, 6), max_size=40).map(sorted),
)


def _reference_blocks(users: np.ndarray) -> list[list[int]]:
    """The stable argsort + diff + split grouping, spelled out."""
    order = np.argsort(users, kind="stable")
    bounds = np.nonzero(np.diff(users[order]))[0] + 1
    return [block.tolist() for block in np.split(order, bounds) if block.size]


@given(_BATCHES)
@settings(max_examples=300, deadline=None)
def test_user_runs_is_a_stable_sort_split_at_each_new_user(batch):
    users = np.array(batch, dtype=np.intp)
    order, edges = user_runs(users)
    is_sorted = bool(np.all(np.diff(users) >= 0))
    assert (order is None) == is_sorted
    full = np.arange(users.size) if order is None else order
    assert full.tolist() == np.argsort(users, kind="stable").tolist()
    runs = [full[a:b].tolist() for a, b in zip(edges, edges[1:])]
    assert runs == _reference_blocks(users)
    assert edges[0] == 0 and edges[-1] == users.size
    assert len(edges) == len(set(batch)) + 1


@given(_BATCHES, st.integers(0, 1000))
@settings(max_examples=300, deadline=None)
def test_user_blocks_carry_the_rows_they_are_given(batch, offset):
    users = np.array(batch, dtype=np.intp)
    rows = np.arange(users.size, dtype=np.intp) * 3 + offset
    want = _reference_blocks(users)
    assert [b.tolist() for b in user_blocks(users)] == want
    assert [b.tolist() for b in user_blocks(users, rows)] == [
        (np.array(block, dtype=np.intp) * 3 + offset).tolist() for block in want
    ]
