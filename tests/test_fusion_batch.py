"""Batched fusion kernel vs the scalar per-request path.

The tentpole contract: ``FusionKernel.fuse_many`` must reproduce the
literal per-request LocalMatrix + :func:`repro.core.fusion.fuse` path
to within 1e-9 for every request, in every batch shape the serving
layer produces (single-user, sorted multi-user, shuffled multi-user,
chunk-split oversized blocks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CFSF
from repro.data import default_dataset, make_split

TOL = 1e-9


@pytest.fixture(scope="module")
def fitted():
    ratings = default_dataset(seed=1)
    split = make_split(ratings, n_train_users=80, given_n=10, seed=1)
    model = CFSF().fit(split.train)
    users, items, _ = split.targets_arrays()
    n = min(160, users.size)
    return model, split, users[:n], items[:n]


def _scalar(model, split, users, items):
    return np.array(
        [
            model.predict(split.given, int(u), int(i))
            for u, i in zip(users, items)
        ]
    )


def test_batched_matches_scalar_sorted(fitted):
    model, split, users, items = fitted
    batched = model.predict_many(split.given, users, items)
    np.testing.assert_allclose(
        batched, _scalar(model, split, users, items), rtol=0, atol=TOL
    )


def test_batched_matches_scalar_shuffled(fitted):
    model, split, users, items = fitted
    rng = np.random.default_rng(7)
    perm = rng.permutation(users.size)
    batched = model.predict_many(split.given, users[perm], items[perm])
    np.testing.assert_allclose(
        batched, _scalar(model, split, users[perm], items[perm]), rtol=0, atol=TOL
    )


def test_batched_single_user_fast_path(fitted):
    model, split, users, items = fitted
    u = int(users[0])
    one_user = np.full(10, u)
    ten_items = items[:10]
    batched = model.predict_many(split.given, one_user, ten_items)
    np.testing.assert_allclose(
        batched, _scalar(model, split, one_user, ten_items), rtol=0, atol=TOL
    )


def test_chunk_splitting_is_invisible(fitted):
    """Tiny chunk budgets force block splits; results must not change."""
    model, split, users, items = fitted
    reference = model.predict_many(split.given, users, items)
    kernel = model.kernel
    original = kernel.chunk_elems
    try:
        kernel.chunk_elems = 1  # degenerate: one request per sub-block
        forced = model.predict_many(split.given, users, items)
    finally:
        kernel.chunk_elems = original
    np.testing.assert_array_equal(forced, reference)


@pytest.mark.stress
def test_sixteen_threads_of_clones_match_serial_bitwise(fitted):
    """16 concurrent predict_many calls over borrowed kernel clones.

    The kernel-pool contract, stated at full strength: concurrency
    must not change a single bit — not 1e-9-close, *equal*.  Each
    thread borrows a private clone (shared derived matrices, private
    scratch) and replays the whole request stream; every output array
    must be byte-identical to the single-threaded reference.
    """
    import threading

    model, split, users, items = fitted
    reference = model.predict_many(split.given, users, items)
    n_threads = 16
    outputs = [None] * n_threads
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def worker(t):
        try:
            clone = model.kernel.clone()
            barrier.wait()
            with model.borrowed_kernel(clone):
                outputs[t] = model.predict_many(split.given, users, items)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    for t in range(n_threads):
        assert outputs[t] is not None
        np.testing.assert_array_equal(outputs[t], reference)


def test_fuse_many_empty_and_zero_k(fitted):
    model, split, _users, _items = fitted
    kernel = model.kernel
    assert kernel.fuse_many([]).size == 0

    # A user with no like-minded neighbours falls back to the weighted
    # SIR' + mean combination — and must not crash the batched path.
    q_n = kernel.item_means.size
    prep = kernel.prepare_user(
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.float64),
        np.full(q_n, 3.0),
        np.zeros(q_n, dtype=bool),
        3.0,
    )
    out = kernel.fuse_many([(prep, np.arange(5, dtype=np.intp))])
    assert out.shape == (5,)
    assert np.isfinite(out).all()

    # One call mixing full-k users, a reduced-k user, a k = 0 user and
    # an empty block: every request must equal fusing it alone, bit
    # for bit, whichever requests share its stacked pass.
    all_users = np.unique(split.targets_arrays()[0])
    states = [model.active_user_state(split.given, int(u)) for u in all_users[:4]]

    def reduced(state, k):
        return kernel.prepare_user(
            state.top_k.users[:k],
            state.top_k.similarities[:k],
            state.profile,
            state.observed,
            state.mean,
        )

    rng = np.random.default_rng(5)
    preps = [
        states[0].prepared,
        reduced(states[1], 3),
        states[2].prepared,
        reduced(states[3], 0),
        states[1].prepared,
        states[3].prepared,
    ]
    assert {p.k for p in preps} >= {0, 3, states[0].prepared.k}
    blocks = [(p, rng.integers(0, q_n, size=n)) for p, n in zip(preps, (3, 2, 0, 4, 1, 5))]
    mixed = kernel.fuse_many(blocks)
    alone = [
        kernel.fuse_many([(p, np.array([item]))])[0] for p, items in blocks for item in items
    ]
    np.testing.assert_array_equal(mixed, np.array(alone))


@pytest.mark.parametrize("adjust_biases", [True, False])
def test_single_neighbour_state_owns_its_arrays(fitted, adjust_biases):
    """Regression: with ``k == 1`` the item-major ``(Q, 1)`` arrays were
    views of the kernel's reusable row buffer, so a later gather (the
    next fold-in, or the deviation gather of the same one) rewrote a
    cached state and predictions depended on history."""
    _model, split, users, items = fitted
    model = CFSF(top_k_users=1, adjust_biases=adjust_biases).fit(split.train)
    kernel = model.kernel
    active = np.unique(users)
    first = int(active[0])
    mine = users == first

    state = model.active_user_state(split.given, first)
    assert state.prepared.k == 1
    neighbour = int(state.top_k.users[0])
    before = model.predict_many(split.given, users[mine], items[mine])
    model.predict_many(split.given, users[~mine], items[~mine])  # other fold-ins

    prepared = model.active_user_state(split.given, first).prepared
    assert prepared is state.prepared
    for cols in (prepared.wsu_cols, prepared.suir_cols, prepared.dev_cols):
        if cols is not None:
            assert not np.shares_memory(cols, kernel._row_scratch)
    np.testing.assert_array_equal(prepared.suir_cols[:, 0], kernel._suir_matrix[neighbour])
    if not adjust_biases:
        np.testing.assert_array_equal(
            prepared.dev_cols[:, 0], kernel.deviation_matrix[neighbour]
        )

    again = model.predict_many(split.given, users[mine], items[mine])
    np.testing.assert_array_equal(again, before)
    fresh = CFSF(top_k_users=1, adjust_biases=adjust_biases).fit(split.train)
    np.testing.assert_array_equal(
        fresh.predict_many(split.given, users[mine], items[mine]), before
    )
    np.testing.assert_allclose(
        before, _scalar(model, split, users[mine], items[mine]), rtol=0, atol=TOL
    )
