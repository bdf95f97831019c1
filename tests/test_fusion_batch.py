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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    cached state and predictions depended on history.  The state's
    table must share no memory with any kernel scratch."""
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
    for scratch in (kernel._row_scratch, kernel._gather_scratch, kernel._pair_scratch):
        assert not np.shares_memory(prepared.table, scratch)
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


def _reference_fuse(kernel, prep, item):
    """One request, every operand gathered into its own C-contiguous array.

    Numpy sums along a strided axis in another order, so the kernel's
    reductions over its packed gather stack equal these bit for bit
    only while each runs along a unit-stride axis.
    """
    q = np.array([item])
    adjust = kernel.adjust_biases
    M, K = kernel.cache.m, prep.k
    nbr, si = kernel.cache.indices[q], kernel.cache.sims[q]
    item_mean = kernel.item_means[q]
    anchor = np.array([prep.mean]) + (item_mean - kernel.global_mean)
    mean = np.array([prep.mean])

    def tail(num, den, base):
        quotient = num / np.where(den > 0.0, den, 1.0)
        return np.where(den > 0.0, quotient if base is None else base + quotient, mean)

    sir_w = prep.w_row[nbr] * si
    sir = tail(
        np.einsum("rm,rm->r", sir_w, prep.profile_sir[nbr]),
        sir_w.sum(axis=1),
        item_mean if adjust else None,
    )
    if not K:
        res = sir * kernel.w_sir
        res += (kernel.w_sur + kernel.w_suir) * mean
        return res[0]
    w_col = prep.wsu_cols[q]
    d_col = (prep.suir_cols if adjust else prep.dev_cols)[q]
    sur = tail(
        np.einsum("rk,rk->r", w_col, d_col), w_col.sum(axis=1), anchor if adjust else mean
    )
    pair = np.sqrt(prep.su_sq[None, None, :] + kernel.cache.sims_sq[q][:, :, None])
    pair = si[:, :, None] / pair
    pair *= prep.wsu_cols[nbr]
    num = np.einsum("nk,nk->n", pair.reshape(M, K), prep.suir_cols[nbr].reshape(M, K))
    suir = tail(
        num.reshape(1, M).sum(axis=1),
        pair.reshape(1, M * K).sum(axis=1),
        anchor if adjust else None,
    )
    res = sir * kernel.w_sir
    res += kernel.w_sur * sur
    res += kernel.w_suir * suir
    return res[0]


@pytest.fixture(scope="module")
def variants(fitted):
    """Fitted models per ``(adjust_biases, top_k_users == 1)``."""
    _model, split, users, _items = fitted
    out = {}
    for adjust in (True, False):
        for one in (True, False):
            kwargs = {"adjust_biases": adjust}
            if one:
                kwargs["top_k_users"] = 1
            out[adjust, one] = CFSF(**kwargs).fit(split.train)
    return out, split, np.unique(users)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batched_request_equals_fused_alone(variants, data):
    """Property: whatever shares its batch and however the batch is
    cut into passes, each request's value is bit-identical to fusing
    it alone, and that to :func:`_reference_fuse` — across users,
    repeated items, a reduced or zero top-K, ``top_k_users=1`` and
    both ``adjust_biases`` settings."""
    models, split, active = variants
    model = models[data.draw(st.booleans()), data.draw(st.booleans())]
    kernel = model.kernel
    q_n = kernel.item_means.size
    item_pool = data.draw(st.lists(st.integers(0, q_n - 1), min_size=1, max_size=6))
    blocks = []
    for _ in range(data.draw(st.integers(1, 6))):
        state = model.active_user_state(split.given, int(data.draw(st.sampled_from(active))))
        k = data.draw(st.sampled_from([state.prepared.k, 0, max(state.prepared.k - 1, 0)]))
        prep = state.prepared if k == state.prepared.k else kernel.prepare_user(
            state.top_k.users[:k],
            state.top_k.similarities[:k],
            state.profile,
            state.observed,
            state.mean,
        )
        items = data.draw(st.lists(st.sampled_from(item_pool), max_size=8))
        blocks.append((prep, np.array(items, dtype=np.intp)))
    alone = [kernel.fuse_many([(p, np.array([i]))])[0] for p, items in blocks for i in items]
    reference = [_reference_fuse(kernel, p, i) for p, items in blocks for i in items]
    np.testing.assert_array_equal(np.array(alone), np.array(reference))
    original = kernel.chunk_elems
    try:
        # Budgets down to one request per pass, so blocks span passes.
        kernel.chunk_elems = data.draw(st.sampled_from([1, 2_000, 20_000, original]))
        batched = kernel.fuse_many(blocks)
    finally:
        kernel.chunk_elems = original
    np.testing.assert_array_equal(batched, np.array(alone, dtype=np.float64))

    # The model path: a shuffled multi-user batch against one call per request.
    n = data.draw(st.integers(1, 12))
    users = np.array(data.draw(st.lists(st.sampled_from(active[:8]), min_size=n, max_size=n)))
    items = np.array(data.draw(st.lists(st.sampled_from(item_pool), min_size=n, max_size=n)))
    together = model.predict_many(split.given, users, items)
    one_by_one = [model.predict_many(split.given, [u], [i])[0] for u, i in zip(users, items)]
    np.testing.assert_array_equal(together, np.array(one_by_one))
