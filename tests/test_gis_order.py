"""The GIS neighbour order: a top-M selection equal to a stable argsort.

``GlobalItemSimilarity`` holds each item's neighbour order only as wide
as asked for, and selects it without sorting whole rows.  These tests
pin the contract that makes that safe: the selected order is, column
for column, the prefix of the stable descending argsort of the row
with the item itself excluded — under heavy ties (integer-valued and
thresholded similarities, all-zero rows) and when ``Q - 1 < M`` — and
an order widened after a fit is the one a fresh fit at that width
selects.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import CFSF
from repro.core.gis import GlobalItemSimilarity
from repro.data import make_movielens_like, make_split
from repro.similarity import apply_threshold


def _argsort_prefix(sim: np.ndarray, m: int) -> np.ndarray:
    """The full sort the order replaces, self (last) cut off."""
    masked = sim.copy()
    np.fill_diagonal(masked, -np.inf)
    return np.argsort(-masked, axis=1, kind="stable")[:, : min(m, sim.shape[0] - 1)]


def _bare_gis(sim: np.ndarray) -> GlobalItemSimilarity:
    return GlobalItemSimilarity(
        sim=sim,
        neighbours=np.empty((sim.shape[0], 0), dtype=np.intp),
        threshold=0.0,
        centering="global_mean",
    )


@st.composite
def tied_similarities(draw):
    """Square matrices of quarter steps in [-1, 1]: ties everywhere."""
    q = draw(st.integers(1, 14))
    steps = draw(hnp.arrays(np.int64, (q, q), elements=st.integers(-4, 4)))
    sim = steps / 4.0
    zero_rows = draw(st.lists(st.integers(0, q - 1), max_size=q))
    sim[zero_rows] = 0.0
    np.fill_diagonal(sim, 1.0)
    threshold = draw(st.sampled_from([0.0, 0.3]))
    return apply_threshold(sim, threshold)


class TestTopMSelection:
    @settings(max_examples=200, deadline=None)
    @given(sim=tied_similarities(), m=st.integers(1, 18))
    def test_order_is_the_stable_argsort_prefix(self, sim, m):
        order = _bare_gis(sim).order(m)
        width = min(m, sim.shape[0] - 1)
        assert order.shape == (sim.shape[0], width)
        np.testing.assert_array_equal(order, _argsort_prefix(sim, m))

    @settings(max_examples=100, deadline=None)
    @given(
        steps=hnp.arrays(np.int64, (9, 9), elements=st.integers(-3, 3)),
        widths=st.lists(st.integers(1, 10), min_size=2, max_size=4),
    )
    def test_integer_sims_widened_in_steps(self, steps, widths):
        sim = steps.astype(np.float64)
        gis = _bare_gis(sim)
        for m in widths:
            got = gis.order(m)[:, :m]
            np.testing.assert_array_equal(got, _argsort_prefix(sim, m))

    def test_order_held_only_to_the_width_asked(self):
        sim = np.arange(36, dtype=np.float64).reshape(6, 6) % 4
        gis = _bare_gis(sim)
        assert gis.order(2).shape == (6, 2)
        assert gis.order(1).shape == (6, 2)  # a narrower ask keeps the order
        assert gis.order(50).shape == (6, 5)  # capped at Q - 1

    def test_single_item_catalogue(self):
        gis = _bare_gis(np.ones((1, 1)))
        assert gis.order(5).shape == (1, 0)
        idx, sims = gis.top_m(0, 5)
        assert idx.size == sims.size == 0


def test_widening_a_fitted_order_equals_a_fresh_fit():
    ratings = make_movielens_like(seed=0).ratings
    split = make_split(ratings, n_train_users=300, given_n=10, seed=0)
    model = CFSF().fit(split.train)
    Q = split.train.n_items
    assert model.gis.neighbours.shape == (Q, 95)

    model.config = model.config.with_(top_m_items=100)
    users, items, _ = split.targets_arrays()
    widened = model.predict_many(split.given, users[:300], items[:300])
    assert model.gis.neighbours.shape == (Q, 100)

    fresh = CFSF(top_m_items=100).fit(split.train)
    np.testing.assert_array_equal(model.gis.neighbours, fresh.gis.neighbours)
    for name in ("indices", "sims32", "counts"):
        np.testing.assert_array_equal(
            getattr(model.kernel.cache, name), getattr(fresh.kernel.cache, name)
        )
    np.testing.assert_array_equal(
        widened, fresh.predict_many(split.given, users[:300], items[:300])
    )
