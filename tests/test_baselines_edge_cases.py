"""Edge-case and failure-mode tests shared across all baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    EMDP,
    SCBPCC,
    AspectModel,
    ItemBasedCF,
    MatrixFactorization,
    MeanPredictor,
    NotFittedError,
    PersonalityDiagnosis,
    SimilarityFusion,
    UserBasedCF,
)
from repro.data import RatingMatrix

ALL_FACTORIES = [
    lambda: ItemBasedCF(),
    lambda: UserBasedCF(),
    lambda: SimilarityFusion(top_k_users=5, top_m_items=5),
    lambda: SCBPCC(n_clusters=3, top_k=3),
    lambda: EMDP(),
    lambda: AspectModel(n_aspects=3, n_iter=5),
    lambda: PersonalityDiagnosis(),
    lambda: MeanPredictor("user_item"),
    lambda: MatrixFactorization(n_factors=3, n_epochs=5),
]

IDS = ["SIR", "SUR", "SF", "SCBPCC", "EMDP", "AM", "PD", "Mean", "MF"]


@pytest.fixture(scope="module")
def tiny_train():
    rng = np.random.default_rng(11)
    values = np.where(rng.random((12, 15)) < 0.45, rng.integers(1, 6, (12, 15)), 0)
    return RatingMatrix(values.astype(float))


@pytest.fixture(scope="module")
def tiny_given(tiny_train):
    rng = np.random.default_rng(13)
    values = np.where(rng.random((4, 15)) < 0.3, rng.integers(1, 6, (4, 15)), 0)
    # guarantee at least 2 ratings per active user
    values[:, 0] = rng.integers(1, 6, 4)
    values[:, 1] = rng.integers(1, 6, 4)
    return RatingMatrix(values.astype(float))


class TestUniformContracts:
    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_unfitted_raises(self, factory, tiny_given):
        with pytest.raises(NotFittedError):
            factory().predict_many(tiny_given, [0], [0])

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_finite_in_scale_on_tiny_data(self, factory, tiny_train, tiny_given):
        model = factory().fit(tiny_train)
        users = np.repeat(np.arange(4), 15)
        items = np.tile(np.arange(15), 4)
        preds = model.predict_many(tiny_given, users, items)
        assert np.isfinite(preds).all()
        lo, hi = tiny_train.rating_scale
        assert preds.min() >= lo and preds.max() <= hi

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_empty_active_profile_served(self, factory, tiny_train):
        model = factory().fit(tiny_train)
        empty = RatingMatrix(
            np.zeros((1, tiny_train.n_items)),
            np.zeros((1, tiny_train.n_items), dtype=bool),
        )
        pred = model.predict(empty, 0, 3)
        assert np.isfinite(pred)

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_item_space_mismatch_rejected(self, factory, tiny_train, tiny_given):
        model = factory().fit(tiny_train)
        with pytest.raises(ValueError):
            model.predict_many(tiny_given.subset_items(range(5)), [0], [0])

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_empty_request(self, factory, tiny_train, tiny_given):
        model = factory().fit(tiny_train)
        out = model.predict_many(
            tiny_given, np.array([], dtype=int), np.array([], dtype=int)
        )
        assert out.shape == (0,)

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=IDS)
    def test_refit_on_new_data(self, factory, tiny_train, tiny_given):
        """Refitting on different data must fully replace state."""
        model = factory()
        model.fit(tiny_train)
        p1 = model.predict(tiny_given, 0, 2)
        other = tiny_train.subset_users(range(8))
        model.fit(other)
        p2 = model.predict(tiny_given, 0, 2)
        assert np.isfinite(p1) and np.isfinite(p2)
