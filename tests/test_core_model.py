"""Tests for the end-to-end CFSF estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import MeanPredictor, NotFittedError
from repro.core import CFSF, CFSFConfig
from repro.eval import mae


class TestConfigPlumbing:
    def test_overrides_apply(self):
        m = CFSF(top_m_items=42, lam=0.5)
        assert m.config.top_m_items == 42 and m.config.lam == 0.5

    def test_explicit_config_plus_overrides(self):
        cfg = CFSFConfig(n_clusters=7)
        m = CFSF(cfg, top_k_users=9)
        assert m.config.n_clusters == 7 and m.config.top_k_users == 9

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            CFSF(lam=1.5)

    def test_paper_defaults(self):
        cfg = CFSFConfig()
        assert (cfg.n_clusters, cfg.top_m_items, cfg.top_k_users) == (30, 95, 25)
        assert (cfg.lam, cfg.delta, cfg.epsilon) == (0.8, 0.1, 0.35)

    def test_with_replaces_only_named(self):
        cfg = CFSFConfig().with_(lam=0.4)
        assert cfg.lam == 0.4 and cfg.delta == 0.1


class TestFitState:
    def test_predict_before_fit_raises(self, split_small):
        with pytest.raises(NotFittedError):
            CFSF().predict_many(split_small.given, [0], [0])

    def test_fit_populates_offline_state(self, cfsf_small):
        assert cfsf_small.gis is not None
        assert cfsf_small.clusters is not None
        assert cfsf_small.smoothed is not None
        assert cfsf_small.icluster is not None

    def test_offline_summary_keys(self, cfsf_small):
        s = cfsf_small.offline_summary()
        for key in ("n_users", "gis_sparsity", "n_clusters", "smoothed_fraction"):
            assert key in s

    def test_refit_clears_cache(self, split_small):
        m = CFSF(n_clusters=8, top_m_items=30, top_k_users=10)
        m.fit(split_small.train)
        m.predict(split_small.given, 0, 0)
        assert len(m._cache) > 0
        m.fit(split_small.train)
        assert len(m._cache) == 0


class TestRequestValidation:
    def test_item_space_mismatch(self, cfsf_small, split_small):
        wrong = split_small.given.subset_items(range(10))
        with pytest.raises(ValueError, match="items"):
            cfsf_small.predict_many(wrong, [0], [0])

    def test_index_bounds(self, cfsf_small, split_small):
        with pytest.raises(ValueError):
            cfsf_small.predict_many(split_small.given, [999], [0])
        with pytest.raises(ValueError):
            cfsf_small.predict_many(split_small.given, [0], [99999])

    def test_parallel_array_shapes(self, cfsf_small, split_small):
        with pytest.raises(ValueError):
            cfsf_small.predict_many(split_small.given, [0, 1], [0])


class TestPredictions:
    def test_outputs_finite_in_scale(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        preds = cfsf_small.predict_many(split_small.given, users, items)
        lo, hi = split_small.train.rating_scale
        assert np.isfinite(preds).all()
        assert preds.min() >= lo and preds.max() <= hi

    def test_batched_equals_detailed(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        lo, hi = split_small.train.rating_scale
        batch = cfsf_small.predict_many(split_small.given, users[:25], items[:25])
        for k in range(25):
            detail = cfsf_small.predict_one_detailed(
                split_small.given, int(users[k]), int(items[k])
            )
            assert batch[k] == pytest.approx(np.clip(detail.value, lo, hi), abs=1e-9)

    def test_request_order_invariance(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:60], items[:60]
        perm = np.random.default_rng(0).permutation(60)
        a = cfsf_small.predict_many(split_small.given, users, items)
        b = cfsf_small.predict_many(split_small.given, users[perm], items[perm])
        assert np.allclose(a[perm], b)

    def test_beats_mean_baseline(self, split_small):
        users, items, truth = split_small.targets_arrays()
        model = CFSF(n_clusters=8, top_m_items=30, top_k_users=10).fit(split_small.train)
        baseline = MeanPredictor("user_item").fit(split_small.train)
        m_cfsf = mae(truth, model.predict_many(split_small.given, users, items))
        m_base = mae(truth, baseline.predict_many(split_small.given, users, items))
        assert m_cfsf < m_base

    def test_single_predict_wrapper(self, cfsf_small, split_small):
        v = cfsf_small.predict(split_small.given, 0, 3)
        assert isinstance(v, float)

    def test_deterministic(self, split_small):
        kw = dict(n_clusters=8, top_m_items=30, top_k_users=10)
        users, items, _ = split_small.targets_arrays()
        a = CFSF(**kw).fit(split_small.train).predict_many(split_small.given, users, items)
        b = CFSF(**kw).fit(split_small.train).predict_many(split_small.given, users, items)
        assert np.array_equal(a, b)


class TestCaching:
    def test_cache_hits_on_repeat_users(self, split_small):
        m = CFSF(n_clusters=8, top_m_items=30, top_k_users=10)
        m.fit(split_small.train)
        users = np.array([0, 0, 0, 1, 1])
        items = np.array([0, 1, 2, 0, 1])
        m.predict_many(split_small.given, users, items)
        stats1 = m.cache_stats()
        m.predict_many(split_small.given, users, items)
        stats2 = m.cache_stats()
        assert stats2["hits"] > stats1["hits"]

    def test_cache_disabled(self, split_small):
        m = CFSF(n_clusters=8, top_m_items=30, top_k_users=10, cache_size=0)
        m.fit(split_small.train)
        m.predict_many(split_small.given, np.array([0, 0]), np.array([0, 1]))
        m.predict_many(split_small.given, np.array([0]), np.array([2]))
        assert m.cache_stats()["hits"] == 0

    def test_different_given_not_conflated(self, split_small):
        """Predictions must change when the given profile changes, even
        for the same user row (cache key correctness)."""
        m = CFSF(n_clusters=8, top_m_items=30, top_k_users=10)
        m.fit(split_small.train)
        p1 = m.predict(split_small.given, 0, 5)
        # zero out user 0's profile
        import numpy as _np
        from repro.data import RatingMatrix

        vals = split_small.given.values.copy()
        mask = split_small.given.mask.copy()
        rated = _np.nonzero(mask[0])[0]
        vals[0, rated] = _np.clip(6.0 - vals[0, rated], 1, 5)  # invert opinions
        altered = RatingMatrix(vals, mask)
        p2 = m.predict(altered, 0, 5)
        assert p1 != p2

    def test_gis_swap_with_kernel_rebuild_matches_a_fit(self, split_small, monkeypatch):
        """Swapping ``model.gis`` then calling build_online_kernel()
        serves the new GIS exactly as a model fitted with it does (the
        GIS ablation benchmarks rely on this).  Clearing the per-user
        cache alone would keep the old GIS's neighbour cache."""
        from repro.core import model as model_module
        from repro.core.gis import build_gis

        users, items, _ = split_small.targets_arrays()
        other_gis = build_gis(split_small.train, centering="corated_mean")
        geometry = dict(n_clusters=8, top_m_items=30, top_k_users=10)
        monkeypatch.setattr(model_module, "build_gis", lambda train, **kw: other_gis)
        fitted_with_other = CFSF(**geometry).fit(split_small.train)
        monkeypatch.undo()
        expected = fitted_with_other.predict_many(split_small.given, users, items)

        model = CFSF(**geometry).fit(split_small.train)
        before = model.predict_many(split_small.given, users, items)
        assert not np.array_equal(before, expected)  # the swap is visible
        model.gis = other_gis
        model.build_online_kernel()
        got = model.predict_many(split_small.given, users, items)
        np.testing.assert_array_equal(got, expected)


class TestParameterEffects:
    def test_lambda_extremes_differ(self, split_small):
        users, items, _ = split_small.targets_arrays()
        m = CFSF(n_clusters=8, top_m_items=30, top_k_users=10)
        m.fit(split_small.train)
        m.config = m.config.with_(lam=0.0, delta=0.0)
        sir_only = m.predict_many(split_small.given, users, items)
        m.config = m.config.with_(lam=1.0, delta=0.0)
        sur_only = m.predict_many(split_small.given, users, items)
        assert not np.allclose(sir_only, sur_only)

    def test_adjust_biases_changes_predictions(self, split_small):
        users, items, _ = split_small.targets_arrays()
        kw = dict(n_clusters=8, top_m_items=30, top_k_users=10)
        a = CFSF(**kw, adjust_biases=True).fit(split_small.train)
        b = CFSF(**kw, adjust_biases=False).fit(split_small.train)
        pa = a.predict_many(split_small.given, users, items)
        pb = b.predict_many(split_small.given, users, items)
        assert not np.allclose(pa, pb)

    def test_online_complexity_independent_of_train_size(self, ml_small):
        """The paper's O(M*K) claim: once fitted, per-request cost must
        not scale with the training population.  We assert the weaker,
        machine-robust form: doubling the training users changes online
        time by far less than it changes offline size."""
        from repro.data import make_split
        import time

        sp_small = make_split(ml_small, n_train_users=40, given_n=8, n_test_users=30)
        sp_big = make_split(ml_small, n_train_users=80, given_n=8, n_test_users=30)
        kw = dict(n_clusters=8, top_m_items=30, top_k_users=10)
        users, items, _ = sp_small.targets_arrays()

        def online_time(sp):
            m = CFSF(**kw).fit(sp.train)
            m.predict_many(sp.given, users[:50], items[:50])  # warm
            t0 = time.perf_counter()
            for _ in range(3):
                m._cache.clear()
                m.predict_many(sp.given, users, items)
            return time.perf_counter() - t0

        t_small = online_time(sp_small)
        t_big = online_time(sp_big)
        assert t_big < t_small * 3.0  # far from linear doubling would be 2x+
