"""Tests for model persistence and the top-N recommendation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CFSF, load_model, recommend_top_n, save_model
from repro.data import RatingMatrix
from repro.core.persistence import FORMAT_VERSION


class TestPersistence:
    def test_roundtrip_predictions_identical(self, cfsf_small, split_small, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(cfsf_small, path)
        restored = load_model(path)
        users, items, _ = split_small.targets_arrays()
        a = cfsf_small.predict_many(split_small.given, users[:120], items[:120])
        b = restored.predict_many(split_small.given, users[:120], items[:120])
        assert np.array_equal(a, b)

    def test_roundtrip_config(self, split_small, tmp_path):
        model = CFSF(n_clusters=8, top_m_items=30, top_k_users=10, lam=0.65)
        model.fit(split_small.train)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        restored = load_model(path)
        assert restored.config == model.config

    def test_roundtrip_offline_summary(self, cfsf_small, split_small, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(cfsf_small, path)
        restored = load_model(path)
        a = cfsf_small.offline_summary()
        b = restored.offline_summary()
        for key in ("n_users", "n_items", "n_clusters", "gis_sparsity", "smoothed_fraction"):
            assert a[key] == b[key], key

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(CFSF(), str(tmp_path / "x.npz"))

    def test_bad_version_rejected(self, cfsf_small, tmp_path):
        import json

        path = str(tmp_path / "model.npz")
        save_model(cfsf_small, path)
        with np.load(path, allow_pickle=False) as archive:
            data = {k: archive[k] for k in archive.files}
        meta = json.loads(str(data["meta"]))
        meta["format_version"] = FORMAT_VERSION + 1
        data["meta"] = json.dumps(meta)
        bad = str(tmp_path / "bad.npz")
        np.savez_compressed(bad, **data)
        with pytest.raises(ValueError, match="version"):
            load_model(bad)

    def test_missing_array_rejected(self, cfsf_small, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(cfsf_small, path)
        with np.load(path, allow_pickle=False) as archive:
            data = {k: archive[k] for k in archive.files}
        del data["gis_sim"]
        bad = str(tmp_path / "bad.npz")
        np.savez_compressed(bad, **data)
        with pytest.raises(ValueError, match="missing"):
            load_model(bad)

    def test_no_pickle_in_snapshot(self, cfsf_small, tmp_path):
        """The snapshot must load with allow_pickle=False (safety)."""
        path = str(tmp_path / "model.npz")
        save_model(cfsf_small, path)
        with np.load(path, allow_pickle=False) as archive:
            assert "meta" in archive.files


class TestRecommendTopN:
    def test_list_length_and_order(self, cfsf_small, split_small):
        rec = recommend_top_n(cfsf_small, split_small.given, 0, n=10)
        assert len(rec) == 10
        assert (np.diff(rec.scores) <= 1e-12).all()

    def test_excludes_given_items(self, cfsf_small, split_small):
        rec = recommend_top_n(cfsf_small, split_small.given, 0, n=20)
        rated = np.nonzero(split_small.given.mask[0])[0]
        assert not np.isin(rec.items, rated).any()

    def test_include_given_when_asked(self, cfsf_small, split_small):
        rec = recommend_top_n(
            cfsf_small, split_small.given, 0, n=split_small.given.n_items,
            exclude_given=False,
        )
        assert len(rec) == split_small.given.n_items

    def test_candidate_restriction(self, cfsf_small, split_small):
        candidates = np.arange(25)
        rec = recommend_top_n(
            cfsf_small, split_small.given, 1, n=10, candidate_items=candidates
        )
        assert np.isin(rec.items, candidates).all()

    def test_candidate_out_of_range(self, cfsf_small, split_small):
        with pytest.raises(ValueError):
            recommend_top_n(
                cfsf_small, split_small.given, 0, n=5,
                candidate_items=np.array([99999]),
            )

    def test_user_out_of_range(self, cfsf_small, split_small):
        with pytest.raises(ValueError):
            recommend_top_n(cfsf_small, split_small.given, 999, n=5)

    def test_as_pairs(self, cfsf_small, split_small):
        rec = recommend_top_n(cfsf_small, split_small.given, 0, n=3)
        pairs = rec.as_pairs()
        assert len(pairs) == 3 and isinstance(pairs[0][0], int)

    def test_ties_rank_lowest_index_first(self):
        """A cut through tied scores keeps the lowest-indexed items."""

        class TiedScores:
            def predict_many(self, given, users, items):
                return np.where(items % 2 == 0, 5.0, 4.0)

        given = RatingMatrix(np.zeros((1, 1000)))
        rec = recommend_top_n(TiedScores(), given, 0, n=10)
        assert rec.items.tolist() == list(range(0, 20, 2))
        assert (rec.scores == 5.0).all()

    def test_ranking_quality_beats_random(self, cfsf_small, split_small):
        """CFSF's top-N must hit held-out 'liked' items (rating >= 4)
        more often than a random ranking — the ranking analogue of
        beating the mean predictor."""
        from repro.eval import precision_recall_at_n

        rng = np.random.default_rng(0)
        n = 20
        prec_model, prec_random = [], []
        for user in range(split_small.given.n_users):
            heldout = np.nonzero(split_small.heldout.mask[user])[0]
            liked = heldout[split_small.heldout.values[user, heldout] >= 4.0]
            if liked.size < 3:
                continue
            rec = recommend_top_n(
                cfsf_small, split_small.given, user, n=n, candidate_items=heldout
            )
            p, _ = precision_recall_at_n(liked, rec.items, n)
            prec_model.append(p)
            p_rand, _ = precision_recall_at_n(
                liked, rng.permutation(heldout), n
            )
            prec_random.append(p_rand)
        assert np.mean(prec_model) > np.mean(prec_random)
