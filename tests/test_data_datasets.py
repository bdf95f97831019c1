"""Tests for the dataset registry (resolution + caching)."""

from __future__ import annotations

import pytest

from repro.data import clear_dataset_cache, dataset_source, default_dataset
from repro.data import SyntheticConfig


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


SMALL = SyntheticConfig(
    n_users=30, n_items=40, mean_ratings_per_user=12, min_ratings_per_user=5
)


class TestDefaultDataset:
    def test_synthetic_fallback_in_offline_env(self):
        rm = default_dataset(seed=0, config=SMALL, prefer_real=False)
        assert rm.shape == (30, 40)
        assert dataset_source(seed=0, config=SMALL, prefer_real=False) == "synthetic"

    def test_cached_identity(self):
        a = default_dataset(seed=0, config=SMALL, prefer_real=False)
        b = default_dataset(seed=0, config=SMALL, prefer_real=False)
        assert a is b

    def test_different_seed_different_cache_entry(self):
        a = default_dataset(seed=0, config=SMALL, prefer_real=False)
        b = default_dataset(seed=1, config=SMALL, prefer_real=False)
        assert a is not b

    def test_clear_cache(self):
        a = default_dataset(seed=0, config=SMALL, prefer_real=False)
        clear_dataset_cache()
        b = default_dataset(seed=0, config=SMALL, prefer_real=False)
        assert a is not b and a == b

    def test_source_before_data_consistent(self):
        src = dataset_source(seed=0, config=SMALL, prefer_real=False)
        rm = default_dataset(seed=0, config=SMALL, prefer_real=False)
        assert src == "synthetic" and rm.n_users == 30
