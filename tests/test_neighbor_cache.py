"""Offline top-M neighbour cache: equivalence with the live GIS scan.

The cache freezes ``GlobalItemSimilarity.top_m`` into compact
``int32``/``float32`` arrays; these tests pin the contract that makes
it safe to serve from: the frozen selection must agree with the live
one for every item and every ``m <= M``, prefixes must behave like
smaller caches, and the persisted arrays must survive a snapshot
round-trip byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CFSF
from repro.core.gis import NeighborCache, build_gis
from repro.core.persistence import _content_digest, load_model, save_model
from repro.data import default_dataset, make_split


@pytest.fixture(scope="module")
def small_split():
    ratings = default_dataset(seed=3)
    return make_split(ratings, n_train_users=60, given_n=10, seed=3)


@pytest.fixture
def gis(small_split):
    # Function-scoped: attach_cache mutates the GIS, and the
    # equivalence test needs a cache-free starting point.
    return build_gis(small_split.train)


def test_cache_matches_live_topm_for_every_item(gis):
    m = 12
    # Capture the live (uncached) selection first: once a cache is
    # attached, GIS.top_m serves from it, which would make the
    # comparison a tautology.
    assert gis.cache is None
    live = [gis.top_m(item, m) for item in range(gis.n_items)]
    cache = gis.attach_cache(m)
    for item, (live_idx, live_sims) in enumerate(live):
        got_idx, got_sims = cache.top_m(item, m)
        np.testing.assert_array_equal(got_idx, live_idx)
        # cached similarities are float32-rounded canonically
        np.testing.assert_allclose(got_sims, live_sims, rtol=1.2e-7, atol=1.2e-7)


def test_cache_rows_sorted_padded_and_compact(gis):
    cache = gis.attach_cache(15)
    assert cache.indices.dtype == np.int32
    assert cache.sims32.dtype == np.float32
    assert cache.counts.dtype == np.int32
    for item in range(cache.n_items):
        c = int(cache.counts[item])
        row = cache.sims[item]
        assert (np.diff(row[:c]) <= 0).all(), "valid prefix must be descending"
        assert (row[:c] > 0).all(), "cached similarities are positive"
        assert (row[c:] == 0).all(), "rows are zero-padded past counts"


def test_narrowed_prefix_is_smaller_selection(gis):
    wide = gis.attach_cache(15)
    narrow = wide.narrowed(6)
    assert narrow.m == 6
    for item in range(narrow.n_items):
        w_idx, w_sims = wide.top_m(item, 6)
        n_idx, n_sims = narrow.top_m(item, 6)
        np.testing.assert_array_equal(n_idx, w_idx)
        np.testing.assert_array_equal(n_sims, w_sims)
    # same-width narrowing is the identity, oversize asks are rejected
    assert wide.narrowed(15) is wide
    with pytest.raises(ValueError):
        wide.narrowed(16)
    with pytest.raises(ValueError):
        narrow.top_m(0, 7)


def test_cache_survives_snapshot_roundtrip(tmp_path, small_split):
    model = CFSF().fit(small_split.train)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    loaded = load_model(path)

    orig = model.kernel.cache
    restored = loaded.kernel.cache
    assert isinstance(restored, NeighborCache)
    assert restored.m == orig.m
    np.testing.assert_array_equal(restored.indices, orig.indices)
    np.testing.assert_array_equal(restored.sims32, orig.sims32)
    np.testing.assert_array_equal(restored.counts, orig.counts)

    users, items, _ = small_split.targets_arrays()
    n = min(100, users.size)
    np.testing.assert_array_equal(
        loaded.predict_many(small_split.given, users[:n], items[:n]),
        model.predict_many(small_split.given, users[:n], items[:n]),
    )


def _full_order(sim: np.ndarray) -> np.ndarray:
    """The ``(Q, Q-1)`` order snapshots carried before it was cut to M."""
    masked = sim.copy()
    np.fill_diagonal(masked, -np.inf)
    return np.argsort(-masked, axis=1, kind="stable")[:, : sim.shape[0] - 1]


def test_snapshot_stores_the_order_at_cache_width(tmp_path, small_split):
    model = CFSF(top_m_items=20).fit(small_split.train)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        stored = archive["gis_neighbours"]
    assert stored.shape == (small_split.train.n_items, 20)
    np.testing.assert_array_equal(stored, _full_order(model.gis.sim)[:, :20])


def test_snapshot_with_a_full_order_loads_and_serves(tmp_path, small_split):
    model = CFSF(top_m_items=20).fit(small_split.train)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        data = {name: archive[name] for name in archive.files}
    data["gis_neighbours"] = _full_order(model.gis.sim)
    arrays = {k: v for k, v in data.items() if k not in ("meta", "checksum")}
    data["checksum"] = np.array(_content_digest(str(data["meta"]), arrays))
    old = str(tmp_path / "old.npz")
    np.savez_compressed(old, **data)

    loaded = load_model(old)
    Q = small_split.train.n_items
    assert loaded.gis.neighbours.shape == (Q, 20)
    np.testing.assert_array_equal(loaded.gis.neighbours, model.gis.neighbours)
    users, items, _ = small_split.targets_arrays()
    np.testing.assert_array_equal(
        loaded.predict_many(small_split.given, users, items),
        model.predict_many(small_split.given, users, items),
    )
    # Widening past the stored width selects from the GIS again.
    np.testing.assert_array_equal(loaded.gis.order(40), _full_order(model.gis.sim)[:, :40])
