"""Spawn-mode parallel predictor: the start method that pickles.

``fork`` is the fast path on Linux; ``spawn`` is what macOS/Windows
use, and it requires every piece of the fitted model to survive a
pickle round-trip.  One (slower) test pins that contract so a future
unpicklable attribute on CFSF fails loudly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.parallel import ParallelPredictor


class TestSpawnMode:
    def test_model_is_picklable(self, cfsf_small):
        blob = pickle.dumps(cfsf_small)
        clone = pickle.loads(blob)
        assert clone.config == cfsf_small.config
        assert np.array_equal(clone.gis.sim, cfsf_small.gis.sim)

    @pytest.mark.slow
    def test_spawn_pool_matches_serial(self, cfsf_small, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:40], items[:40]
        serial = cfsf_small.predict_many(split_small.given, users, items)
        with ParallelPredictor(cfsf_small, n_workers=2, start_method="spawn") as pp:
            par = pp.predict_many(split_small.given, users, items)
        assert np.array_equal(serial, par)
