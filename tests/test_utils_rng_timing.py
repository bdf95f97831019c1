"""Unit tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_seeds


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_generator(42).integers(0, 100, 10)
        b = as_generator(42).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_numpy_int_accepted(self):
        assert isinstance(as_generator(np.int64(3)), np.random.Generator)

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            as_generator(True)
        with pytest.raises(TypeError):
            as_generator("7")


class TestSpawnSeeds:
    def test_count_and_determinism(self):
        assert spawn_seeds(0, 5) == spawn_seeds(0, 5)
        assert len(spawn_seeds(0, 5)) == 5

    def test_distinct(self):
        seeds = spawn_seeds(0, 16)
        assert len(set(seeds)) == 16

    def test_zero_ok_negative_raises(self):
        assert spawn_seeds(0, 0) == []
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_shared_generator_advances(self):
        g = np.random.default_rng(0)
        a = spawn_seeds(g, 3)
        b = spawn_seeds(g, 3)
        assert a != b

