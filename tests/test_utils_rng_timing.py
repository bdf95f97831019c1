"""Unit tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator


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
