"""Tests for the real-format MovieLens loaders (on temp files)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    load_ml1m,
    load_ml100k,
    load_ratings_file,
    paper_subsample,
)
from repro.data.movielens import LoadedRatings


def write_100k(path, rows):
    path.write_text("\n".join("\t".join(map(str, r)) for r in rows) + "\n")


def write_1m(path, rows):
    path.write_text("\n".join("::".join(map(str, r)) for r in rows) + "\n")


ROWS = [
    (1, 10, 5, 881250949),
    (1, 20, 3, 881250950),
    (2, 10, 4, 881250951),
    (3, 30, 2, 881250952),
]


class TestLoad100k:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "u.data"
        write_100k(f, ROWS)
        loaded = load_ml100k(str(f))
        assert loaded.ratings.shape == (3, 3)   # 3 users, 3 distinct items
        assert loaded.ratings.n_ratings == 4

    def test_id_mapping(self, tmp_path):
        f = tmp_path / "u.data"
        write_100k(f, ROWS)
        loaded = load_ml100k(str(f))
        assert loaded.user_ids.tolist() == [1, 2, 3]
        assert loaded.item_ids.tolist() == [10, 20, 30]
        u = list(loaded.user_ids).index(1)
        i = list(loaded.item_ids).index(10)
        assert loaded.ratings.values[u, i] == 5.0

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "u.data"
        f.write_text("1\t10\t5\t0\n\n2\t10\t4\t0\n")
        assert load_ml100k(str(f)).ratings.n_ratings == 2

    def test_malformed_line_raises_with_location(self, tmp_path):
        f = tmp_path / "u.data"
        f.write_text("1\t10\t5\t0\nbroken line\n")
        with pytest.raises(ValueError, match=":2"):
            load_ml100k(str(f))

    def test_empty_file_raises(self, tmp_path):
        f = tmp_path / "u.data"
        f.write_text("")
        with pytest.raises(ValueError, match="no ratings"):
            load_ml100k(str(f))


class TestLoad1mAndAutodetect:
    def test_1m_format(self, tmp_path):
        f = tmp_path / "ratings.dat"
        write_1m(f, ROWS)
        assert load_ml1m(str(f)).ratings.n_ratings == 4

    def test_autodetect_tab(self, tmp_path):
        f = tmp_path / "data.txt"
        write_100k(f, ROWS)
        assert load_ratings_file(str(f)).ratings.n_ratings == 4

    def test_autodetect_doublecolon(self, tmp_path):
        f = tmp_path / "data.txt"
        write_1m(f, ROWS)
        assert load_ratings_file(str(f)).ratings.n_ratings == 4

    def test_autodetect_unknown(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1,10,5\n")
        with pytest.raises(ValueError, match="unrecognised"):
            load_ratings_file(str(f))


class TestPaperSubsample:
    def _loaded(self, n_users=40, n_items=30, per_user=12, seed=0):
        rng = np.random.default_rng(seed)
        rows = []
        for u in range(1, n_users + 1):
            items = rng.choice(np.arange(1, n_items + 1), size=per_user, replace=False)
            for it in items:
                rows.append((u, int(it), int(rng.integers(1, 6)), 0))
        values = None
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".data", delete=False) as fh:
            fh.write("\n".join("\t".join(map(str, r)) for r in rows))
            name = fh.name
        try:
            return load_ml100k(name)
        finally:
            os.unlink(name)

    def test_subsample_shape(self):
        loaded = self._loaded()
        rm = paper_subsample(loaded, n_users=20, n_items=25, min_ratings=5, seed=0)
        assert rm.n_users == 20 and rm.n_items == 25

    def test_min_ratings_enforced(self):
        loaded = self._loaded()
        rm = paper_subsample(loaded, n_users=20, n_items=25, min_ratings=5, seed=0)
        assert rm.user_counts().min() >= 5

    def test_insufficient_users_raises(self):
        loaded = self._loaded()
        with pytest.raises(ValueError, match="only"):
            paper_subsample(loaded, n_users=40, n_items=25, min_ratings=13, seed=0)

    def test_keeps_most_rated_items(self):
        loaded = self._loaded()
        rm = paper_subsample(loaded, n_users=20, n_items=10, min_ratings=1, seed=0)
        # The 10 retained columns must be at least as rated (in the
        # original matrix) as any dropped column.
        orig_counts = loaded.ratings.item_counts()
        kept_min = np.sort(orig_counts)[-10:].min()
        assert rm.n_items == 10
        assert kept_min >= np.partition(orig_counts, -10)[-10]
