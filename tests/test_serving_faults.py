"""Tests for the fault-injection harness and snapshot durability.

Two halves:

* the injectors themselves (:mod:`repro.serving.faults`) — they must
  be deterministic, or a failing robustness test would not reproduce;
* the persistence guarantees they attack — atomic saves (no torn
  writes, no stray tmp files) and checksum-verified loads
  (:func:`repro.core.persistence.load_model` rejects damage with a
  typed :class:`~repro.serving.errors.SnapshotCorruptError`).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.baselines import MeanPredictor
from repro.core import CFSF, load_model, save_model
from repro.data import RatingMatrix
from repro.serving import SnapshotCorruptError, SnapshotVersionError
from repro.serving.faults import (
    FlakyRecommender,
    ManualClock,
    SlowRecommender,
    corrupt_snapshot,
    poison_given,
    truncate_snapshot,
)

pytestmark = pytest.mark.faults


@pytest.fixture()
def snap(cfsf_small, tmp_path) -> str:
    path = str(tmp_path / "model.npz")
    save_model(cfsf_small, path)
    return path


def _rewrite_snapshot(src: str, dst: str, mutate) -> None:
    """Re-pack a snapshot with its members altered by *mutate*."""
    with np.load(src, allow_pickle=False) as archive:
        data = {name: archive[name] for name in archive.files}
    mutate(data)
    with open(dst, "wb") as fh:
        np.savez(fh, **data)


class TestAtomicSave:
    def test_no_tmp_sibling_left_behind(self, snap):
        assert os.path.exists(snap)
        assert not os.path.exists(snap + ".tmp")
        assert os.listdir(os.path.dirname(snap)) == [os.path.basename(snap)]

    def test_snapshot_carries_checksum_member(self, snap):
        with np.load(snap, allow_pickle=False) as archive:
            assert "checksum" in archive.files
            assert len(str(archive["checksum"])) == 64  # SHA-256 hex

    def test_failed_save_keeps_previous_snapshot(
        self, cfsf_small, snap, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            save_model(cfsf_small, snap)
        # The tmp file was cleaned up and the published snapshot is the
        # previous, intact one.
        assert not os.path.exists(snap + ".tmp")
        model = load_model(snap)
        assert model.config == cfsf_small.config

    def test_failed_first_save_publishes_nothing(
        self, cfsf_small, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "new.npz")

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(RuntimeError):
            save_model(cfsf_small, path)
        assert os.listdir(tmp_path) == []

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(CFSF(), str(tmp_path / "m.npz"))


class TestCorruptionInjectors:
    def test_corrupt_changes_bytes_in_place(self, snap):
        before = open(snap, "rb").read()
        corrupt_snapshot(snap, seed=1)
        after = open(snap, "rb").read()
        assert len(after) == len(before)
        assert after != before

    def test_corruption_is_deterministic(self, snap, tmp_path):
        twin = str(tmp_path / "twin.npz")
        shutil.copyfile(snap, twin)
        corrupt_snapshot(snap, seed=3)
        corrupt_snapshot(twin, seed=3)
        assert open(snap, "rb").read() == open(twin, "rb").read()

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_snapshot(str(empty))

    def test_truncate_shrinks_file(self, snap):
        size = os.path.getsize(snap)
        truncate_snapshot(snap, keep_fraction=0.25)
        assert os.path.getsize(snap) == int(size * 0.25)

    def test_truncate_rejects_bad_fraction(self, snap):
        with pytest.raises(ValueError):
            truncate_snapshot(snap, keep_fraction=1.0)


class TestCorruptionDetection:
    def test_flipped_bytes_raise_typed_error(self, snap):
        corrupt_snapshot(snap)
        with pytest.raises(SnapshotCorruptError) as excinfo:
            load_model(snap)
        assert excinfo.value.path == snap
        assert isinstance(excinfo.value, ValueError)  # legacy callers

    def test_truncation_raises_typed_error(self, snap):
        truncate_snapshot(snap)
        with pytest.raises(SnapshotCorruptError):
            load_model(snap)

    def test_stale_checksum_reports_both_digests(self, snap, tmp_path):
        """Tampered content under a valid zip: only the digest catches it."""
        tampered = str(tmp_path / "tampered.npz")

        def bump_gis(data):
            data["gis_sim"] = data["gis_sim"] + 0.25

        _rewrite_snapshot(snap, tampered, bump_gis)
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch") as excinfo:
            load_model(tampered)
        err = excinfo.value
        assert err.expected_checksum is not None
        assert err.actual_checksum is not None
        assert err.expected_checksum != err.actual_checksum
        assert err.expected_checksum[:12] in str(err)

    def test_missing_array_detected(self, snap, tmp_path):
        broken = str(tmp_path / "broken.npz")
        _rewrite_snapshot(snap, broken, lambda d: d.pop("gis_sim"))
        with pytest.raises(SnapshotCorruptError, match="missing"):
            load_model(broken)

    def test_unknown_version_detected(self, snap, tmp_path):
        future = str(tmp_path / "future.npz")

        def bump_version(data):
            meta = json.loads(str(data["meta"]))
            meta["format_version"] = 99
            data["meta"] = json.dumps(meta)

        _rewrite_snapshot(snap, future, bump_version)
        with pytest.raises(SnapshotVersionError, match="version"):
            load_model(future)

    def test_pre_checksum_snapshot_still_loads(
        self, cfsf_small, split_small, snap, tmp_path
    ):
        """Back-compat: archives written before the digest existed load."""
        legacy = str(tmp_path / "legacy.npz")
        _rewrite_snapshot(snap, legacy, lambda d: d.pop("checksum"))
        model = load_model(legacy)
        users, items, _ = split_small.targets_arrays()
        assert np.allclose(
            model.predict_many(split_small.given, users[:20], items[:20]),
            cfsf_small.predict_many(split_small.given, users[:20], items[:20]),
        )

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(str(tmp_path / "never-saved.npz"))


class TestPoisonGiven:
    def test_injects_unvalidated_values(self, split_small):
        poisoned = poison_given(
            split_small.given, [(0, 0, float("nan")), (1, 1, 99.0)]
        )
        assert isinstance(poisoned, RatingMatrix)
        assert np.isnan(poisoned.values[0, 0]) and poisoned.mask[0, 0]
        assert poisoned.values[1, 1] == 99.0 and poisoned.mask[1, 1]

    def test_inherits_no_row_fact(self, split_small):
        given = split_small.given
        lo, hi = given.rating_scale
        key = given.row_key(0)
        assert not given.bad_rows(lo, hi).any()
        poisoned = poison_given(given, [(0, 0, 99.0)])
        assert np.flatnonzero(poisoned.bad_rows(lo, hi)).tolist() == [0]
        assert poisoned.row_key(0) != key

    def test_original_untouched(self, split_small):
        given = split_small.given
        values_before = given.values.copy()
        mask_before = given.mask.copy()
        poison_given(given, [(0, 0, float("nan"))])
        assert np.array_equal(given.values, values_before)
        assert np.array_equal(given.mask, mask_before)

    def test_result_is_frozen(self, split_small):
        poisoned = poison_given(split_small.given, [(0, 0, float("inf"))])
        with pytest.raises(ValueError):
            poisoned.values[0, 0] = 3.0

    def test_row_key_tracks_the_poisoned_row(self, split_small):
        given = split_small.given
        before = [given.row_key(u) for u in range(2)]
        poisoned = poison_given(given, [(0, 0, float("nan"))])
        assert poisoned.row_key(0) != before[0]
        assert poisoned.row_key(1) == before[1]

    def test_constructor_would_have_rejected_it(self, split_small):
        poisoned = poison_given(split_small.given, [(0, 0, float("nan"))])
        with pytest.raises(ValueError):
            RatingMatrix(poisoned.values, poisoned.mask)


class TestRecommenderWrappers:
    @pytest.fixture()
    def mean_model(self, split_small):
        return MeanPredictor().fit(split_small.train)

    def test_flaky_fails_then_heals(self, mean_model, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:5], items[:5]
        flaky = FlakyRecommender(mean_model, fail_times=2)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="injected"):
                flaky.predict_many(split_small.given, users, items)
        out = flaky.predict_many(split_small.given, users, items)
        assert np.allclose(
            out, mean_model.predict_many(split_small.given, users, items)
        )
        assert flaky.calls == 3 and flaky.failures_injected == 2

    def test_flaky_forever(self, mean_model, split_small):
        users, items, _ = split_small.targets_arrays()
        flaky = FlakyRecommender(mean_model, fail_times=None)
        for _ in range(5):
            with pytest.raises(RuntimeError):
                flaky.predict_many(split_small.given, users[:3], items[:3])
        assert flaky.failures_injected == 5

    def test_flaky_custom_exception(self, mean_model, split_small):
        users, items, _ = split_small.targets_arrays()
        flaky = FlakyRecommender(
            mean_model, fail_times=1, exc_factory=lambda: OSError("io blip")
        )
        with pytest.raises(OSError, match="io blip"):
            flaky.predict_many(split_small.given, users[:3], items[:3])

    def test_wrappers_proxy_attributes(self, cfsf_small):
        flaky = FlakyRecommender(cfsf_small)
        assert flaky.name == cfsf_small.name
        assert flaky.gis is cfsf_small.gis
        assert flaky._train is cfsf_small._train

    def test_slow_sleeps_then_delegates(self, mean_model, split_small):
        users, items, _ = split_small.targets_arrays()
        users, items = users[:5], items[:5]
        clock = ManualClock()
        slow = SlowRecommender(mean_model, delay=0.5, sleep=clock.sleep)
        out = slow.predict_many(split_small.given, users, items)
        assert clock.now == pytest.approx(0.5)
        assert clock.sleeps == [pytest.approx(0.5)]
        assert np.allclose(
            out, mean_model.predict_many(split_small.given, users, items)
        )


class TestManualClock:
    def test_advances(self):
        clock = ManualClock(start=10.0)
        assert clock() == 10.0
        clock.advance(2.5)
        assert clock() == 12.5

    def test_time_only_moves_forward(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_sleep_records_and_advances(self):
        clock = ManualClock()
        clock.sleep(0.3)
        clock.sleep(0.6)
        assert clock.sleeps == [pytest.approx(0.3), pytest.approx(0.6)]
        assert clock() == pytest.approx(0.9)
