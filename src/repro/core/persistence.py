"""Saving and loading fitted CFSF models.

The offline phase is the expensive part of CFSF by design; a serving
deployment fits once in the backend and ships the artefacts to request
handlers.  This module serialises the entire fitted state — the
training matrix, the GIS (similarities + the top-M neighbour order), the
clustering, the smoothing output, and the iCluster index — into a
single compressed ``.npz`` alongside the JSON-encoded configuration,
and restores a bit-identical model.

The format is plain NumPy: no pickle of code objects, so snapshots are
loadable across library versions as long as the array schema (listed
in :data:`_ARRAY_FIELDS`) is intact, and safe to share (nothing
executes on load).

Durability guarantees (what a serving fleet relies on):

* **Atomic writes.**  :func:`save_model` writes to a deterministic
  ``<path>.tmp`` sibling through an open file handle (so NumPy cannot
  append a surprise ``.npz`` suffix), fsyncs it, and publishes with
  ``os.replace`` — a crashed save never leaves a half-written snapshot
  at the published path, and the tmp file is removed on failure.
* **Corruption detection.**  Every snapshot carries a SHA-256 digest
  of its logical content (config + every array's dtype/shape/bytes).
  :func:`load_model` verifies it and raises
  :class:`~repro.serving.errors.SnapshotCorruptError` on mismatch — as
  it does for unreadable archives and missing arrays — so a damaged
  artefact is rejected *before* it can serve garbage.  The serving
  layer's reload path catches this and keeps the last-known-good model
  (:meth:`repro.serving.PredictionService.reload`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import zipfile
import zlib

import numpy as np

from repro.core.clustering import UserClusters
from repro.core.config import CFSFConfig
from repro.core.gis import GlobalItemSimilarity, NeighborCache
from repro.core.icluster import IClusterIndex
from repro.core.model import CFSF
from repro.core.smoothing import SmoothedRatings
from repro.data.matrix import RatingMatrix
from repro.serving.errors import SnapshotCorruptError, SnapshotVersionError

__all__ = ["save_model", "load_model"]

#: Schema version written into every snapshot.  Version 2 added the
#: precomputed top-M neighbour cache (``nbr_*`` arrays); version-1
#: snapshots are still accepted — the cache is rebuilt from the GIS.
FORMAT_VERSION = 2

_SUPPORTED_VERSIONS = (1, 2)

_ARRAY_FIELDS = (
    "train_values",
    "train_mask",
    "gis_sim",
    "gis_neighbours",
    "cluster_labels",
    "cluster_centroids",
    "cluster_similarities",
    "smoothed_values",
    "smoothed_observed",
    "smoothed_deviations",
    "smoothed_counts",
    "smoothed_user_means",
    "icluster_affinity",
    "icluster_ranking",
)

#: Arrays added in format version 2 (the serialised neighbour cache).
_V2_ARRAY_FIELDS = (
    "nbr_indices",
    "nbr_sims",
    "nbr_counts",
)


def _array_fields(version: int) -> tuple[str, ...]:
    """The full array schema for a given format version."""
    return _ARRAY_FIELDS + _V2_ARRAY_FIELDS if version >= 2 else _ARRAY_FIELDS


def _content_digest(meta_json: str, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the snapshot's logical content.

    Hashing the decoded content (not the file bytes) keeps the digest
    stable across compression levels and lets it live inside the same
    archive it protects.
    """
    h = hashlib.sha256()
    h.update(meta_json.encode("utf-8"))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def save_model(model: CFSF, path: str) -> None:
    """Serialise a fitted CFSF to ``path`` (``.npz``, compressed).

    The write is atomic (tmp file + fsync + ``os.replace``): readers
    either see the previous snapshot or the complete new one, never a
    torn write.

    Raises
    ------
    ValueError
        If the model has not been fitted.
    """
    train = model._train
    if train is None or model.gis is None or model.smoothed is None:
        raise ValueError("cannot save an unfitted CFSF model")
    assert model.clusters is not None and model.icluster is not None
    # Ship the precomputed neighbour cache so the serving side starts
    # hot instead of re-deriving it from the O(Q²) similarity matrix.
    cache = model.gis.attach_cache(model.config.top_m_items)

    meta = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "rating_scale": list(train.rating_scale),
        "gis_threshold": model.gis.threshold,
        "gis_centering": model.gis.centering,
        "kmeans_n_iter": model.clusters.n_iter,
        "kmeans_converged": model.clusters.converged,
        "nbr_cache_m": cache.m,
    }
    arrays = {
        "train_values": train.values,
        "train_mask": train.mask,
        "gis_sim": model.gis.sim,
        "gis_neighbours": model.gis.neighbours,
        "cluster_labels": model.clusters.labels,
        "cluster_centroids": model.clusters.centroids,
        "cluster_similarities": model.clusters.similarities,
        "smoothed_values": model.smoothed.values,
        "smoothed_observed": model.smoothed.observed_mask,
        "smoothed_deviations": model.smoothed.deviations,
        "smoothed_counts": model.smoothed.deviation_counts,
        "smoothed_user_means": model.smoothed.user_means,
        "icluster_affinity": model.icluster.affinity,
        "icluster_ranking": model.icluster.ranking,
        "nbr_indices": cache.indices,
        "nbr_sims": cache.sims32,
        "nbr_counts": cache.counts,
    }
    meta_json = json.dumps(meta)
    checksum = _content_digest(meta_json, arrays)

    tmp = f"{path}.tmp"
    try:
        # Writing through an open handle pins the tmp name exactly
        # (np.savez_compressed appends ".npz" to bare *names* only) and
        # lets us fsync before publishing.
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, meta=meta_json, checksum=checksum, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    # Persist the rename itself (POSIX: directory metadata).
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_model(path: str) -> CFSF:
    """Restore a fitted CFSF from a :func:`save_model` snapshot.

    Raises
    ------
    FileNotFoundError
        If *path* does not exist (a missing snapshot is an operational
        condition, not corruption).
    repro.serving.errors.SnapshotCorruptError
        If the archive is unreadable, arrays are missing, or the
        stored checksum does not match the content.  (A ``ValueError``
        subclass, so pre-taxonomy callers keep working.)
    repro.serving.errors.SnapshotVersionError
        If the snapshot declares an unsupported format version.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            # Force-decompress every member inside the handler: zip CRC
            # and zlib stream errors surface here, not lazily later.
            data = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable archive ({exc})") from exc

    if "meta" not in data:
        raise SnapshotCorruptError(path, "archive has no 'meta' member")
    try:
        meta = json.loads(str(data["meta"]))
    except json.JSONDecodeError as exc:
        raise SnapshotCorruptError(path, f"meta is not valid JSON ({exc})") from exc

    version = meta.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise SnapshotVersionError(f"unsupported snapshot version {version!r}")
    fields = _array_fields(int(version))
    missing = [f for f in fields if f not in data]
    if missing:
        raise SnapshotCorruptError(path, f"snapshot is missing arrays: {missing}")

    if "checksum" in data:
        stored = str(data["checksum"])
        actual = _content_digest(str(data["meta"]), {f: data[f] for f in fields})
        if stored != actual:
            raise SnapshotCorruptError(
                path,
                "content checksum mismatch",
                expected_checksum=stored,
                actual_checksum=actual,
            )

    config = CFSFConfig(**meta["config"])
    model = CFSF(config)
    scale = tuple(meta["rating_scale"])
    train = RatingMatrix(data["train_values"], data["train_mask"], rating_scale=scale)
    model._train = train
    # A snapshot written before the order was cut to the cache width
    # holds the full (Q, Q-1) order; every prefix of it is the same
    # selection, so keep only the width the model serves.
    width = int(meta["nbr_cache_m"]) if int(version) >= 2 else config.top_m_items
    model.gis = GlobalItemSimilarity(
        sim=data["gis_sim"],
        neighbours=data["gis_neighbours"][:, :width].astype(np.intp),
        threshold=float(meta["gis_threshold"]),
        centering=meta["gis_centering"],
    )
    if int(version) >= 2:
        model.gis.cache = NeighborCache(
            indices=data["nbr_indices"].astype(np.int32),
            sims32=data["nbr_sims"].astype(np.float32),
            counts=data["nbr_counts"].astype(np.int32),
            m=int(meta["nbr_cache_m"]),
        )
    # v1 snapshots carry no cache; build_online_kernel below rebuilds it
    # from the GIS (identical values, just a slower load).
    model.clusters = UserClusters(
        labels=data["cluster_labels"].astype(np.intp),
        centroids=data["cluster_centroids"],
        similarities=data["cluster_similarities"],
        n_iter=int(meta["kmeans_n_iter"]),
        converged=bool(meta["kmeans_converged"]),
    )
    model.smoothed = SmoothedRatings(
        values=data["smoothed_values"],
        observed_mask=data["smoothed_observed"],
        deviations=data["smoothed_deviations"],
        deviation_counts=data["smoothed_counts"],
        user_means=data["smoothed_user_means"],
        labels=data["cluster_labels"].astype(np.intp),
    )
    members = tuple(
        np.nonzero(model.clusters.labels == c)[0].astype(np.intp)
        for c in range(model.clusters.n_clusters)
    )
    model.icluster = IClusterIndex(
        affinity=data["icluster_affinity"],
        ranking=data["icluster_ranking"].astype(np.intp),
        cluster_members=members,
    )
    model._item_means = train.item_means()
    model._global_mean = train.global_mean()
    # Restore the online hot path (fusion kernel + affinity factors) so
    # the first request after a (re)load serves at steady-state speed.
    model.build_online_kernel()
    return model
