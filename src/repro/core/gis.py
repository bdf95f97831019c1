"""GIS — the Global Item Similarity matrix (Section IV-B, Eq. 5).

The first offline step of CFSF computes the PCC between every pair of
items over the whole training matrix, optionally filters entries below
a threshold ("the size of GIS will be greatly reduced"), and *sorts
each item's neighbours in descending order* so that the online phase
can "directly pick up the top M similar items" (Section IV-E.1) in
O(M) instead of O(Q log Q) per request.  Only the top of each row is
ever read, so only that is sorted: the order is selected to the width
asked for (``M`` at fit), and widened from ``sim`` if a caller asks
for more.

The class also carries the sufficient statistics needed by the
incremental-maintenance extension (:mod:`repro.core.incremental`) to
fold in new ratings without a full recompute — the paper's Section VI
names "how it can keep GIS up-to-date" as future work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.obs import span
from repro.similarity import Centering, apply_threshold, item_pcc
from repro.utils.validation import check_positive_int

__all__ = ["GlobalItemSimilarity", "NeighborCache", "build_gis", "build_neighbor_cache"]


@dataclass
class NeighborCache:
    """Precomputed per-item top-M neighbourhoods (the online hot path).

    ``top_m`` on the bare GIS slices its neighbour order and gathers
    similarities from the dense ``(Q, Q)`` similarity matrix on every
    request.  This cache freezes the result of that selection at
    build time into compact ``int32``/``float32`` arrays so the online
    phase — and the snapshot a serving fleet ships around — touches
    ``O(Q·M)`` memory instead of ``O(Q²)``.

    Attributes
    ----------
    indices:
        ``(Q, M)`` ``int32`` neighbour item ids per row, descending
        similarity, zero-padded past ``counts[item]``.
    sims32:
        ``(Q, M)`` ``float32`` similarities aligned with ``indices``,
        zero-padded.  These rounded values are the *canonical* ones:
        every online path reads the same float64 upcast (``sims``), so
        scalar and batched predictions agree bit-for-bit and a model
        restored from a snapshot serves exactly what the builder did.
    counts:
        ``(Q,)`` ``int32`` number of valid (positive-similarity)
        neighbours per item.
    m:
        The configured neighbourhood size ``M``.
    """

    indices: np.ndarray = field(repr=False)
    sims32: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    m: int

    def __post_init__(self) -> None:
        # Derived float64 views used by the fusion kernels; computed once
        # here so save/load round-trips stay deterministic.
        self.sims = self.sims32.astype(np.float64)
        self.sims_sq = self.sims * self.sims

    @property
    def n_items(self) -> int:
        """Number of items ``Q``."""
        return self.indices.shape[0]

    def top_m(self, item: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached equivalent of :meth:`GlobalItemSimilarity.top_m`.

        Valid for any ``m <= self.m`` (rows are sorted descending, so a
        shorter prefix is exactly the smaller selection).
        """
        if m > self.m:
            raise ValueError(f"cache holds top-{self.m} neighbours, asked for {m}")
        count = min(int(self.counts[item]), m)
        return (
            self.indices[item, :count].astype(np.intp),
            self.sims[item, :count],
        )

    def narrowed(self, m: int) -> "NeighborCache":
        """A width-``m`` cache sharing this one's values (``m <= self.m``).

        Rows are descending, so the prefix slice *is* the smaller
        selection — used when a kernel needs exactly ``m`` columns but
        a wider cache is already attached.
        """
        if m == self.m:
            return self
        if m > self.m:
            raise ValueError(f"cache holds top-{self.m} neighbours, asked for {m}")
        return NeighborCache(
            indices=np.ascontiguousarray(self.indices[:, :m]),
            sims32=np.ascontiguousarray(self.sims32[:, :m]),
            counts=np.minimum(self.counts, np.int32(m)),
            m=int(m),
        )

    def memory_bytes(self) -> int:
        """Resident size of the persisted arrays (excludes f64 upcasts)."""
        return int(self.indices.nbytes + self.sims32.nbytes + self.counts.nbytes)


def build_neighbor_cache(gis: "GlobalItemSimilarity", m: int) -> NeighborCache:
    """Materialise every item's top-``m`` positive neighbours.

    The GIS order is sorted descending, so the positive entries form a
    prefix of each row; the cache is a slice + gather, padded with
    zeros (a zero similarity carries zero fusion weight, which is
    arithmetically identical to exclusion).
    """
    check_positive_int(m, "m")
    m_eff = min(m, gis.n_items - 1)
    indices = gis.order(m)[:, :m_eff].astype(np.int32)
    if m_eff < m:  # tiny catalogues: pad out to the requested width
        pad = np.zeros((gis.n_items, m - m_eff), dtype=np.int32)
        indices = np.concatenate([indices, pad], axis=1)
    sims = np.take_along_axis(gis.sim, indices.astype(np.intp), axis=1)
    if m_eff < m:
        sims[:, m_eff:] = 0.0
    sims32 = np.maximum(sims, 0.0).astype(np.float32)
    valid = sims32 > 0.0
    counts = valid.sum(axis=1, dtype=np.int32)
    sims32[~valid] = 0.0
    indices = np.where(valid, indices, 0).astype(np.int32)
    return NeighborCache(indices=indices, sims32=sims32, counts=counts, m=int(m))


@dataclass
class GlobalItemSimilarity:
    """The GIS: item–item similarities plus descending neighbour lists.

    Attributes
    ----------
    sim:
        ``(Q, Q)`` thresholded similarity matrix (diagonal = 1).
    neighbours:
        ``(Q, w)`` item indices, each row the ``w`` items most similar
        to the row item (self excluded), by descending similarity; ties
        keep ascending item order, so a row is the prefix of a stable
        descending argsort.  ``w`` is the widest order asked for so far
        (see :meth:`order`), at most ``Q - 1``; ``top_m`` slices it, so
        per-request selection is O(M).
    threshold:
        The |similarity| filter that was applied (0.0 = none).
    centering:
        PCC centering convention used to build ``sim``.
    """

    sim: np.ndarray = field(repr=False)
    neighbours: np.ndarray = field(repr=False)
    threshold: float
    centering: Centering
    #: Optional precomputed top-M cache (see :class:`NeighborCache`).
    #: When attached, ``top_m`` serves eligible requests from it so the
    #: scalar and batched online paths read identical similarity values.
    cache: NeighborCache | None = field(default=None, repr=False, compare=False)

    @property
    def n_items(self) -> int:
        """Number of items ``Q``."""
        return self.sim.shape[0]

    def order(self, m: int) -> np.ndarray:
        """The neighbour order, at least ``min(m, Q - 1)`` wide.

        Selects a wider order from ``sim`` when the held one is too
        narrow; every prefix of it is the same whatever the width.
        """
        width = min(m, self.n_items - 1)
        if self.neighbours.shape[1] < width:
            with span("gis.order", width=width):
                self.neighbours = _top_m_order(self.sim, width)
        return self.neighbours

    def attach_cache(self, m: int) -> NeighborCache:
        """Build (or reuse) a :class:`NeighborCache` of width ``m``."""
        if self.cache is None or self.cache.m < m:
            self.cache = build_neighbor_cache(self, m)
        return self.cache

    def top_m(self, item: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The paper's "top M similar items" for an active item.

        Returns ``(indices, similarities)`` of the ``m`` most similar
        items, descending, excluding the item itself and excluding
        neighbours whose (thresholded) similarity is not positive —
        a non-positively-correlated "similar item" would contribute
        noise with a negative or zero fusion weight.

        When a :class:`NeighborCache` is attached and covers ``m``, the
        selection is a cached array slice instead of a gather over the
        full similarity row.

        Notes
        -----
        The slice may be shorter than ``m`` when fewer positive
        neighbours exist (heavy thresholds, cold items).
        """
        check_positive_int(m, "m")
        if not 0 <= item < self.n_items:
            raise ValueError(f"item {item} out of range [0, {self.n_items})")
        if self.cache is not None and m <= self.cache.m:
            return self.cache.top_m(item, m)
        cand = self.order(m)[item, :m]
        sims = self.sim[item, cand]
        keep = sims > 0.0
        return cand[keep], sims[keep]

    def sparsity(self) -> float:
        """Fraction of off-diagonal entries zeroed by the threshold."""
        Q = self.n_items
        off = Q * (Q - 1)
        if off == 0:
            return 0.0
        nz = np.count_nonzero(self.sim) - Q  # minus the unit diagonal
        return 1.0 - nz / off

    def memory_bytes(self) -> int:
        """Approximate resident size: ``sim`` plus the order held so far.

        The order is ``(Q, M)`` after a fit, not ``(Q, Q-1)``; the
        attached cache is not counted (see
        :meth:`NeighborCache.memory_bytes`).
        """
        return int(self.sim.nbytes + self.neighbours.nbytes)


def _top_m_order(sim: np.ndarray, m: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Each row's ``m`` most similar other columns, by descending value.

    Equal to ``np.argsort(-masked, axis=1, kind="stable")[:, :m]`` with
    ``masked`` the ``(Q, Q)`` matrix *sim* with ``-inf`` on its diagonal,
    for ``m <= Q - 1``, without sorting whole rows.  A row keeps every
    entry at or above its ``m``-th largest value; when ties at that value
    make more than ``m``, the tied entries of lowest index fill the row,
    as a stable sort would.  The kept ``m`` entries, in index order, are
    then stable-sorted, which keeps ties in index order.  *rows*, when
    given, limits the selection to those rows of *sim*; each still
    excludes its own column.
    """
    full = rows is None
    if full:
        rows = np.arange(sim.shape[0])
    n = rows.size
    if m == 0:
        return np.empty((n, 0), dtype=np.intp)
    neg = np.negative(sim if full else sim[rows])
    neg[np.arange(n), rows] = np.inf
    cut = np.partition(neg, m - 1, axis=1)[:, m - 1 : m]
    keep = neg <= cut
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > m)
    if tied.size:
        above = neg[tied] < cut[tied]
        at = keep[tied] & ~above
        room = m - np.count_nonzero(above, axis=1)
        keep[tied] = above | (at & (np.cumsum(at, axis=1) <= room[:, None]))
    cols = np.nonzero(keep)[1].reshape(n, m)
    ranks = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, ranks, axis=1)


def build_gis(
    train: RatingMatrix,
    *,
    threshold: float = 0.0,
    centering: Centering = "global_mean",
    min_overlap: int = 2,
) -> GlobalItemSimilarity:
    """Offline step 1: compute and threshold the GIS.

    The neighbour order starts empty: :meth:`GlobalItemSimilarity.order`
    selects it to the width first asked for (``M``, when the fit
    attaches the neighbour cache), so no row is sorted past what the
    online phase reads.

    Parameters
    ----------
    train:
        Training matrix.
    threshold:
        Zero out |similarities| below this (Section IV-B's filter).
    centering, min_overlap:
        Threaded through to :func:`repro.similarity.item_pcc`.

    Examples
    --------
    >>> from repro.data import make_movielens_like
    >>> gis = build_gis(make_movielens_like(seed=0).ratings)
    >>> idx, sims = gis.top_m(0, 95)
    >>> bool((sims[:-1] >= sims[1:]).all())   # descending
    True
    """
    with span("gis.build", n_items=train.n_items, threshold=threshold) as sp:
        sim = item_pcc(train.values, train.mask, centering=centering, min_overlap=min_overlap)
        sim = apply_threshold(sim, threshold)
        gis = GlobalItemSimilarity(
            sim=sim,
            neighbours=np.empty((sim.shape[0], 0), dtype=np.intp),
            threshold=float(threshold),
            centering=centering,
        )
        sp.set(sparsity=gis.sparsity())
        return gis
