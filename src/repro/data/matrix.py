"""The item–user rating matrix abstraction.

The paper represents user profiles as a ``Q x P`` item–user matrix
``X`` (Section III).  Internally we store the transposed, user-major
``P x Q`` layout (*users on rows, items on columns*) because every hot
kernel in the library — user clustering, per-user smoothing, the online
phase's per-user rating extraction — reads user rows, and row access is
contiguous for C-ordered arrays (see the cache-effects discussion in
the optimisation guide).  Item-major views are exposed where item–item
similarity needs them.

Missing ratings are explicit: a dense float64 ``values`` array paired
with a boolean ``mask`` (``True`` = rated).  At MovieLens scale
(500 x 1000, ~9.4% dense) the dense-plus-mask layout is both smaller
than pointer-chasing sparse formats would suggest and vastly faster for
the masked Gram products that all similarity kernels reduce to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.validation import check_mask, check_rating_matrix

__all__ = ["RatingMatrix", "DatasetStats"]


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics in the shape of the paper's Table I."""

    n_users: int
    n_items: int
    n_ratings: int
    avg_ratings_per_user: float
    density: float
    rating_scale: tuple[float, float]

    def as_rows(self) -> list[tuple[str, str]]:
        """Rows for a two-column report table (label, value)."""
        return [
            ("No. of Users", str(self.n_users)),
            ("No. of Items", str(self.n_items)),
            ("No. of ratings", str(self.n_ratings)),
            ("Average no. of rated items per user", f"{self.avg_ratings_per_user:.1f}"),
            ("Density of data", f"{self.density * 100:.2f}%"),
            ("Rating scale", f"{self.rating_scale[0]:g}..{self.rating_scale[1]:g}"),
        ]


class RatingMatrix:
    """Dense masked user-by-item rating matrix.

    Parameters
    ----------
    values:
        2-D array of ratings, users on rows, items on columns.  Entries
        where ``mask`` is ``False`` are ignored (any finite placeholder
        is accepted and normalised to 0.0 for predictable arithmetic).
    mask:
        Boolean array of the same shape; ``True`` marks an observed
        rating.  If omitted, nonzero entries of ``values`` are treated
        as observed — the common convention for 1..5 star data where 0
        means "unrated".
    rating_scale:
        Inclusive (low, high) bounds of valid ratings, used for
        clipping predictions; defaults to MovieLens' (1, 5).

    Notes
    -----
    Instances are *logically immutable*: all mutating operations return
    new instances (:meth:`with_ratings`, :meth:`subset_users`, ...).
    The arrays are flagged non-writeable to catch accidental in-place
    mutation by algorithm code, which would silently corrupt the caches
    layered above this class.
    """

    __slots__ = (
        "_values", "_mask", "rating_scale", "_hash", "_row_keys", "_bad_rows", "_checked"
    )

    def __init__(
        self,
        values: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        rating_scale: tuple[float, float] = (1.0, 5.0),
    ) -> None:
        values = check_rating_matrix(values)
        if mask is None:
            mask = values != 0.0
        mask = check_mask(mask, values.shape)
        lo, hi = float(rating_scale[0]), float(rating_scale[1])
        if not lo < hi:
            raise ValueError(f"rating_scale must satisfy low < high, got {rating_scale}")
        observed = values[mask]
        if observed.size and not np.isfinite(observed).all():
            raise ValueError("observed ratings must be finite")
        self._set_slots(np.where(mask, values, 0.0), mask.copy(), (lo, hi), checked=True)

    def _set_slots(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        rating_scale: tuple[float, float],
        *,
        checked: bool,
        row_keys: dict[int, bytes] | None = None,
        bad_rows: dict[tuple[float, float], np.ndarray] | None = None,
    ) -> None:
        """Fill every slot; the one place that knows the slot layout.

        *values* and *mask* are taken over (and made read-only), not
        copied.  *checked* says every observed rating is known finite,
        so a derived matrix needs to check only the rows it changed.
        """
        values.flags.writeable = False
        mask.flags.writeable = False
        self._values = values
        self._mask = mask
        self.rating_scale = rating_scale
        self._hash: int | None = None
        self._row_keys: dict[int, bytes] = {} if row_keys is None else row_keys
        self._bad_rows: dict[tuple[float, float], np.ndarray] = (
            {} if bad_rows is None else bad_rows
        )
        self._checked = checked

    @classmethod
    def _from_parts(
        cls,
        values: np.ndarray,
        mask: np.ndarray,
        rating_scale: tuple[float, float],
        **slots,
    ) -> "RatingMatrix":
        """A matrix around *values* / *mask* that skips the constructor checks.

        Keyword arguments are those of :meth:`_set_slots`.  Callers
        vouch for the arrays themselves: :meth:`with_ratings` after
        checking the rows it touched, and fault injection, which
        passes ``checked=False`` to build a deliberately broken matrix.
        """
        matrix = cls.__new__(cls)
        matrix._set_slots(values, mask, rating_scale, **slots)
        return matrix

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_triplets(
        cls,
        triplets: Iterable[tuple[int, int, float]],
        *,
        n_users: int | None = None,
        n_items: int | None = None,
        rating_scale: tuple[float, float] = (1.0, 5.0),
    ) -> "RatingMatrix":
        """Build a matrix from ``(user, item, rating)`` triplets.

        Duplicate ``(user, item)`` pairs keep the *last* rating seen,
        matching how recommender logs overwrite re-ratings.
        """
        triplet_list = list(triplets)
        if not triplet_list and (n_users is None or n_items is None):
            raise ValueError("empty triplets require explicit n_users and n_items")
        users = np.array([t[0] for t in triplet_list], dtype=np.intp)
        items = np.array([t[1] for t in triplet_list], dtype=np.intp)
        vals = np.array([t[2] for t in triplet_list], dtype=np.float64)
        if users.size:
            if users.min(initial=0) < 0 or items.min(initial=0) < 0:
                raise ValueError("user and item indices must be non-negative")
        P = int(n_users if n_users is not None else users.max() + 1)
        Q = int(n_items if n_items is not None else items.max() + 1)
        if users.size and (users.max() >= P or items.max() >= Q):
            raise ValueError("triplet index exceeds declared matrix shape")
        values = np.zeros((P, Q), dtype=np.float64)
        mask = np.zeros((P, Q), dtype=bool)
        values[users, items] = vals
        mask[users, items] = True
        return cls(values, mask, rating_scale=rating_scale)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Read-only ``(P, Q)`` rating array (0.0 where unrated)."""
        return self._values

    @property
    def mask(self) -> np.ndarray:
        """Read-only ``(P, Q)`` boolean rated-mask."""
        return self._mask

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_users, n_items)``."""
        return self._values.shape

    @property
    def n_users(self) -> int:
        """Number of user rows (the paper's ``P``)."""
        return self._values.shape[0]

    @property
    def n_items(self) -> int:
        """Number of item columns (the paper's ``Q``)."""
        return self._values.shape[1]

    @property
    def n_ratings(self) -> int:
        """Total number of observed ratings."""
        return int(self._mask.sum())

    @property
    def density(self) -> float:
        """Fraction of observed cells, the paper's "density of data"."""
        return self.n_ratings / (self.n_users * self.n_items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.rating_scale == other.rating_scale
            and np.array_equal(self._mask, other._mask)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        # For dict/set use only, not a cache key: distinct matrices
        # collide whenever their shapes, counts and rating sums agree.
        # The online caches key on row_key instead.
        if self._hash is None:
            self._hash = hash((self.shape, self.n_ratings, float(self._values.sum())))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"RatingMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"n_ratings={self.n_ratings}, density={self.density:.2%})"
        )

    # ------------------------------------------------------------------
    # Aggregates used throughout the paper's equations
    # ------------------------------------------------------------------
    def user_means(self, *, fill: float | None = None) -> np.ndarray:
        """Per-user mean of observed ratings (``r̄_u`` in the paper).

        Users with no ratings get *fill* (default: the global mean) so
        downstream arithmetic never meets NaN.
        """
        counts = self._mask.sum(axis=1)
        sums = self._values.sum(axis=1)
        default = self.global_mean() if fill is None else float(fill)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), default)
        return means

    def item_means(self, *, fill: float | None = None) -> np.ndarray:
        """Per-item mean of observed ratings (``r̄_i`` in the paper)."""
        counts = self._mask.sum(axis=0)
        sums = self._values.sum(axis=0)
        default = self.global_mean() if fill is None else float(fill)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), default)
        return means

    def global_mean(self) -> float:
        """Mean of all observed ratings (midpoint of scale if empty)."""
        n = self.n_ratings
        if n == 0:
            return 0.5 * (self.rating_scale[0] + self.rating_scale[1])
        return float(self._values.sum() / n)

    def user_counts(self) -> np.ndarray:
        """Number of observed ratings per user."""
        return self._mask.sum(axis=1)

    def item_counts(self) -> np.ndarray:
        """Number of observed ratings per item."""
        return self._mask.sum(axis=0)

    def stats(self) -> DatasetStats:
        """Table-I style summary statistics."""
        return DatasetStats(
            n_users=self.n_users,
            n_items=self.n_items,
            n_ratings=self.n_ratings,
            avg_ratings_per_user=self.n_ratings / self.n_users,
            density=self.density,
            rating_scale=self.rating_scale,
        )

    def clip(self, predictions: np.ndarray) -> np.ndarray:
        """Clip *predictions* into this matrix's rating scale."""
        return np.clip(predictions, self.rating_scale[0], self.rating_scale[1])

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def user_profile(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rated_item_indices, ratings)`` for one user row."""
        idx = np.nonzero(self._mask[user])[0]
        return idx, self._values[user, idx]

    def row_key(self, user: int) -> bytes:
        """Digest of one user's rated item indices and their ratings.

        Two matrices give *user* the same key exactly when that user's
        profile is the same (up to digest collisions), so the online
        per-user caches key on it.  Memoised: the matrix is immutable,
        and a matrix made by :meth:`with_ratings` or
        :meth:`without_ratings` starts with its parent's keys for the
        rows it did not touch.
        """
        key = self._row_keys.get(user)
        if key is None:
            idx, ratings = self.user_profile(user)
            digest = hashlib.blake2b(idx.tobytes(), digest_size=16)
            digest.update(ratings.tobytes())
            key = self._row_keys[user] = digest.digest()
        return key

    def bad_rows(self, lo: float, hi: float) -> np.ndarray:
        """Per user: does the row hold an observed rating outside ``[lo, hi]``?

        Non-finite ratings count as outside.  Returns a read-only
        ``(P,)`` boolean array, memoised per ``(lo, hi)``.  A matrix
        made by :meth:`with_ratings` or :meth:`without_ratings` inherits
        the flags of every row it did not touch, so screening a freshly
        written matrix costs O(changed rows).

        >>> m = RatingMatrix(np.array([[1.0, 5.0], [0.0, 2.0]]))
        >>> m.bad_rows(1, 4).tolist()
        [True, False]
        """
        key = (float(lo), float(hi))
        flags = self._bad_rows.get(key)
        if flags is None:
            flags = self.bad_cells(*key).any(axis=1)
            flags.flags.writeable = False
            self._bad_rows[key] = flags
        return flags

    def bad_cells(self, lo: float, hi: float) -> np.ndarray:
        """``(P, Q)`` mask of observed ratings that are non-finite or outside ``[lo, hi]``.

        The one definition of a bad cell: :meth:`bad_rows` reduces it
        per row, and the serving layer's sanitiser drops these cells.
        Not memoised; prefer :meth:`bad_rows` to screen a matrix.
        """
        return _bad_cells(self._values, self._mask, float(lo), float(hi))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def subset_users(self, users: Sequence[int] | np.ndarray) -> "RatingMatrix":
        """New matrix containing only the given user rows, in order."""
        users = np.asarray(users, dtype=np.intp)
        return RatingMatrix(
            self._values[users], self._mask[users], rating_scale=self.rating_scale
        )

    def subset_items(self, items: Sequence[int] | np.ndarray) -> "RatingMatrix":
        """New matrix containing only the given item columns, in order."""
        items = np.asarray(items, dtype=np.intp)
        return RatingMatrix(
            self._values[:, items], self._mask[:, items], rating_scale=self.rating_scale
        )

    def with_ratings(
        self, triplets: Iterable[tuple[int, int, float]]
    ) -> "RatingMatrix":
        """New matrix with the given ``(user, item, rating)`` entries added.

        Existing entries at the same positions are overwritten; this is
        the primitive that the incremental-update extension builds on.
        Only the touched rows are validated; every other row keeps its
        memoised :meth:`row_key` and :meth:`bad_rows` flags.
        """
        values = self._values.copy()
        mask = self._mask.copy()
        rows = []
        for u, i, r in triplets:
            values[u, i] = r
            mask[u, i] = True
            rows.append(u)
        return self._derived(values, mask, rows)

    def without_ratings(
        self, pairs: Iterable[tuple[int, int]]
    ) -> "RatingMatrix":
        """New matrix with the given ``(user, item)`` entries removed.

        Like :meth:`with_ratings`, only the touched rows are re-derived.
        """
        values = self._values.copy()
        mask = self._mask.copy()
        rows = []
        for u, i in pairs:
            values[u, i] = 0.0
            mask[u, i] = False
            rows.append(u)
        return self._derived(values, mask, rows)

    def _derived(self, values: np.ndarray, mask: np.ndarray, rows: list) -> "RatingMatrix":
        """A child holding *values* / *mask*, which differ from ours only in *rows*.

        A profile write is a per-row operation (CFSF "inserts a record",
        Section IV-A), so when this matrix is known valid the
        child checks only the touched rows and keeps the memoised row
        keys and bad-row flags of every other row.  A matrix not known
        valid (one built around the constructor, as fault injection
        does) sends the child through the full constructor checks.
        """
        if not self._checked:
            return RatingMatrix(values, mask, rating_scale=self.rating_scale)
        n_users = self.n_users
        touched = np.unique(np.asarray(rows, dtype=np.intp) % n_users)
        sub_values, sub_mask = values[touched], mask[touched]
        if not np.isfinite(sub_values[sub_mask]).all():
            raise ValueError("observed ratings must be finite")
        # dict() copies in one step, so a thread filling our memo
        # meanwhile cannot break the copy.
        row_keys = dict(self._row_keys)
        for u in touched.tolist():
            row_keys.pop(u, None)
            row_keys.pop(u - n_users, None)  # a memo entry made via a negative index
        bad_rows = {}
        for (lo, hi), flags in dict(self._bad_rows).items():
            flags = flags.copy()
            flags[touched] = _bad_cells(sub_values, sub_mask, lo, hi).any(axis=1)
            flags.flags.writeable = False
            bad_rows[(lo, hi)] = flags
        return RatingMatrix._from_parts(
            values, mask, self.rating_scale,
            checked=True, row_keys=row_keys, bad_rows=bad_rows,
        )


def _bad_cells(values: np.ndarray, mask: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Observed cells whose rating is non-finite or outside ``[lo, hi]``."""
    with np.errstate(invalid="ignore"):
        return mask & (~np.isfinite(values) | (values < lo) | (values > hi))
