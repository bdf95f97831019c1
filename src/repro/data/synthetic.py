"""Synthetic MovieLens-like rating data.

The paper's evaluation (Section V-A) uses 500 users drawn from the
GroupLens MovieLens dataset, each having rated at least 40 of 1000
movies, with an average of 94.4 rated items per user and 9.44% density
on a 1..5 integer scale.  This environment has no network access, so
the benchmark harness substitutes a *calibrated generative model* that
reproduces the statistical structure every evaluated mechanism depends
on:

* **Latent taste structure** — users and items live in a low-rank
  latent space organised around ``n_genres`` soft item groups, so that
  like-minded users (user-based CF, clustering) and similar items
  (item-based CF, the GIS) genuinely exist and are discoverable.
* **Rating-style diversity** — each user has an individual bias
  (generosity) and rating variance (enthusiasm spread).  This is
  exactly the "diversity in user rating styles" that CFSF's smoothing
  strategy removes, so it must be present for smoothing to matter.
* **Item popularity skew** — item exposure follows a Zipf-like law and
  popular items receive systematically higher ratings, the property the
  paper cites when preferring PCC over pure cosine for the GIS.
* **MovieLens marginals** — user activity is lognormal with a hard
  40-rating floor, calibrated so that the generated matrix reproduces
  Table I: 500 users, 1000 items, ~94.4 ratings/user, ~9.44% density.

Absolute error levels differ from the authors' real-data numbers (the
noise floor here is a parameter, not history), but orderings between
methods and all trend shapes are preserved; EXPERIMENTS.md records
paper-vs-measured values side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.matrix import RatingMatrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["SyntheticConfig", "SyntheticDataset", "make_movielens_like"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the generative model; defaults reproduce Table I.

    Attributes
    ----------
    n_users, n_items:
        Matrix dimensions (paper: 500 x 1000).
    n_genres:
        Number of soft item groups; 18 mirrors MovieLens' genre count.
    latent_dim:
        Rank of the user/item preference factors.
    mean_ratings_per_user, min_ratings_per_user:
        Activity calibration (paper: mean 94.4, min 40).
    global_mean:
        Location of the rating distribution before clipping (MovieLens'
        empirical mean is ~3.53).
    user_bias_sd, item_bias_sd:
        Spread of generosity / quality offsets.
    style_scale_range:
        Per-user multiplicative spread of preference strength — the
        rating-style diversity smoothing targets.
    signal_sd:
        Standard deviation contributed by the latent preference term.
    noise_sd:
        Irreducible noise before integer rounding; sets the MAE floor.
    popularity_exponent:
        Zipf exponent of item exposure.
    popularity_quality_coupling:
        How strongly popular items are also better-liked.
    user_group_noise:
        Spread of users around their taste-group centre (smaller =
        tighter, more discoverable like-minded-user structure).
    item_genre_noise:
        Spread of items around their genre centre (smaller = stronger
        item–item similarity structure).
    n_user_groups:
        Number of planted user taste groups (``None`` = one group per
        three genres, floored at 4).
    """

    n_users: int = 500
    n_items: int = 1000
    n_genres: int = 18
    latent_dim: int = 8
    mean_ratings_per_user: float = 94.4
    min_ratings_per_user: int = 40
    global_mean: float = 3.55
    user_bias_sd: float = 0.42
    item_bias_sd: float = 0.38
    style_scale_range: tuple[float, float] = (0.6, 1.6)
    signal_sd: float = 0.55
    noise_sd: float = 0.80
    popularity_exponent: float = 0.9
    popularity_quality_coupling: float = 0.25
    user_group_noise: float = 0.40
    item_genre_noise: float = 0.60
    n_user_groups: int | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_users, "n_users")
        check_positive_int(self.n_items, "n_items")
        check_positive_int(self.n_genres, "n_genres")
        check_positive_int(self.latent_dim, "latent_dim")
        check_positive_int(self.min_ratings_per_user, "min_ratings_per_user", minimum=1)
        if self.mean_ratings_per_user < self.min_ratings_per_user:
            raise ValueError("mean_ratings_per_user must be >= min_ratings_per_user")
        if self.mean_ratings_per_user > self.n_items:
            raise ValueError("mean_ratings_per_user cannot exceed n_items")
        lo, hi = self.style_scale_range
        if not 0 < lo <= hi:
            raise ValueError(f"style_scale_range must be 0 < lo <= hi, got {self.style_scale_range}")


@dataclass(frozen=True)
class SyntheticDataset:
    """A generated dataset plus its ground-truth latent state.

    The ground truth (``true_scores``, ``user_group``) is never shown to
    the algorithms; tests use it to verify that the generator actually
    planted recoverable structure (e.g. clustering accuracy above
    chance) and the oracle predictor built from it lower-bounds MAE.
    """

    ratings: RatingMatrix
    true_scores: np.ndarray = field(repr=False)
    user_group: np.ndarray = field(repr=False)
    item_genre: np.ndarray = field(repr=False)

    def oracle_mae(self) -> float:
        """MAE of the noise-free score against the observed ratings.

        No rating-only algorithm can beat this by more than luck; the
        evaluation suite uses it to sanity-check measured MAE levels.
        """
        mask = self.ratings.mask
        clipped = self.ratings.clip(self.true_scores)
        return float(np.abs(self.ratings.values - clipped)[mask].mean())


def _item_popularity(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like exposure distribution over items, shuffled so that
    popularity is not aligned with item index order."""
    ranks = np.arange(1, cfg.n_items + 1, dtype=np.float64)
    weights = ranks ** (-cfg.popularity_exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _user_activity(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-user rating counts: lognormal, floored, calibrated to mean.

    The lognormal is iteratively rescaled so that after flooring at
    ``min_ratings_per_user`` and capping at ``n_items`` the realised
    mean matches ``mean_ratings_per_user`` to within half a rating.
    """
    sigma = 0.55
    target = cfg.mean_ratings_per_user
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=cfg.n_users)
    scale = target / raw.mean()
    for _ in range(32):
        counts = np.clip(np.round(raw * scale), cfg.min_ratings_per_user, cfg.n_items)
        err = counts.mean() - target
        if abs(err) < 0.5:
            break
        scale *= target / max(counts.mean(), 1.0)
    return counts.astype(np.intp)


def _watch_probabilities(popularity: np.ndarray, affinity: np.ndarray) -> np.ndarray:
    """``(P, Q)`` per-user softmax of log-popularity plus scaled affinity.

    One array op over all users; each row is bit-identical to the
    softmax of that user's row alone.
    """
    logits = np.log(popularity) + 0.35 * affinity / (affinity.std(axis=1, keepdims=True) + 1e-12)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def make_movielens_like(
    config: SyntheticConfig | None = None,
    *,
    seed: int | np.random.Generator | None = 0,
) -> SyntheticDataset:
    """Generate a MovieLens-shaped dataset.

    Parameters
    ----------
    config:
        Generator knobs; the default reproduces the paper's Table I.
    seed:
        Root seed or generator for full determinism.

    Returns
    -------
    SyntheticDataset
        The observed :class:`~repro.data.matrix.RatingMatrix` plus the
        hidden ground truth used only by tests and diagnostics.

    Examples
    --------
    >>> ds = make_movielens_like(seed=0)
    >>> ds.ratings.n_users, ds.ratings.n_items
    (500, 1000)
    >>> 0.085 < ds.ratings.density < 0.105
    True
    """
    cfg = config or SyntheticConfig()
    rng = as_generator(seed)

    # --- latent structure -------------------------------------------------
    item_genre = rng.integers(0, cfg.n_genres, size=cfg.n_items)
    genre_centers = rng.normal(0.0, 1.0, size=(cfg.n_genres, cfg.latent_dim))
    item_factors = genre_centers[item_genre] + cfg.item_genre_noise * rng.normal(
        0.0, 1.0, size=(cfg.n_items, cfg.latent_dim)
    )
    # Users belong to taste groups aligned with subsets of genres, so the
    # user-clustering stage of CFSF has something real to find.
    n_groups = (
        cfg.n_user_groups if cfg.n_user_groups is not None else max(4, cfg.n_genres // 3)
    )
    user_group = rng.integers(0, n_groups, size=cfg.n_users)
    group_centers = rng.normal(0.0, 1.0, size=(n_groups, cfg.latent_dim))
    user_factors = group_centers[user_group] + cfg.user_group_noise * rng.normal(
        0.0, 1.0, size=(cfg.n_users, cfg.latent_dim)
    )

    # --- biases and rating styles -----------------------------------------
    user_bias = rng.normal(0.0, cfg.user_bias_sd, size=cfg.n_users)
    popularity = _item_popularity(cfg, rng)
    pop_z = (popularity - popularity.mean()) / (popularity.std() + 1e-12)
    item_bias = (
        rng.normal(0.0, cfg.item_bias_sd, size=cfg.n_items)
        + cfg.popularity_quality_coupling * pop_z
    )
    lo, hi = cfg.style_scale_range
    style_scale = rng.uniform(lo, hi, size=cfg.n_users)

    # --- noise-free scores --------------------------------------------------
    interaction = user_factors @ item_factors.T
    interaction *= cfg.signal_sd / (interaction.std() + 1e-12)
    true_scores = (
        cfg.global_mean
        + user_bias[:, None]
        + item_bias[None, :]
        + style_scale[:, None] * interaction
    )

    # --- observation process ------------------------------------------------
    counts = _user_activity(cfg, rng)
    mask = np.zeros((cfg.n_users, cfg.n_items), dtype=bool)
    # Users preferentially watch popular items *and* items they like:
    # a soft-max blend of popularity and (noise-free) affinity.
    p = _watch_probabilities(popularity, true_scores - true_scores.mean(axis=1, keepdims=True))
    for u in range(cfg.n_users):
        chosen = rng.choice(cfg.n_items, size=counts[u], replace=False, p=p[u])
        mask[u, chosen] = True

    # --- observed ratings -----------------------------------------------------
    noisy = true_scores + rng.normal(0.0, cfg.noise_sd, size=true_scores.shape)
    ratings_int = np.clip(np.round(noisy), 1, 5)
    values = np.where(mask, ratings_int, 0.0)
    ratings = RatingMatrix(values, mask, rating_scale=(1.0, 5.0))

    return SyntheticDataset(
        ratings=ratings,
        true_scores=true_scores,
        user_group=user_group,
        item_genre=item_genre,
    )
