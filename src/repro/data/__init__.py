"""Data substrate: rating matrices, datasets, and the GivenN protocol.

The paper evaluates on a 500-user x 1000-item MovieLens extract
(Table I).  This subpackage provides the matrix abstraction used by
every algorithm (:class:`~repro.data.matrix.RatingMatrix`), a
calibrated synthetic generator that reproduces the extract's
statistical structure (:mod:`repro.data.synthetic`), loaders for real
MovieLens files when present (:mod:`repro.data.movielens`), and the
ML_100/200/300 x Given5/10/20 experimental protocol
(:mod:`repro.data.splits`).
"""

from repro.data.datasets import clear_dataset_cache, dataset_source, default_dataset
from repro.data.matrix import DatasetStats, RatingMatrix
from repro.data.movielens import (
    LoadedRatings,
    find_local_movielens,
    load_ml1m,
    load_ml100k,
    load_ratings_file,
    paper_subsample,
)
from repro.data.stats import (
    activity_histogram,
    gini_coefficient,
    popularity_curve,
    popularity_quality_correlation,
    rating_histogram,
    summarize,
)
from repro.data.splits import (
    GIVEN_SIZES,
    TRAINING_SIZES,
    GivenNSplit,
    make_split,
    paper_grid,
    subsample_heldout,
)
from repro.data.synthetic import (
    SyntheticConfig,
    SyntheticDataset,
    make_movielens_like,
)

__all__ = [
    "DatasetStats",
    "GIVEN_SIZES",
    "GivenNSplit",
    "LoadedRatings",
    "RatingMatrix",
    "SyntheticConfig",
    "SyntheticDataset",
    "TRAINING_SIZES",
    "activity_histogram",
    "clear_dataset_cache",
    "gini_coefficient",
    "popularity_curve",
    "popularity_quality_correlation",
    "rating_histogram",
    "summarize",
    "dataset_source",
    "default_dataset",
    "find_local_movielens",
    "load_ml100k",
    "load_ml1m",
    "load_ratings_file",
    "make_movielens_like",
    "make_split",
    "paper_grid",
    "paper_subsample",
    "subsample_heldout",
]
