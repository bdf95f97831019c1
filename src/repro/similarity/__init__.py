"""Similarity substrate: masked PCC / cosine kernels and post-processing.

All pairwise similarity computations in the reproduction flow through
this subpackage.  The kernels are exact (no sampling) and fully
vectorised as masked Gram products; see :mod:`repro.similarity.pcc` for
the algebra.
"""

from repro.similarity.extra import (
    adjusted_cosine,
    jaccard,
    mean_squared_difference,
)
from repro.similarity.pcc import Centering, item_pcc, pairwise_pcc, pcc_to_rows, user_pcc
from repro.similarity.significance import (
    apply_threshold,
    overlap_counts,
    significance_weight,
    top_k_indices,
)
from repro.similarity.vss import item_cosine, pairwise_cosine

__all__ = [
    "Centering",
    "adjusted_cosine",
    "apply_threshold",
    "item_cosine",
    "jaccard",
    "mean_squared_difference",
    "item_pcc",
    "overlap_counts",
    "pairwise_cosine",
    "pairwise_pcc",
    "pcc_to_rows",
    "significance_weight",
    "top_k_indices",
    "user_pcc",
]
