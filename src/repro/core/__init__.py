"""Core: the paper's contribution — CFSF and its offline/online stages.

Each stage of Algorithm 1 is its own module with its own tests:

====================  ====================================================
:mod:`~repro.core.gis`         Offline step 1 — global item similarity (Eq. 5)
:mod:`~repro.core.clustering`  Offline step 2 — K-means user clusters (Eq. 6)
:mod:`~repro.core.smoothing`   Offline step 3 — cluster smoothing (Eqs. 7–8)
:mod:`~repro.core.icluster`    Offline step 3b — per-user cluster ranking (Eq. 9)
:mod:`~repro.core.selection`   Online step 5 — ε-weighted top-K users (Eqs. 10–11)
:mod:`~repro.core.local_matrix` Online step 6a — the local M x K matrix
:mod:`~repro.core.fusion`      Online step 6b — SIR'/SUR'/SUIR' fusion (Eqs. 12–14)
:mod:`~repro.core.model`       The end-to-end :class:`CFSF` estimator
:mod:`~repro.core.incremental` Extension — GIS maintenance without refit (§VI)
====================  ====================================================
"""

from repro.core.config import PAPER_DEFAULTS, CFSFConfig
from repro.core.clustering import UserClusters, cluster_users
from repro.core.incremental import IncrementalGIS
from repro.core.fusion import (
    FusedPrediction,
    FusionKernel,
    PreparedActiveUser,
    fuse,
    fusion_weights,
    pair_similarity,
)
from repro.core.gis import GlobalItemSimilarity, NeighborCache, build_gis, build_neighbor_cache
from repro.core.icluster import (
    IClusterIndex,
    PreparedAffinity,
    build_icluster,
    prepare_affinity,
    user_cluster_affinity,
)
from repro.core.local_matrix import LocalMatrix, build_local_matrix
from repro.core.model import CFSF, ActiveUserState
from repro.core.persistence import load_model, save_model
from repro.core.recommend import Recommendation, recommend_top_n
from repro.core.selection import TopKUsers, select_top_k_users, weighted_user_similarity
from repro.core.smoothing import SmoothedRatings, cluster_deviations, smooth_ratings

__all__ = [
    "CFSF",
    "ActiveUserState",
    "CFSFConfig",
    "FusedPrediction",
    "FusionKernel",
    "GlobalItemSimilarity",
    "IClusterIndex",
    "IncrementalGIS",
    "NeighborCache",
    "PreparedActiveUser",
    "PreparedAffinity",
    "LocalMatrix",
    "PAPER_DEFAULTS",
    "Recommendation",
    "load_model",
    "recommend_top_n",
    "save_model",
    "SmoothedRatings",
    "TopKUsers",
    "UserClusters",
    "build_gis",
    "build_icluster",
    "build_local_matrix",
    "build_neighbor_cache",
    "prepare_affinity",
    "cluster_deviations",
    "cluster_users",
    "fuse",
    "fusion_weights",
    "pair_similarity",
    "select_top_k_users",
    "smooth_ratings",
    "user_cluster_affinity",
    "weighted_user_similarity",
]
