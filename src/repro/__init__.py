"""repro — full reproduction of CFSF (Zhang et al., ICPP 2009).

An efficient Collaborative Filtering approach using Smoothing and
Fusing, plus every baseline and substrate its evaluation depends on.
See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Public API highlights
---------------------
:class:`repro.core.CFSF`
    The paper's recommender (offline fit / online predict).
:mod:`repro.baselines`
    SIR, SUR, SF, SCBPCC, EMDP, AM, PD comparators.
:mod:`repro.data`
    Rating matrices, MovieLens loaders, synthetic generator, GivenN
    experimental protocol.
:mod:`repro.eval`
    MAE metric, protocol driver, table reporting.
:mod:`repro.parallel`
    Multi-process online prediction executor with worker-crash
    recovery.
:mod:`repro.serving`
    Fault-tolerant serving layer: fallback chain, circuit breakers,
    deadlines, hot snapshot reload, fault-injection harness.
:mod:`repro.obs`
    Observability: thread-safe metrics registry (counters, gauges,
    histograms), tracing spans over the offline pipeline, and JSON /
    Prometheus exposition.
"""

from repro.baselines import (
    EMDP,
    MatrixFactorization,
    SCBPCC,
    AspectModel,
    ItemBasedCF,
    MeanPredictor,
    PersonalityDiagnosis,
    Recommender,
    SimilarityFusion,
    UserBasedCF,
)
from repro.core import (
    CFSF,
    CFSFConfig,
    IncrementalGIS,
    load_model,
    recommend_top_n,
    save_model,
)
from repro.data import (
    GivenNSplit,
    RatingMatrix,
    SyntheticConfig,
    default_dataset,
    make_movielens_like,
    make_split,
    paper_grid,
)
from repro.eval import evaluate, mae, rmse
from repro.obs import MetricsRegistry, use_registry
from repro.parallel import ParallelPredictor
from repro.serving import PredictionService, ServingResult

__version__ = "1.0.0"

__all__ = [
    "AspectModel",
    "CFSF",
    "CFSFConfig",
    "EMDP",
    "GivenNSplit",
    "IncrementalGIS",
    "ItemBasedCF",
    "MatrixFactorization",
    "MeanPredictor",
    "MetricsRegistry",
    "ParallelPredictor",
    "PersonalityDiagnosis",
    "PredictionService",
    "RatingMatrix",
    "Recommender",
    "SCBPCC",
    "ServingResult",
    "SimilarityFusion",
    "SyntheticConfig",
    "UserBasedCF",
    "__version__",
    "default_dataset",
    "evaluate",
    "load_model",
    "mae",
    "make_movielens_like",
    "make_split",
    "paper_grid",
    "recommend_top_n",
    "rmse",
    "save_model",
    "use_registry",
]
