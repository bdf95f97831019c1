"""Baselines: every comparator of the paper's Tables II and III.

==============  =====================================================
``SIR``         :class:`~repro.baselines.item_knn.ItemBasedCF` —
                item-based PCC CF (Eq. 1; Sarwar et al. 2001).
``SUR``         :class:`~repro.baselines.user_knn.UserBasedCF` —
                user-based PCC CF (Eq. 2).
``SF``          :class:`~repro.baselines.sf.SimilarityFusion` —
                whole-matrix similarity fusion (Wang et al. 2006).
``SCBPCC``      :class:`~repro.baselines.scbpcc.SCBPCC` —
                cluster-based smoothing CF (Xue et al. 2005).
``EMDP``        :class:`~repro.baselines.emdp.EMDP` —
                effective missing-data prediction (Ma et al. 2007).
``AM``          :class:`~repro.baselines.aspect_model.AspectModel` —
                latent-class pLSA CF (Hofmann 2004).
``PD``          :class:`~repro.baselines.pd.PersonalityDiagnosis` —
                personality diagnosis (Pennock et al. 2000).
==============  =====================================================

plus :class:`~repro.baselines.matrix_factorization.MatrixFactorization`
(the related-work family the paper cites as [12]/[20]), the sanity
reference :class:`~repro.baselines.means.MeanPredictor`, and the shared
:class:`~repro.baselines.base.Recommender` interface that CFSF itself
implements.
"""

from repro.baselines.aspect_model import AspectModel
from repro.baselines.base import NotFittedError, Recommender, fallback_baseline
from repro.baselines.emdp import EMDP
from repro.baselines.item_knn import ItemBasedCF
from repro.baselines.matrix_factorization import MatrixFactorization
from repro.baselines.means import MeanPredictor
from repro.baselines.pd import PersonalityDiagnosis
from repro.baselines.scbpcc import SCBPCC
from repro.baselines.sf import SimilarityFusion
from repro.baselines.user_knn import UserBasedCF

__all__ = [
    "AspectModel",
    "EMDP",
    "ItemBasedCF",
    "MatrixFactorization",
    "MeanPredictor",
    "NotFittedError",
    "PersonalityDiagnosis",
    "Recommender",
    "SCBPCC",
    "SimilarityFusion",
    "UserBasedCF",
    "fallback_baseline",
]
