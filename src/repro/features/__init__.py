"""Feature extraction for estimator selection (paper §4.3 and §4.4).

:mod:`repro.features.vector` holds the one definition:
:meth:`FeatureExtractor.extract` maps a list of pipelines to their
``(pipelines × features)`` matrix of plan-shape features (§4.3) and, in
dynamic mode, features observed during the first 20% of the driver input
(§4.4).  Training extracts all its pipelines in one call; serving, every
selection opening of a scheduler round in one call per selector kind.
"""

from repro.features.vector import (
    DYNAMIC_X_PERCENTS,
    OPS_UNIVERSE,
    FeatureExtractor,
)

__all__ = [
    "FeatureExtractor",
    "OPS_UNIVERSE",
    "DYNAMIC_X_PERCENTS",
]
