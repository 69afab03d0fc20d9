"""From-scratch MART: Multiple Additive Regression Trees (paper §4.2).

The paper's selection models are MART regressors — Friedman's stochastic
gradient boosting [10] with binary regression trees as the base learner,
least-squares loss, 200 boosting iterations and 30-leaf trees.  No gradient
boosting library is available offline, so this package implements the
algorithm directly:

* :mod:`repro.learning.binning` — quantile pre-binning of features (the
  histogram trick), which is also what lets MART "break the domain of each
  feature arbitrarily" without input normalization — the property §4.2
  credits for MART beating logistic regression / SVMs here;
* :mod:`repro.learning.tree` — best-first regression trees grown to a leaf
  budget with exact histogram split search (and parent-minus-sibling
  histogram subtraction for speed);
* :mod:`repro.learning.mart` — least-squares boosting with shrinkage and
  optional stochastic subsampling;
* :mod:`repro.learning.forest` — prediction: one or many MART models
  packed into flat node arrays, the rows binned once per distinct edge
  set and every tree descended together in one vectorized gather step
  per depth level, bit-identical to summing the trees one at a time.
"""

from repro.learning.binning import QuantileBinner
from repro.learning.forest import PackedForest
from repro.learning.linear import RidgeRegressor
from repro.learning.mart import MARTParams, MARTRegressor
from repro.learning.tree import RegressionTree, TreeParams

__all__ = [
    "QuantileBinner",
    "RegressionTree",
    "TreeParams",
    "MARTRegressor",
    "MARTParams",
    "PackedForest",
    "RidgeRegressor",
]
