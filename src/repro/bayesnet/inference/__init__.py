"""Inference engines for discrete Bayesian belief networks.

Two exact engines (variable elimination and junction-tree belief propagation)
and two approximate engines (likelihood weighting and Gibbs sampling) are
provided.  All engines share the same query interface:

``query(variables, evidence)``
    posterior marginal factors of ``variables`` given ``evidence``.
``posterior(variable, evidence)``
    convenience single-variable ``{state: probability}`` dictionary.
``map_query(variables, evidence)``
    most probable joint assignment of ``variables``.

Variable elimination additionally answers whole populations at once
(``posteriors_batch``): one batched sweep per evidence-variable set over
the deduplicated state-code rows, returned as one posterior matrix with
P(evidence) per row.  Elimination orders and contraction plans are
memoised, so every later case only replays them.  Batched diagnosis runs
every population through that sweep and reads its results off the matrix.
"""

from repro.bayesnet.inference.elimination_order import (
    min_degree_order,
    min_fill_order,
    min_weight_order,
)
from repro.bayesnet.inference.variable_elimination import VariableElimination
from repro.bayesnet.inference.junction_tree import JunctionTree
from repro.bayesnet.inference.likelihood_weighting import LikelihoodWeighting
from repro.bayesnet.inference.gibbs import GibbsSampling

__all__ = [
    "min_degree_order",
    "min_fill_order",
    "min_weight_order",
    "VariableElimination",
    "JunctionTree",
    "LikelihoodWeighting",
    "GibbsSampling",
]
