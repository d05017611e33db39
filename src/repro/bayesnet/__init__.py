"""Discrete Bayesian-belief-network substrate.

This subpackage replaces the commercial Netica engine used by the paper with
an open implementation of everything block-level diagnosis needs:

* :class:`~repro.bayesnet.graph.DirectedGraph` — DAG with cycle detection,
  topological ordering, ancestor/descendant queries and d-separation.
* :class:`~repro.bayesnet.factor.DiscreteFactor` — multidimensional discrete
  factors with product, marginalisation, reduction and normalisation.
* :class:`~repro.bayesnet.cpd.TabularCPD` — conditional probability tables.
* :class:`~repro.bayesnet.network.BayesianNetwork` — the network itself.
* :class:`~repro.bayesnet.codec.EvidenceCodec` — the one reading of evidence
  (labels, state codes, per-entry defects) every engine and learner uses.
* Exact inference — variable elimination and junction-tree belief
  propagation (``repro.bayesnet.inference``).
* Approximate inference — likelihood weighting and Gibbs sampling.
* Parameter learning — maximum likelihood, Bayesian (Dirichlet) estimation
  and Expectation–Maximisation for cases with missing values
  (``repro.bayesnet.learning``).
* Forward/rejection sampling (``repro.bayesnet.sampling``).
"""

from repro.bayesnet.graph import DirectedGraph
from repro.bayesnet.factor import DiscreteFactor
from repro.bayesnet.cpd import TabularCPD
from repro.bayesnet.network import BayesianNetwork
from repro.bayesnet.inference import (
    VariableElimination,
    JunctionTree,
    LikelihoodWeighting,
    GibbsSampling,
)
from repro.bayesnet.learning import (
    CaseMatrix,
    MaximumLikelihoodEstimator,
    BayesianEstimator,
    ExpectationMaximization,
)
from repro.bayesnet.sampling import ForwardSampler

__all__ = [
    "DirectedGraph",
    "DiscreteFactor",
    "TabularCPD",
    "BayesianNetwork",
    "VariableElimination",
    "JunctionTree",
    "LikelihoodWeighting",
    "GibbsSampling",
    "CaseMatrix",
    "MaximumLikelihoodEstimator",
    "BayesianEstimator",
    "ExpectationMaximization",
    "ForwardSampler",
]
