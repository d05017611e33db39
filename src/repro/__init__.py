"""repro — Block-Level Bayesian Diagnosis of Analogue Electronic Circuits.

A from-scratch reproduction of Krishnan, Doornbos, Brand and Kerkhoff,
"Block-Level Bayesian Diagnosis of Analogue Electronic Circuits" (DATE 2010):
a complete pipeline from analogue functional-test data to a ranked list of
suspect functional blocks, built on four substrates that are all part of this
package:

* :mod:`repro.bayesnet` — discrete Bayesian-belief-network engine (factors,
  CPDs, exact and approximate inference, parameter learning).
* :mod:`repro.circuits` — behavioural block-level circuit simulation with
  fault injection and process variation (including the paper's hypothetical
  circuit and the industrial multiple-output voltage regulator).
* :mod:`repro.ate` — ATE emulation: specification tests, no-stop-on-fail
  test programs, datalogs and failed-device population generation.
* :mod:`repro.core` — the paper's contribution: circuit-model description,
  the Dlog2BBN model builder, case generation, the diagnosis engine with
  automated candidate deduction, reports and metrics.
* :mod:`repro.baselines` — fault-dictionary, nearest-neighbour and
  naive-Bayes diagnosers used as comparison baselines.

Performance architecture
------------------------

The serving loop of diagnosis is *compute-once, query-many*: every failing
device asks for the posterior of all ~19 model variables, and the population
workflows (customer returns, fault-coverage and training-set-size sweeps)
multiply that by hundreds of cases.  The stack is organised around that
access pattern:

* **Factor kernels** — :class:`~repro.bayesnet.factor.DiscreteFactor`
  validates only at the public boundary; trusted intermediate results use a
  no-validation fast constructor, variable/state lookups are dict-backed,
  and :func:`~repro.bayesnet.factor.contract_factors` multiplies a whole
  bucket of factors and sums out eliminated variables in one ``einsum``
  call.
* **Single-pass marginals** — ``posteriors`` on both exact engines answers
  *all* requested marginals from one sweep: the junction tree calibrates
  once per evidence set and reads every clique, and variable elimination
  runs one shared-bucket forward/backward pass over its bucket tree.  Both
  engines cache results keyed by the evidence codec's row key, so repeated
  queries on the same failing condition are near-free (the ``sweep_count``
  / ``calibration_count`` attributes expose this for testing).
* **Vectorised sampling** — the forward, likelihood-weighting and Gibbs
  samplers draw whole batches as integer state arrays with row-indexed CPT
  lookups (Gibbs advances parallel chains in lock-step) instead of
  per-sample Python dict loops.
* **Batched diagnosis** —
  :meth:`~repro.core.diagnosis.DiagnosisEngine.diagnose_batch` amortises
  engine construction and per-case posterior sweeps across a population and
  is the intended entry point for population-scale workloads.

``perfbench/run.py`` times the whole pipeline (retrain, in-process
diagnosis, served diagnosis) end to end, scaled for host speed, and the
``benchmarks/`` suite times each paper table's kernel.

Quickstart
----------

Diagnose the paper's case d2 on the designer prior alone, simulated from the
behavioural netlist as the examples do:

>>> from repro.ate.programs import REGULATOR_CONDITION_SETS
>>> from repro.circuits import build_voltage_regulator
>>> from repro.core import Dlog2BBN, DiagnosisEngine
>>> from repro.core.behavioral_prior import SimulationPriorBuilder
>>> from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
>>> circuit = build_voltage_regulator()
>>> prior = SimulationPriorBuilder(
...     circuit.netlist, circuit.model,
...     [cs.conditions for cs in REGULATOR_CONDITION_SETS],
...     fault_probability=circuit.designer_fault_probabilities,
...     process_variation=circuit.process_variation,
...     samples=3000, seed=7).build()
>>> builder = Dlog2BBN(circuit.model, circuit.healthy_states)
>>> engine = DiagnosisEngine(builder.build(prior_network=prior))
>>> diagnosis = engine.diagnose(PAPER_DIAGNOSTIC_CASES[1])   # case d2
>>> diagnosis.suspects
['enb13']
"""

from repro.core import (
    BlockType,
    CircuitModelDescription,
    Diagnosis,
    DiagnosisEngine,
    DiagnosisFailure,
    DiagnosisMetrics,
    DiagnosticCase,
    DiagnosticReport,
    Dlog2BBN,
    FallbackPolicy,
    ModelVariable,
    StateDefinition,
    StateTable,
)
from repro.bayesnet import BayesianNetwork, TabularCPD
from repro.persist import ModelRegistry, model_fingerprint
from repro.serving import DiagnosisService, ServiceConfig, ServiceStats

__version__ = "1.1.0"

__all__ = [
    "BlockType",
    "CircuitModelDescription",
    "Diagnosis",
    "DiagnosisEngine",
    "DiagnosisFailure",
    "DiagnosisMetrics",
    "DiagnosticCase",
    "DiagnosticReport",
    "Dlog2BBN",
    "FallbackPolicy",
    "ModelVariable",
    "StateDefinition",
    "StateTable",
    "BayesianNetwork",
    "TabularCPD",
    "DiagnosisService",
    "ServiceConfig",
    "ServiceStats",
    "ModelRegistry",
    "model_fingerprint",
    "__version__",
]
