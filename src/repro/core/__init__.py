"""The paper's primary contribution: block-level Bayesian diagnosis.

The flow mirrors Sections II–IV of the paper:

1. Describe the circuit as *model variables* (functional blocks) with
   functional types and discrete states bounded by voltage limits
   (:mod:`repro.core.blocks`, :mod:`repro.core.states`,
   :mod:`repro.core.circuit_model`).
2. Convert ATE functional-test datalogs of failing devices into learning
   *cases* (:mod:`repro.core.case_generation`).
3. Build the BBN — structure from the dependency description, parameters
   fine-tuned from the cases starting at the designer priors — with the
   *Dlog2BBN* model builder (:mod:`repro.core.model_builder`).
4. In diagnostic mode, enter the controllable/observable states of a failing
   device as evidence, update the posteriors of the remaining blocks and
   deduce the ranked suspect list (:mod:`repro.core.diagnosis`,
   :mod:`repro.core.report`).
5. Score diagnoses against known injected faults
   (:mod:`repro.core.metrics`).
"""

from repro.core.blocks import BlockType, ModelVariable
from repro.core.states import StateDefinition, StateTable, Discretizer
from repro.core.circuit_model import CircuitModelDescription
from repro.bayesnet.learning.case_matrix import CaseMatrix
from repro.core.case_generation import Case, CaseGenerator
from repro.core.model_builder import (
    Dlog2BBN,
    BuiltModel,
    validate_built_network,
)
from repro.core.diagnosis import (
    PERMANENT_FAILURES,
    AttemptRecord,
    Diagnosis,
    DiagnosisEngine,
    DiagnosisFailure,
    DiagnosisProvenance,
    DiagnosticCase,
    FallbackPolicy,
)
from repro.core.evidence import (
    EvidenceIssue,
    merge_case_evidence,
    sanitize_evidence,
    validate_evidence,
)
from repro.exceptions import FallbackExhaustedError
from repro.core.report import DiagnosticReport, ReportColumn
from repro.core.metrics import DiagnosisMetrics, rank_of_true_fault

__all__ = [
    "BlockType",
    "ModelVariable",
    "StateDefinition",
    "StateTable",
    "Discretizer",
    "CircuitModelDescription",
    "Case",
    "CaseGenerator",
    "CaseMatrix",
    "Dlog2BBN",
    "BuiltModel",
    "validate_built_network",
    "DiagnosisEngine",
    "DiagnosticCase",
    "Diagnosis",
    "DiagnosisFailure",
    "DiagnosisProvenance",
    "AttemptRecord",
    "EvidenceIssue",
    "merge_case_evidence",
    "sanitize_evidence",
    "validate_evidence",
    "FallbackPolicy",
    "FallbackExhaustedError",
    "PERMANENT_FAILURES",
    "DiagnosticReport",
    "ReportColumn",
    "DiagnosisMetrics",
    "rank_of_true_fault",
]
