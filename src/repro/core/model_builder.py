"""Dlog2BBN — the BBN circuit-model builder.

The paper's Dlog2BBN tool "assists a design and test engineer to build a BBN
circuit model of an analogue circuit": it takes the model variables with
their functional types, usable states and test definitions, converts ATE test
files into cases, and produces the structure and parameters of the BBN.

:class:`Dlog2BBN` reproduces that pipeline:

* the *structure* comes from the circuit-model description's dependency arcs;
* the *designer prior* CPTs are generated from the healthy-state annotations
  (the "rough estimate of the conditional probability tables" the product
  designer initially provided in the paper), or supplied explicitly;
* the *parameters* are fine-tuned from learning cases with the estimator of
  choice — Bayesian (Dirichlet) updating for fully observed cases or
  Expectation–Maximisation when the cases contain unknown (internal) block
  states, which is the realistic situation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import math

import numpy as np

from repro.bayesnet.cpd import TabularCPD
from repro.bayesnet.learning import (
    BayesianEstimator,
    CaseMatrix,
    ExpectationMaximization,
    MaximumLikelihoodEstimator,
)
from repro.bayesnet.network import BayesianNetwork
from repro.core.case_generation import Case, CaseGenerator, LabeledCase
from repro.core.circuit_model import CircuitModelDescription
from repro.core.states import Discretizer
from repro.exceptions import ModelBuildError


@dataclasses.dataclass
class BuiltModel:
    """The output of the model builder.

    Attributes
    ----------
    description:
        The circuit-model description the network was built from.
    network:
        The learned Bayesian network (structure + CPTs).
    prior_network:
        The designer-prior network the learning started from.
    discretizer:
        Discretiser mapping measurements onto the network's states.
    healthy_states:
        The healthy-state annotation used for priors and candidate deduction.
    training_case_count:
        Number of learning cases used for fine-tuning.
    """

    description: CircuitModelDescription
    network: BayesianNetwork
    prior_network: BayesianNetwork
    discretizer: Discretizer
    healthy_states: dict[str, str]
    training_case_count: int


def validate_built_network(model: CircuitModelDescription,
                           network: BayesianNetwork,
                           context: str = "built network",
                           atol: float = 1e-6) -> None:
    """Validate a network's CPDs against the circuit-model description.

    Learned parameters can silently go bad — an estimator dividing by a zero
    count produces NaN columns, a hand-supplied prior can disagree with the
    model's usable-state tables — and a bad table surfaces much later as a
    nonsense posterior.  This check fails the build instead, collecting every
    defect before raising one :class:`ModelBuildError`:

    * a CPD exists for every model variable;
    * its cardinality and state labels match the model's state table;
    * its table has the declared shape, only finite non-negative entries,
      and every parent-configuration column sums to 1 (within ``atol``).

    The tables are walked on every call, never memoised: a memo keyed by
    ``cpd_version`` would survive a deep copy whose tables are then
    poisoned in place, and the walk costs a fraction of a millisecond.
    """
    issues: list[str] = []
    for variable in model.variable_names:
        try:
            cpd = network.get_cpd(variable)
        except Exception:
            issues.append(f"{variable!r}: no CPD attached")
            continue
        table_def = model.state_table(variable)
        if cpd.cardinality != table_def.cardinality:
            issues.append(
                f"{variable!r}: CPD cardinality {cpd.cardinality} != "
                f"{table_def.cardinality} usable states")
            continue
        labels = list(cpd.state_names.get(variable, ()))
        if labels != list(table_def.labels):
            issues.append(
                f"{variable!r}: CPD state labels {labels} != usable states "
                f"{list(table_def.labels)}")
        table = np.asarray(cpd.table, dtype=float)
        columns = math.prod(cpd.parent_cardinalities) \
            if cpd.parent_cardinalities else 1
        if table.shape != (cpd.cardinality, columns):
            issues.append(
                f"{variable!r}: CPD table shape {table.shape} != "
                f"({cpd.cardinality}, {columns})")
            continue
        # One reduction each for the happy path; a probability table whose
        # grand total is finite has no NaN/inf entries.
        if not np.isfinite(table.sum()):
            issues.append(f"{variable!r}: CPD table has NaN/inf entries")
            continue
        if table.min() < 0.0:
            issues.append(f"{variable!r}: CPD table has negative entries")
        sums = table.sum(axis=0)
        errors = np.abs(sums - 1.0)
        if errors.max() > atol:
            bad = np.flatnonzero(errors > atol)
            issues.append(
                f"{variable!r}: {bad.size} parent-configuration column(s) "
                f"not normalised (first: column {bad[0]} sums to "
                f"{sums[bad[0]]:.6f})")
    if issues:
        raise ModelBuildError(
            f"{context} failed validation ({len(issues)} issue(s)):\n  - "
            + "\n  - ".join(issues))


class Dlog2BBN:
    """Builds BBN circuit models from circuit descriptions and ATE cases.

    Parameters
    ----------
    model:
        The circuit-model description (variables, states, dependencies).
    healthy_states:
        State label of defect-free operation per model variable; required for
        the generated designer prior and passed through to diagnosis.
    healthy_given_healthy:
        Prior probability that a block is in its healthy state when every
        parent is healthy (the designer's "it practically always works when
        its inputs are fine" estimate).
    healthy_given_faulty:
        Prior probability that a block is in its healthy state when at least
        one parent is *not* healthy (how strongly upstream failures propagate).
    root_healthy:
        Prior probability of the healthy state for root (parent-less)
        variables; the remainder is spread over the other states.
    """

    def __init__(self, model: CircuitModelDescription,
                 healthy_states: Mapping[str, str],
                 healthy_given_healthy: float = 0.9,
                 healthy_given_faulty: float = 0.2,
                 root_healthy: float = 0.6) -> None:
        self.model = model
        self.healthy_states = {variable: str(state)
                               for variable, state in healthy_states.items()}
        missing = [variable for variable in model.variable_names
                   if variable not in self.healthy_states]
        if missing:
            raise ModelBuildError(
                f"healthy_states is missing model variables: {missing}")
        for variable, state in self.healthy_states.items():
            table = model.state_table(variable)
            if state not in table.labels:
                raise ModelBuildError(
                    f"healthy state {state!r} of {variable!r} is not one of its "
                    f"usable states {table.labels}")
        for name, value in (("healthy_given_healthy", healthy_given_healthy),
                            ("healthy_given_faulty", healthy_given_faulty),
                            ("root_healthy", root_healthy)):
            if not 0.0 < value < 1.0:
                raise ModelBuildError(f"{name} must be in (0, 1), got {value}")
        self.healthy_given_healthy = float(healthy_given_healthy)
        self.healthy_given_faulty = float(healthy_given_faulty)
        self.root_healthy = float(root_healthy)

    # --------------------------------------------------------------- structure
    def build_structure(self) -> BayesianNetwork:
        """Return the bare BBN structure (nodes and dependency arcs, no CPTs).

        The structure depends only on the (immutable) model description, so
        the acyclicity-checked construction runs once; later calls return an
        independent copy of the cached DAG.
        """
        cached = self.__dict__.get("_structure_cache")
        if cached is None:
            cached = BayesianNetwork(nodes=self.model.variable_names)
            for parent, child in self.model.dependencies:
                cached.add_edge(parent, child)
            self.__dict__["_structure_cache"] = cached
        return cached.copy()

    # ------------------------------------------------------------------ priors
    def _prior_cpd(self, network: BayesianNetwork, node: str) -> TabularCPD:
        table_def = self.model.state_table(node)
        labels = table_def.labels
        cardinality = table_def.cardinality
        healthy_index = labels.index(self.healthy_states[node])
        parents = network.parents(node)
        parent_tables = [self.model.state_table(p) for p in parents]
        parent_cards = [t.cardinality for t in parent_tables]
        state_names = {node: labels}
        state_names.update({p: t.labels for p, t in zip(parents, parent_tables)})

        if not parents:
            column = np.full(cardinality, (1.0 - self.root_healthy) / (cardinality - 1))
            column[healthy_index] = self.root_healthy
            return TabularCPD(node, cardinality, column.reshape(-1, 1),
                              state_names={node: labels})

        columns = math.prod(parent_cards)
        table = np.empty((cardinality, columns))
        healthy_parent_indices = [
            t.labels.index(self.healthy_states[p])
            for p, t in zip(parents, parent_tables)]
        for column in range(columns):
            # Decode the column into per-parent state indices (last parent
            # varies fastest, matching TabularCPD's convention).
            remainder = column
            indices = [0] * len(parents)
            for position in range(len(parents) - 1, -1, -1):
                indices[position] = remainder % parent_cards[position]
                remainder //= parent_cards[position]
            all_parents_healthy = all(
                index == healthy
                for index, healthy in zip(indices, healthy_parent_indices))
            healthy_probability = (self.healthy_given_healthy if all_parents_healthy
                                   else self.healthy_given_faulty)
            distribution = np.full(
                cardinality, (1.0 - healthy_probability) / (cardinality - 1))
            distribution[healthy_index] = healthy_probability
            table[:, column] = distribution
        return TabularCPD(node, cardinality, table, parents, parent_cards,
                          state_names)

    def designer_prior_network(self) -> BayesianNetwork:
        """Return the designer-estimate network (structure + prior CPTs).

        The prior encodes the health-propagation intuition a product designer
        supplies: a block is almost certainly in its operational state when
        its parents are, and most probably not when any parent is broken.

        The prior depends only on the (immutable) model description and the
        builder's health parameters, so it is generated once and copied per
        call.
        """
        cached = self.__dict__.get("_designer_prior_cache")
        if cached is None:
            cached = self.build_structure()
            for node in cached.nodes:
                cached.add_cpd(self._prior_cpd(cached, node))
            cached.check_model()
            self.__dict__["_designer_prior_cache"] = cached
        return cached.copy()

    # ---------------------------------------------------------------- building
    def case_generator(self, include_internal: bool = False) -> CaseGenerator:
        """Return a case generator bound to this circuit model."""
        return CaseGenerator(self.model, include_internal=include_internal)

    def build(self, cases: Sequence[LabeledCase | Case] | CaseMatrix = (),
              method: str = "em",
              prior_network: BayesianNetwork | None = None,
              equivalent_sample_size: float = 20.0,
              max_iterations: int = 20) -> BuiltModel:
        """Build the BBN circuit model.

        Parameters
        ----------
        cases:
            Learning cases (labelled, plain, or an integer-encoded
            :class:`CaseMatrix` — the array-native fast path).  With no
            cases the designer prior is returned unchanged — the model is
            still usable, just not fine-tuned.
        method:
            ``"em"`` (default; handles unknown internal states),
            ``"bayes"`` (Dirichlet updating of the prior; unknown states are
            simply not counted) or ``"mle"`` (pure counting, no prior).
        prior_network:
            Designer prior; generated from the healthy-state annotation when
            omitted.
        equivalent_sample_size:
            Pseudo-count weight of the prior during fine-tuning.
        max_iterations:
            EM iteration cap (ignored by the other methods).
        """
        if method not in ("em", "bayes", "mle"):
            raise ModelBuildError(
                f"unknown learning method {method!r}; use 'em', 'bayes' or 'mle'")
        if isinstance(cases, CaseMatrix):
            fit_cases: CaseMatrix | list[Case] = cases
        else:
            plain_cases: list[Case] = []
            for case in cases:
                if isinstance(case, LabeledCase):
                    plain_cases.append(dict(case.assignments))
                else:
                    plain_cases.append(dict(case))
            fit_cases = plain_cases

        if prior_network is not None:
            validate_built_network(self.model, prior_network,
                                   context="supplied prior network")
            prior = prior_network.copy()
        else:
            prior = self.designer_prior_network()
        structure = self.build_structure()
        cardinalities = self.model.cardinalities()
        state_names = self.model.state_names()

        case_count = len(fit_cases)
        if case_count == 0:
            network = prior.copy()
        elif method == "em":
            learner = ExpectationMaximization(
                structure, initial_network=prior, prior_network=prior,
                equivalent_sample_size=equivalent_sample_size,
                cardinalities=cardinalities, state_names=state_names,
                max_iterations=max_iterations)
            network = learner.fit(fit_cases)
        elif method == "bayes":
            learner = BayesianEstimator(
                structure, prior_network=prior,
                equivalent_sample_size=equivalent_sample_size,
                cardinalities=cardinalities, state_names=state_names)
            network = learner.fit(fit_cases)
        else:
            learner = MaximumLikelihoodEstimator(
                structure, cardinalities=cardinalities, state_names=state_names)
            network = learner.fit(fit_cases)

        validate_built_network(self.model, network,
                               context=f"network learned with {method!r}"
                               if case_count else "designer prior network")
        return BuiltModel(description=self.model, network=network,
                          prior_network=prior,
                          discretizer=self.model.discretizer(),
                          healthy_states=dict(self.healthy_states),
                          training_case_count=case_count)
