"""Behaviour-informed designer priors for the BBN circuit model.

In the paper "the product designer initially provided a rough estimate of the
conditional probability tables for all circuit model variables".  A designer
produces that estimate by mentally simulating the block: *"if the battery is
at its nominal level and the bandgap is good and the enable is active, the
regulator output will sit in its regulation window — unless the regulator
itself is broken."*

:class:`BehavioralPriorBuilder` automates exactly that reasoning against the
behavioural netlist: for every child block and every joint parent-state
configuration it

1. places each parent at the representative (mid-window) voltage of its
   state,
2. evaluates the child block's defect-free behaviour and bins the result into
   the child's state table,
3. evaluates the child block under each behavioural fault mode (weighted by a
   per-block fault probability) and bins those results too,
4. mixes the healthy and faulty outcomes into the CPT column.

The result is the "rough estimate" CPT set the learning step then fine-tunes
with ATE cases.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.bayesnet.cpd import TabularCPD
from repro.bayesnet.learning.bayesian_estimator import BayesianEstimator
from repro.bayesnet.learning.case_matrix import CaseMatrix
from repro.bayesnet.network import BayesianNetwork
from repro.circuits.behavioral import BehavioralSimulator
from repro.circuits.components import FAULT_MODE_CODES
from repro.circuits.faults import FaultMode
from repro.circuits.netlist import BlockNetlist
from repro.core.circuit_model import CircuitModelDescription
from repro.exceptions import ModelBuildError
from repro.utils.rng import ensure_rng

#: The fault modes both builders mix in unless told otherwise.
DEFAULT_FAULT_MODES = (FaultMode.DEAD, FaultMode.STUCK_HIGH, FaultMode.DEGRADED)


class _DesignerInputs:
    """The designer's inputs that both prior builders take, checked once.

    ``netlist`` must have a behavioural block for every variable of
    ``model``.  ``fault_probability`` is the prior probability that a block
    is itself defective: one float for every block, or a
    ``{block: probability}`` mapping over model variables, with
    ``default_fault_probability`` for the blocks it leaves out.  Every
    probability must lie in (0, 1), and at least one fault mode is required,
    each a :class:`FaultMode` or its value.  Anything else raises
    :class:`ModelBuildError`.
    """

    def __init__(self, netlist: BlockNetlist, model: CircuitModelDescription,
                 fault_probability: float | Mapping[str, float],
                 default_fault_probability: float,
                 fault_modes: Sequence[FaultMode]) -> None:
        for variable in model.variable_names:
            if variable not in netlist:
                raise ModelBuildError(
                    f"model variable {variable!r} has no behavioural block in the netlist")
        self.netlist = netlist
        self.model = model
        if isinstance(fault_probability, Mapping):
            self._fault_probabilities = {block: float(p)
                                         for block, p in fault_probability.items()}
            unknown = sorted(set(fault_probability) - set(model.variable_names))
            if unknown:
                raise ModelBuildError(
                    f"fault probabilities given for unknown blocks {unknown}")
        else:
            default_fault_probability = fault_probability
            self._fault_probabilities = {}
        self.default_fault_probability = float(default_fault_probability)
        checked = {"default": self.default_fault_probability,
                   **{f"block {block!r}": probability for block, probability
                      in self._fault_probabilities.items()}}
        for what, probability in checked.items():
            if not 0.0 < probability < 1.0:
                raise ModelBuildError(
                    f"{what} fault probability must be in (0, 1), "
                    f"got {probability}")
        if not fault_modes:
            raise ModelBuildError("at least one fault mode is required")
        try:
            self.fault_modes = [FaultMode(mode) for mode in fault_modes]
        except ValueError as error:
            raise ModelBuildError(str(error)) from None

    def fault_probability_of(self, block: str) -> float:
        """Return the prior probability that ``block`` itself is defective."""
        return self._fault_probabilities.get(block, self.default_fault_probability)


class BehavioralPriorBuilder(_DesignerInputs):
    """Derives designer-prior CPTs from a behavioural netlist.

    Parameters
    ----------
    netlist:
        The behavioural netlist; every model variable with parents must be a
        block whose inputs are exactly its BBN parents.
    model:
        The circuit-model description (states and dependencies).
    fault_probability:
        Prior probability that a block is itself defective (the designer's
        "field failure is rare but possible" weight).  Either a single float
        applied to every block or a ``{block: probability}`` mapping — large
        analogue blocks (bandgaps, regulators, the power switch) fail far
        more often in the field than small logic, and the designer knows it.
    default_fault_probability:
        Fallback when ``fault_probability`` is a mapping without an entry for
        a block.
    fault_modes:
        Behavioural fault modes mixed into the faulty part of every column.
    smoothing:
        Small probability mass spread over all states to avoid hard zeros.
    root_priors:
        Optional explicit prior distribution per root (parent-less) variable,
        ``{variable: {state: probability}}``.  Roots without an entry get a
        uniform prior — the tester chooses their state anyway.
    """

    def __init__(self, netlist: BlockNetlist, model: CircuitModelDescription,
                 fault_probability: float | Mapping[str, float] = 0.15,
                 default_fault_probability: float = 0.15,
                 fault_modes: Sequence[FaultMode] = DEFAULT_FAULT_MODES,
                 smoothing: float = 0.02,
                 root_priors: Mapping[str, Mapping[str, float]] | None = None) -> None:
        super().__init__(netlist, model, fault_probability,
                         default_fault_probability, fault_modes)
        if not 0.0 <= smoothing < 0.5:
            raise ModelBuildError(f"smoothing must be in [0, 0.5), got {smoothing}")
        self.smoothing = float(smoothing)
        self.root_priors = {variable: dict(distribution)
                            for variable, distribution in (root_priors or {}).items()}

    def _root_cpd(self, node: str) -> TabularCPD:
        table = self.model.state_table(node)
        labels = table.labels
        if node in self.root_priors:
            distribution = np.array(
                [float(self.root_priors[node].get(label, 0.0)) for label in labels])
            if distribution.sum() <= 0:
                raise ModelBuildError(
                    f"root prior for {node!r} has zero total probability")
            distribution = distribution / distribution.sum()
        else:
            distribution = np.full(len(labels), 1.0 / len(labels))
        return TabularCPD(node, len(labels), distribution.reshape(-1, 1),
                          state_names={node: labels})

    def build_cpd(self, network: BayesianNetwork, node: str) -> TabularCPD:
        """Return the behaviour-informed prior CPD of ``node``.

        Every parent configuration is one device of a batch: each parent sits
        at its state's representative voltage, and the child block is
        evaluated once healthy and once per fault mode over all of them.
        """
        parents = network.parents(node)
        if not parents:
            return self._root_cpd(node)
        parent_tables = [self.model.state_table(p) for p in parents]
        parent_cards = [t.cardinality for t in parent_tables]
        child_table = self.model.state_table(node)
        columns = int(np.prod(parent_cards))
        every = np.arange(columns)
        # Column c is the parent configuration np.unravel_index(c, cards):
        # the last parent's state varies fastest.
        states = np.unravel_index(every, parent_cards)
        voltages = {
            parent: np.array([table.representative_value(label)
                              for label in table.labels])[indices]
            for parent, table, indices in zip(parents, parent_tables, states)}
        block = self.netlist.block(node)
        # Blocks may read nets that are not BBN parents (there are none in the
        # shipped circuits, but be defensive): default any missing input to 0.
        inputs = {net: voltages.get(net, np.zeros(columns))
                  for net in block.inputs}

        fault_probability = self.fault_probability_of(node)
        cardinality = child_table.cardinality
        matrix = np.full((cardinality, columns), self.smoothing / cardinality)
        healthy = block.evaluate_batch(inputs, size=columns)
        matrix[child_table.classify_indices(healthy), every] += (
            (1.0 - self.smoothing) * (1.0 - fault_probability))
        per_mode = (1.0 - self.smoothing) * fault_probability / len(self.fault_modes)
        severities = np.ones(columns)
        for mode in self.fault_modes:
            modes = np.full(columns, FAULT_MODE_CODES[mode.value], dtype=np.int8)
            faulty = block.evaluate_batch(inputs, modes, severities, size=columns)
            matrix[child_table.classify_indices(faulty), every] += per_mode
        matrix /= matrix.sum(axis=0)
        state_names = {node: child_table.labels}
        state_names.update({p: t.labels for p, t in zip(parents, parent_tables)})
        return TabularCPD(node, child_table.cardinality, matrix, parents,
                          parent_cards, state_names)

    # ----------------------------------------------------------------- network
    def build(self) -> BayesianNetwork:
        """Return the full designer-prior network (structure + prior CPTs)."""
        network = BayesianNetwork(nodes=self.model.variable_names)
        for parent, child in self.model.dependencies:
            network.add_edge(parent, child)
        for node in network.nodes:
            network.add_cpd(self.build_cpd(network, node))
        network.check_model()
        return network


class SimulationPriorBuilder(_DesignerInputs):
    """Derives designer-prior CPTs from Monte-Carlo behavioural simulation.

    Where :class:`BehavioralPriorBuilder` evaluates each block in isolation
    at representative parent voltages (fast but crude — the mid-point of a
    wide acceptance window such as "hcbg good: 1.1–100 V" is nothing like the
    voltage a healthy bandgap actually produces),
    :class:`SimulationPriorBuilder` simulates the *whole* circuit:

    1. every block's health is drawn independently from the designer's
       per-block fault probability (and a random fault mode),
    2. the circuit is evaluated under each of the supplied test conditions,
       with process variation and measurement noise,
    3. every net — internal nets included, since this is a simulation — is
       discretised into its model states, giving a fully observed case,
    4. the CPTs are fitted to those cases with Dirichlet smoothing.

    The result is the faithful formalisation of "the product designer
    provided a rough estimate of the conditional probability tables": the
    designer's estimate comes from simulating the design.

    Every random quantity of step 1 and 2 is drawn for the whole population
    at once, as ``(devices, blocks)`` arrays.  A fixed seed reproduces the
    same prior; the draw order is array-major, so the prior is not the one
    a device-by-device draw with the same seed would give.

    Parameters
    ----------
    netlist / model:
        The behavioural netlist and the circuit-model description.
    condition_sets:
        Forced-voltage dictionaries (one per test condition) cycled through
        during simulation; typically the condition sets of the functional
        test program.
    fault_probability / default_fault_probability:
        Per-block (or scalar) prior probability that a block is defective,
        as for :class:`BehavioralPriorBuilder`.
    fault_modes:
        Fault modes sampled for defective blocks.
    samples:
        Number of simulated devices.
    equivalent_sample_size:
        Dirichlet smoothing weight of the uniform prior mixed into the fitted
        CPTs (keeps unseen configurations non-degenerate).
    measurement_noise / process_variation / seed:
        Passed to the behavioural simulator.
    """

    def __init__(self, netlist: BlockNetlist, model: CircuitModelDescription,
                 condition_sets: Sequence[Mapping[str, float]],
                 fault_probability: float | Mapping[str, float] = 0.15,
                 default_fault_probability: float = 0.15,
                 fault_modes: Sequence[FaultMode] = DEFAULT_FAULT_MODES,
                 samples: int = 2000,
                 equivalent_sample_size: float = 4.0,
                 measurement_noise: float = 0.01,
                 process_variation=None,
                 seed: int | np.random.Generator | None = None) -> None:
        if not condition_sets:
            raise ModelBuildError("at least one condition set is required")
        if samples < 1:
            raise ModelBuildError("samples must be at least 1")
        super().__init__(netlist, model, fault_probability,
                         default_fault_probability, fault_modes)
        self.condition_sets = [dict(c) for c in condition_sets]
        self.samples = int(samples)
        self.equivalent_sample_size = float(equivalent_sample_size)
        self._rng = ensure_rng(seed)
        self._simulator = BehavioralSimulator(
            netlist, measurement_noise=measurement_noise,
            process_variation=process_variation, seed=self._rng)

    def _draw_modes(self, count: int) -> np.ndarray:
        """Draw every device's block faults as a ``(devices, blocks)`` plane.

        Each non-controllable model variable is defective with its designer
        fault probability; a defective block gets one of :attr:`fault_modes`
        uniformly.  Entries are :data:`FAULT_MODE_CODES` values in plan
        column order (0 = healthy).
        """
        plan = self._simulator.plan
        faultable = [variable for variable in self.model.variable_names
                     if not self.model.variable(variable).is_controllable]
        codes = [FAULT_MODE_CODES[mode.value] for mode in self.fault_modes]
        probabilities = np.array([self.fault_probability_of(variable)
                                  for variable in faultable])
        faulty = self._rng.random((count, len(faultable))) < probabilities
        drawn = self._rng.integers(len(codes), size=(count, len(faultable)))
        modes = np.zeros((count, plan.block_count), dtype=np.int8)
        modes[:, [plan.column[variable] for variable in faultable]] = np.where(
            faulty, np.array(codes, dtype=np.int8)[drawn], 0)
        return modes

    def simulate_case_matrix(self) -> CaseMatrix:
        """Simulate the population and return the cases as a code matrix.

        Faults, fault modes, process-variation multipliers and measurement
        noise are drawn as whole ``(devices, blocks)`` arrays, and every
        circuit evaluation runs in one batched pass over the blocks.  A
        fresh builder with the same seed yields the same cases; the
        distribution is that of drawing one device at a time, but the
        random stream is not.
        """
        sim = self._simulator
        plan = sim.plan
        count = self.samples
        blocks = plan.block_count
        modes = self._draw_modes(count)
        severities = np.ones((count, blocks))
        multipliers = sim.sample_devices(count)
        noise = (self._rng.normal(0.0, sim.measurement_noise,
                                  size=(count, blocks))
                 if sim.measurement_noise > 0 else None)

        sets = self.condition_sets
        forced = set(sets[0])
        if all(set(conditions) == forced for conditions in sets):
            cycle = np.arange(count) % len(sets)
            condition_arrays = {
                net: np.array([float(conditions[net])
                               for conditions in sets])[cycle]
                for net in forced}
            voltages = plan.evaluate(condition_arrays, count, modes,
                                     severities, multipliers, noise)
        else:
            voltages = np.empty((count, blocks))
            for offset, conditions in enumerate(sets):
                rows = np.arange(offset, count, len(sets))
                condition_arrays = {net: np.full(len(rows), float(value))
                                    for net, value in conditions.items()}
                voltages[rows] = plan.evaluate(
                    condition_arrays, len(rows), modes[rows],
                    severities[rows], multipliers[rows],
                    None if noise is None else noise[rows])

        variables = list(self.model.variable_names)
        codes = np.empty((count, len(variables)), dtype=np.int16)
        for column, variable in enumerate(variables):
            table = self.model.state_table(variable)
            codes[:, column] = table.classify_indices(
                voltages[:, plan.column[variable]])
        return CaseMatrix(variables, codes, self.model.state_names())

    def build(self) -> BayesianNetwork:
        """Return the designer-prior network fitted to the simulated cases."""
        structure = BayesianNetwork(nodes=self.model.variable_names)
        for parent, child in self.model.dependencies:
            structure.add_edge(parent, child)
        estimator = BayesianEstimator(
            structure, prior_network=None,
            equivalent_sample_size=self.equivalent_sample_size,
            cardinalities=self.model.cardinalities(),
            state_names=self.model.state_names())
        return estimator.fit(self.simulate_case_matrix())
