"""Tests for case generation (Dlog2BBN input) and the model builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ate import parse_datalog, write_datalog
from repro.core import CaseGenerator, Dlog2BBN
from repro.core.behavioral_prior import BehavioralPriorBuilder, SimulationPriorBuilder
from repro.exceptions import ModelBuildError


class TestCaseGeneration:
    def test_one_case_per_condition_set(self, regulator_circuit,
                                         regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        result = regulator_population.results[0]
        cases = generator.cases_from_device_result(result)
        assert len(cases) == 5  # five condition sets in the program
        for case in cases:
            assert set(case.assignments) == set(regulator_circuit.model.variable_names)

    def test_internal_variables_are_unknown(self, regulator_circuit,
                                            regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        cases = generator.cases_from_results(regulator_population.results)
        for case in cases:
            for variable in regulator_circuit.model.internal_variables:
                assert case.assignments[variable] is None

    def test_controllable_and_observable_states_filled(self, regulator_circuit,
                                                       regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        case = generator.cases_from_results(regulator_population.results)[0]
        for variable in regulator_circuit.model.controllable_variables:
            assert case.assignments[variable] is not None
        for variable in regulator_circuit.model.observable_variables:
            assert case.assignments[variable] is not None

    def test_only_failing_devices_filter(self, regulator_circuit,
                                         regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        all_cases = generator.cases_from_results(regulator_population.results)
        failing_only = generator.cases_from_results(regulator_population.results,
                                                    only_failing_devices=True)
        assert len(failing_only) < len(all_cases)

    def test_datalog_path_matches_result_path(self, tmp_path, regulator_circuit,
                                              regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        result = regulator_population.failing_results[0]
        from_results = generator.cases_from_device_result(result)
        path = write_datalog([result.to_datalog()], tmp_path / "log.txt")
        from_datalogs = generator.cases_from_datalog(parse_datalog(path)[0])
        lookup = {case.condition_label: case.assignments for case in from_results}
        for case in from_datalogs:
            assert case.assignments == lookup[case.condition_label]

    def test_as_learning_cases_strips_provenance(self, regulator_circuit,
                                                 regulator_population):
        generator = CaseGenerator(regulator_circuit.model)
        cases = generator.cases_from_results(regulator_population.results[:2])
        plain = CaseGenerator.as_learning_cases(cases)
        assert isinstance(plain[0], dict)
        assert len(plain) == len(cases)


class TestDlog2BBN:
    def test_structure_matches_description(self, regulator_circuit):
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        structure = builder.build_structure()
        assert set(structure.edges) == set(regulator_circuit.model.dependencies)

    def test_missing_healthy_state_rejected(self, regulator_circuit):
        with pytest.raises(ModelBuildError):
            Dlog2BBN(regulator_circuit.model, {"reg1": "1"})

    def test_invalid_healthy_state_rejected(self, regulator_circuit):
        bad = dict(regulator_circuit.healthy_states)
        bad["reg1"] = "9"
        with pytest.raises(ModelBuildError):
            Dlog2BBN(regulator_circuit.model, bad)

    def test_designer_prior_network_is_valid(self, regulator_circuit):
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        prior = builder.designer_prior_network()
        assert prior.check_model()
        # A child with all-healthy parents is most likely healthy.
        cpd = prior.get_cpd("reg1")
        healthy_parents = {p: regulator_circuit.healthy_states[p]
                           for p in cpd.parents}
        assert cpd.probability("1", healthy_parents) > 0.5

    def test_build_without_cases_returns_prior(self, regulator_circuit,
                                               regulator_prior):
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        built = builder.build(prior_network=regulator_prior)
        assert built.training_case_count == 0
        assert built.network.check_model()

    def test_build_with_bayes_updates_cpds(self, regulator_circuit,
                                           regulator_prior,
                                           regulator_population):
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        cases = builder.case_generator().cases_from_results(
            regulator_population.results)
        built = builder.build(cases, method="bayes", prior_network=regulator_prior,
                              equivalent_sample_size=10)
        assert built.training_case_count == len(cases)
        assert built.network.check_model()

    def test_unknown_method_rejected(self, regulator_circuit, regulator_prior):
        builder = Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)
        with pytest.raises(ModelBuildError):
            builder.build([], method="magic", prior_network=regulator_prior)


class TestPriorBuilders:
    def test_behavioral_prior_is_valid_model(self, hypothetical_circuit):
        prior = BehavioralPriorBuilder(hypothetical_circuit.netlist,
                                       hypothetical_circuit.model,
                                       fault_probability=0.1).build()
        assert prior.check_model()
        # Block-2 driven by an operational Block-1 is most likely operational.
        cpd = prior.get_cpd("block2")
        assert cpd.probability("1", {"block1": "2"}) > 0.6

    def test_behavioral_prior_rejects_bad_probability(self, hypothetical_circuit):
        with pytest.raises(ModelBuildError):
            BehavioralPriorBuilder(hypothetical_circuit.netlist,
                                   hypothetical_circuit.model,
                                   fault_probability=1.5)

    def test_simulation_prior_is_valid_model(self, regulator_prior,
                                             regulator_circuit):
        assert regulator_prior.check_model()
        assert set(regulator_prior.nodes) == set(regulator_circuit.model.variable_names)

    def test_simulation_prior_learns_health_propagation(self, regulator_prior,
                                                        regulator_circuit):
        # Under nominal supply and an active enable, reg1 is most likely in
        # regulation; with the enable inferred inactive it is most likely off.
        cpd = regulator_prior.get_cpd("reg1")
        active = {"vp1": "2", "hcbg": "1", "enb13": "1"}
        inactive = {"vp1": "2", "hcbg": "1", "enb13": "0"}
        assert cpd.probability("1", active) > 0.6
        assert cpd.probability("0", inactive) > 0.6

    def test_simulation_prior_requires_conditions(self, regulator_circuit):
        with pytest.raises(ModelBuildError):
            SimulationPriorBuilder(regulator_circuit.netlist,
                                   regulator_circuit.model, condition_sets=[])


class TestBuildTimeValidation:
    """`Dlog2BBN.build` refuses corrupt parameters instead of shipping them."""

    def test_clean_builds_pass(self, regulator_circuit, regulator_prior):
        from repro.core import validate_built_network
        builder = Dlog2BBN(regulator_circuit.model,
                           regulator_circuit.healthy_states)
        built = builder.build([], prior_network=regulator_prior)
        validate_built_network(regulator_circuit.model, built.network)

    def test_nan_prior_rejected(self, regulator_circuit, regulator_prior):
        poisoned = regulator_prior.copy()
        cpd = poisoned.get_cpd("reg1").copy()
        cpd.table[0, 0] = np.nan
        poisoned.add_cpd(cpd)
        builder = Dlog2BBN(regulator_circuit.model,
                           regulator_circuit.healthy_states)
        with pytest.raises(ModelBuildError, match="NaN/inf"):
            builder.build([], prior_network=poisoned)

    def test_unnormalised_prior_rejected(self, regulator_circuit,
                                         regulator_prior):
        poisoned = regulator_prior.copy()
        cpd = poisoned.get_cpd("reg2").copy()
        cpd.table *= 1.7
        poisoned.add_cpd(cpd)
        builder = Dlog2BBN(regulator_circuit.model,
                           regulator_circuit.healthy_states)
        with pytest.raises(ModelBuildError, match="not normalised"):
            builder.build([], prior_network=poisoned)

    def test_negative_prior_rejected(self, regulator_circuit, regulator_prior):
        poisoned = regulator_prior.copy()
        cpd = poisoned.get_cpd("reg3").copy()
        # Negative mass in one state, compensated to keep the column sum at
        # 1.0 — only the sign check can catch this.
        removed = cpd.table[0, 0] + 0.1
        cpd.table[0, 0] = -0.1
        cpd.table[1, 0] += removed
        poisoned.add_cpd(cpd)
        builder = Dlog2BBN(regulator_circuit.model,
                           regulator_circuit.healthy_states)
        with pytest.raises(ModelBuildError, match="negative"):
            builder.build([], prior_network=poisoned)

    def test_wrong_state_labels_rejected(self, regulator_circuit):
        from repro.core import validate_built_network
        builder = Dlog2BBN(regulator_circuit.model,
                           regulator_circuit.healthy_states)
        network = builder.designer_prior_network()
        cpd = network.get_cpd("hcbg").copy()
        cpd.state_names = {**cpd.state_names, "hcbg": ["lo", "hi"]}
        network.add_cpd(cpd)
        with pytest.raises(ModelBuildError, match="state labels"):
            validate_built_network(regulator_circuit.model, network)

    def test_deep_copy_poisoned_in_place_rejected(self, regulator_built_model):
        """No validation verdict survives a deep copy of a validated model."""
        import copy

        from repro.core import validate_built_network
        validate_built_network(regulator_built_model.description,
                               regulator_built_model.network)
        candidate = copy.deepcopy(regulator_built_model)
        candidate.network.get_cpd("reg1").table[0, 0] = np.nan
        with pytest.raises(ModelBuildError, match="NaN"):
            validate_built_network(candidate.description, candidate.network)

    def test_all_defects_collected(self, regulator_circuit, regulator_prior):
        from repro.core import validate_built_network
        poisoned = regulator_prior.copy()
        for variable, factor in (("reg1", np.nan), ("reg2", 1.7)):
            cpd = poisoned.get_cpd(variable).copy()
            if variable == "reg1":
                cpd.table[0, 0] = np.nan
            else:
                cpd.table *= factor
            poisoned.add_cpd(cpd)
        with pytest.raises(ModelBuildError, match="2 issue") as info:
            validate_built_network(regulator_circuit.model, poisoned)
        message = str(info.value)
        assert "reg1" in message and "reg2" in message
