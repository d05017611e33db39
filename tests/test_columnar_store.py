"""Columnar-vs-row equivalence suite for the array-native learning path.

The `DeviceResultStore` → `CaseMatrix` → `np.bincount` pipeline must be a
drop-in replacement for the row-based one: identical state counts (exact
integer equality), identical learned CPTs (1e-12), identical provenance, and
lossless round trips between the store, per-device result rows and the ASCII
datalog format — including populations that carry masked-fault and passing
devices whose case rows never observe a failure.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.ate import (
    DeviceResultStore,
    parse_datalog,
    read_columnar,
    store_from_datalogs,
    write_datalog,
)
from repro.bayesnet import BayesianEstimator, CaseMatrix, MaximumLikelihoodEstimator
from repro.core import CaseGenerator, Dlog2BBN
from repro.exceptions import DatalogError

#: Record defects that both datalog readers find with their one field
#: splitter and one COND parser: the edit to a record line and the message
#: each reader gives for it.
FIELD_DEFECTS = [
    pytest.param(r"\|RESULT=[^|]*", "", "missing fields ['RESULT']",
                 id="missing-field"),
    pytest.param(r"\|UNITS=", "|UNITS", "malformed datalog field 'UNITSV'",
                 id="field-without-equals"),
]
RECORD_DEFECTS = [
    *FIELD_DEFECTS,
    pytest.param(r"\|LO=[^|]*", "|LO=low", "cannot parse numeric field",
                 id="non-numeric-bound"),
    pytest.param(r"\|COND=.*", "|COND=vp1:abc",
                 "malformed condition 'vp1:abc'", id="non-numeric-condition"),
    pytest.param(r"\|COND=.*", "|COND=vp1", "malformed condition 'vp1'",
                 id="condition-without-colon"),
    pytest.param(r"\|COND=.*", "|COND=:1.5", "malformed condition ':1.5'",
                 id="condition-without-block"),
    pytest.param(r"\|COND=.*", "|COND=vp1:", "malformed condition 'vp1:'",
                 id="condition-without-value"),
]


@pytest.fixture(scope="module")
def builder(regulator_circuit):
    return Dlog2BBN(regulator_circuit.model, regulator_circuit.healthy_states)


@pytest.fixture(scope="module")
def structure(builder, regulator_circuit):
    """The regulator structure with a uniform schema for the estimators."""
    return builder.build_structure().with_uniform_cpds(
        regulator_circuit.model.cardinalities(),
        regulator_circuit.model.state_names())


@pytest.fixture(scope="module")
def row_cases(builder, regulator_population):
    return builder.case_generator().cases_from_results(
        regulator_population.results)


@pytest.fixture(scope="module")
def matrix(builder, regulator_population):
    return builder.case_generator().case_matrix(
        regulator_population.to_store())


class TestStateCountEquality:
    def test_counts_match_exactly_per_node(self, structure, row_cases, matrix):
        estimator = MaximumLikelihoodEstimator(structure)
        plain = CaseGenerator.as_learning_cases(row_cases)
        for node in structure.nodes:
            row_counts = estimator.state_counts(plain, node)
            matrix_counts = estimator.state_counts(matrix, node)
            assert np.array_equal(row_counts, matrix_counts), node

    def test_counts_are_integers_summing_to_observed_cases(self, structure,
                                                           matrix):
        estimator = MaximumLikelihoodEstimator(structure)
        for node in structure.nodes:
            counts = estimator.state_counts(matrix, node)
            assert np.array_equal(counts, np.round(counts))
            assert counts.sum() <= len(matrix)

    def test_missing_values_skip_rows_like_dict_path(self, sprinkler_network):
        cases = [
            {"cloudy": "0", "rain": "1", "sprinkler": None, "wet": "1"},
            {"cloudy": "1", "rain": None, "sprinkler": "0", "wet": "0"},
            {"cloudy": None, "rain": "0", "sprinkler": "0", "wet": "0"},
            {"cloudy": "0", "rain": "0", "sprinkler": "1", "wet": "1"},
        ]
        names = {node: sprinkler_network.get_cpd(node).state_names[node]
                 for node in sprinkler_network.nodes}
        encoded = CaseMatrix.from_cases(cases, names)
        estimator = MaximumLikelihoodEstimator(sprinkler_network)
        for node in sprinkler_network.nodes:
            assert np.array_equal(estimator.state_counts(cases, node),
                                  estimator.state_counts(encoded, node)), node


class TestFitEquality:
    def test_mle_cpts_match(self, structure, row_cases, matrix):
        estimator = MaximumLikelihoodEstimator(structure)
        from_rows = estimator.fit(CaseGenerator.as_learning_cases(row_cases))
        from_matrix = estimator.fit(matrix)
        for node in structure.nodes:
            difference = np.abs(from_rows.get_cpd(node).table
                                - from_matrix.get_cpd(node).table)
            assert difference.max() <= 1e-12, node

    def test_bayes_cpts_match(self, structure, regulator_prior, row_cases,
                              matrix):
        estimator = BayesianEstimator(structure,
                                      prior_network=regulator_prior,
                                      equivalent_sample_size=200)
        from_rows = estimator.fit(CaseGenerator.as_learning_cases(row_cases))
        from_matrix = estimator.fit(matrix)
        for node in structure.nodes:
            difference = np.abs(from_rows.get_cpd(node).table
                                - from_matrix.get_cpd(node).table)
            assert difference.max() <= 1e-12, node

    def test_built_models_match_through_dlog2bbn(self, builder,
                                                 regulator_prior, row_cases,
                                                 regulator_population):
        from_rows = builder.build(row_cases, method="bayes",
                                  prior_network=regulator_prior,
                                  equivalent_sample_size=200)
        from_matrix = builder.build(
            builder.case_generator().case_matrix(
                regulator_population.to_store()),
            method="bayes", prior_network=regulator_prior,
            equivalent_sample_size=200)
        for node in from_rows.network.nodes:
            difference = np.abs(from_rows.network.get_cpd(node).table
                                - from_matrix.network.get_cpd(node).table)
            assert difference.max() <= 1e-12, node


class TestCaseMatrixProvenance:
    def test_matrix_rows_match_labeled_cases(self, row_cases, matrix):
        assert len(matrix) == len(row_cases)
        assert list(matrix.device_ids) == [case.device_id
                                           for case in row_cases]
        assert list(matrix.condition_labels) == [case.condition_label
                                                 for case in row_cases]
        assert np.array_equal(matrix.failed,
                              np.array([case.failed for case in row_cases]))

    def test_matrix_decodes_to_identical_assignments(self, row_cases, matrix):
        for decoded, case in zip(matrix.to_labeled_cases(), row_cases):
            assert decoded.assignments == case.assignments

    def test_failing_devices_filter_matches_row_filter(self, builder,
                                                       regulator_population):
        generator = builder.case_generator()
        filtered_rows = generator.cases_from_results(
            regulator_population.results, only_failing_devices=True)
        filtered_matrix = generator.case_matrix(
            regulator_population.to_store(), only_failing_devices=True)
        assert len(filtered_matrix) == len(filtered_rows)
        assert list(filtered_matrix.device_ids) == [case.device_id
                                                    for case in filtered_rows]
        for decoded, case in zip(filtered_matrix.to_labeled_cases(),
                                 filtered_rows):
            assert decoded.assignments == case.assignments

    def test_masked_fault_devices_produce_unfailed_rows(self, matrix,
                                                        regulator_population):
        """Passing devices appear in the matrix with no failing case rows."""
        passing = {result.device_id
                   for result in regulator_population.passing_results}
        assert passing  # fixture generates 5 defect-free devices
        rows = np.array([device_id in passing
                         for device_id in matrix.device_ids])
        assert rows.any()
        assert not matrix.failed[rows].any()


class TestStoreRoundTrips:
    def test_store_to_rows_to_store(self, regulator_population):
        store = regulator_population.to_store()
        rebuilt = DeviceResultStore.from_results(store.to_results())
        assert np.array_equal(store.values, rebuilt.values)
        assert np.array_equal(store.passed, rebuilt.passed)
        assert [str(d) for d in store.device_ids] \
            == [str(d) for d in rebuilt.device_ids]
        assert list(store.test_numbers) == list(rebuilt.test_numbers)
        assert store.blocks == rebuilt.blocks
        assert np.array_equal(store.fault_index, rebuilt.fault_index)
        assert list(store.fault_blocks) == list(rebuilt.fault_blocks)
        assert list(store.fault_modes) == list(rebuilt.fault_modes)

    def test_store_to_datalog_to_store(self, regulator_population, tmp_path):
        store = regulator_population.to_store()
        path = write_datalog(regulator_population.to_datalogs(),
                             tmp_path / "population.dlog")
        rebuilt = store_from_datalogs(parse_datalog(path))
        # VALUE is serialised with 6 significant digits; verdicts, identity
        # and fault labels survive the text format exactly.
        assert store.values == pytest.approx(rebuilt.values, rel=1e-5)
        assert np.array_equal(store.passed, rebuilt.passed)
        assert [str(d) for d in store.device_ids] \
            == [str(d) for d in rebuilt.device_ids]
        # Severity is not serialised by the fault label format.
        assert np.array_equal(store.fault_index, rebuilt.fault_index)
        assert list(store.fault_blocks) == list(rebuilt.fault_blocks)
        assert list(store.fault_modes) == list(rebuilt.fault_modes)

    def test_read_columnar_matches_row_parser(self, regulator_population,
                                              tmp_path):
        path = write_datalog(regulator_population.to_datalogs(),
                             tmp_path / "population.dlog")
        rowwise = store_from_datalogs(parse_datalog(path))
        streamed = read_columnar(path)
        # Both parse the same text, so the planes must be bit-identical.
        assert np.array_equal(rowwise.values, streamed.values)
        assert np.array_equal(rowwise.passed, streamed.passed)
        assert [str(d) for d in rowwise.device_ids] \
            == [str(d) for d in streamed.device_ids]
        assert list(rowwise.test_numbers) == list(streamed.test_numbers)
        assert rowwise.test_names == streamed.test_names
        assert rowwise.blocks == streamed.blocks
        assert rowwise.conditions == streamed.conditions
        assert np.array_equal(rowwise.fault_index, streamed.fault_index)
        assert list(rowwise.fault_blocks) == list(streamed.fault_blocks)
        assert list(rowwise.fault_modes) == list(streamed.fault_modes)

    def test_fits_agree_across_every_ingestion_path(self, builder, structure,
                                                    regulator_population,
                                                    tmp_path):
        """Store, result rows and the two datalog readers learn alike."""
        generator = builder.case_generator()
        estimator = MaximumLikelihoodEstimator(structure)
        path = write_datalog(regulator_population.to_datalogs(),
                             tmp_path / "population.dlog")
        reference = estimator.fit(
            generator.case_matrix(regulator_population.to_store()))
        from_rows = estimator.fit(
            generator.case_matrix(regulator_population.results))
        from_streamed = estimator.fit(generator.case_matrix(
            read_columnar(path)))
        from_parsed = estimator.fit(generator.case_matrix(
            store_from_datalogs(parse_datalog(path))))
        for node in structure.nodes:
            # Store and result rows hold the same float planes: exact parity.
            assert np.abs(reference.get_cpd(node).table
                          - from_rows.get_cpd(node).table).max() <= 1e-12, node
            # The two datalog readers parse the same text: exact parity.
            assert np.abs(from_streamed.get_cpd(node).table
                          - from_parsed.get_cpd(node).table).max() <= 1e-12, node


class TestSaveLoad:
    def test_save_load_mmap_round_trip(self, regulator_population, tmp_path):
        store = regulator_population.to_store()
        saved = store.save(tmp_path / "store")
        loaded = DeviceResultStore.load(saved)
        # The store constructor wraps without copying: the value plane must
        # still be backed by the memory-mapped .npy file.
        assert isinstance(loaded.values, np.memmap) \
            or isinstance(loaded.values.base, np.memmap)
        assert np.array_equal(store.values, loaded.values)
        assert np.array_equal(store.passed, loaded.passed)
        assert [str(d) for d in store.device_ids] \
            == [str(d) for d in loaded.device_ids]
        assert store.conditions == loaded.conditions
        assert list(store.fault_blocks) == list(loaded.fault_blocks)

    def test_mmap_store_learns_identical_cpts(self, builder, structure,
                                              regulator_population, tmp_path):
        saved = regulator_population.to_store().save(tmp_path / "store")
        loaded = DeviceResultStore.load(saved)
        generator = builder.case_generator()
        estimator = MaximumLikelihoodEstimator(structure)
        reference = estimator.fit(
            generator.case_matrix(regulator_population.to_store()))
        learned = estimator.fit(generator.case_matrix(loaded))
        for node in structure.nodes:
            difference = np.abs(reference.get_cpd(node).table
                                - learned.get_cpd(node).table)
            assert difference.max() <= 1e-12, node


class TestDatalogErrors:
    def test_parse_datalog_reports_line_number(self, regulator_population,
                                               tmp_path):
        path = write_datalog(regulator_population.to_datalogs()[:2],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        lines[4] = "DEVICE=DEV-00001 garbage record"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            parse_datalog(path)
        assert excinfo.value.line_number == 5
        assert excinfo.value.path == str(path)
        assert ":5:" in str(excinfo.value)

    def test_read_columnar_reports_line_number(self, regulator_population,
                                               tmp_path):
        path = write_datalog(regulator_population.to_datalogs()[:2],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        lines[4] = "DEVICE=DEV-00001 garbage record"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            read_columnar(path)
        assert excinfo.value.line_number == 5

    def test_unknown_fault_mode_names_its_comment_line(
            self, regulator_population, tmp_path):
        path = write_datalog(regulator_population.to_datalogs()[:3],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        comment = next(index for index, line in enumerate(lines)
                       if line.startswith("# DEVICE")
                       and index > 0)
        device = lines[comment].split()[2]
        lines[comment] = f"# DEVICE {device} injected_faults=reg4:deaf"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            read_columnar(path)
        assert excinfo.value.line_number == comment + 1

    @pytest.mark.parametrize("reader", [read_columnar, parse_datalog])
    def test_non_ascii_byte_names_its_line(self, regulator_population,
                                           tmp_path, reader):
        path = write_datalog(regulator_population.to_datalogs()[:2],
                             tmp_path / "broken.dlog")
        lines = path.read_bytes().split(b"\n")
        lines[6] = lines[6].replace(b"NAME=", b"NAME=\xb5", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatalogError) as excinfo:
            reader(path)
        assert excinfo.value.line_number == 7

    def test_first_device_program_row_is_checked_where_it_is_read(
            self, regulator_population, tmp_path):
        path = write_datalog(regulator_population.to_datalogs()[:2],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("DEVICE=")
        record, _, conditions = lines[1].partition("|COND=")
        lines[1] = f"{record}|COND=vp1:;{conditions}"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            read_columnar(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("reader", [read_columnar, parse_datalog])
    @pytest.mark.parametrize("pattern, replacement, message", RECORD_DEFECTS)
    def test_program_row_defect_reads_alike(self, regulator_population,
                                            tmp_path, pattern, replacement,
                                            message, reader):
        path = write_datalog(regulator_population.to_datalogs()[:3],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        lines[1], edits = re.subn(pattern, replacement, lines[1])
        assert edits == 1
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            reader(path)
        assert excinfo.value.line_number == 2
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("reader", [read_columnar, parse_datalog])
    @pytest.mark.parametrize("pattern, replacement, message", FIELD_DEFECTS)
    def test_later_device_field_defect_reads_alike(self, regulator_population,
                                                   tmp_path, pattern,
                                                   replacement, message,
                                                   reader):
        path = write_datalog(regulator_population.to_datalogs()[:3],
                             tmp_path / "broken.dlog")
        lines = path.read_text(encoding="ascii").splitlines()
        first_device = lines[1].partition("|")[0]
        index = next(index for index, line in enumerate(lines)
                     if line.startswith("DEVICE=")
                     and not line.startswith(first_device + "|"))
        lines[index], edits = re.subn(pattern, replacement, lines[index])
        assert edits == 1
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(DatalogError) as excinfo:
            reader(path)
        assert excinfo.value.line_number == index + 1
        assert message in str(excinfo.value)
