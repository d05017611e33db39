"""Evidence validation, sanitisation and zero-probability structured errors."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bayesnet.inference import (
    GibbsSampling,
    JunctionTree,
    LikelihoodWeighting,
    VariableElimination,
)
from repro.core import DiagnosticCase
from repro.core.blocks import BlockType, ModelVariable
from repro.core.circuit_model import CircuitModelDescription
from repro.core.states import StateDefinition, StateTable
from repro.core.evidence import (
    merge_case_evidence,
    sanitize_evidence,
    validate_evidence,
)
from repro.exceptions import EvidenceError, ImpossibleEvidenceError

#: Deterministically impossible evidence for the sprinkler network:
#: P(wet=1 | sprinkler=0, rain=0) is exactly 0.
IMPOSSIBLE = {"sprinkler": "0", "rain": "0", "wet": "1"}


class TestValidateEvidence:
    def test_clean_evidence_normalised(self, regulator_circuit):
        evidence = validate_evidence(regulator_circuit.model,
                                     {"reg1": 0, "vp1": "2"})
        assert evidence == {"reg1": "0", "vp1": "2"}

    def test_unknown_variable_collected(self, regulator_circuit):
        with pytest.raises(EvidenceError) as info:
            validate_evidence(regulator_circuit.model, {"bogus": "0"})
        (issue,) = info.value.issues
        assert issue.kind == "unknown-variable"
        assert issue.variable == "bogus"

    def test_unknown_state_collected(self, regulator_circuit):
        with pytest.raises(EvidenceError) as info:
            validate_evidence(regulator_circuit.model, {"reg1": "99"})
        (issue,) = info.value.issues
        assert issue.kind == "unknown-state"
        assert "99" in issue.detail or issue.state == "99"

    def test_integers_are_labels_not_indices(self):
        """Strict mode reads an integer by its text; only sanitize mode
        repairs it as a state index."""
        model = CircuitModelDescription(
            "lohi", [ModelVariable("x", BlockType.OBSERVE)],
            [StateTable("x", [StateDefinition("lo", 0.0, 1.0),
                              StateDefinition("hi", 1.0, 2.0)])], [])
        with pytest.raises(EvidenceError) as info:
            validate_evidence(model, {"x": 1})
        assert [issue.kind for issue in info.value.issues] == ["unknown-state"]
        clean, issues = sanitize_evidence(model, {"x": np.int64(1)})
        assert clean == {"x": "hi"}
        assert [issue.kind for issue in issues] == ["repaired-state"]
        # Where a label spells the integer, both modes read that label,
        # not the state at the integer's index.
        spelled = CircuitModelDescription(
            "spelled", [ModelVariable("x", BlockType.OBSERVE)],
            [StateTable("x", [StateDefinition("1", 0.0, 1.0),
                              StateDefinition("0", 1.0, 2.0)])], [])
        assert validate_evidence(spelled, {"x": 0}) == {"x": "0"}
        assert sanitize_evidence(spelled, {"x": np.int64(0)}) \
            == ({"x": "0"}, ())

    def test_all_defects_reported_at_once(self, regulator_circuit):
        with pytest.raises(EvidenceError) as info:
            validate_evidence(regulator_circuit.model,
                              {"bogus": "0", "reg1": "99", "vp1": "2"})
        kinds = sorted(issue.kind for issue in info.value.issues)
        assert kinds == ["unknown-state", "unknown-variable"]


class TestSanitizeEvidence:
    def test_clean_evidence_untouched(self, regulator_circuit):
        clean, issues = sanitize_evidence(regulator_circuit.model,
                                          {"reg1": "0", "vp1": "2"})
        assert clean == {"reg1": "0", "vp1": "2"}
        assert issues == ()

    def test_unknown_variable_dropped(self, regulator_circuit):
        clean, issues = sanitize_evidence(regulator_circuit.model,
                                          {"bogus": "0", "vp1": "2"})
        assert clean == {"vp1": "2"}
        assert [issue.kind for issue in issues] == ["unknown-variable"]

    def test_whitespace_and_index_repaired(self, regulator_circuit):
        reg1_labels = regulator_circuit.model.state_table("reg1").labels
        clean, issues = sanitize_evidence(
            regulator_circuit.model, {"vp1": " 2 ", "reg1": 0})
        assert clean["vp1"] == "2"
        assert clean["reg1"] == reg1_labels[0]
        assert all(issue.kind == "repaired-state" for issue in issues)

    def test_hopeless_state_dropped(self, regulator_circuit):
        clean, issues = sanitize_evidence(regulator_circuit.model,
                                          {"vp1": "not-a-state"})
        assert clean == {}
        assert [issue.kind for issue in issues] == ["unknown-state"]


class TestConflictingEntries:
    def test_merge_conflict_raises(self):
        with pytest.raises(EvidenceError) as info:
            merge_case_evidence({"vp1": "2"}, {"vp1": "0"})
        (issue,) = info.value.issues
        assert issue.kind == "conflicting-entry"
        assert issue.variable == "vp1"

    def test_agreeing_duplicate_merges(self):
        assert merge_case_evidence({"vp1": "2"}, {"vp1": "2"}) == {"vp1": "2"}

    def test_case_evidence_detects_conflict(self):
        case = DiagnosticCase(name="poisoned",
                              controllable_states={"vp1": "2"},
                              observable_states={"vp1": "0"})
        with pytest.raises(EvidenceError):
            case.evidence()
        # The unchecked accessor still works for logging.
        assert case.raw_evidence() == {"vp1": "0"}


#: Names the regulator model does not have, next to a few of its own.
UNKNOWN_NAMES = ("bogus", "VP1", "reg9")
KNOWN_NAMES = ("vp1", "vp2", "enb13_pin", "reg1", "reg2", "sw", "enbsw")


@st.composite
def messy_values(draw, labels: tuple[str, ...]):
    """A label, an integer (Python or numpy, in or out of range), a label
    with stray whitespace or another letter case, or junk."""
    card = len(labels)
    return draw(st.one_of(
        st.sampled_from(labels),
        st.integers(-2, card + 1),
        st.integers(-2, card + 1).map(np.int64),
        st.sampled_from(labels).map(lambda label: f" {label}\t"),
        st.sampled_from(labels).map(str.upper),
        st.sampled_from(["nope", "99", "", "Nope"])))


@st.composite
def messy_cases(draw, model):
    """Raw mappings and two-section cases; shared names make conflicts."""
    labels = model.state_names()

    def section():
        names = draw(st.lists(st.sampled_from(KNOWN_NAMES + UNKNOWN_NAMES),
                              unique=True, max_size=6))
        return {name: draw(messy_values(tuple(labels.get(name, ("0", "1")))))
                for name in names}

    first = section()
    if draw(st.booleans()):
        return first, {}, first
    second = section()
    return first, second, DiagnosticCase(name="messy",
                                         controllable_states=first,
                                         observable_states=second)


def expected_reading(model, first, second, repair: bool):
    """The oracle: ``(clean, {variable: issue kind})`` per the codec's rule."""
    labels = {name: list(states)
              for name, states in model.state_names().items()}
    kinds: dict[str, str] = {}
    merged = dict(first)
    for name, value in second.items():
        if name not in first:
            merged[name] = value
        elif str(first[name]) != str(value):
            kinds[name] = "conflicting-entry"
            del merged[name]
    clean = {}
    for name, value in merged.items():
        if name not in labels:
            kinds[name] = "unknown-variable"
            continue
        states = labels[name]
        if str(value) in states:
            clean[name] = str(value)
            continue
        label = None
        if repair and isinstance(value, (int, np.integer)):
            label = states[value] if 0 <= value < len(states) else None
        elif repair:
            text = str(value).strip()
            folded = [state for state in states
                      if state.lower() == text.lower()]
            label = text if text in states else (
                folded[0] if len(folded) == 1 else None)
        if label is None:
            kinds[name] = "unknown-state"
        else:
            kinds[name] = "repaired-state"
            clean[name] = label
    return clean, kinds


class TestCodecProperties:
    """The model codec on drawn messy evidence (the serving boundary)."""

    @given(data=st.data())
    def test_strict_mode_names_every_bad_entry_once(self, regulator_circuit,
                                                    data):
        model = regulator_circuit.model
        first, second, evidence = data.draw(messy_cases(model))
        clean, kinds = expected_reading(model, first, second, repair=False)
        if not kinds:
            assert validate_evidence(model, evidence) == clean
            return
        with pytest.raises(EvidenceError) as info:
            validate_evidence(model, evidence)
        named = sorted((issue.variable, issue.kind)
                       for issue in info.value.issues)
        assert named == sorted(kinds.items())

    @given(data=st.data())
    def test_sanitize_mode_returns_legal_labels(self, regulator_circuit,
                                                data):
        model = regulator_circuit.model
        first, second, evidence = data.draw(messy_cases(model))
        clean, kinds = expected_reading(model, first, second, repair=True)
        result, issues = sanitize_evidence(model, evidence)
        assert result == clean
        for name, label in result.items():
            assert label in model.state_table(name).labels
        named = sorted((issue.variable, issue.kind) for issue in issues)
        assert named == sorted(kinds.items())

    def test_conflict_and_unknown_entries_reported_together(
            self, regulator_engine):
        case = DiagnosticCase(name="both", controllable_states={"vp1": "2"},
                              observable_states={"vp1": "0", "nope": "1"})
        with pytest.raises(EvidenceError) as info:
            regulator_engine.diagnose(case)
        assert sorted(issue.kind for issue in info.value.issues) == [
            "conflicting-entry", "unknown-variable"]


def _assert_no_nan(posteriors: dict) -> None:
    for distribution in posteriors.values():
        for probability in distribution.values():
            assert math.isfinite(probability)


class TestZeroProbabilityEvidence:
    """All four engines refuse impossible evidence with a structured error."""

    def test_variable_elimination(self, sprinkler_network):
        engine = VariableElimination(sprinkler_network)
        with pytest.raises(ImpossibleEvidenceError) as info:
            engine.posteriors(["cloudy"], IMPOSSIBLE)
        assert info.value.evidence == IMPOSSIBLE
        with pytest.raises(ImpossibleEvidenceError):
            engine.posterior("cloudy", IMPOSSIBLE)
        with pytest.raises(ImpossibleEvidenceError):
            engine.query(["cloudy"], IMPOSSIBLE)

    def test_junction_tree(self, sprinkler_network):
        engine = JunctionTree(sprinkler_network)
        with pytest.raises(ImpossibleEvidenceError) as info:
            engine.posteriors(["cloudy"], IMPOSSIBLE)
        assert info.value.evidence == IMPOSSIBLE

    def test_likelihood_weighting(self, sprinkler_network):
        engine = LikelihoodWeighting(sprinkler_network, num_samples=500, seed=0)
        with pytest.raises(ImpossibleEvidenceError):
            engine.posteriors(["cloudy"], IMPOSSIBLE)
        assert engine.last_effective_sample_size == 0.0

    def test_gibbs(self, sprinkler_network):
        engine = GibbsSampling(sprinkler_network, num_samples=100,
                               burn_in=10, seed=0)
        with pytest.raises(ImpossibleEvidenceError):
            engine.posteriors(["cloudy"], IMPOSSIBLE)

    def test_possible_evidence_still_clean(self, sprinkler_network):
        """The zero-probability guards do not fire on valid evidence."""
        evidence = {"sprinkler": "0", "rain": "1", "wet": "1"}
        for engine in (VariableElimination(sprinkler_network),
                       JunctionTree(sprinkler_network),
                       LikelihoodWeighting(sprinkler_network,
                                           num_samples=2000, seed=1),
                       GibbsSampling(sprinkler_network, num_samples=200,
                                     burn_in=20, seed=1)):
            posteriors = engine.posteriors(["cloudy"], evidence)
            _assert_no_nan(posteriors)
            total = sum(posteriors["cloudy"].values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_lw_effective_sample_size_tracked(self, sprinkler_network):
        engine = LikelihoodWeighting(sprinkler_network, num_samples=1000, seed=0)
        engine.posteriors(["cloudy"], {"wet": "1"})
        ess = engine.last_effective_sample_size
        assert ess is not None and 0 < ess <= 1000
