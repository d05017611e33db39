"""Every exact answer path against brute-force joint enumeration.

Hypothesis draws random networks of at most seven variables with one to
three states each, sprinkled with zero CPT entries (sometimes a whole zero
row, so some evidence is impossible).  The oracle shares no code with the
engines: it multiplies the drawn CPT arrays over every joint assignment and
reads ``P(evidence)`` and each free variable's marginal off the joint
table.  Variable elimination (single queries and ``posteriors_batch``), the
junction tree, the one diagnosis pipeline on a VE or JT primary (whole
batches, batches of one, a deadline-bound robust batch), a worker-pool
service's results with and without a deadline, and a robust engine's
second pass over a batch, answered from its evidence cache, must all agree
with it to 1e-12, and every path must refuse zero-probability evidence.
A batch's results are views of its posterior matrix rows; they match it
read in place and after a pickle round trip.  Label, Python-int and
numpy-int forms of the same evidence share one evidence-cache entry.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bayesnet import BayesianNetwork, TabularCPD
from repro.bayesnet.inference import JunctionTree, VariableElimination
from repro.core import DiagnosisEngine, FallbackPolicy
from repro.core.blocks import BlockType, ModelVariable
from repro.core.circuit_model import CircuitModelDescription
from repro.core.model_builder import BuiltModel
from repro.core.states import StateDefinition, StateTable
from repro.exceptions import ImpossibleEvidenceError
from repro.serving import DiagnosisService, ServiceConfig

TOL = 1e-12

#: State labels in reverse alphabetical order, so that code mixing up label
#: order and state index cannot pass by accident.
LABELS = ("z", "y", "x")


@dataclasses.dataclass
class RandomNetwork:
    """A drawn network plus the raw arrays the oracle multiplies."""

    network: BayesianNetwork
    names: list[str]
    cards: list[int]
    parents: dict[str, list[str]]
    #: Per variable, ``P(variable | parents)`` shaped ``(card, *parent_cards)``.
    tables: dict[str, np.ndarray]
    #: Evidence the drawn zero row makes impossible (None without one).
    impossible: dict[str, str] | None

    def labels(self, name: str) -> tuple[str, ...]:
        return LABELS[:self.cards[self.names.index(name)]]


@st.composite
def random_networks(draw, min_card: int = 1) -> RandomNetwork:
    count = draw(st.integers(min_value=1, max_value=7))
    names = [f"n{i}" for i in range(count)]
    cards = [draw(st.integers(min_value=min_card, max_value=3))
             for _ in names]
    parents = {name: draw(st.lists(st.sampled_from(names[:i]), unique=True,
                                   max_size=3)) if i else []
               for i, name in enumerate(names)}
    # Zero or at least 0.01: no evidence is merely near-impossible.
    weight = st.floats(min_value=0.0, max_value=1.0).map(
        lambda value: value if value >= 0.01 else 0.0)
    # A whole zero row (one state impossible under every parent
    # configuration) makes evidence of probability zero.
    zeroed = draw(st.sampled_from([None] + [name for name, card
                                            in zip(names, cards)
                                            if card > 1]))
    tables = {}
    for name, card in zip(names, cards):
        shape = (card, *(cards[names.index(parent)]
                         for parent in parents[name]))
        table = np.array(draw(st.lists(weight, min_size=math.prod(shape),
                                       max_size=math.prod(shape)))
                         ).reshape(shape)
        if name == zeroed:
            table[-1] = 0.0
        table[0] = np.where(table.sum(axis=0) == 0.0, 1.0, table[0])
        tables[name] = table / table.sum(axis=0)
    network = BayesianNetwork(
        [(parent, name) for name in names for parent in parents[name]],
        nodes=names)
    for name, card in zip(names, cards):
        network.add_cpd(TabularCPD(
            name, card, tables[name].reshape(card, -1), parents[name],
            [cards[names.index(parent)] for parent in parents[name]],
            state_names={variable: LABELS[:cards[names.index(variable)]]
                         for variable in [name, *parents[name]]}))
    impossible = None if zeroed is None \
        else {zeroed: LABELS[cards[names.index(zeroed)] - 1]}
    return RandomNetwork(network, names, cards, parents, tables, impossible)


@st.composite
def evidence_rows(draw, net: RandomNetwork) -> list[dict[str, str]]:
    """Random rows plus empty, full, duplicate and impossible evidence."""
    def row():
        chosen = draw(st.lists(st.sampled_from(net.names), unique=True))
        return {name: draw(st.sampled_from(net.labels(name)))
                for name in chosen}

    rows = [row() for _ in range(draw(st.integers(min_value=1,
                                                  max_value=6)))]
    full = {name: draw(st.sampled_from(net.labels(name)))
            for name in net.names}
    rows += [{}, full, dict(rows[0])]
    if net.impossible is not None:
        rows.append({**row(), **net.impossible})
    return draw(st.permutations(rows))


@st.composite
def cases(draw, min_card: int = 1):
    net = draw(random_networks(min_card))
    return net, draw(evidence_rows(net))


# ---------------------------------------------------------------- the oracle
def joint_table(net: RandomNetwork) -> np.ndarray:
    """The joint distribution, one axis per variable in ``net.names`` order."""
    joint = np.empty(net.cards)
    position = {name: axis for axis, name in enumerate(net.names)}
    for assignment in np.ndindex(*net.cards):
        probability = 1.0
        for name in net.names:
            index = (assignment[position[name]],
                     *(assignment[position[parent]]
                       for parent in net.parents[name]))
            probability *= net.tables[name][index]
        joint[assignment] = probability
    return joint


def enumerate_posteriors(net: RandomNetwork, joint: np.ndarray,
                         evidence: dict[str, str]):
    """Free-variable marginals given ``evidence``; None when P(e) is zero."""
    index = tuple(net.labels(name).index(evidence[name]) if name in evidence
                  else slice(None) for name in net.names)
    conditioned = joint[index]
    free = [name for name in net.names if name not in evidence]
    total = conditioned.sum()
    if total == 0.0:
        return None
    posteriors = {}
    for axis, name in enumerate(free):
        others = tuple(other for other in range(len(free)) if other != axis)
        marginal = conditioned.sum(axis=others) / total
        posteriors[name] = dict(zip(net.labels(name), marginal.tolist()))
    return posteriors


def assert_matches(actual, expected, evidence) -> None:
    assert actual.keys() == expected.keys(), evidence
    for name, distribution in expected.items():
        assert actual[name].keys() == distribution.keys(), (name, evidence)
        for state, probability in distribution.items():
            assert actual[name][state] == pytest.approx(
                probability, abs=TOL, rel=0), (name, state, evidence)


# ------------------------------------------------------------------ the paths
@given(cases())
def test_variable_elimination_posteriors(case):
    net, rows = case
    joint = joint_table(net)
    engine = VariableElimination(net.network)
    for evidence in rows:
        expected = enumerate_posteriors(net, joint, evidence)
        free = [name for name in net.names if name not in evidence]
        if expected is None:
            with pytest.raises(ImpossibleEvidenceError):
                engine.posteriors(free, evidence)
        else:
            assert_matches(engine.posteriors(free, evidence), expected,
                           evidence)


@given(cases())
def test_variable_elimination_posteriors_batch(case):
    net, rows = case
    joint = joint_table(net)
    engine = VariableElimination(net.network)
    expected = [enumerate_posteriors(net, joint, evidence)
                for evidence in rows]
    assert engine.posteriors_batch([]) == []
    # The second batch is answered from the evidence cache.
    for answers in (engine.posteriors_batch(rows),
                    engine.posteriors_batch(rows)):
        assert len(answers) == len(rows)
        for evidence, answer, want in zip(rows, answers, expected):
            if want is None:
                assert answer is None, evidence
            else:
                assert_matches(answer, want, evidence)
        owned = [id(distribution) for answer in answers if answer
                 for distribution in answer.values()]
        assert len(owned) == len(set(owned))


@given(cases())
def test_junction_tree_posteriors(case):
    net, rows = case
    joint = joint_table(net)
    engine = JunctionTree(net.network)
    for evidence in rows:
        expected = enumerate_posteriors(net, joint, evidence)
        free = [name for name in net.names if name not in evidence]
        if expected is None:
            with pytest.raises(ImpossibleEvidenceError):
                engine.posteriors(free, evidence)
        else:
            assert_matches(engine.posteriors(free, evidence), expected,
                           evidence)


@given(cases())
def test_label_and_index_forms_share_one_cache_entry(case):
    net, rows = case
    joint = joint_table(net)
    ve = VariableElimination(net.network)
    jt = JunctionTree(net.network)
    for evidence in rows:
        expected = enumerate_posteriors(net, joint, evidence)
        if expected is None:
            continue
        free = [name for name in net.names if name not in evidence]
        indices = {name: net.labels(name).index(state)
                   for name, state in evidence.items()}
        by_ve = ve.posteriors(free, evidence)
        by_jt = jt.posteriors(free, evidence)
        assert_matches(by_ve, expected, evidence)
        assert_matches(by_jt, expected, evidence)
        sweeps, calibrations = ve.sweep_count, jt.calibration_count
        for form in (indices, {name: np.int64(index)
                               for name, index in indices.items()}):
            assert ve.posteriors(free, form) == by_ve
            assert jt.posteriors(free, form) == by_jt
        assert (ve.sweep_count, jt.calibration_count) == (sweeps,
                                                          calibrations)


def built_model(net: RandomNetwork, roles) -> BuiltModel:
    """Wrap a drawn network as a circuit model (every block healthy at z)."""
    description = CircuitModelDescription(
        "random",
        [ModelVariable(name, role) for name, role in zip(net.names, roles)],
        [StateTable(name, [StateDefinition(label, float(k), float(k))
                           for k, label in enumerate(net.labels(name))])
         for name in net.names],
        [(parent, name) for name in net.names
         for parent in net.parents[name]])
    return BuiltModel(description=description, network=net.network,
                      prior_network=net.network,
                      discretizer=description.discretizer(),
                      healthy_states={name: LABELS[0] for name in net.names},
                      training_case_count=0)


# Circuit-model state tables need two usable states per block, so these
# networks draw two or three states per variable.
@given(cases(min_card=2), st.data())
def test_diagnose_batch_posteriors(case, data):
    net, rows = case
    roles = [data.draw(st.sampled_from([BlockType.CONTROL, BlockType.OBSERVE,
                                        BlockType.INTERNAL]))
             for _ in net.names]
    joint = joint_table(net)
    results = DiagnosisEngine(built_model(net, roles)).diagnose_batch(
        rows, on_error="collect")
    assert len(results) == len(rows)
    for evidence, result in zip(rows, results):
        expected = enumerate_posteriors(net, joint, evidence)
        if expected is None:
            assert not result.ok
            assert result.error_type == "ImpossibleEvidenceError"
            continue
        for name, state in evidence.items():
            expected[name] = {label: float(label == state)
                              for label in net.labels(name)}
        assert_matches(result.posteriors, expected, evidence)


@given(cases(min_card=2), st.data())
def test_result_views_read_directly_and_after_pickling(case, data):
    """Each slot's view (duplicates, mixed evidence patterns, impossible
    rows) matches enumeration whether read in place or unpickled unread."""
    net, rows = case
    roles = [data.draw(st.sampled_from([BlockType.CONTROL, BlockType.OBSERVE,
                                        BlockType.INTERNAL]))
             for _ in net.names]
    joint = joint_table(net)
    built = built_model(net, roles)
    internal = built.description.internal_variables
    engine = DiagnosisEngine(built)
    batch = rows + [dict(row) for row in reversed(rows)]
    expected = [expected_diagnosis(net, joint, evidence) for evidence in batch]
    direct = engine.diagnose_batch(batch, on_error="collect")
    unread = [pickle.loads(pickle.dumps(result)) for result in
              engine.diagnose_batch(batch, on_error="collect")]
    for results in (direct, unread):
        for evidence, result, want in zip(batch, results, expected):
            if want is None:
                assert result.error_type == "ImpossibleEvidenceError"
                continue
            assert_matches(result.posteriors, want, evidence)
            fail = {name: 1.0 - want[name][LABELS[0]] for name in internal}
            assert result.fail_probabilities.keys() == fail.keys()
            for name, probability in fail.items():
                assert result.fail_probabilities[name] == pytest.approx(
                    probability, abs=TOL, rel=0), (name, evidence)
            assert [name for name, _ in result.ranked_candidates] == \
                [name for name, _ in sorted(
                    result.fail_probabilities.items(),
                    key=lambda item: item[1], reverse=True)]
            assert result.suspects == engine.deduce_candidates(
                result.posteriors)


def expected_diagnosis(net: RandomNetwork, joint: np.ndarray,
                       evidence: dict[str, str]):
    """Every variable's posterior, evidence one-hot; None when impossible."""
    expected = enumerate_posteriors(net, joint, evidence)
    if expected is not None:
        for name, state in evidence.items():
            expected[name] = {label: float(label == state)
                              for label in net.labels(name)}
    return expected


@given(cases(min_card=2), st.data())
def test_evidence_cache_round_trip(case, data):
    """A batch with every row twice, diagnosed twice by one engine on the
    default fallback chain: the second pass answers from the evidence
    cache, and no two results share a posterior dict."""
    net, rows = case
    roles = [data.draw(st.sampled_from([BlockType.CONTROL, BlockType.OBSERVE,
                                        BlockType.INTERNAL]))
             for _ in net.names]
    joint = joint_table(net)
    batch = rows + [dict(row) for row in rows]
    expected = [expected_diagnosis(net, joint, evidence) for evidence in batch]
    engine = DiagnosisEngine(built_model(net, roles), FallbackPolicy())
    swept = []
    for _ in range(2):
        results = engine.diagnose_batch(batch, on_error="collect")
        swept.append(engine._engine.sweep_count)
        assert len(results) == len(batch)
        owned = []
        for evidence, result, want in zip(batch, results, expected):
            if want is None:
                assert not result.ok, evidence
                assert result.error_type == "ImpossibleEvidenceError"
                continue
            assert_matches(result.posteriors, want, evidence)
            owned += [id(distribution)
                      for distribution in result.posteriors.values()]
        assert len(owned) == len(set(owned))
    assert swept[1] == swept[0]  # the second pass swept nothing


def diagnose_alone(engine: DiagnosisEngine, evidence: dict[str, str]):
    try:
        return engine.diagnose_evidence(evidence)
    except ImpossibleEvidenceError as error:
        return error


@given(cases(min_card=2), st.data())
def test_every_pipeline_entry_and_served_results(case, data):
    net, rows = case
    roles = [data.draw(st.sampled_from([BlockType.CONTROL, BlockType.OBSERVE,
                                        BlockType.INTERNAL]))
             for _ in net.names]
    joint = joint_table(net)
    expected = [expected_diagnosis(net, joint, evidence) for evidence in rows]
    built = built_model(net, roles)
    single = DiagnosisEngine(built)
    paths = {
        "jt": DiagnosisEngine(built, FallbackPolicy(
            chain=("jt",))).diagnose_batch(rows, on_error="collect"),
        "diagnose_evidence": [diagnose_alone(single, row) for row in rows],
        "robust-deadline": DiagnosisEngine(
            built, FallbackPolicy()).diagnose_batch(
                rows, on_error="collect", deadline=60),
    }
    with DiagnosisService(built,
                          config=ServiceConfig(num_workers=1)) as service:
        paths["served"] = service.diagnose_batch(rows, timeout=60)
        paths["served-deadline"] = service.diagnose_batch(
            rows, deadline=60, timeout=60)
    for path, results in paths.items():
        assert len(results) == len(rows), path
        for evidence, result, want in zip(rows, results, expected):
            if want is None:
                impossible = type(result).__name__ if isinstance(
                    result, Exception) else getattr(result, "error_type",
                                                     None)
                assert impossible == "ImpossibleEvidenceError", \
                    (path, evidence)
                continue
            assert result.ok, (path, evidence, result)
            assert_matches(result.posteriors, want, evidence)
