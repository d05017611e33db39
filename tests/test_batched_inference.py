"""Single-pass inference core: equivalence, sweep counting and determinism.

The batched inference PR replaced per-variable eliminations with a single
shared sweep (``posteriors``), evidence-keyed caches and vectorised samplers.
These tests pin the contract: the fast paths must agree with the independent
per-variable elimination reference to 1e-10 on the five paper cases and on
randomised evidence, a full posterior sweep must cost exactly one
calibration/elimination, and the vectorised samplers must stay deterministic
under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesnet import (
    ForwardSampler,
    GibbsSampling,
    JunctionTree,
    LikelihoodWeighting,
    VariableElimination,
)
from repro.bayesnet.codec import EvidenceCodec
from repro.bayesnet.inference._evidence_cache import (
    DEFAULT_CACHE_SIZE,
    EvidenceCache,
)
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import InferenceError

ATOL = 1e-10


def reference_posteriors(network, variables, evidence):
    """The old per-variable path: one independent elimination per variable."""
    engine = VariableElimination(network)
    return {variable: engine.query([variable], evidence).to_distribution()
            for variable in variables}


def assert_distributions_close(left, right, *, atol=ATOL):
    assert set(left) == set(right)
    for variable in left:
        assert set(left[variable]) == set(right[variable])
        for state, probability in left[variable].items():
            assert probability == pytest.approx(right[variable][state], abs=atol), \
                (variable, state)


def random_evidence_sets(network, count, seed):
    """Consistent random evidence drawn from forward samples (P(e) > 0)."""
    rng = np.random.default_rng(seed)
    sampler = ForwardSampler(network, seed=rng)
    nodes = list(network.nodes)
    for sample in sampler.sample(count):
        size = int(rng.integers(1, min(8, len(nodes))))
        chosen = rng.choice(len(nodes), size=size, replace=False)
        yield {nodes[i]: sample[nodes[i]] for i in chosen}


def distinct_rows(network, count, seed=5):
    """``count`` consistent evidence sets whose row keys are all distinct."""
    codec = EvidenceCodec.of(network)
    rows = {}
    for evidence in random_evidence_sets(network, 4 * count, seed):
        rows.setdefault(codec.key(evidence, InferenceError), evidence)
        if len(rows) == count:
            return list(rows.values())
    raise AssertionError(f"fewer than {count} distinct evidence rows")


#: The exact engines and the counter each bumps once per sweep.
EXACT_ENGINES = {VariableElimination: "sweep_count",
                 JunctionTree: "calibration_count"}


def sweeps(engine):
    return getattr(engine, EXACT_ENGINES[type(engine)])


def free_posteriors(engine, evidence):
    """Every non-evidence marginal: one cached sweep per evidence row."""
    return engine.posteriors([node for node in engine.network.nodes
                              if node not in evidence], evidence)


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("case", PAPER_DIAGNOSTIC_CASES,
                             ids=[c.name for c in PAPER_DIAGNOSTIC_CASES])
    def test_paper_cases_match_per_variable_ve(self, regulator_built_model, case):
        network = regulator_built_model.network
        evidence = case.evidence()
        free = [node for node in network.nodes if node not in evidence]
        reference = reference_posteriors(network, free, evidence)

        single_pass = VariableElimination(network).posteriors(free, evidence)
        assert_distributions_close(single_pass, reference)

        calibrated = JunctionTree(network).posteriors(free, evidence)
        assert_distributions_close(calibrated, reference)

    def test_randomized_evidence_matches_per_variable_ve(self, regulator_built_model):
        network = regulator_built_model.network
        ve = VariableElimination(network)
        jt = JunctionTree(network)
        for evidence in random_evidence_sets(network, count=8, seed=20260729):
            free = [node for node in network.nodes if node not in evidence]
            reference = reference_posteriors(network, free, evidence)
            assert_distributions_close(ve.posteriors(free, evidence), reference)
            assert_distributions_close(jt.posteriors(free, evidence), reference)

    def test_sprinkler_randomized_evidence(self, sprinkler_network):
        ve = VariableElimination(sprinkler_network)
        jt = JunctionTree(sprinkler_network)
        for evidence in random_evidence_sets(sprinkler_network, count=6, seed=11):
            free = [n for n in sprinkler_network.nodes if n not in evidence]
            reference = reference_posteriors(sprinkler_network, free, evidence)
            assert_distributions_close(ve.posteriors(free, evidence), reference)
            assert_distributions_close(jt.posteriors(free, evidence), reference)

    def test_probability_of_evidence_agrees_between_engines(self, regulator_built_model):
        network = regulator_built_model.network
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        assert VariableElimination(network).probability_of_evidence(evidence) == \
            pytest.approx(JunctionTree(network).probability_of_evidence(evidence),
                          rel=1e-10)

    def test_diagnose_batch_matches_sequential_and_reference(self, regulator_engine,
                                                             regulator_built_model):
        batch = regulator_engine.diagnose_batch(PAPER_DIAGNOSTIC_CASES)
        sequential = [regulator_engine.diagnose(case)
                      for case in PAPER_DIAGNOSTIC_CASES]
        network = regulator_built_model.network
        for together, alone, case in zip(batch, sequential, PAPER_DIAGNOSTIC_CASES):
            assert together.case_name == case.name
            assert together.suspects == alone.suspects
            assert together.ranked_candidates == alone.ranked_candidates
            evidence = case.evidence()
            free = [n for n in network.nodes if n not in evidence]
            reference = reference_posteriors(network, free, evidence)
            assert_distributions_close(
                {v: together.posteriors[v] for v in free}, reference)

    def test_diagnose_batch_accepts_raw_evidence(self, regulator_engine):
        evidences = [case.evidence() for case in PAPER_DIAGNOSTIC_CASES[:2]]
        diagnoses = regulator_engine.diagnose_batch(evidences, names=["a", "b"])
        assert [d.case_name for d in diagnoses] == ["a", "b"]
        assert diagnoses[0].suspects == regulator_engine.diagnose(
            PAPER_DIAGNOSTIC_CASES[0]).suspects


class TestSinglePassCounting:
    def test_ve_posteriors_is_one_sweep(self, regulator_built_model):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        engine = VariableElimination(network)
        assert engine.sweep_count == 0
        engine.posteriors(internal, evidence)
        assert engine.sweep_count == 1
        # Repeated queries on the same case are cache hits, not new sweeps.
        engine.posteriors(internal, evidence)
        for variable in internal:
            engine.posterior(variable, evidence)
        assert engine.sweep_count == 1
        # A new failing condition costs exactly one more sweep.
        engine.posteriors(internal, PAPER_DIAGNOSTIC_CASES[1].evidence())
        assert engine.sweep_count == 2

    def test_jt_posteriors_is_one_calibration(self, regulator_built_model):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        tree = JunctionTree(network)
        assert tree.calibration_count == 0
        tree.posteriors(internal, evidence)
        assert tree.calibration_count == 1
        tree.posteriors(internal, evidence)
        for variable in internal:
            tree.posterior(variable, evidence)
        assert tree.calibration_count == 1
        # Returning to an earlier evidence set hits the calibration cache.
        tree.posteriors(internal, PAPER_DIAGNOSTIC_CASES[1].evidence())
        assert tree.calibration_count == 2
        tree.posteriors(internal, evidence)
        assert tree.calibration_count == 2


class TestCacheInvalidation:
    def test_ve_cache_drops_on_cpd_replacement(self, sprinkler_network):
        from repro.bayesnet import TabularCPD
        engine = VariableElimination(sprinkler_network)
        before = engine.posterior("rain", {"wet": "1"})
        sprinkler_network.add_cpd(TabularCPD(
            "rain", 2, [[0.99, 0.99], [0.01, 0.01]], ["cloudy"], [2]))
        after = engine.posterior("rain", {"wet": "1"})
        fresh = VariableElimination(sprinkler_network).posterior("rain", {"wet": "1"})
        assert after == fresh
        assert after != before

    def test_jt_cache_drops_on_cpd_replacement(self, sprinkler_network):
        from repro.bayesnet import TabularCPD
        tree = JunctionTree(sprinkler_network)
        before = tree.posterior("rain", {"wet": "1"})
        sprinkler_network.add_cpd(TabularCPD(
            "rain", 2, [[0.99, 0.99], [0.01, 0.01]], ["cloudy"], [2]))
        after = tree.posterior("rain", {"wet": "1"})
        fresh = JunctionTree(sprinkler_network).posterior("rain", {"wet": "1"})
        assert {s: pytest.approx(p) for s, p in after.items()} == fresh
        assert after != before

    def test_samplers_recompile_on_cpd_replacement(self, sprinkler_network):
        from repro.bayesnet import TabularCPD
        lw = LikelihoodWeighting(sprinkler_network, num_samples=4000, seed=9)
        sprinkler_network.add_cpd(TabularCPD("cloudy", 2, [[0.99], [0.01]]))
        assert lw.posterior("cloudy")["0"] > 0.9
        sampler = ForwardSampler(sprinkler_network, seed=10)
        sprinkler_network.add_cpd(TabularCPD("cloudy", 2, [[0.01], [0.99]]))
        states = sampler.sample_states(2000)
        assert states["cloudy"].mean() > 0.9


class TestEvidenceCachePrimitive:
    def test_lru_eviction_order(self, sprinkler_network):
        cache = EvidenceCache(sprinkler_network, max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1     # touch "a": "b" is now oldest
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_each_exact_engine_holds_one_lru_of_fixed_capacity(
            self, sprinkler_network):
        for engine in (VariableElimination(sprinkler_network),
                       JunctionTree(sprinkler_network)):
            caches = [value for value in vars(engine).values()
                      if isinstance(value, EvidenceCache)]
            assert [cache._max_entries for cache in caches] == \
                [DEFAULT_CACHE_SIZE]


class TestEngineCapacity:
    @pytest.mark.parametrize("engine_class", list(EXACT_ENGINES))
    def test_capacity_bounds_the_lru(self, regulator_built_model,
                                     engine_class):
        network = regulator_built_model.network
        engine = engine_class(network)
        rows = distinct_rows(network, DEFAULT_CACHE_SIZE + 2)
        for evidence in rows:
            free_posteriors(engine, evidence)
        assert sweeps(engine) == len(rows)
        (cache,) = [value for value in vars(engine).values()
                    if isinstance(value, EvidenceCache)]
        assert len(cache._entries) == DEFAULT_CACHE_SIZE
        # The newest row is still cached; the oldest was evicted.
        free_posteriors(engine, rows[-1])
        assert sweeps(engine) == len(rows)
        free_posteriors(engine, rows[0])
        assert sweeps(engine) == len(rows) + 1

    @pytest.mark.parametrize("engine_class", list(EXACT_ENGINES))
    def test_recently_read_row_outlives_older_rows(self, regulator_built_model,
                                                   engine_class):
        network = regulator_built_model.network
        engine = engine_class(network)
        rows = distinct_rows(network, DEFAULT_CACHE_SIZE + 1)
        for evidence in rows[:-1]:
            free_posteriors(engine, evidence)
        free_posteriors(engine, rows[0])    # a hit: rows[1] is now the oldest
        free_posteriors(engine, rows[-1])   # one row over capacity
        count = sweeps(engine)
        assert count == len(rows)
        free_posteriors(engine, rows[0])
        assert sweeps(engine) == count
        free_posteriors(engine, rows[1])
        assert sweeps(engine) == count + 1

    @pytest.mark.parametrize("engine_class", list(EXACT_ENGINES))
    def test_cached_answers_match_uncached(self, regulator_built_model,
                                           engine_class):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        engine = engine_class(network)
        for case in PAPER_DIAGNOSTIC_CASES:
            evidence = case.evidence()
            cold = engine.posteriors(internal, evidence)
            # Callers own their answers: mutating one leaves the cache intact.
            cold[internal[0]].clear()
            warm = engine.posteriors(internal, evidence)
            assert warm == engine_class(network).posteriors(internal, evidence)
        assert sweeps(engine) == len(PAPER_DIAGNOSTIC_CASES)


class TestProbabilityOfEvidence:
    def test_ve_reads_a_cached_sweep(self, regulator_built_model):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        engine = VariableElimination(network)
        engine.posteriors(internal, evidence)
        probability = engine.probability_of_evidence(evidence)
        assert engine.sweep_count == 1
        assert probability == pytest.approx(
            VariableElimination(network).probability_of_evidence(evidence),
            rel=1e-12)

    def test_ve_cold_probability_is_one_uncached_forward_pass(
            self, regulator_built_model):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        engine = VariableElimination(network)
        first = engine.probability_of_evidence(evidence)
        assert engine.probability_of_evidence(evidence) == first
        # No cache layer of its own: each call is one forward pass, and
        # none fills the evidence cache.
        assert engine.sweep_count == 2
        assert not engine._marginal_cache._entries
        engine.posteriors(internal, evidence)
        assert engine.sweep_count == 3

    def test_jt_probability_shares_the_calibration_cache(
            self, regulator_built_model):
        network = regulator_built_model.network
        internal = regulator_built_model.description.internal_variables
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        tree = JunctionTree(network)
        probability = tree.probability_of_evidence(evidence)
        tree.posteriors(internal, evidence)
        assert tree.probability_of_evidence(evidence) == probability
        assert tree.calibration_count == 1

    def test_ve_single_probability_raises_on_nan_cpds(
            self, regulator_built_model):
        """A non-finite P(evidence) raises, as JT and VE's batch path do,
        instead of returning NaN; a row the NaN entries miss still answers."""
        from repro.testing import FaultInjector
        network = regulator_built_model.network
        with FaultInjector() as chaos:
            chaos.corrupt_cpd(network, "reg1", mode="nan")
            *poisoned, clean = [case.evidence()
                                for case in PAPER_DIAGNOSTIC_CASES]
            for evidence in poisoned:
                for engine in (VariableElimination(network),
                               JunctionTree(network)):
                    with pytest.raises(InferenceError):
                        engine.probability_of_evidence(evidence)
                with pytest.raises(InferenceError):
                    VariableElimination(network).probabilities_of_evidence(
                        [clean, evidence])
            probability = VariableElimination(
                network).probability_of_evidence(clean)
            assert probability == pytest.approx(
                JunctionTree(network).probability_of_evidence(clean),
                rel=0, abs=1e-12)
        assert probability == pytest.approx(0.0019155, abs=5e-8)


class TestVectorizedSamplerDeterminism:
    def test_forward_sampler_is_seed_deterministic(self, sprinkler_network):
        first = ForwardSampler(sprinkler_network, seed=42).sample(200)
        second = ForwardSampler(sprinkler_network, seed=42).sample(200)
        assert first == second

    def test_rejection_sampler_is_seed_deterministic(self, sprinkler_network):
        first = ForwardSampler(sprinkler_network, seed=43).rejection_sample(
            25, {"wet": "1"})
        second = ForwardSampler(sprinkler_network, seed=43).rejection_sample(
            25, {"wet": "1"})
        assert first == second

    def test_likelihood_weighting_is_seed_deterministic(self, sprinkler_network):
        first = LikelihoodWeighting(sprinkler_network, 1000, seed=44).posteriors(
            ["rain", "sprinkler"], {"wet": "1"})
        second = LikelihoodWeighting(sprinkler_network, 1000, seed=44).posteriors(
            ["rain", "sprinkler"], {"wet": "1"})
        assert first == second

    def test_gibbs_is_seed_deterministic(self, sprinkler_network):
        first = GibbsSampling(sprinkler_network, num_samples=120, burn_in=20,
                              seed=45).sample({"wet": "1"})
        second = GibbsSampling(sprinkler_network, num_samples=120, burn_in=20,
                               seed=45).sample({"wet": "1"})
        assert first == second

    def test_vectorized_samplers_track_exact_marginals(self, regulator_built_model):
        # Statistical sanity on the 19-node regulator: the batched samplers
        # must still converge to the exact posterior of the d1 case.
        network = regulator_built_model.network
        evidence = PAPER_DIAGNOSTIC_CASES[0].evidence()
        exact = VariableElimination(network).posteriors(["warnvpst"], evidence)
        approx = LikelihoodWeighting(network, num_samples=4000, seed=46).posteriors(
            ["warnvpst"], evidence)
        for state, probability in exact["warnvpst"].items():
            assert abs(probability - approx["warnvpst"][state]) < 0.1
