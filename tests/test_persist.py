"""Durable cross-process state: cache, registry, fingerprints.

Covers the crash-safe :class:`~repro.persist.PosteriorCache` (round trips,
torn-tail recovery, bit-flip quarantine, LRU compaction, cross-instance
visibility), content fingerprinting, the validation-gated
:class:`~repro.persist.ModelRegistry` and its publish-time engine-parity
smoke, and the robust engine's durable-cache fast path.  Everything here runs in-process;
the ``kill -9`` crash-recovery scenarios live in ``test_persist_chaos.py``.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.bayesnet.inference import JunctionTree
from repro.core import FallbackPolicy, RobustDiagnosisEngine
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES
from repro.exceptions import ModelPublishError, ModelRegistryError
from repro.persist import (
    FingerprintTracker,
    ModelRegistry,
    PosteriorCache,
    model_fingerprint,
)
from repro.testing import (
    FaultInjector,
    cache_segments,
    flip_byte,
    truncate_tail,
)


@pytest.fixture
def cache(tmp_path):
    with PosteriorCache(tmp_path / "cache") as cache:
        yield cache


def fill(cache: PosteriorCache, count: int, *, size: int = 64,
         prefix: str = "k") -> list[tuple]:
    """Write ``count`` distinct entries and return their keys."""
    keys = []
    for i in range(count):
        key = ("test", prefix, i)
        cache.put(key, {"payload": "x" * size, "i": i})
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# PosteriorCache: round trips
# ---------------------------------------------------------------------------

class TestCacheRoundTrip:
    def test_put_get_and_miss(self, cache):
        cache.put(("a", 1), {"p": 0.25})
        assert cache.get(("a", 1)) == {"p": 0.25}
        assert cache.get(("absent",)) is None
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1

    def test_last_writer_wins(self, cache):
        cache.put(("k",), "first")
        cache.put(("k",), "second")
        assert cache.get(("k",)) == "second"
        assert len(cache) == 1

    def test_posteriors_round_trip_bit_exact(self, cache):
        posteriors = {"amp1": {"ok": 1.0 - 2**-37, "fail": 2**-37},
                      "out": {"low": 1 / 3, "high": 2 / 3}}
        row = (("t_in", 0), ("t_out", 1))
        cache.put_posteriors("fp", row, posteriors)
        assert cache.get_posteriors("fp", row) == posteriors
        assert cache.get_posteriors("fp", (("t_in", 0), ("t_out", 0))) is None

    def test_wrong_model_version_misses(self, cache):
        cache.put_posteriors("fp-a", (("t", 1),), {"x": {"ok": 1.0}})
        assert cache.get_posteriors("fp-b", (("t", 1),)) is None

    def test_survives_reopen(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as first:
            fill(first, 5)
        with PosteriorCache(tmp_path / "c") as second:
            assert len(second) == 5
            assert second.get(("test", "k", 3)) == {"payload": "x" * 64,
                                                    "i": 3}

    def test_cross_instance_visibility(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as writer, \
                PosteriorCache(tmp_path / "c") as reader:
            assert reader.get(("shared",)) is None
            writer.put(("shared",), 42)
            # A miss triggers a refresh, so the reader sees the append.
            assert reader.get(("shared",)) == 42

    def test_stats_snapshot_is_json_safe(self, cache):
        fill(cache, 3)
        cache.get(("test", "k", 0))
        cache.get(("nope",))
        snapshot = json.loads(json.dumps(cache.stats()))
        assert snapshot["entries"] == 3
        assert snapshot["quarantined"] == 0


# ---------------------------------------------------------------------------
# PosteriorCache: corruption containment
# ---------------------------------------------------------------------------

class TestCacheCorruption:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as cache:
            keys = fill(cache, 3)
        segment = cache_segments(tmp_path / "c")[-1]
        truncate_tail(segment, 7)  # rip the last record's tail off
        with PosteriorCache(tmp_path / "c") as cache:
            assert len(cache) == 2
            assert cache.torn_tail_bytes > 0
            assert cache.get(keys[0]) is not None
            assert cache.get(keys[1]) is not None
            assert cache.get(keys[2]) is None  # lost, not garbled

    def test_flipped_payload_bit_is_quarantined(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as cache:
            keys = fill(cache, 3)
        segment = cache_segments(tmp_path / "c")[-1]
        flip_byte(segment, 16)  # inside the first record's payload
        with PosteriorCache(tmp_path / "c") as cache:
            assert cache.quarantined >= 1
            assert any(record.kind == "bad-crc"
                       for record in cache.corruption_records)
            assert cache.get(keys[0]) is None  # a miss, never garbage
            # Records beyond the quarantined frame still load.
            assert cache.get(keys[2]) is not None

    def test_bad_magic_quarantines_the_remainder(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as cache:
            fill(cache, 3)
        flip_byte(cache_segments(tmp_path / "c")[-1], 0)
        with PosteriorCache(tmp_path / "c") as cache:
            assert len(cache) == 0
            assert cache.quarantined >= 1
            assert any(record.kind == "bad-magic"
                       for record in cache.corruption_records)

    def test_rot_under_a_live_instance_is_caught_at_read(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as cache:
            [key] = fill(cache, 1)
            flip_byte(cache_segments(tmp_path / "c")[-1], 16)
            # The index still points at the record; the per-read CRC check
            # must catch the rot and quarantine instead of serving it.
            assert cache.get(key) is None
            assert cache.quarantined >= 1

    def test_corruption_records_carry_location(self, tmp_path):
        with PosteriorCache(tmp_path / "c") as cache:
            fill(cache, 1)
        segment = cache_segments(tmp_path / "c")[-1]
        flip_byte(segment, 16)
        with PosteriorCache(tmp_path / "c") as cache:
            [record] = cache.corruption_records
            assert record.path == str(segment)
            assert record.offset == 0


# ---------------------------------------------------------------------------
# PosteriorCache: LRU compaction
# ---------------------------------------------------------------------------

class TestCacheCompaction:
    def test_lru_compaction_keeps_the_hot_key(self, tmp_path):
        with PosteriorCache(tmp_path / "c", max_bytes=16_384,
                            segment_bytes=4_096) as cache:
            hot = ("test", "hot", 0)
            cache.put(hot, "keep me")
            for i in range(200):
                cache.put(("test", "cold", i), "x" * 128)
                cache.get(hot)  # touch: most recently used every round
            assert cache.compactions >= 1
            assert cache.evicted > 0
            assert cache.get(hot) == "keep me"
            assert len(cache) < 201
            # Compaction rewrote the survivors; disk usage is bounded.
            assert cache.total_bytes <= 16_384

    def test_reader_survives_a_sibling_compaction(self, tmp_path):
        with PosteriorCache(tmp_path / "c", max_bytes=16_384,
                            segment_bytes=4_096) as writer, \
                PosteriorCache(tmp_path / "c") as reader:
            writer.put(("early",), "value")
            assert reader.get(("early",)) == "value"  # index the old segment
            for i in range(200):
                writer.put(("test", "cold", i), "x" * 128)
            assert writer.compactions >= 1
            # The reader's offsets are stale; the generation stamp forces a
            # rescan instead of a misread. Whatever survived must read clean.
            for key in list(reader.keys()):
                assert reader.get(key) in (None, "value", "x" * 128)
            writer.put(("fresh",), "post-compaction")
            assert reader.get(("fresh",)) == "post-compaction"


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic_and_content_addressed(self, sprinkler_network):
        first = model_fingerprint(sprinkler_network)
        assert first == model_fingerprint(sprinkler_network)
        assert first == model_fingerprint(copy.deepcopy(sprinkler_network))
        assert len(first) == 64  # hex SHA-256

    def test_parameter_change_changes_the_fingerprint(self, sprinkler_network):
        perturbed = copy.deepcopy(sprinkler_network)
        cpd = perturbed.get_cpd("rain")
        cpd.table[...] = [[0.7, 0.1], [0.3, 0.9]]
        assert model_fingerprint(perturbed) \
            != model_fingerprint(sprinkler_network)

    def test_tracker_matches_the_pure_function(self, sprinkler_network):
        tracker = FingerprintTracker(sprinkler_network)
        assert tracker.current() == model_fingerprint(sprinkler_network)
        assert tracker.current() == tracker.current()


# ---------------------------------------------------------------------------
# ModelRegistry
# ---------------------------------------------------------------------------

class TestModelRegistry:
    def test_empty_registry_reads_as_version_zero(self, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            assert registry.current_version() == 0
            assert registry.current_fingerprint() is None
            assert registry.load() == (0, None)
            assert registry.versions() == []

    def test_publish_load_round_trip(self, regulator_built_model, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            version = registry.publish(regulator_built_model)
            assert version == 1
            assert registry.current_version() == 1
            assert registry.current_fingerprint() \
                == model_fingerprint(regulator_built_model.network)
            loaded_version, loaded = registry.load()
            assert loaded_version == 1
            assert model_fingerprint(loaded.network) \
                == model_fingerprint(regulator_built_model.network)

    def test_republish_bumps_and_prunes(self, regulator_built_model,
                                        tmp_path):
        with ModelRegistry(tmp_path / "models", keep=2) as registry:
            for expected in (1, 2, 3, 4):
                assert registry.publish(regulator_built_model,
                                        validate=False) == expected
            assert registry.current_version() == 4
            # `keep` counts superseded artifacts besides the current one.
            assert registry.versions() == [2, 3, 4]

    def test_validation_gate_rejects_a_poisoned_model(
            self, regulator_built_model, tmp_path):
        candidate = copy.deepcopy(regulator_built_model)
        node = candidate.network.nodes[0]
        candidate.network.get_cpd(node).table[...] = np.nan
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model)
            with pytest.raises(ModelPublishError):
                registry.publish(candidate)
            # Rollback is structural: the swap never happened.
            assert registry.current_version() == 1
            assert registry.current_fingerprint() \
                == model_fingerprint(regulator_built_model.network)

    def test_engine_disagreement_is_refused_before_the_swap(
            self, regulator_built_model, tmp_path):
        """The publish smoke alone: the candidate validates structurally, but
        its junction-tree prior marginals drift 1e-6 from variable
        elimination's."""
        def drifted(posteriors):
            variable, states = next(iter(posteriors.items()))
            state = next(iter(states))
            return {**posteriors,
                    variable: {**states, state: states[state] + 1e-6}}

        candidate = copy.deepcopy(regulator_built_model)
        cpd = candidate.network.get_cpd(candidate.network.nodes[0]).copy()
        cpd.table[...] = np.roll(cpd.table, 1, axis=0)
        candidate.network.add_cpd(cpd)
        with ModelRegistry(tmp_path / "models") as registry:
            registry.publish(regulator_built_model)
            live = registry.current_fingerprint()
            assert model_fingerprint(candidate.network) != live
            with FaultInjector() as chaos:
                chaos.perturb_result(JunctionTree, "posteriors", drifted)
                with pytest.raises(ModelPublishError,
                                   match="parity smoke"):
                    registry.publish(candidate)
            assert registry.current_version() == 1
            assert registry.current_fingerprint() == live
            # Once the engines agree again, the same candidate publishes.
            assert registry.publish(candidate) == 2

    def test_corrupt_artifact_refuses_to_load(self, regulator_built_model,
                                              tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            version = registry.publish(regulator_built_model)
            artifact = tmp_path / "models" / f"model-{version:06d}.pkl"
            flip_byte(artifact, artifact.stat().st_size // 2)
            with pytest.raises(ModelRegistryError):
                registry.load_version(version)

    def test_garbage_stamp_is_a_structured_error(self, tmp_path):
        with ModelRegistry(tmp_path / "models") as registry:
            (tmp_path / "models" / "CURRENT").write_text("{not json")
            with pytest.raises(ModelRegistryError):
                registry.current_version()


# ---------------------------------------------------------------------------
# RobustDiagnosisEngine + durable cache
# ---------------------------------------------------------------------------

class TestRobustEngineCaching:
    def test_hit_serves_bit_identical_posteriors(self, regulator_built_model,
                                                 tmp_path):
        case = PAPER_DIAGNOSTIC_CASES[1]
        with PosteriorCache(tmp_path / "c") as cache:
            engine = RobustDiagnosisEngine(regulator_built_model,
                                           FallbackPolicy(),
                                           posterior_cache=cache)
            cold = engine.diagnose(case)
            assert cold.provenance.engine == "ve"
            assert engine.cache_misses == 1

            warm = engine.diagnose(case)
            assert warm.provenance.engine == "cache"
            assert engine.cache_hits == 1
            assert warm.posteriors == cold.posteriors  # bit-identical
            assert warm.suspects == cold.suspects
            assert warm.fail_probabilities == cold.fail_probabilities

    def test_cache_survives_an_engine_restart(self, regulator_built_model,
                                              tmp_path):
        case = PAPER_DIAGNOSTIC_CASES[1]
        with PosteriorCache(tmp_path / "c") as cache:
            cold = RobustDiagnosisEngine(regulator_built_model,
                                         FallbackPolicy(),
                                         posterior_cache=cache).diagnose(case)
        with PosteriorCache(tmp_path / "c") as cache:
            restarted = RobustDiagnosisEngine(regulator_built_model,
                                              FallbackPolicy(),
                                              posterior_cache=cache)
            warm = restarted.diagnose(case)
            assert warm.provenance.engine == "cache"
            assert warm.posteriors == cold.posteriors

    @pytest.mark.filterwarnings("ignore::repro.exceptions.DegradedResultWarning")
    def test_sampled_posteriors_are_never_cached(self, regulator_built_model,
                                                 tmp_path):
        case = PAPER_DIAGNOSTIC_CASES[1]
        policy = FallbackPolicy(chain=("lw",), seed=11, num_samples=500)
        with PosteriorCache(tmp_path / "c") as cache:
            engine = RobustDiagnosisEngine(regulator_built_model, policy,
                                           posterior_cache=cache)
            result = engine.diagnose(case)
            assert result.provenance.engine == "lw"
            assert not any(key[0] == "posterior" for key in cache.keys())
            # And the next call re-samples instead of hitting the cache.
            again = engine.diagnose(case)
            assert again.provenance.engine == "lw"

    def test_without_a_cache_nothing_changes(self, regulator_built_model):
        case = PAPER_DIAGNOSTIC_CASES[1]
        engine = RobustDiagnosisEngine(regulator_built_model, FallbackPolicy())
        result = engine.diagnose(case)
        assert result.provenance.engine == "ve"
        assert engine.cache_hits == engine.cache_misses == 0
