"""The correctness gate: every pass's answers are checked before it counts.

Posteriors are compared against brute-force enumeration of the hidden joint
states with the evidence fixed (512 states for the regulator's eight
internal blocks), never against ``BayesianNetwork.joint_distribution()``,
whose full 19-variable joint would need about 39 GiB.
"""

from __future__ import annotations

import numpy as np

#: Largest absolute posterior difference the gate accepts.
TOLERANCE = 1e-9


class CheckFailure(Exception):
    """A benchmark answer was wrong, missing or unexpected."""


class EnumerationOracle:
    """Exact posteriors of one network by enumerating the hidden states."""

    def __init__(self, network) -> None:
        self._cpds = [network.get_cpd(node) for node in network.nodes]
        self.labels = {cpd.variable: list(cpd.state_names[cpd.variable])
                       for cpd in self._cpds}
        self._memo: dict[tuple, dict[str, np.ndarray]] = {}

    def posteriors(self, evidence: dict[str, str]) -> dict[str, np.ndarray]:
        """Return ``{variable: distribution}`` for every variable."""
        key = tuple(sorted(evidence.items()))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        hidden = [variable for variable in self.labels if variable not in evidence]
        cards = [len(self.labels[variable]) for variable in hidden]
        grid = np.indices(cards).reshape(len(cards), -1)
        states: dict[str, object] = {variable: grid[position]
                                     for position, variable in enumerate(hidden)}
        for variable, label in evidence.items():
            states[variable] = self.labels[variable].index(label)
        weight = np.ones(grid.shape[1])
        for cpd in self._cpds:
            column = 0
            for parent, card in zip(cpd.parents, cpd.parent_cardinalities):
                column = column * card + states[parent]
            weight = weight * cpd.table[states[cpd.variable], column]
        total = weight.sum()
        if not total > 0.0:
            raise CheckFailure(f"evidence {evidence} is impossible under the model")
        result = {variable: np.bincount(grid[position], weights=weight,
                                        minlength=cards[position]) / total
                  for position, variable in enumerate(hidden)}
        for variable, label in evidence.items():
            onehot = np.zeros(len(self.labels[variable]))
            onehot[self.labels[variable].index(label)] = 1.0
            result[variable] = onehot
        self._memo[key] = result
        return result


def check_slots(traffic, results, where: str) -> None:
    """Every slot is answered, in order; only malformed records fail.

    A malformed record must come back as a structured ``EvidenceError``
    failure; every other slot must succeed.
    """
    if len(results) != len(traffic):
        raise CheckFailure(f"{where}: {len(results)} results for "
                           f"{len(traffic)} cases (slots lost)")
    for slot, result in enumerate(results):
        if result is None or result.case_name != traffic.names[slot]:
            raise CheckFailure(f"{where}: slot {slot} lost or out of order")
        if slot in traffic.malformed:
            if result.ok or result.error_type != "EvidenceError":
                raise CheckFailure(
                    f"{where}: malformed slot {slot} was not rejected with "
                    f"an EvidenceError (got {outcome(result)})")
        elif not result.ok:
            raise CheckFailure(f"{where}: slot {slot} failed: "
                               f"{result.error_type}: {result.message}")


def check_same_suspects(inproc, served, where: str) -> None:
    """Served suspects equal in-process suspects, slot for slot."""
    for slot, (local, remote) in enumerate(zip(inproc, served)):
        if local.ok != remote.ok or (
                local.ok and list(local.suspects) != list(remote.suspects)):
            raise CheckFailure(
                f"{where}: slot {slot} served {outcome(remote)} but "
                f"in-process gave {outcome(local)}")


def check_posteriors(oracle: EnumerationOracle, traffic, results,
                     slots, where: str) -> None:
    """Sampled slots' posteriors agree with enumeration within TOLERANCE."""
    for slot in slots:
        want = oracle.posteriors(traffic.evidence[slot])
        got = results[slot].posteriors
        for variable, distribution in want.items():
            labels = oracle.labels[variable]
            have = np.array([got[variable][label] for label in labels])
            error = float(np.max(np.abs(have - distribution)))
            if not error <= TOLERANCE:
                raise CheckFailure(
                    f"{where}: slot {slot} posterior of {variable!r} is off "
                    f"by {error:.3g} from enumeration")


def sample_slots(traffic, count: int, rng: np.random.Generator) -> list[int]:
    """Up to ``count`` well-formed slots, chosen by ``rng``."""
    valid = [slot for slot in range(len(traffic)) if slot not in traffic.malformed]
    chosen = rng.choice(len(valid), size=min(count, len(valid)), replace=False)
    return [valid[index] for index in sorted(chosen)]


def score(traffic, results) -> tuple[int, int, int]:
    """``(scored, recall_hits, top1_hits)`` over the scored slots."""
    scored = recall = top1 = 0
    for truth, result in zip(traffic.truth, results):
        if not truth:
            continue
        scored += 1
        recall += any(block in truth for block in result.suspects)
        top1 += result.top_candidate() in truth
    return scored, recall, top1


def outcome(result) -> str:
    """A one-phrase description of a batch slot's result."""
    if result is None:
        return "nothing"
    if result.ok:
        return f"suspects {result.suspects}"
    return f"{result.error_type}"
