"""Nearest-neighbour diagnosis baseline in the discretised state space.

Diagnoses a failing device by finding the most similar training device
(Hamming similarity over the discretised controllable/observable states) and
returning its ground-truth faulty block.  A simple, surprisingly strong
baseline when the training population densely covers the fault universe.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.case_generation import LabeledCase
from repro.exceptions import DiagnosisError


class NearestNeighborDiagnoser:
    """k-nearest-neighbour diagnosis over discretised cases.

    Parameters
    ----------
    k:
        Number of neighbours whose ground-truth blocks vote on the diagnosis.
    """

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise DiagnosisError("k must be at least 1")
        self.k = int(k)
        self._training: list[tuple[dict[str, str], str]] = []
        self._variables: list[str] = []
        self._state_codes: dict[str, dict[str, int]] = {}
        self._codes = np.empty((0, 0), dtype=np.int32)
        self._present = np.empty((0, 0), dtype=bool)

    # ---------------------------------------------------------------- training
    def fit(self, cases: Sequence[LabeledCase],
            true_blocks: Mapping[str, str]) -> "NearestNeighborDiagnoser":
        """Store the observed part of every training case with its true block.

        The training cases are also encoded into integer matrices (one code
        per distinct state label, -1 for "not observed") so that
        :meth:`rank` scores every training case with two vectorised
        comparisons instead of a Python loop per case.
        """
        self._training = []
        for case in cases:
            if case.device_id not in true_blocks:
                continue
            self._training.append((case.observed(), true_blocks[case.device_id]))
        if not self._training:
            raise DiagnosisError("no training cases with ground truth were provided")
        self._variables = sorted({variable for observed, _ in self._training
                                  for variable in observed})
        self._state_codes: dict[str, dict[str, int]] = {
            variable: {} for variable in self._variables}
        codes = np.full((len(self._training), len(self._variables)), -1,
                        dtype=np.int32)
        for row, (observed, _) in enumerate(self._training):
            for col, variable in enumerate(self._variables):
                state = observed.get(variable)
                if state is not None:
                    mapping = self._state_codes[variable]
                    codes[row, col] = mapping.setdefault(state, len(mapping))
        self._codes = codes
        self._present = codes >= 0
        return self

    # --------------------------------------------------------------- diagnosis
    def rank(self, evidence: Mapping[str, str]) -> list[tuple[str, float]]:
        """Return blocks ranked by the vote share of the k nearest neighbours."""
        if not self._training:
            raise DiagnosisError("nearest-neighbour diagnoser has not been fitted")
        evidence = {variable: str(state) for variable, state in evidence.items()}
        # Evidence variables outside the training vocabulary are never shared
        # with any training case, so encoding over the vocabulary is exact.
        query = np.full(len(self._variables), -1, dtype=np.int32)
        for col, variable in enumerate(self._variables):
            state = evidence.get(variable)
            if state is not None:
                query[col] = self._state_codes[variable].get(state, -2)
        shared = self._present & (query != -1)[None, :]
        shared_counts = shared.sum(axis=1)
        agreement = (shared & (self._codes == query[None, :])).sum(axis=1)
        similarities = np.where(shared_counts > 0,
                                agreement / np.maximum(shared_counts, 1), 0.0)
        # Stable descending sort keeps the scalar path's tie-break (training
        # insertion order) intact.
        nearest = np.argsort(-similarities, kind="stable")[:self.k]
        votes = Counter(self._training[int(index)][1] for index in nearest)
        total = sum(votes.values())
        ranking = [(block, count / total) for block, count in votes.most_common()]
        # Blocks never seen among the neighbours get rank after all voted ones.
        seen = {block for block, _ in ranking}
        remaining = sorted({block for _, block in self._training} - seen)
        ranking.extend((block, 0.0) for block in remaining)
        return ranking

    def diagnose(self, evidence: Mapping[str, str]) -> str:
        """Return the block with the most neighbour votes."""
        return self.rank(evidence)[0][0]

    def rank_of(self, evidence: Mapping[str, str], true_block: str) -> int:
        """Return the 1-based rank of ``true_block`` for ``evidence``."""
        ranking = self.rank(evidence)
        for rank, (block, _) in enumerate(ranking, start=1):
            if block == true_block:
                return rank
        return len(ranking) + 1
