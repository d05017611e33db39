"""Junction-tree (clique-tree) belief propagation.

Netica, the commercial engine used by the paper, compiles the BBN into a
junction tree and answers every marginal query from the calibrated clique
potentials.  This module reproduces that behaviour: the tree is built once
(moralisation, triangulation with the min-fill heuristic, maximum-spanning
sepset tree), evidence is entered, the tree is calibrated with a single
collect/distribute pass, and every node marginal is then available without
further elimination work.

Evidence is read once by the network's
:class:`~repro.bayesnet.codec.EvidenceCodec` into state codes (a bad entry
raises ``InferenceError``, as in every engine) and its row key.
Calibrations are cached by that key (not just the most recent evidence
set), and the per-variable distributions read from the calibrated cliques
are memoised alongside each calibration, so population workflows that
revisit the same failing condition pay for calibration exactly once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import Evidence, EvidenceCodec
from repro.bayesnet.factor import DiscreteFactor, contract_factors
from repro.bayesnet.inference._evidence_cache import EvidenceCache
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import ImpossibleEvidenceError, InferenceError


class _Clique:
    """A clique node of the junction tree."""

    def __init__(self, index: int, variables: frozenset[str]) -> None:
        self.index = index
        self.variables = variables
        self.neighbours: list[int] = []
        self.potential: DiscreteFactor | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clique({sorted(self.variables)})"


class _Calibration:
    """One calibrated state of the tree: potentials, P(e) and marginal memo."""

    __slots__ = ("potentials", "probability", "distributions")

    def __init__(self, potentials: list[DiscreteFactor],
                 probability: float) -> None:
        self.potentials = potentials
        self.probability = probability
        #: ``{state: probability}`` dicts memoised per variable, so repeated
        #: single-marginal queries on an unchanged calibration skip both the
        #: marginalisation and the dict construction.
        self.distributions: dict[str, dict[str, float]] = {}


class JunctionTree:
    """Exact inference through junction-tree calibration.

    Parameters
    ----------
    network:
        A fully specified Bayesian network.

    Attributes
    ----------
    calibration_count:
        Number of collect/distribute calibrations executed so far.  Cache
        hits do not increment it; tests use it to assert the calibrate-once,
        query-many behaviour.
    """

    def __init__(self, network: BayesianNetwork) -> None:
        network.check_model()
        self.network = network
        self._cardinalities = {node: network.cardinality(node)
                               for node in network.nodes}
        self._state_names = {node: network.state_names(node)
                             for node in network.nodes}
        self._cliques: list[_Clique] = []
        self._sepsets: dict[tuple[int, int], frozenset[str]] = {}
        self._build_tree()
        self._home_clique = {
            node: min((c.index for c in self._cliques if node in c.variables),
                      key=lambda i: len(self._cliques[i].variables))
            for node in network.nodes}
        self.calibration_count = 0
        self._calibrations = EvidenceCache(network)

    # ------------------------------------------------------------ construction
    def _build_tree(self) -> None:
        adjacency = self.network.graph.moral_graph()
        cliques = self._triangulate(adjacency)
        self._cliques = [_Clique(i, frozenset(c)) for i, c in enumerate(cliques)]
        self._connect_cliques()

    def _triangulate(self, adjacency: dict[str, set[str]]) -> list[set[str]]:
        """Triangulate the moral graph and return its maximal cliques.

        Uses greedy min-fill elimination; each elimination step produces a
        candidate clique (the node plus its current neighbours), and
        non-maximal candidates are discarded.
        """
        adjacency = {node: set(neighbours) for node, neighbours in adjacency.items()}
        remaining = set(adjacency)
        candidate_cliques: list[set[str]] = []
        while remaining:
            def fill_in(node: str) -> int:
                neighbours = [n for n in adjacency[node] if n in remaining]
                count = 0
                for i, first in enumerate(neighbours):
                    for second in neighbours[i + 1:]:
                        if second not in adjacency[first]:
                            count += 1
                return count

            node = min(sorted(remaining), key=fill_in)
            neighbours = [n for n in adjacency[node] if n in remaining]
            clique = set(neighbours) | {node}
            candidate_cliques.append(clique)
            for i, first in enumerate(neighbours):
                for second in neighbours[i + 1:]:
                    adjacency[first].add(second)
                    adjacency[second].add(first)
            remaining.discard(node)

        maximal: list[set[str]] = []
        for clique in candidate_cliques:
            if not any(clique < other for other in candidate_cliques if other != clique):
                if clique not in maximal:
                    maximal.append(clique)
        return maximal

    def _connect_cliques(self) -> None:
        """Build a maximum-spanning tree over clique intersections (Kruskal)."""
        count = len(self._cliques)
        if count <= 1:
            return
        edges = []
        for i in range(count):
            for j in range(i + 1, count):
                intersection = self._cliques[i].variables & self._cliques[j].variables
                if intersection:
                    edges.append((len(intersection), i, j, intersection))
        edges.sort(key=lambda e: -e[0])

        parent = list(range(count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        added = 0
        for weight, i, j, intersection in edges:
            root_i, root_j = find(i), find(j)
            if root_i != root_j:
                parent[root_i] = root_j
                self._cliques[i].neighbours.append(j)
                self._cliques[j].neighbours.append(i)
                self._sepsets[(i, j)] = frozenset(intersection)
                self._sepsets[(j, i)] = frozenset(intersection)
                added += 1
                if added == count - 1:
                    break

        # A disconnected moral graph yields a forest; join the components with
        # empty sepsets so that a single message-passing pass still works.
        components: dict[int, int] = {}
        for i in range(count):
            components.setdefault(find(i), i)
        representatives = list(components.values())
        for first, second in zip(representatives, representatives[1:]):
            self._cliques[first].neighbours.append(second)
            self._cliques[second].neighbours.append(first)
            self._sepsets[(first, second)] = frozenset()
            self._sepsets[(second, first)] = frozenset()

    # ------------------------------------------------------------- potentials
    def _identity_factor(self, variables: Iterable[str]) -> DiscreteFactor:
        variables = sorted(variables)
        if not variables:
            return DiscreteFactor._from_parts([], [], np.array(1.0), {})
        cards = [self._cardinalities[v] for v in variables]
        names = {v: self._state_names[v] for v in variables}
        return DiscreteFactor._from_parts(variables, cards, np.ones(cards), names)

    def _initial_potentials(self, codes: Mapping[str, int]
                            ) -> list[DiscreteFactor]:
        assigned: list[list[DiscreteFactor]] = [[] for _ in self._cliques]
        for cpd in self.network.cpds:
            factor = cpd.to_factor().reduce(codes)
            family = set(cpd.parents) | {cpd.variable}
            home = None
            for clique in self._cliques:
                if family <= clique.variables:
                    home = clique.index
                    break
            if home is None:
                raise InferenceError(
                    f"no clique contains the family of {cpd.variable!r}; "
                    "triangulation is inconsistent")
            assigned[home].append(factor)
        potentials = []
        for index, clique in enumerate(self._cliques):
            # Evidence variables disappear from the reduced CPD factors, and
            # other clique variables may have no assigned CPD factor at all;
            # multiplying by the identity over the unobserved clique scope
            # keeps every non-evidence axis present for querying.
            scope = [v for v in clique.variables if v not in codes]
            potentials.append(contract_factors(
                [self._identity_factor(scope)] + assigned[index]))
        return potentials

    # -------------------------------------------------------------- calibration
    def calibrate(self, evidence: Evidence | None = None) -> None:
        """Enter ``evidence`` and calibrate the tree with collect/distribute."""
        evidence = dict(evidence or {})
        self._calibrate(EvidenceCodec.of(self.network).key(
            evidence, InferenceError), evidence)

    def _calibrate(self, key: tuple, evidence: dict) -> _Calibration:
        """Calibrate on the evidence whose row key is ``key``; cache it."""
        potentials = self._initial_potentials(dict(key))
        count = len(self._cliques)
        if count == 0:
            raise InferenceError("network has no nodes")
        self.calibration_count += 1

        messages: dict[tuple[int, int], DiscreteFactor] = {}

        root = 0
        order = self._dfs_order(root)

        # Collect: leaves towards the root.
        for node in reversed(order):
            parent = self._dfs_parent.get(node)
            if parent is None:
                continue
            messages[(node, parent)] = self._message(
                node, parent, potentials, messages, exclude=parent)

        # Distribute: root towards the leaves.
        for node in order:
            for child in self._cliques[node].neighbours:
                if child == self._dfs_parent.get(node):
                    continue
                messages[(node, child)] = self._message(
                    node, child, potentials, messages, exclude=child)

        calibrated = []
        for clique in self._cliques:
            belief = contract_factors(
                [potentials[clique.index]]
                + [messages[(neighbour, clique.index)]
                   for neighbour in clique.neighbours])
            calibrated.append(belief)

        total = float(calibrated[root].values.sum())
        if not np.isfinite(total):
            raise InferenceError(
                f"non-finite calibration mass {total!r}; the network "
                "contains corrupted (NaN/inf) CPD entries")
        if total <= 0:
            raise ImpossibleEvidenceError(
                "evidence has zero probability under the model; "
                "cannot calibrate the junction tree", evidence=evidence)
        calibration = _Calibration(calibrated, total)
        self._calibrations.refresh()
        self._calibrations.put(key, calibration)
        return calibration

    def _ensure_calibrated(self, evidence: dict,
                           variables: Sequence[str] = ()) -> _Calibration:
        """Return the calibration for ``evidence``, computing it if needed.

        The codec checks the evidence and the query ``variables`` first.
        Replacing a CPD on the network drops every cached calibration, so
        parameter updates recalibrate from live tables.
        """
        key = EvidenceCodec.of(self.network).key(evidence, InferenceError,
                                                 variables)
        self._calibrations.refresh()
        cached = self._calibrations.get(key)
        return self._calibrate(key, evidence) if cached is None else cached

    def _dfs_order(self, root: int) -> list[int]:
        order = []
        self._dfs_parent: dict[int, int | None] = {root: None}
        stack = [root]
        seen = {root}
        while stack:
            node = stack.pop()
            order.append(node)
            for neighbour in self._cliques[node].neighbours:
                if neighbour not in seen:
                    seen.add(neighbour)
                    self._dfs_parent[neighbour] = node
                    stack.append(neighbour)
        return order

    def _message(self, source: int, target: int,
                 potentials: list[DiscreteFactor],
                 messages: dict[tuple[int, int], DiscreteFactor],
                 exclude: int) -> DiscreteFactor:
        incoming = [potentials[source]]
        for neighbour in self._cliques[source].neighbours:
            if neighbour == exclude:
                continue
            incoming.append(messages[(neighbour, source)])
        sepset = self._sepsets[(source, target)]
        return contract_factors(incoming, keep=sepset)

    # ---------------------------------------------------------------- marginals
    def _distribution(self, variable: str,
                      calibration: _Calibration) -> dict[str, float]:
        """Return the memoised ``{state: probability}`` dict of a marginal.

        A miss reads the normalised marginal from the variable's home
        clique.
        """
        cached = calibration.distributions.get(variable)
        if cached is None:
            potential = calibration.potentials[self._home_clique[variable]]
            extra = [v for v in potential.variables if v != variable]
            cached = potential.marginalize(extra).normalize().to_distribution()
            calibration.distributions[variable] = cached
        # Hand out copies: callers may mutate the posterior dicts.
        return dict(cached)

    # ------------------------------------------------------------------ query
    def query(self, variables: Sequence[str],
              evidence: Evidence | None = None) -> DiscreteFactor:
        """Return the posterior factor of ``variables`` given ``evidence``.

        When all query variables live in one clique the answer comes straight
        from the calibrated potential; otherwise the engine falls back to
        combining calibrated potentials with out-of-clique elimination (exact,
        just slower).
        """
        evidence = dict(evidence or {})
        variables = list(variables)
        if not variables:
            raise InferenceError("query requires at least one variable")
        calibration = self._ensure_calibrated(evidence, variables)

        query_set = set(variables)
        for clique, potential in zip(self._cliques, calibration.potentials):
            if query_set <= clique.variables:
                extra = [v for v in potential.variables if v not in query_set]
                return potential.marginalize(extra).normalize()

        # The query spans several cliques.  Exact joint posteriors across
        # cliques require out-of-clique elimination; delegate to variable
        # elimination, which is exact and handles arbitrary query sets.
        from repro.bayesnet.inference.variable_elimination import VariableElimination

        return VariableElimination(self.network).query(variables, evidence)

    def posterior(self, variable: str,
                  evidence: Evidence | None = None) -> dict[str, float]:
        """Return ``P(variable | evidence)`` as ``{state: probability}``."""
        return self.posteriors([variable], evidence)[variable]

    def posteriors(self, variables: Iterable[str],
                   evidence: Evidence | None = None) -> dict[str, dict[str, float]]:
        """Return every requested marginal from one calibration of the tree."""
        evidence = dict(evidence or {})
        variables = list(variables)
        calibration = self._ensure_calibrated(evidence, variables)
        return {variable: self._distribution(variable, calibration)
                for variable in variables}

    def map_query(self, variables: Sequence[str],
                  evidence: Evidence | None = None) -> dict[str, str]:
        """Return the most probable joint assignment of ``variables``."""
        return self.query(variables, evidence).argmax()

    def probability_of_evidence(self, evidence: Evidence) -> float:
        """Return ``P(evidence)`` after calibrating on ``evidence``."""
        return self._ensure_calibrated(dict(evidence)).probability

    # ------------------------------------------------------------- inspection
    @property
    def cliques(self) -> list[frozenset[str]]:
        """The variable sets of the junction-tree cliques."""
        return [clique.variables for clique in self._cliques]

    @property
    def tree_width(self) -> int:
        """The induced tree width (largest clique size minus one)."""
        return max(len(clique.variables) for clique in self._cliques) - 1
