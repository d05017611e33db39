"""Exact inference by variable elimination.

This is the default inference engine of the diagnosis stack: the voltage
regulator network of the paper has 19 nodes with at most five states, which
variable elimination answers in well under a millisecond per query.

The hot path of diagnosis is *all-marginals* queries: every case asks for the
posterior of every model variable.  Answering those one elimination per
variable repeats almost all of the work, so :meth:`VariableElimination.posteriors`
runs a single shared-bucket sweep instead — a forward bucket-elimination pass
followed by a backward message pass over the implied bucket tree — which
yields every marginal at roughly the cost of one elimination.  The result is
cached keyed by the evidence signature, making repeated queries on the same
case near-free.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.bayesnet.factor import DiscreteFactor, contract_factors
from repro.bayesnet.inference._evidence_cache import (
    EvidenceCache,
    evidence_key,
    resolve_cache_size,
)
from repro.bayesnet.inference.elimination_order import (
    min_degree_order,
    min_fill_order,
    min_weight_order,
)
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import ImpossibleEvidenceError, InferenceError

Evidence = Mapping[str, str | int]

#: Elimination orders shared across engines.  The greedy heuristics are pure
#: functions of the DAG structure (plus cardinalities for min-weight), so
#: engines over structurally identical networks — e.g. one fresh engine per
#: learned model of the same circuit — reuse each other's orders instead of
#: re-running the O(n^2) heuristic.  Only the module's own heuristics
#: participate; a user-supplied callable may close over anything.
_SHARED_ORDER_HEURISTICS = (min_fill_order, min_degree_order, min_weight_order)
_SHARED_ORDER_CACHE: dict[tuple, list[str]] = {}
_SHARED_ORDER_CACHE_LIMIT = 256

#: Memoised contraction plans for the batched sweeps, keyed by the operands'
#: variable lists and the keep set: the same bucket structure repeats every
#: sweep, so the axis-alignment bookkeeping (transposes, broadcast slots,
#: summed axes) is computed once per contraction shape.
_CONTRACT_PLAN_CACHE: dict[tuple, tuple] = {}


class VariableElimination:
    """Sum-product variable elimination on a :class:`BayesianNetwork`.

    Parameters
    ----------
    network:
        A fully specified network (``check_model()`` must pass).
    elimination_order:
        Optional callable ``(network, to_eliminate) -> list`` used to pick the
        elimination order; defaults to the min-fill heuristic.

    Attributes
    ----------
    sweep_count:
        Number of full elimination sweeps executed so far (one per
        :meth:`query` call and one per uncached all-marginals pass).  Cache
        hits do not increment it; tests use it to assert the single-pass
        behaviour.
    """

    def __init__(self, network: BayesianNetwork, elimination_order=None, *,
                 cache_size: int | None = None) -> None:
        network.check_model()
        self.network = network
        self._order_heuristic = elimination_order or min_fill_order
        self.sweep_count = 0
        capacity = resolve_cache_size(cache_size)
        self._marginal_cache = EvidenceCache(network, capacity)
        self._probability_cache = EvidenceCache(network, capacity)
        # Elimination orders depend only on the (immutable) structure, so one
        # entry per free-variable set never goes stale; the base factor list
        # tracks CPD replacement through the evidence-cache refresh.
        self._order_cache: dict[frozenset, list[str]] = {}
        self._base_factors: list[DiscreteFactor] | None = None
        # Per-variable (state-name set, names, cardinality) entries used by
        # _validate, rebuilt lazily when CPDs are replaced.
        self._schema: dict[str, tuple[frozenset, list[str], int]] = {}
        self._schema_version = -1

    # ---------------------------------------------------------------- caching
    def _refresh_caches(self) -> None:
        # Both caches invalidate on the same trigger (CPD replacement), so
        # the probability cache only needs a refresh when the marginal cache
        # just detected one — no second signature scan on the hot path.
        if self._marginal_cache.refresh():
            self._base_factors = None
            self._probability_cache.refresh()

    def _factors(self) -> list[DiscreteFactor]:
        if self._base_factors is None:
            self._base_factors = self.network.to_factors()
        return self._base_factors

    def _elimination_order(self, to_eliminate: Sequence[str]) -> list[str]:
        """Return the memoised elimination order for one free-variable set.

        Cache misses run the (expensive) greedy heuristic once per distinct
        set of variables to eliminate; the typical diagnosis workload asks
        for the same set — all non-evidence variables of the standard test
        program — for every case, so this turns the per-sweep heuristic cost
        into a dictionary lookup.
        """
        key = frozenset(to_eliminate)
        order = self._order_cache.get(key)
        if order is None:
            shared_key = None
            if self._order_heuristic in _SHARED_ORDER_HEURISTICS:
                graph = self.network.graph
                shared_key = (self._order_heuristic.__name__,
                              tuple(graph.nodes), tuple(graph.edges),
                              tuple(self.network.cardinality(node)
                                    for node in graph.nodes),
                              key)
                order = _SHARED_ORDER_CACHE.get(shared_key)
            if order is None:
                order = self._order_heuristic(self.network, to_eliminate)
                if shared_key is not None:
                    if len(_SHARED_ORDER_CACHE) >= _SHARED_ORDER_CACHE_LIMIT:
                        _SHARED_ORDER_CACHE.clear()
                    _SHARED_ORDER_CACHE[shared_key] = order
            self._order_cache[key] = order
        return order

    # ----------------------------------------------------------------- checks
    def _validation_schema(self) -> dict[str, tuple[frozenset, list[str], int]]:
        """Per-variable ``(state-name set, cardinality)`` lookup for _validate.

        Batched queries validate hundreds of evidence dicts over the same
        handful of variables, so the per-variable CPD walk is done once per
        CPD generation and validation becomes plain dict probes.
        """
        version = self.network.cpd_version
        if self._schema_version != version:
            self._schema = {}
            self._schema_version = version
        return self._schema

    def _validate(self, variables: Sequence[str], evidence: Evidence) -> None:
        schema = self._validation_schema()
        for variable in variables:
            if variable not in self.network.graph:
                raise InferenceError(f"unknown query variable {variable!r}")
        for variable, state in evidence.items():
            entry = schema.get(variable)
            if entry is None:
                if variable not in self.network.graph:
                    raise InferenceError(
                        f"unknown evidence variable {variable!r}")
                cpd = self.network.get_cpd(variable)
                names = cpd.state_names[variable]
                entry = (frozenset(names), list(names), cpd.cardinality)
                schema[variable] = entry
            name_set, names, cardinality = entry
            if isinstance(state, str) and state not in name_set:
                raise InferenceError(
                    f"unknown state {state!r} for evidence variable {variable!r}; "
                    f"known states: {names}")
            if isinstance(state, int) and not 0 <= state < cardinality:
                raise InferenceError(
                    f"state index {state} out of range for evidence variable "
                    f"{variable!r}")
        if variables:
            overlap = set(variables) & set(evidence)
            if overlap:
                raise InferenceError(
                    f"variables {sorted(overlap)} appear both as query and "
                    f"evidence")

    # ------------------------------------------------------------------ query
    def query(self, variables: Sequence[str],
              evidence: Evidence | None = None) -> DiscreteFactor:
        """Return the joint posterior factor of ``variables`` given ``evidence``."""
        evidence = dict(evidence or {})
        variables = list(variables)
        if not variables:
            raise InferenceError("query requires at least one variable")
        self._validate(variables, evidence)

        self._refresh_caches()
        factors = [factor.reduce(evidence) if evidence else factor
                   for factor in self._factors()]
        keep = set(variables)
        to_eliminate = [node for node in self.network.nodes
                        if node not in keep and node not in evidence]
        order = self._elimination_order(to_eliminate)
        self.sweep_count += 1

        working = list(factors)
        for node in order:
            involved = [f for f in working if node in f._axes]
            if not involved:
                continue
            working = [f for f in working if node not in f._axes]
            working.append(contract_factors(
                involved, keep=[v for f in involved for v in f.variables
                                if v != node]))

        result = contract_factors(working, keep=keep)
        total = float(result.values.sum())
        if not total > 0.0 or not np.isfinite(total):
            raise ImpossibleEvidenceError(
                "the evidence has zero probability under the model; "
                "posteriors are undefined", evidence=evidence)
        return result.normalize()

    # ------------------------------------------------------- all-marginal sweep
    def _all_marginals(self, evidence: Evidence
                       ) -> tuple[dict[str, dict[str, float]] | None, float]:
        """Return ``({variable: {state: probability}}, P(evidence))``.

        All non-evidence marginals come from ONE shared-bucket sweep: a
        forward bucket-elimination pass builds the bucket tree, a backward
        pass sends each bucket the information external to its subtree, and
        the product of a bucket's own potential with its backward message is
        the exact joint over the bucket scope.  The sweep runs through the
        batched array kernel with a single case row, so scalar and batched
        posteriors are bit-for-bit identical (every batched operation is
        elementwise along the case axis).  Results are cached per evidence
        signature.  Zero-probability evidence yields ``(None, 0.0)`` (also
        cached); posterior readers turn that into an error.  Replacing a CPD
        on the network drops the cache, so parameter updates are never
        served stale posteriors.
        """
        self._refresh_caches()
        key = evidence_key(self.network, evidence)
        cached = self._marginal_cache.get(key)
        if cached is not None:
            return cached
        # Callers validated the evidence already (posterior/posteriors).
        ((variables, codes, _),) = self._batch_groups([evidence],
                                                      validated=True)
        marginals, constants = self._sweep_batch(variables, codes)
        distributions = self._batch_distributions(marginals, constants)
        result = (distributions[0],
                  float(constants[0]) if distributions[0] is not None else 0.0)
        self._marginal_cache.put(key, result)
        return result

    # -------------------------------------------------------------- posteriors
    def posterior(self, variable: str,
                  evidence: Evidence | None = None) -> dict[str, float]:
        """Return ``P(variable | evidence)`` as ``{state: probability}``."""
        evidence = dict(evidence or {})
        self._validate([variable], evidence)
        marginals, _ = self._all_marginals(evidence)
        if marginals is None:
            raise ImpossibleEvidenceError(
                "the evidence has zero probability under the model; "
                "posteriors are undefined", evidence=evidence)
        return dict(marginals[variable])

    def posteriors(self, variables: Iterable[str],
                   evidence: Evidence | None = None) -> dict[str, dict[str, float]]:
        """Return the marginal posterior of each variable from a single sweep."""
        variables = list(variables)
        evidence = dict(evidence or {})
        self._validate(variables, evidence)
        marginals, _ = self._all_marginals(evidence)
        if marginals is None:
            raise ImpossibleEvidenceError(
                "the evidence has zero probability under the model; "
                "posteriors are undefined", evidence=evidence)
        return {variable: dict(marginals[variable])
                for variable in variables}

    def map_query(self, variables: Sequence[str],
                  evidence: Evidence | None = None) -> dict[str, str]:
        """Return the most probable joint assignment of ``variables``."""
        joint = self.query(variables, evidence)
        return joint.argmax()

    def compile_posteriors(self, evidence_vars):
        """Trace this engine's bucket sweep into a ``CompiledProgram``.

        The shared forward/backward sweep for the evidence-variable set is
        recorded once as a static op-list (pinned CPT gathers, precomputed
        contraction plans, preallocated buffers); the returned program
        answers ``run(evidence)`` / ``run_batch(matrix)`` without
        re-walking the factor graph.  See
        :mod:`repro.bayesnet.inference.compiled`.
        """
        from repro.bayesnet.inference.compiled import compile_from_engine
        return compile_from_engine(self, evidence_vars, "ve")

    def probability_of_evidence(self, evidence: Evidence) -> float:
        """Return ``P(evidence)`` (the data likelihood of the observation).

        Uses a forward-only bucket pass — evidence probability needs no
        backward message pass, which roughly halves the sweep cost of
        likelihood scoring workloads.  Full-sweep results cached for the same
        evidence are reused instead of running a new pass.
        """
        evidence = dict(evidence)
        if not evidence:
            return 1.0
        self._validate([], evidence)
        self._refresh_caches()
        key = evidence_key(self.network, evidence)
        cached_sweep = self._marginal_cache.get(key)
        if cached_sweep is not None:
            return cached_sweep[1]
        cached_probability = self._probability_cache.get(key)
        if cached_probability is not None:
            return cached_probability
        probability = self._forward_constant(evidence)
        self._probability_cache.put(key, probability)
        return probability

    def _forward_constant(self, evidence: Evidence) -> float:
        """Run only the forward bucket pass and return ``P(evidence)``.

        Routed through the batched kernel with a single case row so the
        scalar and batched likelihood paths can never diverge numerically.
        """
        self.sweep_count += 1
        ((variables, codes, _),) = self._batch_groups([evidence],
                                                      validated=True)
        return float(self._forward_pass_batch(variables, codes)[-1][0])

    # ------------------------------------------------------------ batched sweeps
    def posteriors_batch(self, evidence_list: Sequence[Evidence], *,
                         validated: bool = False
                         ) -> list[dict[str, dict[str, float]] | None]:
        """Return every case's all-marginal posteriors from batched sweeps.

        Cases are grouped by their evidence variable set, duplicate evidence
        configurations are deduplicated, rows the evidence cache already
        holds (answered by an earlier call or by :meth:`posteriors`) are read
        from it, and each group's remaining rows run ONE elimination sweep
        with the case axis carried through every ``einsum`` contraction —
        the population-scoring counterpart of :meth:`posteriors`; swept rows
        are cached in turn.  Each result slot maps every non-evidence
        variable to its posterior distribution, in dicts of its own;
        zero-probability evidence yields ``None`` in that slot (callers
        decide whether that is an error), and non-finite CPD entries raise
        :class:`InferenceError` exactly like the scalar sweep.

        ``validated=True`` skips per-case evidence validation — for callers
        (the batched diagnosis path) that already ran :meth:`_validate` on
        every case to keep failure isolation per slot.
        """
        results: list[dict[str, dict[str, float]] | None] = [None] * len(evidence_list)
        for variables, codes, indices in self._batch_groups(
                evidence_list, validated=validated):
            # The evidence key of each row, as evidence_key builds it:
            # sorted (variable, state index) pairs.
            keys = [tuple(zip(variables, row)) for row in codes.tolist()]
            entries: dict[tuple, tuple | None] = {}
            missing: list[int] = []
            for row, key in enumerate(keys):
                if key not in entries:
                    entries[key] = self._marginal_cache.get(key)
                    if entries[key] is None:
                        missing.append(row)
            if missing:
                marginals, constants = self._sweep_batch(variables,
                                                         codes[missing])
                for row, distribution, constant in zip(
                        missing,
                        self._batch_distributions(marginals, constants),
                        constants.tolist()):
                    entry = (distribution,
                             constant if distribution is not None else 0.0)
                    entries[keys[row]] = entry
                    self._marginal_cache.put(keys[row], entry)
            for slot, key in zip(indices, keys):
                distribution = entries[key][0]
                if distribution is not None:
                    results[slot] = {
                        variable: dict(states)
                        for variable, states in distribution.items()}
        return results

    def probabilities_of_evidence(self, evidence_list: Sequence[Evidence]
                                  ) -> np.ndarray:
        """Return ``P(evidence)`` for many observations from batched passes.

        The batched counterpart of :meth:`probability_of_evidence`: one
        forward-only bucket pass per distinct evidence variable set, with all
        of that group's unique configurations evaluated along the case axis.
        """
        results = np.ones(len(evidence_list))
        for variables, codes, indices in self._batch_groups(evidence_list):
            if not variables:
                continue
            unique, inverse = np.unique(codes, axis=0, return_inverse=True)
            self.sweep_count += 1
            constants = self._forward_pass_batch(variables, unique)[-1]
            if not np.all(np.isfinite(constants)):
                raise InferenceError(
                    "non-finite evidence probability; the network contains "
                    "corrupted (NaN/inf) CPD entries")
            results[indices] = constants[inverse]
        return results

    def _batch_groups(self, evidence_list: Sequence[Evidence], *,
                      validated: bool = False
                      ) -> list[tuple[list[str], np.ndarray, list[int]]]:
        """Validate and encode cases, grouped by evidence variable set.

        Returns ``(variables, codes, indices)`` triples where ``codes`` is
        the ``(cases, len(variables))`` state-index matrix of the group and
        ``indices`` maps its rows back to ``evidence_list`` slots.
        """
        self._refresh_caches()
        lookups: dict[str, dict[str, int]] = {}
        groups: dict[frozenset, tuple[list[str], list[list[int]], list[int]]] = {}
        for slot, evidence in enumerate(evidence_list):
            evidence = dict(evidence or {})
            if not validated:
                self._validate([], evidence)
            key = frozenset(evidence)
            group = groups.get(key)
            if group is None:
                group = (sorted(evidence), [], [])
                groups[key] = group
            variables, rows, indices = group
            row = []
            for variable in variables:
                state = evidence[variable]
                if isinstance(state, str):
                    lookup = lookups.get(variable)
                    if lookup is None:
                        names = self.network.get_cpd(variable).state_names[variable]
                        lookup = {name: i for i, name in enumerate(names)}
                        lookups[variable] = lookup
                    row.append(lookup[state])
                else:
                    row.append(int(state))
            rows.append(row)
            indices.append(slot)
        return [(variables, np.array(rows, dtype=np.int64).reshape(len(rows),
                                                                   len(variables)),
                 indices)
                for variables, rows, indices in groups.values()]

    def _batch_distributions(self, marginals, constants
                             ) -> list[dict[str, dict[str, float]] | None]:
        """Expand batched marginal arrays into per-case distribution dicts."""
        count = len(constants)
        results: list[dict[str, dict[str, float]] | None] = [None] * count
        # One tolist() per variable turns the planes into Python floats at C
        # speed; the per-row work is then plain dict building.
        columns = [(self.network.get_cpd(variable).state_names[variable],
                    values.tolist(), variable)
                   for variable, values in marginals.items()]
        for row, constant in enumerate(constants.tolist()):
            if constant <= 0.0:
                continue
            results[row] = {variable: dict(zip(names, rows[row]))
                            for names, rows, variable in columns}
        return results

    def _reduce_rows(self, factor: DiscreteFactor,
                     columns: Mapping[str, np.ndarray], count: int
                     ) -> tuple[list[str], np.ndarray, bool]:
        """Condition one factor on per-case evidence codes.

        Returns ``(variables, values, batched)`` where ``values`` carries a
        leading case axis iff ``batched`` (the factor mentioned at least one
        evidence variable).
        """
        hit = [v for v in factor.variables if v in columns]
        if not hit:
            return list(factor.variables), factor.values, False
        variables = list(factor.variables)
        values = factor.values
        batched = False
        for variable in hit:
            axis = variables.index(variable) + (1 if batched else 0)
            if batched:
                values = values.transpose(
                    (0, axis) + tuple(a for a in range(1, values.ndim)
                                      if a != axis))
                values = values[np.arange(count), columns[variable]]
            else:
                values = values.take(columns[variable], axis=axis)
                values = values.transpose(
                    (axis,) + tuple(a for a in range(values.ndim)
                                    if a != axis))
                batched = True
            variables.remove(variable)
        return variables, values, batched

    @staticmethod
    def _contract_rows(items: Sequence[tuple[list[str], np.ndarray, bool]],
                       keep: Sequence[str] | None
                       ) -> tuple[list[str], np.ndarray, bool]:
        """Multiply batched/unbatched tables, summing out all but ``keep``.

        The batched analogue of :func:`contract_factors`, specialised for
        the sweep's tiny cluster tables: every operand is broadcast-aligned
        to the union variable order (with the case axis leading when any
        operand carries one), multiplied, and the dropped axes are summed in
        one pass.  For tables this small ``einsum``'s subscript parsing and
        path handling cost more than the arithmetic, so plain broadcasting
        wins.  ``keep=None`` keeps every variable.
        """
        if len(items) == 1:
            variables, values, batched = items[0]
            if keep is None or set(keep) == set(variables):
                return items[0]
            # A lone operand only needs axes summed out — no alignment.
            keep_set = set(keep)
            offset = 1 if batched else 0
            axes = tuple(offset + i for i, v in enumerate(variables)
                         if v not in keep_set)
            return ([v for v in variables if v in keep_set],
                    values.sum(axis=axes), batched)
        key = (tuple((tuple(variables), item_batched)
                     for variables, _, item_batched in items),
               None if keep is None else tuple(keep))
        plan = _CONTRACT_PLAN_CACHE.get(key)
        if plan is None:
            order: list[str] = []
            seen = set()
            batched = False
            for variables, _, item_batched in items:
                batched = batched or item_batched
                for variable in variables:
                    if variable not in seen:
                        seen.add(variable)
                        order.append(variable)
            position = {variable: i for i, variable in enumerate(order)}
            width = len(order)
            aligners: list[tuple[tuple[int, ...] | None, tuple]] = []
            for variables, _, item_batched in items:
                perm = sorted(range(len(variables)),
                              key=lambda i: position[variables[i]])
                if item_batched:
                    transpose: tuple[int, ...] | None = \
                        tuple([0] + [1 + i for i in perm])
                elif perm != list(range(len(variables))):
                    transpose = tuple(perm)
                else:
                    transpose = None
                if item_batched:
                    index: list[object] = [slice(None)]
                elif batched:
                    index = [np.newaxis]
                else:
                    index = []
                present = {position[v] for v in variables}
                index.extend(slice(None) if axis in present else np.newaxis
                             for axis in range(width))
                aligners.append((transpose, tuple(index)))
            if keep is None:
                out_vars = order
                drop: tuple[int, ...] = ()
            else:
                keep_set = set(keep)
                out_vars = [v for v in order if v in keep_set]
                offset = 1 if batched else 0
                drop = tuple(offset + i for i, v in enumerate(order)
                             if v not in keep_set)
            plan = (tuple(out_vars), batched, tuple(aligners), drop)
            if len(_CONTRACT_PLAN_CACHE) >= _SHARED_ORDER_CACHE_LIMIT:
                _CONTRACT_PLAN_CACHE.clear()
            _CONTRACT_PLAN_CACHE[key] = plan
        out_vars, batched, aligners, drop = plan
        result = None
        for (variables, values, item_batched), (transpose, index) in zip(
                items, aligners):
            if transpose is not None:
                values = values.transpose(transpose)
            aligned = values[index]
            result = aligned if result is None else result * aligned
        if drop:
            result = result.sum(axis=drop)
        return list(out_vars), result, batched

    def _forward_pass_batch(self, evidence_vars: Sequence[str],
                            codes: np.ndarray) -> tuple:
        """Batched forward bucket-elimination over ``codes.shape[0]`` cases.

        Mirrors :meth:`_forward_pass` with every bucket entry carrying a
        ``(variables, values, batched)`` table; ``constants`` accumulates to
        the per-case ``P(evidence)`` vector.
        """
        count = codes.shape[0]
        columns = {variable: codes[:, position]
                   for position, variable in enumerate(evidence_vars)}
        free = [node for node in self.network.nodes if node not in columns]
        order = self._elimination_order(free)
        position = {variable: i for i, variable in enumerate(order)}

        buckets: list[list[tuple[list[str], np.ndarray, bool]]] = \
            [[] for _ in order]
        constants = np.ones(count)
        for factor in self._factors():
            variables, values, batched = self._reduce_rows(factor, columns,
                                                           count)
            if variables:
                buckets[min(position[v] for v in variables)].append(
                    (variables, values, batched))
            else:
                constants = constants * values

        potentials: list[tuple | None] = [None] * len(order)
        forward: list[tuple | None] = [None] * len(order)
        parent: list[int | None] = [None] * len(order)
        for i, variable in enumerate(order):
            psi = self._contract_rows(buckets[i], keep=None)
            potentials[i] = psi
            psi_vars, psi_values, psi_batched = psi
            axis = psi_vars.index(variable) + (1 if psi_batched else 0)
            message_vars = [v for v in psi_vars if v != variable]
            message = (message_vars, psi_values.sum(axis=axis), psi_batched)
            forward[i] = message
            if message_vars:
                target = min(position[v] for v in message_vars)
                parent[i] = target
                buckets[target].append(message)
            else:
                constants = constants * message[1]
        return order, potentials, forward, parent, constants

    def _sweep_batch(self, evidence_vars: Sequence[str], codes: np.ndarray
                     ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Run one batched full sweep; return per-case marginal arrays.

        Returns ``({variable: (cases, card) normalised posteriors},
        (cases,) evidence probabilities)``.  Rows with zero evidence
        probability hold unspecified marginal values — callers mask them via
        the constants vector.
        """
        self.sweep_count += 1
        count = codes.shape[0]
        order, potentials, forward, parent, constants = \
            self._forward_pass_batch(evidence_vars, codes)
        if not np.all(np.isfinite(constants)):
            raise InferenceError(
                "non-finite evidence probability; the network contains "
                "corrupted (NaN/inf) CPD entries")

        back: list[tuple | None] = [None] * len(order)
        marginals: dict[str, np.ndarray] = {}
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(len(order) - 1, -1, -1):
                belief = potentials[j]
                if back[j] is not None:
                    belief = self._contract_rows([belief, back[j]], keep=None)
                potentials[j] = belief
                variables, values, batched = belief
                marginal = self._contract_rows([belief], keep=[order[j]])[1]
                if not batched:
                    marginal = np.broadcast_to(marginal, (count,) + marginal.shape)
                totals = marginal.sum(axis=-1, keepdims=True)
                marginals[order[j]] = np.where(
                    totals > 0, marginal / np.where(totals > 0, totals, 1.0),
                    0.0)
                for i in range(j):
                    if parent[i] == j:
                        separator = set(forward[i][0])
                        numerator = self._contract_rows(
                            [belief], keep=[v for v in variables
                                            if v in separator])
                        back[i] = self._divide_rows(numerator, forward[i])
        return marginals, constants

    @staticmethod
    def _divide_rows(numerator: tuple, denominator: tuple) -> tuple:
        """Batched factor division with the 0/0-equals-0 convention."""
        num_vars, num_values, num_batched = numerator
        den_vars, den_values, den_batched = denominator
        # Align the denominator's axes to the numerator's variable order.
        axes = [den_vars.index(v) for v in num_vars]
        if den_batched:
            den_values = np.transpose(den_values, [0] + [1 + a for a in axes])
        else:
            den_values = np.transpose(den_values, axes)
            if num_batched:
                den_values = den_values[np.newaxis]
        if den_batched and not num_batched:
            num_values = num_values[np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(den_values > 0, num_values / den_values, 0.0)
        return list(num_vars), values, num_batched or den_batched
