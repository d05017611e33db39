"""Exact inference by variable elimination.

This is the default inference engine of the diagnosis stack: the voltage
regulator network of the paper has 19 nodes with at most five states, which
variable elimination answers in well under a millisecond per query.

The hot path of diagnosis is *all-marginals* queries: every case asks for the
posterior of every model variable.  Answering those one elimination per
variable repeats almost all of the work, so :meth:`VariableElimination.posteriors`
runs a single shared-bucket sweep instead — a forward bucket-elimination pass
followed by a backward message pass over the implied bucket tree — which
yields every marginal at roughly the cost of one elimination.

Evidence enters through the network's
:class:`~repro.bayesnet.codec.EvidenceCodec`: each case is read once into
its row key (sorted ``(variable, code)`` pairs), which keys the evidence
cache and, grouped by evidence variables, becomes the code matrix of one
batched sweep.  A label names its state and a Python or numpy integer the
state at that index; a bad entry (unknown variable, unknown label, an index
out of range) raises ``InferenceError``.
A sweep answers each case as one posterior row (the codec's column spans,
evidence one-hot) and its P(evidence); a batch is one matrix of them
(:class:`PosteriorRows`), and the evidence cache keeps one row per key.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.bayesnet.codec import Evidence, EvidenceCodec
from repro.bayesnet.factor import DiscreteFactor, contract_factors
from repro.bayesnet.inference._evidence_cache import EvidenceCache
from repro.bayesnet.inference.elimination_order import (
    min_degree_order,
    min_fill_order,
    min_weight_order,
)
from repro.bayesnet.network import BayesianNetwork
from repro.exceptions import ImpossibleEvidenceError, InferenceError

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

    def __init__(self, network: BayesianNetwork,
                 elimination_order=None) -> None:
        network.check_model()
        self.network = network
        self._order_heuristic = elimination_order or min_fill_order
        self.sweep_count = 0
        self._marginal_cache = EvidenceCache(network)
        # Elimination orders depend only on the (immutable) structure, so one
        # entry per free-variable set never goes stale; the base factor list
        # tracks CPD replacement through the evidence-cache refresh.
        self._order_cache: dict[frozenset, list[str]] = {}
        self._base_factors: list[DiscreteFactor] | None = None

    # ---------------------------------------------------------------- caching
    def _refresh_caches(self) -> None:
        if self._marginal_cache.refresh():
            self._base_factors = None

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
    def _key(self, variables: Sequence[str], evidence: Evidence) -> tuple:
        """The row key of ``evidence`` after checking it and the query."""
        return EvidenceCodec.of(self.network).key(evidence, InferenceError,
                                                  variables)

    # ------------------------------------------------------------------ query
    def query(self, variables: Sequence[str],
              evidence: Evidence | None = None) -> DiscreteFactor:
        """Return the joint posterior factor of ``variables`` given ``evidence``."""
        evidence = dict(evidence or {})
        variables = list(variables)
        if not variables:
            raise InferenceError("query requires at least one variable")
        codes = dict(self._key(variables, evidence))

        self._refresh_caches()
        factors = [factor.reduce(codes) if codes else factor
                   for factor in self._factors()]
        keep = set(variables)
        to_eliminate = [node for node in self.network.nodes
                        if node not in keep and node not in codes]
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

    # -------------------------------------------------------------- posteriors
    def posterior(self, variable: str,
                  evidence: Evidence | None = None) -> dict[str, float]:
        """Return ``P(variable | evidence)`` as ``{state: probability}``."""
        return self.posteriors([variable], evidence)[variable]

    def posteriors(self, variables: Iterable[str],
                   evidence: Evidence | None = None) -> dict[str, dict[str, float]]:
        """Return the marginal posterior of each variable from a single sweep."""
        variables = list(variables)
        evidence = dict(evidence or {})
        keys = [self._key(variables, evidence)]
        answer = PosteriorRows(EvidenceCodec.of(self.network), keys,
                               *self._rows(keys))[0]
        if answer is None:
            raise ImpossibleEvidenceError(
                "the evidence has zero probability under the model; "
                "posteriors are undefined", evidence=evidence)
        return {variable: answer[variable] for variable in variables}

    def map_query(self, variables: Sequence[str],
                  evidence: Evidence | None = None) -> dict[str, str]:
        """Return the most probable joint assignment of ``variables``."""
        joint = self.query(variables, evidence)
        return joint.argmax()

    def probability_of_evidence(self, evidence: Evidence) -> float:
        """Return ``P(evidence)`` (the data likelihood of the observation).

        A full sweep cached for the same evidence answers it; otherwise one
        forward-only bucket pass does, uncached — evidence probability needs
        no backward message pass, which roughly halves the sweep cost of
        likelihood scoring workloads.  That pass is a batch of one through
        :meth:`probabilities_of_evidence`: a non-finite result raises.
        """
        key = self._key((), evidence)
        if not key:
            return 1.0
        self._refresh_caches()
        cached_sweep = self._marginal_cache.get(key)
        if cached_sweep is not None:
            return cached_sweep[1]
        return float(self.probabilities_of_evidence([evidence])[0])

    # ------------------------------------------------------------ batched sweeps
    def posteriors_batch(self, evidence_list: Sequence[Evidence]
                         ) -> "PosteriorRows":
        """Return every case's posteriors from batched sweeps, as one matrix.

        Each case is read once into its row key (``InferenceError`` on a bad
        entry, before any sweep), and the keys are answered like
        :meth:`posteriors` answers one: the population-scoring counterpart.
        Indexing the result gives a case's non-evidence posteriors in dicts
        of its own, ``None`` for zero-probability evidence (callers decide
        whether that is an error), or raises :class:`InferenceError` for a
        case that corrupted (NaN/inf) CPD entries reach, alone.
        """
        codec = EvidenceCodec.of(self.network)
        keys = [codec.key(evidence or {}, InferenceError)
                for evidence in evidence_list]
        return PosteriorRows(codec, keys, *self._rows(keys))

    def _rows(self, keys: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Every row key's posterior row and P(evidence).

        Distinct keys the evidence cache already holds are read from it.
        The rest run ONE shared-bucket sweep per evidence variable set, with
        the case axis carried through every contraction: a forward
        bucket-elimination pass builds the bucket tree, a backward pass
        sends each bucket the information external to its subtree, and the
        product of a bucket's own potential with its backward message is
        the exact joint over the bucket scope.  Every batched operation is
        elementwise along the case axis, so a key's posteriors do not depend
        on the batch it is swept in.  Swept keys with a finite P(evidence)
        are cached as ``(row, P(evidence))``; replacing a CPD on the network
        drops the cache.  The posterior matrix is read-only, however its
        rows were found.
        """
        self._refresh_caches()
        found: dict[tuple, tuple | None] = dict.fromkeys(keys)
        for key in found:
            found[key] = self._marginal_cache.get(key)
        for group, variables, codes in _code_groups(
                [key for key, entry in found.items() if entry is None]):
            block, constants = self._sweep_batch(variables, codes)
            for key, row, constant in zip(group, block, constants.tolist()):
                found[key] = (row, constant)
                if math.isfinite(constant):
                    self._marginal_cache.put(key, found[key])
            if len(group) == len(keys):  # one cold sweep of distinct keys
                return block, constants
        matrix = np.array([found[key][0] for key in keys]) if keys \
            else np.zeros((0, EvidenceCodec.of(self.network).width))
        matrix.flags.writeable = False
        return matrix, np.array([found[key][1] for key in keys], dtype=float)

    def probabilities_of_evidence(self, evidence_list: Sequence[Evidence]
                                  ) -> np.ndarray:
        """Return ``P(evidence)`` for many observations from batched passes.

        The batched counterpart of :meth:`probability_of_evidence`: one
        forward-only bucket pass per distinct evidence variable set, with all
        of that group's unique configurations evaluated along the case axis.
        """
        codec = EvidenceCodec.of(self.network)
        keys = [codec.key(evidence or {}, InferenceError)
                for evidence in evidence_list]
        self._refresh_caches()
        probabilities = {(): 1.0}
        for group, variables, codes in _code_groups(
                dict.fromkeys(key for key in keys if key)):
            self.sweep_count += 1
            constants = self._forward_pass_batch(variables, codes)[-1]
            if not np.all(np.isfinite(constants)):
                raise InferenceError(
                    "non-finite evidence probability; the network contains "
                    "corrupted (NaN/inf) CPD entries")
            probabilities.update(zip(group, constants.tolist()))
        return np.array([probabilities[key] for key in keys], dtype=float)

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
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Run one batched full sweep: ``((cases, width) posterior rows,
        (cases,) evidence probabilities)``, evidence one-hot.  A row whose
        probability is zero or not finite holds unspecified values."""
        self.sweep_count += 1
        count = codes.shape[0]
        codec = EvidenceCodec.of(self.network)
        order, potentials, forward, parent, constants = \
            self._forward_pass_batch(evidence_vars, codes)

        block = np.zeros((count, codec.width))
        cases = np.arange(count)
        for position, variable in enumerate(evidence_vars):
            block[cases, codec.offsets[variable] + codes[:, position]] = 1.0
        back: list[tuple | None] = [None] * len(order)
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
                start = codec.offsets[order[j]]
                np.divide(marginal, totals, where=totals > 0,
                          out=block[:, start:start + marginal.shape[-1]])
                for i in range(j):
                    if parent[i] == j:
                        separator = set(forward[i][0])
                        numerator = self._contract_rows(
                            [belief], keep=[v for v in variables
                                            if v in separator])
                        back[i] = self._divide_rows(numerator, forward[i])
        # The evidence cache keeps views of these rows.
        block.flags.writeable = False
        return block, constants

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


def _code_groups(keys: Iterable[tuple]):
    """Group row keys by evidence variables: ``(keys, variables, codes)``.

    ``codes`` is the group's ``(rows, variables)`` state-code matrix.
    """
    groups: dict[tuple, list[tuple]] = {}
    for key in keys:
        groups.setdefault(tuple(variable for variable, _ in key),
                          []).append(key)
    for variables, members in groups.items():
        yield members, list(variables), np.array(
            [[code for _, code in key] for key in members],
            dtype=np.int64).reshape(len(members), len(variables))


class PosteriorRows(Sequence):
    """The answers of one :meth:`VariableElimination.posteriors_batch` call.

    ``matrix`` holds one posterior row per case (the network codec's layout,
    evidence one-hot) and ``probability`` each case's P(evidence).  A slot's
    dicts are built from its row when first indexed, then kept.
    """

    def __init__(self, codec: EvidenceCodec, keys: Sequence[tuple],
                 matrix: np.ndarray, probability: np.ndarray) -> None:
        self.matrix, self.probability = matrix, probability
        self._codec, self._keys = codec, keys
        self._built: list[dict | None] = [None] * len(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, slot: int) -> dict[str, dict[str, float]] | None:
        if isinstance(slot, slice):
            return [self[index] for index in range(len(self))[slot]]
        error = self.error(slot)
        if error is not None:
            if isinstance(error, ImpossibleEvidenceError):
                return None
            raise error
        if self._built[slot] is None:
            observed = dict(self._keys[slot])
            values, codec = self.matrix[slot].tolist(), self._codec
            self._built[slot] = {
                variable: dict(zip(labels, values[codec.offsets[variable]:]))
                for variable, labels in codec.labels.items()
                if variable not in observed}
        return self._built[slot]

    def error(self, slot: int) -> InferenceError | None:
        """The error of a slot whose P(evidence) is not finite, or zero."""
        probability = float(self.probability[slot])
        if not math.isfinite(probability):
            return InferenceError(
                "non-finite evidence probability; the network contains "
                "corrupted (NaN/inf) CPD entries")
        if probability <= 0.0:
            return ImpossibleEvidenceError(
                "the evidence has zero probability under the model; "
                "posteriors are undefined", evidence=dict(self._keys[slot]))
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None
