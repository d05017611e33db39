"""Discrete factors over named variables.

A factor is a non-negative table indexed by the joint states of a set of
variables.  Conditional probability tables, intermediate results of variable
elimination and clique potentials in the junction tree are all factors.  The
implementation stores the table as a dense :class:`numpy.ndarray` with one
axis per variable, in the order of :attr:`DiscreteFactor.variables`.

State names are first-class: the paper's model variables have named states
("Non-Operational", "nominal level", ...), and the diagnostic reports are
expressed in those names, so every factor carries a ``state_names`` mapping.

Performance notes
-----------------
The public constructor validates everything (shape, non-negativity, state
names); the inference engines produce millions of *trusted* intermediate
factors per population sweep, so those go through
:meth:`DiscreteFactor._from_parts`, which skips re-validation.  Variable and
state lookups are dict-backed instead of ``list.index`` scans, and the
product/marginalise hot path of the engines is a single
:func:`contract_factors` ``einsum`` kernel that multiplies a whole bucket of
factors and sums out the eliminated variables in one call.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import math

import numpy as np

from repro.exceptions import FactorError

#: numpy's einsum supports at most 52 distinct subscript labels; contractions
#: over wider scopes fall back to pairwise products.
_MAX_EINSUM_VARIABLES = 52


class DiscreteFactor:
    """A dense discrete factor phi(X1, ..., Xn).

    Parameters
    ----------
    variables:
        Variable names, one per axis of ``values``.
    cardinalities:
        Number of states per variable, aligned with ``variables``.
    values:
        Array (or nested sequence) of non-negative reals whose size equals the
        product of the cardinalities.  It is reshaped to one axis per
        variable.
    state_names:
        Optional ``{variable: [state, ...]}`` mapping.  When omitted, states
        are the stringified integers ``"0" ... "k-1"``.
    """

    def __init__(self, variables: Sequence[str], cardinalities: Sequence[int],
                 values: Sequence | np.ndarray,
                 state_names: Mapping[str, Sequence[str]] | None = None) -> None:
        variables = list(variables)
        cardinalities = [int(c) for c in cardinalities]
        if len(variables) != len(cardinalities):
            raise FactorError("variables and cardinalities must have equal length")
        if len(set(variables)) != len(variables):
            raise FactorError(f"duplicate variables in factor: {variables}")
        for variable, card in zip(variables, cardinalities):
            if card < 1:
                raise FactorError(
                    f"variable {variable!r} must have at least one state, got {card}")
        array = np.asarray(values, dtype=float)
        expected = math.prod(cardinalities) if variables else 1
        if array.size != expected:
            raise FactorError(
                f"values has {array.size} entries, expected {expected} "
                f"for cardinalities {cardinalities}")
        if np.any(array < 0):
            raise FactorError("factor values must be non-negative")
        self.variables: list[str] = variables
        self.cardinalities: list[int] = cardinalities
        self.values: np.ndarray = array.reshape(cardinalities) if variables else array.reshape(())
        self.state_names: dict[str, list[str]] = {}
        state_names = state_names or {}
        for variable, card in zip(variables, cardinalities):
            names = list(state_names.get(variable, [str(i) for i in range(card)]))
            if len(names) != card:
                raise FactorError(
                    f"variable {variable!r} has {card} states but "
                    f"{len(names)} state names were given")
            if len(set(names)) != len(names):
                raise FactorError(
                    f"variable {variable!r} has duplicate state names: {names}")
            self.state_names[variable] = names
        self._axes: dict[str, int] = {v: i for i, v in enumerate(variables)}
        self._state_lookup: dict[str, dict[str, int]] | None = None

    @classmethod
    def _from_parts(cls, variables: list[str], cardinalities: list[int],
                    values: np.ndarray,
                    state_names: dict[str, list[str]]) -> "DiscreteFactor":
        """Trusted fast constructor for internal intermediate results.

        Skips every validation step of ``__init__``: the caller guarantees
        that ``values`` is a float ndarray already shaped to
        ``cardinalities``, that the lists are aligned and that
        ``state_names`` covers exactly ``variables``.
        """
        self = object.__new__(cls)
        self.variables = variables
        self.cardinalities = cardinalities
        self.values = values
        self.state_names = state_names
        self._axes = {v: i for i, v in enumerate(variables)}
        self._state_lookup = None
        return self

    # ----------------------------------------------------------------- helpers
    def cardinality(self, variable: str) -> int:
        """Return the number of states of ``variable``."""
        return self.cardinalities[self._axis(variable)]

    def _axis(self, variable: str) -> int:
        try:
            return self._axes[variable]
        except KeyError:
            raise FactorError(
                f"variable {variable!r} is not in factor over {self.variables}") from None

    def state_index(self, variable: str, state: str | int) -> int:
        """Return the axis index of ``state`` for ``variable``.

        ``state`` may be a state name or an integer index.
        """
        self._axis(variable)
        names = self.state_names[variable]
        if isinstance(state, (int, np.integer)):
            index = int(state)
            if not 0 <= index < len(names):
                raise FactorError(
                    f"state index {index} out of range for variable {variable!r} "
                    f"with {len(names)} states")
            return index
        if self._state_lookup is None:
            self._state_lookup = {v: {name: i for i, name in enumerate(self.state_names[v])}
                                  for v in self.variables}
        try:
            return self._state_lookup[variable][str(state)]
        except KeyError:
            raise FactorError(
                f"unknown state {state!r} for variable {variable!r}; "
                f"known states: {names}") from None

    def copy(self) -> "DiscreteFactor":
        """Return an independent copy of the factor."""
        return DiscreteFactor._from_parts(
            list(self.variables), list(self.cardinalities), self.values.copy(),
            {v: list(self.state_names[v]) for v in self.variables})

    # -------------------------------------------------------------- operations
    def product(self, other: "DiscreteFactor") -> "DiscreteFactor":
        """Return the factor product ``self * other``.

        Shared variables must agree on cardinality and state names.
        """
        return contract_factors([self, other], check_states=True)

    def _broadcast_to(self, variables: Sequence[str],
                      cardinalities: Sequence[int]) -> np.ndarray:
        """Return ``self.values`` broadcast to the axes of ``variables``.

        ``variables`` must contain every variable of this factor; the result
        has one axis per entry of ``variables`` with the factor's values
        repeated along the axes it does not mention.
        """
        variables = list(variables)
        cardinalities = list(cardinalities)
        if not self.variables:
            return np.broadcast_to(self.values, cardinalities)
        dest_axes = [variables.index(v) for v in self.variables]
        shape = [1] * len(variables)
        for axis, variable in enumerate(self.variables):
            shape[dest_axes[axis]] = self.cardinalities[axis]
        # Transpose the source axes into increasing destination order so that
        # the subsequent reshape places each axis at its destination slot.
        order = np.argsort(dest_axes)
        transposed = np.transpose(self.values, axes=order)
        reshaped = transposed.reshape(shape)
        return np.broadcast_to(reshaped, cardinalities)

    def marginalize(self, variables: Iterable[str]) -> "DiscreteFactor":
        """Sum out ``variables`` and return the resulting factor."""
        to_remove = set()
        for variable in variables:
            self._axis(variable)
            to_remove.add(variable)
        if not to_remove:
            return DiscreteFactor._from_parts(
                list(self.variables), list(self.cardinalities),
                self.values.copy(), dict(self.state_names))
        axes = tuple(self._axes[v] for v in to_remove)
        keep = [v for v in self.variables if v not in to_remove]
        return DiscreteFactor._from_parts(
            keep, [self.cardinalities[self._axes[v]] for v in keep],
            self.values.sum(axis=axes),
            {v: self.state_names[v] for v in keep})

    def maximize(self, variables: Iterable[str]) -> "DiscreteFactor":
        """Max out ``variables`` (used for MAP-style queries)."""
        to_remove = set()
        for variable in variables:
            self._axis(variable)
            to_remove.add(variable)
        if not to_remove:
            return DiscreteFactor._from_parts(
                list(self.variables), list(self.cardinalities),
                self.values.copy(), dict(self.state_names))
        axes = tuple(self._axes[v] for v in to_remove)
        keep = [v for v in self.variables if v not in to_remove]
        return DiscreteFactor._from_parts(
            keep, [self.cardinalities[self._axes[v]] for v in keep],
            self.values.max(axis=axes),
            {v: self.state_names[v] for v in keep})

    def reduce(self, evidence: Mapping[str, str | int]) -> "DiscreteFactor":
        """Condition on ``evidence`` (variable -> state) and drop those axes."""
        indexer: list[object] = [slice(None)] * len(self.variables)
        drop = set()
        for variable, state in evidence.items():
            if variable not in self._axes:
                continue
            indexer[self._axes[variable]] = self.state_index(variable, state)
            drop.add(variable)
        if not drop:
            return DiscreteFactor._from_parts(
                list(self.variables), list(self.cardinalities),
                self.values.copy(), dict(self.state_names))
        values = self.values[tuple(indexer)]
        keep = [v for v in self.variables if v not in drop]
        return DiscreteFactor._from_parts(
            keep, [self.cardinalities[self._axes[v]] for v in keep],
            values, {v: self.state_names[v] for v in keep})

    def normalize(self) -> "DiscreteFactor":
        """Return the factor scaled so that its entries sum to one."""
        total = float(self.values.sum())
        if total <= 0:
            raise FactorError(
                "cannot normalise a factor whose entries sum to zero; "
                "the evidence is inconsistent with the model")
        return DiscreteFactor._from_parts(
            list(self.variables), list(self.cardinalities),
            self.values / total, dict(self.state_names))

    def divide(self, other: "DiscreteFactor") -> "DiscreteFactor":
        """Return ``self / other`` with the 0/0 convention equal to 0.

        Used by junction-tree message passing when dividing a sepset's new
        potential by its old potential.
        """
        for variable in other.variables:
            if variable not in self._axes:
                raise FactorError(
                    f"cannot divide: {variable!r} not present in numerator")
        numerator = self.values
        denominator = other._broadcast_to(self.variables, self.cardinalities)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denominator > 0, numerator / denominator, 0.0)
        return DiscreteFactor._from_parts(
            list(self.variables), list(self.cardinalities), values,
            dict(self.state_names))

    # ----------------------------------------------------------------- queries
    def get(self, assignment: Mapping[str, str | int]) -> float:
        """Return the factor value for a full assignment of its variables."""
        indexer = []
        for variable in self.variables:
            if variable not in assignment:
                raise FactorError(
                    f"assignment is missing variable {variable!r}")
            indexer.append(self.state_index(variable, assignment[variable]))
        return float(self.values[tuple(indexer)])

    def to_distribution(self) -> dict[str, float]:
        """Return a single-variable factor as ``{state_name: probability}``."""
        if len(self.variables) != 1:
            raise FactorError(
                f"to_distribution requires a single-variable factor, "
                f"got variables {self.variables}")
        variable = self.variables[0]
        return {name: float(value)
                for name, value in zip(self.state_names[variable], self.values)}

    def argmax(self) -> dict[str, str]:
        """Return the assignment with the highest value."""
        flat_index = int(np.argmax(self.values))
        indices = np.unravel_index(flat_index, self.values.shape) if self.variables else ()
        return {variable: self.state_names[variable][index]
                for variable, index in zip(self.variables, indices)}

    def is_close_to(self, other: "DiscreteFactor", *, atol: float = 1e-8) -> bool:
        """Return ``True`` when both factors describe the same table."""
        if set(self.variables) != set(other.variables):
            return False
        aligned = other._broadcast_to(self.variables, self.cardinalities)
        return bool(np.allclose(self.values, aligned, atol=atol))

    def __mul__(self, other: "DiscreteFactor") -> "DiscreteFactor":
        return self.product(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscreteFactor(variables={self.variables}, cardinalities={self.cardinalities})"


def contract_factors(factors: Sequence[DiscreteFactor],
                     keep: Iterable[str] | None = None,
                     *, check_states: bool = False) -> DiscreteFactor:
    """Multiply ``factors`` and sum out every variable not in ``keep``.

    This is the shared product/marginalise kernel of the inference engines:
    one ``einsum`` call replaces a chain of pairwise broadcast products
    followed by a separate summation.  ``keep=None`` keeps every variable
    (a pure product).  Variables of the result appear in first-seen order
    across the operand factors.

    With ``check_states=True`` shared variables are verified to agree on
    their state names (the public :meth:`DiscreteFactor.product` contract);
    internal callers operating on factors derived from a single validated
    network skip the check.
    """
    factors = list(factors)
    if not factors:
        return DiscreteFactor._from_parts([], [], np.array(1.0), {})

    order: list[str] = []
    cards: dict[str, int] = {}
    states: dict[str, list[str]] = {}
    for factor in factors:
        for variable, card in zip(factor.variables, factor.cardinalities):
            if variable not in cards:
                order.append(variable)
                cards[variable] = card
                states[variable] = factor.state_names[variable]
            elif check_states and states[variable] != factor.state_names[variable]:
                raise FactorError(
                    f"state-name mismatch for shared variable {variable!r}: "
                    f"{states[variable]} vs {factor.state_names[variable]}")

    if keep is None:
        out_vars = order
    else:
        keep = set(keep)
        out_vars = [v for v in order if v in keep]

    if len(order) > _MAX_EINSUM_VARIABLES:
        result = factors[0]
        for factor in factors[1:]:
            result = _broadcast_product(result, factor)
        return result.marginalize([v for v in order if v not in set(out_vars)])

    subscript = {variable: i for i, variable in enumerate(order)}
    operands: list[object] = []
    key_parts: list[tuple] = []
    for factor in factors:
        labels = [subscript[v] for v in factor.variables]
        operands.append(factor.values)
        operands.append(labels)
        key_parts.append((tuple(labels), factor.values.shape))
    out_labels = [subscript[v] for v in out_vars]
    operands.append(out_labels)
    values = np.einsum(*operands,
                       optimize=_contraction_path(key_parts, out_labels,
                                                  operands)
                       if len(factors) > 2 else False)
    return DiscreteFactor._from_parts(
        out_vars, [cards[v] for v in out_vars], values,
        {v: states[v] for v in out_vars})


#: Memoised einsum contraction paths keyed by the operand subscript/shape
#: structure.  ``np.einsum(optimize=True)`` re-runs the path optimiser on
#: every call; the inference engines issue the same handful of contraction
#: shapes thousands of times per population, so :func:`contract_factors`
#: computes each path once and replays it.
_PATH_CACHE: dict[tuple, list] = {}
_PATH_CACHE_LIMIT = 4096


def cached_einsum_path(key: tuple, operands: Sequence[object]) -> list:
    """Return the memoised ``np.einsum_path`` for one contraction structure.

    ``key`` must uniquely describe the einsum call — the operand subscripts
    and shapes (and, for batched callers, the batch-axis convention) — since
    the returned path is replayed verbatim for every matching call.
    ``operands`` is the full interleaved einsum argument list used on a
    cache miss to run the path optimiser once.
    """
    path = _PATH_CACHE.get(key)
    if path is None:
        path = np.einsum_path(*operands, optimize=True)[0]
        if len(_PATH_CACHE) >= _PATH_CACHE_LIMIT:
            _PATH_CACHE.clear()
        _PATH_CACHE[key] = path
    return path


def _contraction_path(key_parts: list[tuple], out_labels: list[int],
                      operands: list[object]) -> list:
    return cached_einsum_path((tuple(key_parts), tuple(out_labels)), operands)


def _broadcast_product(left: DiscreteFactor, right: DiscreteFactor) -> DiscreteFactor:
    """Pairwise product via axis broadcasting; no einsum subscript limit."""
    result_vars = list(left.variables)
    result_cards = list(left.cardinalities)
    result_states = {v: left.state_names[v] for v in left.variables}
    for variable, card in zip(right.variables, right.cardinalities):
        if variable not in result_states:
            result_vars.append(variable)
            result_cards.append(card)
            result_states[variable] = right.state_names[variable]
    values = (left._broadcast_to(result_vars, result_cards)
              * right._broadcast_to(result_vars, result_cards))
    return DiscreteFactor._from_parts(result_vars, result_cards, values,
                                      result_states)


def factor_product(factors: Iterable[DiscreteFactor]) -> DiscreteFactor:
    """Return the product of an iterable of factors.

    An empty iterable yields the neutral (scalar 1.0) factor.
    """
    return contract_factors(list(factors), check_states=True)
