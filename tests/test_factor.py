"""Tests for discrete factors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesnet.factor import (
    DiscreteFactor,
    cached_einsum_path,
    factor_product,
)
from repro.exceptions import FactorError


def make_ab() -> DiscreteFactor:
    return DiscreteFactor(["a", "b"], [2, 3],
                          [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])


class TestConstruction:
    def test_shape_and_values(self):
        factor = make_ab()
        assert factor.values.shape == (2, 3)
        assert factor.cardinality("b") == 3

    def test_default_state_names(self):
        factor = make_ab()
        assert factor.state_names["b"] == ["0", "1", "2"]

    def test_wrong_size_rejected(self):
        with pytest.raises(FactorError):
            DiscreteFactor(["a"], [2], [0.1, 0.2, 0.3])

    def test_negative_values_rejected(self):
        with pytest.raises(FactorError):
            DiscreteFactor(["a"], [2], [-0.1, 1.1])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(FactorError):
            DiscreteFactor(["a", "a"], [2, 2], np.ones(4))

    def test_state_name_mismatch_rejected(self):
        with pytest.raises(FactorError):
            DiscreteFactor(["a"], [2], [0.5, 0.5], {"a": ["only_one"]})


class TestOperations:
    def test_marginalize(self):
        factor = make_ab()
        marginal = factor.marginalize(["b"])
        assert marginal.variables == ["a"]
        assert np.allclose(marginal.values, [0.6, 1.5])

    def test_marginalize_unknown_raises(self):
        with pytest.raises(FactorError):
            make_ab().marginalize(["zzz"])

    def test_reduce(self):
        factor = make_ab()
        reduced = factor.reduce({"b": "1"})
        assert reduced.variables == ["a"]
        assert np.allclose(reduced.values, [0.2, 0.5])

    def test_reduce_by_index(self):
        factor = make_ab()
        assert np.allclose(factor.reduce({"b": 1}).values, [0.2, 0.5])

    def test_normalize(self):
        normalised = make_ab().normalize()
        assert np.isclose(normalised.values.sum(), 1.0)

    def test_normalize_zero_factor_raises(self):
        factor = DiscreteFactor(["a"], [2], [0.0, 0.0])
        with pytest.raises(FactorError):
            factor.normalize()

    def test_product_disjoint(self):
        left = DiscreteFactor(["a"], [2], [0.4, 0.6])
        right = DiscreteFactor(["b"], [2], [0.3, 0.7])
        product = left.product(right)
        assert set(product.variables) == {"a", "b"}
        assert np.isclose(product.get({"a": 0, "b": 1}), 0.4 * 0.7)

    def test_product_shared_variable(self):
        left = make_ab()
        right = DiscreteFactor(["b"], [3], [1.0, 2.0, 3.0])
        product = left.product(right)
        assert np.isclose(product.get({"a": 1, "b": 2}), 0.6 * 3.0)

    def test_product_commutes(self):
        left = make_ab()
        right = DiscreteFactor(["b", "c"], [3, 2], np.arange(6) + 1.0)
        assert left.product(right).is_close_to(right.product(left))

    def test_product_state_name_mismatch_raises(self):
        left = DiscreteFactor(["a"], [2], [0.5, 0.5], {"a": ["x", "y"]})
        right = DiscreteFactor(["a"], [2], [0.5, 0.5], {"a": ["p", "q"]})
        with pytest.raises(FactorError):
            left.product(right)

    def test_maximize(self):
        factor = make_ab()
        maxed = factor.maximize(["b"])
        assert np.allclose(maxed.values, [0.3, 0.6])

    def test_divide(self):
        factor = make_ab()
        marginal = factor.marginalize(["b"])
        ratio = factor.divide(marginal)
        assert np.isclose(ratio.get({"a": 0, "b": 0}), 0.1 / 0.6)

    def test_argmax(self):
        assert make_ab().argmax() == {"a": "1", "b": "2"}

    def test_to_distribution_requires_single_variable(self):
        with pytest.raises(FactorError):
            make_ab().to_distribution()

    def test_get_missing_variable_raises(self):
        with pytest.raises(FactorError):
            make_ab().get({"a": 0})

    def test_factor_product_empty(self):
        neutral = factor_product([])
        assert neutral.variables == []
        assert float(neutral.values) == 1.0

    def test_factor_product_many(self):
        factors = [DiscreteFactor([name], [2], [0.5, 0.5]) for name in "abc"]
        product = factor_product(factors)
        assert np.isclose(product.values.sum(), 1.0)


def test_cached_einsum_path_memoises():
    key = ("test-factor", ((0, 1), (2, 2)), (0,))
    operands = [np.ones((2, 2)), [0, 1], np.ones((2, 2)), [1, 2], [0, 2]]
    first = cached_einsum_path(key, operands)
    second = cached_einsum_path(key, operands)
    assert first is second  # cache hit returns the memoised path object
    assert first[0] == "einsum_path"
