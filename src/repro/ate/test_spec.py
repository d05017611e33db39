"""Specification tests and their limits.

A specification test forces the circuit's controllable blocks to defined
levels, measures the output of one observable block and compares the measured
value against a lower/upper limit pair.  The full-circuit production test is
an ordered list of such tests (see :mod:`repro.ate.test_program`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.exceptions import ATEError


@dataclasses.dataclass(frozen=True)
class TestLimit:
    """A lower/upper specification limit pair for a measurement.

    Attributes
    ----------
    lower:
        Lower specification limit (inclusive).
    upper:
        Upper specification limit (inclusive).
    units:
        Unit string recorded in datalogs (volts throughout this library).
    """

    #: Not a pytest test class, whatever its name says.
    __test__ = False

    lower: float
    upper: float
    units: str = "V"

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ATEError(
                f"test limit lower bound {self.lower} exceeds upper bound {self.upper}")

    def passes(self, value: float) -> bool:
        """Return ``True`` when ``value`` is within the limits."""
        return self.lower <= value <= self.upper

    def margin(self, value: float) -> float:
        """Return the distance of ``value`` to the nearest limit (negative when failing)."""
        if value < self.lower:
            return value - self.lower
        if value > self.upper:
            return self.upper - value
        return min(value - self.lower, self.upper - value)


@dataclasses.dataclass(frozen=True)
class SpecificationTest:
    """One functional specification test.

    Attributes
    ----------
    number:
        Test number in the program (ATE test numbers are stable identifiers
        that Dlog2BBN uses to map measurements onto model variables).
    name:
        Human-readable test name (e.g. ``"reg1_nominal"``).
    measured_block:
        The observable model variable this test measures.
    conditions:
        The forced values of the controllable blocks during the test.
    limit:
        The pass/fail specification limits.
    description:
        Free-text intent of the test.
    """

    number: int
    name: str
    measured_block: str
    conditions: Mapping[str, float]
    limit: TestLimit
    description: str = ""

    def __post_init__(self) -> None:
        if self.number < 0:
            raise ATEError(f"test number must be non-negative, got {self.number}")
        if not self.name:
            raise ATEError("test name must be non-empty")
        if not self.measured_block:
            raise ATEError(f"test {self.name!r} must name a measured block")
        object.__setattr__(self, "conditions", dict(self.conditions))

    def evaluate(self, value: float) -> bool:
        """Return the pass/fail verdict for a measured value."""
        return self.limit.passes(value)
