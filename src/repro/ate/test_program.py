"""The ordered, no-stop-on-fail functional test program.

The paper stresses that the learning cases come from *no-stop-on-fail* test
data: every specification test is executed on every device even after the
first failure, so every datalog contains the complete measurement vector.
:class:`TestProgram` models that list and knows which model variables it
controls and observes.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ate.test_spec import SpecificationTest
from repro.exceptions import ATEError


class TestProgram:
    """An ordered collection of specification tests.

    Parameters
    ----------
    name:
        Program name (recorded in datalogs).
    tests:
        The specification tests, in execution order.
    """

    #: Not a pytest test class, whatever its name says.
    __test__ = False

    def __init__(self, name: str, tests: Sequence[SpecificationTest] = ()) -> None:
        if not name:
            raise ATEError("test program name must be non-empty")
        self.name = name
        self._tests: list[SpecificationTest] = []
        self._numbers: set[int] = set()
        for test in tests:
            self.add_test(test)

    # ------------------------------------------------------------------ tests
    def add_test(self, test: SpecificationTest) -> None:
        """Append ``test`` to the program, enforcing unique test numbers."""
        if test.number in self._numbers:
            raise ATEError(f"duplicate test number {test.number} in program {self.name!r}")
        self._numbers.add(test.number)
        self._tests.append(test)

    @property
    def tests(self) -> list[SpecificationTest]:
        """All tests in execution order."""
        return list(self._tests)

    def __len__(self) -> int:
        return len(self._tests)

    def __iter__(self):
        return iter(self._tests)

    def test_by_number(self, number: int) -> SpecificationTest:
        """Return the test with the given ATE test number."""
        for test in self._tests:
            if test.number == number:
                return test
        raise ATEError(f"no test numbered {number} in program {self.name!r}")

    def test_by_name(self, name: str) -> SpecificationTest:
        """Return the test with the given name."""
        for test in self._tests:
            if test.name == name:
                return test
        raise ATEError(f"no test named {name!r} in program {self.name!r}")

    # ------------------------------------------------------------ block views
    def measured_blocks(self) -> list[str]:
        """Return the observable blocks the program measures (unique, ordered)."""
        return list(dict.fromkeys(test.measured_block for test in self._tests))

    def controlled_blocks(self) -> list[str]:
        """Return the controllable blocks the program forces (unique, ordered)."""
        blocks: dict[str, None] = {}
        for test in self._tests:
            for block in test.conditions:
                blocks.setdefault(block, None)
        return list(blocks)

    def tests_measuring(self, block: str) -> list[SpecificationTest]:
        """Return every test that measures ``block``."""
        return [test for test in self._tests if test.measured_block == block]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TestProgram(name={self.name!r}, tests={len(self._tests)})"
