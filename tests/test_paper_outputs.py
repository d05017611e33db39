"""The paper outputs the examples and the package docstring print.

``examples/customer_return_diagnosis.py`` re-tests one seeded return and
must keep pointing at ``enb13`` with the same failing-test table and the
same datalog; ``examples/fault_coverage_study.py`` must print the same
per-block coverage table.  Both draw seeded populations through the circuit
simulator and the tester, so a change to either's random stream or
arithmetic shows here; their expected text lives in ``tests/golden/`` and is
compared byte for byte.  The package docstring's quickstart runs as a
doctest.
"""

from __future__ import annotations

import doctest
import hashlib
import runpy
import tempfile
from pathlib import Path

import repro

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: SHA-256 of the datalog the customer-return example writes (seed 77).
RETURN_DATALOG_SHA256 = (
    "c291ffa6c2720ff0867e35285c2513bcbe87afe21f0a2d1418049f6599cf40a2")


def run_example(name: str, capsys) -> str:
    """Run ``examples/<name>.py``'s ``main()`` and return its stdout."""
    runpy.run_path(str(EXAMPLES / f"{name}.py"))["main"]()
    return capsys.readouterr().out


def test_customer_return_output_and_datalog(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    datalog = tmp_path / "return_0042.log"
    first, rest = run_example("customer_return_diagnosis", capsys).split("\n", 1)
    assert first == ("Re-tested RETURN-0042: FAIL; datalog written to "
                     f"{datalog}")
    assert rest == (GOLDEN / "customer_return_diagnosis.txt").read_text()
    digest = hashlib.sha256(datalog.read_bytes()).hexdigest()
    assert digest == RETURN_DATALOG_SHA256


def test_fault_coverage_table(capsys):
    assert run_example("fault_coverage_study", capsys) == (
        GOLDEN / "fault_coverage_study.txt").read_text()


def test_package_docstring_example():
    result = doctest.testmod(repro)
    assert result.attempted > 0
    assert result.failed == 0
