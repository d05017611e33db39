"""Block-level fault models and fault universes.

The paper diagnoses *which functional block failed*, not which transistor, so
the fault model lives at the block level too: a fault turns one block's
behaviour into a degraded version of itself.  Five behavioural fault modes
cover the classical analogue defect classes (opens, shorts, parametric
drift):

``dead``
    the block output collapses to 0 V (open output, dead bias chain).
``stuck_high``
    the block output sticks at its maximum (output short to supply).
``degraded``
    the block output is attenuated (parametric degradation, weak drive).
``short_to_supply``
    the output follows the highest input rail.
``drift``
    the output drifts above nominal (reference drift, offset).
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import FaultError
from repro.utils.rng import ensure_rng


class FaultMode(str, enum.Enum):
    """Behavioural fault modes that can be injected into a block."""

    DEAD = "dead"
    STUCK_HIGH = "stuck_high"
    DEGRADED = "degraded"
    SHORT_TO_SUPPLY = "short_to_supply"
    DRIFT = "drift"


@dataclasses.dataclass(frozen=True)
class BlockFault:
    """One injected fault: a block, a mode and a severity.

    Attributes
    ----------
    block:
        Name of the faulted functional block.
    mode:
        The behavioural fault mode.
    severity:
        Scale factor in ``(0, 1]`` for the parametric modes (``degraded`` and
        ``drift``); ignored by the hard modes.
    """

    block: str
    mode: FaultMode
    severity: float = 1.0

    def __post_init__(self) -> None:
        if not self.block:
            raise FaultError("fault block name must be non-empty")
        try:
            mode = FaultMode(self.mode)
        except ValueError:
            raise FaultError(
                f"unknown fault mode {self.mode!r} on block {self.block!r}") from None
        object.__setattr__(self, "mode", mode)
        if not 0.0 < self.severity <= 1.0:
            raise FaultError(
                f"fault severity must be in (0, 1], got {self.severity}")

    @property
    def label(self) -> str:
        """A compact human-readable identifier (used in datalogs and reports)."""
        return f"{self.block}:{self.mode.value}"


class FaultUniverse:
    """The set of faults considered for a circuit.

    Parameters
    ----------
    faultable_blocks:
        Blocks into which faults may be injected.  Controllable blocks
        (supply/pin inputs forced by the tester) are excluded by the circuit
        builders because a forced net cannot "fail" during the test.
    modes:
        Fault modes to enumerate per block.
    severities:
        Severities enumerated for the parametric modes.
    """

    def __init__(self, faultable_blocks: Sequence[str],
                 modes: Iterable[FaultMode] = (FaultMode.DEAD,
                                               FaultMode.STUCK_HIGH,
                                               FaultMode.DEGRADED),
                 severities: Sequence[float] = (1.0,)) -> None:
        if not faultable_blocks:
            raise FaultError("fault universe requires at least one faultable block")
        self.faultable_blocks = list(dict.fromkeys(faultable_blocks))
        self.modes = list(modes)
        self.severities = [float(s) for s in severities]
        if not self.modes:
            raise FaultError("fault universe requires at least one fault mode")

    # ------------------------------------------------------------------- faults
    def enumerate(self) -> list[BlockFault]:
        """Return every fault in the universe (the full fault list)."""
        faults = []
        for block in self.faultable_blocks:
            for mode in self.modes:
                if mode in (FaultMode.DEGRADED, FaultMode.DRIFT):
                    for severity in self.severities:
                        faults.append(BlockFault(block, mode, severity))
                else:
                    faults.append(BlockFault(block, mode))
        return faults

    def faults_of(self, block: str) -> list[BlockFault]:
        """Return every fault of one block."""
        if block not in self.faultable_blocks:
            raise FaultError(f"block {block!r} is not in the fault universe")
        return [fault for fault in self.enumerate() if fault.block == block]

    def sample_batch(self, count: int,
                     rng: int | np.random.Generator | None = None,
                     block_weights: dict[str, float] | None = None
                     ) -> list[BlockFault]:
        """Draw ``count`` independent faults.

        Each fault's block is drawn with probability proportional to its
        weight in ``block_weights`` (missing blocks weigh 1: defects are
        rarely uniform across blocks, and large power devices fail more
        often than small logic), its mode uniformly, and the severity of a
        parametric mode uniformly from :attr:`severities`.  Blocks, modes and
        severities are drawn as whole arrays, three generator calls in all.
        """
        if count <= 0:
            return []
        generator = ensure_rng(rng)
        weights = np.array([
            (block_weights or {}).get(block, 1.0) for block in self.faultable_blocks
        ], dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise FaultError("block weights must be non-negative and not all zero")
        block_indices = generator.choice(len(self.faultable_blocks), size=count,
                                         p=weights / weights.sum())
        mode_indices = generator.integers(len(self.modes), size=count)
        parametric = np.array([self.modes[index] in (FaultMode.DEGRADED,
                                                     FaultMode.DRIFT)
                               for index in mode_indices])
        severities = np.ones(count)
        parametric_count = int(parametric.sum())
        if parametric_count:
            drawn = generator.integers(len(self.severities), size=parametric_count)
            severities[parametric] = np.array(self.severities)[drawn]
        return [BlockFault(self.faultable_blocks[int(block)],
                           self.modes[int(mode)], float(severity))
                for block, mode, severity in zip(block_indices, mode_indices,
                                                 severities)]

    def __len__(self) -> int:
        return len(self.enumerate())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultUniverse(blocks={len(self.faultable_blocks)}, "
                f"modes={[m.value for m in self.modes]})")
