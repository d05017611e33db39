"""Monte-Carlo process variation.

Real devices never sit exactly at the behavioural nominal: references drift a
few percent, regulator outputs spread with resistor mismatch.  Process
variation gives every simulated device a per-block multiplicative deviation,
which makes the synthetic ATE data realistically noisy and exercises the
state-binning logic of the model builder near the specification limits.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.utils.rng import ensure_rng


class ProcessVariation:
    """Per-block multiplicative Gaussian process variation.

    Parameters
    ----------
    default_sigma:
        Relative standard deviation applied to blocks without an explicit
        entry (e.g. ``0.01`` for 1 % spread).
    per_block_sigma:
        Optional overrides per block name.
    clip:
        Multipliers are clipped to ``[1 - clip, 1 + clip]`` to keep hard
        outliers from masquerading as catastrophic faults.
    """

    def __init__(self, default_sigma: float = 0.01,
                 per_block_sigma: Mapping[str, float] | None = None,
                 clip: float = 0.2) -> None:
        if default_sigma < 0:
            raise CircuitError("default_sigma must be non-negative")
        if clip <= 0:
            raise CircuitError("clip must be positive")
        self.default_sigma = float(default_sigma)
        self.per_block_sigma = dict(per_block_sigma or {})
        for block, sigma in self.per_block_sigma.items():
            if sigma < 0:
                raise CircuitError(
                    f"sigma for block {block!r} must be non-negative, got {sigma}")
        self.clip = float(clip)

    def sigma_of(self, block: str) -> float:
        """Return the relative sigma used for ``block``."""
        return self.per_block_sigma.get(block, self.default_sigma)

    def sample(self, blocks: Sequence[str],
               rng: int | np.random.Generator | None = None) -> dict[str, float]:
        """Draw one multiplier per block for a single device."""
        generator = ensure_rng(rng)
        multipliers: dict[str, float] = {}
        for block in blocks:
            sigma = self.sigma_of(block)
            value = 1.0 if sigma == 0 else float(generator.normal(1.0, sigma))
            multipliers[block] = float(np.clip(value, 1.0 - self.clip, 1.0 + self.clip))
        return multipliers

    def sample_devices(self, blocks: Sequence[str], count: int,
                       rng: int | np.random.Generator | None = None
                       ) -> np.ndarray:
        """Draw multipliers for ``count`` devices as a ``(count, blocks)`` array.

        The draws are made device-major over the non-zero-sigma blocks, which
        is exactly the order ``count`` successive :meth:`sample` calls
        consume, so with the same generator state the batched and scalar
        paths produce identical multipliers.
        """
        blocks = list(blocks)
        sigmas = np.array([self.sigma_of(block) for block in blocks], dtype=float)
        multipliers = np.ones((count, len(blocks)))
        varying = np.flatnonzero(sigmas != 0)
        if varying.size and count:
            draws = ensure_rng(rng).normal(1.0, sigmas[varying],
                                           size=(count, varying.size))
            multipliers[:, varying] = np.clip(draws, 1.0 - self.clip,
                                              1.0 + self.clip)
        return multipliers
