"""Reproducible random streams.

Randomness is keyed by an explicit (seed, stream_id) pair mapped onto the
128-bit key of the Philox counter-based generator, so any piece of work can
be replayed bit-for-bit on any platform. Disjoint counter blocks of the same
stream give parallel chunks that never overlap: block k starts the 256-bit
Philox counter at k * 2**64, leaving 2**64 draws per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, _count

__all__ = ["RngStream"]

_WORD = 1 << 64


@dataclass(frozen=True)
class RngStream:
    """A named, splittable source of randomness.

    The same (seed, stream_id) always reproduces the same draws; distinct
    stream_ids are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = _count(getattr(self, name), name, 0)
            if value >= _WORD:
                raise InvalidParam(f"{name} must be an integer in [0, 2**64)")
            object.__setattr__(self, name, value)  # a numpy integer keys as its int

    def generator(self, block: int = 0) -> np.random.Generator:
        """Generator positioned at the start of a disjoint counter block."""
        block = _count(block, "block", 0)
        if block >= _WORD:
            raise InvalidParam("block must be in [0, 2**64)")
        key = self.seed * _WORD + self.stream_id
        bg = np.random.Philox(counter=block * _WORD, key=key)
        return np.random.Generator(bg)
