"""Deterministic random-number helpers shared by workload generators.

Everything in the reproduction is seeded; given the same seed, a workload
produces the identical operation stream, so every figure regenerates
bit-identically.
"""

from __future__ import annotations

import math
import random
from typing import Optional


def make_rng(seed: int) -> random.Random:
    """A private ``random.Random`` stream for one component.

    Each component owning its own stream keeps workloads independent of the
    order in which components draw numbers.
    """
    return random.Random(seed)


class ZipfianGenerator:
    """Zipfian item chooser over ``[0, item_count)``.

    This is the standard YCSB ``ZipfianGenerator`` (Gray et al.'s rejection
    inversion constants) so the key-popularity skew of YCSB workloads A and
    F matches the original benchmark.  ``theta`` defaults to YCSB's 0.99.
    """

    def __init__(self, item_count: int, theta: float = 0.99,
                 rng: Optional[random.Random] = None, seed: int = 0) -> None:
        if item_count <= 0:
            raise ValueError(f"item_count must be positive: {item_count}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1): {theta}")
        self._items = item_count
        self._theta = theta
        self._rng = rng if rng is not None else random.Random(seed)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1.0 - math.pow(2.0 / item_count, 1.0 - theta))
                     / (1.0 - self._zeta2 / self._zetan))
        self._second_item_below = 1.0 + math.pow(0.5, theta)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))

    def next(self) -> int:
        """Draw the next zipfian-distributed item index."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._second_item_below:
            return 1
        return int(self._items
                   * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfian:
    """Zipfian draw scattered over the key space via a multiplicative hash.

    YCSB uses this so the hottest keys are not physically adjacent, which
    matters for page-locality effects in the storage engines.
    """

    _GOLDEN = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, item_count: int, theta: float = 0.99, seed: int = 0) -> None:
        self._items = item_count
        self._zipf = ZipfianGenerator(item_count, theta=theta, seed=seed)

    def next(self) -> int:
        raw = self._zipf.next()
        hashed = ((raw + 1) * self._GOLDEN) & self._MASK
        return hashed % self._items
