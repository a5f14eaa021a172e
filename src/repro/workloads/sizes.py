"""Object-size distributions used by the synthetic workload generators."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class SizeDistribution(ABC):
    """Draws object sizes; each generator owns a seeded RNG for determinism."""

    name = "sizes"

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Return one object size (a positive integer)."""

    def __call__(self, rng: random.Random) -> int:
        size = self.sample(rng)
        if size < 1:
            raise ValueError(f"{self.name} produced a non-positive size {size}")
        return size


class FixedSizes(SizeDistribution):
    """Every object has the same size."""

    def __init__(self, size: int = 1) -> None:
        if size < 1:
            raise ValueError("size must be positive")
        self.size = size
        self.name = f"fixed({size})"

    def sample(self, rng: random.Random) -> int:
        return self.size


class UniformSizes(SizeDistribution):
    """Sizes uniform over ``[low, high]``."""

    def __init__(self, low: int = 1, high: int = 64) -> None:
        if not 1 <= low <= high:
            raise ValueError("need 1 <= low <= high")
        self.low = low
        self.high = high
        self.name = f"uniform({low},{high})"

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.low, self.high)


class PowerOfTwoSizes(SizeDistribution):
    """Sizes are powers of two with geometrically decreasing probability."""

    def __init__(self, min_exponent: int = 0, max_exponent: int = 8) -> None:
        if not 0 <= min_exponent <= max_exponent:
            raise ValueError("need 0 <= min_exponent <= max_exponent")
        self.min_exponent = min_exponent
        self.max_exponent = max_exponent
        self.name = f"pow2({min_exponent},{max_exponent})"

    def sample(self, rng: random.Random) -> int:
        exponent = self.min_exponent
        while exponent < self.max_exponent and rng.random() < 0.5:
            exponent += 1
        return 1 << exponent


class ZipfSizes(SizeDistribution):
    """Heavy-tailed sizes: mostly small objects, rare huge ones.

    ``P(size = k)`` is proportional to ``k ** -alpha`` for ``k`` in
    ``[1, max_size]``.
    """

    def __init__(self, alpha: float = 1.5, max_size: int = 1024) -> None:
        if alpha <= 0 or max_size < 1:
            raise ValueError("alpha must be positive and max_size >= 1")
        self.alpha = alpha
        self.max_size = max_size
        self.name = f"zipf({alpha:g},{max_size})"
        weights = [k ** -alpha for k in range(1, max_size + 1)]
        total = sum(weights)
        self._cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        lo, hi = 0, len(self._cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1


class BimodalSizes(SizeDistribution):
    """Two populations: frequent small objects and occasional large ones.

    This is the regime where the cost function matters most — large deletions
    followed by small insertions is exactly the pattern the paper's lower
    bound (Lemma 3.7) and the logging-compaction counterexample exploit.
    """

    def __init__(
        self,
        small: int = 4,
        large: int = 512,
        large_fraction: float = 0.05,
    ) -> None:
        if small < 1 or large < small or not 0 <= large_fraction <= 1:
            raise ValueError("invalid bimodal parameters")
        self.small = small
        self.large = large
        self.large_fraction = large_fraction
        self.name = f"bimodal({small},{large})"

    def sample(self, rng: random.Random) -> int:
        if rng.random() < self.large_fraction:
            return self.large
        return self.small


class DatabaseBlockSizes(SizeDistribution):
    """Block sizes as produced by a B-tree-style storage engine.

    Mostly leaf nodes of a nominal block size (with +-25% jitter from
    compression), some internal nodes at a quarter of that, and a small
    fraction of large overflow/blob blocks — loosely modelled on the block
    translation traffic of TokuDB-style engines that motivated the paper.
    """

    def __init__(self, block: int = 64, overflow_factor: int = 16) -> None:
        if block < 4 or overflow_factor < 1:
            raise ValueError("block must be >= 4 and overflow_factor >= 1")
        self.block = block
        self.overflow_factor = overflow_factor
        self.name = f"dbblocks({block})"

    def sample(self, rng: random.Random) -> int:
        roll = rng.random()
        if roll < 0.70:  # compressed leaf node
            jitter = rng.uniform(0.75, 1.25)
            return max(1, int(self.block * jitter))
        if roll < 0.95:  # internal node
            return max(1, self.block // 4)
        # overflow / blob block
        return self.block * rng.randint(2, self.overflow_factor)
