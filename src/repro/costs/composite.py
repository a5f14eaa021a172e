"""Combinators over cost functions that preserve membership in ``F_sa``.

Closure properties used here:

* a positive scaling of a subadditive monotone function stays subadditive
  and monotone,
* a sum of subadditive monotone functions stays subadditive and monotone,
* a pointwise minimum of subadditive monotone functions stays subadditive
  and monotone (the minimum models a device that picks the cheapest of
  several transfer mechanisms).

A pointwise *maximum* does **not** preserve subadditivity in general, so no
``MaxCost`` is provided.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.costs.base import CostFunction, CostFunctionError, validate_cost_function


class ScaledCost(CostFunction):
    """``f(w) = factor * inner(w)`` for a positive ``factor``."""

    def __init__(self, inner: CostFunction, factor: float) -> None:
        if factor <= 0:
            raise CostFunctionError("factor must be positive")
        self.inner = inner
        self.factor = factor
        self.name = f"{factor:g}*{inner.name}"

    def cost(self, size: int) -> float:
        return self.factor * self.inner(size)


class SumCost(CostFunction):
    """``f(w) = sum_i inner_i(w)``."""

    def __init__(self, parts: Sequence[CostFunction]) -> None:
        if not parts:
            raise CostFunctionError("SumCost needs at least one part")
        self.parts = tuple(parts)
        self.name = "+".join(p.name for p in self.parts)

    def cost(self, size: int) -> float:
        return sum(part(size) for part in self.parts)


class MinCost(CostFunction):
    """``f(w) = min_i inner_i(w)`` — cheapest of several mechanisms."""

    def __init__(self, parts: Sequence[CostFunction]) -> None:
        if not parts:
            raise CostFunctionError("MinCost needs at least one part")
        self.parts = tuple(parts)
        self.name = "min(" + ",".join(p.name for p in self.parts) + ")"

    def cost(self, size: int) -> float:
        return min(part(size) for part in self.parts)


class TabulatedCost(CostFunction):
    """A cost function backed by measured per-size costs.

    ``table`` maps sizes to measured costs; sizes inside the measured range
    are charged by rounding *up* to the next measured size, and sizes beyond
    the largest measurement are charged ``max(f(largest), r * size)`` where
    ``r`` is the smallest measured per-unit rate — an extrapolation that
    provably preserves subadditivity given a subadditive table.
    ``validate`` (on by default) runs the empirical F_sa checker over the
    measured range so that bad measurements are rejected loudly instead of
    silently breaking the competitive analysis.
    """

    def __init__(self, table: Dict[int, float], validate: bool = True) -> None:
        if not table:
            raise CostFunctionError("table must not be empty")
        if any(size <= 0 or cost <= 0 for size, cost in table.items()):
            raise CostFunctionError("table sizes and costs must be positive")
        self._sizes = sorted(table)
        self._table = dict(table)
        self._unit_rate = min(cost / size for size, cost in table.items())
        self.name = "tabulated"
        if validate:
            validate_cost_function(self, max_size=self._sizes[-1])

    def cost(self, size: int) -> float:
        if size in self._table:
            return self._table[size]
        for known in self._sizes:
            if known >= size:
                return self._table[known]
        largest = self._sizes[-1]
        return max(self._table[largest], self._unit_rate * size)
