"""Analytic break-even solvers and cartesian sensitivity sweeps."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

from .economics import (
    AttackEconomics,
    Money,
    Probability,
    expected_value,
    nonnegative,
    unit_interval,
)
from .errors import (
    GridTooLargeError,
    NotAchievableError,
    ZeroCostError,
    ZeroDenominatorError,
    ZeroProbabilityError,
)

# The parameters a sweep may vary, in the argument order of expected_value;
# the money ones must be >= 0, the rest are probabilities.
SWEEPABLE_PARAMETERS = ("ransom", "cost_total", "p_success", "p_pay_given_success")
MONEY_PARAMETERS = ("ransom", "cost_total")
DEFAULT_CELL_CAP = 10_000_000


def break_even_multiplier(p_win: Probability) -> float:
    """Ratio of the break-even ransom to the per-attack cost: 1 / p_win.

    Equivalently, how many times over the current ransom the cost would
    have to grow before a ransom already priced at break-even stops
    paying off; both readings are the same reciprocal.
    """
    if p_win.value == 0.0:
        raise ZeroProbabilityError("win probability must be positive")
    return 1.0 / p_win.value


def break_even_ransom(cost: Money, p_win: Probability) -> Money:
    """Smallest ransom with nonnegative expected value: cost / p_win.

    Computed as break_even_multiplier(p_win) * cost so the multiplier
    identity holds bit for bit.
    """
    nonnegative("cost", cost.amount)
    return Money(break_even_multiplier(p_win) * cost.amount)


def break_even_pay_probability(cost: Money, ransom: Money, p_success: Probability) -> Probability:
    """Conditional payment probability at which expected value is zero.

    Solves 0 = p_success * p_pay * ransom - cost for p_pay. When the
    cost exceeds the revenue under certain payment, no payment rate in
    [0, 1] breaks even and NotAchievableError is raised.
    """
    nonnegative("cost", cost.amount)
    denom = p_success.value * ransom.amount
    if denom == 0.0:
        raise ZeroDenominatorError("ransom and success probability must both be positive")
    required = cost.amount / denom
    if required > 1.0:
        raise NotAchievableError(
            f"cost {cost.amount:g} exceeds certain-payment revenue {denom:g}; "
            "no payment rate breaks even"
        )
    return Probability(required)


def break_even_cost(econ: AttackEconomics) -> Money:
    """Per-attack cost at which expected value is zero: p_win * ransom."""
    return Money(econ.p_win * econ.ransom.amount)


def payout_multiple(observed_ransom: Money, cost: Money, p_win: Probability) -> float:
    """How many times over break-even an observed ransom is priced."""
    nonnegative("ransom", observed_ransom.amount)
    if cost.amount == 0.0:
        raise ZeroCostError("payout multiple is undefined at zero cost")
    return observed_ransom.amount / break_even_ransom(cost, p_win).amount


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian grid of parameter overrides around a base economics.

    Each axis names one of SWEEPABLE_PARAMETERS and lists the values to
    visit; parameters without an axis keep their base values.
    """

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    base: AttackEconomics

    def __post_init__(self):
        axes = tuple((name, tuple(float(v) for v in values)) for name, values in self.axes)
        object.__setattr__(self, "axes", axes)
        seen = set()
        for name, values in axes:
            if name not in SWEEPABLE_PARAMETERS:
                raise ValueError(
                    f"unknown sweep parameter {name!r}; expected one of {SWEEPABLE_PARAMETERS}"
                )
            if name in seen:
                raise ValueError(f"duplicate sweep parameter {name!r}")
            seen.add(name)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            check = nonnegative if name in MONEY_PARAMETERS else unit_interval
            for v in values:
                check(name, v)

    @property
    def cells(self) -> int:
        return math.prod(len(values) for _, values in self.axes)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: the full parameter assignment and its expected value."""

    assignment: Mapping[str, float]
    expected_value: Money


def _base_assignment(base: AttackEconomics) -> dict[str, float]:
    return {
        "ransom": base.ransom.amount,
        "cost_total": base.cost.total().amount,
        "p_success": base.p_success.value,
        "p_pay_given_success": base.p_pay_given_success.value,
    }


@dataclass(frozen=True)
class SweepResult:
    """The expected value of every grid cell, row-major, plus the grid."""

    grid: SweepGrid
    expected_values: tuple[float, ...]

    @property
    def swept_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.grid.axes)

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per cell, built on each access from the grid."""
        base = _base_assignment(self.grid.base)
        names = self.swept_names
        combos = itertools.product(*(values for _, values in self.grid.axes))
        return tuple(
            SweepRow({**base, **dict(zip(names, combo))}, Money(ev))
            for combo, ev in zip(combos, self.expected_values)
        )


def run_sweep(grid: SweepGrid, cell_cap: int = DEFAULT_CELL_CAP) -> SweepResult:
    """Evaluate expected utility at every cell of the grid.

    Values come out row-major in declared axis order (first axis
    slowest), so the output is deterministic for a given grid. Each axis
    value is resolved to its formula operand once; a cell is then one
    call of the shared expected-value arithmetic.
    """
    if grid.cells > cell_cap:
        raise GridTooLargeError(f"grid has {grid.cells} cells, cap is {cell_cap}")
    operands = {name: (value,) for name, value in _base_assignment(grid.base).items()}
    for name, values in grid.axes:
        if name == "cost_total":  # a cell reads the rescaled components' sum, rounding included
            values = tuple(grid.base.cost.scaled_to_total(v).total().amount for v in values)
        operands[name] = values
    swept = [name for name, _ in grid.axes]
    order = swept + [name for name in SWEEPABLE_PARAMETERS if name not in swept]
    in_formula_order = operator.itemgetter(*(order.index(n) for n in SWEEPABLE_PARAMETERS))
    cells = itertools.product(*(operands[name] for name in order))
    return SweepResult(
        grid=grid,
        expected_values=tuple(expected_value(*in_formula_order(cell)) for cell in cells),
    )


def reevaluate_row(result: SweepResult, row: SweepRow) -> Money:
    """Recompute a row's expected value from its stored assignment.

    Evaluates a one-cell grid of the whole assignment through run_sweep,
    so the result is identical bit for bit; use it to audit a SweepResult.
    """
    axes = tuple((name, (value,)) for name, value in row.assignment.items())
    return Money(run_sweep(SweepGrid(axes, result.grid.base)).expected_values[0])
