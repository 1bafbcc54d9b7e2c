"""Analytic break-even solvers and cartesian sensitivity sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

from .economics import (
    AttackEconomics,
    Money,
    Probability,
    expected_utility,
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

SWEEPABLE_PARAMETERS = ("ransom", "cost_total", "p_success", "p_pay_given_success")
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


def _validate_axis_value(name: str, value: float) -> None:
    if name in ("p_success", "p_pay_given_success"):
        unit_interval(name, value)
    else:
        nonnegative(name, value)


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
            for v in values:
                _validate_axis_value(name, v)

    @property
    def cells(self) -> int:
        return math.prod(len(values) for _, values in self.axes)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: the full parameter assignment and its expected value."""

    assignment: Mapping[str, float]
    expected_value: Money


@dataclass(frozen=True)
class SweepResult:
    """All rows of an evaluated grid, plus the grid for reconstruction."""

    grid: SweepGrid
    rows: tuple[SweepRow, ...]

    @property
    def swept_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.grid.axes)


def apply_assignment(base: AttackEconomics, overrides: Mapping[str, float]) -> AttackEconomics:
    """Base economics with the named parameters replaced.

    Cost overrides are absolute totals; the base decomposition is
    rescaled proportionally to hit them.
    """
    econ = base
    for name, value in overrides.items():
        if name == "ransom":
            econ = replace(econ, ransom=Money(value))
        elif name == "cost_total":
            econ = replace(econ, cost=base.cost.scaled_to_total(value))
        elif name == "p_success":
            econ = replace(econ, p_success=Probability(value))
        elif name == "p_pay_given_success":
            econ = replace(econ, p_pay_given_success=Probability(value))
        else:
            raise ValueError(f"unknown sweep parameter {name!r}")
    return econ


def _full_assignment(base: AttackEconomics, overrides: Mapping[str, float]) -> dict[str, float]:
    assignment = {
        "ransom": base.ransom.amount,
        "cost_total": base.cost.total().amount,
        "p_success": base.p_success.value,
        "p_pay_given_success": base.p_pay_given_success.value,
    }
    assignment.update(overrides)
    return assignment


def run_sweep(grid: SweepGrid, cell_cap: int = DEFAULT_CELL_CAP) -> SweepResult:
    """Evaluate expected utility at every cell of the grid.

    Rows come out row-major in declared axis order (first axis slowest),
    so the output is deterministic for a given grid.
    """
    if grid.cells > cell_cap:
        raise GridTooLargeError(f"grid has {grid.cells} cells, cap is {cell_cap}")
    names = [name for name, _ in grid.axes]
    value_lists = [values for _, values in grid.axes]
    rows = []
    for combo in itertools.product(*value_lists):
        overrides = dict(zip(names, combo))
        econ = apply_assignment(grid.base, overrides)
        rows.append(
            SweepRow(
                assignment=_full_assignment(grid.base, overrides),
                expected_value=expected_utility(econ),
            )
        )
    return SweepResult(grid=grid, rows=tuple(rows))


def reevaluate_row(result: SweepResult, row: SweepRow) -> Money:
    """Recompute a row's expected value from its stored assignment.

    Follows the same code path as run_sweep, so the result is identical
    bit for bit; use it to audit a SweepResult.
    """
    econ = apply_assignment(result.grid.base, dict(row.assignment))
    return expected_utility(econ)
