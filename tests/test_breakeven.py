import itertools

import pytest
from hypothesis import assume, given, strategies as st

from ransomecon import (
    AttackEconomics,
    CostModel,
    Money,
    Probability,
    SweepGrid,
    break_even_cost,
    break_even_multiplier,
    break_even_pay_probability,
    break_even_ransom,
    expected_utility,
    format_money,
    format_probability,
    payout_multiple,
    reevaluate_row,
    run_sweep,
    write_sweep_csv,
)
from ransomecon.errors import (
    GridTooLargeError,
    NotAchievableError,
    ZeroCostError,
    ZeroDenominatorError,
    ZeroProbabilityError,
)

from conftest import BASE_COST, baseline_econ

costs = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
positive_probs = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)


class TestBreakEvenRansom:
    def test_payment_rate_only(self):
        ransom = break_even_ransom(Money(4200.0), Probability(0.56))
        assert ransom.amount == pytest.approx(7500.0, abs=1e-6)

    def test_joint_rate(self):
        ransom = break_even_ransom(Money(4200.0), Probability(0.3024))
        assert ransom.amount == pytest.approx(13888.89, abs=0.005)

    def test_free_attack(self):
        assert break_even_ransom(Money(0.0), Probability(0.5)).amount == 0.0

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilityError):
            break_even_ransom(Money(4200.0), Probability(0.0))

    @given(c=costs, p=positive_probs)
    def test_round_trip_to_zero_ev(self, c, p):
        ransom = break_even_ransom(Money(c), Probability(p))
        econ = AttackEconomics.from_joint(ransom, CostModel.from_total(c), Probability(p))
        assert abs(expected_utility(econ).amount) <= 1e-6

    @given(c=costs, p=positive_probs)
    def test_multiplier_identity_is_exact(self, c, p):
        prob = Probability(p)
        assert break_even_multiplier(prob) * c == break_even_ransom(Money(c), prob).amount


class TestBreakEvenPayProbability:
    def test_high_ransom(self):
        prob = break_even_pay_probability(Money(4200.0), Money(312493.0), Probability(0.54))
        assert prob.value == pytest.approx(0.02489, abs=5e-6)

    def test_low_ransom(self):
        prob = break_even_pay_probability(Money(4200.0), Money(170404.0), Probability(0.54))
        assert prob.value == pytest.approx(0.04564, abs=5e-6)

    def test_free_attack(self):
        assert break_even_pay_probability(Money(0.0), Money(100.0), Probability(0.5)).value == 0.0

    @pytest.mark.parametrize("ransom,p_success", [(0.0, 0.5), (100.0, 0.0)])
    def test_zero_denominator(self, ransom, p_success):
        with pytest.raises(ZeroDenominatorError):
            break_even_pay_probability(Money(4200.0), Money(ransom), Probability(p_success))

    def test_not_achievable(self):
        with pytest.raises(NotAchievableError):
            break_even_pay_probability(Money(4200.0), Money(100.0), Probability(0.54))

    def test_boundary_needs_certain_payment(self):
        prob = break_even_pay_probability(Money(100.0), Money(200.0), Probability(0.5))
        assert prob.value == 1.0

    @given(
        c=costs,
        x=st.floats(min_value=1e-2, max_value=1e7, allow_nan=False),
        p_success=positive_probs,
    )
    def test_round_trip_to_zero_ev(self, c, x, p_success):
        assume(c <= p_success * x)
        p_pay = break_even_pay_probability(Money(c), Money(x), Probability(p_success))
        econ = AttackEconomics(Money(x), CostModel.from_total(c), Probability(p_success), p_pay)
        assert abs(expected_utility(econ).amount) <= 1e-6


class TestBreakEvenCost:
    def test_joint_rate(self):
        econ = AttackEconomics.from_joint(Money(170404.0), BASE_COST, Probability(0.3024))
        assert break_even_cost(econ).amount == pytest.approx(51530.17, abs=0.005)

    def test_zero_probability(self):
        econ = baseline_econ(p_success=0.0)
        assert break_even_cost(econ).amount == 0.0

    def test_inverse_of_break_even_ransom(self):
        econ = baseline_econ(ransom=7500.0, p_success=1.0, p_pay=0.56)
        assert break_even_cost(econ).amount == pytest.approx(4200.0, abs=1e-9)


class TestBreakEvenMultiplier:
    def test_payment_rate_only(self):
        assert break_even_multiplier(Probability(0.56)) == pytest.approx(1.7857, abs=5e-5)

    def test_certain_payment(self):
        assert break_even_multiplier(Probability(1.0)) == 1.0

    def test_joint_rate(self):
        assert break_even_multiplier(Probability(0.3024)) == pytest.approx(3.3069, abs=5e-5)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilityError):
            break_even_multiplier(Probability(0.0))


class TestPayoutMultiple:
    def test_high_estimate(self):
        value = payout_multiple(Money(312493.0), Money(4200.0), Probability(0.3024))
        assert value == pytest.approx(22.5, abs=0.05)

    def test_low_estimate(self):
        value = payout_multiple(Money(170404.0), Money(4200.0), Probability(0.3024))
        assert value == pytest.approx(12.3, abs=0.05)

    def test_break_even_ransom_has_multiple_one(self):
        value = payout_multiple(Money(13888.89), Money(4200.0), Probability(0.3024))
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_zero_cost(self):
        with pytest.raises(ZeroCostError):
            payout_multiple(Money(1.0), Money(0.0), Probability(0.5))

    def test_zero_probability_propagates(self):
        with pytest.raises(ZeroProbabilityError):
            payout_multiple(Money(1.0), Money(4200.0), Probability(0.0))


class TestSweepGrid:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepGrid(axes=(("ransom_typo", (1.0,)),), base=baseline_econ())

    def test_rejects_duplicate_parameter(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepGrid(axes=(("ransom", (1.0,)), ("ransom", (2.0,))), base=baseline_econ())

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            SweepGrid(axes=(("ransom", ()),), base=baseline_econ())

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            SweepGrid(axes=(("p_success", (1.5,)),), base=baseline_econ())

    def test_cell_count(self):
        grid = SweepGrid(
            axes=(("ransom", (1.0, 2.0, 3.0)), ("p_success", (0.1, 0.2))),
            base=baseline_econ(),
        )
        assert grid.cells == 6


class TestRunSweep:
    def test_payment_probability_two_point(self):
        grid = SweepGrid(axes=(("p_pay_given_success", (0.56, 0.28)),), base=baseline_econ())
        result = run_sweep(grid)
        evs = [row.expected_value.amount for row in result.rows]
        assert evs[0] == pytest.approx(47330.17, abs=0.005)
        assert evs[1] == pytest.approx(21565.08, abs=0.005)

    def test_single_cell_grid(self):
        result = run_sweep(SweepGrid(axes=(), base=baseline_econ()))
        assert len(result.rows) == 1
        assert result.rows[0].expected_value == expected_utility(baseline_econ())

    def test_cost_axis_hits_break_even(self):
        base = AttackEconomics.from_joint(Money(170404.0), BASE_COST, Probability(0.3024))
        grid = SweepGrid(axes=(("cost_total", (0.0, 51530.17)),), base=base)
        evs = [row.expected_value.amount for row in run_sweep(grid).rows]
        assert evs[0] == pytest.approx(51530.17, abs=0.005)
        assert evs[1] == pytest.approx(0.0, abs=0.005)

    def test_row_major_order(self):
        grid = SweepGrid(
            axes=(("p_pay_given_success", (0.5, 0.25)), ("ransom", (1000.0, 2000.0))),
            base=baseline_econ(),
        )
        combos = [
            (row.assignment["p_pay_given_success"], row.assignment["ransom"])
            for row in run_sweep(grid).rows
        ]
        assert combos == [(0.5, 1000.0), (0.5, 2000.0), (0.25, 1000.0), (0.25, 2000.0)]

    def test_cell_cap(self):
        grid = SweepGrid(
            axes=(("ransom", (1.0, 2.0)), ("p_success", (0.1, 0.2))), base=baseline_econ()
        )
        with pytest.raises(GridTooLargeError):
            run_sweep(grid, cell_cap=3)

    def test_rows_reevaluate_identically(self):
        grid = SweepGrid(
            axes=(
                ("ransom", (100000.0, 312493.0)),
                ("cost_total", (4200.0, 10000.0)),
                ("p_pay_given_success", (0.56, 0.28)),
            ),
            base=baseline_econ(),
        )
        result = run_sweep(grid)
        assert len(result.rows) == 8
        for row in result.rows:
            assert reevaluate_row(result, row) == row.expected_value

    def test_axis_reordering_permutes_rows(self):
        axes_a = (("ransom", (1000.0, 2000.0)), ("p_success", (0.1, 0.9)))
        axes_b = (("p_success", (0.1, 0.9)), ("ransom", (1000.0, 2000.0)))
        rows_a = run_sweep(SweepGrid(axes=axes_a, base=baseline_econ())).rows
        rows_b = run_sweep(SweepGrid(axes=axes_b, base=baseline_econ())).rows

        def key(row):
            return tuple(sorted(row.assignment.items())), row.expected_value.amount

        assert sorted(map(key, rows_a)) == sorted(map(key, rows_b))


class TestSweepOracle:
    """The sweep against a cell-by-cell evaluation through the domain types.

    Axes are declared out of formula order, the cost axis rescales a base
    with three nonzero components to totals that the rescaled components
    do not sum back to exactly, and most values are exact rounding ties
    (k + 0.125 dollars, odd multiples of 1/128).
    """

    AXES = (
        ("p_pay_given_success", (1 / 128, 0.28, 127 / 128)),
        ("cost_total", (0.0, 1000.625, 1006.375)),
        ("ransom", (1000.125, 170404.375, 312493.0)),
        ("p_success", (0.5, 3 / 128, 1.0)),
    )

    def cells(self):
        names = [name for name, _ in self.AXES]
        for combo in itertools.product(*(values for _, values in self.AXES)):
            a = dict(zip(names, combo))
            econ = AttackEconomics(
                Money(a["ransom"]),
                BASE_COST.scaled_to_total(a["cost_total"]),
                Probability(a["p_success"]),
                Probability(a["p_pay_given_success"]),
            )
            yield a, expected_utility(econ)

    def test_every_row_matches_expected_utility(self):
        result = run_sweep(SweepGrid(axes=self.AXES, base=baseline_econ()))
        oracle = list(self.cells())
        assert len(result.rows) == len(oracle) == 81
        for row, (assignment, ev) in zip(result.rows, oracle):
            assert dict(row.assignment) == assignment
            assert row.expected_value.amount.hex() == ev.amount.hex()

    def test_csv_matches_cell_by_cell_formatting(self):
        result = run_sweep(SweepGrid(axes=self.AXES, base=baseline_econ()))
        lines = [",".join([name for name, _ in self.AXES] + ["expected_value"])]
        for assignment, ev in self.cells():
            cells = [
                format_money(v) if name in ("ransom", "cost_total") else format_probability(v)
                for name, v in assignment.items()
            ]
            lines.append(",".join(cells + [format_money(ev.amount)]))
        assert write_sweep_csv(result) == "\n".join(lines) + "\n"
