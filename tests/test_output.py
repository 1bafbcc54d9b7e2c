import math
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal, localcontext

import pytest
from hypothesis import given, strategies as st

from ransomecon import (
    CostModel,
    Money,
    SweepGrid,
    run_sweep,
    run_trials,
    write_sweep_csv,
    write_trace_csv,
)
from ransomecon.output import (
    format_fixed,
    format_fixed_column,
    format_money,
    format_probability,
    format_ratio,
)

from conftest import baseline_econ

PLACES = st.sampled_from((2, 4, 6))


def _reference(value: float, places: int) -> str:
    """ROUND_HALF_UP of the exact binary value in Decimal, unsigned at zero."""
    with localcontext() as context:
        context.prec = 400
        q = Decimal(value).quantize(Decimal(10) ** -places, rounding=ROUND_HALF_UP)
        return format(abs(q) if q.is_zero() else q, "f")


def _ties(denominator: int):
    """Odd multiples of 1/denominator, both signs, exactly representable."""
    return st.integers(-(2**40), 2**40).map(lambda j: (2 * j + 1) / denominator)


def _near_negative_half_unit(places: int) -> list[float]:
    """Negative floats just above, at and just below -0.5 units of `places`."""
    values = [-0.5 * 10.0**-places]
    for _ in range(3):
        values = [math.nextafter(values[0], 0.0)] + values + [math.nextafter(values[-1], -1.0)]
    return values


TIE_FAMILIES = st.one_of(
    st.integers(0, 10**9).flatmap(
        lambda k: st.sampled_from((k + 0.125, -(k + 0.125), k + 0.375, -(k + 0.375)))
    ),
    _ties(32),
    _ties(128),
)


class TestFormatMoney:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0.00"),
            (-0.0, "0.00"),
            (-0.0001, "0.00"),
            (7499.999999999999, "7500.00"),
            (13888.888888888889, "13888.89"),
            (47330.16960000001, "47330.17"),
            (21565.084800000004, "21565.08"),
            (-4200.0, "-4200.00"),
            (2.5, "2.50"),
            (1000000.0, "1000000.00"),
        ],
    )
    def test_values(self, value, expected):
        assert format_money(value) == expected

    def test_ties_round_away_from_zero(self):
        # 0.125 is exactly representable, so it is a true half-cent tie
        assert format_money(0.125) == "0.13"
        assert format_money(-0.125) == "-0.13"


class TestFormatProbability:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0.000000"),
            (1.0, "1.000000"),
            (0.56 * 0.54, "0.302400"),
            (0.02488944641248853, "0.024889"),
            (0.04564316434929801, "0.045643"),
        ],
    )
    def test_values(self, value, expected):
        assert format_probability(value) == expected

    def test_ties_round_away_from_zero(self):
        # 2**-7 ends in ...125 at the seventh decimal: an exact tie
        assert format_probability(0.0078125) == "0.007813"


class TestFormatRatio:
    def test_values(self):
        assert format_ratio(1.7857142857142856) == "1.7857"
        assert format_ratio(12.269088) == "12.2691"
        assert format_ratio(22.499496) == "22.4995"


class TestFormatFixedAgainstDecimal:
    @given(st.floats(allow_nan=False, allow_infinity=False), PLACES)
    def test_any_finite_float(self, value, places):
        assert format_fixed(value, places) == _reference(value, places)

    @given(TIE_FAMILIES, PLACES)
    def test_binary_ties(self, value, places):
        assert format_fixed(value, places) == _reference(value, places)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | TIE_FAMILIES), PLACES)
    def test_column_matches_reference(self, values, places):
        assert format_fixed_column(values, places) == [_reference(v, places) for v in values]

    @pytest.mark.parametrize("places", (2, 4, 6))
    def test_negative_values_around_half_a_unit(self, places):
        values = _near_negative_half_unit(places) + [-0.0, -5e-324]
        expected = [_reference(v, places) for v in values]
        assert format_fixed_column(values, places) == expected
        assert [format_fixed(v, places) for v in values] == expected

    def test_largest_finite_values_format_exactly(self):
        top = 1.7976931348623157e308
        for places in (2, 4, 6):
            assert format_fixed(-top, places) == _reference(-top, places)
            assert format_fixed_column([top], places) == [_reference(top, places)]

    def test_ignores_the_callers_decimal_context(self):
        with localcontext() as context:
            context.prec = 3
            context.rounding = ROUND_HALF_EVEN
            assert format_fixed_column([1000.125, -1000.625, -0.001], 2) == [
                "1000.13", "-1000.63", "0.00",
            ]

    @pytest.mark.parametrize("places", (2, 4, 6))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_raises(self, value, places):
        with pytest.raises(ValueError, match="non-finite"):
            format_fixed(value, places)
        with pytest.raises(ValueError, match="non-finite"):
            format_fixed_column([1.0, value], places)


def _trace_csv_by_rows(trace) -> str:
    rows = [
        f"{i + 1},{int(won)},{_reference(profit, 2)},{_reference(bank, 2)}\n"
        for i, (won, profit, bank) in enumerate(
            zip(trace.outcomes, trace.profits(), trace.bank_series)
        )
    ]
    return "trial,outcome,profit,bank\n" + "".join(rows)


class TestTraceCsv:
    def test_every_bank_value_a_cent_tie(self):
        trace = run_trials(baseline_econ(), 500, seed=5, b0=Money(0.125))
        assert all(bank * 8 % 2 == 1 for bank in trace.bank_series)
        assert write_trace_csv(trace) == _trace_csv_by_rows(trace)

    def test_every_bank_value_a_negative_zero_candidate(self):
        zero = Money(0.0)
        econ = baseline_econ(ransom=0.0, cost=CostModel(zero, zero, zero))
        trace = run_trials(econ, 50, seed=5, b0=Money(-0.004))
        text = write_trace_csv(trace)
        assert text == _trace_csv_by_rows(trace)
        assert "-0.00" not in text and text.count(",0.00\n") == 50

    def test_single_win_row(self):
        trace = run_trials(baseline_econ(p_success=1.0, p_pay=1.0), 1, seed=1)
        assert write_trace_csv(trace) == "trial,outcome,profit,bank\n1,1,166204.00,166204.00\n"

    def test_single_loss_row(self):
        trace = run_trials(baseline_econ(p_success=0.0), 1, seed=1)
        assert write_trace_csv(trace) == "trial,outcome,profit,bank\n1,0,-4200.00,-4200.00\n"

    def test_cumulative_bank_column(self):
        trace = run_trials(baseline_econ(p_success=1.0, p_pay=1.0), 3, seed=1)
        assert write_trace_csv(trace) == (
            "trial,outcome,profit,bank\n"
            "1,1,166204.00,166204.00\n"
            "2,1,166204.00,332408.00\n"
            "3,1,166204.00,498612.00\n"
        )

    def test_byte_identical_across_runs(self):
        first = write_trace_csv(run_trials(baseline_econ(), 100, seed=99))
        second = write_trace_csv(run_trials(baseline_econ(), 100, seed=99))
        assert first == second

    def test_uses_newline_endings_and_trailing_newline(self):
        text = write_trace_csv(run_trials(baseline_econ(), 5, seed=1))
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.count("\n") == 6


class TestSweepCsv:
    def test_payment_probability_sweep(self):
        grid = SweepGrid(axes=(("p_pay_given_success", (0.56, 0.28)),), base=baseline_econ())
        assert write_sweep_csv(run_sweep(grid)) == (
            "p_pay_given_success,expected_value\n"
            "0.560000,47330.17\n"
            "0.280000,21565.08\n"
        )

    def test_empty_axes_single_row(self):
        result = run_sweep(SweepGrid(axes=(), base=baseline_econ()))
        assert write_sweep_csv(result) == "expected_value\n47330.17\n"

    def test_money_and_probability_column_formats(self):
        grid = SweepGrid(
            axes=(("ransom", (100000.0,)), ("p_success", (0.5,))), base=baseline_econ()
        )
        text = write_sweep_csv(run_sweep(grid))
        header, row = text.splitlines()
        assert header == "ransom,p_success,expected_value"
        assert row.startswith("100000.00,0.500000,")

    def test_parsed_numbers_round_trip_within_half_cent(self):
        grid = SweepGrid(
            axes=(("p_pay_given_success", (0.56, 0.28, 0.14)),), base=baseline_econ()
        )
        result = run_sweep(grid)
        lines = write_sweep_csv(result).splitlines()[1:]
        for line, row in zip(lines, result.rows):
            parsed_ev = float(line.split(",")[-1])
            assert parsed_ev == pytest.approx(row.expected_value.amount, abs=0.005)
