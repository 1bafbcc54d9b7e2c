import pytest
from hypothesis import given, strategies as st

from ransomecon import (
    AnnualizationInputs,
    AttackEconomics,
    AttackSuccessReduction,
    BackupAdoption,
    CostModel,
    CyberInsurance,
    DecrypterAvailability,
    Money,
    Probability,
    ScenarioFile,
    SimulationSpec,
    parse_scenario,
    write_scenario,
)
from ransomecon.errors import (
    DuplicateKeyError,
    ScenarioError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownKeyError,
)

REFERENCE_DOC = """\
[economics]
ransom = 170404
cost.product = 3000
cost.access = 400
cost.loader = 800
p_success = 0.54
p_pay_given_success = 0.56
"""

FULL_DOC = REFERENCE_DOC + """
[simulation]
trials = 1000
seed = 14598366
b0 = 0

[sweep]
axis.p_pay_given_success = {0.56, 0.28}
axis.ransom = 100000:300000:100000

[mitigation]
action.1 = BackupAdoption(adoption=1, effectiveness=0.5)
action.2 = CyberInsurance()

[annualization]
attacks_per_year = 10
salary_threshold = 100000
"""


class TestParseEconomics:
    def test_reference_document(self):
        scenario = parse_scenario(REFERENCE_DOC)
        econ = scenario.economics
        assert econ.ransom.amount == 170404.0
        assert econ.cost.total().amount == 4200.0
        assert econ.p_success.value == 0.54
        assert econ.p_pay_given_success.value == 0.56
        assert scenario.simulation is None
        assert scenario.sweep_axes is None
        assert scenario.mitigation is None

    def test_empty_document(self):
        with pytest.raises(ScenarioValidationError, match=r"\[economics\]") as info:
            parse_scenario("")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_comments_and_blank_lines(self):
        doc = "# leading comment\n\n" + REFERENCE_DOC.replace(
            "ransom = 170404", "ransom = 170404   # trailing comment"
        )
        assert parse_scenario(doc).economics.ransom.amount == 170404.0

    def test_missing_key_names_it(self):
        doc = REFERENCE_DOC.replace("p_success = 0.54\n", "")
        with pytest.raises(ScenarioValidationError, match="p_success"):
            parse_scenario(doc)


BAD_PROBABILITY_DOC = """\
[economics]
ransom = 100
cost.product = 1
cost.access = 0
cost.loader = 0
p_success = 1.5
p_pay_given_success = 0.5
"""


class TestErrorPositions:
    def test_probability_out_of_range(self):
        with pytest.raises(ScenarioValidationError, match=r"p_success.*\[0, 1\]") as info:
            parse_scenario(BAD_PROBABILITY_DOC)
        assert (info.value.line, info.value.column) == (6, 13)

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError, match=r"unknown section \[bogus\]") as info:
            parse_scenario(REFERENCE_DOC + "[bogus]\n")
        assert (info.value.line, info.value.column) == (8, 1)

    def test_unknown_key(self):
        with pytest.raises(UnknownKeyError, match="ransom_typo") as info:
            parse_scenario(REFERENCE_DOC + "ransom_typo = 5\n")
        assert (info.value.line, info.value.column) == (8, 1)

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKeyError, match="'ransom'") as info:
            parse_scenario(REFERENCE_DOC + "ransom = 5\n")
        assert (info.value.line, info.value.column) == (8, 1)

    def test_duplicate_section(self):
        with pytest.raises(DuplicateKeyError, match=r"\[economics\]") as info:
            parse_scenario(REFERENCE_DOC + "[economics]\n")
        assert (info.value.line, info.value.column) == (8, 1)

    def test_entry_before_section(self):
        with pytest.raises(ScenarioSyntaxError, match="before any") as info:
            parse_scenario("ransom = 5\n")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_malformed_header(self):
        with pytest.raises(ScenarioSyntaxError, match="malformed") as info:
            parse_scenario("[economics\nransom = 5\n")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_line_without_equals(self):
        with pytest.raises(ScenarioSyntaxError, match="key = value") as info:
            parse_scenario("[economics]\nransom 100\n")
        assert (info.value.line, info.value.column) == (2, 1)

    def test_missing_value(self):
        with pytest.raises(ScenarioSyntaxError, match="missing value") as info:
            parse_scenario("[economics]\nransom =\n")
        assert (info.value.line, info.value.column) == (2, 9)

    def test_bad_number(self):
        with pytest.raises(ScenarioSyntaxError, match="decimal number") as info:
            parse_scenario("[economics]\nransom = abc\n")
        assert (info.value.line, info.value.column) == (2, 10)

    def test_exponent_notation_rejected(self):
        with pytest.raises(ScenarioSyntaxError, match="decimal number"):
            parse_scenario("[economics]\nransom = 1e5\n")

    def test_negative_money(self):
        with pytest.raises(ScenarioValidationError, match="ransom must be >= 0"):
            parse_scenario(REFERENCE_DOC.replace("ransom = 170404", "ransom = -5"))

    def test_all_errors_carry_positions(self):
        cases = [
            "",
            "ransom = 5\n",
            "[what]\n",
            REFERENCE_DOC + "ransom = 5\n",
            REFERENCE_DOC.replace("0.54", "54"),
        ]
        for doc in cases:
            with pytest.raises(ScenarioError) as info:
                parse_scenario(doc)
            assert info.value.line >= 1
            assert info.value.column >= 1
            assert f"line {info.value.line}, column {info.value.column}" in str(info.value)


class TestSimulationBlock:
    def test_full_block(self):
        scenario = parse_scenario(FULL_DOC)
        assert scenario.simulation == SimulationSpec(trials=1000, seed=14598366, b0=Money(0.0))

    def test_partial_block(self):
        scenario = parse_scenario(REFERENCE_DOC + "\n[simulation]\ntrials = 5\n")
        assert scenario.simulation == SimulationSpec(trials=5, seed=None, b0=None)

    def test_negative_b0_allowed(self):
        scenario = parse_scenario(REFERENCE_DOC + "\n[simulation]\nb0 = -100.5\n")
        assert scenario.simulation.b0 == Money(-100.5)

    def test_fractional_trials(self):
        with pytest.raises(ScenarioValidationError, match="whole number"):
            parse_scenario(REFERENCE_DOC + "\n[simulation]\ntrials = 2.5\n")

    def test_zero_trials(self):
        with pytest.raises(ScenarioValidationError, match="trials"):
            parse_scenario(REFERENCE_DOC + "\n[simulation]\ntrials = 0\n")

    def test_seed_too_large(self):
        doc = REFERENCE_DOC + f"\n[simulation]\nseed = {2**64}\n"
        with pytest.raises(ScenarioValidationError, match="seed"):
            parse_scenario(doc)


class TestSweepBlock:
    def test_list_axis_preserves_order(self):
        scenario = parse_scenario(FULL_DOC)
        assert scenario.sweep_axes[0] == ("p_pay_given_success", (0.56, 0.28))

    def test_range_axis_is_inclusive(self):
        scenario = parse_scenario(FULL_DOC)
        assert scenario.sweep_axes[1] == ("ransom", (100000.0, 200000.0, 300000.0))

    def test_range_with_float_step(self):
        doc = REFERENCE_DOC + "\n[sweep]\naxis.p_success = 0.1:0.5:0.2\n"
        values = parse_scenario(doc).sweep_axes[0][1]
        assert values == pytest.approx((0.1, 0.3, 0.5))

    def test_empty_section_means_no_axes(self):
        scenario = parse_scenario(REFERENCE_DOC + "\n[sweep]\n")
        assert scenario.sweep_axes == ()

    def test_zero_step(self):
        with pytest.raises(ScenarioValidationError, match="step"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.ransom = 1:5:0\n")

    def test_descending_range(self):
        with pytest.raises(ScenarioValidationError, match="start"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.ransom = 5:1:1\n")

    def test_unknown_axis_target(self):
        with pytest.raises(UnknownKeyError, match="unknown sweep axis"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.bogus = {1}\n")

    def test_bare_scalar_rejected(self):
        with pytest.raises(ScenarioSyntaxError, match="start:stop:step"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.ransom = 5\n")

    def test_unterminated_list(self):
        with pytest.raises(ScenarioSyntaxError, match="unterminated"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.ransom = {1, 2\n")

    def test_probability_axis_range_checked(self):
        with pytest.raises(ScenarioValidationError, match=r"\[0, 1\]"):
            parse_scenario(REFERENCE_DOC + "\n[sweep]\naxis.p_success = {0.5, 1.5}\n")


class TestMitigationBlock:
    def test_actions_in_index_order(self):
        scenario = parse_scenario(FULL_DOC)
        assert scenario.mitigation == (
            BackupAdoption(adoption=1.0, effectiveness=0.5),
            CyberInsurance(),
        )

    def test_indices_sort_regardless_of_file_order(self):
        doc = REFERENCE_DOC + (
            "\n[mitigation]\n"
            "action.5 = CyberInsurance()\n"
            "action.2 = DecrypterAvailability(coverage=0.5)\n"
        )
        assert parse_scenario(doc).mitigation == (
            DecrypterAvailability(coverage=0.5),
            CyberInsurance(),
        )

    def test_short_aliases(self):
        doc = REFERENCE_DOC + (
            "\n[mitigation]\n"
            "action.1 = AttackSuccessReduction(r=0.3)\n"
            "action.2 = BackupAdoption(a=0.8, e=0.9)\n"
            "action.3 = DecrypterAvailability(d=0.1)\n"
        )
        assert parse_scenario(doc).mitigation == (
            AttackSuccessReduction(reduction=0.3),
            BackupAdoption(adoption=0.8, effectiveness=0.9),
            DecrypterAvailability(coverage=0.1),
        )

    def test_empty_section_means_empty_portfolio(self):
        assert parse_scenario(REFERENCE_DOC + "\n[mitigation]\n").mitigation == ()

    def test_unknown_kind(self):
        with pytest.raises(ScenarioValidationError, match="unknown action kind"):
            parse_scenario(REFERENCE_DOC + "\n[mitigation]\naction.1 = Firewall(x=1)\n")

    def test_unknown_parameter(self):
        with pytest.raises(UnknownKeyError, match="unknown parameter"):
            parse_scenario(REFERENCE_DOC + "\n[mitigation]\naction.1 = CyberInsurance(r=1)\n")

    def test_missing_parameter(self):
        with pytest.raises(ScenarioValidationError, match="requires"):
            parse_scenario(REFERENCE_DOC + "\n[mitigation]\naction.1 = BackupAdoption(a=1)\n")

    def test_duplicate_parameter_via_alias(self):
        doc = REFERENCE_DOC + "\n[mitigation]\naction.1 = BackupAdoption(a=1, adoption=1, e=1)\n"
        with pytest.raises(DuplicateKeyError, match="duplicate parameter"):
            parse_scenario(doc)

    def test_parameter_out_of_range(self):
        doc = REFERENCE_DOC + "\n[mitigation]\naction.1 = DecrypterAvailability(d=1.5)\n"
        with pytest.raises(ScenarioValidationError, match=r"\[0, 1\]"):
            parse_scenario(doc)

    def test_zero_index(self):
        with pytest.raises(ScenarioValidationError, match="positive integer"):
            parse_scenario(REFERENCE_DOC + "\n[mitigation]\naction.0 = CyberInsurance()\n")

    def test_indices_order_by_value_at_any_length(self):
        doc = REFERENCE_DOC + (
            "\n[mitigation]\n"
            f"action.{'1' + '0' * 4300} = CyberInsurance()\n"
            "action.010 = BackupAdoption(a=1, e=0.5)\n"
            "action.9 = DecrypterAvailability(coverage=0.5)\n"
        )
        assert parse_scenario(doc).mitigation == (
            DecrypterAvailability(coverage=0.5),
            BackupAdoption(adoption=1.0, effectiveness=0.5),
            CyberInsurance(),
        )

    def test_repeated_index_value(self):
        doc = REFERENCE_DOC + "\n[mitigation]\naction.1 = CyberInsurance()\n  action.01 = CyberInsurance()\n"
        with pytest.raises(DuplicateKeyError, match="duplicate action index 1") as info:
            parse_scenario(doc)
        assert (info.value.line, info.value.column) == (11, 3)

    def test_malformed_action(self):
        with pytest.raises(ScenarioSyntaxError, match="Kind"):
            parse_scenario(REFERENCE_DOC + "\n[mitigation]\naction.1 = CyberInsurance\n")


class TestAnnualizationBlock:
    def test_parses(self):
        scenario = parse_scenario(FULL_DOC)
        assert scenario.annualization == AnnualizationInputs(
            attacks_per_year=10, salary_threshold=Money(100000.0)
        )

    def test_both_keys_required(self):
        with pytest.raises(ScenarioValidationError, match="salary_threshold"):
            parse_scenario(REFERENCE_DOC + "\n[annualization]\nattacks_per_year = 10\n")

    def test_negative_rate_rejected(self):
        doc = REFERENCE_DOC + "\n[annualization]\nattacks_per_year = -1\nsalary_threshold = 1\n"
        with pytest.raises(ScenarioValidationError, match="attacks_per_year"):
            parse_scenario(doc)


class TestDefaults:
    MINIMAL = (
        "[economics]\n"
        "ransom = 170404\n"
        "cost.product = 3000\n"
        "cost.access = 400\n"
        "cost.loader = 800\n"
    )

    def test_defaults_fill_missing_probabilities(self):
        scenario = parse_scenario(self.MINIMAL + "\n[defaults]\npaper = true\n")
        assert scenario.economics.p_success.value == 0.54
        assert scenario.economics.p_pay_given_success.value == 0.56
        assert scenario.paper_defaults

    def test_explicit_values_win_over_defaults(self):
        doc = self.MINIMAL + "p_success = 0.9\n\n[defaults]\npaper = true\n"
        scenario = parse_scenario(doc)
        assert scenario.economics.p_success.value == 0.9
        assert scenario.economics.p_pay_given_success.value == 0.56

    def test_defaults_false_keeps_keys_mandatory(self):
        with pytest.raises(ScenarioValidationError, match="p_success"):
            parse_scenario(self.MINIMAL + "\n[defaults]\npaper = false\n")

    def test_no_defaults_section_keeps_keys_mandatory(self):
        with pytest.raises(ScenarioValidationError, match="p_success"):
            parse_scenario(self.MINIMAL)

    def test_defaults_section_may_precede_economics(self):
        scenario = parse_scenario("[defaults]\npaper = true\n\n" + self.MINIMAL)
        assert scenario.economics.p_success.value == 0.54

    def test_bad_boolean(self):
        with pytest.raises(ScenarioValidationError, match="true or false"):
            parse_scenario(self.MINIMAL + "\n[defaults]\npaper = yes\n")


class TestWriteScenario:
    def test_round_trip_reference(self):
        scenario = parse_scenario(REFERENCE_DOC)
        assert parse_scenario(write_scenario(scenario)) == scenario

    def test_round_trip_full(self):
        scenario = parse_scenario(FULL_DOC)
        assert parse_scenario(write_scenario(scenario)) == scenario

    def test_round_trip_with_defaults_flag(self):
        scenario = parse_scenario(TestDefaults.MINIMAL + "\n[defaults]\npaper = true\n")
        again = parse_scenario(write_scenario(scenario))
        assert again == scenario

    @given(
        ransom=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        product=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        access=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        loader=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        p_success=st.floats(min_value=0, max_value=1, allow_nan=False),
        p_pay=st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    def test_round_trip_arbitrary_economics(self, ransom, product, access, loader, p_success, p_pay):
        scenario = ScenarioFile(
            economics=AttackEconomics(
                ransom=Money(ransom),
                cost=CostModel(Money(product), Money(access), Money(loader)),
                p_success=Probability(p_success),
                p_pay_given_success=Probability(p_pay),
            )
        )
        assert parse_scenario(write_scenario(scenario)) == scenario


OVERFLOW = "1" + "0" * 400  # a valid decimal literal that converts to inf


def _economics_with(old: str, new: str) -> str:
    return REFERENCE_DOC.replace(old, new)


def _plus(section: str) -> str:
    return REFERENCE_DOC + "\n" + section


RANGE_ERRORS = [
    ("p_success", _economics_with("p_success = 0.54", "p_success = 1.5"), 6, 13),
    ("cost.product", _economics_with("cost.product = 3000", "cost.product = -1"), 3, 16),
    ("axis.ransom", _plus("[sweep]\naxis.ransom = {1, -2}\n"), 10, 15),
    ("action.1", _plus("[mitigation]\naction.1 = AttackSuccessReduction(r=2)\n"), 10, 12),
    ("seed", _plus(f"[simulation]\nseed = {2**64}\n"), 10, 8),
    ("trials", _plus("[simulation]\ntrials = 0\n"), 10, 10),
    (
        "attacks_per_year",
        _plus("[annualization]\nattacks_per_year = -1\nsalary_threshold = 1\n"),
        10,
        20,
    ),
    ("ransom", _economics_with("ransom = 170404", f"ransom = {OVERFLOW}"), 2, 10),
    ("cost.access", _economics_with("cost.access = 400", f"cost.access = {OVERFLOW}"), 4, 15),
    ("b0", _plus(f"[simulation]\nb0 = {OVERFLOW}\n"), 10, 6),
    (
        "salary_threshold",
        _plus(f"[annualization]\nattacks_per_year = 1\nsalary_threshold = {OVERFLOW}\n"),
        11,
        20,
    ),
    ("axis.cost_total", _plus(f"[sweep]\naxis.cost_total = {{1, {OVERFLOW}}}\n"), 10, 19),
]


class TestDomainRangeErrors:
    """Range rules live in the domain types; the parser reports them in place."""

    @pytest.mark.parametrize(
        "key,doc,line,column", RANGE_ERRORS, ids=[case[0] for case in RANGE_ERRORS]
    )
    def test_range_error_position(self, key, doc, line, column):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert type(info.value) is ScenarioValidationError
        assert (info.value.line, info.value.column) == (line, column)
        assert info.value.message.startswith(f"{key}: ")

    def test_range_ends_on_exact_stop(self):
        values = parse_scenario(_plus("[sweep]\naxis.p_success = 0.09:1:0.07\n")).sweep_axes[0][1]
        assert len(values) == 14
        assert values[-1] == 1.0

    def test_grid_cap_checked_before_expansion(self):
        doc = _plus("[sweep]\naxis.ransom = 0:9999:1\naxis.cost_total = 0:9999:1\n")
        with pytest.raises(ScenarioValidationError, match="cells") as info:
            parse_scenario(doc)
        assert (info.value.line, info.value.column) == (11, 19)
