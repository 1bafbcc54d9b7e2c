"""Strict line-oriented scenario grammar: parser and writer.

A scenario document is made of sections, `key = value` entries, blank
lines, and comments (`#` starts a comment anywhere on a line):

    [economics]
    ransom = 170404
    cost.product = 3000
    cost.access = 400
    cost.loader = 800
    p_success = 0.54
    p_pay_given_success = 0.56

    [simulation]
    trials = 1000
    seed = 14598366
    b0 = 0

    [sweep]
    axis.p_pay_given_success = {0.56, 0.28}
    axis.ransom = 100000:300000:50000

    [mitigation]
    action.1 = BackupAdoption(adoption=1, effectiveness=0.5)
    action.2 = CyberInsurance()

    [annualization]
    attacks_per_year = 10
    salary_threshold = 100000

    [defaults]
    paper = true

Numbers are plain decimals with an optional fraction (no exponents, no
locale separators); integer-valued keys take bare integers. Sweep axes
take either an explicit value list `{v1, v2, ...}` or an inclusive
range `start:stop:step` with a positive step, whose values are
`start + i*step` computed exactly in decimal and then rounded to
binary64. The product of the axis lengths is held to the sweep cell
cap before any range is expanded. Mitigation actions are
`Kind(param=value, ...)` with kinds AttackSuccessReduction(reduction),
DecrypterAvailability(coverage), BackupAdoption(adoption,
effectiveness), and CyberInsurance(); single-letter aliases r, d, a, e
are accepted. Action indices order the portfolio and must be unique
positive integers; gaps are allowed.

`paper = true` in [defaults] fills in the bundled 2021 survey-estimate
rates (p_success 0.54, p_pay_given_success 0.56) when those two keys
are omitted. They are opt-in because they are dated survey numbers,
not constants; every other economics key is always required.

Parsing is strict: unknown sections or keys, duplicates, and malformed
or out-of-range values are errors, and every error carries a 1-based
line and column. The parser checks only the grammar; each value is
then built by the type that owns its range rule, and a ValueError from
that type is reported at the entry's value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import MAX_PREC, Context, Decimal
from typing import Callable, Iterable, Optional, TypeVar

from .breakeven import DEFAULT_CELL_CAP, SWEEPABLE_PARAMETERS, SweepGrid
from .economics import (
    AttackEconomics,
    CostModel,
    Money,
    Probability,
    check_seed,
    check_trials,
    nonnegative,
)
from .errors import (
    DuplicateKeyError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownKeyError,
)
from .mitigation import (
    AnnualizationInputs,
    AttackSuccessReduction,
    BackupAdoption,
    CyberInsurance,
    DecrypterAvailability,
    MitigationAction,
)

DEFAULT_P_SUCCESS = 0.54
DEFAULT_P_PAY_GIVEN_SUCCESS = 0.56

_SECTION_RE = re.compile(r"\[([^\[\]]*)\]\Z")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?\Z")
_SIGNED_INT_RE = re.compile(r"-?\d+\Z")
_ACTION_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\((.*)\)\Z")

_EXACT = Context(prec=MAX_PREC)  # decimal arithmetic that never rounds

_SECTIONS = ("economics", "simulation", "sweep", "mitigation", "annualization", "defaults")
_ECONOMICS_KEYS = (
    "ransom",
    "cost.product",
    "cost.access",
    "cost.loader",
    "p_success",
    "p_pay_given_success",
)
_ANNUALIZATION_KEYS = ("attacks_per_year", "salary_threshold")
# the keys of each section with a fixed key set; [sweep] and [mitigation] keys follow patterns
_FIXED_KEYS = {
    "economics": _ECONOMICS_KEYS,
    "simulation": ("trials", "seed", "b0"),
    "annualization": _ANNUALIZATION_KEYS,
    "defaults": ("paper",),
}

# kind -> (alias -> canonical), required canonical params, action type
_ACTION_KINDS = {
    "AttackSuccessReduction": (
        {"r": "reduction", "reduction": "reduction"},
        ("reduction",),
        AttackSuccessReduction,
    ),
    "DecrypterAvailability": (
        {"d": "coverage", "coverage": "coverage"},
        ("coverage",),
        DecrypterAvailability,
    ),
    "BackupAdoption": (
        {"a": "adoption", "adoption": "adoption", "e": "effectiveness", "effectiveness": "effectiveness"},
        ("adoption", "effectiveness"),
        BackupAdoption,
    ),
    "CyberInsurance": ({}, (), CyberInsurance),
}


@dataclass(frozen=True)
class SimulationSpec:
    """Raw [simulation] block; unset keys stay None for callers to default."""

    trials: Optional[int] = None
    seed: Optional[int] = None
    b0: Optional[Money] = None


@dataclass(frozen=True)
class ScenarioFile:
    """A fully validated scenario document."""

    economics: AttackEconomics
    simulation: Optional[SimulationSpec] = None
    sweep_axes: Optional[tuple[tuple[str, tuple[float, ...]], ...]] = None
    mitigation: Optional[tuple[MitigationAction, ...]] = None
    annualization: Optional[AnnualizationInputs] = None
    paper_defaults: bool = False


@dataclass(frozen=True)
class _Entry:
    value: str
    line: int
    key_column: int
    value_column: int


_T = TypeVar("_T")


def _owned(key: str, entry: _Entry, build: Callable[[], _T]) -> _T:
    """Run build(), which makes the entry's value through the type that owns
    its range rule; a ValueError from it is reported at the entry's value."""
    try:
        return build()
    except ValueError as exc:
        raise ScenarioValidationError(entry.line, entry.value_column, f"{key}: {exc}") from None


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document.

    Raises ScenarioSyntaxError, ScenarioValidationError,
    DuplicateKeyError, or UnknownKeyError, each carrying the offending
    line and column.
    """
    sections, section_lines = _scan(text)
    paper_defaults = _build_defaults(sections)
    economics = _build_economics(sections, section_lines, paper_defaults)
    simulation = _build_simulation(sections) if "simulation" in sections else None
    sweep_axes = _build_sweep(sections, economics) if "sweep" in sections else None
    mitigation = _build_mitigation(sections) if "mitigation" in sections else None
    annualization = (
        _build_annualization(sections, section_lines) if "annualization" in sections else None
    )
    return ScenarioFile(
        economics=economics,
        simulation=simulation,
        sweep_axes=sweep_axes,
        mitigation=mitigation,
        annualization=annualization,
        paper_defaults=paper_defaults,
    )


def _scan(text: str) -> tuple[dict[str, dict[str, _Entry]], dict[str, int]]:
    sections: dict[str, dict[str, _Entry]] = {}
    section_lines: dict[str, int] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        column = len(code) - len(code.lstrip()) + 1
        if stripped.startswith("["):
            match = _SECTION_RE.match(stripped)
            if match is None:
                raise ScenarioSyntaxError(lineno, column, "malformed section header")
            name = match.group(1)
            if name not in _SECTIONS:
                raise UnknownKeyError(lineno, column, f"unknown section [{name}]")
            if name in sections:
                raise DuplicateKeyError(lineno, column, f"duplicate section [{name}]")
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in code:
            raise ScenarioSyntaxError(
                lineno, column, "expected 'key = value' or a [section] header"
            )
        if current is None:
            raise ScenarioSyntaxError(lineno, column, "entry before any [section] header")
        key_part, value_part = code.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise ScenarioSyntaxError(lineno, column, "missing key before '='")
        key_column = code.index(key) + 1
        value_column = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        if _KEY_RE.match(key) is None:
            raise ScenarioSyntaxError(lineno, key_column, f"invalid key {key!r}")
        if not value:
            raise ScenarioSyntaxError(lineno, value_column, f"missing value for {key!r}")
        _check_key_allowed(current, key, lineno, key_column)
        if key in sections[current]:
            raise DuplicateKeyError(
                lineno, key_column, f"duplicate key {key!r} in [{current}]"
            )
        sections[current][key] = _Entry(value, lineno, key_column, value_column)
    return sections, section_lines


def _check_key_allowed(section: str, key: str, lineno: int, column: int) -> None:
    if section == "sweep":
        if not key.startswith("axis."):
            raise UnknownKeyError(
                lineno, column, f"unknown key {key!r} in [sweep]; expected axis.<parameter>"
            )
        target = key[len("axis."):]
        if target not in SWEEPABLE_PARAMETERS:
            raise UnknownKeyError(
                lineno,
                column,
                f"unknown sweep axis {target!r}; "
                f"expected one of {', '.join(SWEEPABLE_PARAMETERS)}",
            )
    elif section == "mitigation":
        if not key.startswith("action."):
            raise UnknownKeyError(
                lineno, column, f"unknown key {key!r} in [mitigation]; expected action.<index>"
            )
        index = key[len("action."):]
        if not index.isdigit() or not index.lstrip("0"):
            raise ScenarioValidationError(
                lineno, column, f"{key}: action index must be a positive integer"
            )
    elif key not in _FIXED_KEYS[section]:
        raise UnknownKeyError(lineno, column, f"unknown key {key!r} in [{section}]")


def _parse_number(key: str, entry: _Entry) -> float:
    if _NUMBER_RE.match(entry.value) is None:
        raise ScenarioSyntaxError(
            entry.line, entry.value_column, f"{key}: expected a decimal number, got {entry.value!r}"
        )
    return float(entry.value)


def _parse_int(key: str, entry: _Entry) -> int:
    if _SIGNED_INT_RE.match(entry.value) is None:
        if _NUMBER_RE.match(entry.value) is not None:
            raise ScenarioValidationError(
                entry.line, entry.value_column, f"{key} must be a whole number"
            )
        raise ScenarioSyntaxError(
            entry.line, entry.value_column, f"{key}: expected an integer, got {entry.value!r}"
        )
    return int(entry.value)


def _money(key: str, entry: _Entry) -> Money:
    return _owned(key, entry, lambda: Money(nonnegative(key, _parse_number(key, entry))))


def _parse_bool(key: str, entry: _Entry) -> bool:
    if entry.value not in ("true", "false"):
        raise ScenarioValidationError(
            entry.line, entry.value_column, f"{key}: expected true or false, got {entry.value!r}"
        )
    return entry.value == "true"


def _build_defaults(sections: dict[str, dict[str, _Entry]]) -> bool:
    entries = sections.get("defaults", {})
    if "paper" in entries:
        return _parse_bool("paper", entries["paper"])
    return False


def _build_economics(
    sections: dict[str, dict[str, _Entry]],
    section_lines: dict[str, int],
    paper_defaults: bool,
) -> AttackEconomics:
    if "economics" not in sections:
        raise ScenarioValidationError(1, 1, "missing required section [economics]")
    entries = sections["economics"]
    section_line = section_lines["economics"]

    def need(key: str) -> _Entry:
        if key not in entries:
            raise ScenarioValidationError(
                section_line, 1, f"missing required key {key!r} in [economics]"
            )
        return entries[key]

    def probability(key: str, default: float) -> Probability:
        if key not in entries and paper_defaults:
            return Probability(default)
        entry = need(key)
        return _owned(key, entry, lambda: Probability(_parse_number(key, entry)))

    return AttackEconomics(
        ransom=_money("ransom", need("ransom")),
        cost=CostModel(
            _money("cost.product", need("cost.product")),
            _money("cost.access", need("cost.access")),
            _money("cost.loader", need("cost.loader")),
        ),
        p_success=probability("p_success", DEFAULT_P_SUCCESS),
        p_pay_given_success=probability("p_pay_given_success", DEFAULT_P_PAY_GIVEN_SUCCESS),
    )


def _build_simulation(sections: dict[str, dict[str, _Entry]]) -> SimulationSpec:
    entries = sections["simulation"]

    def owned(key: str, build: Callable[[_Entry], _T]) -> Optional[_T]:
        entry = entries.get(key)
        return None if entry is None else _owned(key, entry, lambda: build(entry))

    return SimulationSpec(
        trials=owned("trials", lambda e: check_trials(_parse_int("trials", e))),
        seed=owned("seed", lambda e: check_seed(_parse_int("seed", e))),
        b0=owned("b0", lambda e: Money(_parse_number("b0", e))),
    )


def _parse_decimals(key: str, entry: _Entry, parts: list[str], form: str) -> list[Decimal]:
    numbers = []
    for part in parts:
        part = part.strip()
        if _NUMBER_RE.match(part) is None:
            raise ScenarioSyntaxError(
                entry.line,
                entry.value_column,
                f"{key}: expected a decimal number in {form}, got {part!r}",
            )
        numbers.append(Decimal(part))
    return numbers


def _parse_axis_values(key: str, entry: _Entry) -> tuple[int, Iterable[float]]:
    """The axis's value count and its values; a range is expanded lazily."""
    value = entry.value
    if value.startswith("{"):
        if not value.endswith("}"):
            raise ScenarioSyntaxError(
                entry.line, entry.value_column, f"{key}: unterminated value list"
            )
        inner = value[1:-1].strip()
        if not inner:
            raise ScenarioValidationError(
                entry.line, entry.value_column, f"{key}: axis needs at least one value"
            )
        values = [float(d) for d in _parse_decimals(key, entry, inner.split(","), "list")]
        return len(values), values
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ScenarioSyntaxError(
                entry.line, entry.value_column, f"{key}: range must be start:stop:step"
            )
        start, stop, step = _parse_decimals(key, entry, parts, "range")
        if step <= 0:
            raise ScenarioValidationError(
                entry.line, entry.value_column, f"{key}: range step must be > 0"
            )
        if start > stop:
            raise ScenarioValidationError(
                entry.line, entry.value_column, f"{key}: range start must be <= stop"
            )
        count = int(_EXACT.divide_int(_EXACT.subtract(stop, start), step)) + 1
        return count, (float(_EXACT.fma(i, step, start)) for i in range(count))
    raise ScenarioSyntaxError(
        entry.line,
        entry.value_column,
        f"{key}: expected {{v1, v2, ...}} or start:stop:step, got {value!r}",
    )


def _build_sweep(
    sections: dict[str, dict[str, _Entry]], base: AttackEconomics
) -> tuple[tuple[str, tuple[float, ...]], ...]:
    axes = []
    cells = 1
    for key, entry in sections["sweep"].items():
        target = key[len("axis."):]
        count, values = _parse_axis_values(key, entry)
        cells *= count
        if cells > DEFAULT_CELL_CAP:
            raise ScenarioValidationError(
                entry.line,
                entry.value_column,
                f"{key}: sweep grid exceeds the cap of {DEFAULT_CELL_CAP} cells",
            )
        grid = _owned(key, entry, lambda: SweepGrid(((target, tuple(values)),), base))
        axes.append(grid.axes[0])
    return tuple(axes)


def _parse_action(key: str, entry: _Entry) -> MitigationAction:
    match = _ACTION_RE.match(entry.value)
    if match is None:
        raise ScenarioSyntaxError(
            entry.line, entry.value_column, f"{key}: expected Kind(param=value, ...)"
        )
    kind, arg_text = match.group(1), match.group(2).strip()
    if kind not in _ACTION_KINDS:
        raise ScenarioValidationError(
            entry.line,
            entry.value_column,
            f"{key}: unknown action kind {kind!r}; expected one of {', '.join(_ACTION_KINDS)}",
        )
    aliases, required, action_type = _ACTION_KINDS[kind]
    params: dict[str, float] = {}
    if arg_text:
        for part in arg_text.split(","):
            part = part.strip()
            if "=" not in part:
                raise ScenarioSyntaxError(
                    entry.line,
                    entry.value_column,
                    f"{key}: action parameters must be name=value, got {part!r}",
                )
            name, value = (s.strip() for s in part.split("=", 1))
            if name not in aliases:
                raise UnknownKeyError(
                    entry.line,
                    entry.value_column,
                    f"{key}: unknown parameter {name!r} for {kind}",
                )
            canonical = aliases[name]
            if canonical in params:
                raise DuplicateKeyError(
                    entry.line,
                    entry.value_column,
                    f"{key}: duplicate parameter {canonical!r} for {kind}",
                )
            if _NUMBER_RE.match(value) is None:
                raise ScenarioSyntaxError(
                    entry.line,
                    entry.value_column,
                    f"{key}: expected a decimal number for {name!r}, got {value!r}",
                )
            params[canonical] = float(value)
    missing = [name for name in required if name not in params]
    if missing:
        raise ScenarioValidationError(
            entry.line,
            entry.value_column,
            f"{key}: {kind} requires {', '.join(missing)}",
        )
    return _owned(key, entry, lambda: action_type(**params))


def _build_mitigation(
    sections: dict[str, dict[str, _Entry]]
) -> tuple[MitigationAction, ...]:
    # digit text without leading zeros orders indices of any length by value, with no int()
    indexed: dict[str, MitigationAction] = {}
    for key, entry in sections["mitigation"].items():
        index = key[len("action."):].lstrip("0")
        if index in indexed:
            raise DuplicateKeyError(
                entry.line, entry.key_column, f"duplicate action index {index} in {key!r}"
            )
        indexed[index] = _parse_action(key, entry)
    return tuple(indexed[index] for index in sorted(indexed, key=lambda i: (len(i), i)))


def _build_annualization(
    sections: dict[str, dict[str, _Entry]], section_lines: dict[str, int]
) -> AnnualizationInputs:
    entries = sections["annualization"]
    section_line = section_lines["annualization"]
    for key in _ANNUALIZATION_KEYS:
        if key not in entries:
            raise ScenarioValidationError(
                section_line, 1, f"missing required key {key!r} in [annualization]"
            )
    entry = entries["attacks_per_year"]
    attacks = _owned("attacks_per_year", entry, lambda: _parse_int("attacks_per_year", entry))
    salary = _money("salary_threshold", entries["salary_threshold"])
    return _owned("attacks_per_year", entry, lambda: AnnualizationInputs(attacks, salary))


def _format_number(x: float) -> str:
    x = float(x)
    if x == int(x) and abs(x) <= 1e15:
        return str(int(x))
    return format(Decimal(repr(x)), "f")


def _action_text(action: MitigationAction) -> str:
    for kind, (_, params, action_type) in _ACTION_KINDS.items():
        if isinstance(action, action_type):
            args = ", ".join(f"{p}={_format_number(getattr(action, p))}" for p in params)
            return f"{kind}({args})"
    raise TypeError(f"not a mitigation action: {action!r}")


def write_scenario(scenario: ScenarioFile) -> str:
    """Render a ScenarioFile back to the grammar.

    Parsing the output yields a structurally equal ScenarioFile; range
    axes come back as explicit value lists and defaults as explicit
    probabilities, which preserves structure even where the original
    spelling differed.
    """
    econ = scenario.economics
    lines = [
        "[economics]",
        f"ransom = {_format_number(econ.ransom.amount)}",
        f"cost.product = {_format_number(econ.cost.product.amount)}",
        f"cost.access = {_format_number(econ.cost.initial_access.amount)}",
        f"cost.loader = {_format_number(econ.cost.loader.amount)}",
        f"p_success = {_format_number(econ.p_success.value)}",
        f"p_pay_given_success = {_format_number(econ.p_pay_given_success.value)}",
    ]
    if scenario.simulation is not None:
        lines += ["", "[simulation]"]
        sim = scenario.simulation
        if sim.trials is not None:
            lines.append(f"trials = {sim.trials}")
        if sim.seed is not None:
            lines.append(f"seed = {sim.seed}")
        if sim.b0 is not None:
            lines.append(f"b0 = {_format_number(sim.b0.amount)}")
    if scenario.sweep_axes is not None:
        lines += ["", "[sweep]"]
        for name, values in scenario.sweep_axes:
            rendered = ", ".join(_format_number(v) for v in values)
            lines.append(f"axis.{name} = {{{rendered}}}")
    if scenario.mitigation is not None:
        lines += ["", "[mitigation]"]
        for i, action in enumerate(scenario.mitigation, start=1):
            lines.append(f"action.{i} = {_action_text(action)}")
    if scenario.annualization is not None:
        lines += ["", "[annualization]"]
        lines.append(f"attacks_per_year = {scenario.annualization.attacks_per_year}")
        lines.append(
            f"salary_threshold = {_format_number(scenario.annualization.salary_threshold.amount)}"
        )
    if scenario.paper_defaults:
        lines += ["", "[defaults]", "paper = true"]
    return "\n".join(lines) + "\n"
