"""Seeded workload generator.

Every invocation the benchmark runs is derived from (workload, seed,
index) alone, through `random.Random` seeded with a string, so the same
seed yields byte-identical scenario files on every platform. The
program receives nothing but the generated scenario text and the
command-line arguments built here.

Workloads:

- sweep_grid: `ransomecon sweep` on 4-axis grids. Half of the ransom
  values are exact binary cent ties (k + 0.125 or k + 0.375) and a
  quarter of the probability values are odd multiples of 1/128, which
  are ties at six decimals, so an exact formatter pays its fallback.
- trace_campaign: `ransomecon simulate` with a generated seed, win
  probability and nonzero starting bank. Integer ransom and cost plus
  a bank with cents give values that are essentially never ties.
- report_batch: a fixed cycle of short commands on small scenarios, so
  every seed sees the same command mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal

WORKLOADS = ("sweep_grid", "trace_campaign", "report_batch")
DEFAULT_SEED = 20211

# Grid shape of every sweep_grid scenario, in declared axis order, and
# how many values of each axis are exact ties.
SWEEP_SHAPE = (
    ("ransom", 10, 5),
    ("cost_total", 10, 0),
    ("p_success", 20, 5),
    ("p_pay_given_success", 20, 5),
)
SWEEP_CELLS = 10 * 10 * 20 * 20
TRACE_TRIALS = 250_000
FIGURE1_TRIALS = 1000

# One report_batch cycle: (command, variant). Whole cycles are run, so
# the mix does not depend on where the time budget runs out.
REPORT_CYCLE = (
    ("ev", None),
    ("breakeven", "ransom"),
    ("breakeven", "probability"),
    ("breakeven", "cost"),
    ("breakeven", "infeasible"),
    ("mitigate", "plain"),
    ("mitigate", "annual"),
    ("figure1", None),
)

ACTION_KINDS = ("AttackSuccessReduction", "DecrypterAvailability", "BackupAdoption", "CyberInsurance")


@dataclass(frozen=True)
class Economics:
    """Economics literals exactly as written into the scenario file."""

    ransom: str
    product: str
    access: str
    loader: str
    p_success: str | None  # None: omitted, filled by [defaults] paper = true
    p_pay: str | None


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: its scenario text, arguments and the model the
    reference needs to predict its output."""

    command: str
    scenario: str | None
    extra_args: tuple[str, ...] = ()
    econ: Economics | None = None
    writes_csv: bool = False
    expect_exit: int = 0
    model: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _money(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi)}.{rng.randint(0, 99):02d}"


def _cent_tie(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi)}.{rng.choice(('125', '375'))}"


def _prob(rng: random.Random, lo: int = 1, hi: int = 999_999) -> str:
    return f"0.{rng.randint(lo, hi):06d}"


def _prob_tie(rng: random.Random) -> str:
    return str(Decimal(2 * rng.randint(0, 63) + 1) / 128)


def _economics_section(econ: Economics) -> list[str]:
    lines = [
        "[economics]",
        f"ransom = {econ.ransom}",
        f"cost.product = {econ.product}",
        f"cost.access = {econ.access}",
        f"cost.loader = {econ.loader}",
    ]
    if econ.p_success is not None:
        lines.append(f"p_success = {econ.p_success}")
    if econ.p_pay is not None:
        lines.append(f"p_pay_given_success = {econ.p_pay}")
    return lines


def _render(sections: list[list[str]]) -> str:
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def _axis(rng: random.Random, name: str, count: int, ties: int) -> list[str]:
    if name == "ransom":
        values = [_cent_tie(rng, 10_000, 500_000) for _ in range(ties)]
        values += [_money(rng, 10_000, 500_000) for _ in range(count - ties)]
    elif name == "cost_total":
        values = [_money(rng, 500, 60_000) for _ in range(count)]
    else:
        values = [_prob_tie(rng) for _ in range(ties)]
        values += [_prob(rng) for _ in range(count - ties)]
    rng.shuffle(values)
    return values


def sweep_invocation(seed: int, index: int) -> Invocation:
    rng = _rng("sweep_grid", seed, index)
    econ = Economics(
        ransom=_money(rng, 50_000, 300_000),
        product=_money(rng, 500, 5000),
        access=_money(rng, 100, 2000),
        loader=_money(rng, 100, 2000),
        p_success=_prob(rng, 100_000),
        p_pay=_prob(rng, 100_000),
    )
    axes = [(name, _axis(rng, name, count, ties)) for name, count, ties in SWEEP_SHAPE]
    sweep = ["[sweep]"] + [f"axis.{name} = {{{', '.join(values)}}}" for name, values in axes]
    return Invocation(
        command="sweep",
        scenario=_render([_economics_section(econ), sweep]),
        econ=econ,
        writes_csv=True,
        model={"axes": axes},
    )


def trace_invocation(seed: int, index: int) -> Invocation:
    rng = _rng("trace_campaign", seed, index)
    # Narrow ranges keep the bank's digit count, hence the CSV's size and
    # the peak memory, the same from seed to seed.
    econ = Economics(
        ransom=str(rng.randint(150_000, 200_000)),
        product=str(rng.randint(3000, 5000)),
        access=str(rng.randint(300, 800)),
        loader=str(rng.randint(500, 1000)),
        p_success=f"0.{rng.randint(50, 60)}",
        p_pay=f"0.{rng.randint(50, 60)}",
    )
    sim_seed = rng.getrandbits(64)
    b0 = f"{rng.choice(('', '-'))}{rng.randint(1, 50_000)}.{rng.randint(1, 99):02d}"
    simulation = ["[simulation]", f"trials = {TRACE_TRIALS}", f"seed = {sim_seed}", f"b0 = {b0}"]
    return Invocation(
        command="simulate",
        scenario=_render([_economics_section(econ), simulation]),
        econ=econ,
        writes_csv=True,
        model={"trials": TRACE_TRIALS, "seed": sim_seed, "b0": b0},
    )


def _small_economics(rng: random.Random, paper: bool = False) -> Economics:
    return Economics(
        ransom=_money(rng, 50_000, 400_000),
        product=_money(rng, 1000, 5000),
        access=_money(rng, 100, 2000),
        loader=_money(rng, 100, 2000),
        p_success=None if paper else f"0.{rng.randint(30, 99)}",
        p_pay=None if paper else f"0.{rng.randint(10, 99)}",
    )


def _action(rng: random.Random) -> tuple[str, dict[str, str]]:
    kind = rng.choice(ACTION_KINDS)
    def p() -> str:
        return f"0.{rng.randint(0, 99):02d}"
    if kind == "AttackSuccessReduction":
        return kind, {"reduction": p()}
    if kind == "DecrypterAvailability":
        return kind, {"coverage": p()}
    if kind == "BackupAdoption":
        return kind, {"adoption": p(), "effectiveness": p()}
    return kind, {}


def report_invocation(seed: int, index: int) -> Invocation:
    rng = _rng("report_batch", seed, index)
    command, variant = REPORT_CYCLE[index % len(REPORT_CYCLE)]
    if command == "figure1":
        seeds = [rng.getrandbits(64) for _ in range(3)]
        spelled = [hex(s) if i == 1 else str(s) for i, s in enumerate(seeds)]
        return Invocation(
            command="figure1",
            scenario=None,
            extra_args=("--seeds", ",".join(spelled)),
            writes_csv=True,
            model={"seeds": seeds},
        )
    if command == "mitigate":
        annual = variant == "annual"
        econ = _small_economics(rng, paper=annual)
        actions = [_action(rng) for _ in range(rng.randint(0, 4))]
        mitigation = ["[mitigation]"] + [
            f"action.{i} = {kind}({', '.join(f'{k}={v}' for k, v in params.items())})"
            for i, (kind, params) in enumerate(actions, start=1)
        ]
        sections = [_economics_section(econ), mitigation]
        model: dict = {"actions": actions}
        if annual:
            attacks = rng.randint(1, 60)
            salary = _money(rng, 20_000, 2_000_000)
            sections.append(
                ["[annualization]", f"attacks_per_year = {attacks}", f"salary_threshold = {salary}"]
            )
            sections.append(["[defaults]", "paper = true"])
            model["annual"] = (attacks, salary)
        return Invocation(command="mitigate", scenario=_render(sections), econ=econ, model=model)
    if variant == "infeasible":
        # Certain payment still earns less than the cost: no rate breaks even.
        econ = Economics(
            ransom=_money(rng, 1000, 5000),
            product=_money(rng, 6000, 9000),
            access=_money(rng, 100, 2000),
            loader=_money(rng, 100, 2000),
            p_success=f"0.{rng.randint(30, 99)}",
            p_pay=f"0.{rng.randint(10, 99)}",
        )
        return Invocation(
            command="breakeven",
            scenario=_render([_economics_section(econ)]),
            extra_args=("--solve", "probability"),
            econ=econ,
            expect_exit=3,
        )
    econ = _small_economics(rng)
    extra = ("--solve", variant) if command == "breakeven" else ()
    return Invocation(
        command=command, scenario=_render([_economics_section(econ)]), extra_args=extra, econ=econ
    )


_GENERATORS = {
    "sweep_grid": sweep_invocation,
    "trace_campaign": trace_invocation,
    "report_batch": report_invocation,
}


def invocation(workload: str, seed: int, index: int) -> Invocation:
    """The index-th invocation of a workload at a seed."""
    return _GENERATORS[workload](seed, index)


def batch_size(workload: str) -> int:
    """Invocations that run as one unit: a whole command cycle for report_batch."""
    return len(REPORT_CYCLE) if workload == "report_batch" else 1
