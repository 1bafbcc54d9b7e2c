"""In-memory spans, self times, and a mirror of `cli.py` that records them.

The traced run (mirror.py, in a fresh interpreter per invocation) calls
each module's public functions in the same order as the CLI command
does, with a span around each call into a layer. Spans stay in memory
until the invocation ends. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import io
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# Layer span name -> ROADMAP phase. cli.main's self time is the CLI's own
# work: argument parsing and dispatch.
PHASES = {
    "cli.main": "other",
    "cli.read": "parse",
    "scenario.parse": "parse",
    "breakeven.run_sweep": "compute",
    "breakeven.solve": "compute",
    "economics.expected_utility": "compute",
    "mitigation.evaluate": "compute",
    "simulate.run_trials": "compute",
    "simulate.summarize": "compute",
    "output.write_sweep_csv": "format",
    "output.write_trace_csv": "format",
    "output.format_summary": "format",
    "cli.write": "write",
}
HEAP_LAYERS = ("breakeven", "simulate", "output")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None for a root
    invocation: int
    heap_peak: int = 0  # bytes above the level at entry; heap-measuring runs only


class Tracer:
    """Records spans; with heap=True also each layer call's tracemalloc peak.

    `overhead` sums the time spent in the tracer's own bookkeeping, which
    is what tracing adds to the traced run.
    """

    def __init__(self, heap: bool = False):
        self.spans: list[Span] = []
        self.heap = heap
        self._stack: list[int] = []
        self.invocation = 0
        self.overhead = 0.0

    @contextmanager
    def span(self, name: str):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        measure_heap = self.heap and parent is not None
        if measure_heap:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span = Span(name, 0.0, 0.0, parent, self.invocation)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if measure_heap:
                span.heap_peak = tracemalloc.get_traced_memory()[1] - base
            self.overhead += (span.start - entered) + (time.perf_counter() - span.end)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


class Pipeline:
    """In-process mirror of the CLI commands, using the package's public API."""

    def __init__(self):
        from ransomecon import breakeven, economics, mitigation, output, scenario, simulate
        from ransomecon.cli import build_parser
        from ransomecon.errors import NotAchievableError

        self.build_parser = build_parser

        self.infeasible = NotAchievableError
        self.breakeven = breakeven
        self.economics = economics
        self.mitigation = mitigation
        self.output = output
        self.scenario = scenario
        self.simulate = simulate

    def run(self, tracer, argv: list[str]) -> tuple[int, str]:
        """Run one command line (without the program name) through the
        CLI's own argument parser; returns (exit code, stdout text)."""
        stdout = io.StringIO()
        with tracer.span("cli.main"):
            args = self.build_parser().parse_args(argv)
            try:
                return getattr(self, "_" + args.command)(tracer, args, stdout), stdout.getvalue()
            except self.infeasible:
                return 3, stdout.getvalue()

    def _read(self, tracer, path: Path):
        with tracer.span("cli.read"):
            text = path.read_text(encoding="utf-8")
        with tracer.span("scenario.parse"):
            return self.scenario.parse_scenario(text)

    @staticmethod
    def _write(tracer, text: str, path: Path) -> None:
        with tracer.span("cli.write"):
            path.write_text(text, encoding="utf-8", newline="")

    def _ev(self, tracer, args, stdout) -> int:
        econ = self._read(tracer, args.scenario).economics
        with tracer.span("economics.expected_utility"):
            ev = self.economics.expected_utility(econ)
        with tracer.span("breakeven.solve"):
            cost = econ.cost.total()
            p_win = self.economics.Probability(econ.p_win)
            ransom_star = self.breakeven.break_even_ransom(cost, p_win)
            multiple = self.breakeven.payout_multiple(econ.ransom, cost, p_win)
        with tracer.span("output.format_summary"):
            fmt = self.output
            print(f"p_win = {fmt.format_probability(econ.p_win)}", file=stdout)
            print(f"expected_value = {fmt.format_money(ev.amount)}", file=stdout)
            print(f"break_even_ransom = {fmt.format_money(ransom_star.amount)}", file=stdout)
            print(f"payout_multiple = {fmt.format_ratio(multiple)}", file=stdout)
        return 0

    def _breakeven(self, tracer, args, stdout) -> int:
        econ = self._read(tracer, args.scenario).economics
        solve = args.solve
        with tracer.span("breakeven.solve"):
            if solve == "ransom":
                value = self.breakeven.break_even_ransom(
                    econ.cost.total(), self.economics.Probability(econ.p_win)
                ).amount
            elif solve == "probability":
                value = self.breakeven.break_even_pay_probability(
                    econ.cost.total(), econ.ransom, econ.p_success
                ).value
            else:
                value = self.breakeven.break_even_cost(econ).amount
        with tracer.span("output.format_summary"):
            fmt = self.output.format_probability if solve == "probability" else self.output.format_money
            print(fmt(value), file=stdout)
        return 0

    def _mitigate(self, tracer, args, stdout) -> int:
        scenario = self._read(tracer, args.scenario)
        with tracer.span("mitigation.evaluate"):
            report = self.mitigation.evaluate(
                scenario.economics, scenario.mitigation, annual=scenario.annualization
            )
        with tracer.span("output.format_summary"):
            money, prob = self.output.format_money, self.output.format_probability
            print(f"baseline_p_win = {prob(report.baseline.p_win)}", file=stdout)
            print(f"baseline_ev = {money(report.baseline_ev.amount)}", file=stdout)
            print(f"transformed_p_win = {prob(report.transformed.p_win)}", file=stdout)
            print(f"transformed_ev = {money(report.transformed_ev.amount)}", file=stdout)
            print(f"ev_reduction = {money(report.ev_reduction.amount)}", file=stdout)
            print(f"still_profitable = {'true' if report.still_profitable else 'false'}", file=stdout)
            if report.annualized is not None:
                a = report.annualized
                print(f"attacks_per_year = {a.attacks_per_year}", file=stdout)
                print(f"annual_ev = {money(a.annual_ev.amount)}", file=stdout)
                print(f"salary_threshold = {money(a.salary_threshold.amount)}", file=stdout)
                print(f"substitutable = {'true' if a.substitutable else 'false'}", file=stdout)
        return 0

    def _print_trace_summary(self, summary, stdout) -> None:
        money, prob = self.output.format_money, self.output.format_probability
        print(f"trials = {summary.trials}", file=stdout)
        print(f"wins = {summary.wins}", file=stdout)
        print(f"empirical_win_rate = {prob(summary.empirical_win_rate.value)}", file=stdout)
        print(f"final_bank = {money(summary.final_bank.amount)}", file=stdout)
        print(f"mean_per_trial_profit = {money(summary.mean_per_trial_profit.amount)}", file=stdout)
        print(
            f"sample_std_per_trial_profit = {money(summary.sample_std_per_trial_profit.amount)}",
            file=stdout,
        )

    def _simulate(self, tracer, args, stdout) -> int:
        scenario = self._read(tracer, args.scenario)
        sim = scenario.simulation
        with tracer.span("simulate.run_trials"):
            trace = self.simulate.run_trials(scenario.economics, sim.trials, seed=sim.seed, b0=sim.b0)
        with tracer.span("output.write_trace_csv"):
            text = self.output.write_trace_csv(trace)
        self._write(tracer, text, Path(args.out))
        with tracer.span("simulate.summarize"):
            summary = self.simulate.summarize(trace)
        with tracer.span("output.format_summary"):
            self._print_trace_summary(summary, stdout)
        return 0

    def _sweep(self, tracer, args, stdout) -> int:
        scenario = self._read(tracer, args.scenario)
        with tracer.span("breakeven.run_sweep"):
            grid = self.breakeven.SweepGrid(axes=scenario.sweep_axes, base=scenario.economics)
            result = self.breakeven.run_sweep(grid)
        with tracer.span("output.write_sweep_csv"):
            text = self.output.write_sweep_csv(result)
        self._write(tracer, text, Path(args.out))
        print(f"rows = {len(result.rows)}", file=stdout)
        return 0

    def _figure1(self, tracer, args, stdout) -> int:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with tracer.span("simulate.run_trials"):
            traces = self.simulate.replicate_figure1(args.seeds)
        for p, trace in zip(self.simulate.FIGURE1_WIN_PROBS, traces):
            file = out / f"figure1_p{p:g}.csv"
            with tracer.span("output.write_trace_csv"):
                text = self.output.write_trace_csv(trace)
            self._write(tracer, text, file)
            with tracer.span("simulate.summarize"):
                summary = self.simulate.summarize(trace)
            with tracer.span("output.format_summary"):
                print(
                    f"p = {self.output.format_probability(p)} seed = {trace.seed} "
                    f"final_bank = {self.output.format_money(summary.final_bank.amount)} file = {file}",
                    file=stdout,
                )
        return 0
