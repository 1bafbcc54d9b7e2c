"""Benchmark of the `ransomecon` CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_grid --seed 20211 --seconds 20 --trace 0

Each workload (see workloads.py) runs as a closed loop: one client
starts one `python -m ransomecon ...` child at a time, with PYTHONPATH
pointing at the checkout's `src`, and starts the next only after the
previous one has exited. Every invocation's exit code, stdout, stderr
and output files are checked byte for byte against reference.py,
outside the timed region.

The host's speed drifts by tens of percent within seconds, so
invocation cost is gated as wall time in `cal`s, the geometric mean of
two speed measures taken while and around the invocation ran:

- the probe: while children run, a thread in this process times a
  fixed pure-Python chunk every PROBE_PERIOD_S; this is the chunk's
  median time while the child ran. It tracks the children's Python
  computation, but it shares the machine with them.
- the bracket: each batch of invocations, and each set-up sample, sits
  between two `python -c "import numpy"` children; this is their mean
  wall. It tracks interpreter start and imports.

Over ten seeds, wall over this mean spread less than wall over either
measure alone on every workload.

`setup_s` is the median wall of `python -c "import ransomecon.cli"`
over the mean of the two `import numpy` walls around it, times
IMPORT_REFERENCE_S: seconds on a host where `import numpy` takes that
long. The same figures in plain wall seconds (cmd_p50_s, cmd_tail_s
with its percentile and sample count, throughput_*_per_s) and
error_rate are printed above the result line.

With `--trace 1` each CLI child is followed by a traced run of the same
invocation in a fresh interpreter (mirror.py), which calls the
package's public functions in the order `cli.py` does; the last line
then carries the per-layer metrics. Layer times are self times from the
traced children's spans. cli.other_s is cli.main's own self time:
argument parsing and dispatch. trace.overhead_s is the time the tracer
spent in its own bookkeeping, which is what tracing adds. The detail's
`accounting.*` entries set setup plus the layer self times against the
CLI children's walls, and flag a negative residual. Both modes print
the full detail as a `detail:` line just above the result line.

Only the benchmark's own processes are measured: no caches are
dropped, no CPUs pinned, nothing is written under /proc, /sys or a
cgroup. Child peak RSS comes from os.wait4 rusage.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

SETUP_SAMPLES = 11
SETUP_ARGS = ["-c", "import ransomecon.cli"]
IMPORT_CAL_ARGS = ["-c", "import numpy"]
# The wall of IMPORT_CAL_ARGS on the host the baseline was recorded on.
IMPORT_REFERENCE_S = 0.15
PROBE_PERIOD_S = 0.01
PROBE_LOOP = 1500
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0
WORK_DIR = ".bench_work"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
ISOLATION = "none: no cache drop, no CPU pinning, nothing written under /proc, /sys or cgroups"


def _probe_chunk() -> int:
    """Integer arithmetic and small allocations, which the host's noise
    slows the way it slows the CLI's own work."""
    table = {}
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
        table[i * 7919 % 10007] = [i]
    return x + len(table)


class SpeedProbe(threading.Thread):
    """Times `_probe_chunk` every PROBE_PERIOD_S until stopped.

    The main thread waits in os.wait4 while a child runs, so the probe
    then runs alone in this process.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.ends: list[float] = []
        self.times: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            _probe_chunk()
            end = time.perf_counter()
            self.times.append(end - start)
            self.ends.append(end)

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def median(self, start: float, end: float) -> float:
        """Median chunk time over [start, end]; if fewer than five chunks
        ended in it, over the five that ended nearest to its middle."""
        n = len(self.ends)
        ends = self.ends[:n]
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        if hi - lo >= 5:
            return statistics.median(self.times[lo:hi])
        middle = (start + end) / 2
        at = bisect.bisect_left(ends, middle)
        near = sorted(range(max(0, at - 5), min(n, at + 5)), key=lambda i: abs(ends[i] - middle))[:5]
        return statistics.median(self.times[i] for i in near)


@dataclass
class Run:
    wall: float  # seconds from spawn to exit
    probe: float  # the probe chunk's time meanwhile
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    bracket: float = 0.0  # mean wall of the `import numpy` children around it


@dataclass
class Child:
    """Runs Python children against the checkout's src."""

    root: Path
    work: Path
    probe: SpeedProbe
    env: dict = field(init=False)

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def run(self, args: list[str]) -> Run:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(
            end - start, self.probe.median(start, end), proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes(),
        )


@dataclass
class Sample:
    index: int
    command: str
    wall: float
    probe: float  # the probe chunk's time meanwhile
    bracket: float  # mean wall of the `import numpy` children around its batch
    rss_mb: float
    rows: int
    values: int
    ties: int
    scenario_bytes: int
    csv_bytes: int
    digest: str
    problems: list[str]


def _out_arg(inv: workloads.Invocation, index: int) -> str | None:
    if inv.command == "figure1":
        return f"o{index}"
    return f"o{index}.csv" if inv.writes_csv else None


def _cli_args(inv: workloads.Invocation, index: int) -> list[str]:
    """The arguments after `ransomecon`."""
    args = [inv.command]
    if inv.scenario is not None:
        args.append(f"s{index}.scn")
    args += inv.extra_args
    out = _out_arg(inv, index)
    if out is not None:
        args += ["--out", out]
    return args


def _collect(work: Path, inv: workloads.Invocation, index: int) -> dict[str, bytes]:
    """Read and delete the output files of invocation `index`."""
    out = _out_arg(inv, index)
    if out is None:
        return {}
    path = work / out
    files = {}
    if inv.command == "figure1":
        if path.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
            shutil.rmtree(path)
    elif path.is_file():
        files = {"": path.read_bytes()}
        path.unlink()
    return files


def _recorded_digests(workload: str, seed: int) -> list[str]:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text())[workload]["outputs"]


def closed_loop(
    child: Child, workload: str, seed: int, budget: float, after_batch=None
) -> tuple[list[Sample], list[Run]]:
    """Run whole batches of invocations until their wall time reaches `budget`.

    Returns the samples and the set-up runs, one taken before each batch
    so that they spread over the same stretch of time. Each set-up run
    and each batch sits between two `import numpy` children.
    """
    recorded = _recorded_digests(workload, seed)
    samples: list[Sample] = []
    setup: list[Run] = []
    brackets = [child.run(IMPORT_CAL_ARGS).wall]

    def bracketed_setup() -> None:
        run = child.run(SETUP_ARGS)
        brackets.append(child.run(IMPORT_CAL_ARGS).wall)
        run.bracket = (brackets[-2] + brackets[-1]) / 2
        setup.append(run)

    index = 0
    while not samples or sum(s.wall for s in samples) < budget:
        bracketed_setup()
        batch: list[Sample] = []
        for _ in range(workloads.batch_size(workload)):
            inv = workloads.invocation(workload, seed, index)
            scenario_bytes = 0
            if inv.scenario is not None:
                data = inv.scenario.encode()
                (child.work / f"s{index}.scn").write_bytes(data)
                scenario_bytes = len(data)
            run = child.run(["-m", "ransomecon", *_cli_args(inv, index)])
            files = _collect(child.work, inv, index)
            exp = reference.expected(inv, _out_arg(inv, index) or "")
            problems = reference.check(exp, run.code, run.stdout, run.stderr, files)
            digest = reference.digest(run.stdout, files)
            if index < len(recorded) and digest != recorded[index]:
                problems.append("output digest differs from the recorded default-seed digest")
            batch.append(Sample(
                index, inv.command, run.wall, run.probe, 0.0, run.rss_mb, exp.rows, exp.values, exp.ties,
                scenario_bytes, sum(len(b) for b in files.values()), digest, problems,
            ))
            index += 1
        brackets.append(child.run(IMPORT_CAL_ARGS).wall)
        for sample in batch:
            sample.bracket = (brackets[-2] + brackets[-1]) / 2
        samples += batch
        if after_batch is not None:
            after_batch(batch)
    while len(setup) < SETUP_SAMPLES:
        bracketed_setup()
    return samples, setup


def check_import_source(child: Child) -> None:
    """The children must import the checkout's package, not an installed one.

    This first import also writes the bytecode cache, so no timed
    child pays for compiling.
    """
    run = child.run(["-c", "import ransomecon.cli as c; print(c.__file__)"])
    expected = str(child.root / "src" / "ransomecon" / "cli.py")
    if run.code != 0 or run.stdout.decode().strip() != expected:
        raise SystemExit(f"error: ransomecon.cli does not import from {expected}: {run.stderr.decode()[-500:]}")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(ransomecon import seconds, numpy import seconds) from `-X importtime`."""
    total = numpy = 0.0
    numpy_depth = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        name = name.strip()
        seconds = int(cumulative) / 1e6
        if depth == 0 and (name == "ransomecon" or name.startswith("ransomecon.")):
            total += seconds
        if name == "numpy":
            if numpy_depth is None or depth < numpy_depth:
                numpy_depth, numpy = depth, seconds
            elif depth == numpy_depth:
                numpy += seconds
    return total, numpy


def measure_imports(child: Child) -> tuple[float, float]:
    runs = [child.run(["-X", "importtime", *SETUP_ARGS]) for _ in range(IMPORT_SAMPLES)]
    parsed = [parse_importtime(r.stderr.decode()) for r in runs]
    return statistics.median(p[0] for p in parsed), statistics.median(p[1] for p in parsed)


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile): the largest sample with ten samples beyond it,
    or the maximum when there are fewer than eleven samples."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(root: Path) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
        "isolation": ISOLATION,
    }


def setup_seconds(setup: list[Run]) -> float:
    """setup_s: the median set-up wall over its `import numpy` bracket,
    in seconds at IMPORT_REFERENCE_S."""
    return statistics.median(r.wall / r.bracket for r in setup) * IMPORT_REFERENCE_S


def cal(run: Run | Sample) -> float:
    return math.sqrt(run.probe * run.bracket)


def end_to_end(workload: str, samples: list[Sample], setup: list[Run]) -> tuple[dict, dict]:
    """The gated metrics, and the same figures in plain seconds.

    Throughput counts CSV rows on the CSV workloads and commands on
    report_batch, whose commands write few rows.
    """
    walls = [s.wall for s in samples]
    cost = [s.wall / cal(s) for s in samples]
    rows = sum(s.rows for s in samples)
    units = len(samples) if workload == "report_batch" else rows
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (setup_seconds(setup), "s"),
        "cmd_p50_cal": (statistics.median(cost), "cal"),
        "throughput_per_cal": (units / sum(cost), "1/cal"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    failed = sum(1 for s in samples if s.problems)
    extra = {
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_s,
        "cmd_tail_cal": tail(cost)[0],
        "cmd_tail_percentile": tail_pct,
        "cmd_samples": len(samples),
        "throughput_cmds_per_s": len(samples) / sum(walls),
        "throughput_rows_per_s": rows / sum(walls),
        "error_rate": failed / len(samples),
        "cal_s": statistics.median(cal(s) for s in samples),
        "probe_s": statistics.median(s.probe for s in samples),
        "import_cal_s": statistics.median(r.bracket for r in setup),
        "setup_wall_s": statistics.median(r.wall for r in setup),
        "cmd_walls_s": walls,
        "cmd_probe_cals_s": [s.probe for s in samples],
        "cmd_import_cals_s": [s.bracket for s in samples],
        "setup_walls_s": [r.wall for r in setup],
        "setup_probe_cals_s": [r.probe for r in setup],
        "setup_import_cals_s": [r.bracket for r in setup],
    }
    return metrics, extra


@dataclass
class Traced:
    """The traced run of one invocation."""

    index: int
    probe: float
    spans: list[tracing.Span]
    overhead_s: float


class Mirror:
    """Runs mirror.py children: the traced runs of the CLI's invocations.

    Each one runs right after its CLI child, so both see the same
    machine conditions, and its output must match the CLI child's.
    """

    def __init__(self, child: Child, workload: str, seed: int):
        self.child, self.workload, self.seed = child, workload, seed
        self.traced: list[Traced] = []
        self.heap_spans: list[tracing.Span] = []
        self.problems: list[str] = []
        self.attempted = 0

    def _once(self, mode: str, sample: Sample) -> tuple[Run, dict]:
        self.attempted += 1
        inv = workloads.invocation(self.workload, self.seed, sample.index)
        report = self.child.work / "mirror.json"
        run = self.child.run([
            str(HERE / "mirror.py"), mode, report.name, str(sample.index),
            *_cli_args(inv, sample.index),
        ])
        files = _collect(self.child.work, inv, sample.index)
        data = json.loads(report.read_text()) if report.is_file() else {"spans": [], "overhead_s": 0.0}
        report.unlink(missing_ok=True)
        if run.code != inv.expect_exit or reference.digest(run.stdout, files) != sample.digest:
            self.problems.append(
                f"{mode} mirror of invocation {sample.index} differs from the CLI's output: {run.stderr[-300:]!r}"
            )
        return run, data

    def run_batch(self, batch: list[Sample]) -> None:
        for sample in batch:
            run, data = self._once("traced", sample)
            spans = [tracing.Span(**span) for span in data["spans"]]
            self.traced.append(Traced(sample.index, run.probe, spans, data["overhead_s"]))

    def measure_heap(self, batch: list[Sample]) -> None:
        """One more pass over a batch with tracemalloc on, for heap peaks."""
        for sample in batch:
            _, data = self._once("heap", sample)
            self.heap_spans += [tracing.Span(**span) for span in data["spans"]]


def layer_selfs(spans: list[tracing.Span]) -> dict[str, float]:
    """Self time per layer span name, summed over `spans`."""
    selfs = dict.fromkeys(tracing.PHASES, 0.0)
    for span, self_s in zip(spans, tracing.self_times(spans)):
        selfs[span.name] += self_s
    return selfs


def accounting(samples: list[Sample], setup: list[Run], mirror: Mirror) -> dict:
    """How far setup plus the layer self times falls short of each CLI child.

    Setup, the CLI children and the traced children are separate
    processes, so each is first put in cals and then scaled to the run's
    median cal. A traced child runs right after its batch's closing
    `import numpy` child, so it takes its batch's bracket. The residual
    is what no measurement explains: interpreter teardown beyond
    set-up's own, and the host's noise.
    """
    speed = statistics.median(cal(s) for s in samples)
    setup_s = statistics.median(r.wall / cal(r) for r in setup) * speed
    by_index = {t.index: t for t in mirror.traced}
    residuals, explained, walls = [], [], []
    for sample in samples:
        traced = by_index[sample.index]
        traced_cal = math.sqrt(traced.probe * sample.bracket)
        layers = sum(layer_selfs(traced.spans).values()) / traced_cal * speed
        wall = sample.wall / cal(sample) * speed
        explained.append(setup_s + layers)
        walls.append(wall)
        residuals.append(wall - setup_s - layers)
    overhead = statistics.fmean(t.overhead_s for t in mirror.traced)
    residual = statistics.median(residuals)
    flags = []
    if residual < 0:
        flags.append("negative residual: setup plus the layer self times exceed the invocation's wall")
    if abs(residual) > overhead:
        flags.append("residual exceeds trace.overhead_s")
    return {
        "accounting.speed_cal": speed,
        "accounting.setup_s": setup_s,
        "accounting.explained_s": statistics.median(explained),
        "accounting.cmd_p50_s": statistics.median(walls),
        "accounting.residual_s": residual,
        "accounting.residual_share": residual / statistics.median(walls),
        "accounting.flags": flags,
    }


def per_layer(samples: list[Sample], setup: list[Run], imports, mirror: Mirror) -> tuple[dict, dict]:
    n = len(mirror.traced)
    layer = dict.fromkeys(tracing.PHASES, 0.0)
    for traced in mirror.traced:  # span parents index into their own invocation's list
        for name, self_s in layer_selfs(traced.spans).items():
            layer[name] += self_s / n
    phase: dict[str, float] = {}
    for name, ph in tracing.PHASES.items():
        phase[ph] = phase.get(ph, 0.0) + layer[name]
    heap_mb = {
        group: max((s.heap_peak for s in mirror.heap_spans if s.name.startswith(group + ".")), default=0) / 2**20
        for group in tracing.HEAP_LAYERS
    }
    count = len(samples)
    values = sum(s.values for s in samples)
    csv_self = layer["output.write_sweep_csv"] + layer["output.write_trace_csv"]
    cells = sum(s.rows for s in samples if s.command == "sweep")
    metrics = {
        "import.total_s": (imports[0], "s"),
        "import.numpy_s": (imports[1], "s"),
        "scenario.parse_s": (layer["scenario.parse"], "s"),
        "scenario.bytes": (sum(s.scenario_bytes for s in samples) / count, "count"),
        "phase.compute_s": (phase["compute"], "s"),
        "phase.format_s": (phase["format"], "s"),
        "cli.write_s": (layer["cli.write"], "s"),
        "cli.other_s": (layer["cli.main"], "s"),
        "trace.overhead_s": (statistics.fmean(t.overhead_s for t in mirror.traced), "s"),
        "output.rows": (sum(s.rows for s in samples) / count, "count"),
        "output.bytes": (sum(s.csv_bytes for s in samples) / count, "count"),
        "output.values_formatted": (values / count, "count"),
        "output.us_per_value": (1e6 * csv_self / (values / count) if values else 0.0, "us"),
        "output.tie_share": (sum(s.ties for s in samples) / values if values else 0.0, "share"),
        "output.heap_peak_mb": (heap_mb["output"], "MB"),
        "breakeven.heap_peak_mb": (heap_mb["breakeven"], "MB"),
        "simulate.heap_peak_mb": (heap_mb["simulate"], "MB"),
        "breakeven.cells": (cells / count, "count"),
    }
    extra = {f"{name}_s": value for name, value in layer.items()}
    extra["breakeven.us_per_cell"] = 1e6 * layer["breakeven.run_sweep"] / (cells / count) if cells else 0.0
    extra.update({f"phase.{name}_s": value for name, value in phase.items()})
    extra.update({
        "traced.invocations": n,
        "cmd_p50_s": statistics.median(s.wall for s in samples),
        "setup_wall_s": statistics.median(r.wall for r in setup),
        "error_rate": sum(1 for s in samples if s.problems) / count,
    })
    extra.update(accounting(samples, setup, mirror))
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ransomecon" / "cli.py").is_file():
        print(f"error: no src/ransomecon/cli.py under {root}; run from a checkout's root", file=sys.stderr)
        return 2
    env = environment(root)
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = SpeedProbe()
    probe.start()
    child = Child(root, work, probe)
    try:
        check_import_source(child)
        if args.trace:
            imports = measure_imports(child)
            mirror = Mirror(child, args.workload, args.seed)
            samples, setup = closed_loop(
                child, args.workload, args.seed, args.seconds / 2, after_batch=mirror.run_batch
            )
            mirror.measure_heap(samples[: workloads.batch_size(args.workload)])
            metrics, detail = per_layer(samples, setup, imports, mirror)
            problems = mirror.problems
            attempted = len(samples) + mirror.attempted
        else:
            samples, setup = closed_loop(child, args.workload, args.seed, args.seconds)
            metrics, detail = end_to_end(args.workload, samples, setup)
            attempted = len(samples)
            problems = []
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    all_problems = [f"invocation {s.index}: {p}" for s in samples for p in s.problems] + problems
    failed = sum(1 for s in samples if s.problems) + len(problems)
    for problem in all_problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for flag in detail.get("accounting.flags", []):
        print(f"NOTE accounting: {flag}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in detail.items():
        if isinstance(value, (int, float)) and name not in metrics:
            print(f"{args.workload} {name} = {value:.6g}")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, environment=env)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
