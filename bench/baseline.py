"""Record a set of benchmark runs, or the default-seed digests.

    python3 bench/baseline.py --runs 10 --seconds 20 --out bench/baseline.json
    python3 bench/baseline.py --write-digests

A set runs every workload once per seed (DEFAULT_SEED, DEFAULT_SEED+1,
...) with tracing off, then once with tracing on at the default seed.
For each end-to-end metric it records the ten values, their median and
the quartile spread (Q3 - Q1) / median, as statistics.quantiles(n=4)
gives it, and for the traced run each layer's share of cmd_p50_s and
the accounting of cmd_p50_s by set-up and layer self times. Each
set is appended to the output file's "sets" list. Run from the root of
a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
DIGEST_COUNT = {"sweep_grid": 2, "trace_campaign": 2, "report_batch": len(workloads.REPORT_CYCLE)}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = result.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile spread (Q3 - Q1) as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def record_set(runs: int, seconds: float, names: list[str]) -> dict:
    out = {"seconds": seconds, "seeds": [workloads.DEFAULT_SEED + k for k in range(runs)], "workloads": {}}
    for workload in names:
        results = []
        for seed in out["seeds"]:
            result, detail = run_once(workload, seed, seconds, 0)
            results.append((result, detail))
            print(workload, seed, json.dumps({k: round(v["value"], 5) for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        metrics = {}
        for name in results[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in results]
            median, share = spread(values)
            metrics[name] = {"median": median, "spread": share, "values": values}
        traced = traced_run(workload, seconds)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r, _ in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "end_to_end": metrics,
            "runs": [d for _, d in results],
            "traced": traced,
        }
    return out


def traced_run(workload: str, seconds: float) -> dict:
    """One traced run at the default seed, with each layer's share of cmd_p50_s."""
    result, detail = run_once(workload, workloads.DEFAULT_SEED, seconds, 1)
    layers = {f"{name}_s": detail[f"{name}_s"] for name in tracing.PHASES}
    layers["setup_s"] = detail["setup_wall_s"]
    return {
        "correct": result["correct"],
        "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        "share_of_cmd_p50": {k: v / detail["cmd_p50_s"] for k, v in sorted(layers.items())},
        "accounting": {k: v for k, v in detail.items() if k.startswith("accounting.")},
        "detail": detail,
    }


def workload_inputs(sets: list[dict]) -> dict:
    """Default seed, input sizes, command mix and the measured tie share."""
    ties = {
        w: [s["workloads"][w]["traced"]["per_layer"]["output.tie_share"] for s in sets if w in s["workloads"]]
        for w in workloads.WORKLOADS
    }
    return {
        "default_seed": workloads.DEFAULT_SEED,
        "sweep_grid": {
            "command": "ransomecon sweep SCENARIO --out FILE",
            "cells": workloads.SWEEP_CELLS,
            "axes": [{"name": n, "values": c, "tie_values": t} for n, c, t in workloads.SWEEP_SHAPE],
            "measured_tie_share": ties["sweep_grid"],
        },
        "trace_campaign": {
            "command": "ransomecon simulate SCENARIO --out FILE",
            "trials": workloads.TRACE_TRIALS,
            "measured_tie_share": ties["trace_campaign"],
        },
        "report_batch": {
            "command_cycle": [" ".join(filter(None, c)) for c in workloads.REPORT_CYCLE],
            "figure1_trials": 3 * workloads.FIGURE1_TRIALS,
            "measured_tie_share": ties["report_batch"],
        },
    }


def write_digests() -> None:
    """SHA-256 digests of the default seed's first scenarios and expected outputs."""
    digests = {}
    for workload, count in DIGEST_COUNT.items():
        scenarios, outputs = [], []
        for index in range(count):
            inv = workloads.invocation(workload, workloads.DEFAULT_SEED, index)
            exp = reference.expected(inv, run._out_arg(inv, index) or "")
            scenarios.append(reference.digest((inv.scenario or " ".join(inv.extra_args)).encode(), {}))
            outputs.append(reference.digest(exp.stdout.encode(), {k: v.encode() for k, v in exp.files.items()}))
        digests[workload] = {"scenarios": scenarios, "outputs": outputs}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.write_digests:
        write_digests()
        return 0
    new = record_set(args.runs, args.seconds, args.workloads)
    for workload, data in new["workloads"].items():
        for name, m in data["end_to_end"].items():
            print(f"{workload:15s} {name:22s} median {m['median']:.6g} spread {m['spread']:.4f}")
    if args.out:
        existing = json.loads(args.out.read_text()) if args.out.is_file() else {"sets": []}
        existing["sets"].append(new)
        existing["workload_inputs"] = workload_inputs(existing["sets"])
        args.out.write_text(json.dumps(existing, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
