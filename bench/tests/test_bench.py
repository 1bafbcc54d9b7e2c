"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_scenarios(workload):
    for index in range(len(workloads.REPORT_CYCLE)):
        first = workloads.invocation(workload, 7, index)
        second = workloads.invocation(workload, 7, index)
        assert first == second
        assert first.scenario == second.scenario
    assert workloads.invocation(workload, 7, 0) != workloads.invocation(workload, 8, 0)


def test_default_seed_matches_recorded_digests():
    recorded = json.loads((BENCH / "digests.json").read_text())
    for workload, digests in recorded.items():
        for index, (scenario_digest, output_digest) in enumerate(
            zip(digests["scenarios"], digests["outputs"])
        ):
            inv = workloads.invocation(workload, workloads.DEFAULT_SEED, index)
            text = inv.scenario or " ".join(inv.extra_args)
            assert reference.digest(text.encode(), {}) == scenario_digest
            exp = reference.expected(inv, run._out_arg(inv, index))
            files = {name: body.encode() for name, body in exp.files.items()}
            assert reference.digest(exp.stdout.encode(), files) == output_digest


def _figure1():
    inv = workloads.invocation("report_batch", 3, workloads.REPORT_CYCLE.index(("figure1", None)))
    exp = reference.expected(inv, "out")
    files = {name: body.encode() for name, body in exp.files.items()}
    return exp, files


def test_checker_accepts_the_expected_output():
    exp, files = _figure1()
    assert reference.check(exp, 0, exp.stdout.encode(), b"", files) == []


def test_checker_catches_one_corrupted_csv_byte():
    exp, files = _figure1()
    name = sorted(files)[1]
    body = bytearray(files[name])
    position = len(body) // 2
    body[position] = ord("7") if body[position] != ord("7") else ord("8")
    files[name] = bytes(body)
    problems = reference.check(exp, 0, exp.stdout.encode(), b"", files)
    assert problems == [f"output file {name!r} differs at byte {position}"]


def test_checker_catches_an_extra_output_file():
    exp, files = _figure1()
    files["figure1_p0.9.csv"] = files[sorted(files)[0]]
    problems = reference.check(exp, 0, exp.stdout.encode(), b"", files)
    assert problems == ["unexpected output file 'figure1_p0.9.csv'"]


def test_checker_catches_a_wrong_exit_code():
    inv = workloads.invocation("report_batch", 3, workloads.REPORT_CYCLE.index(("breakeven", "infeasible")))
    exp = reference.expected(inv, "")
    assert exp.exit_code == 3
    assert reference.check(exp, 3, b"", b"error: no rate\n", {}) == []
    problems = reference.check(exp, 0, b"", b"error: no rate\n", {})
    assert problems == ["exit code 0, expected 3"]
    problems = reference.check(exp, 1, b"", b"Traceback (most recent call last):\n", {})
    assert "traceback on stderr" in problems


def test_reference_rounds_ties_away_from_zero_and_never_prints_negative_zero():
    assert reference.money(0.125) == "0.13"
    assert reference.money(-0.125) == "-0.13"
    assert reference.money(-0.001) == "0.00"
    assert reference.money(-0.0) == "0.00"
    assert reference.prob(0.0078125) == "0.007813"
    assert reference.is_tie(0.375, 8) and not reference.is_tie(0.25, 8)
    assert reference.is_tie(3 / 128, 128) and not reference.is_tie(0.5, 128)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, invocation=0)


def test_self_times_subtract_nested_children():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("scenario.parse", 1.0, 3.0, 0),
        _span("breakeven.run_sweep", 4.0, 8.0, 0),
        _span("economics.expected_utility", 5.0, 6.0, 2),
        _span("cli.main", 20.0, 21.0, None),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_self_times_count_overlapping_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("a", 1.0, 5.0, 0),
        _span("b", 4.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == 1.0


def test_tracer_records_parents_and_invocations():
    tracer = tracing.Tracer()
    tracer.invocation = 4
    with tracer.span("cli.main"):
        with tracer.span("scenario.parse"):
            pass
        with tracer.span("cli.write"):
            pass
    assert [(s.name, s.parent, s.invocation) for s in tracer.spans] == [
        ("cli.main", None, 4),
        ("scenario.parse", 0, 4),
        ("cli.write", 0, 4),
    ]
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(total)


def test_tail_is_the_largest_sample_with_ten_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    assert run.tail(walls) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_probe_gives_the_median_chunk_time_in_the_interval():
    probe = run.SpeedProbe()
    probe.ends = [float(t) for t in range(1, 21)]
    probe.times = [0.001 * t for t in range(1, 21)]
    assert probe.median(4.5, 11.5) == pytest.approx(0.008)  # chunks ending at 5..11
    # Fewer than five chunks in the interval: the five nearest its middle.
    assert probe.median(10.2, 10.4) == pytest.approx(0.010)
    assert probe.median(30.0, 31.0) == pytest.approx(0.018)


def test_self_times_are_computed_per_invocation():
    first = [_span("cli.main", 0.0, 10.0, None), _span("breakeven.run_sweep", 1.0, 9.0, 0)]
    second = [_span("cli.main", 20.0, 23.0, None), _span("breakeven.run_sweep", 21.0, 22.0, 0)]
    assert run.layer_selfs(first)["cli.main"] == 2.0
    assert run.layer_selfs(second)["cli.main"] == 2.0
    assert run.layer_selfs(first)["breakeven.run_sweep"] == 8.0


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        200 | site",
        "import time:      1000 |     150000 |         numpy",
        "import time:       900 |     190000 |   ransomecon",
        "import time:      3000 |     200000 | ransomecon.cli",
    ])
    assert run.parse_importtime(stderr) == (0.2, 0.15)
