"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest bench

Each workload runs shrunk (fixture3 at its own size, a few months, few
jobs) through the same code as the real benchmark. The test checks that
every metric BENCHMARK.json names is emitted with its unit, that the last
line of output has the contracted shape, that the traced self times add
up to the traced wall time, and that work counts and monthly.csv
fingerprints repeat exactly for one seed.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import run as bench
import tracer

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
SHRINK = {
    "single-x40": dict(scale=1, months=2),
    "regimes-x1": dict(months=6, runs=1),
    "grid-small": dict(months=3, sweeps=("ALPHA:.1:.9:2",), runs=1),
}


def tiny(name: str) -> bench.Workload:
    return replace(bench.WORKLOADS[name], **SHRINK[name])


def test_spec_names_the_workloads():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(END_TO_END) == set(bench.END_TO_END_UNITS)
    assert SPEC["command"][1:] == ["bench/run.py"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_workload_repeats_exactly(name):
    first, second = (bench.run_workload(tiny(name), 5, 0, trace=True) for _ in range(2))
    for outcome in (first, second):
        assert outcome["failed"] == 0
        assert {k: unit for k, (_, unit) in outcome["end_to_end"].items()} == END_TO_END
        assert {k: unit for k, (_, unit) in outcome["per_layer"].items()} == PER_LAYER
        assert all(value > 0 for value, _ in outcome["end_to_end"].values())
        layers = {k: value for k, (value, _) in outcome["per_layer"].items()}
        assert all(math.isfinite(value) for value in layers.values())
        # The remainder worked out from the spans themselves: traced wall time
        # outside every root span, plus the self time of spans that are no
        # layer (cli.main, runner.job, scheduler.step, ...).
        spans = outcome["report"]["spans"]
        self_time = tracer.self_times(spans)
        outside = layers["trace.wall_s"] - sum(s.end - s.start for s in spans if s.parent < 0)
        remainder = outside + sum(t for n, t in self_time.items() if n not in bench.LAYER_TIMES)
        assert outside >= 0 and remainder >= 0
        accounted = sum(layers[f"{layer}_s"] for layer in bench.LAYER_TIMES)
        assert accounted + remainder == pytest.approx(layers["trace.wall_s"])
        assert remainder == pytest.approx(layers["trace.unaccounted_s"])
        assert outcome["report"]["traced_fingerprint"] == outcome["report"]["fingerprint"]

    def counts(outcome):
        return {k: v for k, (v, unit) in outcome["per_layer"].items() if unit == "count"}

    assert counts(first) == counts(second)
    assert counts(first)["labor.hires"] > 0
    assert first["report"]["monthly_csv"] == second["report"]["monthly_csv"]


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_has_the_contracted_shape(monkeypatch, trace):
    monkeypatch.setitem(bench.WORKLOADS, "grid-small", tiny("grid-small"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench.main(
            ["--workload", "grid-small", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_children():
    spans = [
        tracer.Span("root", 0.0, 10.0, -1),
        tracer.Span("child", 1.0, 3.0, 0),
        tracer.Span("child", 4.0, 8.0, 0),
        tracer.Span("grandchild", 5.0, 6.0, 2),
    ]
    assert tracer.self_times(spans) == {"root": 4.0, "child": 5.0, "grandchild": 1.0}


def test_citizen_gate_catches_an_unscaled_region(tmp_path):
    ps = bench.load_engine()
    region = bench.build_region(tmp_path, 1)
    params = ps.parse_config_text("PERCENTAGE_ACTUAL_POP = 1.0\nMONTHS = 1\n")
    workload = bench.WORKLOADS["single-x40"]
    assert bench.expected_citizens(workload.scale, workload.pop_share) == 40_000
    assert bench.citizens_ok(ps, region, params, 1, replace(workload, scale=1))
    assert not bench.citizens_ok(ps, region, params, 1, workload)


def test_repeats_stop_before_the_budget_runs_out(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(bench, "clock", lambda: now[0])

    def body(index):
        now[0] += 4.0
        return index

    assert bench.repeat_for(0, body) == list(range(bench.MIN_REPEATS))
    now[0] = 0.0
    assert bench.repeat_for(17, body) == [0, 1, 2, 3]  # a fifth would end at 20
