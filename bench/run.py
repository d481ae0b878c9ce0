#!/usr/bin/env python3
"""policysim benchmark: timed workloads, correctness gates, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the engine is imported from ``src/``.
With ``--trace 0`` the workload repeats untraced for ``--seconds`` (at
least ``MIN_REPEATS`` times) and the last line of standard output is one
JSON object with the end-to-end metrics of ``BENCHMARK.json``. With
``--trace 1`` the same timed repeats run first, then one traced pass whose
per-layer self times, work counts and tracing overhead make up the
metrics. Before timing starts, one world is generated to check the
citizen count against fixture3's own populations. Every repeat and the
traced pass go through the correctness gates; a miss counts as a failed
run.

Inputs exist only as generated files: the region is fixture3 with its
target populations multiplied in a temporary directory under
``.bench_out/``, which also receives the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FIXTURE = "fixture3"
AUDIT_BOUND = 1e-6  # acceptance criterion C3, per month
MIN_REPEATS = 3
# Sweeps set up inside their workers, so setup_s times this many set-ups of
# the first job in-process after each pass. One takes ~35 ms on fixture3 and
# single samples range ~30-50 ms; ten a pass keep the median steady.
SETUPS_PER_PASS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int  # multiplier on fixture3's target populations
    pop_share: float  # PERCENTAGE_ACTUAL_POP
    months: int
    run_type: str  # "single" runs in-process; anything else is a CLI run type
    sweeps: tuple[str, ...] = ()
    runs: int = 1  # replicates per configuration
    save_data: str = ""


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("single-x40", scale=40, pop_share=1.0, months=4, run_type="single"),
        Workload(
            "regimes-x1",
            scale=1,
            pop_share=1.0,
            months=120,
            run_type="distributions",
            runs=2,
        ),
        Workload(
            "grid-small",
            scale=1,
            pop_share=0.2,
            months=24,
            run_type="sensitivity",
            sweeps=("ALPHA:.1:.9:8", "MARKUP:.05:.3:4"),
            runs=2,
            save_data="agents,grave,house,family,firms",
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "month_ms_p50": "ms",
    "citizen_months_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

SUBSTEPS = (
    "production",
    "demographics",
    "goods",
    "firm_decisions",
    "labor",
    "real_estate",
    "fiscal",
    "record",
)
LAYER_TIMES = (
    "regions.load",
    "generate.world",
    "labor.calibrate",
    "labor.build_pool",
    "labor.match",
    "labor.pay_wages",
    "realestate.reprice",
    "realestate.match_market",
    "fiscal.distribute",
    "stats.gini",
    "sweeps.expand",
    "runner.aggregate",
    "runner.write",
) + tuple(f"scheduler.{name}" for name in SUBSTEPS)
COUNTS = (
    "labor.vacancies",
    "labor.hires",
    "goods.purchases",
    "demographics.births",
    "demographics.deaths",
    "realestate.entrants",
    "realestate.listings",
    "realestate.sales",
)


clock = time.perf_counter


def load_engine():
    """Import policysim from this checkout's src/, never from elsewhere."""
    if not (SRC / "policysim" / "__init__.py").is_file():
        raise SystemExit(f"error: no policysim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import policysim
    import policysim.cli
    import policysim.labor
    import policysim.runner
    import policysim.scheduler

    if Path(policysim.__file__).resolve().parent != SRC / "policysim":
        raise SystemExit(f"error: imported policysim from {policysim.__file__}")
    return policysim


# ---------------------------------------------------------------- inputs


def build_region(data_dir: Path, scale: int) -> Path:
    """Copy fixture3 with every target population multiplied by scale."""
    source = SRC / "policysim" / "data" / "regions" / FIXTURE
    target = data_dir / (FIXTURE if scale == 1 else f"{FIXTURE}x{scale}")
    target.mkdir(parents=True)
    for path in sorted(source.glob("*.csv")):
        shutil.copyfile(path, target / path.name)
    lines = (source / "municipalities.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    column = header.index("target_population")
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[column] = str(int(cells[column]) * scale)
        rows.append(",".join(cells))
    (target / "municipalities.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return target


def expected_citizens(scale: int, pop_share: float) -> int:
    """fixture3's own total population times scale and share, half-up."""
    source = SRC / "policysim" / "data" / "regions" / FIXTURE / "municipalities.csv"
    lines = source.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("target_population")
    total = sum(int(line.split(",")[column]) for line in lines[1:])
    return math.floor(total * scale * pop_share + 0.5)


def citizens_ok(ps, region_dir: Path, params, seed: int, workload: Workload) -> bool:
    """Generate one world, untimed, and check that the region was scaled."""
    world = ps.generate_world(ps.load_region_data(str(region_dir)), params, seed)
    return len(world.citizens) == expected_citizens(workload.scale, workload.pop_share)


# ------------------------------------------------------------ correctness


def check_monthly(path: Path, months: int) -> tuple[str, float, bool]:
    """sha256, summed population, and whether the file passes the gate.

    The gate: one row per month, every value finite, population positive.
    """
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    population = lines[0].split(",").index("population")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    ok = (
        len(rows) == months
        and all(math.isfinite(value) for row in rows for value in row)
        and all(row[population] > 0 for row in rows)
    )
    return hashlib.sha256(data).hexdigest(), sum(row[population] for row in rows), ok


def fingerprint(hashes: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(hashes.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- in-process


def engine_run(ps, region_dir: Path, params, seed: int, months: int) -> dict:
    """Set up one world and step it, auditing money outside the step timings.

    Entry points are looked up on their modules at call time so that the
    traced pass sees its wrappers.
    """
    start = clock()
    region = ps.load_region_data(str(region_dir))
    world = ps.generate_world(region, params, seed)
    ps.labor.calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    setup = clock() - start
    out = {
        "setup_s": setup,
        "month_s": [],
        "drift": 0.0,
        "citizens": len(world.citizens),
        "records": [],
        "world": world,
    }
    for _ in range(months):
        before = world.total_money()
        tick = clock()
        record = ps.scheduler.step(world, params)
        out["month_s"].append(clock() - tick)
        drift = abs(world.total_money() - before + record.tax_total)
        out["drift"] = max(out["drift"], drift)
        out["records"].append(record)
    out["wall_s"] = setup + sum(out["month_s"])
    return out


def single_repeat(ps, region_dir: Path, params, master_seed: int, out_dir: Path) -> dict:
    """One run plus the output ``policysim run --seed master_seed`` writes."""
    start = clock()
    job = ps.Job("run", 0, ps.derive_seed(master_seed, "run", 0), params, region_dir.name)
    run = engine_run(ps, region_dir, params, job.seed, params.months)
    world = run.pop("world")
    result = ps.RunResult(
        records=run.pop("records"),
        world=world,
        seed=job.seed,
        sales=list(world.sales_log),
        grave=list(world.grave),
    )
    plan = ps.ExperimentPlan("run", output_dir=str(out_dir), master_seed=master_seed)
    run["job_result"] = ps.runner.JobResult(job=job, result=result)
    ps.runner.write_outputs(plan, [run["job_result"]], str(out_dir))
    run["full_s"] = clock() - start
    digest, population, ok = check_monthly(out_dir / "run" / "run_0" / "monthly.csv", params.months)
    run.update(sha=digest, population=population)
    run["ok"] = ok and run["drift"] <= AUDIT_BOUND
    return run


def sweep_pass(ps, args: list[str], out_dir: Path, months: int, jobs: int) -> dict:
    """One ``policysim.cli.main`` call and the gates on what it wrote."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = clock()
        code = ps.cli.main(args + ["--output", str(out_dir)])
        wall = clock() - start
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    hashes, population, bad = {}, 0.0, len(summary["failures"])
    for path in sorted(out_dir.glob("*/run_*/monthly.csv")):
        digest, pop, ok = check_monthly(path, months)
        hashes[str(path.relative_to(out_dir))] = digest
        population += pop
        bad += not ok
    bad += jobs - len(summary["failures"]) - len(hashes)  # a job that left no file
    return {
        "wall_s": wall,
        "hashes": hashes,
        "population": population,
        "bad": bad if code in (0, 1) else jobs,
    }


def repeat_for(seconds: float, body) -> list:
    """Call body(index) at least MIN_REPEATS times, then while another call
    of median length still ends within ``seconds``."""
    results, lengths = [], []
    start = clock()
    while len(results) < MIN_REPEATS or (
        clock() - start + statistics.median(lengths) <= seconds
    ):
        tick = clock()
        results.append(body(len(results)))
        lengths.append(clock() - tick)
    return results


# ---------------------------------------------------------------- metrics


def worker_count() -> int:
    """Sweep workers: two, or fewer when the machine has fewer cores."""
    return max(1, min(2, os.cpu_count() or 1))


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed: int, workers: int) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "workers": workers,
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "policysim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def layer_metrics(tracer, wall: float) -> dict[str, tuple[float, str]]:
    """Self times, substep shares, counts and the unaccounted remainder."""
    spans = tracer.spans
    self_time = tracing.self_times(spans)
    inclusive = tracing.inclusive_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (self_time.get(name, 0.0), "s")
    month = inclusive.get("scheduler.step", 0.0)
    for name in SUBSTEPS:
        share = inclusive.get(f"scheduler.{name}", 0.0) / month * 100.0 if month else 0.0
        metrics[f"scheduler.{name}_share"] = (share, "%")
    counts = tracer.counts
    for name in COUNTS:
        metrics[name] = (float(counts[name]), "count")
    metrics["labor.fill_ratio"] = (
        counts["labor.hires"] / counts["labor.vacancies"] if counts["labor.vacancies"] else 0.0,
        "ratio",
    )
    metrics["realestate.sale_ratio"] = (
        counts["realestate.sales"] / counts["realestate.entrants"]
        if counts["realestate.entrants"]
        else 0.0,
        "ratio",
    )
    accounted = sum(metrics[f"{name}_s"][0] for name in LAYER_TIMES)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unaccounted_s"] = (wall - accounted, "s")
    metrics["trace.spans"] = (float(len(spans)), "count")
    return metrics


def transfer_metrics(job_results: list) -> dict[str, tuple[float, str]]:
    """What the workers would send back: pickled JobResults, and their decode."""
    blobs = [pickle.dumps(job_result) for job_result in job_results]
    start = clock()
    for blob in blobs:
        pickle.loads(blob)
    unpickle = clock() - start
    return {
        "runner.transfer_mb": (sum(len(blob) for blob in blobs) / 1e6, "MB"),
        "runner.unpickle_s": (unpickle, "s"),
    }


def tree_mb(directory: Path) -> float:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file()) / 1e6


def dump_spans(path: Path, spans: list) -> None:
    origin = spans[0].start if spans else 0.0
    rows = [[s.name, s.start - origin, s.end - origin, s.parent] for s in spans]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# --------------------------------------------------------------- workloads


def run_single(ps, workload: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    region_dir = build_region(tmp / "data", workload.scale)
    params = ps.parse_config_text(
        f"PERCENTAGE_ACTUAL_POP = {workload.pop_share}\nMONTHS = {workload.months}\n"
    )
    scaled = citizens_ok(ps, region_dir, params, seed, workload)

    def repeat(index: int) -> dict:
        out_dir = tmp / f"out{index}"
        run = single_repeat(ps, region_dir, params, seed, out_dir)
        run.pop("job_result")
        shutil.rmtree(out_dir)
        gc.collect()
        return run

    repeats = repeat_for(seconds, repeat)
    reference = repeats[0]["sha"]
    failed = sum(not r["ok"] or r["sha"] != reference for r in repeats) + (not scaled)
    monthly = {"run/run_0/monthly.csv": reference}
    wall = statistics.median([r["wall_s"] for r in repeats])
    peak = rss_mb(resource.RUSAGE_SELF)
    report = {
        "fingerprint": fingerprint(monthly),
        "monthly_csv": monthly,
        "citizens": repeats[0]["citizens"],
        "worst_audit_drift": max(r["drift"] for r in repeats),
        "samples": {
            "wall_s": len(repeats),
            "setup_s": len(repeats),
            "month_ms_p50": sum(len(r["month_s"]) for r in repeats),
        },
    }
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median([r["setup_s"] for r in repeats]),
        "month_ms_p50": statistics.median([m for r in repeats for m in r["month_s"]]) * 1000.0,
        "citizen_months_per_s": repeats[0]["population"] / wall,
        "jobs_per_s": 1.0 / wall,
        "peak_rss_mb": peak,
        # the run has no worker process: the one process is its own worker
        "worker_peak_rss_mb": peak,
    }
    attempted = len(repeats) + 1  # the citizen-count check is one attempt
    layers = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = single_repeat(ps, region_dir, params, seed, tmp / "traced")
        finally:
            tracer.uninstall()
        attempted += 1
        failed += not traced["ok"] or traced["sha"] != reference
        layers = layer_metrics(tracer, traced["full_s"])
        layers.update(transfer_metrics([traced["job_result"]]))
        layers["runner.output_mb"] = (tree_mb(tmp / "traced"), "MB")
        layers["runner.parallel_efficiency"] = (traced["wall_s"] / wall, "ratio")
        untraced = statistics.median([r["full_s"] for r in repeats])
        layers["trace.untraced_wall_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (traced["full_s"] - untraced, "s")
        report["traced_fingerprint"] = fingerprint({"run/run_0/monthly.csv": traced["sha"]})
        report["spans"] = tracer.spans
    return finish(metrics, attempted, failed, report, layers)


def run_sweep(ps, workload: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    data_dir = tmp / "data"
    build_region(data_dir, workload.scale)
    config = tmp / "bench.cfg"
    config.write_text(
        f"PERCENTAGE_ACTUAL_POP = {workload.pop_share}\nMONTHS = {workload.months}\n",
        encoding="utf-8",
    )
    workers = worker_count()
    args = [workload.run_type, *workload.sweeps, "--data", str(data_dir)]
    args += ["--config", str(config), "--runs", str(workload.runs), "--seed", str(seed)]
    if workload.save_data:
        args += ["--save-data", workload.save_data]
    plan = ps.ExperimentPlan(
        run_type=workload.run_type,
        runs_per_config=workload.runs,
        sweeps=[ps.parse_sweep_spec(text) for text in workload.sweeps],
        master_seed=seed,
    )
    jobs = ps.expand_plan(plan, ps.load_config(str(config)), [FIXTURE])

    scaled = citizens_ok(ps, data_dir / FIXTURE, jobs[0].params, jobs[0].seed, workload)

    # Set-up happens inside the workers during a sweep, so setup_s times the
    # set-up of the sweep's first job in-process, after each pass so that the
    # samples spread over the run like the passes do.
    probe = []

    def one_pass(index: int) -> dict:
        out_dir = tmp / f"out{index}"
        done = sweep_pass(ps, args + ["--cores", str(workers)], out_dir, workload.months, len(jobs))
        shutil.rmtree(out_dir)
        for _ in range(SETUPS_PER_PASS):
            probe.append(engine_run(ps, data_dir / FIXTURE, jobs[0].params, jobs[0].seed, 0)["setup_s"])
        return done

    passes = repeat_for(seconds, one_pass)
    reference = passes[0]["hashes"]
    failed = sum(
        p["bad"] + sum(p["hashes"].get(k) != v for k, v in reference.items()) for p in passes
    )
    failed += not scaled
    wall = statistics.median([p["wall_s"] for p in passes])
    # A sweep's month cost is its worker time per simulated month, one sample
    # a pass: steps of a few milliseconds timed singly swing with the host's
    # speed far more than whole passes do.
    job_months = len(jobs) * workload.months
    months = [p["wall_s"] * workers / job_months for p in passes]
    report = {
        "fingerprint": fingerprint(reference),
        "monthly_csv": reference,
        "jobs": len(jobs),
        "samples": {
            "wall_s": len(passes),
            "setup_s": len(probe),
            "month_ms_p50": len(passes),
        },
    }
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(probe),
        "month_ms_p50": statistics.median(months) * 1000.0,
        "citizen_months_per_s": passes[0]["population"] / wall,
        "jobs_per_s": len(jobs) / wall,
        "peak_rss_mb": rss_mb(resource.RUSAGE_SELF),
        "worker_peak_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
    }
    attempted = len(jobs) * len(passes) + 1  # the citizen-count check is one attempt
    layers = None
    if trace:
        # Untraced serial passes on both sides of the traced one, so that a
        # drift in machine speed does not read as tracing overhead.
        serial_args = args + ["--cores", "1"]
        serial = [sweep_pass(ps, serial_args, tmp / "serial0", workload.months, len(jobs))]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = sweep_pass(ps, serial_args, tmp / "traced", workload.months, len(jobs))
        finally:
            tracer.uninstall()
        serial.append(sweep_pass(ps, serial_args, tmp / "serial1", workload.months, len(jobs)))
        for done in serial + [traced]:
            attempted += len(jobs)
            failed += done["bad"] + sum(done["hashes"].get(k) != v for k, v in reference.items())
        untraced = statistics.median([done["wall_s"] for done in serial])
        layers = layer_metrics(tracer, traced["wall_s"])
        layers.update(transfer_metrics(tracer.results))
        tracer.results.clear()
        layers["runner.output_mb"] = (tree_mb(tmp / "traced"), "MB")
        job_time = sum(tracing.durations(tracer.spans, "runner.job"))
        layers["runner.parallel_efficiency"] = (job_time / (workers * wall), "ratio")
        layers["trace.untraced_wall_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
        report["traced_fingerprint"] = fingerprint(traced["hashes"])
        report["spans"] = tracer.spans
    return finish(metrics, attempted, failed, report, layers)


def finish(metrics, attempted: int, failed: int, report: dict, layers) -> dict:
    metrics["ok_ratio"] = 1.0 - failed / attempted
    samples = report["samples"]
    samples["citizen_months_per_s"] = samples["jobs_per_s"] = samples["wall_s"]
    samples["peak_rss_mb"] = samples["worker_peak_rss_mb"] = 1
    samples["ok_ratio"] = attempted
    return {
        "end_to_end": {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()},
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    ps = load_engine()
    stamp = environment(seed, worker_count())
    OUT.mkdir(exist_ok=True)
    runner = run_single if workload.run_type == "single" else run_sweep
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outcome = runner(ps, workload, seed, seconds, trace, Path(tmp))
    outcome["report"]["environment"] = stamp
    outcome["report"]["workload"] = workload.name
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report = outcome["report"]
    spans = report.pop("spans", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        dump_spans(OUT / f"spans-{tag}.json", spans)
    chosen = outcome["per_layer"] if args.trace else outcome["end_to_end"]
    samples = report["samples"]
    for name, (value, unit) in outcome["end_to_end"].items():
        print(f"{name:<24} {value:>14.6g} {unit:<6} n={samples[name]}")
    if args.trace:
        for name, (value, unit) in chosen.items():
            print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"fingerprint {report['fingerprint']}")
    report["end_to_end"] = {k: v for k, (v, _) in outcome["end_to_end"].items()}
    if args.trace:
        report["per_layer"] = {k: v for k, (v, _) in chosen.items()}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": report["environment"]}))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
