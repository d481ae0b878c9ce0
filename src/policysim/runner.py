"""Job execution across worker processes, aggregation, and file outputs.

Jobs are fully independent. The coordinator loads each distinct region
once and sends it with every job that runs there, so workers read no region
files, and results are identical for any worker count.
A job sends back the tables it will write, not its world: a JobResult
holds the monthly matrix and the entity dumps its Job.save_data asks for.
Every output column is named once: the monthly.csv, mean.csv and std.csv
columns come from the MonthRecord fields (scheduler.monthly_table), and
each entity file is one DUMPS entry. Given an output directory, the
process that runs a job writes its run_<k>/ as soon as the job ends and
sends back only the monthly matrix; the coordinator writes mean.csv,
std.csv, plot.gp and summary.json after every job has been joined.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import InitVar, dataclass, field, fields
from functools import partial
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .demographics import GraveRecord
from .params import TAX_KINDS, params_as_flat_dict
from .realestate import SaleRecord
from .scheduler import TAX_COLUMNS, RunResult, monthly_table, run
from .stats import compare_tax_distributions, write_ks_report
from .world.regions import RegionData, load_region_data

if TYPE_CHECKING:
    from .sweeps import ExperimentPlan, Job


class Dump(NamedTuple):
    """One entity file: the entities it lists, in order, and its columns."""

    file_name: str
    entities: Callable[[RunResult], list]
    columns: tuple[tuple[str, Callable], ...]  # (column, getter) pairs


def _attributes(*names: str) -> tuple[tuple[str, Callable], ...]:
    return tuple((name, attrgetter(name)) for name in names)


def _items(*keys: str) -> tuple[tuple[str, Callable], ...]:
    return tuple((key, itemgetter(key)) for key in keys)


# --save-data flag -> the file it adds to each run directory
DUMPS = {
    "agents": Dump("agents.csv", lambda result: result.world.citizens.records(), _items(
        "id", "family_id", "age", "gender", "qualification", "employer", "wage"
    )),
    "grave": Dump("grave.csv", attrgetter("grave"), _attributes(
        *(spec.name for spec in fields(GraveRecord))
    )),
    "house": Dump("sales.csv", attrgetter("sales"), _attributes(
        *(spec.name for spec in fields(SaleRecord))
    )),
    "family": Dump("families.csv", lambda result: result.world.family_records(), (
        *_items("id"),
        ("members", lambda record: len(record["member_ids"])),
        *_items("residence"),
        ("owned_houses", lambda record: len(record["owned_houses"])),
        *_items("monthly_cash", "savings"),
    )),
    "firms": Dump("firms.csv", lambda result: result.world.firm_records(), (
        *_items("id"),
        ("municipality", itemgetter("municipality_id")),
        *_items("price", "cash", "wage_offer"),
        ("employees", lambda record: len(record["employee_ids"])),
        *_items("stock", "last_profit"),
    )),
}


@dataclass
class JobResult:
    """What one job sends back: its output tables, or the error it hit.

    Built as ``JobResult(job=job, result=run_result)``: the run becomes the
    monthly matrix plus the rows of each dump in ``job.save_data``, and the
    world it carried is not kept. Once its run_<k>/ is on disk the result
    is ``written`` and keeps no dump rows.
    """

    job: Job
    result: InitVar[RunResult | None] = None
    error: str | None = None
    columns: list[str] = field(init=False, default_factory=list)
    monthly: np.ndarray | None = field(init=False, default=None)
    dumps: dict[str, list[list]] = field(init=False, default_factory=dict)
    written: bool = field(init=False, default=False)

    def __post_init__(self, result: RunResult | None) -> None:
        if result is not None:
            self.columns, self.monthly = monthly_table(
                result.records, result.world.region.municipality_ids
            )
            self.dumps = {
                flag: [
                    [get(entity) for _, get in dump.columns]
                    for entity in dump.entities(result)
                ]
                for flag, dump in DUMPS.items()
                if flag in self.job.save_data
            }

    @property
    def ok(self) -> bool:
        return self.error is None


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _load_region(path: str) -> RegionData | str:
    """The region at path, or the error that loading it raised, as text."""
    try:
        return load_region_data(path)
    except Exception as exc:  # noqa: BLE001 - the error belongs to the region's jobs
        return _error(exc)


def _execute_job(
    payload: tuple[Job, RegionData | str], output_dir: str | None = None
) -> JobResult:
    """Run one job on its region; a region that failed to load is the job's error.

    With output_dir, the job's run_<k>/ is written here and the result
    comes back without its dump rows. A write error is not the job's: it
    propagates and stops the sweep.
    """
    job, region = payload
    if isinstance(region, str):
        job_result = JobResult(job=job, error=region)
    else:
        try:
            job_result = JobResult(job=job, result=run(region, job.params, job.seed))
        except Exception as exc:  # noqa: BLE001 - isolate failures per job
            job_result = JobResult(job=job, error=_error(exc))
    if output_dir is not None:
        _write_run(output_dir, job_result)
        job_result.dumps = {}
        job_result.written = True
    return job_result


def execute(
    jobs: list[Job], cores: int, data_dir: str, output_dir: str | None = None
) -> list[JobResult]:
    """Run all jobs on a pool of workers; results come back in job order.

    Each distinct region under data_dir is loaded once, here, and travels
    with its jobs. With output_dir, each job's run_<k>/ is on disk when the
    job ends; without it, write_outputs writes the run files. A worker
    process that exits mid-job raises BrokenProcessPool instead of leaving
    the sweep waiting.
    """
    if not jobs:
        raise ValueError("no jobs to execute")
    regions = {
        name: _load_region(os.path.join(data_dir, name))
        for name in dict.fromkeys(job.region_name for job in jobs)
    }
    payloads = [(job, regions[job.region_name]) for job in jobs]
    if cores == 1 or len(jobs) == 1:
        return [_execute_job(payload, output_dir) for payload in payloads]
    processes = os.cpu_count() if cores == -1 else cores
    processes = max(1, min(processes or 1, len(jobs)))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(partial(_execute_job, output_dir=output_dir), payloads))


def _write_csv(path, columns: list[str], rows: list[list]) -> None:
    """A float cell is its repr, None an empty cell. No cell needs quotes:
    the only free text, municipality ids, holds no comma, quote or line
    break (the region loader rejects them)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _write_run(output_dir: str, job_result: JobResult) -> None:
    """A job's run_<k>/: monthly.csv and each dump it holds, or, for a
    failed job, the empty directory."""
    job = job_result.job
    run_dir = os.path.join(output_dir, config_dir_name(job.config_id), f"run_{job.replicate}")
    os.makedirs(run_dir, exist_ok=True)
    if not job_result.ok:
        return
    _write_csv(
        os.path.join(run_dir, "monthly.csv"), job_result.columns, job_result.monthly.tolist()
    )
    for flag, rows in job_result.dumps.items():
        dump = DUMPS[flag]
        columns = [name for name, _ in dump.columns]
        _write_csv(os.path.join(run_dir, dump.file_name), columns, rows)


def aggregate(job_results: list[JobResult]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Pointwise mean and population std across replicates of one config."""
    if not job_results:
        raise ValueError("aggregate needs at least one result")
    stack = np.stack([job_result.monthly for job_result in job_results], axis=0)
    return job_results[0].columns, np.mean(stack, axis=0), np.std(stack, axis=0)


def _write_plot_script(directory: str, columns: list[str]) -> None:
    """Emit a gnuplot script over mean.csv instead of rendered images. A
    plotted column missing from ``columns`` raises ValueError."""
    plot_columns = ["unemployment", "price_index", "gini_wealth", "tax_total"]
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'month'",
    ]
    for name in plot_columns:
        lines.append(f"plot 'mean.csv' using 1:{columns.index(name) + 1} with lines")
        lines.append("pause -1")
    with open(os.path.join(directory, "plot.gp"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def simulated_tax_totals(
    results_by_region: dict[str, list[JobResult]],
) -> dict[str, dict[str, float]]:
    """Whole-run tax totals per region, averaged over replicates.

    Each kind is summed month by month in job order, one float at a time.
    """
    totals: dict[str, dict[str, float]] = {}
    for region, job_results in results_by_region.items():
        sums = {kind: 0.0 for kind in TAX_KINDS}
        for job_result in job_results:
            for kind, column in zip(TAX_KINDS, TAX_COLUMNS):
                index = job_result.columns.index(column)
                for value in job_result.monthly[:, index].tolist():
                    sums[kind] += value
        totals[region] = {kind: sums[kind] / len(job_results) for kind in TAX_KINDS}
    return totals


def write_outputs(
    plan: ExperimentPlan,
    job_results: list[JobResult],
    output_dir: str,
    reference: dict[str, dict[str, float]] | None = None,
) -> dict:
    """Write per-run, per-config, and whole-experiment files.

    Run files are written only for results that are not yet ``written``.
    reference is a loaded tax reference (stats.load_tax_reference); with
    it, ks_report.csv compares the simulated tax totals per region, or
    summary.json says why it could not. Returns the summary dict that also
    lands in summary.json.
    """
    os.makedirs(output_dir, exist_ok=True)
    by_config: dict[str, list[JobResult]] = {}
    for job_result in job_results:
        by_config.setdefault(job_result.job.config_id, []).append(job_result)

    summary = {
        "run_type": plan.run_type,
        "runs_per_config": plan.runs_per_config,
        "master_seed": plan.master_seed,
        "configs": [],
        "failures": [],
    }
    for config_id, bundle in by_config.items():
        config_dir = os.path.join(output_dir, config_dir_name(config_id))
        os.makedirs(config_dir, exist_ok=True)
        ok_results = []
        for job_result in bundle:
            if not job_result.written:
                _write_run(output_dir, job_result)
            if job_result.ok:
                ok_results.append(job_result)
            else:
                summary["failures"].append(
                    {
                        "config_id": config_id,
                        "replicate": job_result.job.replicate,
                        "error": job_result.error,
                    }
                )
        if ok_results:
            columns, mean, std = aggregate(ok_results)
            _write_csv(os.path.join(config_dir, "mean.csv"), columns, mean.tolist())
            _write_csv(os.path.join(config_dir, "std.csv"), columns, std.tolist())
            _write_plot_script(config_dir, columns)
        summary["configs"].append(
            {
                "config_id": config_id,
                "region": bundle[0].job.region_name,
                "seeds": [job_result.job.seed for job_result in bundle],
                "completed": len(ok_results),
                "params": params_as_flat_dict(bundle[0].job.params),
            }
        )

    if reference is not None:
        results_by_region: dict[str, list[JobResult]] = {}
        for job_result in job_results:
            if job_result.ok:
                results_by_region.setdefault(job_result.job.region_name, []).append(
                    job_result
                )
        failed_regions = sorted(set(reference) - set(results_by_region))
        if failed_regions:
            summary["ks_report_skipped"] = f"no completed run in region(s) {failed_regions}"
        else:
            report = compare_tax_distributions(
                simulated_tax_totals(results_by_region), reference
            )
            write_ks_report(report, os.path.join(output_dir, "ks_report.csv"))
            summary["ks_report"] = "ks_report.csv"

    with open(os.path.join(output_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def config_dir_name(config_id: str) -> str:
    """The directory of a config under the output directory."""
    return "".join(
        ch if ch.isalnum() or ch in "=._-" else "_" for ch in config_id
    )
