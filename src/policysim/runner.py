"""Job execution across worker processes, aggregation, and file outputs.

Jobs are fully independent; workers receive (job, data_dir) pairs and load
their region from disk, so results are identical for any worker count.
The coordinator writes all files after every job has been joined.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .params import TAX_KINDS, params_as_flat_dict
from .scheduler import MonthRecord, RunResult, run
from .stats import compare_tax_distributions, load_tax_reference, write_ks_report
from .sweeps import ExperimentPlan, Job
from .world.regions import load_region_data


@dataclass
class JobResult:
    job: Job
    result: RunResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute_job(payload: tuple[Job, str]) -> JobResult:
    job, data_dir = payload
    try:
        region = load_region_data(os.path.join(data_dir, job.region_name))
        result = run(region, job.params, job.seed)
        return JobResult(job=job, result=result)
    except Exception as exc:  # noqa: BLE001 - isolate failures per job
        return JobResult(job=job, error=f"{type(exc).__name__}: {exc}")


def execute(jobs: list[Job], cores: int, data_dir: str) -> list[JobResult]:
    """Run all jobs on a pool of workers; results come back in job order."""
    if not jobs:
        raise ValueError("no jobs to execute")
    payloads = [(job, data_dir) for job in jobs]
    if cores == 1 or len(jobs) == 1:
        return [_execute_job(payload) for payload in payloads]
    processes = os.cpu_count() if cores == -1 else cores
    processes = max(1, min(processes or 1, len(jobs)))
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(_execute_job, payloads)


def record_columns(municipality_ids: list[str]) -> list[str]:
    columns = [
        "month",
        "population",
        "unemployment",
        "price_index",
        "inflation",
        "house_price_index",
        "gini_wealth",
    ]
    columns += [f"tax_{kind}" for kind in TAX_KINDS]
    columns.append("tax_total")
    columns += [f"qli_{muni}" for muni in municipality_ids]
    return columns


def record_row(record: MonthRecord, municipality_ids: list[str]) -> list[float]:
    row = [
        float(record.month),
        float(record.population),
        record.unemployment,
        record.price_index,
        record.inflation,
        record.house_price_index,
        record.gini_wealth,
    ]
    row += [record.taxes[kind] for kind in TAX_KINDS]
    row.append(record.tax_total)
    row += [record.qli[muni] for muni in municipality_ids]
    return row


def result_matrix(result: RunResult) -> tuple[list[str], np.ndarray]:
    municipality_ids = list(result.world.municipalities.keys())
    columns = record_columns(municipality_ids)
    if not result.records:
        return columns, np.empty((0, len(columns)))
    rows = [record_row(record, municipality_ids) for record in result.records]
    return columns, np.asarray(rows, dtype=float)


def _write_csv(path, columns: list[str], matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in matrix:
            handle.write(",".join(repr(float(value)) for value in row) + "\n")


def write_monthly_csv(result: RunResult, path) -> None:
    columns, matrix = result_matrix(result)
    _write_csv(path, columns, matrix)


def aggregate(results: list[RunResult]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Pointwise mean and population std across replicates of one config."""
    if not results:
        raise ValueError("aggregate needs at least one result")
    columns, first = result_matrix(results[0])
    stack = np.stack(
        [first] + [result_matrix(result)[1] for result in results[1:]], axis=0
    )
    return columns, np.mean(stack, axis=0), np.std(stack, axis=0)


def _write_entity_dumps(result: RunResult, directory: str, flags: set[str]) -> None:
    world = result.world
    if "agents" in flags:
        rows = [
            [c.id, c.family_id, c.age, c.gender, c.qualification, c.employer, c.wage]
            for c in sorted(world.citizens.values(), key=lambda c: c.id)
        ]
        _write_plain_csv(
            os.path.join(directory, "agents.csv"),
            ["id", "family_id", "age", "gender", "qualification", "employer", "wage"],
            rows,
        )
    if "family" in flags:
        rows = [
            [f.id, len(f.member_ids), f.residence, len(f.owned_houses), f.monthly_cash, f.savings]
            for f in sorted(world.families.values(), key=lambda f: f.id)
        ]
        _write_plain_csv(
            os.path.join(directory, "families.csv"),
            ["id", "members", "residence", "owned_houses", "monthly_cash", "savings"],
            rows,
        )
    if "firms" in flags:
        rows = [
            [fm.id, fm.municipality_id, fm.price, fm.cash, fm.wage_offer,
             len(fm.employee_ids), fm.stock, fm.last_profit]
            for fm in sorted(world.firms.values(), key=lambda fm: fm.id)
        ]
        _write_plain_csv(
            os.path.join(directory, "firms.csv"),
            ["id", "municipality", "price", "cash", "wage_offer",
             "employees", "stock", "last_profit"],
            rows,
        )
    if "house" in flags:
        rows = [
            [s["month"], s["house_id"], s["seller_id"], s["buyer_id"],
             s["bid"], s["offer"], s["transaction_price"], s["tax"]]
            for s in result.sales
        ]
        _write_plain_csv(
            os.path.join(directory, "sales.csv"),
            ["month", "house_id", "seller_id", "buyer_id",
             "bid", "offer", "transaction_price", "tax"],
            rows,
        )
    if "grave" in flags:
        rows = [
            [g["id"], g["month"], g["age"], g["gender"], g["family_id"]]
            for g in result.grave
        ]
        _write_plain_csv(
            os.path.join(directory, "grave.csv"),
            ["id", "month", "age", "gender", "family_id"],
            rows,
        )


def _write_plain_csv(path, columns: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_cell(value) for value in row) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_plot_script(directory: str, columns: list[str]) -> None:
    """Emit a gnuplot script over mean.csv instead of rendered images."""
    plot_columns = ["unemployment", "price_index", "gini_wealth", "tax_total"]
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'month'",
    ]
    for name in plot_columns:
        if name in columns:
            index = columns.index(name) + 1
            lines.append(f"plot 'mean.csv' using 1:{index} with lines")
            lines.append("pause -1")
    with open(os.path.join(directory, "plot.gp"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def simulated_tax_totals(results_by_region: dict[str, list[RunResult]]) -> dict[str, dict[str, float]]:
    """Whole-run tax totals per region, averaged over replicates."""
    totals: dict[str, dict[str, float]] = {}
    for region, results in results_by_region.items():
        sums = {kind: 0.0 for kind in TAX_KINDS}
        for result in results:
            for record in result.records:
                for kind in TAX_KINDS:
                    sums[kind] += record.taxes[kind]
        totals[region] = {kind: sums[kind] / len(results) for kind in TAX_KINDS}
    return totals


def write_outputs(
    plan: ExperimentPlan,
    job_results: list[JobResult],
    output_dir: str,
    reference_path: str | None = None,
) -> dict:
    """Write per-run, per-config, and whole-experiment files.

    Returns the summary dict that also lands in summary.json.
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
        config_dir = os.path.join(output_dir, _safe_name(config_id))
        os.makedirs(config_dir, exist_ok=True)
        ok_results = []
        for job_result in bundle:
            run_dir = os.path.join(config_dir, f"run_{job_result.job.replicate}")
            os.makedirs(run_dir, exist_ok=True)
            if job_result.ok:
                write_monthly_csv(job_result.result, os.path.join(run_dir, "monthly.csv"))
                _write_entity_dumps(job_result.result, run_dir, plan.save_data)
                ok_results.append(job_result.result)
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
            _write_csv(os.path.join(config_dir, "mean.csv"), columns, mean)
            _write_csv(os.path.join(config_dir, "std.csv"), columns, std)
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

    if reference_path is not None:
        results_by_region: dict[str, list[RunResult]] = {}
        for job_result in job_results:
            if job_result.ok:
                results_by_region.setdefault(job_result.job.region_name, []).append(
                    job_result.result
                )
        report = compare_tax_distributions(
            simulated_tax_totals(results_by_region), load_tax_reference(reference_path)
        )
        write_ks_report(report, os.path.join(output_dir, "ks_report.csv"))
        summary["ks_report"] = "ks_report.csv"

    with open(os.path.join(output_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def _safe_name(config_id: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "=._-" else "_" for ch in config_id
    )
