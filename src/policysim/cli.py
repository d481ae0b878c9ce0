"""Command-line entry point.

    policysim <run|sensitivity|distributions|acps> [options] [SWEEP_SPEC ...]

Sweep specs apply to sensitivity runs: a bare upper-case name toggles a
boolean parameter, NAME:first:last:count spans an inclusive numeric grid.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .params import ParamError, SimParams, load_config, set_param
from .runner import execute, write_outputs
from .stats import StatsError, check_region_keys, load_tax_reference
from .sweeps import (
    RUN_TYPES,
    SAVE_DATA_FLAGS,
    ExperimentPlan,
    SweepSpecError,
    expand_plan,
    parse_sweep_spec,
)
from .world.regions import list_regions


def default_data_dir() -> str:
    return str(resources.files("policysim").joinpath("data", "regions"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policysim",
        description=(
            "Seeded agent-based simulation of families, firms, and "
            "municipalities with fiscal-distribution experiments."
        ),
    )
    parser.add_argument("run_type", choices=RUN_TYPES)
    parser.add_argument("sweeps", nargs="*", help="sweep specs for sensitivity runs")
    parser.add_argument("--config", help="flat KEY = value parameter file")
    parser.add_argument("--data", help="directory of region subdirectories")
    parser.add_argument("--output", default="output", help="output directory")
    parser.add_argument("--runs", type=int, default=1, help="replicates per config")
    parser.add_argument(
        "--cores", type=int, default=-1, help="worker processes, -1 for all"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--months", type=int, help="override run length")
    parser.add_argument(
        "--save-data",
        default="",
        help=f"comma-separated extras from: {', '.join(SAVE_DATA_FLAGS)}",
    )
    parser.add_argument(
        "--reference",
        help="per-region tax totals CSV; enables the KS comparison report",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cores < 1 and args.cores != -1:
            raise ParamError(f"--cores = {args.cores} must be -1 (all) or >= 1")
        params = load_config(args.config) if args.config else SimParams()
        if args.months is not None:
            set_param(params, "MONTHS", args.months)
        params.validate()
        plan = ExperimentPlan(
            run_type=args.run_type,
            runs_per_config=args.runs,
            sweeps=[parse_sweep_spec(text) for text in args.sweeps],
            save_data={flag for flag in args.save_data.split(",") if flag},
            master_seed=args.seed,
        )
        data_dir = args.data or default_data_dir()
        regions = list_regions(data_dir)
        jobs = expand_plan(plan, params, regions)
        reference = None
        if args.reference is not None:
            reference = load_tax_reference(args.reference)
            check_region_keys({job.region_name for job in jobs}, set(reference))
    except (ParamError, SweepSpecError, StatsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{plan.run_type}: {len(jobs)} job(s) on {args.cores} core(s)")
    job_results = execute(jobs, args.cores, data_dir, args.output)
    summary = write_outputs(plan, job_results, args.output, reference)
    completed = sum(config["completed"] for config in summary["configs"])
    print(f"completed {completed}/{len(jobs)} runs -> {args.output}")
    for failure in summary["failures"]:
        print(
            f"failed: config {failure['config_id']} replicate "
            f"{failure['replicate']}: {failure['error']}",
            file=sys.stderr,
        )
    return 0 if not summary["failures"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
