import json
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from policysim import SimParams
from policysim.params import ParamError, parse_config_text, set_param
from policysim.runner import DUMPS, JobResult, aggregate, execute, write_outputs
from policysim.scheduler import MonthRecord, RunResult, monthly_table, run
from policysim.sweeps import (
    SAVE_DATA_FLAGS,
    ExperimentPlan,
    Job,
    SweepSpecError,
    derive_seed,
    expand_plan,
    parse_sweep_spec,
)
from policysim.cli import default_data_dir, main

from conftest import make_world


def test_parse_sweep_alpha_grid():
    spec = parse_sweep_spec("ALPHA:.04:.94:7")
    values = spec.values()
    # oracle: first + i * (last - first) / (count - 1)
    expected = [0.04 + i * (0.94 - 0.04) / 6 for i in range(7)]
    assert len(values) == 7
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-12
    assert values[0] == 0.04
    assert values[-1] == 0.94


def test_parse_sweep_boolean():
    spec = parse_sweep_spec("ALTERNATIVE0")
    assert spec.kind == "boolean"
    assert spec.values() == [True, False]


def test_parse_sweep_two_point_range():
    assert parse_sweep_spec("BETA:0:1:2").values() == [0.0, 1.0]


def test_parse_sweep_integer_param_rounds():
    values = parse_sweep_spec("SIZE_MARKET:1:5:3").values()
    assert values == [1, 3, 5]


def test_parse_sweep_errors():
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("NOT_A_PARAM:1:2:2")
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("ALPHA:0:1:1")  # count < 2
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("ALPHA:zero:1:2")
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("ALPHA")  # numeric parameter needs a range
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("ALTERNATIVE0:0:1:2")  # boolean takes no range
    with pytest.raises(SweepSpecError):
        parse_sweep_spec("ALPHA:1:0:3")  # first > last


@pytest.mark.parametrize("text", ["LABOR_MARKET:1:2:4", "ALPHA:0.5:0.5:3"])
def test_parse_sweep_rejects_repeated_grid_values(text, tmp_path):
    # LABOR_MARKET:1:2:4 rounds to [1, 1, 2, 2]: four jobs, two configs
    with pytest.raises(SweepSpecError, match="repeats grid values"):
        parse_sweep_spec(text)
    assert main(["sensitivity", text, "--output", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["PROCESSING_ACPS:1:2:2", "PROCESSING_ACPS"])
def test_parse_sweep_rejects_list_parameter(text, tmp_path, capsys):
    with pytest.raises(SweepSpecError, match="acps run type"):
        parse_sweep_spec(text)
    assert main(["sensitivity", text, "--output", str(tmp_path)]) == 2
    assert "acps run type" in capsys.readouterr().err


def test_expand_sensitivity_28_jobs():
    plan = ExperimentPlan(
        run_type="sensitivity",
        runs_per_config=4,
        sweeps=[parse_sweep_spec("ALPHA:.04:.94:7")],
    )
    jobs = expand_plan(plan, SimParams(), ["fixture3"])
    assert len(jobs) == 28
    alphas = {job.params.alpha for job in jobs}
    assert len(alphas) == 7
    config_ids = {job.config_id for job in jobs}
    assert len(config_ids) == 7


def test_expand_distributions_four_regimes():
    plan = ExperimentPlan(run_type="distributions")
    jobs = expand_plan(plan, SimParams(), ["fixture3"])
    assert len(jobs) == 4
    regimes = {(job.params.alternative0, job.params.fpm_distribution) for job in jobs}
    assert regimes == {(True, True), (True, False), (False, True), (False, False)}


def test_expand_run_single_job():
    plan = ExperimentPlan(run_type="run")
    jobs = expand_plan(plan, SimParams(), ["fixture3"])
    assert len(jobs) == 1


def test_expand_acps_covers_every_region():
    plan = ExperimentPlan(run_type="acps", runs_per_config=2)
    jobs = expand_plan(plan, SimParams(), ["fixture3", "solo"])
    assert len(jobs) == 4
    assert {job.region_name for job in jobs} == {"fixture3", "solo"}


def test_plan_validation():
    with pytest.raises(SweepSpecError):
        ExperimentPlan(run_type="sensitivity").validate()
    with pytest.raises(SweepSpecError):
        ExperimentPlan(run_type="run", sweeps=[parse_sweep_spec("ALTERNATIVE0")]).validate()
    with pytest.raises(SweepSpecError):
        ExperimentPlan(run_type="run", save_data={"everything"}).validate()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, "config", 0) == derive_seed(0, "config", 0)
    assert derive_seed(0, "config", 0) != derive_seed(0, "config", 1)
    assert derive_seed(0, "config", 0) != derive_seed(1, "config", 0)
    assert derive_seed(0, "a", 0) != derive_seed(0, "b", 0)


def fake_result(values, seed=0):
    region = make_world().region
    world = make_world(region=region, seed=seed)
    records = [
        MonthRecord(
            month=i,
            population=10,
            unemployment=0.1,
            price_index=v,
            inflation=0.0,
            house_price_index=1.0,
            gini_wealth=0.2,
            taxes={k: 0.0 for k in ("consumption", "labor", "transaction", "firms", "property")},
            qli={"m0": 1.0},
        )
        for i, v in enumerate(values)
    ]
    job = Job("fake", 0, seed, SimParams(), region.name)
    return JobResult(job=job, result=RunResult(records=records, world=world, seed=seed))


def test_aggregate_single_replicate():
    columns, mean, std = aggregate([fake_result([2.0, 4.0])])
    price_column = columns.index("price_index")
    assert mean[:, price_column].tolist() == [2.0, 4.0]
    assert std[:, price_column].tolist() == [0.0, 0.0]


def test_aggregate_population_std():
    columns, mean, std = aggregate([fake_result([2.0]), fake_result([4.0])])
    price_column = columns.index("price_index")
    assert mean[0, price_column] == 3.0
    assert std[0, price_column] == 1.0  # population convention


def small_plan(tmp_path, run_type="run", runs=1, sweeps=(), cores=1, save=()):
    return ExperimentPlan(
        run_type=run_type,
        runs_per_config=runs,
        cores=cores,
        sweeps=[parse_sweep_spec(s) for s in sweeps],
        output_dir=str(tmp_path),
        save_data=set(save),
        master_seed=7,
    )


def fast_params():
    params = SimParams()
    params.months = 4
    params.percentage_actual_pop = 0.1
    return params


def test_execute_isolates_failures(tmp_path):
    plan = small_plan(tmp_path, run_type="acps")
    jobs = expand_plan(plan, fast_params(), ["fixture3", "missing_region"])
    results = execute(jobs, cores=1, data_dir=default_data_dir())
    assert results[0].ok
    assert not results[1].ok
    assert "missing_region" in results[1].job.config_id
    summary = write_outputs(plan, results, str(tmp_path))
    assert len(summary["failures"]) == 1
    assert summary["failures"][0]["config_id"] == "missing_region"


def test_execute_core_count_invariance(tmp_path):
    plan = small_plan(tmp_path, run_type="sensitivity", runs=2, sweeps=["ALPHA:0.3:0.7:2"])
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    serial = execute(jobs, cores=1, data_dir=default_data_dir())
    parallel = execute(jobs, cores=2, data_dir=default_data_dir())
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    write_outputs(small_plan(out_a, "sensitivity", 2, ["ALPHA:0.3:0.7:2"]), serial, str(out_a))
    write_outputs(small_plan(out_b, "sensitivity", 2, ["ALPHA:0.3:0.7:2"]), parallel, str(out_b))
    for config_dir in sorted(os.listdir(out_a)):
        mean_a = out_a / config_dir / "mean.csv"
        if mean_a.is_file():
            mean_b = out_b / config_dir / "mean.csv"
            assert mean_a.read_bytes() == mean_b.read_bytes()


def test_write_outputs_files(tmp_path):
    plan = small_plan(tmp_path, save=("agents", "grave", "house", "family", "firms"))
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    results = execute(jobs, cores=1, data_dir=default_data_dir())
    write_outputs(plan, results, str(tmp_path))
    run_dir = tmp_path / "run" / "run_0"
    for name in ("monthly.csv", "agents.csv", "grave.csv", "sales.csv",
                 "families.csv", "firms.csv"):
        assert (run_dir / name).is_file()
    config_dir = tmp_path / "run"
    assert (config_dir / "mean.csv").is_file()
    assert (config_dir / "std.csv").is_file()
    assert (config_dir / "plot.gp").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["run_type"] == "run"
    assert summary["configs"][0]["seeds"]


def test_no_world_leaves_the_job(tmp_path, fixture3):
    plan = small_plan(tmp_path, save=SAVE_DATA_FLAGS)
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    in_process = JobResult(job=jobs[0], result=run(fixture3, jobs[0].params, jobs[0].seed))
    for job_result in execute(jobs, cores=1, data_dir=default_data_dir()) + [in_process]:
        assert job_result.ok and set(job_result.dumps) == set(SAVE_DATA_FLAGS)
        assert b"policysim.world.types" not in pickle.dumps(job_result)


def _readme_outputs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Outputs", 1)[1].split("\n## ", 1)[0]


def test_readme_outputs_match_declared_columns():
    section = _readme_outputs()
    dumps = {}
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and line.lstrip("| ").startswith("`"):
            dumps[cells[0]] = (cells[1], cells[2])
    assert dumps == {
        flag: (dump.file_name, ",".join(name for name, _ in dump.columns))
        for flag, dump in DUMPS.items()
    }
    monthly = ",".join(re.findall(r"`([a-z_]+,[a-z_,]+)`", section.split("|", 1)[0]))
    assert monthly == ",".join(monthly_table([], [])[0])


def test_config_text_parsing():
    params = parse_config_text(
        """
        # comment line
        ALPHA = 0.25
        BETA = 0.8
        LABOR_MARKET = 4
        WAGE_IGNORE_UNEMPLOYMENT = true
        TAXES.CONSUMPTION = 0.07
        TAXES_STRUCTURE.TRUE_TRUE.CONSUMPTION.LOCAL = 0.5
        TAXES_STRUCTURE.TRUE_TRUE.CONSUMPTION.EQUAL_POOL = 0.5
        PROCESSING_ACPS = fixture3,solo
        """
    )
    assert params.alpha == 0.25
    assert params.beta == 0.8
    assert params.labor_market_frequency == 4
    assert params.wage_ignore_unemployment is True
    assert params.taxes.consumption == 0.07
    assert params.taxes_structure["TRUE_TRUE.CONSUMPTION.LOCAL"] == 0.5
    assert params.processing_acps == ["fixture3", "solo"]


def test_config_errors():
    with pytest.raises(ParamError):
        parse_config_text("NOPE = 1")
    with pytest.raises(ParamError):
        parse_config_text("ALPHA = high")
    with pytest.raises(ParamError):
        parse_config_text("ALPHA = 2.0")  # out of range


def test_set_param_paths():
    params = SimParams()
    set_param(params, "TAXES.PROPERTY", 0.004)
    assert params.taxes.property == 0.004
    set_param(params, "MONTHS", 12)
    assert params.months == 12
    with pytest.raises(ParamError):
        set_param(params, "BOGUS", 1)


def test_cli_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run",
        "--months", "3",
        "--output", str(out),
        "--seed", "5",
        "--cores", "1",
    ])
    assert code == 0
    assert (out / "summary.json").is_file()
    monthly = out / "run" / "run_0" / "monthly.csv"
    assert monthly.is_file()
    header = monthly.read_text().splitlines()[0]
    assert header.startswith("month,population,unemployment,price_index")
    assert "qli_core" in header


def test_cli_reference_report(tmp_path):
    reference = tmp_path / "reference.csv"
    with open(reference, "w") as fh:
        fh.write("region,tax_kind,total\n")
        for kind in ("consumption", "labor", "transaction", "firms", "property"):
            fh.write(f"fixture3,{kind},1.0\n")
            fh.write(f"solo,{kind},2.0\n")
    out = tmp_path / "out"
    code = main([
        "acps",
        "--months", "2",
        "--output", str(out),
        "--reference", str(reference),
        "--cores", "1",
    ])
    assert code == 0
    report = (out / "ks_report.csv").read_text().splitlines()
    assert len(report) == 7


def test_cli_rejects_unknown_sweep(tmp_path, capsys):
    code = main(["sensitivity", "BOGUS:1:2:3", "--output", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err
