import json
import os
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from policysim import SimParams
from policysim.fiscal import ALL_REGIMES, DistributionRegime
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
    values = spec.values
    # oracle: first + i * (last - first) / (count - 1)
    expected = [0.04 + i * (0.94 - 0.04) / 6 for i in range(7)]
    assert len(values) == 7
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-12
    assert values[0] == 0.04
    assert values[-1] == 0.94


def test_parse_sweep_boolean():
    spec = parse_sweep_spec("ALTERNATIVE0")
    assert spec.values == (True, False)


def test_parse_sweep_two_point_range():
    assert parse_sweep_spec("BETA:0:1:2").values == (0.0, 1.0)


def test_parse_sweep_integer_param_rounds():
    assert parse_sweep_spec("SIZE_MARKET:1:5:3").values == (1, 3, 5)


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


@pytest.mark.parametrize(
    "text, endpoint",
    [("MARKUP:0.1:1e400:2", "1e400"), ("MARKUP:nan:nan:2", "nan"), ("MARKUP:-inf:0.2:3", "-inf")],
)
def test_parse_sweep_rejects_non_finite_endpoint(text, endpoint, tmp_path, capsys):
    with pytest.raises(SweepSpecError, match=f"endpoint '{endpoint}' of"):
        parse_sweep_spec(text)
    out = tmp_path / "out"
    assert main(["sensitivity", text, "--output", str(out)]) == 2
    assert f"endpoint '{endpoint}'" in capsys.readouterr().err
    assert not out.exists()


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


def test_expand_distributions_is_the_sensitivity_grid_of_the_fiscal_toggles():
    params = SimParams()
    distributions = expand_plan(
        ExperimentPlan(run_type="distributions", runs_per_config=2, master_seed=3),
        params,
        ["fixture3"],
    )
    sensitivity = expand_plan(
        ExperimentPlan(
            run_type="sensitivity",
            runs_per_config=2,
            master_seed=3,
            sweeps=[parse_sweep_spec("ALTERNATIVE0"), parse_sweep_spec("FPM_DISTRIBUTION")],
        ),
        params,
        ["fixture3"],
    )
    assert [(job.config_id, job.seed, job.params) for job in distributions] == [
        (job.config_id, job.seed, job.params) for job in sensitivity
    ]
    order = [
        DistributionRegime(job.params.alternative0, job.params.fpm_distribution)
        for job in distributions[::2]
    ]
    assert order == list(ALL_REGIMES)


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


def test_plan_rejects_a_parameter_swept_twice():
    # both configs would run ALPHA=0.2 under labels that name 0.1 and 0.9
    plan = ExperimentPlan(
        run_type="sensitivity",
        sweeps=[parse_sweep_spec("ALPHA:.1:.9:2"), parse_sweep_spec("alpha:.2:.3:2")],
    )
    with pytest.raises(SweepSpecError, match="ALPHA is swept more than once"):
        expand_plan(plan, SimParams(), ["fixture3"])


def test_cli_rejects_a_parameter_swept_twice(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "sensitivity", "ALPHA:.1:.9:2", "BETA:.2:.4:2", "ALPHA:.2:.3:2",
        "--months", "3", "--output", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "ALPHA is swept more than once" in captured.err
    assert "job(s)" not in captured.out
    assert not out.exists()


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


def small_plan(tmp_path, run_type="run", runs=1, sweeps=(), save=()):
    return ExperimentPlan(
        run_type=run_type,
        runs_per_config=runs,
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


def _tree(directory):
    """Every file under directory, by its relative path, with its bytes."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _paths(directory):
    """Every file and directory under directory, by its relative path."""
    return {path.relative_to(directory).as_posix() for path in directory.rglob("*")}


def test_execute_core_count_invariance(tmp_path):
    """One output tree on 1 or 2 cores, whether each job writes its own
    run_<k>/ or write_outputs writes every file after the sweep."""
    plan = small_plan(tmp_path, "sensitivity", 2, ["ALPHA:0.3:0.7:2"], save=SAVE_DATA_FLAGS)
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    jobs.append(replace(jobs[0], config_id="missing_region", region_name="missing_region"))
    reference = tmp_path / "cores1_after_sweep"
    write_outputs(plan, execute(jobs, 1, default_data_dir()), str(reference))
    names = [name.rsplit("/", 1)[-1] for name in _tree(reference)]
    # two configs of two runs, each run with its monthly.csv and every dump
    for file_name in ["monthly.csv"] + [dump.file_name for dump in DUMPS.values()]:
        assert names.count(file_name) == 4
    assert names.count("mean.csv") == names.count("std.csv") == 2
    assert not list((reference / "missing_region" / "run_0").iterdir())

    for cores, by_jobs in [(1, True), (2, False), (2, True)]:
        out = tmp_path / f"cores{cores}_{'by_jobs' if by_jobs else 'after_sweep'}"
        results = execute(jobs, cores, default_data_dir(), str(out) if by_jobs else None)
        assert [result.job for result in results] == jobs
        if by_jobs:
            # every run_<k>/ is complete before the coordinator writes anything
            assert not (out / "summary.json").exists()
            assert len(list(out.glob("*/run_*/*.csv"))) == 4 * (1 + len(DUMPS))
        write_outputs(plan, results, str(out))
        assert _paths(out) == _paths(reference)
        assert _tree(out) == _tree(reference)


def test_interrupted_sweep_keeps_finished_runs(tmp_path, monkeypatch):
    import policysim.runner

    class Interrupted(BaseException):
        pass

    calls = []
    original = policysim.runner.run

    def run_until_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise Interrupted
        return original(*args)

    monkeypatch.setattr(policysim.runner, "run", run_until_third)
    plan = small_plan(tmp_path, "sensitivity", 2, ["ALPHA:0.3:0.7:2"], save=SAVE_DATA_FLAGS)
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    out = tmp_path / "out"
    with pytest.raises(Interrupted):
        execute(jobs, 1, default_data_dir(), str(out))
    finished = {"monthly.csv"} | {dump.file_name for dump in DUMPS.values()}
    for job in jobs[:2]:
        run_dir = out / job.config_id / f"run_{job.replicate}"
        assert {path.name for path in run_dir.iterdir()} == finished
    assert not (out / jobs[2].config_id).exists()


@pytest.mark.parametrize("cores", [1, 2])
def test_write_error_stops_the_sweep(tmp_path, cores):
    plan = small_plan(tmp_path, runs=2)
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    blocked = tmp_path / "output"
    blocked.write_text("a file, not a directory\n", encoding="utf-8")
    with pytest.raises(OSError):
        execute(jobs, cores, default_data_dir(), str(blocked))


@pytest.mark.parametrize("cores", [1, 2])
def test_execute_loads_each_region_once(tmp_path, monkeypatch, cores):
    import policysim.runner

    loads = []
    load = policysim.runner.load_region_data

    def counted_load(path):
        loads.append(os.path.basename(path))
        return load(path)

    monkeypatch.setattr(policysim.runner, "load_region_data", counted_load)
    plan = small_plan(tmp_path, run_type="acps", runs=2)
    jobs = expand_plan(plan, fast_params(), ["fixture3", "missing_region"])
    results = execute(jobs, cores=cores, data_dir=default_data_dir())
    assert loads == ["fixture3", "missing_region"]
    assert [result.job for result in results] == jobs
    assert [result.ok for result in results] == [
        job.region_name == "fixture3" for job in jobs
    ]
    missing = os.path.join(default_data_dir(), "missing_region")
    assert [result.error for result in results if not result.ok] == [
        f"RegionDataError: {missing}: region directory does not exist"
    ] * 2


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
    plan = small_plan(tmp_path, runs=2, save=SAVE_DATA_FLAGS)
    jobs = expand_plan(plan, fast_params(), ["fixture3"])
    in_process = JobResult(job=jobs[0], result=run(fixture3, jobs[0].params, jobs[0].seed))
    in_memory = execute(jobs, cores=1, data_dir=default_data_dir())
    for job_result in in_memory + [in_process]:
        assert job_result.ok and set(job_result.dumps) == set(SAVE_DATA_FLAGS)
        assert b"policysim.world.types" not in pickle.dumps(job_result)
    # a job that wrote its run_<k>/ sends back the monthly matrix alone
    for cores in (1, 2):
        written = execute(jobs, cores, default_data_dir(), str(tmp_path / f"cores{cores}"))
        for job_result, kept in zip(written, in_memory):
            assert job_result.ok and job_result.written and job_result.dumps == {}
            assert np.array_equal(job_result.monthly, kept.monthly)
            blob = pickle.dumps(job_result)
            assert b"policysim.world.types" not in blob
            assert len(blob) < len(pickle.dumps(kept))


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


@pytest.mark.parametrize(
    "contents",
    [
        None,
        b"region,tax_kind,total\nfixture3,wealth,1.0\n",
        b"region,tax_kind,total\nnowhere,labor,1.0\n",
        b"region,tax_kind,total\n\xff\xfe,labor,1.0\n",
    ],
    ids=["missing file", "unknown tax kind", "region mismatch", "not utf-8"],
)
def test_cli_checks_reference_before_any_job(tmp_path, capsys, contents):
    reference = tmp_path / "reference.csv"
    if contents is not None:
        reference.write_bytes(contents)
    out = tmp_path / "out"
    code = main([
        "run", "--months", "3", "--cores", "1",
        "--output", str(out), "--reference", str(reference),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "job(s)" not in captured.out
    assert not out.exists()


def test_cli_region_without_completed_run_has_no_ks_report(tmp_path, monkeypatch):
    import policysim.runner

    real_run = policysim.runner.run

    def run_failing_in_solo(region, params, seed):
        if region.name == "solo":
            raise RuntimeError("injected failure")
        return real_run(region, params, seed)

    monkeypatch.setattr(policysim.runner, "run", run_failing_in_solo)
    reference = tmp_path / "reference.csv"
    reference.write_text(
        "region,tax_kind,total\nfixture3,labor,1.0\nsolo,labor,2.0\n"
    )
    out = tmp_path / "out"
    code = main([
        "acps", "--months", "2", "--cores", "1",
        "--output", str(out), "--reference", str(reference),
    ])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ks_report_skipped"] == "no completed run in region(s) ['solo']"
    assert "ks_report" not in summary
    assert not (out / "ks_report.csv").exists()


def test_expand_plan_rejects_configs_sharing_a_directory():
    with pytest.raises(SweepSpecError) as err:
        expand_plan(ExperimentPlan(run_type="acps"), SimParams(), ["a b", "a_b"])
    assert "configs 'a b' and 'a_b'" in str(err.value)


def test_cli_rejects_configs_sharing_a_directory(tmp_path, capsys):
    import shutil

    data = tmp_path / "data"
    for name in ("a b", "a_b"):
        shutil.copytree(os.path.join(default_data_dir(), "fixture3"), data / name)
    out = tmp_path / "out"
    code = main([
        "acps", "--months", "3", "--cores", "1",
        "--data", str(data), "--output", str(out),
    ])
    assert code == 2
    assert "'a b' and 'a_b'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cores", ["0", "-5"])
def test_cli_rejects_meaningless_cores(tmp_path, capsys, cores):
    out = tmp_path / "out"
    code = main(["run", "--months", "3", "--cores", cores, "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --cores")
    assert "job(s)" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("run_type", ["run", "sensitivity", "distributions", "acps"])
def test_every_processing_acps_name_must_be_a_region(run_type):
    params = SimParams(processing_acps=["fixture3", "nowhere"])
    sweeps = [parse_sweep_spec("ALPHA:0.1:0.2:2")] if run_type == "sensitivity" else []
    plan = ExperimentPlan(run_type=run_type, sweeps=sweeps)
    with pytest.raises(SweepSpecError, match="'nowhere' not found"):
        expand_plan(plan, params, ["fixture3"])


def test_cli_rejects_an_unknown_region_after_the_first(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("PROCESSING_ACPS = fixture3,nowhere\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "distributions", "--months", "3", "--cores", "1",
        "--config", str(config), "--output", str(out),
    ])
    assert code == 2
    assert "'nowhere' not found" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_unknown_sweep(tmp_path, capsys):
    code = main(["sensitivity", "BOGUS:1:2:3", "--output", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err
