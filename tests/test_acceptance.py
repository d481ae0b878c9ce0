"""Acceptance suite: one test per release criterion, each printing a verdict."""

import multiprocessing
import os

import numpy as np
import pytest

from policysim import SimParams, generate_world, run
from policysim.fiscal import (
    ALL_REGIMES,
    DistributionRegime,
    TaxLedger,
    channel_fractions,
    distribute,
)
from policysim.labor import calibrate_initial_unemployment
from policysim.params import TAX_KINDS
from policysim.runner import aggregate, execute, write_outputs
from policysim.scheduler import step
from policysim.stats import ks_two_sample
from policysim.sweeps import ExperimentPlan, expand_plan, parse_sweep_spec
from policysim.cli import default_data_dir
from policysim.world.regions import load_region_data

SEEDS = list(range(1, 11))


def verdict(criterion, text):
    print(f"[acceptance] {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def fixture3_region():
    return load_region_data(os.path.join(default_data_dir(), "fixture3"))


def fiscal_experiment_params():
    """Shared parameterization of the fiscal distribution experiments."""
    params = SimParams()
    params.months = 240
    params.percentage_actual_pop = 1.0
    params.percentage_check_new_location = 0.1
    params.hedonic_base_coefficient = 0.02
    params.reference_cost_per_capita = 0.2
    params.taxes.property = 0.02
    return params


def final_qli_population_weighted(result):
    record = result.records[-1]
    populations = result.world.population_by_municipality().tolist()
    total = sum(populations)
    weighted = (qli * population for qli, population in zip(record.qli.values(), populations))
    return sum(weighted) / max(1, total)


def regime_final_qli(region, alternative0, fpm, seed):
    params = fiscal_experiment_params()
    params.alternative0 = alternative0
    params.fpm_distribution = fpm
    return final_qli_population_weighted(run(region, params, seed))


@pytest.fixture(scope="module")
def regime_outcomes(fixture3_region):
    """Mean population-weighted final QLI per regime over the shared seeds.

    Each run depends only on its own seed, so the 40 runs go to a process
    pool; the finals come back in submission order and are averaged as a
    serial loop would average them.
    """
    regimes = [(True, True), (False, True), (True, False), (False, False)]
    runs = [(fixture3_region, *regime, seed) for regime in regimes for seed in SEEDS]
    with multiprocessing.Pool(processes=min(4, os.cpu_count() or 1)) as pool:
        finals = pool.starmap(regime_final_qli, runs)
    return {
        regime: float(np.mean(finals[index * len(SEEDS):(index + 1) * len(SEEDS)]))
        for index, regime in enumerate(regimes)
    }


def test_c01_distribution_fractions_exact():
    tt = DistributionRegime(True, True)
    ft = DistributionRegime(False, True)
    tf = DistributionRegime(True, False)
    ff = DistributionRegime(False, False)
    assert dict(channel_fractions(tt, {})["consumption"]) == {"local": 0.1875, "equal_pool": 0.8125}
    assert dict(channel_fractions(tt, {})["labor"]) == {"equal_pool": 0.765, "fpm_pool": 0.235}
    assert dict(channel_fractions(tt, {})["transaction"]) == {"local": 1.0}
    assert dict(channel_fractions(tt, {})["firms"]) == {"equal_pool": 0.765, "fpm_pool": 0.235}
    assert dict(channel_fractions(tt, {})["property"]) == {"local": 1.0}
    assert dict(channel_fractions(ft, {})["consumption"]) == {"equal_pool": 1.0}
    assert dict(channel_fractions(ft, {})["labor"]) == {"equal_pool": 0.765, "fpm_pool": 0.235}
    for kind in TAX_KINDS:
        assert dict(channel_fractions(tf, {})[kind]) == {"local": 1.0}
        assert dict(channel_fractions(ff, {})[kind]) == {"equal_pool": 1.0}

    ledger = TaxLedger()
    ledger.add(0, "consumption", 100.0)
    receipts = distribute(ledger, tt, {}, [1, 1, 1], [(0, 10**9, 1.0)])
    assert abs(receipts[0] - 45.833333333333336) <= 1e-9
    verdict("C1", "default matrix fractions are exact digit for digit")


def test_c02_conservation_over_randomized_ledgers():
    rng = np.random.default_rng(2024)
    municipalities = range(4)
    brackets = [(0, 100, 0.6), (100, 1000, 1.0), (1000, 10**9, 1.6)]
    for _ in range(1000):
        ledger = TaxLedger()
        for code in municipalities:
            for kind in TAX_KINDS:
                ledger.add(code, kind, float(rng.uniform(0, 10_000)))
        populations = [int(rng.integers(1, 5000)) for _ in municipalities]
        total = ledger.total()
        for regime in ALL_REGIMES:
            receipts = distribute(ledger, regime, {}, populations, brackets)
            assert abs(sum(receipts) - total) <= 1e-9 * total
    verdict("C2", "1000 randomized ledgers x 4 regimes conserve the collected total")


def test_c03_monetary_audit(fixture3_region):
    params = SimParams()
    params.percentage_actual_pop = 1.0  # about 1,000 citizens
    params.taxes.property = 0.002  # all five taxes active
    world = generate_world(fixture3_region, params, seed=11)
    assert len(world.citizens) == 1000
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    worst = 0.0
    for _ in range(60):
        before = world.total_money()
        record = step(world, params)
        after = world.total_money()
        worst = max(worst, abs((after - before) + record.tax_total))
    assert worst <= 1e-6
    verdict("C3", f"60-month money drift vs investment sink: {worst:.2e} <= 1e-6")


def test_c04_determinism_and_core_invariance(tmp_path, fixture3_region):
    from policysim.runner import write_monthly_csv

    params = SimParams()
    params.months = 240
    for index in (1, 2):
        result = run(fixture3_region, params, seed=99)
        write_monthly_csv(result, tmp_path / f"monthly_{index}.csv")
    assert (tmp_path / "monthly_1.csv").read_bytes() == (tmp_path / "monthly_2.csv").read_bytes()

    sweep_params = SimParams()
    sweep_params.months = 12
    sweep_params.percentage_actual_pop = 0.1
    plan = ExperimentPlan(
        run_type="sensitivity",
        runs_per_config=4,
        sweeps=[parse_sweep_spec("ALPHA:.04:.94:7")],
        master_seed=17,
    )
    jobs = expand_plan(plan, sweep_params, ["fixture3"])
    assert len(jobs) == 28
    serial = execute(jobs, cores=1, data_dir=default_data_dir())
    parallel = execute(jobs, cores=8, data_dir=default_data_dir())
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    write_outputs(plan, serial, str(out_serial))
    write_outputs(plan, parallel, str(out_parallel))
    compared = 0
    for config_dir in sorted(os.listdir(out_serial)):
        mean_path = out_serial / config_dir / "mean.csv"
        if mean_path.is_file():
            assert mean_path.read_bytes() == (out_parallel / config_dir / "mean.csv").read_bytes()
            assert (out_serial / config_dir / "std.csv").read_bytes() == (
                out_parallel / config_dir / "std.csv"
            ).read_bytes()
            compared += 1
    assert compared == 7
    verdict("C4", "identical seeds are byte-identical; 28-job sweep matches on 1 vs 8 cores")


def test_c05_ks_statistic_matches_oracle():
    def brute_force(a, b):
        best = 0.0
        for x in list(a) + list(b):
            fa = sum(1 for v in a if v <= x) / len(a)
            fb = sum(1 for v in b if v <= x) / len(b)
            best = max(best, abs(fa - fb))
        return best

    rng = np.random.default_rng(555)
    for _ in range(100):
        a = rng.normal(0, 1, size=int(rng.integers(1, 51)))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=int(rng.integers(1, 51)))
        d, _ = ks_two_sample(a, b)
        assert abs(d - brute_force(a.tolist(), b.tolist())) <= 1e-12
    d_same, _ = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d_same == 0.0
    d_disjoint, _ = ks_two_sample([0.0, 0.1], [5.0, 6.0])
    assert d_disjoint == 1.0
    verdict("C5", "KS statistic matches the brute-force ECDF oracle on 100 pairs")


def test_c06_macro_sanity_window(fixture3_region):
    worst_drift = 0.0
    u_low, u_high = 1.0, 0.0
    for seed in SEEDS:
        params = SimParams()
        world = generate_world(fixture3_region, params, seed=seed)
        calibrate_initial_unemployment(
            world, params.initial_unemployment, params, world.rng
        )
        for _ in range(240):
            before = world.total_money()
            record = step(world, params)
            after = world.total_money()
            worst_drift = max(worst_drift, abs((after - before) + record.tax_total))
            assert 0.0 < record.unemployment < 1.0
            assert record.price_index > 0.0
            assert np.isfinite(record.price_index)
            assert np.isfinite(record.inflation)
            u_low = min(u_low, record.unemployment)
            u_high = max(u_high, record.unemployment)
        assert worst_drift <= 1e-6
    verdict(
        "C6",
        f"240 months x 10 seeds: unemployment within ({u_low:.3f}, {u_high:.3f}), "
        f"audit drift {worst_drift:.2e}",
    )


def test_c07_merged_municipalities_boost_qli(regime_outcomes):
    merged = regime_outcomes[(False, False)]
    autonomous = regime_outcomes[(True, False)]
    assert merged >= autonomous
    verdict(
        "C7",
        f"with the transfer pool off, merged {merged:.4f} >= autonomous {autonomous:.4f}",
    )


def test_c08_merged_with_transfers_is_best(regime_outcomes):
    best = regime_outcomes[(False, True)]
    for regime, value in regime_outcomes.items():
        assert best >= value, f"regime {regime} beats (False, True)"
    ordering = ", ".join(
        f"alt0={a} fpm={f}: {v:.4f}" for (a, f), v in sorted(regime_outcomes.items())
    )
    verdict("C8", f"merged+transfers attains the maximum ({ordering})")


def test_c09_demographic_oracles():
    from policysim.demographics import age_step, fertility_step, mortality_step
    from policysim.world.regions import monthly_probability
    from conftest import make_region, make_world, simple_citizen, simple_family, simple_house

    def population(count, mortality, fertility, seed):
        region = make_region(ages=(30,), mortality=mortality, fertility=fertility)
        citizens = [simple_citizen(cid=i, family_id=i, age=30) for i in range(count)]
        families = [simple_family(family_id=i, member_ids=(i,), residence=i) for i in range(count)]
        houses = [simple_house(house_id=i) for i in range(count)]
        return make_world(citizens, families, houses, region=region, seed=seed)

    # constant population over 120 months without vital events
    world = population(300, mortality=0.0, fertility=0.0, seed=1)
    initial = set(world.citizens)
    for month in range(120):
        world.clock = month
        age_step(world)
        mortality_step(world, world.rng)
        fertility_step(world, world.rng)
    assert set(world.citizens) == initial

    # binomial window for deaths at an annual rate of 0.12
    n = 10_000
    world = population(n, mortality=0.12, fertility=0.0, seed=2)
    deaths = len(mortality_step(world, world.rng))
    p = monthly_probability(0.12)
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(deaths - n * p) <= 4 * sigma

    # binomial window for births at an annual rate of 0.6
    n = 1000
    world = population(n, mortality=0.0, fertility=0.6, seed=3)
    births = len(fertility_step(world, world.rng))
    p = 0.6 / 12.0
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(births - n * p) <= 4 * sigma
    verdict("C9", "constant population without vital events; binomial windows hold")


def test_c10_sweep_grammar():
    spec = parse_sweep_spec("ALPHA:.04:.94:7")
    values = spec.values
    assert len(values) == 7
    expected = [0.04 + i * 0.15 for i in range(7)]
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-12
    plan = ExperimentPlan(run_type="sensitivity", runs_per_config=4, sweeps=[spec])
    jobs = expand_plan(plan, SimParams(), ["fixture3"])
    assert len(jobs) == 28
    verdict("C10", "ALPHA:.04:.94:7 yields the 7-value grid and 28 jobs at 4 replicates")
