import numpy as np
import pytest

from policysim import ParamError, SimParams, generate_world, run, scheduler
from policysim.scheduler import (
    RunError,
    step,
    step_demographics,
    step_firm_decisions,
    step_fiscal,
    step_goods_market,
    step_labor_market,
    step_production,
    step_real_estate,
)

from conftest import (
    employees,
    make_world,
    simple_citizen,
    simple_family,
    simple_firm,
    simple_house,
)


def test_empty_world_steps_without_error():
    world = make_world()
    record = step(world, SimParams())
    assert record.month == 0
    assert record.population == 0
    assert record.unemployment == 0.0
    assert record.price_index == 0.0
    assert record.gini_wealth == 0.0
    assert record.tax_total == 0.0
    assert world.clock == 1


def test_step_determinism(fixture3):
    params = SimParams()
    worlds = [generate_world(fixture3, params, seed=21) for _ in range(2)]
    records = [step(world, params) for world in worlds]
    assert records[0] == records[1]


def test_run_produces_requested_months(fixture3):
    params = SimParams()
    params.months = 24
    result = run(fixture3, params, seed=3)
    assert len(result.records) == 24
    assert result.world.clock == 24
    assert [rec.month for rec in result.records] == list(range(24))


def test_run_rejects_more_than_360_months(fixture3):
    params = SimParams()
    params.months = 361
    with pytest.raises(ParamError):
        run(fixture3, params, seed=0)


def test_run_zero_months_is_valid(fixture3):
    params = SimParams()
    params.months = 0
    result = run(fixture3, params, seed=0)
    assert result.records == []


def test_monetary_audit_per_month(fixture3):
    params = SimParams()
    params.taxes.property = 0.002
    world = generate_world(fixture3, params, seed=17)
    for _ in range(18):
        before = world.total_money()
        record = step(world, params)
        after = world.total_money()
        assert abs((after - before) + record.tax_total) <= 1e-6


def test_run_raises_when_a_substep_creates_money(fixture3, monkeypatch):
    params = SimParams()
    params.months = 6
    goods_market = scheduler.step_goods_market

    def leaking(world, *args):
        goods_market(world, *args)
        if world.clock == 3:
            world.families.monthly_cash[0] += 1.0

    monkeypatch.setattr(scheduler, "step_goods_market", leaking)
    with pytest.raises(RunError, match=r"^month 3: money changed by 1\.0"):
        run(fixture3, params, seed=17)


def test_ledger_writes_only_in_market_steps(fixture3):
    params = SimParams()
    params.taxes.property = 0.002
    world = generate_world(fixture3, params, seed=8)
    from policysim.labor import calibrate_initial_unemployment

    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    rng = world.rng
    for month in range(6):
        totals = []
        step_production(world, params)
        totals.append(world.ledger.total())
        active = step_demographics(world, params, rng)
        totals.append(world.ledger.total())
        step_goods_market(world, params, rng, active)
        totals.append(world.ledger.total())
        vacancies = step_firm_decisions(world, params, rng)
        totals.append(world.ledger.total())
        step_labor_market(world, params, rng, vacancies)
        totals.append(world.ledger.total())
        step_real_estate(world, params, rng, active)
        totals.append(world.ledger.total())
        step_fiscal(world, params)
        totals.append(world.ledger.total())
        world.clock += 1
        production, demo, goods, decisions, labor, estate, fiscal = totals
        assert production == 0.0  # nothing collected before the goods market
        assert demo == 0.0
        assert goods >= 0.0
        assert decisions == goods  # firm decisions never touch the ledger
        assert labor >= decisions
        assert estate >= labor
        assert fiscal == 0.0  # distribution zeroes the ledger


def test_firm_decisions_return_the_openings_of_deciding_firms():
    # with LABOR_MARKET = 2, firms 0, 2 and 4 decide in month 0
    params = SimParams()
    params.labor_market_frequency = 2
    profits = {0: 5.0, 1: 5.0, 2: -1.0, 3: -1.0, 4: 0.0}
    firms = [simple_firm(firm_id=fid, last_profit=profit) for fid, profit in profits.items()]
    citizens = [simple_citizen(cid=fid, family_id=fid, employer=fid) for fid in profits]
    families = [simple_family(family_id=fid, member_ids=(fid,), residence=fid) for fid in profits]
    houses = [simple_house(house_id=fid) for fid in profits]
    world = make_world(citizens, families, houses, firms)
    vacancies = step_firm_decisions(world, params, world.rng)
    assert vacancies.dtype == np.int64
    assert vacancies.tolist() == [0, 4]
    assert not employees(world, 2)  # fired its one employee, opened nothing
    assert employees(world, 3) == {3}  # holds: not its decision month


def test_records_carry_per_municipality_qli(fixture3):
    params = SimParams()
    params.months = 3
    result = run(fixture3, params, seed=5)
    for record in result.records:
        assert set(record.qli) == {"core", "north", "east"}
        assert all(value >= 1.0 for value in record.qli.values())


def test_inflation_tracks_price_index(fixture3):
    params = SimParams()
    params.months = 12
    result = run(fixture3, params, seed=5)
    for prev, this in zip(result.records, result.records[1:]):
        if prev.price_index > 0 and this.price_index > 0:
            expected = (this.price_index - prev.price_index) / prev.price_index * 100.0
            assert abs(this.inflation - expected) <= 1e-9


def test_unemployment_bounds_and_population(fixture3):
    params = SimParams()
    params.months = 36
    result = run(fixture3, params, seed=2)
    for record in result.records:
        assert 0.0 <= record.unemployment <= 1.0
        assert record.population >= 0
        assert record.price_index > 0.0
        assert np.isfinite(record.price_index)


def test_fiscal_step_uses_the_current_taxes_structure(fixture3):
    # the transfer rule is read from params every month, so a world stepped
    # under one TAXES_STRUCTURE and then another follows the second
    from policysim.fiscal import DistributionRegime, TaxLedger, distribute

    params = SimParams()
    world = generate_world(fixture3, params, seed=4)
    step(world, params)

    override = params.copy()
    override.taxes_structure = {
        "TRUE_TRUE.CONSUMPTION.LOCAL": 1.0,
        "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.0,
    }
    collected = {"core": 120.0, "north": 30.0, "east": 6.0}
    expected_ledger = TaxLedger()
    for ledger in (world.ledger, expected_ledger):
        ledger.reset()
        for muni_id, amount in collected.items():
            ledger.book("consumption", [world.region.municipality_ids.index(muni_id)], [amount])
    populations = world.population_by_municipality().tolist()
    receipts = distribute(
        expected_ledger,
        DistributionRegime(override.alternative0, override.fpm_distribution),
        override.taxes_structure,
        populations,
        fixture3.fpm_brackets,
    )
    # all of it stays local
    assert dict(zip(world.region.municipality_ids, receipts)) == pytest.approx(collected)
    before = world.qli.copy()

    step_fiscal(world, override)

    for index, receipt in enumerate(receipts):
        gain = receipt / max(1, populations[index])
        gain /= override.reference_cost_per_capita
        assert world.qli[index] - before[index] == pytest.approx(gain, rel=1e-9)


def test_merged_run_survives_an_emptied_municipality(fixture3):
    # at 5% of fixture3, seed 22, "east" loses its last resident in month
    # 42; its population share of the merged pot must be 0.0, never the
    # negative rounding residual that stopped the run
    params = SimParams(percentage_actual_pop=0.05, alternative0=False, months=240)
    result = run(fixture3, params, seed=22)
    assert len(result.records) == 240
    qli = [record.qli["east"] for record in result.records]
    assert qli[-1] == qli[42] and all(b >= a for a, b in zip(qli, qli[1:]))
