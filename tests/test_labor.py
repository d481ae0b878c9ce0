import numpy as np
import pytest

from policysim import SimParams, generate_world
from policysim.fiscal import TaxLedger
from policysim.labor import build_pool, calibrate_initial_unemployment, match, pay_wages

from conftest import make_world, simple_citizen, simple_family, simple_firm, simple_house


def staffed_world(candidate_specs, firm_specs):
    """candidate_specs: (id, age, qual, location-x); firm_specs: (id, wage, vacancies, x)."""
    citizens, families, houses, firms = [], [], [], []
    for cid, age, qual, x in candidate_specs:
        citizens.append(simple_citizen(cid=cid, family_id=cid, age=age, qualification=qual))
        families.append(simple_family(family_id=cid, member_ids=(cid,), residence=cid))
        houses.append(simple_house(house_id=cid, owner=cid, location=(x, 0.0)))
    for fid, wage, vacancies, x in firm_specs:
        firm = simple_firm(firm_id=fid, wage_offer=wage, location=(x, 0.0), cash=100.0)
        firm.open_vacancies = vacancies
        firms.append(firm)
    return make_world(citizens, families, houses, firms)


def test_build_pool_empty_without_unemployed():
    world = staffed_world([(0, 30, 5, 0.0)], [(0, 1.0, 1, 0.0)])
    world.citizens[0].employer = 0
    pool = build_pool(world, SimParams())
    assert pool.candidates == []


def test_build_pool_sorts_vacancies_by_wage():
    world = staffed_world(
        [(0, 30, 5, 0.0)],
        [(0, 5.0, 1, 0.0), (1, 9.0, 1, 0.0), (2, 7.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams())
    assert [fid for fid, _ in pool.vacancies] == [1, 2, 0]


def test_build_pool_age_gates():
    params = SimParams()
    world = staffed_world(
        [(0, 15, 5, 0.0), (1, 30, 5, 0.0), (2, 71, 5, 0.0)],
        [(0, 1.0, 1, 0.0)],
    )
    pool = build_pool(world, params)
    assert pool.candidates == [1]


def test_match_picks_best_qualified():
    world = staffed_world(
        [(0, 30, 3, 0.0), (1, 30, 8, 1.0), (2, 30, 5, 2.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams())
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 1)]
    assert world.citizens[1].employer == 0
    assert world.citizens[1].wage == 2.0


def test_match_picks_closest_with_distance_criterion():
    world = staffed_world(
        [(0, 30, 3, 4.0), (1, 30, 8, 1.0), (2, 30, 5, 7.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams())
    hires = match(world, pool, pct_distance_hiring=1.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 1)]


def test_match_qualification_tie_breaks_by_id():
    world = staffed_world(
        [(0, 30, 8, 0.0), (1, 30, 8, 1.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams())
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 0)]


def test_higher_wage_firm_picks_first():
    world = staffed_world(
        [(0, 30, 5, 0.0)],
        [(0, 10.0, 1, 0.0), (1, 6.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams())
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 0)]
    assert not world.firms[1].employee_ids


def test_no_candidate_hired_twice():
    world = staffed_world(
        [(i, 30, i, float(i)) for i in range(5)],
        [(0, 3.0, 3, 0.0), (1, 2.0, 3, 1.0)],
    )
    pool = build_pool(world, SimParams())
    hires = match(world, pool, pct_distance_hiring=0.3, sample_size=2, rng=world.rng)
    hired = [cid for _, cid in hires]
    assert len(hired) == len(set(hired))
    employed = {cid for f in world.firms.values() for cid in f.employee_ids}
    assert set(pool.candidates).isdisjoint(employed)


def test_pay_wages_arithmetic():
    world = staffed_world([(0, 30, 5, 0.0)], [(0, 100.0, 0, 0.0)])
    firm = world.firms[0]
    firm.employee_ids = {0}
    world.citizens[0].employer = 0
    world.citizens[0].wage = 100.0
    firm.cash = 150.0
    ledger = TaxLedger()
    collected = pay_wages(world, labor_tax_rate=0.2, ledger=ledger)
    assert collected == 20.0
    assert world.families[0].monthly_cash == 80.0
    assert ledger.get("m0", "labor") == 20.0
    assert firm.cash == 50.0
    assert firm.wages_paid_this_month == 100.0


def test_pay_wages_zero_rate_pays_full():
    world = staffed_world([(0, 30, 5, 0.0)], [(0, 100.0, 0, 0.0)])
    firm = world.firms[0]
    firm.employee_ids = {0}
    world.citizens[0].employer = 0
    world.citizens[0].wage = 100.0
    pay_wages(world, labor_tax_rate=0.0, ledger=TaxLedger())
    assert world.families[0].monthly_cash == 100.0


def test_pay_wages_solvency_fires_lowest_qualified():
    world = staffed_world(
        [(0, 30, 2, 0.0), (1, 30, 9, 1.0)],
        [(0, 100.0, 0, 0.0)],
    )
    firm = world.firms[0]
    firm.employee_ids = {0, 1}
    firm.cash = 150.0
    for cid in (0, 1):
        world.citizens[cid].employer = 0
        world.citizens[cid].wage = 100.0
    pay_wages(world, labor_tax_rate=0.0, ledger=TaxLedger())
    assert firm.employee_ids == {1}
    assert world.citizens[0].employer is None
    assert world.families[1].monthly_cash == 100.0
    assert world.families[0].monthly_cash == 0.0
    assert firm.cash == 50.0


def test_wages_are_sticky_per_contract():
    world = staffed_world([(0, 30, 5, 0.0)], [(0, 40.0, 0, 0.0)])
    firm = world.firms[0]
    firm.employee_ids = {0}
    world.citizens[0].employer = 0
    world.citizens[0].wage = 100.0
    firm.wage_offer = 40.0  # newer, lower offer does not reprice the contract
    pay_wages(world, labor_tax_rate=0.0, ledger=TaxLedger())
    assert world.families[0].monthly_cash == 100.0


def test_calibration_target_one_needs_no_round(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=4)
    calibrate_initial_unemployment(world, 1.0, params, world.rng)
    assert world.unemployment_rate(params.working_age_min, params.working_age_max) == 1.0


def test_calibration_target_zero_employs_everyone(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=4)
    calibrate_initial_unemployment(world, 0.0, params, world.rng)
    assert world.unemployment_rate(params.working_age_min, params.working_age_max) == 0.0


def test_calibration_hits_ten_percent_window(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=4)
    calibrate_initial_unemployment(world, 0.10, params, world.rng)
    rate = world.unemployment_rate(params.working_age_min, params.working_age_max)
    assert 0.09 <= rate <= 0.11


@pytest.mark.parametrize("rate", [0.07, 0.1, 0.3, 0.55, 0.93])
def test_calibration_employs_the_rounded_target_exactly(fixture3, rate):
    params = SimParams()
    world = generate_world(fixture3, params, seed=6)
    working_age = world.working_age_citizens(params.working_age_min, params.working_age_max)
    calibrate_initial_unemployment(world, rate, params, world.rng)
    employed = sum(citizen.employer is not None for citizen in working_age)
    assert employed == round((1.0 - rate) * len(working_age))


def test_calibration_tops_up_an_employed_world_in_one_match(fixture3, monkeypatch):
    params = SimParams()
    world = generate_world(fixture3, params, seed=6)
    working_age = world.working_age_citizens(params.working_age_min, params.working_age_max)
    calibrate_initial_unemployment(world, 0.5, params, world.rng)
    calls = []

    def counting_match(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr("policysim.labor.match", counting_match)
    calibrate_initial_unemployment(world, 0.2, params, world.rng)
    assert len(calls) == 1
    employed = sum(citizen.employer is not None for citizen in working_age)
    assert employed == round(0.8 * len(working_age))


def test_zero_distance_hiring_ignores_geography():
    # identical worlds apart from where candidates live hire the same people
    specs_near = [(i, 30, i % 7, float(i)) for i in range(8)]
    specs_far = [(cid, age, qual, 100.0 - x) for cid, age, qual, x in specs_near]
    firms = [(0, 3.0, 2, 0.0), (1, 2.0, 2, 1.0)]
    hires = []
    for candidate_specs in (specs_near, specs_far):
        world = staffed_world(candidate_specs, firms)
        pool = build_pool(world, SimParams())
        hires.append(match(world, pool, pct_distance_hiring=0.0, sample_size=3,
                           rng=np.random.default_rng(42)))
    assert hires[0] == hires[1]


def test_match_replay_respects_wage_order():
    rng = np.random.default_rng(5)
    world = staffed_world(
        [(i, 30, int(rng.integers(0, 21)), float(i)) for i in range(12)],
        [(j, float(10 - j), 2, float(j)) for j in range(4)],
    )
    pool = build_pool(world, SimParams())
    offers = [wage for _, wage in pool.vacancies]
    assert offers == sorted(offers, reverse=True)
    hires = match(world, pool, pct_distance_hiring=0.5, sample_size=3, rng=world.rng)
    hire_wages = [world.firms[fid].wage_offer for fid, _ in hires]
    assert hire_wages == sorted(hire_wages, reverse=True)


@pytest.mark.parametrize("sample_size", [50, 3], ids=["whole-pool", "sampled"])
@pytest.mark.parametrize("pct_distance_hiring", [0.0, 0.5, 1.0])
def test_match_keeps_candidate_order(sample_size, pct_distance_hiring):
    # 12 candidates, 7 vacancies: a sample of 50 always covers the pool
    # (k == len(remaining)); a sample of 3 never does (k < len(remaining))
    specs = [(cid, 30, (cid * 7) % 11, float((cid * 5) % 13)) for cid in range(12)]
    world = staffed_world(specs, [(0, 3.0, 4, 0.0), (1, 2.0, 3, 6.0)])
    pool = build_pool(world, SimParams())
    pool.candidates = [int(cid) for cid in np.random.default_rng(8).permutation(12)]
    before = list(pool.candidates)
    hires = match(world, pool, pct_distance_hiring, sample_size, rng=world.rng)
    hired = {cid for _, cid in hires}
    assert len(hires) == 7
    assert pool.candidates == [cid for cid in before if cid not in hired]
