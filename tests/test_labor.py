import numpy as np
import pytest

from policysim import SimParams, generate_world
from policysim.fiscal import FiscalError
from policysim.labor import build_pool, calibrate_initial_unemployment, match, pay_wages

from conftest import (
    citizen,
    employees,
    make_world,
    simple_citizen,
    simple_family,
    simple_firm,
    simple_house,
)


def staffed_world(candidate_specs, firm_specs):
    """candidate_specs: (id, age, qual, location-x); firm_specs: (id, wage, vacancies, x).

    Returns the world and its openings (firm id -> vacancies).
    """
    citizens, families, houses, firms = [], [], [], []
    openings = {}
    for cid, age, qual, x in candidate_specs:
        citizens.append(simple_citizen(cid=cid, family_id=cid, age=age, qualification=qual))
        families.append(simple_family(family_id=cid, member_ids=(cid,), residence=cid))
        houses.append(simple_house(house_id=cid, location=(x, 0.0)))
    for fid, wage, vacancies, x in firm_specs:
        firms.append(simple_firm(firm_id=fid, wage_offer=wage, location=(x, 0.0), cash=100.0))
        openings[fid] = vacancies
    return make_world(citizens, families, houses, firms), openings


def test_build_pool_empty_without_unemployed():
    world, openings = staffed_world([(0, 30, 5, 0.0)], [(0, 1.0, 1, 0.0)])
    world.citizens.employer[0] = 0
    pool = build_pool(world, SimParams(), openings)
    assert pool.candidates == []


def test_build_pool_sorts_vacancies_by_wage():
    world, openings = staffed_world(
        [(0, 30, 5, 0.0)],
        [(0, 5.0, 1, 0.0), (1, 9.0, 1, 0.0), (2, 7.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    assert [fid for fid, _ in pool.vacancies] == [1, 2, 0]


def test_build_pool_age_gates():
    params = SimParams()
    world, openings = staffed_world(
        [(0, 15, 5, 0.0), (1, 30, 5, 0.0), (2, 71, 5, 0.0)],
        [(0, 1.0, 1, 0.0)],
    )
    pool = build_pool(world, params, openings)
    assert pool.candidates == [1]


def test_match_picks_best_qualified():
    world, openings = staffed_world(
        [(0, 30, 3, 0.0), (1, 30, 8, 1.0), (2, 30, 5, 2.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 1)]
    assert citizen(world, 1)["employer"] == 0
    assert citizen(world, 1)["wage"] == 2.0


def test_match_picks_closest_with_distance_criterion():
    world, openings = staffed_world(
        [(0, 30, 3, 4.0), (1, 30, 8, 1.0), (2, 30, 5, 7.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    hires = match(world, pool, pct_distance_hiring=1.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 1)]


def test_match_qualification_tie_breaks_by_id():
    world, openings = staffed_world(
        [(0, 30, 8, 0.0), (1, 30, 8, 1.0)],
        [(0, 2.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 0)]


def test_higher_wage_firm_picks_first():
    world, openings = staffed_world(
        [(0, 30, 5, 0.0)],
        [(0, 10.0, 1, 0.0), (1, 6.0, 1, 0.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    hires = match(world, pool, pct_distance_hiring=0.0, sample_size=10, rng=world.rng)
    assert hires == [(0, 0)]
    assert employees(world, 1) == set()


def test_no_candidate_hired_twice():
    world, openings = staffed_world(
        [(i, 30, i, float(i)) for i in range(5)],
        [(0, 3.0, 3, 0.0), (1, 2.0, 3, 1.0)],
    )
    pool = build_pool(world, SimParams(), openings)
    hires = match(world, pool, pct_distance_hiring=0.3, sample_size=2, rng=world.rng)
    hired = [cid for _, cid in hires]
    assert len(hired) == len(set(hired))
    employed = employees(world, 0) | employees(world, 1)
    assert employed == set(hired)
    assert set(pool.candidates).isdisjoint(employed)


def test_pay_wages_arithmetic():
    world, _ = staffed_world([(0, 30, 5, 0.0)], [(0, 100.0, 0, 0.0)])
    world.citizens.employer[0] = 0
    world.citizens.wage[0] = 100.0
    world.firms.cash[0] = 150.0
    bills = pay_wages(world, labor_tax_rate=0.2)
    assert bills.tolist() == [100.0]
    assert world.families[0].monthly_cash == 80.0
    assert world.ledger.get("m0", "labor") == 20.0
    assert world.ledger.total() == 20.0
    assert world.firms.cash[0] == 50.0


def test_pay_wages_zero_rate_pays_full():
    world, _ = staffed_world([(0, 30, 5, 0.0)], [(0, 100.0, 0, 0.0)])
    world.citizens.employer[0] = 0
    world.citizens.wage[0] = 100.0
    pay_wages(world, labor_tax_rate=0.0)
    assert world.families[0].monthly_cash == 100.0


def test_pay_wages_solvency_fires_lowest_qualified():
    world, _ = staffed_world(
        [(0, 30, 2, 0.0), (1, 30, 9, 1.0)],
        [(0, 100.0, 0, 0.0)],
    )
    world.firms.cash[0] = 150.0
    world.citizens.employer[:] = 0
    world.citizens.wage[:] = 100.0
    bills = pay_wages(world, labor_tax_rate=0.0)
    assert bills.tolist() == [100.0]
    assert employees(world, 0) == {1}
    assert citizen(world, 0)["employer"] is None
    assert world.families[1].monthly_cash == 100.0
    assert world.families[0].monthly_cash == 0.0
    assert world.firms.cash[0] == 50.0


def test_pay_wages_bills_only_the_firms_that_paid():
    # firm 0 pays its one employee; firm 1 cannot and sheds everyone;
    # firm 2 has no staff
    world, _ = staffed_world(
        [(0, 30, 5, 0.0), (1, 30, 5, 1.0), (2, 30, 7, 2.0)],
        [(0, 10.0, 0, 0.0), (1, 10.0, 0, 1.0), (2, 10.0, 0, 2.0)],
    )
    world.citizens.employer[:] = [0, 1, 1]
    world.citizens.wage[:] = 60.0
    world.firms.cash[1] = 50.0
    bills = pay_wages(world, labor_tax_rate=0.1)
    assert bills.tolist() == [60.0, 0.0, 0.0]
    assert employees(world, 1) == set()
    assert world.firms.cash[1] == 50.0
    assert world.firms.cash[2] == 100.0


def test_pay_wages_rejects_a_negative_charge_in_a_positive_total():
    # two firms of m0: the second wage's tax is negative, the municipality's sum is not
    world, _ = staffed_world(
        [(0, 30, 5, 0.0), (1, 30, 5, 1.0)],
        [(0, 1.0, 0, 0.0), (1, 1.0, 0, 1.0)],
    )
    world.citizens.employer[:] = [0, 1]
    world.citizens.wage[:] = [100.0, -1.0]
    with pytest.raises(FiscalError, match="negative tax amount"):
        pay_wages(world, labor_tax_rate=0.2)
    assert world.ledger.get("m0", "labor") == 20.0  # the first wage's charge


def test_wages_are_sticky_per_contract():
    world, _ = staffed_world([(0, 30, 5, 0.0)], [(0, 40.0, 0, 0.0)])
    world.citizens.employer[0] = 0
    world.citizens.wage[0] = 100.0
    world.firms.wage_offer[0] = 40.0  # newer, lower offer does not reprice the contract
    pay_wages(world, labor_tax_rate=0.0)
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
    working_age = world.citizens.working_age(params.working_age_min, params.working_age_max)
    calibrate_initial_unemployment(world, rate, params, world.rng)
    employed = np.count_nonzero(working_age & (world.citizens.employer >= 0))
    assert employed == round((1.0 - rate) * np.count_nonzero(working_age))


def test_calibration_tops_up_an_employed_world_in_one_match(fixture3, monkeypatch):
    params = SimParams()
    world = generate_world(fixture3, params, seed=6)
    working_age = world.citizens.working_age(params.working_age_min, params.working_age_max)
    calibrate_initial_unemployment(world, 0.5, params, world.rng)
    calls = []

    def counting_match(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr("policysim.labor.match", counting_match)
    calibrate_initial_unemployment(world, 0.2, params, world.rng)
    assert len(calls) == 1
    employed = np.count_nonzero(working_age & (world.citizens.employer >= 0))
    assert employed == round(0.8 * np.count_nonzero(working_age))


def test_zero_distance_hiring_ignores_geography():
    # identical worlds apart from where candidates live hire the same people
    specs_near = [(i, 30, i % 7, float(i)) for i in range(8)]
    specs_far = [(cid, age, qual, 100.0 - x) for cid, age, qual, x in specs_near]
    firms = [(0, 3.0, 2, 0.0), (1, 2.0, 2, 1.0)]
    hires = []
    for candidate_specs in (specs_near, specs_far):
        world, openings = staffed_world(candidate_specs, firms)
        pool = build_pool(world, SimParams(), openings)
        hires.append(match(world, pool, pct_distance_hiring=0.0, sample_size=3,
                           rng=np.random.default_rng(42)))
    assert hires[0] == hires[1]


def test_match_replay_respects_wage_order():
    rng = np.random.default_rng(5)
    world, openings = staffed_world(
        [(i, 30, int(rng.integers(0, 21)), float(i)) for i in range(12)],
        [(j, float(10 - j), 2, float(j)) for j in range(4)],
    )
    pool = build_pool(world, SimParams(), openings)
    offers = [wage for _, wage in pool.vacancies]
    assert offers == sorted(offers, reverse=True)
    hires = match(world, pool, pct_distance_hiring=0.5, sample_size=3, rng=world.rng)
    hire_wages = [world.firms.wage_offer[fid] for fid, _ in hires]
    assert hire_wages == sorted(hire_wages, reverse=True)


@pytest.mark.parametrize("sample_size", [50, 3], ids=["whole-pool", "sampled"])
@pytest.mark.parametrize("pct_distance_hiring", [0.0, 0.5, 1.0])
def test_match_keeps_candidate_order(sample_size, pct_distance_hiring):
    # 12 candidates, 7 vacancies: a sample of 50 always covers the pool
    # (k == len(remaining)); a sample of 3 never does (k < len(remaining))
    specs = [(cid, 30, (cid * 7) % 11, float((cid * 5) % 13)) for cid in range(12)]
    world, openings = staffed_world(specs, [(0, 3.0, 4, 0.0), (1, 2.0, 3, 6.0)])
    pool = build_pool(world, SimParams(), openings)
    pool.candidates = [int(cid) for cid in np.random.default_rng(8).permutation(12)]
    before = list(pool.candidates)
    hires = match(world, pool, pct_distance_hiring, sample_size, rng=world.rng)
    hired = {cid for _, cid in hires}
    assert len(hires) == 7
    assert pool.candidates == [cid for cid in before if cid not in hired]
