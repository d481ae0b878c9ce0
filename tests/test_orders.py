"""The workforce and levy orders against the sorts they replaced.

``Citizens.firing_order``, the payroll of ``labor.pay_wages`` and the
by-id staff order of ``labor._shed_until_affordable`` sort packed int64 keys
with one ``np.sort`` (or argsort of unique keys), and
``realestate.collect_property_tax`` places its payers by house with a
scatter. The seeded worlds here hold tied qualifications, many staff per
firm, dead rows and unemployed rows, and wages spread over several orders
of magnitude, so that summing a bill in another order changes its bits.
Each order must be the lexsort or stable argsort one it replaced.
"""

import copy

import numpy as np
import pytest

from policysim import labor
from policysim.realestate import collect_property_tax
from policysim.world.types import UNEMPLOYED

from conftest import make_world, simple_citizen, simple_family, simple_firm, simple_house

SEEDS = (0, 1, 2, 3)
FIRMS = 4
ROWS = 600
FAMILIES = 150
HOUSES = 400
LABOR_TAX = 0.1
PROPERTY_TAX = 0.01


def crowded_world(seed):
    """A quarter of ROWS rows dead, the living in FAMILIES families (some with
    no living member), four qualifications, and about 110 staff per firm."""
    rng = np.random.default_rng(seed)
    living = np.sort(rng.choice(ROWS, size=ROWS * 3 // 4, replace=False))
    if living[-1] != ROWS - 1:
        living = np.append(living, ROWS - 1)
    family_of = rng.integers(0, FAMILIES - 10, size=len(living))
    employer = rng.integers(-1, FIRMS, size=len(living))
    wage = rng.lognormal(0.0, 3.0, size=len(living))
    citizens = [
        simple_citizen(
            cid=cid, family_id=family, qualification=int(rng.integers(0, 4)),
            employer=None if firm < 0 else firm, wage=0.0 if firm < 0 else pay,
        )
        for cid, family, firm, pay in zip(
            living.tolist(), family_of.tolist(), employer.tolist(), wage.tolist()
        )
    ]
    residence = rng.choice(HOUSES, size=FAMILIES, replace=False)
    families = [
        simple_family(
            family_id=family, member_ids=living[family_of == family].tolist(),
            residence=home, cash=float(rng.uniform(0.0, 20.0)),
        )
        for family, home in enumerate(residence.tolist())
    ]
    houses = [
        simple_house(house_id=house, price=float(price))
        for house, price in enumerate(rng.uniform(10.0, 3000.0, size=HOUSES).tolist())
    ]
    world = make_world(citizens, families, houses, [simple_firm(firm_id=f) for f in range(FIRMS)])
    # firms 0 and 2 cannot cover their bill
    bills = np.bincount(employer[employer >= 0], weights=wage[employer >= 0], minlength=FIRMS)
    world.firms.cash[:] = bills * np.array([0.5, 1.5, 0.2, 2.0])
    return world


def recorded_books(world):
    """Replace the world's ledger.book with a recorder of each call's arguments."""
    books = []
    world.ledger.book = lambda kind, ids, codes, amounts: books.append(
        (kind, np.asarray(codes).tolist(), np.asarray(amounts).tolist())
    )
    return books


@pytest.mark.parametrize("seed", SEEDS)
def test_crowded_worlds_hold_what_the_orders_must_handle(seed):
    citizens = crowded_world(seed).citizens
    employed = citizens.employed()
    assert not citizens.alive.all()
    assert (citizens.alive & (citizens.employer == UNEMPLOYED)).any()
    assert citizens.headcount(FIRMS).min() > 50
    assert len(np.unique(citizens.qualification[employed])) < 5


@pytest.mark.parametrize("seed", SEEDS)
def test_firing_order_is_the_lexsort_order(seed):
    citizens = crowded_world(seed).citizens
    employed = citizens.employed()
    reference = employed[np.lexsort((citizens.qualification[employed], citizens.employer[employed]))]
    assert citizens.firing_order().tolist() == reference.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_payroll_is_the_stable_argsort_order(seed):
    world = crowded_world(seed)
    world.firms.cash[:] = np.inf  # nobody is shed
    citizens = world.citizens
    employed = citizens.employed()
    payroll = employed[np.argsort(citizens.employer[employed], kind="stable")]
    books = recorded_books(world)
    labor.pay_wages(world, LABOR_TAX)
    # every wage is distinct, so the booked taxes name the payroll order
    assert books == [(
        "labor",
        world.firms.municipality[citizens.employer[payroll]].tolist(),
        (citizens.wage[payroll] * LABOR_TAX).tolist(),
    )]


def shed_by_lexsort(world, short, bills):
    """``_shed_until_affordable`` as it was, with a lexsort for the by-id order."""
    citizens = world.citizens
    order = citizens.firing_order()
    is_short = np.zeros(len(bills), dtype=bool)
    is_short[short] = True
    staff = order[is_short[citizens.employer[order]]]
    firm = np.searchsorted(short, citizens.employer[staff])
    size = np.bincount(firm, minlength=len(short))
    rank = np.arange(len(staff)) - (np.cumsum(size) - size)[firm]
    by_id = np.lexsort((staff, firm))
    firm_by_id, rank_by_id, wage_by_id = firm[by_id], rank[by_id], citizens.wage[staff[by_id]]
    cash = world.firms.cash[short]
    low, high = np.zeros_like(size), size
    high_bill = np.zeros(len(short))
    while (high - low > 1).any():
        mid = (low + high) // 2
        bill = np.zeros(len(short))
        np.add.at(bill, firm_by_id, np.where(rank_by_id >= mid[firm_by_id], wage_by_id, 0.0))
        covered = (mid == size) | (cash >= bill)
        low, high = np.where(covered, low, mid), np.where(covered, mid, high)
        high_bill = np.where(covered, bill, high_bill)
    citizens.fire(staff[rank < high[firm]])
    bills[short] = high_bill


@pytest.mark.parametrize("seed", SEEDS)
def test_shedding_is_the_lexsort_shedding(seed):
    world = crowded_world(seed)
    citizens = world.citizens
    employed = citizens.employed()
    bills = np.zeros(FIRMS)
    np.add.at(bills, citizens.employer[employed], citizens.wage[employed])
    short = (world.firms.cash < bills).nonzero()[0]
    assert short.tolist() == [0, 2]
    reference = copy.deepcopy(world)
    reference_bills = bills.copy()
    shed_by_lexsort(reference, short, reference_bills)
    labor._shed_until_affordable(world, short, bills)
    assert bills.tolist() == reference_bills.tolist()
    assert citizens.employer.tolist() == reference.citizens.employer.tolist()
    assert citizens.wage.tolist() == reference.citizens.wage.tolist()


def test_bills_summed_out_of_id_order_differ():
    """The shedding check can see an order: summing the staff's wages in
    firing order instead of id order changes some firm's bill."""
    citizens = crowded_world(0).citizens
    employed, order = citizens.employed(), citizens.firing_order()
    by_id, by_firing = np.zeros(FIRMS), np.zeros(FIRMS)
    np.add.at(by_id, citizens.employer[employed], citizens.wage[employed])
    np.add.at(by_firing, citizens.employer[order], citizens.wage[order])
    assert by_id.tolist() != by_firing.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_property_levy_is_the_argsort_order(seed):
    world = crowded_world(seed)
    families, houses = world.families, world.houses
    active = world.active_families()
    assert len(active) < len(families.present)
    by_house = np.argsort(families.residence[active])
    occupied, payers = families.residence[active][by_house], active[by_house]
    owed = PROPERTY_TAX * houses.price[occupied]
    cash = families.monthly_cash[payers]
    paid = np.where(cash < owed, cash, owed)
    expected_cash = families.monthly_cash.copy()
    expected_cash[payers] = cash - paid
    assert (cash < owed).any() and (cash > owed).any()
    books = recorded_books(world)
    collect_property_tax(world, active, PROPERTY_TAX)
    assert books == [("property", houses.municipality[occupied].tolist(), paid.tolist())]
    assert families.monthly_cash.tolist() == expected_cash.tolist()
