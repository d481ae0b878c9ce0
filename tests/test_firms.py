import numpy as np
import pytest

from policysim.firms import (
    FIRE_ONE,
    HOLD,
    OPEN_VACANCY,
    close_books,
    fire_lowest_qualified,
    hire_fire_decisions,
    produce,
    update_prices,
    update_wage_offers,
)
from policysim.params import SimParams

from conftest import (
    employees,
    make_firms,
    make_world,
    simple_citizen,
    simple_family,
    simple_firm,
    simple_house,
)

PRICE_FLOOR = SimParams().price_floor


def world_with_employees(quals, firm_id=0):
    citizens = [
        simple_citizen(cid=i, family_id=0, qualification=q, employer=firm_id, wage=1.0)
        for i, q in enumerate(quals)
    ]
    family = simple_family(family_id=0, member_ids=tuple(range(len(quals))))
    house = simple_house(house_id=0)
    firm = simple_firm(firm_id=firm_id)
    return make_world(citizens, [family], [house], [firm])


def lone_firm(**columns):
    return make_firms(["m0"], [simple_firm(**columns)])


def reprice(firms, markup, sticky_prices, u, price_floor):
    update_prices(firms, markup, sticky_prices, np.array([u]), price_floor)
    return float(firms.price[0])


def offer(firms, unemployment_rate, ignore_unemployment, price_floor, headcount=0):
    update_wage_offers(
        firms, np.full(len(firms), headcount), unemployment_rate, ignore_unemployment,
        price_floor,
    )
    return float(firms.wage_offer[0])


def decide(firms, clock, labor_market_frequency, headcount=0):
    return hire_fire_decisions(
        firms, np.full(len(firms), headcount), clock, labor_market_frequency
    ).tolist()


@pytest.mark.parametrize(
    "quals,alpha,expected",
    [
        ([3, 5], 1.0, 8.0),
        ([4, 9], 0.5, 5.0),
        ([7, 7, 7], 0.0, 3.0),
    ],
)
def test_produce_examples(quals, alpha, expected):
    world = world_with_employees(quals)
    output = produce(world, alpha)
    assert output.tolist() == [expected]
    assert world.firms.stock[0] == expected
    assert world.firms.last_output[0] == expected


def test_produce_zero_qualification_convention():
    world = world_with_employees([0, 4])
    assert produce(world, 0.5).tolist() == [2.0]  # 0**0.5 + sqrt(4)
    world2 = world_with_employees([0, 0])
    assert produce(world2, 0.0).tolist() == [2.0]  # 0**0 counts as 1


def test_produce_sums_employees_in_id_order():
    world = world_with_employees([2, 11, 5, 7])
    total = 0.0
    for qualification in (2, 11, 5, 7):
        total += float(qualification) ** 0.37
    assert produce(world, 0.37).tolist() == [total]


def test_produce_monotone_in_workforce():
    base = produce(world_with_employees([3, 4]), 0.5)[0]
    assert produce(world_with_employees([3, 4, 6]), 0.5)[0] > base


def test_update_price_never_evaluates_at_zero_probability():
    firms = lone_firm(price=1.0, stock=0.0, last_output=10.0)
    for u in [0.0] + np.random.default_rng(0).random(50).tolist():
        assert reprice(firms, 0.5, 0.0, u, PRICE_FLOOR) == 1.0


def test_update_price_raises_on_scarce_stock():
    firms = lone_firm(price=1.0, stock=0.0, last_output=10.0)
    price = reprice(firms, 0.1, 1.0, 0.5, PRICE_FLOOR)
    assert abs(price - 1.1) <= 1e-12


def test_update_price_cuts_on_glut():
    firms = lone_firm(price=1.0, stock=25.0, last_output=10.0)
    price = reprice(firms, 0.1, 1.0, 0.5, PRICE_FLOOR)
    assert abs(price - 0.9) <= 1e-12


def test_update_price_zero_markup_is_inert():
    firms = lone_firm(price=2.0, stock=0.0, last_output=10.0)
    assert reprice(firms, 0.0, 1.0, 0.5, PRICE_FLOOR) == 2.0


def test_update_price_floor():
    firms = lone_firm(price=1.0, stock=25.0, last_output=10.0)
    price = reprice(firms, markup=0.999999, sticky_prices=1.0, u=0.5, price_floor=1e-6)
    assert price >= 1e-6


def test_update_wage_ignores_unemployment_when_told():
    firms = lone_firm(revenue=1000.0)
    wage = offer(firms, 0.5, ignore_unemployment=True, price_floor=PRICE_FLOOR, headcount=10)
    assert wage == 100.0


def test_update_wage_damped_by_unemployment():
    firms = lone_firm(revenue=1000.0)
    wage = offer(firms, 0.2, ignore_unemployment=False, price_floor=PRICE_FLOOR, headcount=10)
    assert abs(wage - 80.0) <= 1e-12


def test_update_wage_flag_inert_at_full_employment():
    for flag in (True, False):
        firms = lone_firm(revenue=1000.0)
        wage = offer(firms, 0.0, ignore_unemployment=flag, price_floor=PRICE_FLOOR, headcount=10)
        assert wage == 100.0


def test_update_wage_empty_firm_uses_unit_divisor():
    firms = lone_firm(revenue=7.0)
    assert offer(firms, 0.0, ignore_unemployment=True, price_floor=PRICE_FLOOR) == 7.0


def test_hire_fire_positive_profit_opens_vacancy():
    firms = lone_firm(firm_id=0, last_profit=50.0)
    assert decide(firms, clock=0, labor_market_frequency=1) == [OPEN_VACANCY]


def test_hire_fire_fires_lowest_qualified():
    world = world_with_employees([5, 2])
    world.firms.last_profit[0] = -50.0
    headcount = world.citizens.headcount(1)
    assert headcount.tolist() == [2]
    assert decide(world.firms, clock=0, labor_market_frequency=1, headcount=2) == [FIRE_ONE]
    victim = fire_lowest_qualified(world, np.array([0])).tolist()
    assert victim == [1]
    assert employees(world, 0) == {0}
    assert world.citizens.records()[1]["employer"] is None
    assert world.citizens.wage[1] == 0.0


def test_fire_tie_breaks_by_id():
    world = world_with_employees([5, 5, 7])
    assert fire_lowest_qualified(world, np.array([0])).tolist() == [0]


def test_fire_lowest_qualified_picks_per_firm():
    # firm 1's staff sort before firm 0's in id order; each firm fires its own
    qualifications = {0: (0, 9), 1: (0, 4), 2: (1, 3), 3: (1, 3), 4: (0, 4)}
    citizens = [
        simple_citizen(cid=cid, qualification=q, employer=firm, wage=1.0)
        for cid, (firm, q) in qualifications.items()
    ]
    family = simple_family(member_ids=tuple(qualifications))
    firms = [simple_firm(firm_id=0), simple_firm(firm_id=1)]
    world = make_world(citizens, [family], [simple_house()], firms)
    assert fire_lowest_qualified(world, np.array([0, 1])).tolist() == [1, 2]
    assert (employees(world, 0), employees(world, 1)) == ({0, 4}, {3})


def test_hire_fire_off_cycle_holds():
    firms = lone_firm(firm_id=0, last_profit=50.0)
    assert decide(firms, clock=1, labor_market_frequency=2) == [HOLD]
    firms.last_profit[0] = -50.0
    assert decide(firms, clock=1, labor_market_frequency=2) == [HOLD]


def test_hire_fire_cycle_is_per_firm():
    # firms decide on their own phase within the frequency window
    firms = make_firms(
        ["m0"], [simple_firm(firm_id=fid, last_profit=50.0) for fid in (0, 1)]
    )
    assert decide(firms, clock=2, labor_market_frequency=2) == [OPEN_VACANCY, HOLD]
    assert decide(firms, clock=3, labor_market_frequency=2)[1] == OPEN_VACANCY


def test_idle_firm_with_even_books_reopens():
    firms = lone_firm(firm_id=0, last_profit=0.0)
    assert decide(firms, clock=0, labor_market_frequency=1) == [OPEN_VACANCY]


def test_fire_requires_employees():
    firms = lone_firm(firm_id=0, last_profit=-10.0)
    assert decide(firms, clock=0, labor_market_frequency=1) == [HOLD]


@pytest.mark.parametrize(
    "last_profit,rate,revenue,bills,tax,profit",
    [
        (100.0, 0.1, 100.0, 60.0, 10.0, 30.0),
        (0.0, 0.1, 0.0, 0.0, 0.0, 0.0),
        (-40.0, 0.1, 0.0, 60.0, 0.0, -60.0),
        (100.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ],
    ids=["taxed-profit", "idle", "untaxed-loss", "zero-rate"],
)
def test_close_books_examples(last_profit, rate, revenue, bills, tax, profit):
    world = make_world(
        firms=[simple_firm(cash=50.0, last_profit=last_profit, revenue=revenue)]
    )
    close_books(world, np.array([bills]), rate)
    firms = world.firms
    assert firms.cash[0] == 50.0 - tax
    assert world.ledger.get(0, "firms") == tax
    assert firms.last_profit[0] == profit
    assert firms.revenue[0] == 0.0


def test_close_books_taxes_last_months_profit():
    # month 1 stores 100 - 60 - 25 = 15; month 2 taxes those 15, not its revenue
    world = make_world(firms=[simple_firm(cash=50.0, last_profit=100.0, revenue=100.0)])
    firms = world.firms
    close_books(world, np.array([60.0]), 0.25)
    assert firms.last_profit[0] == 15.0
    firms.revenue[0] = 50.0
    close_books(world, np.array([0.0]), 0.25)
    assert firms.last_profit[0] == 50.0 - 3.75
    assert firms.cash[0] == 50.0 - 25.0 - 3.75
    assert world.ledger.get(0, "firms") == 25.0 + 3.75
