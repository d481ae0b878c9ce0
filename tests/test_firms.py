import numpy as np
import pytest

from policysim.firms import (
    FIRE_ONE,
    HOLD,
    OPEN_VACANCY,
    close_books,
    fire_employee,
    hire_fire_decision,
    lowest_qualified_employee,
    produce,
    update_price,
    update_wage,
)
from policysim.params import SimParams

from conftest import make_world, simple_citizen, simple_family, simple_firm, simple_house

PRICE_FLOOR = SimParams().price_floor


def world_with_employees(quals, firm_id=0):
    citizens = [
        simple_citizen(cid=i, family_id=0, qualification=q, employer=firm_id, wage=1.0)
        for i, q in enumerate(quals)
    ]
    family = simple_family(family_id=0, member_ids=tuple(range(len(quals))))
    house = simple_house(house_id=0)
    firm = simple_firm(firm_id=firm_id, employees=range(len(quals)))
    world = make_world(citizens, [family], [house], [firm])
    return world, firm


@pytest.mark.parametrize(
    "quals,alpha,expected",
    [
        ([3, 5], 1.0, 8.0),
        ([4, 9], 0.5, 5.0),
        ([7, 7, 7], 0.0, 3.0),
    ],
)
def test_produce_examples(quals, alpha, expected):
    world, firm = world_with_employees(quals)
    output = produce(world, firm, alpha)
    assert output == expected
    assert firm.stock == expected
    assert firm.last_output == expected


def test_produce_zero_qualification_convention():
    world, firm = world_with_employees([0, 4])
    assert produce(world, firm, 0.5) == 2.0  # 0**0.5 + sqrt(4)
    world2, firm2 = world_with_employees([0, 0])
    assert produce(world2, firm2, 0.0) == 2.0  # 0**0 counts as 1


def test_produce_insensitive_to_insertion_order():
    world_a, firm_a = world_with_employees([2, 11, 5, 7])
    world_b, firm_b = world_with_employees([2, 11, 5, 7])
    firm_b.employee_ids = set(reversed(sorted(firm_b.employee_ids)))
    assert produce(world_a, firm_a, 0.37) == produce(world_b, firm_b, 0.37)


def test_produce_monotone_in_workforce():
    world, firm = world_with_employees([3, 4])
    base = produce(world, firm, 0.5)
    world2, firm2 = world_with_employees([3, 4, 6])
    assert produce(world2, firm2, 0.5) > base


def test_update_price_never_evaluates_at_zero_probability():
    firm = simple_firm(price=1.0, stock=0.0)
    firm.last_output = 10.0
    for u in [0.0] + np.random.default_rng(0).random(50).tolist():
        assert update_price(firm, 0.5, 0.0, u, PRICE_FLOOR) == 1.0


def test_update_price_raises_on_scarce_stock():
    firm = simple_firm(price=1.0, stock=0.0)
    firm.last_output = 10.0
    price = update_price(firm, 0.1, 1.0, 0.5, PRICE_FLOOR)
    assert abs(price - 1.1) <= 1e-12


def test_update_price_cuts_on_glut():
    firm = simple_firm(price=1.0, stock=25.0)
    firm.last_output = 10.0
    price = update_price(firm, 0.1, 1.0, 0.5, PRICE_FLOOR)
    assert abs(price - 0.9) <= 1e-12


def test_update_price_zero_markup_is_inert():
    firm = simple_firm(price=2.0, stock=0.0)
    firm.last_output = 10.0
    assert update_price(firm, 0.0, 1.0, 0.5, PRICE_FLOOR) == 2.0


def test_update_price_floor():
    firm = simple_firm(price=1.0, stock=25.0)
    firm.last_output = 10.0
    price = update_price(firm, markup=0.999999, sticky_prices=1.0, u=0.5,
                         price_floor=1e-6)
    assert price >= 1e-6


def test_update_wage_ignores_unemployment_when_told():
    firm = simple_firm(employees=range(10))
    firm.revenue_this_month = 1000.0
    wage = update_wage(firm, 0.5, ignore_unemployment=True, price_floor=PRICE_FLOOR)
    assert wage == 100.0


def test_update_wage_damped_by_unemployment():
    firm = simple_firm(employees=range(10))
    firm.revenue_this_month = 1000.0
    wage = update_wage(firm, 0.2, ignore_unemployment=False, price_floor=PRICE_FLOOR)
    assert abs(wage - 80.0) <= 1e-12


def test_update_wage_flag_inert_at_full_employment():
    for flag in (True, False):
        firm = simple_firm(employees=range(10))
        firm.revenue_this_month = 1000.0
        wage = update_wage(firm, 0.0, ignore_unemployment=flag, price_floor=PRICE_FLOOR)
        assert wage == 100.0


def test_update_wage_empty_firm_uses_unit_divisor():
    firm = simple_firm()
    firm.revenue_this_month = 7.0
    assert update_wage(firm, 0.0, ignore_unemployment=True, price_floor=PRICE_FLOOR) == 7.0


def test_hire_fire_positive_profit_opens_vacancy():
    firm = simple_firm(firm_id=0)
    firm.last_profit = 50.0
    assert hire_fire_decision(firm, clock=0, labor_market_frequency=1) == OPEN_VACANCY


def test_hire_fire_fires_lowest_qualified():
    world, firm = world_with_employees([2, 5])
    firm.last_profit = -50.0
    assert hire_fire_decision(firm, clock=0, labor_market_frequency=1) == FIRE_ONE
    victim = lowest_qualified_employee(world, firm)
    assert world.citizens[victim].qualification == 2
    fire_employee(world, firm, victim)
    assert victim not in firm.employee_ids
    assert world.citizens[victim].employer is None
    assert world.citizens[victim].wage == 0.0


def test_fire_tie_breaks_by_id():
    world, firm = world_with_employees([5, 5, 7])
    assert lowest_qualified_employee(world, firm) == 0


def test_hire_fire_off_cycle_holds():
    firm = simple_firm(firm_id=0)
    firm.last_profit = 50.0
    assert hire_fire_decision(firm, clock=1, labor_market_frequency=2) == HOLD
    firm.last_profit = -50.0
    assert hire_fire_decision(firm, clock=1, labor_market_frequency=2) == HOLD


def test_hire_fire_cycle_is_per_firm():
    # firms decide on their own phase within the frequency window
    early = simple_firm(firm_id=0)
    late = simple_firm(firm_id=1)
    early.last_profit = late.last_profit = 50.0
    assert hire_fire_decision(early, clock=2, labor_market_frequency=2) == OPEN_VACANCY
    assert hire_fire_decision(late, clock=2, labor_market_frequency=2) == HOLD
    assert hire_fire_decision(late, clock=3, labor_market_frequency=2) == OPEN_VACANCY


def test_idle_firm_with_even_books_reopens():
    firm = simple_firm(firm_id=0)
    firm.last_profit = 0.0
    assert hire_fire_decision(firm, clock=0, labor_market_frequency=1) == OPEN_VACANCY


def test_fire_requires_employees():
    firm = simple_firm(firm_id=0)
    firm.last_profit = -10.0
    assert hire_fire_decision(firm, clock=0, labor_market_frequency=1) == HOLD


@pytest.mark.parametrize(
    "last_profit,rate,revenue,bills,tax,profit",
    [
        (100.0, 0.1, 100.0, {0: 60.0}, 10.0, 30.0),
        (0.0, 0.1, 0.0, {}, 0.0, 0.0),
        (-40.0, 0.1, 0.0, {0: 60.0}, 0.0, -60.0),
        (100.0, 0.0, 0.0, {}, 0.0, 0.0),
    ],
    ids=["taxed-profit", "idle", "untaxed-loss", "zero-rate"],
)
def test_close_books_examples(last_profit, rate, revenue, bills, tax, profit):
    world = make_world(firms=[simple_firm(cash=50.0)])
    firm = world.firms[0]
    firm.last_profit = last_profit
    firm.revenue_this_month = revenue
    close_books(world, bills, rate)
    assert firm.cash == 50.0 - tax
    assert world.ledger.get("m0", "firms") == tax
    assert firm.last_profit == profit
    assert firm.revenue_this_month == 0.0


def test_close_books_taxes_last_months_profit():
    # month 1 stores 100 - 60 - 25 = 15; month 2 taxes those 15, not its revenue
    world = make_world(firms=[simple_firm(cash=50.0)])
    firm = world.firms[0]
    firm.last_profit = 100.0
    firm.revenue_this_month = 100.0
    close_books(world, {0: 60.0}, 0.25)
    assert firm.last_profit == 15.0
    firm.revenue_this_month = 50.0
    close_books(world, {}, 0.25)
    assert firm.last_profit == 50.0 - 3.75
    assert firm.cash == 50.0 - 25.0 - 3.75
    assert world.ledger.get("m0", "firms") == 25.0 + 3.75
