import math

import numpy as np
import pytest

from policysim import goods
from policysim.goods import choose_firms, goods_market_step, set_budget, transact
from policysim.params import SimParams
from policysim.sampling import BLOCK_CELLS
from policysim.world.types import distances

from conftest import (
    FamilySpec,
    make_families,
    make_firms,
    make_world,
    simple_citizen,
    simple_family,
    simple_firm,
    simple_house,
)

PRICE_CRITERION = SimParams().price_criterion_probability


@pytest.mark.parametrize(
    "cash,beta,budget,saved",
    [(200.0, 0.5, 100.0, 100.0), (200.0, 0.0, 0.0, 200.0), (200.0, 1.0, 200.0, 0.0)],
)
def test_set_budget_examples(cash, beta, budget, saved):
    families = make_families([simple_family(cash=cash)])
    got_budget, got_saved = set_budget(families, np.array([0]), beta)
    assert got_budget.tolist() == [budget]
    assert got_saved.tolist() == [saved]
    assert families.savings.tolist() == [saved]
    assert families.monthly_cash.tolist() == [0.0]


def test_set_budget_conserves_cash():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cash = float(rng.uniform(0, 1000))
        beta = float(rng.uniform(0, 1))
        families = make_families([simple_family(cash=cash)])
        [budget], [saved] = set_budget(families, np.array([0]), beta)
        assert abs(budget + saved - cash) <= 1e-9 * max(1.0, cash)
        assert families.savings[0] == saved
        assert families.monthly_cash[0] == 0.0


def shop_once(prices, locations=None, size_market=10, price_criterion_probability=1.0,
              seed=0):
    """One family at (0, 0) shops among firms with these prices; returns the firm id."""
    locations = locations or [(float(i), 0.0) for i in range(len(prices))]
    firms = [
        simple_firm(firm_id=i, price=p, location=locations[i], stock=1000.0)
        for i, p in enumerate(prices)
    ]
    world = make_world(
        [simple_citizen()], [simple_family(member_ids=(0,), cash=10.0)], [simple_house()],
        firms, seed=seed,
    )
    chosen = goods_market_step(world, world.active_families(), beta=1.0, size_market=size_market,
                               consumption_tax_rate=0.0, rng=world.rng,
                               price_criterion_probability=price_criterion_probability)
    assert len(chosen) == 1
    return int(chosen[0])


def test_choose_firm_by_price():
    assert shop_once([3.0, 1.0, 2.0], price_criterion_probability=1.0) == 1


def test_choose_firm_by_distance():
    chosen = shop_once([1.0, 1.0, 1.0], locations=[(5.0, 0.0), (2.0, 0.0), (9.0, 0.0)],
                       price_criterion_probability=0.0)
    assert chosen == 1


def test_choose_firm_price_tie_breaks_by_id():
    assert shop_once([2.0, 2.0, 5.0], price_criterion_probability=1.0) == 0


def test_choose_firm_sample_caps_at_population():
    for seed in range(20):
        # the sample is always the full population
        assert shop_once([3.0, 1.0], size_market=50, seed=seed) == 1


def test_choose_firm_distance_tie_breaks_by_id():
    # equidistant firms 2 and 1 tie, 1 wins
    firms = [
        simple_firm(firm_id=fid, location=location, stock=1000.0)
        for fid, location in enumerate(((9.0, 0.0), (0.0, 4.0), (4.0, 0.0)))
    ]
    world = make_world(
        [simple_citizen()], [simple_family(member_ids=(0,), cash=10.0)], [simple_house()],
        firms,
    )
    chosen = goods_market_step(world, world.active_families(), beta=1.0, size_market=10,
                               consumption_tax_rate=0.0, rng=world.rng,
                               price_criterion_probability=0.0)
    assert chosen.tolist() == [1]


def squared(point):
    return point[0] * point[0] + point[1] * point[1]


def hypot_tie():
    """Two firm offsets from a home at the origin whose squared sums order
    them unlike math.hypot (equal distances with unequal squares, or the
    opposite order), found by a seeded search. The one with the larger
    squared sum comes first: math.hypot, ties going to the lower id, picks it."""
    rng = np.random.default_rng(0)
    while True:
        first = tuple(rng.uniform(1.0, 10.0, size=2).tolist())
        angle = float(rng.uniform(0.0, math.pi / 2))
        radius = math.hypot(*first)
        second = (radius * math.cos(angle), radius * math.sin(angle))
        by_hypot = np.sign(math.hypot(*first) - math.hypot(*second))
        if by_hypot != np.sign(squared(first) - squared(second)):
            return (first, second) if squared(first) > squared(second) else (second, first)


TIES = {
    # mirrored through the home: the same squares and distances, bit for bit
    "mirrored": ((-1.1, 2.3), (1.1, -2.3)),
    "hypot": hypot_tie(),
    # squares below the smallest normal double keep a few bits: 1e-323 and
    # 5e-324, the opposite order of the distances 2.26e-162 and 2.5e-162
    "subnormal": ((1.6e-162, 1.6e-162), (2.5e-162, 0.0)),
}
TIE_HOME, CLEAR_HOME = 0, 1
TIE_SIZE_MARKET = 4  # every firm of tie_world, so every shopper samples the pair


def tie_world(pair):
    """Firms 0 and 1 at the pair, firm 2 far off and firm 3 1 km from the
    clear home; the tie home is at the origin. A memberless family 0 owns
    both houses."""
    firms = [
        simple_firm(firm_id=fid, location=location)
        for fid, location in enumerate((*pair, (50.0, 50.0), (100.0, 0.0)))
    ]
    houses = [simple_house(house_id=0), simple_house(house_id=1, location=(101.0, 0.0))]
    owner = FamilySpec(id=0, member_ids=set(), residence=0, owned_houses={0, 1})
    return make_world(families=[owner], houses=houses, firms=firms)


def nearest_by_hypot(world, house):
    x, y = world.houses.x[house].item(), world.houses.y[house].item()
    firms = zip(world.firms.x.tolist(), world.firms.y.tolist())
    return min((math.hypot(x - fx, y - fy), fid) for fid, (fx, fy) in enumerate(firms))[1]


@pytest.mark.parametrize("tie", sorted(TIES))
def test_tie_cases_are_ties(tie):
    world = tie_world(TIES[tie])
    assert nearest_by_hypot(world, TIE_HOME) == 0
    assert nearest_by_hypot(world, CLEAR_HOME) == 3
    squares = [squared(point) for point in TIES[tie]]
    if tie != "mirrored":
        # the least squared sum alone would pick firm 1
        assert squares[1] < squares[0]
    else:
        assert squares[0] == squares[1]


@pytest.mark.parametrize(
    "homes,shoppers",
    [([TIE_HOME], 1), ([CLEAR_HOME], 1), ([TIE_HOME, CLEAR_HOME], BLOCK_CELLS // TIE_SIZE_MARKET + 1)],
    ids=["one-tied-shopper", "one-clear-shopper", "two-blocks"],
)
@pytest.mark.parametrize("tie", sorted(TIES))
def test_choose_firms_settles_near_ties_by_hypot(tie, homes, shoppers, monkeypatch):
    """The nearest firm follows math.hypot, ties going to the lower id; only
    shoppers with a near tie measure with ``distances``."""
    world = tie_world(TIES[tie])
    measured = []

    def counted(*args):
        measured.append(len(args[0]))
        return distances(*args)

    monkeypatch.setattr(goods, "distances", counted)
    home_ids = np.resize(np.array(homes), shoppers)
    chosen = choose_firms(world, home_ids, TIE_SIZE_MARKET, world.rng, 0.0)
    assert chosen.tolist() == [nearest_by_hypot(world, house) for house in home_ids.tolist()]
    assert sum(measured) == np.count_nonzero(home_ids == TIE_HOME)


def buy_once(budget, consumption_tax_rate, **firm):
    """One purchase at a lone firm; returns its columns, the tax and the change."""
    firms = make_firms(["m0"], [simple_firm(**firm)])
    taxes, change = transact(firms, np.array([0]), np.array([budget]), consumption_tax_rate)
    return firms, float(taxes[0]), float(change[0])


def test_transact_budget_limited():
    firms, tax, change = buy_once(100.0, 0.1, price=2.0, stock=500.0)
    assert firms.stock[0] == 450.0
    assert abs(tax - 10.0) <= 1e-12
    assert abs(firms.cash[0] - 90.0) <= 1e-12
    assert abs(firms.revenue[0] - 90.0) <= 1e-12
    assert change == 0.0


def test_transact_stock_limited_returns_change():
    firms, tax, change = buy_once(100.0, 0.0, price=2.0, stock=10.0)
    assert tax == 0.0
    assert firms.stock[0] == 0.0
    assert firms.cash[0] == 20.0
    assert change == 80.0


def test_transact_empty_stock_returns_everything():
    firms, tax, change = buy_once(100.0, 0.1, price=2.0, stock=0.0)
    assert tax == 0.0
    assert firms.stock[0] == 0.0
    assert firms.cash[0] == 0.0
    assert change == 100.0


def test_transact_conserves_money():
    rng = np.random.default_rng(3)
    for _ in range(300):
        budget = float(rng.uniform(0, 100))
        price = float(rng.uniform(0.1, 10))
        stock = float(rng.uniform(0, 50))
        rate = float(rng.uniform(0, 1))
        firms, tax, change = buy_once(budget, rate, price=price, stock=stock)
        outflow = budget - change
        inflow = firms.cash[0] + tax
        assert abs(outflow - inflow) <= 1e-9 * max(1.0, budget)
        assert 0.0 <= firms.stock[0] <= stock


def market_world(num_families=6, num_firms=3, stock=100.0, cash=10.0):
    citizens, families, houses, firms = [], [], [], []
    for i in range(num_families):
        citizens.append(simple_citizen(cid=i, family_id=i))
        families.append(simple_family(family_id=i, member_ids=(i,), residence=i, cash=cash))
        houses.append(simple_house(house_id=i, location=(float(i), 0.0)))
    for j in range(num_firms):
        firms.append(simple_firm(firm_id=j, price=1.0, stock=stock, location=(float(j), 5.0)))
    return make_world(citizens, families, houses, firms)


def test_goods_market_zero_beta_means_zero_revenue():
    world = market_world()
    goods_market_step(world, world.active_families(), beta=0.0, size_market=2,
                      consumption_tax_rate=0.1, rng=world.rng,
                      price_criterion_probability=PRICE_CRITERION)
    assert all(revenue == 0.0 for revenue in world.firms.revenue)
    assert all(cash == 0.0 for cash in world.families.monthly_cash)
    assert all(savings == 10.0 for savings in world.families.savings)


def test_goods_market_stock_never_negative_and_fcfs():
    world = market_world(num_families=10, num_firms=1, stock=3.0, cash=10.0)
    total_before = world.firms.stock[0]
    goods_market_step(world, world.active_families(), beta=1.0, size_market=1,
                      consumption_tax_rate=0.0, rng=world.rng,
                      price_criterion_probability=PRICE_CRITERION)
    assert world.firms.stock[0] >= 0.0
    sold = total_before - world.firms.stock[0]
    assert abs(sold - 3.0) <= 1e-12
    # late families in the permutation got nothing: money returned
    returned = sum(world.families.monthly_cash.tolist())
    assert abs(returned - (10.0 * 10 - 3.0)) <= 1e-9


def test_goods_market_consumption_tax_to_firm_municipality():
    world = market_world(num_families=4, num_firms=2)
    goods_market_step(world, world.active_families(), beta=1.0, size_market=2,
                      consumption_tax_rate=0.25, rng=world.rng,
                      price_criterion_probability=PRICE_CRITERION)
    collected = world.ledger.get(0, "consumption")
    spent = sum(world.firms.revenue.tolist())
    # collected tax is a third of net revenue at a 25% rate
    assert collected > 0.0
    assert abs(collected / (spent + collected) - 0.25) <= 1e-9
