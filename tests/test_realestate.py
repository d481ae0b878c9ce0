import copy

import numpy as np
import pytest

from policysim.fiscal import TaxLedger
from policysim.realestate import (
    SaleRecord,
    build_listings,
    collect_property_tax,
    hedonic_offer_prices,
    match_market,
    reprice_houses,
    select_entrants,
)
from policysim.world.regions import MunicipalitySpec

from conftest import (
    assert_ownership_partition,
    make_houses,
    make_region,
    make_world,
    simple_citizen,
    simple_family,
    simple_house,
)


def offers(houses, qli, base_coefficient):
    """The hedonic offers of simple_house specs, all in municipality m0."""
    return hedonic_offer_prices(
        make_houses(["m0"], houses), np.array([qli]), base_coefficient
    ).tolist()


def test_hedonic_formula():
    assert offers([simple_house(size=50.0, quality=2)], 1.0, 1.0) == [100.0]


def test_hedonic_linear_in_qli():
    house = simple_house(size=50.0, quality=2)
    [single] = offers([house], 1.0, 1.0)
    [double] = offers([house], 2.0, 1.0)
    assert double == 2 * single


def test_hedonic_quality_ratio():
    low = simple_house(house_id=0, size=80.0, quality=1)
    high = simple_house(house_id=1, size=80.0, quality=4)
    p_low, p_high = offers([low, high], 1.3, 0.7)
    assert abs(p_high / p_low - 4.0) <= 1e-12


def test_hedonic_multiplies_left_to_right():
    rng = np.random.default_rng(3)
    qli = rng.uniform(0.5, 3.0, size=2)
    sizes = rng.uniform(30.0, 120.0, size=200).tolist()
    houses = make_houses(["m0", "m1"], [
        simple_house(house_id=i, muni=f"m{i % 2}", size=size, quality=1 + i % 4)
        for i, size in enumerate(sizes)
    ])
    expected = [
        0.37 * size * (1 + i % 4) * float(qli[i % 2]) for i, size in enumerate(sizes)
    ]
    assert hedonic_offer_prices(houses, qli, 0.37).tolist() == expected


def test_select_entrants_edges():
    families = np.arange(25)
    rng = np.random.default_rng(0)
    assert select_entrants(families, 0.0, rng).tolist() == []
    assert select_entrants(families, 1.0, rng).tolist() == families.tolist()


def test_select_entrants_binomial():
    families = np.arange(10_000)
    rng = np.random.default_rng(11)
    chosen = select_entrants(families, 0.1, rng)
    mean = 1000.0
    sigma = (10_000 * 0.1 * 0.9) ** 0.5
    assert abs(len(chosen) - mean) <= 4 * sigma


def sale_world():
    """Two families, one occupied house each, plus one vacant for sale."""
    citizens = [simple_citizen(cid=i, family_id=i) for i in range(2)]
    families = [
        simple_family(family_id=0, member_ids=(0,), residence=0, savings=100.0),
        simple_family(family_id=1, member_ids=(1,), residence=1, savings=30.0),
    ]
    families[1].owned_houses.add(2)
    houses = [
        simple_house(house_id=0, size=60.0, quality=3, price=10.0),
        simple_house(house_id=1, size=60.0, quality=3, price=10.0),
        simple_house(house_id=2, size=40.0, quality=1, price=80.0),
    ]
    return make_world(citizens, families, houses)


def test_sale_worked_example():
    world = sale_world()
    sales = match_market(world, [0], [2], transaction_tax_rate=0.1)
    assert len(sales) == 1
    sale = sales[0]
    assert sale.bid == 100.0
    assert sale.offer == 80.0
    assert sale.transaction_price == 90.0
    assert abs(sale.tax - 9.0) <= 1e-9
    savings = world.families.savings
    assert abs(savings[0] - 10.0) <= 1e-9
    assert abs(savings[1] - (30.0 + 81.0)) <= 1e-9
    assert abs(world.ledger.get(0, "transaction") - 9.0) <= 1e-9
    assert world.houses.owner[2] == 0


def test_buyer_without_budget_buys_nothing():
    world = sale_world()
    world.families.savings[0] = 5.0
    sales = match_market(world, [0], [2], 0.1)
    assert sales == []


def test_richest_entrant_bids_first():
    world = sale_world()
    world.families.savings[0] = 500.0
    world.families.savings[1] = 300.0
    # one affordable listing; the poorer family owns it, so both could bid
    world.houses.price[2] = 250.0
    sales = match_market(world, [0, 1], [2], 0.0)
    assert len(sales) == 1
    assert sales[0].buyer_id == 0


def test_no_self_purchase():
    world = sale_world()
    # family 1 owns the vacant house and enters alone with deep savings
    world.families.savings[1] = 500.0
    sales = match_market(world, [1], [2], 0.1)
    assert sales == []


def test_relocation_into_better_house():
    world = sale_world()
    # vacant house dominates the buyer's residence
    world.houses.size[2] = 90.0
    world.houses.quality[2] = 4
    world.houses.price[2] = 80.0
    sales = match_market(world, [0], [2], 0.0)
    assert len(sales) == 1
    assert world.families.residence[0] == 2
    assert world.families.residence[world.active_families()].tolist() == [2, 1]


def test_vacated_house_enters_market_same_step():
    world = sale_world()
    world.houses.size[2] = 90.0
    world.houses.quality[2] = 4
    world.houses.price[2] = 80.0
    # second entrant can afford the vacated house (priced at 10)
    world.families.savings[1] = 20.0
    sales = match_market(world, [0, 1], [2], 0.0)
    assert len(sales) == 2
    assert sales[1].house_id == 0
    assert sales[1].buyer_id == 1


def test_sale_conserves_money():
    rng = np.random.default_rng(2)
    for _ in range(200):
        world = sale_world()
        world.families.savings[0] = float(rng.uniform(50, 400))
        world.houses.price[2] = float(rng.uniform(1, world.families.savings[0]))
        rate = float(rng.uniform(0, 0.5))
        before = world.families.savings[0] + world.families.savings[1]
        sales = match_market(world, [0], [2], rate)
        after = world.families.savings[0] + world.families.savings[1]
        assert len(sales) == 1
        leak = before - after - world.ledger.get(0, "transaction")
        assert abs(leak) <= 1e-9 * max(1.0, before)
        sale = sales[0]
        assert min(sale.bid, sale.offer) <= sale.transaction_price <= max(sale.bid, sale.offer)


def test_buyers_ordered_by_starting_savings():
    citizens = [simple_citizen(cid=i, family_id=i) for i in range(4)]
    families = [
        simple_family(family_id=i, member_ids=(i,), residence=i,
                      savings=float(100 + 50 * i))
        for i in range(4)
    ]
    houses = [simple_house(house_id=i, price=5.0) for i in range(4)]
    for j in range(3):
        houses.append(simple_house(house_id=4 + j, price=float(20 + j)))
    families[0].owned_houses.update({4, 5, 6})
    world = make_world(citizens, families, houses)
    listings = build_listings(world, world.active_families())
    sales = match_market(world, [0, 1, 2, 3], listings, 0.0)
    buyer_starting_savings = [100.0 + 50 * s.buyer_id for s in sales]
    assert buyer_starting_savings == sorted(buyer_starting_savings, reverse=True)
    for sale in sales:
        assert sale.offer <= sale.bid


def test_ownership_stays_a_partition_over_a_run(fixture3):
    from policysim import SimParams, generate_world
    from policysim.labor import calibrate_initial_unemployment
    from policysim.params import set_param
    from policysim.scheduler import step

    params = SimParams()
    params.percentage_actual_pop = 1.0
    set_param(params, "TAXES.PROPERTY", 0.002)
    set_param(params, "PERCENTAGE_CHECK_NEW_LOCATION", 0.1)
    world = generate_world(fixture3, params, seed=5)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    families_at_start = len(world.families)
    for _ in range(60):
        step(world, params)
        assert_ownership_partition(world)
    # both write paths ran: sales and estate transfers of deleted families
    assert world.sales_log
    assert len(world.families) < families_at_start


def test_reprice_houses_applies_qli(fixture3):
    from policysim import SimParams, generate_world

    params = SimParams()
    world = generate_world(fixture3, params, seed=6)
    ids = world.region.municipality_ids
    world.qli[ids.index("core")] = 2.0
    reprice_houses(world, params.hedonic_base_coefficient)
    for house in world.houses.records(ids):
        qli = world.qli[ids.index(house["municipality_id"])]
        expected = params.hedonic_base_coefficient * house["size"] * house["quality"] * qli
        assert abs(house["current_price"] - expected) <= 1e-12


def test_property_tax_examples():
    world = sale_world()
    world.houses.price[0] = 100.0
    world.families.monthly_cash[0] = 5.0
    collect_property_tax(world, world.active_families(), 0.005)
    assert abs(world.families.monthly_cash[0] - 4.5) <= 1e-12
    assert world.ledger.get(0, "property") >= 0.5


def test_property_tax_zero_rate():
    world = sale_world()
    world.families.monthly_cash[0] = 5.0
    world.families.monthly_cash[1] = 5.0
    collect_property_tax(world, world.active_families(), 0.0)
    assert world.ledger.total() == 0.0
    assert world.families.monthly_cash[0] == 5.0


def test_property_tax_clamped_at_cash():
    world = sale_world()
    world.houses.price[0] = 100.0
    world.families.monthly_cash[0] = 0.2
    world.families.monthly_cash[1] = 1.0
    collect_property_tax(world, world.active_families(), 0.005)  # family 0 owes 0.5, has 0.2
    assert world.families.monthly_cash[0] == 0.0
    assert abs(world.ledger.get(0, "property") - (0.2 + 0.05)) <= 1e-12  # family 1 pays 0.05


def test_vacant_houses_pay_no_property_tax():
    world = sale_world()
    world.families.monthly_cash[0] = 10.0
    world.families.monthly_cash[1] = 10.0
    total_price = world.houses.price[0] + world.houses.price[1]
    collect_property_tax(world, world.active_families(), 0.01)
    assert abs(world.ledger.get(0, "property") - 0.01 * total_price) <= 1e-12


def test_home_of_an_extinct_family_is_vacant():
    # family 1 died out with no heir: it keeps its houses, but lives nowhere
    world = sale_world()
    world.citizens.alive[1] = False
    world.families.monthly_cash[0] = world.families.monthly_cash[1] = 10.0
    assert build_listings(world, world.active_families()) == [1, 2]
    collect_property_tax(world, world.active_families(), 0.01)
    assert world.ledger.get(0, "property") == 0.01 * world.houses.price[0]
    assert world.families.monthly_cash[1] == 10.0


def test_extinct_family_without_heir_sells_its_only_house():
    # family 1 died out with no heir and owns one house, its old home
    world = sale_world()
    world.houses.owner[2] = 0
    world.citizens.alive[1] = False
    listings = build_listings(world, world.active_families())
    assert listings == [1, 2]
    [sale] = match_market(world, [0], listings, 0.0)
    assert (sale.house_id, sale.seller_id, sale.buyer_id) == (1, 1, 0)
    assert world.families.savings[1] == 30.0 + 55.0
    assert 1 not in world.houses.owner
    assert_ownership_partition(world)


def reference_match_market(world, entrant_ids, listings, transaction_tax_rate, ledger,
                           seen):
    """The dict-scan matcher kept as the reference for match_market.

    For every buyer it scans all open listings and keeps the maximum of
    (offer, -house_id) over the affordable ones the buyer does not own.
    The seller is found by scanning every family's owned houses, a set per
    family built from ``Houses.owner`` on entry and written back to it on
    return. seen collects which edge cases the scan met.
    """
    houses = world.houses
    open_listings = {hid: float(houses.price[hid]) for hid in listings}

    def municipality(house_id):
        return int(houses.municipality[house_id])

    def amenity_score(house_id):
        qli = float(world.qli[int(houses.municipality[house_id])])
        return float(houses.size[house_id]) * int(houses.quality[house_id]) * qli

    vacated = set()
    families = world.families
    savings = families.savings
    owned_houses = [set() for _ in range(len(families.present))]
    for house_id, fid in enumerate(houses.owner.tolist()):
        owned_houses[fid].add(house_id)
    order = sorted(entrant_ids, key=lambda fid: (-float(savings[fid]), fid))
    sales = []
    for buyer in order:
        bid = float(savings[buyer])
        best_house = None
        for house_id, offer in open_listings.items():
            if offer > bid:
                continue
            if house_id in owned_houses[buyer]:
                continue
            if best_house is None or (offer, -house_id) > (
                open_listings[best_house],
                -best_house,
            ):
                best_house = house_id
        affordable = [
            (offer, -hid) for hid, offer in open_listings.items() if offer <= bid
        ]
        if not affordable:
            seen.add("no affordable listing")
        elif -max(affordable)[1] in owned_houses[buyer]:
            seen.add("buyer owns the best affordable listing")
        if best_house is None:
            continue
        offer = open_listings.pop(best_house)
        if any(
            other_offer == offer and hid not in owned_houses[buyer]
            for hid, other_offer in open_listings.items()
        ):
            seen.add("equal offers")
        if offer == bid:
            seen.add("bid == offer")
        if best_house in vacated:
            seen.add("vacated residence resold")
        seller = next(
            fid for fid in families if best_house in owned_houses[fid]
        )
        price = (bid + offer) / 2.0
        tax = price * transaction_tax_rate
        savings[buyer] = float(savings[buyer]) - price
        savings[seller] = float(savings[seller]) + (price - tax)
        ledger.book("transaction", [municipality(best_house)], [tax])
        owned_houses[seller].discard(best_house)
        owned_houses[buyer].add(best_house)
        sales.append(
            SaleRecord(
                month=world.clock,
                house_id=best_house,
                seller_id=seller,
                buyer_id=buyer,
                bid=bid,
                offer=offer,
                transaction_price=price,
                tax=tax,
            )
        )
        residence = int(families.residence[buyer])
        if amenity_score(best_house) > amenity_score(residence):
            open_listings[residence] = float(houses.price[residence])
            vacated.add(residence)
            families.residence[buyer] = best_house
    for fid, owned in enumerate(owned_houses):
        houses.owner[sorted(owned)] = fid
    return sales


MARKET_TOWNS = {"m0": 1.0, "m1": 1.7}  # qli by municipality


def random_market(seed):
    """A small market on a coarse price grid, so ties and exact bids are
    common. The houses alternate between two towns of unequal qli, so a
    move compares size x quality x qli, not size x quality alone."""
    rng = np.random.default_rng(seed)
    towns = list(MARKET_TOWNS)
    n_families = int(rng.integers(2, 9))
    citizens, families, houses = [], [], []
    for fid in range(n_families):
        citizens.append(simple_citizen(cid=fid, family_id=fid))
        families.append(
            simple_family(family_id=fid, member_ids=(fid,), residence=fid,
                          savings=10.0 * int(rng.integers(0, 9)))
        )
        houses.append(
            simple_house(house_id=fid, muni=towns[fid % 2], size=float(rng.integers(1, 4)),
                         quality=int(rng.integers(1, 4)),
                         price=10.0 * int(rng.integers(1, 6)))
        )
    for hid in range(n_families, n_families + int(rng.integers(0, 8))):
        owner = int(rng.integers(0, n_families))
        houses.append(
            simple_house(house_id=hid, muni=towns[hid % 2], size=float(rng.integers(1, 4)),
                         quality=int(rng.integers(1, 4)),
                         price=10.0 * int(rng.integers(1, 6)))
        )
        families[owner].owned_houses.add(hid)
    region = make_region(
        municipalities=[MunicipalitySpec(town, 100, (0.0, 0.0, 10.0, 10.0)) for town in towns]
    )
    world = make_world(citizens, families, houses, region=region)
    world.qli[:] = list(MARKET_TOWNS.values())
    entrants = [fid for fid in range(n_families) if rng.random() < 0.7]
    order = rng.permutation(len(houses))
    residences = {family.residence for family in families}
    listings = [houses[i]["id"] for i in order if houses[i]["id"] not in residences]
    return world, entrants, listings


def market_state(world, ledger):
    return (
        [(fid, int(families.residence[fid]),
          np.flatnonzero(world.houses.owner == fid).tolist(), float(families.savings[fid]))
         for families in [world.families] for fid in families],
        [ledger.get(row, "transaction") for row in range(len(MARKET_TOWNS))],
    )


def test_match_market_equals_dict_scan_reference():
    seen = set()
    for seed in range(80):
        world, entrants, listings = random_market(seed)
        reference_world = copy.deepcopy(world)
        reference_ledger = TaxLedger()
        sales = match_market(world, entrants, listings, 0.1)
        reference_sales = reference_match_market(
            reference_world, entrants, listings, 0.1, reference_ledger, seen
        )
        assert sales == reference_sales, seed
        assert market_state(world, world.ledger) == market_state(
            reference_world, reference_ledger
        ), seed
    assert seen == {
        "no affordable listing",
        "buyer owns the best affordable listing",
        "equal offers",
        "bid == offer",
        "vacated residence resold",
    }
