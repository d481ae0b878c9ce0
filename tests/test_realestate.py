import copy

import numpy as np
import pytest

from policysim.fiscal import TaxLedger
from policysim.realestate import (
    SaleRecord,
    build_listings,
    collect_property_tax,
    hedonic_offer_price,
    match_market,
    reprice_houses,
    select_entrants,
)

from conftest import (
    assert_ownership_partition,
    make_world,
    simple_citizen,
    simple_family,
    simple_house,
)


def test_hedonic_formula():
    house = simple_house(size=50.0, quality=2)
    assert hedonic_offer_price(house, municipality_qli=1.0, base_coefficient=1.0) == 100.0
    assert house.current_price == 100.0


def test_hedonic_linear_in_qli():
    house = simple_house(size=50.0, quality=2)
    single = hedonic_offer_price(house, 1.0, 1.0)
    double = hedonic_offer_price(house, 2.0, 1.0)
    assert double == 2 * single


def test_hedonic_quality_ratio():
    low = simple_house(house_id=0, size=80.0, quality=1)
    high = simple_house(house_id=1, size=80.0, quality=4)
    p_low = hedonic_offer_price(low, 1.3, 0.7)
    p_high = hedonic_offer_price(high, 1.3, 0.7)
    assert abs(p_high / p_low - 4.0) <= 1e-12


def test_select_entrants_edges():
    families = [simple_family(family_id=i) for i in range(25)]
    rng = np.random.default_rng(0)
    assert select_entrants(families, 0.0, rng) == []
    assert select_entrants(families, 1.0, rng) == [f.id for f in families]


def test_select_entrants_binomial():
    families = [simple_family(family_id=i) for i in range(10_000)]
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
    buyer, seller = world.families[0], world.families[1]
    assert abs(buyer.savings - 10.0) <= 1e-9
    assert abs(seller.savings - (30.0 + 81.0)) <= 1e-9
    assert abs(world.ledger.get("m0", "transaction") - 9.0) <= 1e-9
    assert 2 in buyer.owned_houses
    assert 2 not in seller.owned_houses


def test_buyer_without_budget_buys_nothing():
    world = sale_world()
    world.families[0].savings = 5.0
    sales = match_market(world, [0], [2], 0.1)
    assert sales == []


def test_richest_entrant_bids_first():
    world = sale_world()
    world.families[0].savings = 500.0
    world.families[1].savings = 300.0
    # one affordable listing; the poorer family owns it, so both could bid
    world.houses[2].current_price = 250.0
    sales = match_market(world, [0, 1], [2], 0.0)
    assert len(sales) == 1
    assert sales[0].buyer_id == 0


def test_no_self_purchase():
    world = sale_world()
    # family 1 owns the vacant house and enters alone with deep savings
    world.families[1].savings = 500.0
    sales = match_market(world, [1], [2], 0.1)
    assert sales == []


def test_relocation_into_better_house():
    world = sale_world()
    # vacant house dominates the buyer's residence
    world.houses[2].size = 90.0
    world.houses[2].quality = 4
    world.houses[2].current_price = 80.0
    sales = match_market(world, [0], [2], 0.0)
    assert len(sales) == 1
    buyer = world.families[0]
    assert buyer.residence == 2
    residents = world.residents_by_house(world.active_families())
    assert residents[2] is buyer
    assert 0 not in residents


def test_vacated_house_enters_market_same_step():
    world = sale_world()
    world.houses[2].size = 90.0
    world.houses[2].quality = 4
    world.houses[2].current_price = 80.0
    # second entrant can afford the vacated house (priced at 10)
    world.families[1].savings = 20.0
    sales = match_market(world, [0, 1], [2], 0.0)
    assert len(sales) == 2
    assert sales[1].house_id == 0
    assert sales[1].buyer_id == 1


def test_sale_conserves_money():
    rng = np.random.default_rng(2)
    for _ in range(200):
        world = sale_world()
        world.families[0].savings = float(rng.uniform(50, 400))
        world.houses[2].current_price = float(rng.uniform(1, world.families[0].savings))
        rate = float(rng.uniform(0, 0.5))
        before = world.families[0].savings + world.families[1].savings
        sales = match_market(world, [0], [2], rate)
        after = world.families[0].savings + world.families[1].savings
        assert len(sales) == 1
        leak = before - after - world.ledger.get("m0", "transaction")
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
    world.municipalities["core"].qli = 2.0
    reprice_houses(world, params.hedonic_base_coefficient)
    for house in world.houses.values():
        qli = world.municipalities[house.municipality_id].qli
        expected = params.hedonic_base_coefficient * house.size * house.quality * qli
        assert abs(house.current_price - expected) <= 1e-12


def test_property_tax_examples():
    world = sale_world()
    world.houses[0].current_price = 100.0
    world.families[0].monthly_cash = 5.0
    collect_property_tax(world, world.active_families(), 0.005)
    assert abs(world.families[0].monthly_cash - 4.5) <= 1e-12
    assert world.ledger.get("m0", "property") >= 0.5


def test_property_tax_zero_rate():
    world = sale_world()
    world.families[0].monthly_cash = 5.0
    world.families[1].monthly_cash = 5.0
    collect_property_tax(world, world.active_families(), 0.0)
    assert world.ledger.total() == 0.0
    assert world.families[0].monthly_cash == 5.0


def test_property_tax_clamped_at_cash():
    world = sale_world()
    world.houses[0].current_price = 100.0
    world.families[0].monthly_cash = 0.2
    world.families[1].monthly_cash = 1.0
    collect_property_tax(world, world.active_families(), 0.005)  # family 0 owes 0.5, has 0.2
    assert world.families[0].monthly_cash == 0.0
    assert abs(world.ledger.get("m0", "property") - (0.2 + 0.05)) <= 1e-12  # family 1 pays 0.05


def test_vacant_houses_pay_no_property_tax():
    world = sale_world()
    world.families[0].monthly_cash = 10.0
    world.families[1].monthly_cash = 10.0
    total_price = world.houses[0].current_price + world.houses[1].current_price
    collect_property_tax(world, world.active_families(), 0.01)
    assert abs(world.ledger.get("m0", "property") - 0.01 * total_price) <= 1e-12


def test_home_of_an_extinct_family_is_vacant():
    # family 1 died out with no heir: it keeps its houses, but lives nowhere
    world = sale_world()
    world.families[1].member_ids.clear()
    world.families[0].monthly_cash = world.families[1].monthly_cash = 10.0
    assert build_listings(world, world.active_families()) == [1, 2]
    collect_property_tax(world, world.active_families(), 0.01)
    assert world.ledger.get("m0", "property") == 0.01 * world.houses[0].current_price
    assert world.families[1].monthly_cash == 10.0


def reference_match_market(world, entrant_ids, listings, transaction_tax_rate, ledger,
                           seen):
    """The dict-scan matcher kept as the reference for match_market.

    For every buyer it scans all open listings and keeps the maximum of
    (offer, -house_id) over the affordable ones the buyer does not own.
    The seller is found by scanning every family's owned houses.
    seen collects which edge cases the scan met.
    """
    open_listings = {hid: world.houses[hid].current_price for hid in listings}
    vacated = set()
    order = sorted(
        (world.families[fid] for fid in entrant_ids),
        key=lambda family: (-family.savings, family.id),
    )
    sales = []
    for buyer in order:
        bid = buyer.savings
        best_house = None
        for house_id, offer in open_listings.items():
            if offer > bid:
                continue
            house = world.houses[house_id]
            if house_id in buyer.owned_houses:
                continue
            if best_house is None or (offer, -house_id) > (
                open_listings[best_house.id],
                -best_house.id,
            ):
                best_house = house
        affordable = [
            (offer, -hid) for hid, offer in open_listings.items() if offer <= bid
        ]
        if not affordable:
            seen.add("no affordable listing")
        elif -max(affordable)[1] in buyer.owned_houses:
            seen.add("buyer owns the best affordable listing")
        if best_house is None:
            continue
        offer = open_listings.pop(best_house.id)
        if any(
            other_offer == offer and hid not in buyer.owned_houses
            for hid, other_offer in open_listings.items()
        ):
            seen.add("equal offers")
        if offer == bid:
            seen.add("bid == offer")
        if best_house.id in vacated:
            seen.add("vacated residence resold")
        seller = next(
            family for family in world.families.values()
            if best_house.id in family.owned_houses
        )
        price = (bid + offer) / 2.0
        tax = price * transaction_tax_rate
        buyer.savings -= price
        seller.savings += price - tax
        ledger.add(best_house.municipality_id, "transaction", tax)
        seller.owned_houses.discard(best_house.id)
        buyer.owned_houses.add(best_house.id)
        sales.append(
            SaleRecord(
                month=world.clock,
                house_id=best_house.id,
                seller_id=seller.id,
                buyer_id=buyer.id,
                bid=bid,
                offer=offer,
                transaction_price=price,
                tax=tax,
            )
        )
        residence = world.houses[buyer.residence]
        new_score = best_house.amenity_score(
            world.municipalities[best_house.municipality_id].qli
        )
        old_score = residence.amenity_score(
            world.municipalities[residence.municipality_id].qli
        )
        if new_score > old_score:
            open_listings[residence.id] = residence.current_price
            vacated.add(residence.id)
            buyer.residence = best_house.id
    return sales


def random_market(seed):
    """A small market on a coarse price grid, so ties and exact bids are common."""
    rng = np.random.default_rng(seed)
    n_families = int(rng.integers(2, 9))
    citizens, families, houses = [], [], []
    for fid in range(n_families):
        citizens.append(simple_citizen(cid=fid, family_id=fid))
        families.append(
            simple_family(family_id=fid, member_ids=(fid,), residence=fid,
                          savings=10.0 * int(rng.integers(0, 9)))
        )
        houses.append(
            simple_house(house_id=fid, size=float(rng.integers(1, 4)),
                         quality=int(rng.integers(1, 4)),
                         price=10.0 * int(rng.integers(1, 6)))
        )
    for hid in range(n_families, n_families + int(rng.integers(0, 8))):
        owner = int(rng.integers(0, n_families))
        houses.append(
            simple_house(house_id=hid, size=float(rng.integers(1, 4)),
                         quality=int(rng.integers(1, 4)),
                         price=10.0 * int(rng.integers(1, 6)))
        )
        families[owner].owned_houses.add(hid)
    world = make_world(citizens, families, houses)
    entrants = [fid for fid in range(n_families) if rng.random() < 0.7]
    order = rng.permutation(len(houses))
    residences = {family.residence for family in families}
    listings = [houses[i].id for i in order if houses[i].id not in residences]
    return world, entrants, listings


def market_state(world, ledger):
    return (
        [(f.id, f.residence, sorted(f.owned_houses), f.savings)
         for f in world.families.values()],
        ledger.get("m0", "transaction"),
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
