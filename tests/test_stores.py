"""Bookkeeping of the citizen, family and house column stores over a run.

A citizen's id is its row: a birth appends a row and a death clears its
``alive`` flag. A family's id is its row: an extinct family that passes its
estate to an heir clears its ``present`` flag. These checks step fixture3
through months that hold births, deaths and estate transfers and look at
the stores between the substeps.
"""

from dataclasses import replace

import numpy as np
import pytest

from policysim import SimParams, generate_world, realestate
from policysim.demographics import age_step, fertility_step, mortality_step
from policysim.labor import build_pool, calibrate_initial_unemployment
from policysim.runner import DUMPS
from policysim.scheduler import (
    RunResult,
    record_month,
    step_firm_decisions,
    step_fiscal,
    step_goods_market,
    step_labor_market,
    step_production,
    step_real_estate,
)
from policysim.world.types import UNEMPLOYED

from conftest import (
    FamilySpec,
    assert_ownership_partition,
    make_world,
    simple_citizen,
    simple_family,
    simple_house,
)

MONTHS = 24


def check_employment(world):
    """Only the living work, and headcount is the count of each employer."""
    citizens = world.citizens
    employed = citizens.employed()
    assert citizens.alive[employed].all()
    assert (citizens.employer[~citizens.alive] == UNEMPLOYED).all()
    assert (citizens.wage[~citizens.alive] == 0.0).all()
    counts = [int(np.count_nonzero(citizens.employer == firm)) for firm in range(len(world.firms))]
    assert citizens.headcount(len(world.firms)).tolist() == counts
    assert sum(counts) == len(employed)


def check_listing(world):
    state = world.to_dict()
    ids = [record["id"] for record in state["citizens"]]
    assert ids == sorted(ids) == list(world.citizens)
    assert len(world.citizens) == len(ids) == int(np.count_nonzero(world.citizens.alive))
    # membership is the citizens' family column of the living
    members = {}
    for record in state["citizens"]:
        members.setdefault(record["family_id"], set()).add(record["id"])
    listed = {family["id"]: family["member_ids"] for family in state["families"]}
    assert {fid: ids for fid, ids in listed.items() if ids} == members
    assert [family["id"] for family in state["families"]] == list(world.families)
    # the active families are the present rows with members
    assert world.active_families().tolist() == sorted(members)


def check_residences(world, active):
    """No two active families share a residence: the property levy places
    each payer at its own house."""
    residences = world.families.residence[active]
    assert len(np.unique(residences)) == len(residences)


def check_wealth(world, active):
    """World.wealth against each family's cash + savings + sum(prices in house id order)."""
    families, prices, owner = world.families, world.houses.price.tolist(), world.houses.owner
    expected = [
        families.monthly_cash[fid].item() + families.savings[fid].item()
        + sum(prices[house_id] for house_id in np.flatnonzero(owner == fid).tolist())
        for fid in active.tolist()
    ]
    assert world.wealth(active).tolist() == expected


def full_scan_sellers(monkeypatch):
    """Wrap match_market so that it records, for each sale, its seller and
    the owner in a copy of ``Houses.owner`` taken before the market, which
    each earlier sale of the month has updated."""
    checked = []
    original = realestate.match_market

    def match_market(world, entrant_ids, listings, transaction_tax_rate):
        owners = world.houses.owner.copy()
        sales = original(world, entrant_ids, listings, transaction_tax_rate)
        for sale in sales:
            checked.append((sale.seller_id, owners[sale.house_id]))
            owners[sale.house_id] = sale.buyer_id
        return sales

    monkeypatch.setattr(realestate, "match_market", match_market)
    return checked


def step_months(world, params, months):
    """Step MONTHS months substep by substep, checking the stores between them."""
    rng = world.rng
    for _ in range(MONTHS):
        step_production(world, params)
        age_step(world)
        living = len(world.citizens)
        families = len(world.families)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        present = list(world.families)
        deaths = mortality_step(world, rng)
        deleted = sorted(set(present) - set(world.families))
        check_employment(world)
        check_listing(world)
        assert_ownership_partition(world)
        # one uniform per living citizen, then one heir draw per extinct family
        replay.random(living)
        heirs = len(world.active_families())
        for _ in range(families - len(world.families)):
            replay.integers(0, heirs)
        same_stream = replay.bit_generator.state == rng.bit_generator.state
        first_newborn = world.citizens.rows
        births = fertility_step(world, rng)
        check_listing(world)
        assert world.citizens.rows == first_newborn + len(births)
        months.append((deaths, births, first_newborn, same_stream, deleted))
        active = world.active_families()
        check_residences(world, active)
        step_goods_market(world, params, rng, active)
        vacancies = step_firm_decisions(world, params, rng)
        check_employment(world)
        pool = build_pool(world, params, vacancies)
        assert set(pool.candidates.tolist()) <= set(world.citizens)
        step_labor_market(world, params, rng, vacancies)
        check_employment(world)
        step_real_estate(world, params, rng, active)
        check_residences(world, active)
        assert_ownership_partition(world)
        taxes = step_fiscal(world, params)
        check_wealth(world, active)
        record = record_month(world, params, taxes, active)
        assert record.population == len(world.citizens)
        world.clock += 1


@pytest.fixture(scope="module")
def stepped(fixture3):
    """The stepped world; for each month its births, deaths, mortality
    stream state and the families deleted after passing their estates; and
    each sale's seller with the owner a full scan finds."""
    params = SimParams(percentage_actual_pop=1.0)
    params.taxes.property = 0.002
    world = generate_world(fixture3, params, seed=3)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    months = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        sellers = full_scan_sellers(monkeypatch)
        step_months(world, params, months)
    return world, months, sellers


def test_months_hold_births_and_deaths(stepped):
    _, months, _ = stepped
    assert sum(len(deaths) for deaths, _, _, _, _ in months) > 0
    assert sum(len(births) for _, births, _, _, _ in months) > 0


def test_newborns_take_the_next_ids(stepped):
    world, months, _ = stepped
    for _, births, first_newborn, _, _ in months:
        assert births == list(range(first_newborn, first_newborn + len(births)))
    assert world.to_dict()["next_citizen_id"] == world.citizens.rows


def test_the_dead_leave_the_listing_and_keep_their_rows(stepped):
    world, months, _ = stepped
    dead = [cid for deaths, _, _, _, _ in months for cid in deaths]
    assert len(dead) == len(set(dead))
    assert not world.citizens.alive[dead].any()
    assert set(dead).isdisjoint(world.citizens)
    assert len(world.citizens) + len(dead) == world.citizens.rows


def test_mortality_draws_one_uniform_per_living_citizen(stepped):
    _, months, _ = stepped
    assert all(same_stream for _, _, _, same_stream, _ in months)


def python_types(record):
    return {key: type(value).__name__ for key, value in record.items()}


def test_records_hold_python_values(stepped):
    world, _, _ = stepped
    state = world.to_dict()
    employed = unemployed = 0
    for record in state["citizens"]:
        assert tuple(record) == (
            "id", "family_id", "age", "gender", "qualification", "birth_month", "employer",
            "wage",
        )
        assert record["gender"] in ("female", "male")
        types = python_types(record)
        assert types == {
            "id": "int", "family_id": "int", "age": "int", "gender": "str",
            "qualification": "int", "birth_month": "int",
            "employer": "int" if record["employer"] is not None else "NoneType",
            "wage": "float",
        }
        if record["employer"] is None:
            unemployed += 1
            assert record["wage"] == 0.0
        else:
            employed += 1
    assert employed and unemployed
    for record in state["houses"]:
        assert tuple(record) == (
            "id", "municipality_id", "location", "size", "quality", "current_price",
        )
        assert python_types(record) == {
            "id": "int", "municipality_id": "str", "location": "tuple", "size": "float",
            "quality": "int", "current_price": "float",
        }
        assert [type(value) for value in record["location"]] == [float, float]
    staff = {}
    for record in state["citizens"]:
        if record["employer"] is not None:
            staff.setdefault(record["employer"], set()).add(record["id"])
    for record in state["firms"]:
        assert tuple(record) == (
            "id", "municipality_id", "location", "stock", "price", "cash", "wage_offer",
            "employee_ids", "last_profit", "revenue_this_month", "last_output",
        )
    listed = {firm["id"]: firm["employee_ids"] for firm in state["firms"] if firm["employee_ids"]}
    assert listed == staff
    families = state["families"]
    assert families
    for record in families:
        assert tuple(record) == (
            "id", "member_ids", "residence", "owned_houses", "monthly_cash", "savings",
        )
        assert python_types(record) == {
            "id": "int", "member_ids": "set", "residence": "int", "owned_houses": "set",
            "monthly_cash": "float", "savings": "float",
        }


def test_families_deleted_after_an_estate_transfer_are_not_listed(stepped):
    world, months, _ = stepped
    deleted = [fid for *_, month_deleted in months for fid in month_deleted]
    assert deleted
    assert not world.families.present[deleted].any()
    listed = [record["id"] for record in world.to_dict()["families"]]
    assert set(deleted).isdisjoint(listed)
    dump = DUMPS["family"]
    rows = [
        [get(family) for _, get in dump.columns]
        for family in dump.entities(RunResult(records=[], world=world, seed=3))
    ]
    assert [row[0] for row in rows] == listed == list(world.families)
    assert len(listed) + len(deleted) == world.families.present.size


def test_a_world_with_an_unowned_house_is_rejected():
    # house 2 has no owner (-1), or an owner past the family rows: wealth,
    # match_market and the estate transfer would each read the last family
    world = make_world(
        [simple_citizen(cid=fid, family_id=fid) for fid in range(2)],
        [simple_family(family_id=fid, member_ids=(fid,), residence=fid) for fid in range(2)],
        [simple_house(house_id=hid) for hid in range(3)],
    )
    for owner in (-1, 2):
        houses = replace(world.houses, owner=np.array([0, 1, owner]))
        with pytest.raises(ValueError, match="owned by one of the world's families"):
            replace(world, houses=houses)


def test_every_seller_is_the_owner_a_full_scan_finds(stepped):
    _, _, sellers = stepped
    assert len(sellers) > 100
    assert all(seller == owner for seller, owner in sellers)


def test_wealth_sums_prices_in_house_id_order():
    # prices 0.1, 0.2 and 0.3 sum to 0.6000000000000001 in house id order and
    # to 0.6 in the iteration order of this set, 16, 8, 1
    owned = set()
    for house_id in (16, 8, 1):
        owned.add(house_id)
    assert list(owned) == [16, 8, 1]
    houses = [simple_house(house_id=hid, price=0.0) for hid in range(17)]
    for house_id, price in ((1, 0.1), (8, 0.2), (16, 0.3)):
        houses[house_id]["price"] = price
    family = FamilySpec(id=0, member_ids={0}, residence=16, owned_houses=owned)
    # family 1, with no members, owns the other houses
    others = FamilySpec(id=1, member_ids=set(), residence=0, owned_houses=set(range(17)) - owned)
    world = make_world([simple_citizen()], [family, others], houses)
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert world.wealth(world.active_families()).tolist() == [(0.1 + 0.2) + 0.3]
