"""Bookkeeping of the citizen and house column stores over a run.

A citizen's id is its row: a birth appends a row and a death clears its
``alive`` flag. These checks step fixture3 through months that hold both
births and deaths and look at the stores between the substeps.
"""

import numpy as np
import pytest

from policysim import SimParams, generate_world
from policysim.demographics import age_step, fertility_step, mortality_step
from policysim.labor import build_pool, calibrate_initial_unemployment
from policysim.scheduler import (
    record_month,
    step_firm_decisions,
    step_fiscal,
    step_goods_market,
    step_labor_market,
    step_production,
    step_real_estate,
)
from policysim.world.types import CITIZEN_RECORD_KEYS, HOUSE_RECORD_KEYS, UNEMPLOYED

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
    records = world.to_dict()["citizens"]
    ids = [record["id"] for record in records]
    assert ids == sorted(ids) == list(world.citizens)
    assert len(world.citizens) == len(ids) == int(np.count_nonzero(world.citizens.alive))
    assert set(ids) == {cid for family in world.families.values() for cid in family.member_ids}


@pytest.fixture(scope="module")
def stepped(fixture3):
    """Births, deaths and the mortality stream state of each month."""
    params = SimParams(percentage_actual_pop=1.0)
    params.taxes.property = 0.002
    world = generate_world(fixture3, params, seed=3)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    rng = world.rng
    months = []
    for _ in range(MONTHS):
        step_production(world, params)
        age_step(world)
        living = len(world.citizens)
        families = len(world.families)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        deaths = mortality_step(world, rng)
        check_employment(world)
        check_listing(world)
        # one uniform per living citizen, then one heir draw per extinct family
        replay.random(living)
        heirs = len(world.active_families())
        for _ in range(families - len(world.families)):
            replay.integers(0, heirs)
        same_stream = replay.bit_generator.state == rng.bit_generator.state
        first_newborn = world.next_citizen_id
        births = fertility_step(world, rng)
        check_listing(world)
        assert world.next_citizen_id == first_newborn + len(births)
        months.append((deaths, births, first_newborn, same_stream))
        active = world.active_families()
        step_goods_market(world, params, rng, active)
        openings = step_firm_decisions(world, params, rng)
        check_employment(world)
        pool = build_pool(world, params, openings)
        assert set(pool.candidates) <= set(world.citizens)
        step_labor_market(world, params, rng, openings)
        check_employment(world)
        step_real_estate(world, params, rng, active)
        taxes = step_fiscal(world, params, active)
        record = record_month(world, params, taxes, active)
        assert record.population == len(world.citizens)
        world.clock += 1
    return world, months


def test_months_hold_births_and_deaths(stepped):
    _, months = stepped
    assert sum(len(deaths) for deaths, _, _, _ in months) > 0
    assert sum(len(births) for _, births, _, _ in months) > 0


def test_newborns_take_the_next_ids(stepped):
    world, months = stepped
    for _, births, first_newborn, _ in months:
        assert births == list(range(first_newborn, first_newborn + len(births)))
    assert world.next_citizen_id == world.citizens.rows


def test_the_dead_leave_the_listing_and_keep_their_rows(stepped):
    world, months = stepped
    dead = [cid for deaths, _, _, _ in months for cid in deaths]
    assert len(dead) == len(set(dead))
    assert not world.citizens.alive[dead].any()
    assert set(dead).isdisjoint(world.citizens)
    assert len(world.citizens) + len(dead) == world.citizens.rows


def test_mortality_draws_one_uniform_per_living_citizen(stepped):
    _, months = stepped
    assert all(same_stream for _, _, _, same_stream in months)


def python_types(record):
    return {key: type(value).__name__ for key, value in record.items()}


def test_records_hold_python_values(stepped):
    world, _ = stepped
    state = world.to_dict()
    employed = unemployed = 0
    for record in state["citizens"]:
        assert tuple(record) == CITIZEN_RECORD_KEYS
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
        assert tuple(record) == HOUSE_RECORD_KEYS
        assert python_types(record) == {
            "id": "int", "municipality_id": "str", "location": "tuple", "size": "float",
            "quality": "int", "current_price": "float",
        }
        assert [type(value) for value in record["location"]] == [float, float]
    staff = {}
    for record in state["citizens"]:
        if record["employer"] is not None:
            staff.setdefault(record["employer"], set()).add(record["id"])
    listed = {firm["id"]: firm["employee_ids"] for firm in state["firms"] if firm["employee_ids"]}
    assert listed == staff
