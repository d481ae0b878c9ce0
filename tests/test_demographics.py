from dataclasses import replace

import numpy as np
import pytest

from policysim.demographics import age_step, fertility_step, mortality_step
from policysim.world.regions import RegionDataError, monthly_probability

from conftest import (
    citizen,
    employees,
    make_region,
    make_world,
    simple_citizen,
    simple_family,
    simple_house,
)


def build_population(count, age=30, mortality=None, fertility=None, seed=0,
                     gender="female", region=None):
    if region is None:
        region = make_region(ages=(age,), mortality=mortality, fertility=fertility)
    citizens = []
    families = []
    houses = []
    for i in range(count):
        citizens.append(simple_citizen(cid=i, family_id=i, age=age, gender=gender,
                                       birth_month=0))
        families.append(simple_family(family_id=i, member_ids=(i,), residence=i))
        houses.append(simple_house(house_id=i))
    return make_world(citizens, families, houses, region=region, seed=seed)


def dying_from(region, age_of_death):
    """The region with annual mortality 1 from age_of_death on and 0 below it."""
    table = {age: 1.0 if age >= age_of_death else 0.0 for age in region.mortality["female"]}
    return replace(region, mortality={"female": table, "male": dict(table)})


def test_age_step_on_anniversary():
    world = build_population(1)
    world.clock = 0  # anniversary month for birth_month 0
    age_step(world)
    assert world.citizens.age.tolist() == [31]


def test_age_step_off_anniversary():
    world = build_population(1)
    world.clock = 5
    age_step(world)
    assert world.citizens.age.tolist() == [30]


def test_ten_years_of_aging():
    world = build_population(5)
    for month in range(120):
        world.clock = month
        age_step(world)
    assert world.citizens.age.tolist() == [40] * 5


def test_monthly_probability_bounds():
    assert monthly_probability(0.0) == 0.0
    assert monthly_probability(1.0) == 1.0
    p = monthly_probability(0.12)
    assert 0.0 < p < 0.12


def test_zero_mortality_no_deaths():
    world = build_population(200, mortality=0.0)
    deceased = mortality_step(world, world.rng)
    assert deceased == []
    assert len(world.citizens) == 200


def test_certain_mortality_kills_everyone():
    world = build_population(50, mortality=1.0)
    deceased = mortality_step(world, world.rng)
    assert len(deceased) == 50
    assert len(world.citizens) == 0


def test_mortality_binomial_rate():
    # one month at annual probability 0.12 over 10,000 citizens
    n = 10_000
    world = build_population(n, mortality=0.12, seed=42)
    deceased = mortality_step(world, world.rng)
    p = monthly_probability(0.12)
    mean = n * p
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(len(deceased) - mean) <= 4 * sigma


def test_dead_are_fully_removed():
    from conftest import make_firms, simple_firm

    world = build_population(30, mortality=1.0, seed=9)
    world.firms = make_firms(["m0"], [simple_firm(firm_id=0)])
    world.citizens.employer[:10] = 0
    world.citizens.wage[:10] = 1.0
    deceased = mortality_step(world, world.rng)
    assert len(deceased) == 30
    assert len(world.citizens) == 0
    assert world.to_dict()["citizens"] == []
    assert employees(world, 0) == set()
    assert world.citizens.headcount(1).tolist() == [0]
    assert world.citizens.wage.tolist() == [0.0] * 30
    assert world.families.members(world.citizens).tolist() == [0] * 30
    # nobody is left to die: an empty draw, which leaves the stream alone
    state = world.rng.bit_generator.state
    assert mortality_step(world, world.rng) == []
    assert world.rng.bit_generator.state == state


def test_inheritance_moves_estate_to_surviving_family():
    # only the 80-year-old dies
    region = dying_from(make_region(ages=(30, 80)), 80)
    rich = simple_citizen(cid=0, family_id=0, age=80)
    poor = simple_citizen(cid=1, family_id=1, age=30)
    families = [
        simple_family(family_id=0, member_ids=(0,), residence=0, cash=7.0, savings=3.0),
        simple_family(family_id=1, member_ids=(1,), residence=1),
    ]
    houses = [simple_house(house_id=0), simple_house(house_id=1)]
    world = make_world([rich, poor], families, houses, region=region, seed=1)
    mortality_step(world, world.rng)
    assert 0 not in world.families
    assert world.houses.owner.tolist() == [1, 1]
    assert [family["owned_houses"] for family in world.family_records()] == [{0, 1}]
    assert world.families.monthly_cash[1] == 7.0
    assert world.families.savings[1] == 3.0
    assert world.families.residence[world.active_families()].tolist() == [1]


def test_zero_fertility_no_births():
    world = build_population(100, fertility=0.0)
    assert fertility_step(world, world.rng) == []


def test_certain_fertility_every_eligible_female():
    world = build_population(40, fertility=12.0)
    newborns = fertility_step(world, world.rng)
    assert len(newborns) == 40
    assert newborns == list(range(40, 80))
    members = {family["id"]: family["member_ids"] for family in world.family_records()}
    for baby_id in newborns:
        baby = citizen(world, baby_id)
        assert baby["age"] == 0
        assert baby["qualification"] == 0
        assert baby["employer"] is None
        assert baby["wage"] == 0.0
        assert baby_id in members[baby["family_id"]]


def test_fertility_binomial_rate():
    n = 1000
    world = build_population(n, fertility=0.6, seed=7)
    newborns = fertility_step(world, world.rng)
    p = 0.6 / 12.0
    mean = n * p
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(len(newborns) - mean) <= 4 * sigma


def test_males_do_not_give_birth():
    world = build_population(50, fertility=12.0, gender="male")
    state = world.rng.bit_generator.state
    assert fertility_step(world, world.rng) == []
    assert world.rng.bit_generator.state == state


def test_population_accounting_over_time(fixture3):
    from policysim import SimParams, generate_world

    params = SimParams()
    world = generate_world(fixture3, params, seed=13)
    for month in range(24):
        world.clock = month
        before = len(world.citizens)
        age_step(world)
        deaths = mortality_step(world, world.rng)
        births = fertility_step(world, world.rng)
        assert len(world.citizens) == before + len(births) - len(deaths)


def test_constant_population_without_vital_events():
    world = build_population(80, mortality=0.0, fertility=0.0)
    start = set(world.citizens)
    for month in range(120):
        world.clock = month
        age_step(world)
        mortality_step(world, world.rng)
        fertility_step(world, world.rng)
    assert set(world.citizens) == start


def test_families_dying_out_together_draw_heirs_from_one_survivor_list():
    region = dying_from(make_region(ages=(30, 80)), 80)
    # citizen 0 empties family 1 before citizen 1 empties family 0
    citizens = [
        simple_citizen(cid=0, family_id=1, age=80),
        simple_citizen(cid=1, family_id=0, age=80),
    ] + [simple_citizen(cid=cid, family_id=cid, age=30) for cid in (2, 3, 4)]
    families = [
        simple_family(family_id=0, member_ids=(1,), residence=0, cash=1.0),
        simple_family(family_id=1, member_ids=(0,), residence=1, cash=100.0),
    ] + [simple_family(family_id=fid, member_ids=(fid,), residence=fid) for fid in (2, 3, 4)]
    houses = [simple_house(house_id=hid) for hid in range(5)]
    world = make_world(citizens, families, houses, region=region, seed=5)

    replay = np.random.default_rng(5)
    replay.random(5)
    survivors = [2, 3, 4]
    heir_of_family_1 = survivors[int(replay.integers(0, 3))]
    heir_of_family_0 = survivors[int(replay.integers(0, 3))]

    assert sorted(mortality_step(world, world.rng)) == [0, 1]
    assert world.rng.bit_generator.state == replay.bit_generator.state
    assert sorted(world.families) == survivors
    expected_cash = {fid: 0.0 for fid in survivors}
    expected_cash[heir_of_family_1] += 100.0
    expected_cash[heir_of_family_0] += 1.0
    assert {fid: world.families.monthly_cash[fid] for fid in world.families} == expected_cash
    assert world.houses.owner.tolist() == [heir_of_family_0, heir_of_family_1, 2, 3, 4]


@pytest.mark.parametrize("missing", ["age row", "gender table"])
def test_missing_mortality_row_raises_region_data_error(missing):
    region = make_region(ages=(30,))
    mortality = {gender: dict(table) for gender, table in region.mortality.items()}
    if missing == "age row":
        del mortality["female"][30]
    else:
        del mortality["female"]
    world = build_population(3, age=30, region=replace(region, mortality=mortality))
    state = world.rng.bit_generator.state
    with pytest.raises(RegionDataError) as err:
        mortality_step(world, world.rng)
    assert "mortality.csv" in str(err.value)
    assert "age 30, gender female" in str(err.value)
    assert world.rng.bit_generator.state == state


def test_woman_outside_the_fertility_table_takes_no_draw():
    world = build_population(2, fertility=12.0)
    world.citizens.age[0] = 60  # the table covers ages 15..49 only
    replay = np.random.default_rng(0)
    replay.random(1)  # the one mother's birth draw
    replay.random()  # the newborn's gender

    newborns = fertility_step(world, world.rng)
    assert [citizen(world, baby)["family_id"] for baby in newborns] == [1]
    assert world.rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("genders", [("female", "male"), ("male",)], ids=["both", "no female"])
def test_month_tables_match_the_annual_tables_row_for_row(fixture3, genders):
    region = replace(
        fixture3,
        mortality={gender: fixture3.mortality[gender] for gender in genders},
        fertility={**fixture3.fertility, 14: 0.0, 15: 13.0},
    )
    hazard, chance = region.monthly_hazard, region.birth_chance
    for female, gender in enumerate(("male", "female")):
        table = region.mortality.get(gender, {})
        for age in range(hazard.shape[1]):
            if age in table:
                assert hazard[female, age] == monthly_probability(table[age])
            else:
                assert np.isnan(hazard[female, age])
    positive = {age: rate for age, rate in region.fertility.items() if rate > 0.0}
    assert positive[15] == 13.0 and 14 not in positive
    for age in range(len(chance)):
        if age in positive:
            assert chance[age] == min(1.0, positive[age] / 12.0)
        else:
            assert np.isnan(chance[age])
    # an age past either table reads its last entry, which is NaN
    assert np.isnan(hazard[:, -1]).all() and np.isnan(chance[-1])
    assert hazard.shape[1] == max(fixture3.mortality["male"]) + 2
    assert len(chance) == max(positive) + 2
