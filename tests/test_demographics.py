import numpy as np
import pytest

from policysim.demographics import (
    age_step,
    fertility_step,
    monthly_probability,
    mortality_step,
)
from policysim.world.regions import RegionDataError

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
                     gender="female"):
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
    world = build_population(50, mortality=None)
    # override: annual probability 1 for every age
    for gender in world.region.mortality:
        for age in world.region.mortality[gender]:
            world.region.mortality[gender][age] = 1.0
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

    world = build_population(30, mortality=None, seed=9)
    world.firms = make_firms(["m0"], [simple_firm(firm_id=0)])
    world.citizens.employer[:10] = 0
    world.citizens.wage[:10] = 1.0
    for gender in world.region.mortality:
        for age in world.region.mortality[gender]:
            world.region.mortality[gender][age] = 1.0
    deceased = mortality_step(world, world.rng)
    assert len(deceased) == 30
    assert len(world.citizens) == 0
    assert world.to_dict()["citizens"] == []
    assert employees(world, 0) == set()
    assert world.citizens.headcount(1).tolist() == [0]
    assert world.citizens.wage.tolist() == [0.0] * 30
    for family in world.families.values():
        assert not family.member_ids


def test_inheritance_moves_estate_to_surviving_family():
    region = make_region(ages=(30, 80))
    rich = simple_citizen(cid=0, family_id=0, age=80)
    poor = simple_citizen(cid=1, family_id=1, age=30)
    families = [
        simple_family(family_id=0, member_ids=(0,), residence=0, cash=7.0, savings=3.0),
        simple_family(family_id=1, member_ids=(1,), residence=1),
    ]
    houses = [simple_house(house_id=0), simple_house(house_id=1)]
    world = make_world([rich, poor], families, houses, region=region, seed=1)
    # only the 80-year-old dies
    for gender in world.region.mortality:
        for age in world.region.mortality[gender]:
            world.region.mortality[gender][age] = 1.0 if age >= 80 else 0.0
    mortality_step(world, world.rng)
    assert 0 not in world.families
    heir = world.families[1]
    assert heir.owned_houses == {0, 1}
    assert heir.monthly_cash == 7.0
    assert heir.savings == 3.0
    assert 0 in world.families[1].owned_houses
    assert world.residences(world.active_families()).tolist() == [1]


def test_zero_fertility_no_births():
    world = build_population(100, fertility=0.0)
    assert fertility_step(world, world.rng) == []


def test_certain_fertility_every_eligible_female():
    world = build_population(40, fertility=12.0)
    newborns = fertility_step(world, world.rng)
    assert len(newborns) == 40
    assert newborns == list(range(40, 80))
    for baby_id in newborns:
        baby = citizen(world, baby_id)
        assert baby["age"] == 0
        assert baby["qualification"] == 0
        assert baby["employer"] is None
        assert baby["wage"] == 0.0
        assert baby_id in world.families[baby["family_id"]].member_ids


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
    assert fertility_step(world, world.rng) == []


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
    region = make_region(ages=(30, 80))
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
    for gender in world.region.mortality:
        for age in world.region.mortality[gender]:
            world.region.mortality[gender][age] = 1.0 if age >= 80 else 0.0

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
    assert {fid: family.monthly_cash for fid, family in world.families.items()} == expected_cash
    assert 1 in world.families[heir_of_family_1].owned_houses
    assert 0 in world.families[heir_of_family_0].owned_houses


@pytest.mark.parametrize("missing", ["age row", "gender table"])
def test_missing_mortality_row_raises_region_data_error(missing):
    world = build_population(3, age=30)
    if missing == "age row":
        del world.region.mortality["female"][30]
    else:
        del world.region.mortality["female"]
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
