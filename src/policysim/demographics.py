"""Monthly demographics: aging, mortality with inheritance, and fertility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world.regions import RegionDataError
from .world.types import FEMALE, MALE, Citizens, Family, World


@dataclass(frozen=True)
class GraveRecord:
    """One death; its fields are the columns of grave.csv."""

    id: int
    month: int
    age: int
    gender: str
    family_id: int


def monthly_probability(annual_probability: float) -> float:
    """Compounding-correct annual-to-monthly conversion."""
    return 1.0 - (1.0 - annual_probability) ** (1.0 / 12.0)


def age_step(world: World) -> None:
    """Add a year to every living citizen whose anniversary month matches the clock."""
    citizens = world.citizens
    citizens.age[citizens.alive & (citizens.birth_month == world.clock % 12)] += 1


def _transfer_estate(world: World, extinct: Family, heir: Family) -> None:
    """Move an extinct family's houses and money to its heir."""
    for house_id in sorted(extinct.owned_houses):
        heir.owned_houses.add(house_id)
    heir.monthly_cash += extinct.monthly_cash
    heir.savings += extinct.savings
    del world.families[extinct.id]


def _by_age(table: dict[int, float], missing: float) -> np.ndarray:
    """The table's values indexed by age, ``missing`` where it has no row."""
    values = np.full(max(table, default=-1) + 1, missing)
    values[list(table)] = list(table.values())
    return values


def mortality_step(world: World, rng: np.random.Generator) -> list[int]:
    """Kill citizens at the monthly hazard implied by their annual rate.

    One uniform per living citizen, in id order. Deceased citizens leave
    their firm and family. Each family whose last member dies passes its
    estate to a uniformly drawn surviving family; membership changes only
    through births and deaths, so every extinct family draws from the same
    survivors. If none survives, the empty family keeps its assets so that
    money and houses stay accounted for. Returns the ids of the deceased.
    """
    citizens = world.citizens
    living = np.flatnonzero(citizens.alive)
    if not len(living):
        return []
    hazard = {
        female: _by_age(
            {age: monthly_probability(annual) for age, annual in by_age.items()}, np.nan
        )
        for female, by_age in (
            (True, world.region.mortality.get(FEMALE, {})),
            (False, world.region.mortality.get(MALE, {})),
        )
    }
    ages, female = citizens.age[living], citizens.female[living]
    hazards = np.full(len(living), np.nan)
    for is_female, table in hazard.items():
        rows = (female == is_female) & (ages < len(table))
        hazards[rows] = table[ages[rows]]
    missing = np.flatnonzero(np.isnan(hazards))
    if len(missing):
        first = missing[0]
        gender = FEMALE if female[first] else MALE
        raise RegionDataError(
            "mortality.csv", None, f"no row for age {ages[first]}, gender {gender}"
        )
    deceased = living[rng.random(len(living)) < hazards].tolist()

    citizens.fire(deceased)
    citizens.alive[deceased] = False
    emptied_families: list[Family] = []
    for citizen_id, family_id, age, female in zip(
        deceased,
        citizens.family[deceased].tolist(),
        citizens.age[deceased].tolist(),
        citizens.female[deceased].tolist(),
    ):
        family = world.families[family_id]
        family.member_ids.discard(citizen_id)
        if not family.member_ids:
            emptied_families.append(family)
        world.grave.append(
            GraveRecord(citizen_id, world.clock, age, FEMALE if female else MALE, family_id)
        )

    if emptied_families:
        heirs = [family for family in world.families.values() if family.member_ids]
        if heirs:
            for extinct in emptied_families:
                _transfer_estate(world, extinct, heirs[int(rng.integers(0, len(heirs)))])
    return deceased


def fertility_step(world: World, rng: np.random.Generator) -> list[int]:
    """Give each living female of a fertile age a birth draw at one twelfth
    the annual rate, one uniform per mother in id order.

    Newborns start at age zero with no schooling, a gender from one coin
    per birth, and join the mother's family unemployed.
    """
    birth_chances = _by_age(
        {age: min(1.0, rate / 12.0) for age, rate in world.region.fertility.items() if rate > 0.0},
        np.nan,
    )
    citizens = world.citizens
    fertile = citizens.alive & citizens.female & (citizens.age < len(birth_chances))
    fertile[fertile] = ~np.isnan(birth_chances[citizens.age[fertile]])
    mothers = np.flatnonzero(fertile)
    if not len(mothers):
        return []
    draws = rng.random(len(mothers))
    mothers = mothers[draws < birth_chances[citizens.age[mothers]]]
    families = citizens.family[mothers].tolist()
    female = [rng.random() < 0.5 for _ in families]
    first = world.next_citizen_id
    newborn_ids = list(range(first, first + len(families)))
    for family_id, baby_id in zip(families, newborn_ids):
        world.families[family_id].member_ids.add(baby_id)
    count = len(families)
    citizens.append(Citizens.born(
        family=families,
        age=[0] * count,
        female=female,
        qualification=[0] * count,
        birth_month=[world.clock % 12] * count,
    ))
    return newborn_ids
