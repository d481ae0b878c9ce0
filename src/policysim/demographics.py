"""Monthly demographics: aging, mortality with inheritance, and fertility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world.regions import RegionDataError
from .world.types import FEMALE, MALE, Citizens, World


@dataclass(frozen=True)
class GraveRecord:
    """One death; its fields are the columns of grave.csv."""

    id: int
    month: int
    age: int
    gender: str
    family_id: int


def age_step(world: World) -> None:
    """Add a year to every living citizen whose anniversary month matches the clock."""
    citizens = world.citizens
    citizens.age[citizens.alive & (citizens.birth_month == world.clock % 12)] += 1


def _transfer_estates(world: World, extinct: np.ndarray, heirs: np.ndarray) -> None:
    """Move each extinct family's houses and money to its heir.

    The houses change owner in one write of ``Houses.owner``. An heir can
    inherit more than once; its money adds up in list order.
    """
    families = world.families
    heir_of = np.arange(len(families.present))
    heir_of[extinct] = heirs
    world.houses.owner = heir_of[world.houses.owner]  # an heir is never extinct
    for column in (families.monthly_cash, families.savings):
        np.add.at(column, heirs, column[extinct])
        column[extinct] = 0
    families.present[extinct] = False


def mortality_step(world: World, rng: np.random.Generator) -> list[int]:
    """Kill citizens at the monthly hazard implied by their annual rate.

    The hazards come from the region's ``monthly_hazard`` table; a citizen
    whose (gender, age) has no row raises RegionDataError before any draw.
    One uniform per living citizen, in id order. Deceased citizens leave
    their firm and family. Each family whose last member dies passes its
    estate to a uniformly drawn surviving family; membership changes only
    through births and deaths, so every extinct family draws from the same
    survivors. If none survives, the empty family keeps its assets so that
    money and houses stay accounted for. Returns the ids of the deceased.
    """
    citizens = world.citizens
    living = citizens.alive.nonzero()[0]
    table = world.region.monthly_hazard
    ages, female = citizens.age[living], citizens.female[living]
    hazards = table[female.view(np.int8), np.minimum(ages, table.shape[1] - 1)]
    missing = np.isnan(hazards).nonzero()[0]
    if len(missing):
        first = missing[0]
        gender = FEMALE if female[first] else MALE
        raise RegionDataError(
            "mortality.csv", None, f"no row for age {ages[first]}, gender {gender}"
        )
    deceased = living[rng.random(len(living)) < hazards].tolist()
    if not deceased:
        return deceased

    citizens.fire(deceased)
    citizens.alive[deceased] = False
    family_ids = citizens.family[deceased]
    world.grave += [
        GraveRecord(citizen_id, world.clock, age, FEMALE if female else MALE, family_id)
        for citizen_id, family_id, age, female in zip(
            deceased,
            family_ids.tolist(),
            citizens.age[deceased].tolist(),
            citizens.female[deceased].tolist(),
        )
    ]

    members = world.families.members(citizens)
    # each emptied family once, in the order its last member appears among the deceased
    last = len(family_ids) - 1 - np.unique(family_ids[::-1], return_index=True)[1]
    emptied = family_ids[np.sort(last[members[family_ids[last]] == 0])]
    if len(emptied):
        heirs = (world.families.present & (members > 0)).nonzero()[0]
        if len(heirs):
            draws = rng.integers(0, len(heirs), size=len(emptied))
            _transfer_estates(world, emptied, heirs[draws])
    return deceased


def fertility_step(world: World, rng: np.random.Generator) -> list[int]:
    """Give each living female of a fertile age a birth draw at one twelfth
    the annual rate, one uniform per mother in id order.

    The chances come from the region's ``birth_chance`` table; a woman whose
    age has no positive rate takes no draw.

    Newborns start at age zero with no schooling, a gender from one coin
    per birth, and join the mother's family unemployed.
    """
    table = world.region.birth_chance
    citizens = world.citizens
    women = (citizens.alive & citizens.female).nonzero()[0]
    chances = table[np.minimum(citizens.age[women], len(table) - 1)]
    fertile = ~np.isnan(chances)
    mothers, chances = women[fertile], chances[fertile]
    mothers = mothers[rng.random(len(mothers)) < chances]
    count = len(mothers)
    if not count:
        return []
    female = rng.random(count) < 0.5
    first = citizens.rows
    citizens.append(Citizens.born(
        family=citizens.family[mothers],
        age=[0] * count,
        female=female,
        qualification=[0] * count,
        birth_month=[world.clock % 12] * count,
    ))
    return list(range(first, first + count))
