"""Monthly demographics: aging, mortality with inheritance, and fertility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .firms import fire_employee
from .world.regions import RegionDataError
from .world.types import FEMALE, MALE, Citizen, Family, World


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
    """Add a year to every citizen whose anniversary month matches the clock."""
    month_of_year = world.clock % 12
    for citizen in world.citizens.values():
        if citizen.birth_month == month_of_year:
            citizen.age += 1


def _transfer_estate(world: World, extinct: Family, heir: Family) -> None:
    """Move an extinct family's houses and money to its heir."""
    for house_id in sorted(extinct.owned_houses):
        heir.owned_houses.add(house_id)
    heir.monthly_cash += extinct.monthly_cash
    heir.savings += extinct.savings
    del world.families[extinct.id]


def mortality_step(world: World, rng: np.random.Generator) -> list[int]:
    """Kill citizens at the monthly hazard implied by their annual rate.

    Deceased citizens leave their firm and family. Each family whose last
    member dies passes its estate to a uniformly drawn surviving family;
    membership changes only through births and deaths, so every extinct
    family draws from the same survivors. If none survives, the empty
    family keeps its assets so that money and houses stay accounted for.
    Returns the ids of the deceased.
    """
    citizen_list = list(world.citizens.values())
    if not citizen_list:
        return []
    hazard_table = {
        gender: {age: monthly_probability(annual) for age, annual in by_age.items()}
        for gender, by_age in world.region.mortality.items()
    }
    try:
        hazards = [hazard_table[c.gender][c.age] for c in citizen_list]
    except KeyError:
        missing = next(
            c for c in citizen_list if c.age not in hazard_table.get(c.gender, {})
        )
        raise RegionDataError(
            "mortality.csv", None, f"no row for age {missing.age}, gender {missing.gender}"
        ) from None
    draws = rng.random(len(citizen_list))
    deceased = [
        citizen
        for citizen, hazard, draw in zip(citizen_list, hazards, draws)
        if draw < hazard
    ]

    emptied_families: list[Family] = []
    for citizen in deceased:
        if citizen.employer is not None:
            fire_employee(world, citizen.employer, citizen.id)
        family = world.families[citizen.family_id]
        family.member_ids.discard(citizen.id)
        if not family.member_ids:
            emptied_families.append(family)
        world.grave.append(GraveRecord(
            citizen.id, world.clock, citizen.age, citizen.gender, citizen.family_id
        ))
        del world.citizens[citizen.id]

    if emptied_families:
        heirs = [family for family in world.families.values() if family.member_ids]
        if heirs:
            for extinct in emptied_families:
                _transfer_estate(world, extinct, heirs[int(rng.integers(0, len(heirs)))])
    return [citizen.id for citizen in deceased]


def fertility_step(world: World, rng: np.random.Generator) -> list[int]:
    """Give each eligible female a birth draw at one twelfth the annual rate.

    Newborns start at age zero with no schooling, a uniformly drawn gender,
    and join the mother's family unemployed.
    """
    birth_chances = {
        age: min(1.0, rate / 12.0)
        for age, rate in world.region.fertility.items()
        if rate > 0.0
    }
    mothers = [
        citizen
        for citizen in world.citizens.values()
        if citizen.gender == FEMALE and citizen.age in birth_chances
    ]
    if not mothers:
        return []
    draws = rng.random(len(mothers))
    newborn_ids: list[int] = []
    for mother, draw in zip(mothers, draws):
        if draw >= birth_chances[mother.age]:
            continue
        gender = FEMALE if rng.random() < 0.5 else MALE
        baby = Citizen(
            id=world.next_citizen_id,
            family_id=mother.family_id,
            age=0,
            gender=gender,
            qualification=0,
            birth_month=world.clock % 12,
        )
        world.next_citizen_id += 1
        world.citizens[baby.id] = baby
        world.families[mother.family_id].member_ids.add(baby.id)
        newborn_ids.append(baby.id)
    return newborn_ids
