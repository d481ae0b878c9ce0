"""Monthly demographics: aging, mortality with inheritance, and fertility."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .firms import fire_employee
from .world.regions import RegionData
from .world.types import FEMALE, MALE, Citizen, World


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


def _transfer_estate(world: World, family_id: int, rng: np.random.Generator) -> None:
    """Move an extinct family's houses and money to a surviving family.

    Membership only ever changes through births and deaths, so no former
    co-member of an extinct family can still be alive; the heir is always a
    uniformly drawn surviving family. If none survives, the empty family
    keeps its assets so that money and houses stay accounted for.
    """
    extinct = world.families[family_id]
    heirs = [f.id for f in world.families.values() if f.is_active and f.id != family_id]
    if not heirs:
        return
    heir = world.families[heirs[int(rng.integers(0, len(heirs)))]]
    for house_id in sorted(extinct.owned_houses):
        heir.owned_houses.add(house_id)
    heir.monthly_cash += extinct.monthly_cash
    heir.savings += extinct.savings
    del world.families[family_id]


def mortality_step(
    world: World, mortality_table: RegionData, rng: np.random.Generator
) -> list[int]:
    """Kill citizens at the monthly hazard implied by their annual rate.

    Deceased citizens leave their firm and family; families whose last
    member dies pass their estate on. Returns the ids of the deceased.
    """
    citizen_list = list(world.citizens.values())
    if not citizen_list:
        return []
    hazards = np.empty(len(citizen_list), dtype=float)
    for index, citizen in enumerate(citizen_list):
        annual = mortality_table.annual_mortality(citizen.age, citizen.gender)
        hazards[index] = monthly_probability(annual)
    draws = rng.random(len(citizen_list))
    deceased = [
        citizen
        for citizen, hazard, draw in zip(citizen_list, hazards, draws)
        if draw < hazard
    ]

    emptied_families: list[int] = []
    for citizen in deceased:
        if citizen.employer is not None:
            fire_employee(world, world.firms[citizen.employer], citizen.id)
        family = world.families[citizen.family_id]
        family.member_ids.discard(citizen.id)
        if not family.member_ids:
            emptied_families.append(family.id)
        world.grave.append(GraveRecord(
            citizen.id, world.clock, citizen.age, citizen.gender, citizen.family_id
        ))
        del world.citizens[citizen.id]

    for family_id in emptied_families:
        _transfer_estate(world, family_id, rng)
    return [citizen.id for citizen in deceased]


def fertility_step(
    world: World, fertility_table: RegionData, rng: np.random.Generator
) -> list[int]:
    """Give each eligible female a birth draw at one twelfth the annual rate.

    Newborns start at age zero with no schooling, a uniformly drawn gender,
    and join the mother's family unemployed.
    """
    mothers = [
        citizen
        for citizen in world.citizens.values()
        if citizen.gender == FEMALE and fertility_table.annual_fertility(citizen.age) > 0.0
    ]
    if not mothers:
        return []
    draws = rng.random(len(mothers))
    newborn_ids: list[int] = []
    for mother, draw in zip(mothers, draws):
        rate = fertility_table.annual_fertility(mother.age)
        if draw >= min(1.0, rate / 12.0):
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
