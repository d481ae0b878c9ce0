"""Deterministic synthetic world generation from region tables.

All randomness flows through a single generator seeded once, consumed in a
fixed order, so equal (region, params, seed) inputs produce field-identical
worlds.
"""

from __future__ import annotations

import math

import numpy as np

from ..fiscal import TaxLedger, coefficient_for
from ..params import SimParams
from .regions import MunicipalitySpec, RegionData
from .types import FEMALE, MALE, Citizen, Family, Firm, House, Municipality, World

HOUSE_SIZE_RANGE = (30.0, 120.0)  # m2
HOUSE_QUALITY_LEVELS = 4
INITIAL_WAGE_OFFER = 1.0
INITIAL_GOODS_PRICE = 1.0
INITIAL_QLI = 1.0


class GenerationError(ValueError):
    """World generation cannot satisfy its post-conditions."""


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def allocate_proportionally(
    total: int, weights: list[float], minimum: int = 0
) -> list[int]:
    """Integer allocation proportional to weights, largest-remainder exact.

    Every slot receives at least ``minimum``; ties break by index.
    """
    count = len(weights)
    if total < minimum * count:
        raise GenerationError(
            f"cannot allocate {total} items with minimum {minimum} over {count} slots"
        )
    remaining = total - minimum * count
    weight_sum = sum(weights)
    if weight_sum <= 0:
        quotas = [remaining / count] * count
    else:
        quotas = [remaining * weight / weight_sum for weight in weights]
    floors = [int(quota) for quota in quotas]
    leftover = remaining - sum(floors)
    order = sorted(range(count), key=lambda i: (-(quotas[i] - floors[i]), i))
    for index in order[:leftover]:
        floors[index] += 1
    return [minimum + allocated for allocated in floors]


def _draw_ages_and_genders(
    region: RegionData, count: int, rng: np.random.Generator
) -> list[tuple[int, str]]:
    categories: list[tuple[int, str]] = []
    probabilities: list[float] = []
    for age, p_female, p_male in region.age_gender:
        if p_female > 0.0:
            categories.append((age, FEMALE))
            probabilities.append(p_female)
        if p_male > 0.0:
            categories.append((age, MALE))
            probabilities.append(p_male)
    weights = np.asarray(probabilities, dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(categories), size=count, p=weights)
    return [categories[int(index)] for index in picks]


def _draw_qualification(region: RegionData, age: int, rng: np.random.Generator) -> int:
    rows = region.qualification_rows_for_age(age)
    u = float(rng.random())
    cumulative = 0.0
    for years, probability in rows:
        cumulative += probability
        if u < cumulative:
            return years
    return rows[-1][0]


def _draw_house(
    house_id: int, spec: MunicipalitySpec, owner: int, params: SimParams, rng: np.random.Generator
) -> House:
    """A house at a uniform point of the municipality, priced at the initial QLI."""
    xmin, ymin, xmax, ymax = spec.bounds
    x = float(rng.uniform(xmin, xmax))
    y = float(rng.uniform(ymin, ymax))
    size = float(rng.uniform(*HOUSE_SIZE_RANGE))
    quality = int(rng.integers(1, HOUSE_QUALITY_LEVELS + 1))
    return House(
        id=house_id,
        municipality_id=spec.id,
        location=(x, y),
        size=size,
        quality=quality,
        current_price=params.hedonic_base_coefficient * size * quality * INITIAL_QLI,
        owner=owner,
    )


def generate_world(region: RegionData, params: SimParams, seed: int) -> World:
    """Build citizens, families, houses, firms, and municipalities.

    Citizen count is the rounded share of the region's target population;
    each family owns and occupies one house; surplus houses become vacant
    second properties of randomly drawn families; firms are placed per
    municipality in proportion to population, at least one each.
    """
    params.validate()
    rng = np.random.default_rng(seed)

    specs = region.municipalities
    for spec in specs:
        if spec.target_population <= 0:
            raise GenerationError(f"municipality {spec.id!r} has no population")

    total_citizens = _round_half_up(
        region.total_target_population * params.percentage_actual_pop
    )
    citizens_per_muni = allocate_proportionally(
        total_citizens, [float(spec.target_population) for spec in specs]
    )
    if any(count == 0 for count in citizens_per_muni):
        raise GenerationError(
            "a municipality received zero citizens; raise PERCENTAGE_ACTUAL_POP"
        )

    municipalities: dict[str, Municipality] = {}
    for spec in specs:
        municipalities[spec.id] = Municipality(id=spec.id, acp_id=region.name, qli=INITIAL_QLI)

    citizens: dict[int, Citizen] = {}
    families: dict[int, Family] = {}
    houses: dict[int, House] = {}
    firms: dict[int, Firm] = {}

    families_per_muni = [
        max(1, _round_half_up(count / params.members_per_family))
        for count in citizens_per_muni
    ]
    total_families = sum(families_per_muni)
    total_houses = math.ceil(total_families * (1.0 + params.house_vacancy))
    surplus_per_muni = allocate_proportionally(
        total_houses - total_families, [float(n) for n in families_per_muni]
    )

    total_firms = max(
        len(specs), _round_half_up(total_citizens / params.citizens_per_firm)
    )
    firms_per_muni = allocate_proportionally(
        total_firms, [float(count) for count in citizens_per_muni], minimum=1
    )

    next_citizen = 0
    next_family = 0
    next_house = 0
    next_firm = 0
    working_age_per_muni: list[int] = []

    for muni_index, spec in enumerate(specs):
        n_citizens = citizens_per_muni[muni_index]
        n_families = families_per_muni[muni_index]
        xmin, ymin, xmax, ymax = spec.bounds

        drawn = _draw_ages_and_genders(region, n_citizens, rng)
        birth_months = rng.integers(0, 12, size=n_citizens)
        muni_citizen_ids = []
        working_age = 0
        for offset, (age, gender) in enumerate(drawn):
            qualification = _draw_qualification(region, age, rng)
            citizen = Citizen(
                id=next_citizen,
                family_id=-1,
                age=int(age),
                gender=gender,
                qualification=int(qualification),
                birth_month=int(birth_months[offset]),
            )
            citizens[citizen.id] = citizen
            muni_citizen_ids.append(citizen.id)
            if params.working_age_min <= age <= params.working_age_max:
                working_age += 1
            next_citizen += 1
        working_age_per_muni.append(working_age)

        # family homes, one per family
        family_ids = []
        for _ in range(n_families):
            house = _draw_house(next_house, spec, next_family, params, rng)
            houses[house.id] = house
            family = Family(
                id=next_family,
                member_ids=set(),
                residence=house.id,
                owned_houses={house.id},
            )
            families[family.id] = family
            family_ids.append(family.id)
            next_family += 1
            next_house += 1

        # deal citizens to families round-robin over a seeded shuffle
        order = rng.permutation(len(muni_citizen_ids))
        for position, citizen_index in enumerate(order):
            citizen = citizens[muni_citizen_ids[int(citizen_index)]]
            family = families[family_ids[position % n_families]]
            citizen.family_id = family.id
            family.member_ids.add(citizen.id)

        # vacant surplus houses, owners drawn later over all families
        for _ in range(surplus_per_muni[muni_index]):
            houses[next_house] = _draw_house(next_house, spec, -1, params, rng)
            next_house += 1

        for _ in range(firms_per_muni[muni_index]):
            x = float(rng.uniform(xmin, xmax))
            y = float(rng.uniform(ymin, ymax))
            expected_employees = working_age / firms_per_muni[muni_index]
            firms[next_firm] = Firm(
                id=next_firm,
                municipality_id=spec.id,
                location=(x, y),
                price=INITIAL_GOODS_PRICE,
                wage_offer=INITIAL_WAGE_OFFER,
                cash=INITIAL_WAGE_OFFER * expected_employees,
            )
            next_firm += 1

    # assign surplus houses to randomly drawn existing families
    family_id_list = list(families.keys())
    for house in houses.values():
        if house.owner == -1:
            owner_id = family_id_list[int(rng.integers(0, len(family_id_list)))]
            house.owner = owner_id
            families[owner_id].owned_houses.add(house.id)

    # one month of the average wage per working-age member, savings start empty
    for family in families.values():
        adults = sum(
            1
            for cid in family.member_ids
            if params.working_age_min
            <= citizens[cid].age
            <= params.working_age_max
        )
        family.monthly_cash = float(adults) * INITIAL_WAGE_OFFER
        family.savings = 0.0

    world = World(
        clock=0,
        region=region,
        citizens=citizens,
        families=families,
        houses=houses,
        firms=firms,
        municipalities=municipalities,
        rng=rng,
        ledger=TaxLedger(),
        next_citizen_id=next_citizen,
    )
    for muni_id, population in world.population_by_municipality().items():
        muni = municipalities[muni_id]
        muni.population = population
        muni.fpm_coefficient = coefficient_for(population, region.fpm_brackets)
    return world
