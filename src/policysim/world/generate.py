"""Deterministic synthetic world generation from region tables.

All randomness flows through a single generator seeded once, consumed in a
fixed order, so equal (region, params, seed) inputs produce field-identical
worlds. Each municipality, in region order, makes seven Generator calls,
whatever its population:

1. ``choice`` of an (age, gender) category per citizen;
2. ``integers(0, 12)`` per citizen, the birth months;
3. ``random()`` per citizen, looked up in its age's schooling table;
4. per family home, uniform x, y and size and a quality in 1..4;
5. ``permutation`` of the citizens, dealt to the families round-robin;
6. the draws of step 4 per surplus house;
7. uniform x and y per firm.

Then one ``integers(0, families)`` call draws an owner per surplus house,
in house order.

Steps 4, 6 and 7 each make one ``Generator.integers`` call over mixed
inclusive bounds, which returns the values of one scalar ``uniform`` or
``integers(1, 5)`` call per value and leaves the same state. A uniform is
the bound 2**64-1: numpy returns a whole 64-bit word for it, decoded as
``random()`` decodes it. A quality is the bound 3: numpy serves every
bound below 2**32 from the bit generator's half-word buffer, which the
birth months and the previous house's quality share. So the qualities are
drawn in the same call as the words around them; a fixed count of raw
64-bit words per house would not replay the stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..params import SimParams
from ..realestate import hedonic_offer_prices
from ..sampling import COIN_BOUND, unit_doubles
from .regions import MunicipalitySpec, RegionData
from .types import FEMALE, MALE, Citizens, Family, Firms, Houses, Municipality, World

HOUSE_SIZE_RANGE = (30.0, 120.0)  # m2
HOUSE_QUALITY_LEVELS = 4
INITIAL_WAGE_OFFER = 1.0
INITIAL_GOODS_PRICE = 1.0
INITIAL_QLI = 1.0
# inclusive draw bounds per house (x, y and size words, quality - 1) and per
# firm (x and y words)
HOUSE_DRAW_BOUNDS = (COIN_BOUND, COIN_BOUND, COIN_BOUND, HOUSE_QUALITY_LEVELS - 1)
FIRM_DRAW_BOUNDS = (COIN_BOUND, COIN_BOUND)


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


def _schooling_tables(region: RegionData) -> dict[int, tuple[list[float], list[int]]]:
    """Per age: the running sums of its band's probabilities, and their years.

    The sums are made left to right, so the first row whose running sum
    exceeds a uniform u is ``bisect_right(sums, u)``; past the last row the
    draw falls back on the last row's years.
    """
    tables = {}
    for age, _, _ in region.age_gender:
        rows = region.qualification_rows_for_age(age)
        sums, cumulative = [], 0.0
        for _, probability in rows:
            cumulative += probability
            sums.append(cumulative)
        tables[age] = (sums, [years for years, _ in rows])
    return tables


def _draw_rows(
    rng: np.random.Generator, bounds: tuple[int, ...], count: int
) -> np.ndarray:
    """``count`` rows of draws in [0, bound] per column, in one Generator call.

    Row by row and column by column, the values and the generator state
    afterwards are those of one scalar call per value: the bound 2**64-1
    takes a whole 64-bit word, and a bound below 2**32 takes half a word
    from the bit generator's buffer, which earlier calls may have left full.
    """
    tiled = np.tile(np.asarray(bounds, dtype=np.uint64), count)
    words = rng.integers(0, tiled, dtype=np.uint64, endpoint=True)
    return words.reshape(count, len(bounds))


def _uniforms(low: float, high: float, words: np.ndarray) -> list[float]:
    """``Generator.uniform(low, high)`` of each word: low + (high - low) * random()."""
    return (low + (high - low) * unit_doubles(words)).tolist()


def _points(spec: MunicipalitySpec, words: np.ndarray) -> tuple[list[float], list[float]]:
    """Uniform points of the municipality's box from the first two columns: (xs, ys)."""
    xmin, ymin, xmax, ymax = spec.bounds
    return _uniforms(xmin, xmax, words[:, 0]), _uniforms(ymin, ymax, words[:, 1])


def _build_houses(
    columns: dict[str, list],
    muni_index: int,
    spec: MunicipalitySpec,
    count: int,
    rng: np.random.Generator,
) -> None:
    """Append the columns of ``count`` houses at uniform points of the municipality."""
    words = _draw_rows(rng, HOUSE_DRAW_BOUNDS, count)
    xs, ys = _points(spec, words)
    columns["municipality"] += [muni_index] * count
    columns["x"] += xs
    columns["y"] += ys
    columns["size"] += _uniforms(*HOUSE_SIZE_RANGE, words[:, 2])
    columns["quality"] += (words[:, 3] + np.uint64(1)).tolist()


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
        municipalities[spec.id] = Municipality(id=spec.id, qli=INITIAL_QLI)

    # citizen, house and firm columns, in id order
    citizens: dict[str, list] = {
        "family": [], "age": [], "female": [], "qualification": [], "birth_month": [],
    }
    houses: dict[str, list] = {
        "municipality": [], "x": [], "y": [], "size": [], "quality": [],
    }
    families: dict[int, Family] = {}
    firm_municipality: list[int] = []
    firm_x: list[float] = []
    firm_y: list[float] = []
    firm_cash: list[float] = []

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

    schooling = _schooling_tables(region)
    next_citizen = 0
    next_family = 0
    surplus_house_ids: list[int] = []

    for muni_index, spec in enumerate(specs):
        n_citizens = citizens_per_muni[muni_index]
        n_families = families_per_muni[muni_index]
        n_firms = firms_per_muni[muni_index]

        drawn = _draw_ages_and_genders(region, n_citizens, rng)
        ages = [int(age) for age, _ in drawn]
        citizens["age"] += ages
        citizens["female"] += [gender == FEMALE for _, gender in drawn]
        citizens["birth_month"] += rng.integers(0, 12, size=n_citizens).tolist()
        for age, u in zip(ages, rng.random(n_citizens).tolist()):
            sums, years = schooling[age]
            citizens["qualification"].append(years[min(bisect_right(sums, u), len(years) - 1)])
        working_age = [
            params.working_age_min <= age <= params.working_age_max for age in ages
        ]

        # family homes, one per family
        first_house = len(houses["x"])
        _build_houses(houses, muni_index, spec, n_families, rng)
        muni_families = []
        for house_id in range(first_house, first_house + n_families):
            family = Family(
                id=next_family,
                member_ids=set(),
                residence=house_id,
                owned_houses={house_id},
            )
            families[family.id] = family
            muni_families.append(family)
            next_family += 1

        # deal citizens to families round-robin over a seeded shuffle; each
        # family starts with one month of the average wage per working-age
        # member, and savings start empty
        family_of = [0] * n_citizens
        adults = [0] * n_families
        for position, index in enumerate(rng.permutation(n_citizens).tolist()):
            family = muni_families[position % n_families]
            family_of[index] = family.id
            family.member_ids.add(next_citizen + index)
            adults[position % n_families] += working_age[index]
        citizens["family"] += family_of
        next_citizen += n_citizens
        for family, count in zip(muni_families, adults):
            family.monthly_cash = float(count) * INITIAL_WAGE_OFFER

        # vacant surplus houses, owners drawn later over all families
        n_surplus = surplus_per_muni[muni_index]
        first_house = len(houses["x"])
        _build_houses(houses, muni_index, spec, n_surplus, rng)
        surplus_house_ids += range(first_house, first_house + n_surplus)

        expected_employees = sum(working_age) / n_firms
        xs, ys = _points(spec, _draw_rows(rng, FIRM_DRAW_BOUNDS, n_firms))
        firm_municipality += [muni_index] * n_firms
        firm_x += xs
        firm_y += ys
        firm_cash += [INITIAL_WAGE_OFFER * expected_employees] * n_firms

    # assign surplus houses to randomly drawn existing families
    family_id_list = list(families.keys())
    owners = rng.integers(0, len(family_id_list), size=len(surplus_house_ids)).tolist()
    for house_id, owner_index in zip(surplus_house_ids, owners):
        families[family_id_list[owner_index]].owned_houses.add(house_id)

    municipality_ids = [spec.id for spec in specs]
    house_store = Houses.open(municipality_ids, **houses)
    house_store.price = hedonic_offer_prices(
        house_store, np.full(len(specs), INITIAL_QLI), params.hedonic_base_coefficient
    )
    return World(
        clock=0,
        region=region,
        citizens=Citizens.born(**citizens),
        families=families,
        houses=house_store,
        firms=Firms.open(
            municipality_ids,
            firm_municipality,
            firm_x,
            firm_y,
            firm_cash,
            price=INITIAL_GOODS_PRICE,
            wage_offer=INITIAL_WAGE_OFFER,
        ),
        municipalities=municipalities,
        rng=rng,
    )
