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
in house order. Everything between these calls is array passes over the
draws.

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
from typing import Sequence

import numpy as np

from ..params import SimParams
from ..realestate import hedonic_offer_prices
from ..sampling import COIN_BOUND, unit_doubles
from .regions import MunicipalitySpec, RegionData
from .types import Citizens, Families, Firms, Houses, World

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
    total: int, weights: Sequence[float] | np.ndarray, minimum: int = 0
) -> list[int]:
    """Integer allocation proportional to weights, largest-remainder exact.

    Every slot receives at least ``minimum``; ties break by index. The
    weights are summed left to right, as ``np.cumsum`` adds them.
    """
    weights = np.asarray(weights, dtype=float)
    count = len(weights)
    if total < minimum * count:
        raise GenerationError(
            f"cannot allocate {total} items with minimum {minimum} over {count} slots"
        )
    remaining = total - minimum * count
    weight_sum = float(np.cumsum(weights)[-1])
    if weight_sum <= 0:
        quotas = np.full(count, remaining / count)
    else:
        quotas = remaining * weights / weight_sum
    floors = quotas.astype(np.int64)
    leftover = remaining - int(floors.sum())
    # the largest remainders first; a stable sort breaks ties by index
    order = np.argsort(-(quotas - floors), kind="stable")
    floors[order[:leftover]] += 1
    return (minimum + floors).tolist()


def _schooling(
    tables: tuple[np.ndarray, np.ndarray], ages: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Each citizen's years of schooling from ``RegionData.schooling``: those
    of the first row of its age whose running sum exceeds its uniform, else
    those of the last row.

    The probabilities are in [0, 1], so the sums never decrease and the
    count of sums at or below u is ``bisect_right(sums, u)``; the padded
    years make a count past the last row read the last row's years.
    """
    sums, years = tables
    return years[ages, np.count_nonzero(sums[ages] <= draws[:, None], axis=1)]


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


def _uniforms(low: float, high: float, words: np.ndarray) -> np.ndarray:
    """``Generator.uniform(low, high)`` of each word: low + (high - low) * random()."""
    return low + (high - low) * unit_doubles(words)


def _points(spec: MunicipalitySpec, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points of the municipality's box from the first two columns: (xs, ys)."""
    xmin, ymin, xmax, ymax = spec.bounds
    return _uniforms(xmin, xmax, words[:, 0]), _uniforms(ymin, ymax, words[:, 1])


def _build_houses(
    columns: dict[str, list[np.ndarray]],
    muni_index: int,
    spec: MunicipalitySpec,
    count: int,
    rng: np.random.Generator,
) -> None:
    """Append the columns of ``count`` houses at uniform points of the municipality."""
    words = _draw_rows(rng, HOUSE_DRAW_BOUNDS, count)
    xs, ys = _points(spec, words)
    columns["municipality"].append(np.full(count, muni_index))
    columns["x"].append(xs)
    columns["y"].append(ys)
    columns["size"].append(_uniforms(*HOUSE_SIZE_RANGE, words[:, 2]))
    columns["quality"].append(words[:, 3].astype(np.int64) + 1)


def _joined(columns: dict[str, list[np.ndarray]]) -> dict[str, np.ndarray]:
    return {name: np.concatenate(parts) for name, parts in columns.items()}


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
    targets = [spec.target_population for spec in specs]
    total_citizens = _round_half_up(sum(targets) * params.percentage_actual_pop)
    citizens_per_muni = allocate_proportionally(total_citizens, targets)
    if any(count == 0 for count in citizens_per_muni):
        raise GenerationError(
            "a municipality received zero citizens; raise PERCENTAGE_ACTUAL_POP"
        )

    # citizen, family, house and firm columns, each municipality's part in id order
    citizens: dict[str, list[np.ndarray]] = {
        "family": [], "age": [], "female": [], "qualification": [], "birth_month": [],
    }
    houses: dict[str, list[np.ndarray]] = {
        "municipality": [], "x": [], "y": [], "size": [], "quality": [],
    }
    family_cash: list[np.ndarray] = []
    firms: dict[str, list[np.ndarray]] = {"municipality": [], "x": [], "y": [], "cash": []}

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

    categories, female_categories, category_p = region.categories
    homes: list[int] = []  # each family's residence, in family id order
    house_count = 0

    for muni_index, spec in enumerate(specs):
        n_citizens = citizens_per_muni[muni_index]
        n_families = families_per_muni[muni_index]
        n_firms = firms_per_muni[muni_index]

        picks = rng.choice(len(categories), size=n_citizens, p=category_p)
        ages = categories[picks]
        citizens["age"].append(ages)
        citizens["female"].append(female_categories[picks])
        citizens["birth_month"].append(rng.integers(0, 12, size=n_citizens))
        draws = rng.random(n_citizens)
        citizens["qualification"].append(_schooling(region.schooling, ages, draws))
        working_age = (ages >= params.working_age_min) & (ages <= params.working_age_max)

        # family homes, one per family
        _build_houses(houses, muni_index, spec, n_families, rng)
        first_family = len(homes)
        homes += range(house_count, house_count + n_families)
        house_count += n_families

        # deal citizens to families round-robin over a seeded shuffle; each
        # family starts with one month of the average wage per working-age
        # member, and savings start empty
        perm = rng.permutation(n_citizens)
        seat = np.arange(n_citizens) % n_families
        family_of = np.empty(n_citizens, dtype=np.int64)
        family_of[perm] = first_family + seat
        citizens["family"].append(family_of)
        # an integer count in float64 is exact
        adults = np.bincount(seat, weights=working_age[perm], minlength=n_families)
        family_cash.append(adults * INITIAL_WAGE_OFFER)

        # vacant surplus houses, owners drawn later over all families
        n_surplus = surplus_per_muni[muni_index]
        _build_houses(houses, muni_index, spec, n_surplus, rng)
        house_count += n_surplus

        expected_employees = int(np.count_nonzero(working_age)) / n_firms
        xs, ys = _points(spec, _draw_rows(rng, FIRM_DRAW_BOUNDS, n_firms))
        firms["municipality"].append(np.full(n_firms, muni_index))
        firms["x"].append(xs)
        firms["y"].append(ys)
        firms["cash"].append(np.full(n_firms, INITIAL_WAGE_OFFER * expected_employees))

    # each family owns its home, and the surplus houses left go to drawn families
    families = Families.open(homes, np.concatenate(family_cash))
    house_store = Houses.open(**_joined(houses))
    house_store.owner[families.residence] = np.arange(len(homes))
    surplus = (house_store.owner < 0).nonzero()[0]
    house_store.owner[surplus] = rng.integers(0, len(homes), size=len(surplus))

    qli = np.full(len(specs), INITIAL_QLI)
    house_store.price = hedonic_offer_prices(house_store, qli, params.hedonic_base_coefficient)
    return World(
        clock=0,
        region=region,
        citizens=Citizens.born(**_joined(citizens)),
        families=families,
        houses=house_store,
        firms=Firms.open(
            **_joined(firms), price=INITIAL_GOODS_PRICE, wage_offer=INITIAL_WAGE_OFFER
        ),
        qli=qli,
        rng=rng,
    )
