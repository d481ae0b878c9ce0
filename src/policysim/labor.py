"""Labor market: candidate pooling, wage-ordered matching, and payroll.

Firms offering higher wages pick first, each hiring from a uniform sample
of the remaining candidates either the closest one or the best qualified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import SimParams
from .sampling import sample_blocks
from .world.generate import allocate_proportionally
from .world.types import UNEMPLOYED, World


@dataclass
class LaborPool:
    candidates: list[int] = field(default_factory=list)
    vacancies: list[tuple[int, float]] = field(default_factory=list)  # (firm, wage)


def build_pool(world: World, params: SimParams, openings: dict[int, int]) -> LaborPool:
    """Unemployed working-age citizens, and the openings' vacancies sorted by wage."""
    citizens = world.citizens
    looking = citizens.working_age(params.working_age_min, params.working_age_max)
    candidates = np.flatnonzero(looking & (citizens.employer == UNEMPLOYED)).tolist()
    firm_ids = np.repeat(
        np.array(list(openings), dtype=np.int64), np.array(list(openings.values()), dtype=np.int64)
    )
    offers = world.firms.wage_offer[firm_ids]
    # the highest offer first, ties going to the lower firm id
    order = np.lexsort((firm_ids, -offers))
    vacancies = list(zip(firm_ids[order].tolist(), offers[order].tolist()))
    return LaborPool(candidates=candidates, vacancies=vacancies)


def match(
    world: World,
    pool: LaborPool,
    pct_distance_hiring: float,
    sample_size: int,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Fill vacancies in wage order; each hire leaves the candidate pool.

    Per vacancy, the firm samples up to sample_size remaining candidates
    and takes the closest one with probability pct_distance_hiring, the
    best qualified otherwise. Ties break toward the lower citizen id.
    The hired citizen's wage is the vacancy's offer.

    Every vacancy up to the number of candidates hires exactly one, so the
    pool shrinks by one per vacancy and every sample size is known before
    the first hire; the samples come from batched draws. The candidates'
    qualifications and home coordinates are gathered once, in pool order.
    """
    citizens, firms = world.citizens, world.firms
    ids = np.asarray(pool.candidates, dtype=np.int64)
    count = len(ids)
    id_list = ids.tolist()
    # one key per candidate: the best qualified first, then the lower id
    by_qualification = (ids - citizens.qualification[ids] * citizens.rows).tolist()
    homes = world.families.residence[citizens.family[ids]]
    home_x, home_y = world.houses.x[homes].tolist(), world.houses.y[homes].tolist()
    firm_x, firm_y = firms.x.tolist(), firms.y.tolist()
    remaining = list(range(count))
    filled = pool.vacancies[:count]
    vacancies = iter(filled)
    hired: list[int] = []
    for picks, coins in sample_blocks(rng, np.arange(count, 0, -1)[: len(filled)], sample_size):
        by_distance_rows = (coins < pct_distance_hiring).tolist()
        for sample, by_distance, (firm_id, _) in zip(picks.tolist(), by_distance_rows, vacancies):
            positions = sample[: min(sample_size, len(remaining))]
            if by_distance:
                x, y = firm_x[firm_id], firm_y[firm_id]

                def km(position: int) -> tuple[float, int]:
                    # math.hypot of the differences, as types.distance(s) measures
                    index = remaining[position]
                    return math.hypot(home_x[index] - x, home_y[index] - y), id_list[index]

                position = min(positions, key=km)
            else:
                position = min(positions, key=lambda at: by_qualification[remaining[at]])
            hired.append(remaining.pop(position))
    hired_ids = ids[hired]
    citizens.employer[hired_ids] = [firm_id for firm_id, _ in filled]
    citizens.wage[hired_ids] = [wage for _, wage in filled]
    pool.candidates = ids[remaining].tolist()
    return [(firm_id, citizen_id) for (firm_id, _), citizen_id in zip(filled, hired_ids.tolist())]


def pay_wages(world: World, labor_tax_rate: float) -> np.ndarray:
    """Pay every employee their contracted wage, net of the labor tax.

    Wages are sticky: each employee earns the offer that hired them, while
    the firm's posted offer tracks current revenue for new hires only.
    A firm's bill is its wages summed in employee-id order. A firm that
    cannot cover its bill sheds its least qualified employees, unpaid,
    until the remainder is affordable. Wages are paid, and their taxes
    booked to the firm's municipality, in firm then employee-id order.
    Returns each firm's wage bill, 0.0 for a firm that paid none.
    """
    firms, citizens = world.firms, world.citizens
    employed = citizens.employed()
    employers = citizens.employer[employed]
    bills = np.zeros(len(firms))
    np.add.at(bills, employers, citizens.wage[employed])
    short = np.flatnonzero((firms.cash < bills) & (citizens.headcount(len(firms)) > 0))
    if len(short):
        order = citizens.firing_order()
        firm_of = citizens.employer[order]
        starts = np.searchsorted(firm_of, short).tolist()
        ends = np.searchsorted(firm_of, short, side="right").tolist()
        for firm_id, start, end in zip(short.tolist(), starts, ends):
            staff = order[start:end].tolist()
            bills[firm_id] = _shed_until_affordable(world, firm_id, float(bills[firm_id]), staff)
        employed = citizens.employed()
        employers = citizens.employer[employed]

    payroll = employed[np.argsort(employers, kind="stable")]
    wages = citizens.wage[payroll]
    tax = wages * labor_tax_rate
    # in payroll order, so a family's wages add up as a loop over it would
    np.add.at(world.families.monthly_cash, citizens.family[payroll], wages - tax)
    world.ledger.book(
        "labor", firms.municipality_ids, firms.municipality[citizens.employer[payroll]], tax
    )
    firms.cash -= bills
    return bills


def _shed_until_affordable(world: World, firm_id: int, bill: float, staff: list[int]) -> float:
    """Fire the firm's staff, listed least qualified first, one by one until
    its cash covers the bill of the rest; returns that bill, 0.0 if nobody
    is left. A bill sums its wages in id order."""
    cash = world.firms.cash[firm_id]
    wages = world.citizens.wage
    shed = 0
    while shed < len(staff) and cash < bill:
        shed += 1
        bill = 0.0
        for wage in wages[sorted(staff[shed:])].tolist():
            bill += wage
    world.citizens.fire(staff[:shed])
    return bill


def calibrate_initial_unemployment(
    world: World, target_rate: float, params: SimParams, rng: np.random.Generator
) -> None:
    """One pre-simulation hiring round that meets the unemployment target.

    The round offers exactly the missing number of vacancies, spread over
    firms in proportion to their expected size. Every missing hire has an
    unemployed working-age candidate in the pool, so ``match`` fills each
    vacancy and the employed count lands on the rounded target exactly.
    """
    citizens = world.citizens
    working_age = citizens.working_age(params.working_age_min, params.working_age_max)
    candidates = int(np.count_nonzero(working_age))
    if not candidates:
        return
    firms = world.firms
    if not len(firms):
        return
    populations = world.population_by_municipality()
    residents = np.array([populations.get(muni, 0) for muni in firms.municipality_ids])
    firms_per_muni = np.bincount(firms.municipality, minlength=len(firms.municipality_ids))
    weights = (residents[firms.municipality] / firms_per_muni[firms.municipality]).tolist()

    employed = int(np.count_nonzero(working_age & (citizens.employer != UNEMPLOYED)))
    needed = round((1.0 - target_rate) * candidates) - employed
    if needed <= 0:
        return
    openings = dict(enumerate(allocate_proportionally(needed, weights)))
    pool = build_pool(world, params, openings)
    match(world, pool, params.pct_distance_hiring, params.size_market, rng)
