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
    candidates = (looking & (citizens.employer == UNEMPLOYED)).nonzero()[0].tolist()
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
    hired: list[int] = []
    for picks, coins in sample_blocks(rng, np.arange(count, 0, -1)[: len(filled)], sample_size):
        for sample, by_distance in zip(picks.tolist(), (coins < pct_distance_hiring).tolist()):
            positions = sample[: min(sample_size, len(remaining))]
            if by_distance:
                firm_id = filled[len(hired)][0]
                x, y = firm_x[firm_id], firm_y[firm_id]
            # the smallest key; each key is unique to its citizen, so none ties
            best = None
            for at in positions:
                index = remaining[at]
                if by_distance:
                    # math.hypot of the differences, as types.distance(s) measures
                    key = (math.hypot(home_x[index] - x, home_y[index] - y), id_list[index])
                else:
                    key = by_qualification[index]
                if best is None or key < best:
                    best, position = key, at
            hired.append(remaining.pop(position))
    # free the per-candidate lists before building the outputs: holding
    # both at once is calibration's peak memory
    del id_list, by_qualification, home_x, home_y
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
    short = ((firms.cash < bills) & (citizens.headcount(len(firms)) > 0)).nonzero()[0]
    if len(short):
        _shed_until_affordable(world, short, bills)
        employed = citizens.employed()
        employers = citizens.employer[employed]

    # firm then id order, by one np.sort of unique keys (firms x rows < 2**63)
    rows = citizens.rows
    payroll = np.sort(employers * rows + employed) % rows
    wages = citizens.wage[payroll]
    tax = wages * labor_tax_rate
    # in payroll order, so a family's wages add up as a loop over it would
    np.add.at(world.families.monthly_cash, citizens.family[payroll], wages - tax)
    world.ledger.book(
        "labor", world.region.municipality_ids, firms.municipality[citizens.employer[payroll]], tax
    )
    firms.cash -= bills
    return bills


def _shed_until_affordable(world: World, short: np.ndarray, bills: np.ndarray) -> None:
    """Each short firm fires its staff in firing order until its cash covers
    the bill of the rest, which goes to ``bills``: 0.0 if nobody is left.

    A bill sums its wages in id order, and x + 0.0 is x, so the bill of the
    staff kept is the sum over all of them with each fired wage as 0.0.
    Wages are >= 0 and rounding is monotone, so firing more never raises
    the bill, and one bisection over the count fired serves every short
    firm at once.
    """
    citizens = world.citizens
    order = citizens.firing_order()
    is_short = np.zeros(len(bills), dtype=bool)
    is_short[short] = True
    staff = order[is_short[citizens.employer[order]]]
    firm = np.searchsorted(short, citizens.employer[staff])  # a short firm's row
    size = np.bincount(firm, minlength=len(short))
    rank = np.arange(len(staff)) - (np.cumsum(size) - size)[firm]
    # the staff by (short firm, id); the keys are unique, so any sort is stable
    by_id = np.argsort(firm * citizens.rows + staff)
    firm_by_id, rank_by_id, wage_by_id = firm[by_id], rank[by_id], citizens.wage[staff[by_id]]
    cash = world.firms.cash[short]
    # firing `low` leaves the bill uncovered; firing `high` covers it or fires everyone
    low, high = np.zeros_like(size), size
    high_bill = np.zeros(len(short))
    while (high - low > 1).any():
        mid = (low + high) // 2
        bill = np.zeros(len(short))
        np.add.at(bill, firm_by_id, np.where(rank_by_id >= mid[firm_by_id], wage_by_id, 0.0))
        covered = (mid == size) | (cash >= bill)
        low, high = np.where(covered, low, mid), np.where(covered, mid, high)
        high_bill = np.where(covered, bill, high_bill)
    citizens.fire(staff[rank < high[firm]])
    bills[short] = high_bill


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
    residents = world.population_by_municipality()
    firms_per_muni = np.bincount(firms.municipality, minlength=len(residents))
    weights = residents[firms.municipality] / firms_per_muni[firms.municipality]

    employed = int(np.count_nonzero(working_age & (citizens.employer != UNEMPLOYED)))
    needed = round((1.0 - target_rate) * candidates) - employed
    if needed <= 0:
        return
    openings = dict(enumerate(allocate_proportionally(needed, weights)))
    pool = build_pool(world, params, openings)
    match(world, pool, params.pct_distance_hiring, params.size_market, rng)
