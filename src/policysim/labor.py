"""Labor market: candidate pooling, wage-ordered matching, and payroll.

Firms offering higher wages pick first, each hiring from a uniform sample
of the remaining candidates either the closest one or the best qualified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .firms import fire_employee, lowest_qualified_employee, staff
from .params import SimParams
from .sampling import sample_blocks
from .world.generate import allocate_proportionally
from .world.types import World, distance


@dataclass
class LaborPool:
    candidates: list[int] = field(default_factory=list)
    vacancies: list[tuple[int, float]] = field(default_factory=list)  # (firm, wage)


def build_pool(world: World, params: SimParams, openings: dict[int, int]) -> LaborPool:
    """Unemployed working-age citizens, and the openings' vacancies sorted by wage."""
    candidates = [
        citizen.id
        for citizen in world.citizens.values()
        if citizen.employer is None
        and params.working_age_min <= citizen.age <= params.working_age_max
    ]
    offers = world.firms.wage_offer.tolist()
    vacancies: list[tuple[int, float]] = []
    for firm_id, count in openings.items():
        vacancies.extend([(firm_id, offers[firm_id])] * count)
    vacancies.sort(key=lambda entry: (-entry[1], entry[0]))
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
    the first hire; the samples come from batched draws.
    """
    firms = world.firms
    firm_x, firm_y = firms.x.tolist(), firms.y.tolist()
    remaining = list(pool.candidates)
    vacancies = iter(pool.vacancies[: len(remaining)])
    pool_sizes = np.arange(len(remaining), 0, -1)[: len(pool.vacancies)]
    hires: list[tuple[int, int]] = []
    for picks, coins in sample_blocks(rng, pool_sizes, sample_size):
        by_distance_rows = (coins < pct_distance_hiring).tolist()
        for sample, by_distance, (firm_id, wage) in zip(picks, by_distance_rows, vacancies):
            location = firm_x[firm_id], firm_y[firm_id]
            positions = sample[: min(sample_size, len(remaining))].tolist()

            def rank(index: int) -> tuple[float, int]:
                cid = remaining[index]
                if by_distance:
                    family = world.families[world.citizens[cid].family_id]
                    return distance(world.residence_location(family), location), cid
                return -world.citizens[cid].qualification, cid

            position = min(positions, key=rank)
            chosen = remaining[position]
            del remaining[position]
            citizen = world.citizens[chosen]
            citizen.employer = firm_id
            citizen.wage = wage
            firms.employees[firm_id].add(chosen)
            hires.append((firm_id, chosen))
    pool.candidates = remaining
    return hires


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
    firms = world.firms
    employed, employers = staff(world)
    wages = np.array([citizen.wage for citizen in employed], dtype=float)
    bills = np.zeros(len(firms))
    np.add.at(bills, employers, wages)
    short = (firms.cash < bills) & (np.bincount(employers, minlength=len(firms)) > 0)
    for firm_id in np.flatnonzero(short).tolist():
        bills[firm_id] = _shed_until_affordable(world, firm_id, float(bills[firm_id]))

    kept = np.fromiter(
        (citizen.employer is not None for citizen in employed), dtype=bool, count=len(employed)
    )
    payroll = np.flatnonzero(kept)[np.argsort(employers[kept], kind="stable")]
    tax = wages[payroll] * labor_tax_rate
    for index, net in zip(payroll.tolist(), (wages[payroll] - tax).tolist()):
        world.families[employed[index].family_id].monthly_cash += net
    world.ledger.book("labor", firms.municipality_ids, firms.municipality[employers[payroll]], tax)
    firms.cash -= bills
    return bills


def _shed_until_affordable(world: World, firm_id: int, bill: float) -> float:
    """Fire the least qualified employee until the firm's cash covers the
    bill of the rest; returns that bill, 0.0 if nobody is left."""
    cash = world.firms.cash[firm_id]
    employees = world.firms.employees[firm_id]
    while employees and cash < bill:
        fire_employee(world, firm_id, lowest_qualified_employee(world, firm_id))
        bill = 0.0
        for citizen_id in sorted(employees):
            bill += world.citizens[citizen_id].wage
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
    working_age = world.working_age_citizens(
        params.working_age_min, params.working_age_max
    )
    if not working_age:
        return
    firms = world.firms
    if not len(firms):
        return
    populations = world.population_by_municipality(world.active_families())
    residents = np.array([populations.get(muni, 0) for muni in firms.municipality_ids])
    firms_per_muni = np.bincount(firms.municipality, minlength=len(firms.municipality_ids))
    weights = (residents[firms.municipality] / firms_per_muni[firms.municipality]).tolist()

    employed = sum(citizen.employer is not None for citizen in working_age)
    needed = round((1.0 - target_rate) * len(working_age)) - employed
    if needed <= 0:
        return
    openings = dict(enumerate(allocate_proportionally(needed, weights)))
    pool = build_pool(world, params, openings)
    match(world, pool, params.pct_distance_hiring, params.size_market, rng)
