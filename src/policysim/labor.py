"""Labor market: candidate pooling, wage-ordered matching, and payroll.

Firms offering higher wages pick first, each hiring from a uniform sample
of the remaining candidates either the closest one or the best qualified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .firms import fire_employee, lowest_qualified_employee
from .fiscal import TaxLedger
from .params import SimParams
from .world.generate import allocate_proportionally
from .world.types import World, distance


@dataclass
class LaborPool:
    candidates: list[int] = field(default_factory=list)
    vacancies: list[tuple[int, float]] = field(default_factory=list)  # (firm, wage)


def build_pool(world: World, params: SimParams) -> LaborPool:
    """Unemployed working-age citizens and open vacancies sorted by wage."""
    candidates = [
        citizen.id
        for citizen in world.citizens.values()
        if citizen.employer is None
        and params.working_age_min <= citizen.age <= params.working_age_max
    ]
    vacancies: list[tuple[int, float]] = []
    for firm in world.firms.values():
        vacancies.extend((firm.id, firm.wage_offer) for _ in range(firm.open_vacancies))
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
    """
    remaining = list(pool.candidates)
    hires: list[tuple[int, int]] = []
    for firm_id, wage in pool.vacancies:
        if not remaining:
            break
        firm = world.firms[firm_id]
        k = min(sample_size, len(remaining))
        if k == len(remaining):
            positions = range(k)
        else:
            positions = rng.choice(len(remaining), size=k, replace=False).tolist()
        by_distance = float(rng.random()) < pct_distance_hiring

        def rank(index: int) -> tuple[float, int]:
            cid = remaining[index]
            if by_distance:
                family = world.families[world.citizens[cid].family_id]
                return distance(world.residence_location(family), firm.location), cid
            return -world.citizens[cid].qualification, cid

        position = min(positions, key=rank)
        chosen = remaining[position]
        del remaining[position]
        citizen = world.citizens[chosen]
        citizen.employer = firm_id
        citizen.wage = wage
        firm.employee_ids.add(chosen)
        hires.append((firm_id, chosen))
    pool.candidates = remaining
    return hires


def pay_wages(world: World, labor_tax_rate: float, ledger: TaxLedger) -> float:
    """Pay every employee their contracted wage, net of the labor tax.

    Wages are sticky: each employee earns the offer that hired them, while
    the firm's posted offer tracks current revenue for new hires only.
    A firm that cannot cover its bill sheds its least qualified employees,
    unpaid, until the remainder is affordable. Returns the tax collected.
    """
    total_tax = 0.0
    for firm in world.firms.values():
        while firm.employee_ids and firm.cash < sum(
            world.citizens[cid].wage for cid in firm.employee_ids
        ):
            fire_employee(world, firm, lowest_qualified_employee(world, firm))
        if not firm.employee_ids:
            continue
        bill = 0.0
        for citizen_id in sorted(firm.employee_ids):
            citizen = world.citizens[citizen_id]
            wage = citizen.wage
            tax = wage * labor_tax_rate
            family = world.families[citizen.family_id]
            family.monthly_cash += wage - tax
            ledger.add(firm.municipality_id, "labor", tax)
            total_tax += tax
            bill += wage
        firm.cash -= bill
        firm.wages_paid_this_month += bill
    return total_tax


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
    firm_list = list(world.firms.values())
    if not firm_list:
        return
    populations = world.population_by_municipality()
    firms_per_muni: dict[str, int] = {}
    for firm in firm_list:
        firms_per_muni[firm.municipality_id] = firms_per_muni.get(firm.municipality_id, 0) + 1
    weights = [
        populations.get(firm.municipality_id, 0) / firms_per_muni[firm.municipality_id]
        for firm in firm_list
    ]

    employed = sum(citizen.employer is not None for citizen in working_age)
    needed = round((1.0 - target_rate) * len(working_age)) - employed
    if needed <= 0:
        return
    allocation = allocate_proportionally(needed, weights)
    for firm, vacancies in zip(firm_list, allocation):
        firm.open_vacancies = vacancies
    pool = build_pool(world, params)
    match(world, pool, params.pct_distance_hiring, params.size_market, rng)
    for firm in firm_list:
        firm.open_vacancies = 0
