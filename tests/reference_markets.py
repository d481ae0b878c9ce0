"""Per-agent reference markets: one numpy sampling call per shopper and vacancy.

These are the goods loop, ``labor.match`` and ``labor.pay_wages`` as they
were written before the markets drew their samples in one batched call:
each shopper and each vacancy calls ``Generator.choice`` and then
``Generator.random``, and every purchase and every wage books its tax on
its own. ``tests/test_market_equivalence.py`` runs them against the engine
on the same worlds and requires identical states, random stream included.
"""

from __future__ import annotations

import numpy as np

from policysim.firms import fire_employee, lowest_qualified_employee
from policysim.goods import set_budget
from policysim.world.types import distance


def choose_firm(residence, firms, size_market, rng, price_criterion_probability):
    sample_size = min(size_market, len(firms))
    if sample_size == len(firms):
        sample = list(firms)
    else:
        picks = rng.choice(len(firms), size=sample_size, replace=False)
        sample = [firms[int(index)] for index in picks]
    by_price = float(rng.random()) < price_criterion_probability
    if by_price:
        return min(sample, key=lambda firm: (firm.price, firm.id))
    return min(sample, key=lambda firm: (distance(residence, firm.location), firm.id))


def transact(family, firm, budget, consumption_tax_rate, ledger):
    demanded = budget / firm.price if budget > 0.0 else 0.0
    if firm.stock >= demanded:
        quantity = demanded
        gross = budget if budget > 0.0 else 0.0
    else:
        quantity = firm.stock
        gross = quantity * firm.price
    tax = gross * consumption_tax_rate
    firm.stock -= quantity
    firm.cash += gross - tax
    firm.revenue_this_month += gross - tax
    ledger.add(firm.municipality_id, "consumption", tax)
    family.monthly_cash += budget - gross
    return firm.id


def goods_market_step(
    world, beta, size_market, consumption_tax_rate, rng, price_criterion_probability
):
    active = world.active_families()
    budgets = {}
    for family in active:
        consume_budget, _ = set_budget(family, beta)
        budgets[family.id] = consume_budget
    firms = list(world.firms.values())
    purchases = []
    if not firms or not active:
        for family in active:
            family.monthly_cash += budgets[family.id]
        return purchases
    order = rng.permutation(len(active))
    for index in order:
        family = active[int(index)]
        budget = budgets[family.id]
        if budget <= 0.0:
            continue
        firm = choose_firm(
            world.residence_location(family),
            firms,
            size_market,
            rng,
            price_criterion_probability,
        )
        purchases.append(
            transact(family, firm, budget, consumption_tax_rate, ledger=world.ledger)
        )
    return purchases


def match(world, pool, pct_distance_hiring, sample_size, rng):
    remaining = list(pool.candidates)
    hires = []
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

        def rank(index):
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


def pay_wages(world, labor_tax_rate):
    bills = {}
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
            world.ledger.add(firm.municipality_id, "labor", tax)
            bill += wage
        firm.cash -= bill
        bills[firm.id] = bill
    return bills


def per_agent_sample(rng, pool_sizes, sample_size):
    """``sampling.sample_positions`` spelled as one choice and one random per pool."""
    picks, coins = [], []
    for n in pool_sizes:
        k = min(sample_size, n)
        sample = range(n) if k == n else rng.choice(n, size=k, replace=False).tolist()
        picks.append(sorted(sample))
        coins.append(float(rng.random()))
    return picks, coins
