"""Per-agent reference markets: one numpy sampling call per shopper and vacancy.

These are the goods loop, ``labor.match`` and ``labor.pay_wages`` as they
were written before the markets drew their samples in one batched call and
the firm side ran as array passes: each shopper and each vacancy calls
``Generator.choice`` and then ``Generator.random``, each purchase and each
wage reads and writes one firm's cells of ``world.firms``, and every
purchase and every wage books its tax on its own. ``tests/test_market_equivalence.py`` runs them against the engine
on the same worlds and requires identical states, random stream included.
"""

from __future__ import annotations

import numpy as np

from policysim.firms import fire_employee, lowest_qualified_employee
from policysim.goods import set_budget
from policysim.world.types import distance


def choose_firm(residence, firms, size_market, rng, price_criterion_probability):
    count = len(firms)
    sample_size = min(size_market, count)
    if sample_size == count:
        sample = list(range(count))
    else:
        sample = rng.choice(count, size=sample_size, replace=False).tolist()
    by_price = float(rng.random()) < price_criterion_probability
    if by_price:
        return min(sample, key=lambda firm_id: (float(firms.price[firm_id]), firm_id))
    return min(sample, key=lambda firm_id: (distance(residence, location(firms, firm_id)), firm_id))


def location(firms, firm_id):
    return float(firms.x[firm_id]), float(firms.y[firm_id])


def municipality(firms, firm_id):
    return firms.municipality_ids[int(firms.municipality[firm_id])]


def transact(family, firms, firm_id, budget, consumption_tax_rate, ledger):
    price, stock = float(firms.price[firm_id]), float(firms.stock[firm_id])
    demanded = budget / price if budget > 0.0 else 0.0
    if stock >= demanded:
        quantity = demanded
        gross = budget if budget > 0.0 else 0.0
    else:
        quantity = stock
        gross = quantity * price
    tax = gross * consumption_tax_rate
    firms.stock[firm_id] = stock - quantity
    firms.cash[firm_id] = float(firms.cash[firm_id]) + (gross - tax)
    firms.revenue[firm_id] = float(firms.revenue[firm_id]) + (gross - tax)
    ledger.add(municipality(firms, firm_id), "consumption", tax)
    family.monthly_cash += budget - gross
    return firm_id


def goods_market_step(
    world, active, beta, size_market, consumption_tax_rate, rng, price_criterion_probability
):
    budgets = {}
    for family in active:
        consume_budget, _ = set_budget(family, beta)
        budgets[family.id] = consume_budget
    firms = world.firms
    purchases = []
    if not len(firms) or not active:
        for family in active:
            family.monthly_cash += budgets[family.id]
        return purchases
    order = rng.permutation(len(active))
    for index in order:
        family = active[int(index)]
        budget = budgets[family.id]
        if budget <= 0.0:
            continue
        firm_id = choose_firm(
            world.residence_location(family),
            firms,
            size_market,
            rng,
            price_criterion_probability,
        )
        purchases.append(
            transact(family, firms, firm_id, budget, consumption_tax_rate, ledger=world.ledger)
        )
    return purchases


def match(world, pool, pct_distance_hiring, sample_size, rng):
    remaining = list(pool.candidates)
    hires = []
    for firm_id, wage in pool.vacancies:
        if not remaining:
            break
        firm_location = location(world.firms, firm_id)
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
                return distance(world.residence_location(family), firm_location), cid
            return -world.citizens[cid].qualification, cid

        position = min(positions, key=rank)
        chosen = remaining[position]
        del remaining[position]
        citizen = world.citizens[chosen]
        citizen.employer = firm_id
        citizen.wage = wage
        world.firms.employees[firm_id].add(chosen)
        hires.append((firm_id, chosen))
    pool.candidates = remaining
    return hires


def pay_wages(world, labor_tax_rate):
    firms = world.firms
    bills = np.zeros(len(firms))
    for firm_id, employees in enumerate(firms.employees):
        while employees and float(firms.cash[firm_id]) < sum(
            world.citizens[cid].wage for cid in employees
        ):
            fire_employee(world, firm_id, lowest_qualified_employee(world, firm_id))
        if not employees:
            continue
        bill = 0.0
        for citizen_id in sorted(employees):
            citizen = world.citizens[citizen_id]
            wage = citizen.wage
            tax = wage * labor_tax_rate
            family = world.families[citizen.family_id]
            family.monthly_cash += wage - tax
            world.ledger.add(municipality(firms, firm_id), "labor", tax)
            bill += wage
        firms.cash[firm_id] = float(firms.cash[firm_id]) - bill
        bills[firm_id] = bill
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
