"""Per-agent reference markets: one numpy sampling call per shopper and vacancy.

These are the goods loop, ``labor.match`` and ``labor.pay_wages`` as they
were written before the markets drew their samples in one batched call and
the firm, citizen, family and house sides ran as array passes: each shopper
and each vacancy calls ``Generator.choice`` and then ``Generator.random``,
each budget, purchase, hire and wage reads and writes one row of
``world.firms``, ``world.citizens``, ``world.families`` and
``world.houses`` at a time, and every purchase and every wage books its tax
on its own. ``tests/test_market_equivalence.py``
runs them against the engine on the same worlds and requires identical
states, random stream included.
"""

from __future__ import annotations

import numpy as np

from policysim.world.types import UNEMPLOYED, distance


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


def location(store, row):
    """A firm's or a house's location."""
    return float(store.x[row]), float(store.y[row])


def set_budget(families, family_id, beta):
    """Split one family's liquid cash into a consumption budget and savings."""
    cash = float(families.monthly_cash[family_id])
    budget = beta * cash
    families.savings[family_id] = float(families.savings[family_id]) + (cash - budget)
    families.monthly_cash[family_id] = 0.0
    return budget


def add_cash(families, family_id, amount):
    families.monthly_cash[family_id] = float(families.monthly_cash[family_id]) + amount


def transact(families, family_id, firms, firm_id, budget, consumption_tax_rate, ledger):
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
    ledger.book("consumption", [int(firms.municipality[firm_id])], [tax])
    add_cash(families, family_id, budget - gross)
    return firm_id


def goods_market_step(
    world, active, beta, size_market, consumption_tax_rate, rng, price_criterion_probability
):
    families = world.families
    active = active.tolist()
    budgets = {}
    for family_id in active:
        budgets[family_id] = set_budget(families, family_id, beta)
    firms = world.firms
    purchases = []
    if not len(firms) or not active:
        for family_id in active:
            add_cash(families, family_id, budgets[family_id])
        return purchases
    order = rng.permutation(len(active))
    for index in order:
        family_id = active[int(index)]
        budget = budgets[family_id]
        if budget <= 0.0:
            continue
        firm_id = choose_firm(
            location(world.houses, int(families.residence[family_id])),
            firms,
            size_market,
            rng,
            price_criterion_probability,
        )
        purchases.append(
            transact(families, family_id, firms, firm_id, budget, consumption_tax_rate,
                     ledger=world.ledger)
        )
    return purchases


def match(world, pool, pct_distance_hiring, sample_size, rng):
    remaining = pool.candidates.tolist()
    hires = []
    for firm_id in pool.vacancies.tolist():
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
                home = int(world.families.residence[int(world.citizens.family[cid])])
                return distance(location(world.houses, home), firm_location), cid
            return -int(world.citizens.qualification[cid]), cid

        position = min(positions, key=rank)
        chosen = remaining[position]
        del remaining[position]
        world.citizens.employer[chosen] = firm_id
        world.citizens.wage[chosen] = world.firms.wage_offer[firm_id]
        hires.append(chosen)
    pool.candidates = np.array(remaining, dtype=np.int64)
    return np.array(hires, dtype=np.int64)


def staff(citizens, firm_count):
    """Each firm's set of employee ids, read one citizen row at a time."""
    employees = [set() for _ in range(firm_count)]
    for cid in range(len(citizens.alive)):
        employer = int(citizens.employer[cid])
        if employer != UNEMPLOYED:
            employees[employer].add(cid)
    return employees


def pay_wages(world, labor_tax_rate):
    firms, citizens = world.firms, world.citizens
    bills = np.zeros(len(firms))
    for firm_id, employees in enumerate(staff(citizens, len(firms))):
        while employees and float(firms.cash[firm_id]) < sum(
            float(citizens.wage[cid]) for cid in employees
        ):
            lowest = min(employees, key=lambda cid: (int(citizens.qualification[cid]), cid))
            employees.discard(lowest)
            citizens.employer[lowest] = UNEMPLOYED
            citizens.wage[lowest] = 0.0
        if not employees:
            continue
        bill = 0.0
        for citizen_id in sorted(employees):
            wage = float(citizens.wage[citizen_id])
            tax = wage * labor_tax_rate
            add_cash(world.families, int(citizens.family[citizen_id]), wage - tax)
            world.ledger.book("labor", [int(firms.municipality[firm_id])], [tax])
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
