"""Goods market: family budgets, firm choice, and taxed purchases.

Families shop once a month at a single firm, first come first served over a
seeded permutation, so earlier shoppers can exhaust a firm's stock. Each
shopper samples size_market firms and flips a coin between price and
proximity; the month's samples and coins come from batched draws.
"""

from __future__ import annotations

import numpy as np

from .sampling import sample_blocks
from .world.types import Family, Firm, World, distances


def set_budget(family: Family, beta: float) -> tuple[float, float]:
    """Split liquid cash into a consumption budget and illiquid savings.

    Returns (consume_budget, saved_amount); the family's liquid cash is
    emptied and any unspent budget flows back in transact().
    """
    budget = beta * family.monthly_cash
    saved = family.monthly_cash - budget
    family.savings += saved
    family.monthly_cash = 0.0
    return budget, saved


def transact(family: Family, firm: Firm, budget: float, consumption_tax_rate: float) -> float:
    """Buy as much as stock and budget allow; returns the consumption tax.

    The firm keeps gross value net of the tax, which is owed to the firm's
    municipality; unspent budget returns to the family's liquid cash.
    """
    demanded = budget / firm.price if budget > 0.0 else 0.0
    if firm.stock >= demanded:
        # budget-limited: spend exactly the budget, no rounding residue
        quantity = demanded
        gross = budget if budget > 0.0 else 0.0
    else:
        quantity = firm.stock
        gross = quantity * firm.price
    tax = gross * consumption_tax_rate
    firm.stock -= quantity
    firm.cash += gross - tax
    firm.revenue_this_month += gross - tax
    family.monthly_cash += budget - gross
    return tax


def choose_firms(
    world: World,
    shoppers: list[Family],
    firms: list[Firm],
    size_market: int,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> np.ndarray:
    """Each shopper's firm id, from batched draws.

    Per shopper, a uniform sample of min(size_market, len(firms)) firms and
    a coin that lands on price with probability price_criterion_probability:
    the cheapest sampled firm wins, or else the closest. Ties go to the
    lower firm id.
    """
    firm_ids = np.array([firm.id for firm in firms])
    firm_x, firm_y = np.array([firm.location for firm in firms]).T
    by_price = sorted(range(len(firms)), key=lambda i: (firms[i].price, firms[i].id))
    price_rank = np.empty(len(firms), dtype=np.int64)
    price_rank[by_price] = np.arange(len(firms))
    homes = np.array([world.residence_location(family) for family in shoppers])

    chosen: list[np.ndarray] = []
    start = 0
    pool_sizes = np.full(len(shoppers), len(firms))
    for picks, coins in sample_blocks(rng, pool_sizes, size_market):
        # sample columns in firm id order, so the first minimum is the lower id
        picks = np.take_along_axis(picks, np.argsort(firm_ids[picks], axis=1), axis=1)
        best = picks[np.arange(len(picks)), np.argmin(price_rank[picks], axis=1)]
        near = np.flatnonzero(coins >= price_criterion_probability)
        if len(near):
            home_x, home_y = homes[start + near].T
            sampled = picks[near]
            km = distances(home_x[:, None], home_y[:, None], firm_x[sampled], firm_y[sampled])
            best[near] = sampled[np.arange(len(near)), np.argmin(km, axis=1)]
        chosen.append(best)
        start += len(picks)
    return firm_ids[np.concatenate(chosen)] if chosen else np.empty(0, dtype=np.int64)


def goods_market_step(
    world: World,
    beta: float,
    size_market: int,
    consumption_tax_rate: float,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> np.ndarray:
    """Run the whole monthly goods market over a seeded family permutation.

    Returns the chosen firm id of each purchase, in shopping order. Each
    purchase books its consumption tax to the firm's municipality.
    """
    active = world.active_families()
    budgets = [set_budget(family, beta)[0] for family in active]
    firms = list(world.firms.values())
    if not firms or not active:
        # nowhere to shop; planned budgets return to liquid cash
        for family, budget in zip(active, budgets):
            family.monthly_cash += budget
        return np.empty(0, dtype=np.int64)
    order = [i for i in rng.permutation(len(active)).tolist() if budgets[i] > 0.0]
    shoppers = [active[i] for i in order]
    chosen = choose_firms(
        world, shoppers, firms, size_market, rng, price_criterion_probability
    )
    for i, family, firm_id in zip(order, shoppers, chosen.tolist()):
        firm = world.firms[firm_id]
        tax = transact(family, firm, budgets[i], consumption_tax_rate)
        world.ledger.add(firm.municipality_id, "consumption", tax)
    return chosen
