"""Goods market: family budgets, firm choice, and taxed purchases.

Families shop once a month at a single firm, first come first served over a
seeded permutation, so earlier shoppers can exhaust a firm's stock. Each
shopper samples size_market firms and flips a coin between price and
proximity; the month's samples and coins come from batched draws.
"""

from __future__ import annotations

import numpy as np

from .sampling import sample_blocks
from .world.types import Families, Firms, World, distances

# squared sums round within ~1e-16 of the exact ones, far inside NEAR_TIE,
# unless they fall below the smallest normal double (see choose_firms)
NEAR_TIE = 1e-9
SMALLEST_NORMAL = np.finfo(float).tiny


def set_budget(
    families: Families, ids: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split the liquid cash of the families ``ids`` into a consumption budget
    and illiquid savings.

    Returns (consume_budget, saved_amount) per family; their liquid cash is
    emptied and the change of their purchases flows back.
    """
    cash = families.monthly_cash[ids]
    budget = beta * cash
    saved = cash - budget
    families.savings[ids] += saved
    families.monthly_cash[ids] = 0.0
    return budget, saved


def rank_layout(owners: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Order items so that pass t takes the t-th item of every owner at once.

    ``owners[i]`` is item i's owner in 0..count-1, and each owner's items
    are in their sequential order. Returns (order, rows, ends): pass t
    takes the items ``order[ends[t-1]:ends[t]]``, one for each of the owners
    ``rows[:ends[t] - ends[t-1]]``. ``rows`` lists the owners that have
    items, those with the most first (ties by owner), so that each pass's
    owners are a prefix of it. There are as many passes as the busiest
    owner has items.
    """
    items = len(owners)
    counts = np.bincount(owners, minlength=count)
    # np.sort of unique keys (key * size + position) orders as a stable sort
    # would, and runs several times faster than a stable argsort
    busiest = (counts.max(initial=0) - counts) * count + np.arange(count)
    rows = (np.sort(busiest) % max(count, 1))[: np.count_nonzero(counts)]
    slot = np.empty(count, dtype=np.int64)
    slot[rows] = np.arange(len(rows))
    grouped = np.sort(owners * items + np.arange(items)) % max(items, 1)
    rank = np.empty(items, dtype=np.int64)
    rank[grouped] = np.arange(items) - np.repeat(np.cumsum(counts) - counts, counts)
    per_rank = np.bincount(rank)
    ends = np.cumsum(per_rank)
    order = np.empty(items, dtype=np.int64)
    order[ends[rank] - per_rank[rank] + slot[owners]] = np.arange(items)
    return order, rows, ends.tolist()


def transact(
    firms: Firms, chosen: np.ndarray, budgets: np.ndarray, consumption_tax_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply purchases in shopping order; returns each one's tax and change.

    Purchase i spends the positive ``budgets[i]`` at firm ``chosen[i]``: it
    buys budget / price when the stock covers that, or else the remaining
    stock. The firm keeps the gross value net of the tax, which is owed to
    the firm's municipality; the change (unspent budget) goes back to the
    shopper. Pass t applies every firm's t-th purchase to its stock at
    once, and ``np.add.at`` adds the takings to cash and revenue in
    shopping order, so each firm sees its purchases as a sequential loop
    would.
    """
    order, rows, ends = rank_layout(chosen, len(firms))
    price = firms.price[chosen[order]]
    demanded = budgets[order] / price
    stock = firms.stock[rows]
    quantity = np.empty(len(order))
    start = 0
    for end in ends:
        wanted, left = demanded[start:end], stock[: end - start]
        bought = np.where(left >= wanted, wanted, left)
        left -= bought
        quantity[start:end] = bought
        start = end
    firms.stock[rows] = stock
    # a purchase the stock covered bought exactly what it demanded
    paid = np.empty(len(order))
    paid[order] = np.where(quantity == demanded, budgets[order], quantity * price)
    tax = paid * consumption_tax_rate
    np.add.at(firms.cash, chosen, paid - tax)
    np.add.at(firms.revenue, chosen, paid - tax)
    return tax, budgets - paid


def choose_firms(
    world: World,
    homes: np.ndarray,
    size_market: int,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> np.ndarray:
    """Each shopper's firm id, from batched draws.

    ``homes`` holds each shopper's residence. Per shopper, a uniform sample
    of min(size_market, firms) firms and a coin that lands on price with
    probability price_criterion_probability: the cheapest sampled firm
    wins, or else the closest by ``distances``. Ties go to the lower firm id.

    The closest firm has the smallest dx*dx + dy*dy, over the differences
    that math.hypot would take. Where another sampled firm comes within a
    relative NEAR_TIE of that minimum (an exact tie, or squares too small
    to be normal doubles), rounding could order the two unlike math.hypot,
    so those shoppers compare ``distances``, the lower firm id winning ties.
    """
    firms, houses = world.firms, world.houses
    by_price = np.argsort(firms.price, kind="stable")
    price_rank = np.empty(len(firms), dtype=np.int64)
    price_rank[by_price] = np.arange(len(firms))

    chosen: list[np.ndarray] = []
    start = 0
    pool_sizes = np.full(len(homes), len(firms))
    for picks, coins in sample_blocks(rng, pool_sizes, size_market):
        # the price ranks are unique, so the least rank names one firm
        best = by_price[price_rank[picks].min(axis=1)]
        near = (coins >= price_criterion_probability).nonzero()[0]
        if len(near):
            home = homes[start + near, None]
            sampled = picks[near]
            dx = houses.x[home] - firms.x[sampled]
            dy = houses.y[home] - firms.y[sampled]
            squared = dx * dx + dy * dy
            best[near] = sampled[np.arange(len(near)), np.argmin(squared, axis=1)]
            # numpy reduces the short rows of a row-major array one at a
            # time: over a copy with one sampled firm to a row, the minimum
            # and the count take a tenth of the time, with the same results
            columns = np.ascontiguousarray(squared.T)
            bound = columns.min(axis=0) * (1.0 + NEAR_TIE) + SMALLEST_NORMAL
            tied = ((columns <= bound).sum(axis=0) > 1).nonzero()[0]
            if len(tied):
                home, sampled = home[tied], sampled[tied]
                km = distances(houses.x[home], houses.y[home], firms.x[sampled], firms.y[sampled])
                closest = km == km.min(axis=1, keepdims=True)
                best[near[tied]] = np.where(closest, sampled, len(firms)).min(axis=1)
        chosen.append(best)
        start += len(picks)
    return np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)


def goods_market_step(
    world: World,
    active: np.ndarray,
    beta: float,
    size_market: int,
    consumption_tax_rate: float,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> np.ndarray:
    """Run the whole monthly goods market over a seeded permutation of the
    active families.

    Returns the chosen firm id of each purchase, in shopping order. Each
    purchase books its consumption tax to the firm's municipality.
    """
    families, firms = world.families, world.firms
    budgets = set_budget(families, active, beta)[0]
    if not len(firms) or not len(active):
        # nowhere to shop; planned budgets return to liquid cash
        families.monthly_cash[active] += budgets
        return np.empty(0, dtype=np.int64)
    order = rng.permutation(len(active))
    order = order[budgets[order] > 0.0]
    shoppers = active[order]
    chosen = choose_firms(
        world, families.residence[shoppers], size_market, rng, price_criterion_probability
    )
    taxes, change = transact(firms, chosen, budgets[order], consumption_tax_rate)
    # each shopper appears once, so its change adds to its own cash
    families.monthly_cash[shoppers] += change
    world.ledger.book("consumption", firms.municipality[chosen], taxes)
    return chosen
