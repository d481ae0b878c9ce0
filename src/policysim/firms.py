"""Firm behaviour: production, price, wage and staffing decisions, month close.

Every function here runs over all firms at once, on the columns of
``world.firms``. Floats keep the order of the per-firm loops they replace:
a per-firm sum adds its terms left to right, in employee-id order, with
``np.add.at`` (which adds repeated indices in index order), never with
``np.sum``, which may add in pairs.
"""

from __future__ import annotations

import numpy as np

from .world.regions import MAX_SCHOOLING_YEARS
from .world.types import Firms, World

# stock thresholds for the price rule, as fractions of the last output
LOW_STOCK_FRACTION = 0.1
HIGH_STOCK_FRACTION = 1.0

HOLD = 0
OPEN_VACANCY = 1
FIRE_ONE = 2


def produce(world: World, alpha: float) -> np.ndarray:
    """Add each employee's qualification**alpha to their firm's stock.

    The powers come from a table of Python ``float(q) ** alpha`` (numpy's
    ``**`` rounds the last bit differently for some values), and each
    firm sums its employees in id order. 0**0 counts as 1. Returns the
    outputs.
    """
    power = np.array([float(q) ** alpha for q in range(MAX_SCHOOLING_YEARS + 1)])
    citizens = world.citizens
    employed = citizens.employed()
    firms = world.firms
    output = np.zeros(len(firms))
    np.add.at(output, citizens.employer[employed], power[citizens.qualification[employed]])
    firms.stock += output
    firms.last_output = output
    return output


def update_prices(
    firms: Firms,
    markup: float,
    sticky_prices: float,
    u: np.ndarray,
    price_floor: float,
) -> None:
    """Re-evaluate the price of each firm whose uniform u falls below sticky_prices.

    Low end-of-month stock (under 10% of the last output) signals excess
    demand and raises the price by the markup; stock above the last output
    lowers it symmetrically. A re-evaluated price is at least price_floor.
    """
    reprice = u < sticky_prices
    up = reprice & (firms.stock < LOW_STOCK_FRACTION * firms.last_output)
    down = reprice & ~up & (firms.stock > HIGH_STOCK_FRACTION * firms.last_output)
    price = np.where(up, firms.price * (1.0 + markup), firms.price)
    price = np.where(down, firms.price * (1.0 - markup), price)
    firms.price = np.where(reprice & ~(price > price_floor), price_floor, price)


def update_wage_offers(
    firms: Firms,
    headcount: np.ndarray,
    unemployment_rate: float,
    ignore_unemployment: bool,
    price_floor: float,
) -> None:
    """Set each wage offer from revenue per employee, damped by unemployment."""
    target = firms.revenue / np.maximum(1, headcount)
    if not ignore_unemployment:
        target *= 1.0 - unemployment_rate
    firms.wage_offer = np.where(target > price_floor, target, price_floor)


def hire_fire_decisions(
    firms: Firms, headcount: np.ndarray, clock: int, labor_market_frequency: int
) -> np.ndarray:
    """HOLD, OPEN_VACANCY or FIRE_ONE per firm, from the sign of its profit.

    Each firm decides on its own cycle (phase = id mod frequency);
    synchronized decisions would make every firm hire or fire in the same
    month, which pulses the whole labor market at once. Non-negative books
    open a vacancy, so an idle firm with a cash hoard can hire back into
    the market instead of idling forever; a loss fires one employee.
    """
    deciding = (clock - np.arange(len(firms))) % labor_market_frequency == 0
    profitable = firms.last_profit >= 0.0
    decisions = np.full(len(firms), HOLD)
    decisions[deciding & profitable] = OPEN_VACANCY
    decisions[deciding & ~profitable & (headcount > 0)] = FIRE_ONE
    return decisions


def fire_lowest_qualified(world: World, firm_ids: np.ndarray) -> np.ndarray:
    """Fire each listed firm's least qualified employee, ties going to the
    lower id; every listed firm must have one. Returns the fired ids."""
    citizens = world.citizens
    order = citizens.firing_order()
    fired = order[np.searchsorted(citizens.employer[order], firm_ids)]
    citizens.fire(fired)
    return fired


def close_books(world: World, wage_bills: np.ndarray, firm_tax_rate: float) -> None:
    """Close every firm's month.

    The firm tax falls on last month's profit (losses are not taxed), comes
    out of cash and is booked to the firm's municipality, in id order. The
    new profit is revenue minus the wage bill minus that tax; revenue
    starts over.
    """
    firms = world.firms
    tax = np.where(firms.last_profit > 0.0, firms.last_profit, 0.0) * firm_tax_rate
    firms.cash -= tax
    world.ledger.book("firms", world.region.municipality_ids, firms.municipality, tax)
    firms.last_profit = firms.revenue - wage_bills - tax
    firms.revenue = np.zeros(len(firms))
