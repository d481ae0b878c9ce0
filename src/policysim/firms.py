"""Firm behaviour: production, price, wage and staffing decisions, month close."""

from __future__ import annotations

from .world.types import Firm, World

# stock thresholds for the price rule, as fractions of the last output
LOW_STOCK_FRACTION = 0.1
HIGH_STOCK_FRACTION = 1.0

OPEN_VACANCY = "open_vacancy"
FIRE_ONE = "fire_one"
HOLD = "hold"


def produce(world: World, firm: Firm, alpha: float) -> float:
    """Add each employee's qualification**alpha to the firm's stock.

    0**0 counts as 1, so alpha 0 degrades to plain headcount output.
    Employees are summed in id order, which also makes the result
    independent of employee-set ordering.
    """
    output = 0.0
    for citizen_id in sorted(firm.employee_ids):
        qualification = world.citizens[citizen_id].qualification
        output += float(qualification) ** alpha
    firm.stock += output
    firm.last_output = output
    return output


def update_price(
    firm: Firm,
    markup: float,
    sticky_prices: float,
    u: float,
    price_floor: float,
) -> float:
    """Re-evaluate the price when the uniform u falls below sticky_prices.

    Low end-of-month stock (under 10% of the last output) signals excess
    demand and raises the price by the markup; stock above the last output
    lowers it symmetrically.
    """
    if u < sticky_prices:
        low = LOW_STOCK_FRACTION * firm.last_output
        high = HIGH_STOCK_FRACTION * firm.last_output
        if firm.stock < low:
            firm.price *= 1.0 + markup
        elif firm.stock > high:
            firm.price *= 1.0 - markup
        firm.price = max(price_floor, firm.price)
    return firm.price


def update_wage(
    firm: Firm,
    unemployment_rate: float,
    ignore_unemployment: bool,
    price_floor: float,
) -> float:
    """Set the wage offer from revenue per employee, damped by unemployment."""
    target = firm.revenue_this_month / max(1, len(firm.employee_ids))
    if not ignore_unemployment:
        target *= 1.0 - unemployment_rate
    firm.wage_offer = max(price_floor, target)
    return firm.wage_offer


def hire_fire_decision(firm: Firm, clock: int, labor_market_frequency: int) -> str:
    """Profit sign decides hiring or firing on the firm's decision months.

    Each firm runs on its own cycle (phase = id mod frequency); synchronized
    decisions would make every firm hire or fire in the same month, which
    pulses the whole labor market at once.
    """
    if (clock - firm.id) % labor_market_frequency != 0:
        return HOLD
    if firm.last_profit >= 0.0:
        # non-negative books open a vacancy: an idle firm with a cash
        # hoard can hire back into the market instead of idling forever
        return OPEN_VACANCY
    if firm.employee_ids:
        return FIRE_ONE
    return HOLD


def lowest_qualified_employee(world: World, firm: Firm) -> int:
    """Employee id with the lowest qualification, ties broken by id."""
    return min(
        firm.employee_ids,
        key=lambda cid: (world.citizens[cid].qualification, cid),
    )


def fire_employee(world: World, firm: Firm, citizen_id: int) -> None:
    firm.employee_ids.discard(citizen_id)
    citizen = world.citizens[citizen_id]
    citizen.employer = None
    citizen.wage = 0.0


def close_books(world: World, wage_bills: dict[int, float], firm_tax_rate: float) -> None:
    """Close every firm's month, in id order.

    The firm tax falls on last month's profit (losses are not taxed), comes
    out of cash and is booked to the firm's municipality. The new profit is
    revenue minus the wage bill minus that tax; revenue starts over.
    """
    for firm in world.firms.values():
        tax = max(0.0, firm.last_profit) * firm_tax_rate
        firm.cash -= tax
        world.ledger.add(firm.municipality_id, "firms", tax)
        firm.last_profit = firm.revenue_this_month - wage_bills.get(firm.id, 0.0) - tax
        firm.revenue_this_month = 0.0
