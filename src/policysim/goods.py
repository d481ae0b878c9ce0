"""Goods market: family budgets, firm choice, and taxed purchases.

Families shop once a month at a single firm, first come first served over a
seeded permutation, so earlier shoppers can exhaust a firm's stock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiscal import TaxLedger
from .world.types import Family, Firm, Location, World, distance


@dataclass(frozen=True)
class PurchaseRecord:
    family_id: int
    firm_id: int
    quantity: float
    gross_value: float
    tax: float


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


def choose_firm(
    residence: Location,
    firms: list[Firm],
    size_market: int,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> Firm:
    """Pick from a uniform sample of firms, by price or by proximity.

    A coin that lands on price with probability price_criterion_probability
    decides whether the cheapest or the closest sampled firm wins; ties go
    to the lower firm id.
    """
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


def transact(
    family: Family,
    firm: Firm,
    budget: float,
    consumption_tax_rate: float,
    ledger: TaxLedger,
) -> PurchaseRecord:
    """Buy as much as stock and budget allow; tax goes to the firm's town.

    The firm keeps gross value net of the consumption tax; unspent budget
    returns to the family's liquid cash.
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
    ledger.add(firm.municipality_id, "consumption", tax)
    family.monthly_cash += budget - gross
    return PurchaseRecord(
        family_id=family.id,
        firm_id=firm.id,
        quantity=quantity,
        gross_value=gross,
        tax=tax,
    )


def goods_market_step(
    world: World,
    beta: float,
    size_market: int,
    consumption_tax_rate: float,
    rng: np.random.Generator,
    price_criterion_probability: float,
) -> list[PurchaseRecord]:
    """Run the whole monthly goods market over a seeded family permutation."""
    active = world.active_families()
    budgets: dict[int, float] = {}
    for family in active:
        consume_budget, _ = set_budget(family, beta)
        budgets[family.id] = consume_budget
    firms = list(world.firms.values())
    records: list[PurchaseRecord] = []
    if not firms or not active:
        # nowhere to shop; planned budgets return to liquid cash
        for family in active:
            family.monthly_cash += budgets[family.id]
        return records
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
        records.append(
            transact(family, firm, budget, consumption_tax_rate, ledger=world.ledger)
        )
    return records
