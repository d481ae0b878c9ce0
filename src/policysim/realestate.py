"""Real-estate market: hedonic offers, savings-ordered bidding, relocation.

Vacant houses are always for sale. A listing is a vacant house's id; its
offer is the house's current price. Ownership lives only in
Family.owned_houses. Entering families bid their full savings, richest
first; each takes the best-priced listing it can afford at a transaction
price halfway between bid and offer.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .world.types import Family, Houses, World


@dataclass(frozen=True)
class SaleRecord:
    """One house sale; its fields are the columns of sales.csv."""

    month: int
    house_id: int
    seller_id: int
    buyer_id: int
    bid: float
    offer: float
    transaction_price: float
    tax: float


def hedonic_offer_prices(houses: Houses, qli: np.ndarray, base_coefficient: float) -> np.ndarray:
    """Each house's offer price from its size, quality, and its town's quality
    of life (``qli`` is per municipality).

    base * size * quality * qli, left to right. Multiplicative, so it is
    strictly increasing in every factor.
    """
    return base_coefficient * houses.size * houses.quality * qli[houses.municipality]


def reprice_houses(world: World, base_coefficient: float) -> None:
    world.houses.price = hedonic_offer_prices(world.houses, world.qli(), base_coefficient)


def build_listings(world: World, active: list[Family]) -> list[int]:
    """Every vacant house is on the market at its current hedonic price."""
    vacant = np.ones(len(world.houses), dtype=bool)
    vacant[world.residences(active)] = False
    return np.flatnonzero(vacant).tolist()


def select_entrants(
    families: list[Family], pct_check_new_location: float, rng: np.random.Generator
) -> list[int]:
    """Each family independently enters the market with a fixed chance."""
    if not families:
        return []
    draws = rng.random(len(families))
    return [
        family.id
        for family, draw in zip(families, draws)
        if draw < pct_check_new_location
    ]


def match_market(
    world: World,
    entrant_ids: list[int],
    listings: list[int],
    transaction_tax_rate: float,
) -> list[SaleRecord]:
    """Sequential matching, deepest savings first.

    A buyer bids its full savings on the highest-offer affordable listing
    (never its own). The price averages bid and offer; tax comes out of the
    seller's proceeds and books to the house's municipality. A buyer moves
    in when the bought house beats its residence on size x quality x qli,
    which puts the vacated home straight on the market.
    """
    # ascending by (offer, -house id): the best affordable listing is the
    # last one at or below the bid, ties going to the lower house id
    houses = world.houses
    open_listings = sorted(zip(houses.price[listings].tolist(), [-h for h in listings]))
    owners = {
        house_id: family
        for family in world.families.values()
        for house_id in family.owned_houses
    }
    order = sorted(
        (world.families[fid] for fid in entrant_ids),
        key=lambda family: (-family.savings, family.id),
    )
    qli = world.qli()

    def amenity_score(house_id: int) -> float:
        town_qli = qli[houses.municipality[house_id]]
        return float(houses.size[house_id] * houses.quality[house_id] * town_qli)

    sales: list[SaleRecord] = []
    for buyer in order:
        bid = buyer.savings
        index = bisect_right(open_listings, (bid, math.inf))
        while index and -open_listings[index - 1][1] in buyer.owned_houses:
            index -= 1
        if not index:
            continue
        offer, negative_id = open_listings.pop(index - 1)
        house_id = -negative_id
        seller = owners[house_id]
        price = (bid + offer) / 2.0
        tax = price * transaction_tax_rate
        buyer.savings -= price
        seller.savings += price - tax
        seller.owned_houses.discard(house_id)
        buyer.owned_houses.add(house_id)
        owners[house_id] = buyer
        sales.append(
            SaleRecord(
                month=world.clock,
                house_id=house_id,
                seller_id=seller.id,
                buyer_id=buyer.id,
                bid=bid,
                offer=offer,
                transaction_price=price,
                tax=tax,
            )
        )
        if amenity_score(house_id) > amenity_score(buyer.residence):
            insort(open_listings, (float(houses.price[buyer.residence]), -buyer.residence))
            buyer.residence = house_id
    codes = houses.municipality[[sale.house_id for sale in sales]]
    world.ledger.book("transaction", houses.municipality_ids, codes, [sale.tax for sale in sales])
    return sales


def collect_property_tax(
    world: World, active: list[Family], property_tax_rate: float
) -> None:
    """Monthly levy on each occupied house, clamped at the resident's cash.

    Charged and booked in house id order.
    """
    houses = world.houses
    residences = world.residences(active)
    by_house = np.argsort(residences)
    occupied = residences[by_house]
    owed = property_tax_rate * houses.price[occupied]
    cash = np.fromiter(
        (family.monthly_cash for family in active), dtype=float, count=len(active)
    )[by_house]
    # min(owed, cash): the owed amount unless the cash is strictly smaller
    paid = np.where(cash < owed, cash, owed)
    # cash is never -0.0, so a zero charge leaves it as it is
    families, charges = by_house.tolist(), paid.tolist()
    for index in np.flatnonzero(paid).tolist():
        active[families[index]].monthly_cash -= charges[index]
    world.ledger.book("property", houses.municipality_ids, houses.municipality[occupied], paid)
