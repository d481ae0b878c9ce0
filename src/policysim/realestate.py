"""Real-estate market: hedonic offers, savings-ordered bidding, relocation.

Vacant houses are always for sale. A listing is a vacant house's id; its
offer is the house's current price. Entering families bid their full
savings, richest first; each takes the best-priced listing it can afford at
a transaction price halfway between bid and offer.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .world.types import Houses, World


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
    world.houses.price = hedonic_offer_prices(world.houses, world.qli, base_coefficient)


def build_listings(world: World, active: np.ndarray) -> list[int]:
    """Every vacant house is on the market at its current hedonic price."""
    vacant = np.ones(len(world.houses), dtype=bool)
    vacant[world.families.residence[active]] = False
    return vacant.nonzero()[0].tolist()


def select_entrants(
    families: np.ndarray, pct_check_new_location: float, rng: np.random.Generator
) -> np.ndarray:
    """Each of the families ``families`` independently enters the market with
    a fixed chance; returns the entrants' ids, in list order."""
    return families[rng.random(len(families)) < pct_check_new_location]


def match_market(
    world: World,
    entrant_ids: np.ndarray | list[int],
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
    houses, families = world.houses, world.families
    open_listings = sorted(zip(houses.price[listings].tolist(), [-h for h in listings]))
    savings, residence, owner = families.savings, families.residence, houses.owner
    entrant_ids = np.asarray(entrant_ids, dtype=np.int64)
    order = sorted(zip((-savings[entrant_ids]).tolist(), entrant_ids.tolist()))
    amenity = houses.size * houses.quality * world.qli[houses.municipality]

    sales: list[SaleRecord] = []
    for _, buyer in order:
        bid = float(savings[buyer])
        index = bisect_right(open_listings, (bid, math.inf))
        while index and owner[-open_listings[index - 1][1]] == buyer:
            index -= 1
        if not index:
            continue
        offer, negative_id = open_listings.pop(index - 1)
        house_id = -negative_id
        seller = int(owner[house_id])
        price = (bid + offer) / 2.0
        tax = price * transaction_tax_rate
        savings[buyer] -= price
        savings[seller] += price - tax
        owner[house_id] = buyer
        sales.append(
            SaleRecord(
                month=world.clock,
                house_id=house_id,
                seller_id=seller,
                buyer_id=buyer,
                bid=bid,
                offer=offer,
                transaction_price=price,
                tax=tax,
            )
        )
        home = int(residence[buyer])
        if amenity[house_id] > amenity[home]:
            insort(open_listings, (float(houses.price[home]), -home))
            residence[buyer] = house_id
    codes = houses.municipality[[sale.house_id for sale in sales]]
    world.ledger.book("transaction", codes, [sale.tax for sale in sales])
    return sales


def collect_property_tax(world: World, active: np.ndarray, property_tax_rate: float) -> None:
    """Monthly levy on each occupied house, clamped at the resident's cash.

    Charged and booked in house id order.
    """
    houses, families = world.houses, world.families
    # each active family lives in its own house: a scatter orders payers by house
    payer_of = np.full(len(houses), -1)
    payer_of[families.residence[active]] = active
    occupied = (payer_of >= 0).nonzero()[0]
    payers = payer_of[occupied]
    owed = property_tax_rate * houses.price[occupied]
    cash = families.monthly_cash[payers]
    # min(owed, cash): the owed amount unless the cash is strictly smaller
    paid = np.where(cash < owed, cash, owed)
    # each family lives in one house; x - 0.0 is x, so no charge leaves cash as it is
    families.monthly_cash[payers] = cash - paid
    world.ledger.book("property", houses.municipality[occupied], paid)
