"""Real-estate market: hedonic offers, savings-ordered bidding, relocation.

Vacant houses are always for sale. Entering families bid their full
savings, richest first; each takes the best-priced listing it can afford at
a transaction price halfway between bid and offer.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .fiscal import TaxLedger
from .world.types import Family, House, World


@dataclass(frozen=True)
class Listing:
    house_id: int
    offer_price: float


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


def hedonic_offer_price(
    house: House, municipality_qli: float, base_coefficient: float
) -> float:
    """Offer price from size, quality, and the town's quality of life.

    Multiplicative, so it is strictly increasing in every factor. Updates
    the house's current price.
    """
    offer = base_coefficient * house.size * house.quality * municipality_qli
    house.current_price = offer
    return offer


def reprice_houses(world: World, base_coefficient: float) -> None:
    for house in world.houses.values():
        qli = world.municipalities[house.municipality_id].qli
        hedonic_offer_price(house, qli, base_coefficient)


def build_listings(world: World) -> list[Listing]:
    """Every vacant house is on the market at its current hedonic price."""
    residents = world.residents_by_house()
    return [
        Listing(house.id, house.current_price)
        for house in world.houses.values()
        if house.id not in residents
    ]


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
    listings: list[Listing],
    transaction_tax_rate: float,
    ledger: TaxLedger,
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
    open_listings = sorted(
        (listing.offer_price, -listing.house_id) for listing in listings
    )
    order = sorted(
        (world.families[fid] for fid in entrant_ids),
        key=lambda family: (-family.savings, family.id),
    )
    sales: list[SaleRecord] = []
    for buyer in order:
        bid = buyer.savings
        index = bisect_right(open_listings, (bid, math.inf))
        while index and world.houses[-open_listings[index - 1][1]].owner == buyer.id:
            index -= 1
        if not index:
            continue
        offer, negative_id = open_listings.pop(index - 1)
        best_house = world.houses[-negative_id]
        seller = world.families[best_house.owner]
        price = (bid + offer) / 2.0
        tax = price * transaction_tax_rate
        buyer.savings -= price
        seller.savings += price - tax
        ledger.add(best_house.municipality_id, "transaction", tax)
        seller.owned_houses.discard(best_house.id)
        buyer.owned_houses.add(best_house.id)
        best_house.owner = buyer.id
        sales.append(
            SaleRecord(
                month=world.clock,
                house_id=best_house.id,
                seller_id=seller.id,
                buyer_id=buyer.id,
                bid=bid,
                offer=offer,
                transaction_price=price,
                tax=tax,
            )
        )
        residence = world.houses[buyer.residence]
        new_score = best_house.amenity_score(
            world.municipalities[best_house.municipality_id].qli
        )
        old_score = residence.amenity_score(
            world.municipalities[residence.municipality_id].qli
        )
        if new_score > old_score:
            insort(open_listings, (residence.current_price, -residence.id))
            buyer.residence = best_house.id
    return sales


def collect_property_tax(
    world: World, property_tax_rate: float, ledger: TaxLedger
) -> float:
    """Monthly levy on each occupied house, clamped at the resident's cash."""
    residents = world.residents_by_house()
    total = 0.0
    for house in world.houses.values():
        family = residents.get(house.id)
        if family is None:
            continue
        owed = property_tax_rate * house.current_price
        paid = min(owed, family.monthly_cash)
        family.monthly_cash -= paid
        ledger.add(house.municipality_id, "property", paid)
        total += paid
    return total
