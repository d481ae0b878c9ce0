"""Agent and world-state types, plus the planar distance helper.

Every agent collection on the world is a dict keyed by id; insertion order
is creation order and is the canonical deterministic iteration order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..fiscal import TaxLedger

if TYPE_CHECKING:
    from ..demographics import GraveRecord
    from ..realestate import SaleRecord
    from .regions import RegionData

Location = tuple[float, float]

FEMALE = "female"
MALE = "male"


def distance(a: Location, b: Location) -> float:
    """Euclidean distance in km between two planar points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class Citizen:
    id: int
    family_id: int
    age: int
    gender: str
    qualification: int  # years of schooling, 0..21
    birth_month: int  # 0..11, anniversary month for aging
    employer: int | None = None
    wage: float = 0.0


@dataclass
class Family:
    id: int
    member_ids: set[int]
    residence: int
    owned_houses: set[int]
    monthly_cash: float = 0.0  # liquid, funds consumption
    savings: float = 0.0  # illiquid, real-estate only

    @property
    def is_active(self) -> bool:
        return bool(self.member_ids)


@dataclass
class House:
    id: int
    municipality_id: str
    location: Location
    size: float  # m2, fixed
    quality: int  # ordinal 1..4, fixed
    current_price: float
    owner: int  # family id

    def amenity_score(self, qli: float) -> float:
        return self.size * self.quality * qli


@dataclass
class Firm:
    id: int
    municipality_id: str
    location: Location
    stock: float = 0.0
    price: float = 1.0
    cash: float = 0.0
    wage_offer: float = 1.0
    employee_ids: set[int] = field(default_factory=set)
    last_profit: float = 0.0
    revenue_this_month: float = 0.0
    wages_paid_this_month: float = 0.0
    last_output: float = 0.0
    open_vacancies: int = 0


@dataclass
class Municipality:
    id: str
    acp_id: str
    treasury: float = 0.0
    qli: float = 1.0
    population: int = 0  # derived, refreshed by the scheduler
    fpm_coefficient: float = 1.0


@dataclass
class World:
    """Complete mutable state of one simulation run."""

    clock: int
    region: RegionData
    citizens: dict[int, Citizen]
    families: dict[int, Family]
    houses: dict[int, House]
    firms: dict[int, Firm]
    municipalities: dict[str, Municipality]
    rng: np.random.Generator
    ledger: TaxLedger = field(default_factory=TaxLedger)
    next_citizen_id: int = 0
    price_index_prev: float | None = None
    grave: list[GraveRecord] = field(default_factory=list)
    sales_log: list[SaleRecord] = field(default_factory=list)

    def municipality_ids(self) -> list[str]:
        return list(self.municipalities.keys())

    def active_families(self) -> list[Family]:
        return [family for family in self.families.values() if family.is_active]

    def residence_location(self, family: Family) -> Location:
        return self.houses[family.residence].location

    def residents_by_house(self) -> dict[int, Family]:
        """The occupied houses: each active family's residence, in family order."""
        return {family.residence: family for family in self.active_families()}

    def population_by_municipality(self) -> dict[str, int]:
        counts = {muni: 0 for muni in self.municipalities}
        for family in self.active_families():
            muni = self.houses[family.residence].municipality_id
            counts[muni] += len(family.member_ids)
        return counts

    def working_age_citizens(self, age_min: int, age_max: int) -> list[Citizen]:
        return [
            citizen
            for citizen in self.citizens.values()
            if age_min <= citizen.age <= age_max
        ]

    def unemployment_rate(self, age_min: int, age_max: int) -> float:
        pool = unemployed = 0
        for citizen in self.citizens.values():
            if age_min <= citizen.age <= age_max:
                pool += 1
                unemployed += citizen.employer is None
        return unemployed / pool if pool else 0.0

    def total_money(self) -> float:
        """Family cash and savings, firm cash, treasuries, and the ledger."""
        total = 0.0
        for family in self.families.values():
            total += family.monthly_cash + family.savings
        for firm in self.firms.values():
            total += firm.cash
        for muni in self.municipalities.values():
            total += muni.treasury
        return total + self.ledger.total()

    def family_wealth(self, family: Family) -> float:
        housing = sum(self.houses[hid].current_price for hid in family.owned_houses)
        return family.monthly_cash + family.savings + housing

    def to_dict(self) -> dict:
        """Full-state snapshot of agents, clock and random stream, for determinism checks."""
        state = {
            name: [asdict(entity) for entity in getattr(self, name).values()]
            for name in ("citizens", "families", "houses", "firms", "municipalities")
        }
        state.update(
            clock=self.clock,
            next_citizen_id=self.next_citizen_id,
            rng_state=self.rng.bit_generator.state,
        )
        return state
