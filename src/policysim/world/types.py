"""Agent and world-state types, plus the planar distance helper.

Citizens, families and houses are dicts keyed by id; insertion order is
creation order, which is id order, and is the canonical deterministic
iteration order. Firms are one column store whose rows are the firm ids.
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


def distances(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """``distance`` between broadcast coordinate arrays, bit for bit.

    Each value comes from math.hypot: numpy's hypot rounds the last bit
    differently for some points, which would reorder near ties.
    """
    dx, dy = np.broadcast_arrays(ax - bx, ay - by)
    values = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(values, dtype=float, count=dx.size).reshape(dx.shape)


@dataclass(slots=True)
class Citizen:
    id: int
    family_id: int
    age: int
    gender: str
    qualification: int  # years of schooling, 0..21
    birth_month: int  # 0..11, anniversary month for aging
    employer: int | None = None
    wage: float = 0.0


@dataclass(slots=True)
class Family:
    id: int
    member_ids: set[int]
    residence: int
    owned_houses: set[int]
    monthly_cash: float = 0.0  # liquid, funds consumption
    savings: float = 0.0  # illiquid, real-estate only


@dataclass(slots=True)
class House:
    id: int
    municipality_id: str
    location: Location
    size: float  # m2, fixed
    quality: int  # ordinal 1..4, fixed
    current_price: float

    def amenity_score(self, qli: float) -> float:
        return self.size * self.quality * qli


# the fields of a firm's record in World.to_dict() and the firms dump
FIRM_RECORD_KEYS = (
    "id", "municipality_id", "location", "stock", "price", "cash", "wage_offer",
    "employee_ids", "last_profit", "revenue_this_month", "last_output",
)


@dataclass(slots=True)
class Firms:
    """Every firm as one row of columns; a firm's id is its row.

    Generation numbers the firms 0..n-1 and no firm is created or removed
    later. ``municipality`` indexes ``municipality_ids``; ``employees``
    holds each firm's set of employed citizen ids.
    """

    municipality_ids: list[str]
    municipality: np.ndarray  # int64
    x: np.ndarray
    y: np.ndarray
    stock: np.ndarray
    price: np.ndarray
    cash: np.ndarray
    wage_offer: np.ndarray
    revenue: np.ndarray  # this month's, net of the consumption tax
    last_profit: np.ndarray
    last_output: np.ndarray
    employees: list[set[int]]

    @classmethod
    def open(
        cls,
        municipality_ids: list[str],
        municipality: list[int],
        x: list[float],
        y: list[float],
        cash: list[float],
        price: float = 1.0,
        wage_offer: float = 1.0,
    ) -> Firms:
        """New firms with empty stock, books and staff."""
        count = len(municipality)
        return cls(
            municipality_ids=list(municipality_ids),
            municipality=np.asarray(municipality, dtype=np.int64),
            x=np.asarray(x, dtype=float),
            y=np.asarray(y, dtype=float),
            stock=np.zeros(count),
            price=np.full(count, price),
            cash=np.asarray(cash, dtype=float),
            wage_offer=np.full(count, wage_offer),
            revenue=np.zeros(count),
            last_profit=np.zeros(count),
            last_output=np.zeros(count),
            employees=[set() for _ in range(count)],
        )

    def __len__(self) -> int:
        return len(self.employees)

    def headcount(self) -> np.ndarray:
        return np.fromiter(map(len, self.employees), dtype=np.int64, count=len(self))

    def records(self) -> list[dict]:
        """One dict of Python values per firm, in id order, keyed by FIRM_RECORD_KEYS."""
        columns = (
            [self.municipality_ids[code] for code in self.municipality.tolist()],
            zip(self.x.tolist(), self.y.tolist()),
            self.stock.tolist(), self.price.tolist(), self.cash.tolist(),
            self.wage_offer.tolist(), map(set, self.employees), self.last_profit.tolist(),
            self.revenue.tolist(), self.last_output.tolist(),
        )
        return [
            dict(zip(FIRM_RECORD_KEYS, (firm_id, *row)))
            for firm_id, row in enumerate(zip(*columns))
        ]


@dataclass(slots=True)
class Municipality:
    id: str
    qli: float = 1.0


@dataclass(slots=True)
class World:
    """Complete mutable state of one simulation run."""

    clock: int
    region: RegionData
    citizens: dict[int, Citizen]
    families: dict[int, Family]
    houses: dict[int, House]
    firms: Firms
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
        """The families with members. Only births and deaths change the list,
        so a month builds it once, after demographics."""
        return [family for family in self.families.values() if family.member_ids]

    def residence_location(self, family: Family) -> Location:
        return self.houses[family.residence].location

    def residents_by_house(self, active: list[Family]) -> dict[int, Family]:
        """The occupied houses: each active family's residence, in family order."""
        return {family.residence: family for family in active}

    def population_by_municipality(self, active: list[Family]) -> dict[str, int]:
        counts = {muni: 0 for muni in self.municipalities}
        for family in active:
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
        """Family cash and savings, firm cash, and the taxes not yet distributed."""
        total = 0.0
        for family in self.families.values():
            total += family.monthly_cash + family.savings
        for cash in self.firms.cash.tolist():
            total += cash
        return total + self.ledger.total()

    def family_wealth(self, family: Family) -> float:
        housing = sum(self.houses[hid].current_price for hid in family.owned_houses)
        return family.monthly_cash + family.savings + housing

    def to_dict(self) -> dict:
        """Full-state snapshot of agents, clock and random stream, for determinism checks."""
        state = {
            name: [asdict(entity) for entity in getattr(self, name).values()]
            for name in ("citizens", "families", "houses")
        }
        state.update(
            firms=self.firms.records(),
            municipalities=[asdict(muni) for muni in self.municipalities.values()],
            clock=self.clock,
            next_citizen_id=self.next_citizen_id,
            rng_state=self.rng.bit_generator.state,
        )
        return state
