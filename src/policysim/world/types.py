"""Agent and world-state types, plus the planar distance helper.

Citizens, families, houses and firms are column stores whose rows are
their ids, so id order is row order. Id order is the canonical
deterministic iteration order. Municipalities are the rows of the region's
``municipality_ids``, and their quality of life is the column ``World.qli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..fiscal import TaxLedger
from .regions import MAX_SCHOOLING_YEARS

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

    Each value comes from math.hypot, one Python call per pair: numpy's
    hypot rounds the last bit differently for some points, which would
    reorder near ties. A choice that only ranks distances can compare
    squared sums instead, and call this only for its near ties.
    """
    dx, dy = np.broadcast_arrays(ax - bx, ay - by)
    values = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(values, dtype=float, count=dx.size).reshape(dx.shape)


# the fields of a citizen's record in World.to_dict() and the agents dump
CITIZEN_RECORD_KEYS = (
    "id", "family_id", "age", "gender", "qualification", "birth_month", "employer", "wage",
)
UNEMPLOYED = -1  # the employer of a citizen without a job


@dataclass(slots=True)
class Citizens:
    """Every citizen ever born as one row of columns; a citizen's id is its row.

    A birth appends a row and a death clears ``alive``; a dead row keeps
    its last values, unemployed. ``employer`` is the only record of
    employment: a firm id, or UNEMPLOYED. ``len`` counts the living, and
    iteration yields their ids.
    """

    family: np.ndarray  # int64
    age: np.ndarray  # int64
    female: np.ndarray  # bool
    qualification: np.ndarray  # int64, years of schooling 0..21
    birth_month: np.ndarray  # int64, 0..11, anniversary month for aging
    employer: np.ndarray  # int64
    wage: np.ndarray
    alive: np.ndarray  # bool

    @classmethod
    def born(
        cls,
        family: Sequence[int],
        age: Sequence[int],
        female: Sequence[bool],
        qualification: Sequence[int],
        birth_month: Sequence[int],
    ) -> Citizens:
        """Living, unemployed citizens numbered 0..n-1."""
        count = len(family)
        return cls(
            family=np.asarray(family, dtype=np.int64),
            age=np.asarray(age, dtype=np.int64),
            female=np.asarray(female, dtype=bool),
            qualification=np.asarray(qualification, dtype=np.int64),
            birth_month=np.asarray(birth_month, dtype=np.int64),
            employer=np.full(count, UNEMPLOYED, dtype=np.int64),
            wage=np.zeros(count),
            alive=np.ones(count, dtype=bool),
        )

    def append(self, newcomers: Citizens) -> None:
        """Add the newcomers' rows after the last row, numbered on from it."""
        for name in self.__slots__:
            setattr(self, name, np.concatenate((getattr(self, name), getattr(newcomers, name))))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.alive))

    def __iter__(self) -> Iterator[int]:
        """The ids of the living, in id order."""
        return iter(self.alive.nonzero()[0].tolist())

    @property
    def rows(self) -> int:
        """Every citizen ever born, so the id of the next newborn."""
        return len(self.alive)

    def working_age(self, age_min: int, age_max: int) -> np.ndarray:
        """Mask of the living citizens aged age_min..age_max."""
        return self.alive & (self.age >= age_min) & (self.age <= age_max)

    def employed(self) -> np.ndarray:
        """The ids of the employed, in id order."""
        return (self.employer != UNEMPLOYED).nonzero()[0]

    def headcount(self, firms: int) -> np.ndarray:
        employers = self.employer[self.employer != UNEMPLOYED]
        return np.bincount(employers, minlength=firms)

    def firing_order(self) -> np.ndarray:
        """The employed ids by (employer, qualification, id): each firm's
        least qualified employee first, ties going to the lower id. One
        np.sort of these keys packed into unique int64s, not a lexsort."""
        employed = self.employed()
        rows = self.rows
        # firms x 22 x rows < 2**63 for any world that fits in memory
        group = self.employer[employed] * (MAX_SCHOOLING_YEARS + 1) + self.qualification[employed]
        return np.sort(group * rows + employed) % rows

    def fire(self, ids: np.ndarray | list[int]) -> None:
        self.employer[ids] = UNEMPLOYED
        self.wage[ids] = 0.0

    def employee_sets(self, firms: int) -> list[set[int]]:
        """Each firm's set of employee ids, in firm id order."""
        staff: list[set[int]] = [set() for _ in range(firms)]
        employed = self.employed()
        for citizen_id, firm_id in zip(employed.tolist(), self.employer[employed].tolist()):
            staff[firm_id].add(citizen_id)
        return staff

    def records(self) -> list[dict]:
        """One dict of Python values per living citizen, in id order, keyed by
        CITIZEN_RECORD_KEYS; the unemployed have employer None."""
        living = self.alive.nonzero()[0]
        columns = (
            living.tolist(),
            self.family[living].tolist(),
            self.age[living].tolist(),
            [FEMALE if female else MALE for female in self.female[living].tolist()],
            self.qualification[living].tolist(),
            self.birth_month[living].tolist(),
            [None if firm == UNEMPLOYED else firm for firm in self.employer[living].tolist()],
            self.wage[living].tolist(),
        )
        return [dict(zip(CITIZEN_RECORD_KEYS, row)) for row in zip(*columns)]


# the fields of a family's record in World.to_dict() and the families dump
FAMILY_RECORD_KEYS = (
    "id", "member_ids", "residence", "owned_houses", "monthly_cash", "savings",
)


@dataclass(slots=True)
class Families:
    """Every family as one row of columns; a family's id is its row.

    Generation numbers the families 0..n-1 and none is created later. Who
    belongs to a family is the citizens' column ``family``. A family whose
    last member dies keeps its assets until an heir takes them, which
    clears ``present``. ``owned_houses`` holds each family's house ids; a
    set's iteration order is the order its prices are summed in. Only sales
    and estate transfers change a set's size, and both keep ``owned`` equal
    to it. ``len`` counts the present families, and iteration yields their
    ids.
    """

    residence: np.ndarray  # int64, the house the members live in
    owned_houses: list[set[int]]
    owned: np.ndarray  # int64, len(owned_houses[family])
    monthly_cash: np.ndarray  # liquid, funds consumption
    savings: np.ndarray  # illiquid, real-estate only
    present: np.ndarray  # bool

    @classmethod
    def open(cls, residence: Sequence[int], monthly_cash: Sequence[float]) -> Families:
        """Present families numbered 0..n-1, each owning its residence, with no savings."""
        return cls(
            residence=np.asarray(residence, dtype=np.int64),
            owned_houses=[{house_id} for house_id in residence],
            owned=np.ones(len(residence), dtype=np.int64),
            monthly_cash=np.asarray(monthly_cash, dtype=float),
            savings=np.zeros(len(residence)),
            present=np.ones(len(residence), dtype=bool),
        )

    def __len__(self) -> int:
        return int(np.count_nonzero(self.present))

    def __iter__(self) -> Iterator[int]:
        """The ids of the present families, in id order."""
        return iter(self.present.nonzero()[0].tolist())

    def members(self, citizens: Citizens) -> np.ndarray:
        """Each family's count of living members."""
        return np.bincount(citizens.family[citizens.alive], minlength=len(self.present))

    def active(self, citizens: Citizens) -> np.ndarray:
        """The ids of the present families with members, in id order."""
        return (self.present & (self.members(citizens) > 0)).nonzero()[0]

    def records(self, citizens: Citizens) -> list[dict]:
        """One dict of Python values per present family, in id order, keyed by
        FAMILY_RECORD_KEYS; ``member_ids`` are the living citizens of the family."""
        ids = self.present.nonzero()[0]
        members: list[set[int]] = [set() for _ in range(len(self.present))]
        living = citizens.alive.nonzero()[0]
        for citizen_id, family_id in zip(living.tolist(), citizens.family[living].tolist()):
            members[family_id].add(citizen_id)
        columns = (
            ids.tolist(),
            [members[family_id] for family_id in ids.tolist()],
            self.residence[ids].tolist(),
            [set(self.owned_houses[family_id]) for family_id in ids.tolist()],
            self.monthly_cash[ids].tolist(),
            self.savings[ids].tolist(),
        )
        return [dict(zip(FAMILY_RECORD_KEYS, row)) for row in zip(*columns)]


# the fields of a house's record in World.to_dict()
HOUSE_RECORD_KEYS = ("id", "municipality_id", "location", "size", "quality", "current_price")


@dataclass(slots=True)
class Houses:
    """Every house as one row of columns; a house's id is its row.

    Generation builds every house, numbered 0..n-1, and none is added or
    removed later. ``municipality`` indexes the region's
    ``municipality_ids``; ``price`` is the current hedonic offer.
    """

    municipality: np.ndarray  # int64
    x: np.ndarray
    y: np.ndarray
    size: np.ndarray  # m2, fixed
    quality: np.ndarray  # int64, ordinal 1..4, fixed
    price: np.ndarray

    @classmethod
    def open(
        cls,
        municipality: Sequence[int],
        x: Sequence[float],
        y: Sequence[float],
        size: Sequence[float],
        quality: Sequence[int],
    ) -> Houses:
        """Houses not yet priced."""
        return cls(
            municipality=np.asarray(municipality, dtype=np.int64),
            x=np.asarray(x, dtype=float),
            y=np.asarray(y, dtype=float),
            size=np.asarray(size, dtype=float),
            quality=np.asarray(quality, dtype=np.int64),
            price=np.zeros(len(municipality)),
        )

    def __len__(self) -> int:
        return len(self.price)

    def records(self, municipality_ids: list[str]) -> list[dict]:
        """One dict of Python values per house, in id order, keyed by
        HOUSE_RECORD_KEYS; ``municipality_ids`` names the codes."""
        columns = (
            [municipality_ids[code] for code in self.municipality.tolist()],
            zip(self.x.tolist(), self.y.tolist()),
            self.size.tolist(), self.quality.tolist(), self.price.tolist(),
        )
        return [
            dict(zip(HOUSE_RECORD_KEYS, (house_id, *row)))
            for house_id, row in enumerate(zip(*columns))
        ]


# the fields of a firm's record in World.to_dict() and the firms dump
FIRM_RECORD_KEYS = (
    "id", "municipality_id", "location", "stock", "price", "cash", "wage_offer",
    "employee_ids", "last_profit", "revenue_this_month", "last_output",
)


@dataclass(slots=True)
class Firms:
    """Every firm as one row of columns; a firm's id is its row.

    Generation numbers the firms 0..n-1 and no firm is created or removed
    later. ``municipality`` indexes the region's ``municipality_ids``.
    Who works where is the citizens' column ``employer``.
    """

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

    @classmethod
    def open(
        cls,
        municipality: Sequence[int],
        x: Sequence[float],
        y: Sequence[float],
        cash: Sequence[float],
        price: float = 1.0,
        wage_offer: float = 1.0,
    ) -> Firms:
        """New firms with empty stock and books."""
        count = len(municipality)
        return cls(
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
        )

    def __len__(self) -> int:
        return len(self.price)

    def records(self, municipality_ids: list[str], staff: list[set[int]]) -> list[dict]:
        """One dict of Python values per firm, in id order, keyed by
        FIRM_RECORD_KEYS; ``municipality_ids`` names the codes and ``staff``
        holds each firm's employee ids."""
        columns = (
            [municipality_ids[code] for code in self.municipality.tolist()],
            zip(self.x.tolist(), self.y.tolist()),
            self.stock.tolist(), self.price.tolist(), self.cash.tolist(),
            self.wage_offer.tolist(), staff, self.last_profit.tolist(),
            self.revenue.tolist(), self.last_output.tolist(),
        )
        return [
            dict(zip(FIRM_RECORD_KEYS, (firm_id, *row)))
            for firm_id, row in enumerate(zip(*columns))
        ]


@dataclass(slots=True)
class World:
    """Complete mutable state of one simulation run."""

    clock: int
    region: RegionData
    citizens: Citizens
    families: Families
    houses: Houses
    firms: Firms
    qli: np.ndarray  # float64, in region.municipality_ids order
    rng: np.random.Generator
    ledger: TaxLedger = field(default_factory=TaxLedger)
    price_index_prev: float | None = None
    grave: list[GraveRecord] = field(default_factory=list)
    sales_log: list[SaleRecord] = field(default_factory=list)

    @property
    def next_citizen_id(self) -> int:
        return self.citizens.rows

    def active_families(self) -> np.ndarray:
        """The ids of the families with members. Only births and deaths change
        them, so a month finds them once, after demographics."""
        return self.families.active(self.citizens)

    def population_by_municipality(self) -> np.ndarray:
        """Living citizens per municipality of their family's residence, in
        municipality order (int64)."""
        citizens = self.citizens
        homes = self.families.residence[citizens.family[citizens.alive]]
        return np.bincount(self.houses.municipality[homes], minlength=len(self.qli))

    def unemployment_rate(self, age_min: int, age_max: int) -> float:
        citizens = self.citizens
        working = citizens.working_age(age_min, age_max)
        pool = int(np.count_nonzero(working))
        unemployed = int(np.count_nonzero(working & (citizens.employer == UNEMPLOYED)))
        return unemployed / pool if pool else 0.0

    def total_money(self) -> float:
        """Family cash and savings, firm cash, and the taxes not yet distributed.

        Summed left to right: each present family's cash plus savings, then
        each firm's cash, in id order.
        """
        families = self.families
        present = families.present
        terms = np.concatenate(
            (families.monthly_cash[present] + families.savings[present], self.firms.cash)
        )
        total = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
        return total + self.ledger.total()

    def wealth(self, active: np.ndarray) -> np.ndarray:
        """Each active family's cash, savings and house prices; the prices are
        summed in the iteration order of its owned_houses set.

        An active family owns the house it lives in, so the only house of a
        family that owns one is its residence. Two prices add to the same
        bits in either order, so only a family with three or more houses
        needs its set's order.
        """
        families, price = self.families, self.houses.price
        counts = families.owned[active]
        wealth = families.monthly_cash[active] + families.savings[active]
        single = counts == 1
        wealth[single] += price[families.residence[active[single]]]
        several = (counts > 1).nonzero()[0]
        owned = [families.owned_houses[family_id] for family_id in active[several].tolist()]
        houses = np.fromiter(chain.from_iterable(owned), dtype=np.int64)
        first = np.cumsum(counts[several]) - counts[several]
        two = counts[several] == 2
        wealth[several[two]] += price[houses[first[two]]] + price[houses[first[two] + 1]]
        for row, family_houses in zip(several[~two].tolist(), compress(owned, ~two)):
            wealth[row] += sum(price[list(family_houses)].tolist())
        return wealth

    def family_records(self) -> list[dict]:
        return self.families.records(self.citizens)

    def firm_records(self) -> list[dict]:
        return self.firms.records(
            self.region.municipality_ids, self.citizens.employee_sets(len(self.firms))
        )

    def to_dict(self) -> dict:
        """Full-state snapshot of agents, clock and random stream, for determinism checks."""
        return {
            "citizens": self.citizens.records(),
            "families": self.family_records(),
            "houses": self.houses.records(self.region.municipality_ids),
            "firms": self.firm_records(),
            "municipalities": [
                {"id": muni_id, "qli": qli}
                for muni_id, qli in zip(self.region.municipality_ids, self.qli.tolist())
            ],
            "clock": self.clock,
            "next_citizen_id": self.next_citizen_id,
            "rng_state": self.rng.bit_generator.state,
        }
