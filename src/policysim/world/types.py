"""Agent and world-state types, plus the planar distance helper.

Citizens, families, houses and firms are column stores whose rows are
their ids, so id order is row order. Id order is the canonical
deterministic iteration order. Municipalities are the rows of the region's
``municipality_ids``, and their quality of life is the column ``World.qli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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


def _id_sets(keys: np.ndarray, rows: int) -> list[set[int]]:
    """For each row 0..rows-1, the set of the ids (positions in ``keys``)
    whose key is that row, added in id order; a negative key joins no set."""
    sets: list[set[int]] = [set() for _ in range(rows)]
    held = (keys >= 0).nonzero()[0]
    for key_id, row in zip(held.tolist(), keys[held].tolist()):
        sets[row].add(key_id)
    return sets


def _records(**columns: Iterable) -> list[dict]:
    """One dict per row of the equal-length ``columns``, keyed by their
    names in argument order."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


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

    def records(self) -> list[dict]:
        """One dict of Python values per living citizen, in id order: its
        record in World.to_dict() and the agents dump. The unemployed have
        employer None."""
        living = self.alive.nonzero()[0]
        employers = self.employer[living].tolist()
        return _records(
            id=living.tolist(),
            family_id=self.family[living].tolist(),
            age=self.age[living].tolist(),
            gender=[FEMALE if female else MALE for female in self.female[living].tolist()],
            qualification=self.qualification[living].tolist(),
            birth_month=self.birth_month[living].tolist(),
            employer=[None if firm == UNEMPLOYED else firm for firm in employers],
            wage=self.wage[living].tolist(),
        )


@dataclass(slots=True)
class Families:
    """Every family as one row of columns; a family's id is its row.

    Generation numbers the families 0..n-1 and none is created later. Who
    belongs to a family is the citizens' column ``family``, and what it owns
    is the houses' column ``owner``. A family whose last member dies keeps
    its assets until an heir takes them, which clears ``present``. ``len``
    counts the present families, and iteration yields their ids.
    """

    residence: np.ndarray  # int64, the house the members live in
    monthly_cash: np.ndarray  # liquid, funds consumption
    savings: np.ndarray  # illiquid, real-estate only
    present: np.ndarray  # bool

    @classmethod
    def open(cls, residence: Sequence[int], monthly_cash: Sequence[float]) -> Families:
        """Present families numbered 0..n-1, living in ``residence``, with no
        savings; who owns the houses is set in ``Houses.owner``."""
        return cls(
            residence=np.asarray(residence, dtype=np.int64),
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

    def records(self, citizens: Citizens, houses: Houses) -> list[dict]:
        """One dict of Python values per present family, in id order: its
        record in World.to_dict() and the families dump. ``member_ids`` are
        the living citizens of the family and ``owned_houses`` the houses it
        owns."""
        ids, rows = self.present.nonzero()[0], len(self.present)
        members = _id_sets(np.where(citizens.alive, citizens.family, -1), rows)
        owned = _id_sets(houses.owner, rows)
        return _records(
            id=ids.tolist(),
            member_ids=[members[family_id] for family_id in ids.tolist()],
            residence=self.residence[ids].tolist(),
            owned_houses=[owned[family_id] for family_id in ids.tolist()],
            monthly_cash=self.monthly_cash[ids].tolist(),
            savings=self.savings[ids].tolist(),
        )


@dataclass(slots=True)
class Houses:
    """Every house as one row of columns; a house's id is its row.

    Generation builds every house, numbered 0..n-1, and none is added or
    removed later. ``municipality`` indexes the region's
    ``municipality_ids``; ``price`` is the current hedonic offer.
    ``owner`` is the owning family's id, the only record of ownership.
    """

    municipality: np.ndarray  # int64
    x: np.ndarray
    y: np.ndarray
    size: np.ndarray  # m2, fixed
    quality: np.ndarray  # int64, ordinal 1..4, fixed
    price: np.ndarray
    owner: np.ndarray  # int64, a family id

    @classmethod
    def open(
        cls,
        municipality: Sequence[int],
        x: Sequence[float],
        y: Sequence[float],
        size: Sequence[float],
        quality: Sequence[int],
    ) -> Houses:
        """Houses not yet priced, and not yet owned (owner -1)."""
        return cls(
            municipality=np.asarray(municipality, dtype=np.int64),
            x=np.asarray(x, dtype=float),
            y=np.asarray(y, dtype=float),
            size=np.asarray(size, dtype=float),
            quality=np.asarray(quality, dtype=np.int64),
            price=np.zeros(len(municipality)),
            owner=np.full(len(municipality), -1, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.price)

    def records(self, municipality_ids: list[str]) -> list[dict]:
        """One dict of Python values per house, in id order: its record in
        World.to_dict(). ``municipality_ids`` names the codes."""
        return _records(
            id=range(len(self)),
            municipality_id=[municipality_ids[code] for code in self.municipality.tolist()],
            location=zip(self.x.tolist(), self.y.tolist()),
            size=self.size.tolist(),
            quality=self.quality.tolist(),
            current_price=self.price.tolist(),
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
        """One dict of Python values per firm, in id order: its record in
        World.to_dict() and the firms dump. ``municipality_ids`` names the
        codes and ``staff`` holds each firm's employee ids."""
        return _records(
            id=range(len(self)),
            municipality_id=[municipality_ids[code] for code in self.municipality.tolist()],
            location=zip(self.x.tolist(), self.y.tolist()),
            stock=self.stock.tolist(),
            price=self.price.tolist(),
            cash=self.cash.tolist(),
            wage_offer=self.wage_offer.tolist(),
            employee_ids=staff,
            last_profit=self.last_profit.tolist(),
            revenue_this_month=self.revenue.tolist(),
            last_output=self.last_output.tolist(),
        )


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

    def __post_init__(self) -> None:
        """Every house is owned by a family row: ``Houses.open``'s owner -1
        lasts only until generation draws the owners."""
        owner = self.houses.owner
        if ((owner < 0) | (owner >= len(self.families.present))).any():
            raise ValueError("every house must be owned by one of the world's families")

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
        """Each active family's cash, savings and house prices; a family's
        prices are summed from 0.0 in house id order (a weighted bincount
        of ``Houses.owner``)."""
        families, houses = self.families, self.houses
        prices = np.bincount(houses.owner, weights=houses.price, minlength=len(families.present))
        return families.monthly_cash[active] + families.savings[active] + prices[active]

    def family_records(self) -> list[dict]:
        return self.families.records(self.citizens, self.houses)

    def firm_records(self) -> list[dict]:
        return self.firms.records(
            self.region.municipality_ids, _id_sets(self.citizens.employer, len(self.firms))
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
            "next_citizen_id": self.citizens.rows,
            "rng_state": self.rng.bit_generator.state,
        }
