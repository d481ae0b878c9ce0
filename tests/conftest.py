from dataclasses import dataclass, field

import numpy as np
import pytest

from policysim.fiscal import TaxLedger
from policysim.params import SimParams
from policysim.world.regions import MunicipalitySpec, RegionData
from policysim.world.types import UNEMPLOYED, Citizens, Families, Firms, Houses, World

from policysim.cli import default_data_dir
import os


@pytest.fixture(scope="session")
def fixture3_path():
    return os.path.join(default_data_dir(), "fixture3")


@pytest.fixture(scope="session")
def fixture3(fixture3_path):
    from policysim.world.regions import load_region_data

    return load_region_data(fixture3_path)


@pytest.fixture
def params():
    return SimParams()


def make_region(
    name="toy",
    municipalities=None,
    ages=(30,),
    mortality=None,
    fertility=None,
    max_age=120,
):
    """Hand-built region with uniform tables, for controlled tests."""
    if municipalities is None:
        municipalities = [MunicipalitySpec("m0", 100, (0.0, 0.0, 10.0, 10.0))]
    share = 1.0 / (2 * len(ages))
    age_gender = [(age, share, share) for age in ages]
    mortality_tables = {"female": {}, "male": {}}
    for age in range(max_age + 1):
        base = 0.0 if mortality is None else mortality
        value = 1.0 if age == max_age else base
        mortality_tables["female"][age] = value
        mortality_tables["male"][age] = value
    fertility_table = {}
    if fertility is not None:
        for age in range(15, 50):
            fertility_table[age] = fertility
    qualification = {(0, max_age): [(9, 1.0)]}
    return RegionData(
        name=name,
        municipalities=list(municipalities),
        age_gender=age_gender,
        qualification=qualification,
        mortality=mortality_tables,
        fertility=fertility_table,
        fpm_brackets=[(0, 10**9, 1.0)],
    )


def make_firms(municipality_ids, firms):
    """The column store of simple_firm specs, which must hold ids 0..n-1 in order."""
    assert [firm["id"] for firm in firms] == list(range(len(firms)))
    store = Firms.open(
        [municipality_ids.index(firm["muni"]) for firm in firms],
        [firm["location"][0] for firm in firms],
        [firm["location"][1] for firm in firms],
        [firm["cash"] for firm in firms],
    )
    for column in ("stock", "price", "wage_offer", "last_profit", "revenue", "last_output"):
        getattr(store, column)[:] = [firm[column] for firm in firms]
    return store


def make_citizens(citizens):
    """The column store of simple_citizen specs; each spec's id is its row,
    and the rows below the largest id that no spec names are dead."""
    rows = max((citizen["id"] for citizen in citizens), default=-1) + 1
    store = Citizens.born(*([0] * rows for _ in range(5)))
    store.alive[:] = False
    for citizen in citizens:
        row = citizen["id"]
        store.alive[row] = True
        store.family[row] = citizen["family_id"]
        store.age[row] = citizen["age"]
        store.female[row] = citizen["gender"] == "female"
        store.qualification[row] = citizen["qualification"]
        store.birth_month[row] = citizen["birth_month"]
        store.employer[row] = UNEMPLOYED if citizen["employer"] is None else citizen["employer"]
        store.wage[row] = citizen["wage"]
    return store


def make_houses(municipality_ids, houses):
    """The column store of simple_house specs, which must hold ids 0..n-1 in order."""
    assert [house["id"] for house in houses] == list(range(len(houses)))
    store = Houses.open(
        [municipality_ids.index(house["muni"]) for house in houses],
        [house["location"][0] for house in houses],
        [house["location"][1] for house in houses],
        [house["size"] for house in houses],
        [house["quality"] for house in houses],
    )
    store.price[:] = [house["price"] for house in houses]
    return store


def make_families(families):
    """The column store of simple_family specs; each spec's id is its row,
    and the rows below the largest id that no spec names are not present."""
    rows = max((family.id for family in families), default=-1) + 1
    store = Families.open([0] * rows, [0.0] * rows)
    store.present[:] = False
    for family in families:
        row = family.id
        store.present[row] = True
        store.residence[row] = family.residence
        store.monthly_cash[row] = family.monthly_cash
        store.savings[row] = family.savings
    return store


def make_world(citizens=(), families=(), houses=(), firms=(), region=None, seed=0):
    """Assemble a world from simple_citizen, simple_family, simple_house and
    simple_firm specs, for unit tests. A family's members are the citizens
    that name it, and must be the spec's member_ids. A house's owner is the
    family whose spec's owned_houses holds it, or the first family spec
    when none does."""
    named = {}
    for citizen in citizens:
        named.setdefault(citizen["family_id"], set()).add(citizen["id"])
    for family in families:
        assert named.get(family.id, set()) == family.member_ids, family.id
    if region is None:
        region = make_region()
    municipality_ids = region.municipality_ids
    house_store = make_houses(municipality_ids, list(houses))
    if families:
        house_store.owner[:] = families[0].id
    for family in families:
        house_store.owner[sorted(family.owned_houses)] = family.id
    return World(
        clock=0,
        region=region,
        citizens=make_citizens(list(citizens)),
        families=make_families(list(families)),
        houses=house_store,
        firms=make_firms(municipality_ids, list(firms)),
        qli=np.ones(len(municipality_ids)),
        rng=np.random.default_rng(seed),
        ledger=TaxLedger(),
    )


def employees(world, firm_id):
    """The ids of the firm's employees."""
    return set(np.flatnonzero(world.citizens.employer == firm_id).tolist())



def citizen(world, cid):
    """A living citizen's record, as World.to_dict() lists it."""
    return next(record for record in world.citizens.records() if record["id"] == cid)


def assert_ownership_partition(world):
    """Every house's owner in ``Houses.owner`` is a present family, and
    every active family owns its home."""
    families, owner = world.families, world.houses.owner
    assert ((owner >= 0) & (owner < len(families.present))).all()
    assert families.present[owner].all()
    active = world.active_families()
    assert (owner[families.residence[active]] == active).all()


@dataclass
class FamilySpec:
    """One family's row, for make_world."""

    id: int
    member_ids: set[int]
    residence: int
    owned_houses: set[int] = field(default_factory=set)
    monthly_cash: float = 0.0
    savings: float = 0.0


def simple_family(family_id=0, member_ids=(), residence=0, cash=0.0, savings=0.0):
    return FamilySpec(
        id=family_id,
        member_ids=set(member_ids),
        residence=residence,
        owned_houses={residence},
        monthly_cash=cash,
        savings=savings,
    )


def simple_citizen(cid=0, family_id=0, age=30, gender="female", qualification=9,
                   birth_month=0, employer=None, wage=0.0):
    """One citizen's row, for make_world."""
    return {
        "id": cid,
        "family_id": family_id,
        "age": age,
        "gender": gender,
        "qualification": qualification,
        "birth_month": birth_month,
        "employer": employer,
        "wage": wage,
    }


def simple_house(house_id=0, muni="m0", location=(0.0, 0.0), size=50.0, quality=2,
                 price=10.0):
    """One house's row, for make_world."""
    return {
        "id": house_id,
        "muni": muni,
        "location": location,
        "size": size,
        "quality": quality,
        "price": price,
    }


def simple_firm(firm_id=0, muni="m0", location=(0.0, 0.0), price=1.0, cash=0.0,
                wage_offer=1.0, stock=0.0, last_profit=0.0, revenue=0.0,
                last_output=0.0):
    """One firm's row, for make_world."""
    return {
        "id": firm_id,
        "muni": muni,
        "location": location,
        "stock": stock,
        "price": price,
        "cash": cash,
        "wage_offer": wage_offer,
        "last_profit": last_profit,
        "revenue": revenue,
        "last_output": last_output,
    }
