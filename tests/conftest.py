import numpy as np
import pytest

from policysim.fiscal import TaxLedger
from policysim.params import SimParams
from policysim.world.regions import MunicipalitySpec, RegionData
from policysim.world.types import Citizen, Family, Firm, House, Municipality, World

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


def make_world(citizens=(), families=(), houses=(), firms=(), region=None, seed=0):
    """Assemble a world from prebuilt agents for unit tests."""
    if region is None:
        region = make_region()
    municipalities = {
        spec.id: Municipality(id=spec.id, acp_id=region.name)
        for spec in region.municipalities
    }
    world = World(
        clock=0,
        region=region,
        citizens={c.id: c for c in citizens},
        families={f.id: f for f in families},
        houses={h.id: h for h in houses},
        firms={fm.id: fm for fm in firms},
        municipalities=municipalities,
        rng=np.random.default_rng(seed),
        ledger=TaxLedger(),
        next_citizen_id=max((c.id for c in citizens), default=-1) + 1,
    )
    return world


def simple_family(family_id=0, member_ids=(), residence=0, cash=0.0, savings=0.0):
    return Family(
        id=family_id,
        member_ids=set(member_ids),
        residence=residence,
        owned_houses={residence},
        monthly_cash=cash,
        savings=savings,
    )


def simple_citizen(cid=0, family_id=0, age=30, gender="female", qualification=9,
                   birth_month=0, employer=None, wage=0.0):
    return Citizen(
        id=cid,
        family_id=family_id,
        age=age,
        gender=gender,
        qualification=qualification,
        birth_month=birth_month,
        employer=employer,
        wage=wage,
    )


def simple_house(house_id=0, muni="m0", location=(0.0, 0.0), size=50.0, quality=2,
                 price=10.0, owner=0):
    return House(
        id=house_id,
        municipality_id=muni,
        location=location,
        size=size,
        quality=quality,
        current_price=price,
        owner=owner,
    )


def simple_firm(firm_id=0, muni="m0", location=(0.0, 0.0), price=1.0, cash=0.0,
                wage_offer=1.0, employees=(), stock=0.0):
    return Firm(
        id=firm_id,
        municipality_id=muni,
        location=location,
        stock=stock,
        price=price,
        cash=cash,
        wage_offer=wage_offer,
        employee_ids=set(employees),
    )
