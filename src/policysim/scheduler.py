"""Monthly schedule orchestration and full-run driver.

One month executes, in this exact order: production, demographics, goods
market, firm decisions, labor market with payroll and the firm tax,
real-estate market with the property tax, fiscal distribution with
quality-of-life investment, and finally indicator recording. Agents are
iterated in id order inside every substep; all randomness comes from the
world's single seeded stream.

Substeps communicate through the world, except for two hand-offs:
demographics, the last substep that changes who lives in a family, returns
the month's active families, which ``step`` passes to the substeps after
it; and firm decisions return the vacancies they open, which ``step``
passes to the labor market.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import demographics, firms, goods, labor, realestate
from .fiscal import DistributionRegime, distribute, invest_qli
from .params import TAX_KINDS, SimParams
from .stats import gini
from .world.generate import generate_world
from .world.regions import RegionData
from .world.types import World


class RunError(ValueError):
    """Invalid run request, or a module error with month context."""


# of the money stock; the largest monthly drift measured is 7.1e-15 of it
MONEY_DRIFT_BOUND = 1e-9


@dataclass
class MonthRecord:
    """Macro indicators recorded at the end of each simulated month."""

    month: int
    population: int
    unemployment: float
    price_index: float
    inflation: float  # percent change of the price index month over month
    house_price_index: float
    gini_wealth: float
    taxes: dict[str, float]
    qli: dict[str, float]

    @property
    def tax_total(self) -> float:
        return sum(self.taxes.values())


TAX_COLUMNS = tuple(f"tax_{kind}" for kind in TAX_KINDS)


def monthly_table(
    records: list[MonthRecord], municipality_ids: list[str]
) -> tuple[list[str], np.ndarray]:
    """The monthly.csv columns and a months x columns float matrix.

    The columns are the MonthRecord fields in order, except that ``taxes``
    spreads to TAX_COLUMNS (TAX_KINDS order) plus ``tax_total``, and ``qli``
    to one ``qli_<municipality>`` column per municipality.
    """
    columns: list[str] = []
    values: list[list] = []  # one list per column
    for spec in fields(MonthRecord):
        cells = [getattr(record, spec.name) for record in records]
        if spec.name == "taxes":
            columns += [*TAX_COLUMNS, "tax_total"]
            values += [[taxes[kind] for taxes in cells] for kind in TAX_KINDS]
            values.append([record.tax_total for record in records])
        elif spec.name == "qli":
            columns += [f"qli_{muni}" for muni in municipality_ids]
            values += [[qli[muni] for qli in cells] for muni in municipality_ids]
        else:
            columns.append(spec.name)
            values.append(cells)
    matrix = np.array(values, dtype=float).reshape(len(columns), len(records))
    return columns, np.ascontiguousarray(matrix.T)


@dataclass
class RunResult:
    """Per-month time series plus the final world snapshot of one run."""

    records: list[MonthRecord]
    world: World
    seed: int
    sales: list[realestate.SaleRecord] = field(default_factory=list)
    grave: list[demographics.GraveRecord] = field(default_factory=list)


def step_production(world: World, params: SimParams) -> None:
    firms.produce(world, params.alpha)


def step_demographics(
    world: World, params: SimParams, rng: np.random.Generator
) -> np.ndarray:
    """Age, mortality and births; returns the ids of the families left with members."""
    demographics.age_step(world)
    demographics.mortality_step(world, rng)
    demographics.fertility_step(world, rng)
    return world.active_families()


def step_goods_market(
    world: World, params: SimParams, rng: np.random.Generator, active: np.ndarray
) -> None:
    goods.goods_market_step(
        world,
        active,
        beta=params.beta,
        size_market=params.size_market,
        consumption_tax_rate=params.taxes.consumption,
        rng=rng,
        price_criterion_probability=params.price_criterion_probability,
    )


def step_firm_decisions(
    world: World, params: SimParams, rng: np.random.Generator
) -> np.ndarray:
    """Reprice, offer wages, hire or fire; returns the firm id of each vacancy opened.

    One uniform per firm, in id order, decides whether it reprices; they
    are the substep's only draws.
    """
    unemployment = world.unemployment_rate(
        params.working_age_min, params.working_age_max
    )
    reprice_draws = rng.random(len(world.firms))
    headcount = world.citizens.headcount(len(world.firms))
    firms.update_prices(
        world.firms, params.markup, params.sticky_prices, reprice_draws, params.price_floor
    )
    firms.update_wage_offers(
        world.firms,
        headcount,
        unemployment,
        params.wage_ignore_unemployment,
        params.price_floor,
    )
    decisions = firms.hire_fire_decisions(
        world.firms, headcount, world.clock, params.labor_market_frequency
    )
    firms.fire_lowest_qualified(world, (decisions == firms.FIRE_ONE).nonzero()[0])
    return (decisions == firms.OPEN_VACANCY).nonzero()[0]


def step_labor_market(
    world: World, params: SimParams, rng: np.random.Generator, vacancies: np.ndarray
) -> None:
    pool = labor.build_pool(world, params, vacancies)
    labor.match(world, pool, params.pct_distance_hiring, params.size_market, rng)
    bills = labor.pay_wages(world, params.taxes.labor)
    firms.close_books(world, bills, params.taxes.firms)


def step_real_estate(
    world: World, params: SimParams, rng: np.random.Generator, active: np.ndarray
) -> None:
    realestate.reprice_houses(world, params.hedonic_base_coefficient)
    listings = realestate.build_listings(world, active)
    entrants = realestate.select_entrants(
        active, params.percentage_check_new_location, rng
    )
    world.sales_log += realestate.match_market(
        world, entrants, listings, params.taxes.transaction
    )
    realestate.collect_property_tax(world, active, params.taxes.property)


def step_fiscal(world: World, params: SimParams) -> dict[str, float]:
    """Distribute the ledger, invest everything, and zero the ledger.

    Returns the month's collection totals by kind (captured before reset).
    """
    totals = world.ledger.total_by_kind()
    populations = world.population_by_municipality().tolist()
    regime = DistributionRegime(params.alternative0, params.fpm_distribution)
    receipts = distribute(
        world.ledger,
        regime,
        params.taxes_structure,
        populations,
        world.region.fpm_brackets,
    )
    invest_qli(world.qli, receipts, populations, params.reference_cost_per_capita)
    world.ledger.reset()
    return totals


def record_month(
    world: World, params: SimParams, taxes: dict[str, float], active: np.ndarray
) -> MonthRecord:
    price_index = float(np.mean(world.firms.price)) if len(world.firms) else 0.0
    if world.price_index_prev and world.price_index_prev > 0.0 and price_index > 0.0:
        inflation = (price_index - world.price_index_prev) / world.price_index_prev * 100.0
    else:
        inflation = 0.0
    world.price_index_prev = price_index
    house_price_index = float(np.mean(world.houses.price)) if len(world.houses) else 0.0
    wealth = world.wealth(active)
    return MonthRecord(
        month=world.clock,
        population=len(world.citizens),
        unemployment=world.unemployment_rate(
            params.working_age_min, params.working_age_max
        ),
        price_index=price_index,
        inflation=inflation,
        house_price_index=house_price_index,
        gini_wealth=gini(wealth) if len(wealth) else 0.0,
        taxes=dict(taxes),
        qli=dict(zip(world.region.municipality_ids, world.qli.tolist())),
    )


def step(world: World, params: SimParams) -> MonthRecord:
    """Run one full month and advance the clock."""
    rng = world.rng
    try:
        step_production(world, params)
        active = step_demographics(world, params, rng)
        step_goods_market(world, params, rng, active)
        vacancies = step_firm_decisions(world, params, rng)
        step_labor_market(world, params, rng, vacancies)
        step_real_estate(world, params, rng, active)
        taxes = step_fiscal(world, params)
        record = record_month(world, params, taxes, active)
    except Exception as exc:
        raise RunError(f"month {world.clock}: {exc}") from exc
    world.clock += 1
    return record


def run(region: RegionData, params: SimParams, seed: int) -> RunResult:
    """Generate, calibrate, and simulate params.months months. A month whose
    money stock (``World.total_money``) moves by more than the taxes it
    collected, beyond MONEY_DRIFT_BOUND of the stock, raises RunError."""
    world = generate_world(region, params, seed)
    labor.calibrate_initial_unemployment(
        world, params.initial_unemployment, params, world.rng
    )
    records = []
    money = world.total_money()
    for _ in range(params.months):
        record = step(world, params)
        after = world.total_money()
        drift = after - money + record.tax_total
        if abs(drift) > MONEY_DRIFT_BOUND * abs(money):
            raise RunError(f"month {record.month}: money changed by {drift!r} beyond its taxes")
        money = after
        records.append(record)
    return RunResult(
        records=records,
        world=world,
        seed=seed,
        sales=list(world.sales_log),
        grave=list(world.grave),
    )
