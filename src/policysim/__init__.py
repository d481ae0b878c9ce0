"""Seeded agent-based simulation of municipal economies.

Families, firms, and municipalities interact in goods, labor, and
real-estate markets under five taxes and four fiscal-distribution regimes.
The package ships a deterministic engine, a parameter-sweep runner, and
two-sample KS validation tooling.
"""

from .fiscal import (
    ALL_REGIMES,
    DistributionRegime,
    FiscalError,
    TaxLedger,
    channel_fractions,
    distribute,
    fpm_allocate,
    invest_qli,
)
from .params import ParamError, SimParams, TaxRates, load_config, parse_config_text
from .scheduler import MonthRecord, RunError, RunResult, run, step
from .stats import StatsError, compare_tax_distributions, gini, ks_two_sample
from .sweeps import (
    ExperimentPlan,
    Job,
    SweepSpec,
    SweepSpecError,
    derive_seed,
    expand_plan,
    parse_sweep_spec,
)
from .world import (
    Citizens,
    Families,
    Firms,
    GenerationError,
    Houses,
    RegionData,
    RegionDataError,
    World,
    distance,
    generate_world,
    list_regions,
    load_region_data,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_REGIMES",
    "Citizens",
    "DistributionRegime",
    "ExperimentPlan",
    "Families",
    "Firms",
    "FiscalError",
    "GenerationError",
    "Houses",
    "Job",
    "MonthRecord",
    "ParamError",
    "RegionData",
    "RegionDataError",
    "RunError",
    "RunResult",
    "SimParams",
    "StatsError",
    "SweepSpec",
    "SweepSpecError",
    "TaxLedger",
    "TaxRates",
    "World",
    "channel_fractions",
    "compare_tax_distributions",
    "derive_seed",
    "distance",
    "distribute",
    "expand_plan",
    "fpm_allocate",
    "generate_world",
    "gini",
    "invest_qli",
    "ks_two_sample",
    "list_regions",
    "load_config",
    "load_region_data",
    "parse_config_text",
    "parse_sweep_spec",
    "run",
    "step",
]
