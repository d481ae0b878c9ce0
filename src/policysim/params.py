"""Simulation parameter set, validation, and flat KEY = value config parsing.

Each parameter is declared once, as a field of SimParams or TaxRates: its
name, type, default and bounds. The config key is the upper-case field name
(``TAXES.<KIND>`` for a tax rate) unless the field's metadata names another.
Parsing, sweeps, validation and run metadata all read the one field table
built from those declarations. ``TAXES_STRUCTURE.*`` keys are the exception:
they override channel fractions and are checked under every fiscal regime.
"""

from __future__ import annotations

import copy
import math
import operator
import typing
from dataclasses import dataclass, field, fields

MAX_MONTHS = 360  # ceiling set by available data projections
STRUCTURE_PREFIX = "TAXES_STRUCTURE."


class ParamError(ValueError):
    """Invalid parameter value or unknown parameter name."""


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def param(default, *, gt=None, ge=None, le=None, key: str | None = None):
    """A parameter field with optional bounds and an optional config key."""
    bounds = ((">", gt), (">=", ge), ("<=", le))
    limits = tuple((op, bound) for op, bound in bounds if bound is not None)
    return field(default=default, metadata={"limits": limits, "key": key})


@dataclass
class TaxRates:
    """The five adjustable tax rates, each a fraction in [0, 1].

    Property is charged monthly on house value, so its sensible scale is
    much smaller than the flow taxes.
    """

    consumption: float = param(0.05, ge=0.0, le=1.0)
    labor: float = param(0.04, ge=0.0, le=1.0)
    transaction: float = param(0.02, ge=0.0, le=1.0)
    firms: float = param(0.06, ge=0.0, le=1.0)
    property: float = param(0.0, ge=0.0, le=1.0)


TAX_KINDS = tuple(spec.name for spec in fields(TaxRates))


@dataclass
class SimParams:
    """Full parameter set for one simulation configuration.

    Defaults are documented in the README config reference. Every field
    except taxes_structure can be set from a config file or swept from the
    command line by its config key (see the module docstring).
    """

    # firm behaviour
    alpha: float = param(0.5, gt=0.0, le=1.0)
    markup: float = param(0.15, ge=0.0)
    sticky_prices: float = param(0.5, ge=0.0, le=1.0)
    labor_market_frequency: int = param(2, ge=1, key="LABOR_MARKET")
    wage_ignore_unemployment: bool = False

    # family behaviour and market sampling
    beta: float = param(0.95, ge=0.0, le=1.0)
    size_market: int = param(5, ge=1)
    pct_distance_hiring: float = param(0.3, ge=0.0, le=1.0)
    percentage_check_new_location: float = param(0.05, ge=0.0, le=1.0)
    price_criterion_probability: float = param(0.5, ge=0.0, le=1.0)

    # world generation
    house_vacancy: float = param(0.1, ge=0.0)
    members_per_family: float = param(2.5, ge=1.0)
    percentage_actual_pop: float = param(0.2, gt=0.0, le=1.0)
    citizens_per_firm: float = param(5.0, gt=0.0)
    hedonic_base_coefficient: float = param(0.005, gt=0.0)

    # fiscal regime
    alternative0: bool = True
    fpm_distribution: bool = True
    taxes: TaxRates = field(default_factory=TaxRates)
    taxes_structure: dict[str, float] = field(default_factory=dict)
    reference_cost_per_capita: float = param(1.0, gt=0.0)

    # run control
    processing_acps: list[str] = field(default_factory=list)
    months: int = param(240, ge=0, le=MAX_MONTHS)
    working_age_min: int = param(16, ge=0)
    working_age_max: int = 70
    initial_unemployment: float = param(0.3, ge=0.0, le=1.0)
    price_floor: float = param(1e-300, gt=0.0)

    def validate(self) -> None:
        problems = []
        for spec in FIELDS.values():
            value = spec.get(self)
            if spec.kind is float and not math.isfinite(value):
                problems.append(f"{spec.key} = {value!r} must be finite")
            elif not all(_COMPARE[op](value, bound) for op, bound in spec.limits):
                wanted = " and ".join(f"{op} {bound}" for op, bound in spec.limits)
                problems.append(f"{spec.key} = {value!r} must be {wanted}")
        if self.working_age_min > self.working_age_max:
            problems.append("WORKING_AGE_MIN must be <= WORKING_AGE_MAX")
        if self.taxes_structure:
            problems += _structure_problems(self.taxes_structure)
        if problems:
            raise ParamError("; ".join(problems))

    def copy(self) -> SimParams:
        return copy.deepcopy(self)


def _structure_problems(overrides: dict[str, float]) -> list[str]:
    from .fiscal import ALL_REGIMES, FiscalError, channel_fractions

    try:
        for regime in ALL_REGIMES:
            channel_fractions(regime, overrides)
    except FiscalError as exc:
        return [f"{STRUCTURE_PREFIX}*: {exc}"]
    return []


class _Field(typing.NamedTuple):
    """One settable parameter: its config key and where it lives."""

    key: str
    group: str | None  # attribute of SimParams holding the field, if nested
    name: str
    kind: type  # bool, int, float or list
    limits: tuple  # (operator, bound) pairs from param()

    def get(self, params: SimParams):
        return getattr(getattr(params, self.group) if self.group else params, self.name)

    def set(self, params: SimParams, value) -> None:
        setattr(getattr(params, self.group) if self.group else params, self.name, value)


def _field_table() -> dict[str, _Field]:
    table = {}
    for owner, group in ((SimParams, None), (TaxRates, "taxes")):
        hints = typing.get_type_hints(owner)
        for spec in fields(owner):
            kind = typing.get_origin(hints[spec.name]) or hints[spec.name]
            if kind not in (bool, int, float, list):
                continue  # taxes and taxes_structure: reached by prefix
            key = spec.metadata.get("key") or spec.name.upper()
            if group:
                key = f"{group.upper()}.{key}"
            limits = spec.metadata.get("limits", ())
            table[key] = _Field(key, group, spec.name, kind, limits)
    return table


# upper-case config/sweep key -> field, in declaration order
FIELDS = _field_table()

def _field(name: str) -> _Field:
    try:
        return FIELDS[name.upper()]
    except KeyError:
        raise ParamError(f"unknown parameter {name!r}") from None


def is_known_param(name: str) -> bool:
    upper = name.upper()
    return upper in FIELDS or upper.startswith(STRUCTURE_PREFIX)


def param_type(name: str) -> type:
    if name.upper().startswith(STRUCTURE_PREFIX):
        return float
    return _field(name).kind


def set_param(params: SimParams, name: str, value) -> None:
    """Assign one parameter in place, by its upper-case config name."""
    upper = name.upper()
    if upper.startswith(STRUCTURE_PREFIX):
        params.taxes_structure[upper[len(STRUCTURE_PREFIX):]] = float(value)
        return
    spec = _field(upper)
    spec.set(params, value)


def _coerce(raw: str, kind: type, key: str):
    raw = raw.strip()
    if kind is list:
        return [item.strip() for item in raw.split(",") if item.strip()]
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ParamError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ParamError(f"{key}: expected {expected}, got {raw!r}") from exc


def parse_config_text(text: str) -> SimParams:
    """Parse flat ``KEY = value`` lines on top of the default params.

    Blank lines and lines starting with ``#`` are ignored.
    """
    params = SimParams()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParamError(f"line {lineno}: expected KEY = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().upper()
        if not is_known_param(key):
            raise ParamError(f"line {lineno}: unknown parameter {key!r}")
        set_param(params, key, _coerce(raw, param_type(key), key))
    params.validate()
    return params


def load_config(path) -> SimParams:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def params_as_flat_dict(params: SimParams) -> dict[str, object]:
    """Config-style view of a parameter set, used in run metadata."""
    out: dict[str, object] = {}
    for key, spec in FIELDS.items():
        value = spec.get(params)
        out[key] = list(value) if isinstance(value, list) else value
    for key, value in sorted(params.taxes_structure.items()):
        out[f"{STRUCTURE_PREFIX}{key}"] = value
    return out
