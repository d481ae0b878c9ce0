import math
import re

import pytest

from policysim.cli import default_data_dir
from policysim.params import FIELDS, ParamError, SimParams, parse_config_text, set_param
from policysim.scheduler import run
from policysim.sweeps import ExperimentPlan, expand_plan
from policysim.world.regions import list_regions

# config key -> (lower bound, lower bound inclusive, upper bound or None);
# upper bounds are inclusive. The working-age pair is bounded by each other,
# so their edges are taken at the default of the other key.
BOUNDS = {
    "ALPHA": (0.0, False, 1.0),
    "MARKUP": (0.0, True, None),
    "STICKY_PRICES": (0.0, True, 1.0),
    "LABOR_MARKET": (1, True, None),
    "BETA": (0.0, True, 1.0),
    "SIZE_MARKET": (1, True, None),
    "PCT_DISTANCE_HIRING": (0.0, True, 1.0),
    "PERCENTAGE_CHECK_NEW_LOCATION": (0.0, True, 1.0),
    "PRICE_CRITERION_PROBABILITY": (0.0, True, 1.0),
    "HOUSE_VACANCY": (0.0, True, None),
    "MEMBERS_PER_FAMILY": (1.0, True, None),
    "PERCENTAGE_ACTUAL_POP": (0.0, False, 1.0),
    "CITIZENS_PER_FIRM": (0.0, False, None),
    "HEDONIC_BASE_COEFFICIENT": (0.0, False, None),
    "TAXES.CONSUMPTION": (0.0, True, 1.0),
    "TAXES.LABOR": (0.0, True, 1.0),
    "TAXES.TRANSACTION": (0.0, True, 1.0),
    "TAXES.FIRMS": (0.0, True, 1.0),
    "TAXES.PROPERTY": (0.0, True, 1.0),
    "REFERENCE_COST_PER_CAPITA": (0.0, False, None),
    "MONTHS": (0, True, 360),
    "WORKING_AGE_MIN": (0, True, 70),
    "WORKING_AGE_MAX": (16, True, None),
    "INITIAL_UNEMPLOYMENT": (0.0, True, 1.0),
    "PRICE_FLOOR": (0.0, False, None),
}


def _step(value, direction):
    if isinstance(value, int):
        return value + direction
    return math.nextafter(value, direction * math.inf)


def _bound_cases():
    for key, (low, low_inclusive, high) in BOUNDS.items():
        if low_inclusive:
            yield pytest.param(key, low, True, id=f"{key}-low-edge")
            yield pytest.param(key, _step(low, -1), False, id=f"{key}-below-low")
        else:
            yield pytest.param(key, low, False, id=f"{key}-low-edge")
            yield pytest.param(key, _step(low, 1), True, id=f"{key}-above-low")
        if high is not None:
            yield pytest.param(key, high, True, id=f"{key}-high-edge")
            yield pytest.param(key, _step(high, 1), False, id=f"{key}-above-high")
        else:
            yield pytest.param(key, math.inf, False, id=f"{key}-inf")


@pytest.mark.parametrize("key, value, accepted", _bound_cases())
def test_bounds(key, value, accepted):
    text = f"{key} = {value!r}"
    if accepted:
        parse_config_text(text)
    else:
        with pytest.raises(ParamError, match=re.escape(key)):
            parse_config_text(text)


KEY_EFFECT_MONTHS = 24

# config key -> a value one notch from its default. PRICE_FLOOR is a guard
# that does not bind at its default, so it is taken where it binds.
# FPM_DISTRIBUTION is stepped under the default ALTERNATIVE0 = true: under
# the merged regimes it has no meaning yet. MONTHS changes the record count.
KEY_STEPS = {
    "ALPHA": 0.6,
    "MARKUP": 0.2,
    "STICKY_PRICES": 0.6,
    "LABOR_MARKET": 3,
    "WAGE_IGNORE_UNEMPLOYMENT": True,
    "BETA": 0.9,
    "SIZE_MARKET": 6,
    "PCT_DISTANCE_HIRING": 0.4,
    "PERCENTAGE_CHECK_NEW_LOCATION": 0.1,
    "PRICE_CRITERION_PROBABILITY": 0.6,
    "HOUSE_VACANCY": 0.2,
    "MEMBERS_PER_FAMILY": 3.0,
    "PERCENTAGE_ACTUAL_POP": 0.3,
    "CITIZENS_PER_FIRM": 6.0,
    "HEDONIC_BASE_COEFFICIENT": 0.006,
    "ALTERNATIVE0": False,
    "FPM_DISTRIBUTION": False,
    "REFERENCE_COST_PER_CAPITA": 2.0,
    "MONTHS": KEY_EFFECT_MONTHS + 1,
    "WORKING_AGE_MIN": 17,
    "WORKING_AGE_MAX": 69,
    "INITIAL_UNEMPLOYMENT": 0.2,
    "PRICE_FLOOR": 1e3,
    "TAXES.CONSUMPTION": 0.06,
    "TAXES.LABOR": 0.05,
    "TAXES.TRANSACTION": 0.03,
    "TAXES.FIRMS": 0.07,
    "TAXES.PROPERTY": 0.001,
}

# one override set per channel under (T, T); each row still sums to 1
STRUCTURE_STEPS = {
    "local": {"TRUE_TRUE.LABOR.LOCAL": 0.5, "TRUE_TRUE.LABOR.EQUAL_POOL": 0.265},
    "equal_pool": {"TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.5, "TRUE_TRUE.CONSUMPTION.LOCAL": 0.5},
    "fpm_pool": {
        "TRUE_TRUE.CONSUMPTION.FPM_POOL": 0.3,
        "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.5125,
    },
}


@pytest.fixture(scope="module")
def default_records(fixture3):
    return run(fixture3, SimParams(months=KEY_EFFECT_MONTHS), 1).records


def test_every_key_has_a_step():
    assert set(KEY_STEPS) == set(FIELDS) - {"PROCESSING_ACPS"}


@pytest.mark.parametrize("key", KEY_STEPS)
def test_every_key_moves_the_records(fixture3, default_records, key):
    params = SimParams(months=KEY_EFFECT_MONTHS)
    set_param(params, key, KEY_STEPS[key])
    params.validate()
    assert run(fixture3, params, 1).records != default_records


@pytest.mark.parametrize("channel", STRUCTURE_STEPS)
def test_every_structure_channel_moves_the_records(fixture3, default_records, channel):
    params = SimParams(months=KEY_EFFECT_MONTHS, taxes_structure=STRUCTURE_STEPS[channel])
    params.validate()
    assert run(fixture3, params, 1).records != default_records


def test_processing_acps_picks_the_region():
    regions = list_regions(default_data_dir())
    plan = ExperimentPlan(run_type="run", runs_per_config=1)
    params = SimParams()
    assert expand_plan(plan, params, regions)[0].region_name == "fixture3"
    set_param(params, "PROCESSING_ACPS", ["solo"])
    assert expand_plan(plan, params, regions)[0].region_name == "solo"
