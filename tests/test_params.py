import math
import re

import pytest

from policysim.params import ParamError, parse_config_text

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
