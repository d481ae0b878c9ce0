"""Golden fingerprints: monthly.csv of default runs must stay bit-identical.

The hashes pin the whole monthly series (population, prices, taxes, Gini,
quality of life) of fixture3 at default parameters. Any change to the
random stream, the schedule or the arithmetic order shows up here; a
refactor that claims "same behaviour" must leave them unchanged.

Seed 1 is also pinned under the three other fiscal regimes
(ALTERNATIVE0, FPM_DISTRIBUTION), so a change to the transfer rules shows up
in the regime it touches. The two merged regimes share one hash: merged
municipalities pool every tax by population whatever FPM_DISTRIBUTION says.

Two more seed-1 cases run the unmerged regimes under TAXES_STRUCTURE
overrides, with all five taxes active, so the override path (a channel
re-appended at the end of its row, a zero that drops one) is pinned too.

The default population share gives about 220 citizens, so one more case
runs fixture3 with ten times its target population at share 1.0: its
labor and housing markets draw from pools of thousands.

Seed 1 at default parameters and the merged regimes' shared run also pin
a projection: the hash of monthly.csv without its ``gini_wealth`` column.
Wealth is read by nothing but that column, so a change to the order in
which a family's house prices are summed moves the full hash and leaves
the projection as it is.
"""

import hashlib
import shutil

import pytest

from policysim.params import SimParams
from policysim.world.regions import load_region_data
from policysim.scheduler import run

from conftest import write_monthly_csv

GOLDEN_MONTHLY_SHA256 = {
    1: "b7c0df15cd50888d2b8deeb4180f22f8c4335eee99cf0fc01358aed37b711590",
    2: "13036149823e6788bc2289f163828f06647aa1ee14794d46bb81588235b2fcd2",
    3: "936ce3d4d619ab2771006ca3f42d5d7ac88da33e3148ce1a31db17c94ef91656",
}

REGIME_MONTHLY_SHA256 = {
    (True, False): "9514aed0373893b88b4a5147f4211646efc22c5dbc6abf04310041f4a9adf057",
    (False, True): "57b0eaaa938acc0275dbffd41726e19d6e8029b24435f1be3ff629e3040c4943",
    (False, False): "57b0eaaa938acc0275dbffd41726e19d6e8029b24435f1be3ff629e3040c4943",
}

# monthly.csv without gini_wealth (see sha256_without)
GOLDEN_PROJECTION_SHA256 = {
    1: "f16725d850b33d7fecb9476e3218f7ab4507773b655a7a9fd14ad9198e760181",
}
REGIME_PROJECTION_SHA256 = {
    (False, True): "5932abb0866c9f0601d6d7c27d98f159a444a445c806de57688547434fb99535",
    (False, False): "5932abb0866c9f0601d6d7c27d98f159a444a445c806de57688547434fb99535",
}
PROJECTED_OUT = "gini_wealth"

# each dict is built in this insertion order: it sets the order of the rows
OVERRIDE_CASES = {
    "true_true": (
        True,
        {
            "TRUE_TRUE.CONSUMPTION.FPM_POOL": 0.2,
            "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.6125,
            "TRUE_TRUE.CONSUMPTION.LOCAL": 0.1875,
            "TRUE_TRUE.LABOR.LOCAL": 0.5,
            "TRUE_TRUE.LABOR.FPM_POOL": 0.25,
            "TRUE_TRUE.LABOR.EQUAL_POOL": 0.25,
        },
        "8336616017944e0f36db1680feb97d258a8872f36b09f227b0e97230d4d64413",
    ),
    "true_false": (
        False,
        {
            "TRUE_FALSE.CONSUMPTION.FPM_POOL": 0.2,
            "TRUE_FALSE.CONSUMPTION.EQUAL_POOL": 0.0,
            "TRUE_FALSE.CONSUMPTION.LOCAL": 0.8,
            "TRUE_FALSE.LABOR.LOCAL": 0.5,
            "TRUE_FALSE.LABOR.FPM_POOL": 0.25,
            "TRUE_FALSE.LABOR.EQUAL_POOL": 0.25,
        },
        "a7a70c923369d7b3cf978eff986373473da3db3addf6c986fd35710f5d0ee83f",
    ),
}
OVERRIDE_MONTHS = 120

LARGE_POOL_SCALE = 10
LARGE_POOL_MONTHS = 6
LARGE_POOL_MONTHLY_SHA256 = "2d4c156b2b102048ac5ae36b113538050ec9a4f3989f9322ff02f62bc982c27e"


def sha256_without(path, column):
    """sha256 of a CSV file with one column dropped: every line, header
    included, keeps its other cells joined by commas, and the lines are
    joined by newlines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    rows = (line.split(",") for line in lines)
    kept = "\n".join(",".join(cells[:index] + cells[index + 1:]) for cells in rows)
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_MONTHLY_SHA256))
def test_monthly_csv_fingerprint(fixture3, tmp_path, seed):
    params = SimParams()
    assert params.months == 240
    path = tmp_path / "monthly.csv"
    write_monthly_csv(run(fixture3, params, seed), path)
    if seed in GOLDEN_PROJECTION_SHA256:
        assert sha256_without(path, PROJECTED_OUT) == GOLDEN_PROJECTION_SHA256[seed]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MONTHLY_SHA256[seed]


@pytest.mark.parametrize(
    "alternative0, fpm_distribution",
    sorted(REGIME_MONTHLY_SHA256, reverse=True),
    ids=lambda flag: str(flag).lower(),
)
def test_regime_monthly_csv_fingerprint(fixture3, tmp_path, alternative0, fpm_distribution):
    params = SimParams(alternative0=alternative0, fpm_distribution=fpm_distribution)
    path = tmp_path / "monthly.csv"
    write_monthly_csv(run(fixture3, params, 1), path)
    regime = (alternative0, fpm_distribution)
    if regime in REGIME_PROJECTION_SHA256:
        assert sha256_without(path, PROJECTED_OUT) == REGIME_PROJECTION_SHA256[regime]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == REGIME_MONTHLY_SHA256[regime]


@pytest.mark.parametrize("case", sorted(OVERRIDE_CASES))
def test_structure_override_monthly_csv_fingerprint(fixture3, tmp_path, case):
    fpm_distribution, overrides, expected = OVERRIDE_CASES[case]
    params = SimParams(
        fpm_distribution=fpm_distribution, months=OVERRIDE_MONTHS, taxes_structure=overrides
    )
    params.taxes.property = 0.002
    params.validate()
    path = tmp_path / "monthly.csv"
    write_monthly_csv(run(fixture3, params, 1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def scaled_region(source, target, scale):
    """Copy a region directory with every target population times scale."""
    shutil.copytree(source, target)
    path = target / "municipalities.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    column = header.split(",").index("target_population")
    lines = [header]
    for row in rows:
        cells = row.split(",")
        cells[column] = str(int(cells[column]) * scale)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def test_large_pool_monthly_csv_fingerprint(fixture3_path, tmp_path):
    region = load_region_data(
        str(scaled_region(fixture3_path, tmp_path / "fixture3x10", LARGE_POOL_SCALE))
    )
    params = SimParams(percentage_actual_pop=1.0, months=LARGE_POOL_MONTHS)
    result = run(region, params, 1)
    assert len(result.world.citizens) > 9_000
    path = tmp_path / "monthly.csv"
    write_monthly_csv(result, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LARGE_POOL_MONTHLY_SHA256
