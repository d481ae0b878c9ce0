"""Golden fingerprints: monthly.csv of default runs must stay bit-identical.

The hashes pin the whole monthly series (population, prices, taxes, Gini,
quality of life) of fixture3 at default parameters. Any change to the
random stream, the schedule or the arithmetic order shows up here; a
refactor that claims "same behaviour" must leave them unchanged.

Seed 1 is also pinned under the three other fiscal regimes
(ALTERNATIVE0, FPM_DISTRIBUTION), so a change to the transfer rules shows up
in the regime it touches. The two merged regimes share one hash: merged
municipalities pool every tax by population whatever FPM_DISTRIBUTION says.

The default population share gives about 220 citizens, so one more case
runs fixture3 with ten times its target population at share 1.0: its
labor and housing markets draw from pools of thousands.
"""

import hashlib
import shutil

import pytest

from policysim.params import SimParams
from policysim.world.regions import load_region_data
from policysim.runner import write_monthly_csv
from policysim.scheduler import run

GOLDEN_MONTHLY_SHA256 = {
    1: "e8c49cd08b97a190f2457dbb9a61a1223fdff57cb382ee265c17a3918108cd2d",
    2: "13036149823e6788bc2289f163828f06647aa1ee14794d46bb81588235b2fcd2",
    3: "936ce3d4d619ab2771006ca3f42d5d7ac88da33e3148ce1a31db17c94ef91656",
}

REGIME_MONTHLY_SHA256 = {
    (True, False): "9514aed0373893b88b4a5147f4211646efc22c5dbc6abf04310041f4a9adf057",
    (False, True): "231e860fc9a644da92faf9890d058b90508df7bcc77214a8d6fcc6c6d82c8df8",
    (False, False): "231e860fc9a644da92faf9890d058b90508df7bcc77214a8d6fcc6c6d82c8df8",
}

LARGE_POOL_SCALE = 10
LARGE_POOL_MONTHS = 6
LARGE_POOL_MONTHLY_SHA256 = "2d4c156b2b102048ac5ae36b113538050ec9a4f3989f9322ff02f62bc982c27e"


@pytest.mark.parametrize("seed", sorted(GOLDEN_MONTHLY_SHA256))
def test_monthly_csv_fingerprint(fixture3, tmp_path, seed):
    params = SimParams()
    assert params.months == 240
    path = tmp_path / "monthly.csv"
    write_monthly_csv(run(fixture3, params, seed), path)
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
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == REGIME_MONTHLY_SHA256[(alternative0, fpm_distribution)]


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
