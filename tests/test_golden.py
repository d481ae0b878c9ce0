"""Golden fingerprints: monthly.csv of default runs must stay bit-identical.

The hashes pin the whole monthly series (population, prices, taxes, Gini,
quality of life) of fixture3 at default parameters. Any change to the
random stream, the schedule or the arithmetic order shows up here; a
refactor that claims "same behaviour" must leave them unchanged.
"""

import hashlib

import pytest

from policysim.params import SimParams
from policysim.runner import write_monthly_csv
from policysim.scheduler import run

GOLDEN_MONTHLY_SHA256 = {
    1: "e8c49cd08b97a190f2457dbb9a61a1223fdff57cb382ee265c17a3918108cd2d",
    2: "13036149823e6788bc2289f163828f06647aa1ee14794d46bb81588235b2fcd2",
    3: "936ce3d4d619ab2771006ca3f42d5d7ac88da33e3148ce1a31db17c94ef91656",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_MONTHLY_SHA256))
def test_monthly_csv_fingerprint(fixture3, tmp_path, seed):
    params = SimParams()
    assert params.months == 240
    path = tmp_path / "monthly.csv"
    write_monthly_csv(run(fixture3, params, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MONTHLY_SHA256[seed]
