"""Python calls per simulated month, counted by cProfile.

    PYTHONPATH=src python tests/call_counts.py

Builds fixture3 at population share 0.2 and at 1.0 (seed 1), calibrates
it, and profiles the next 12 months. The counts are deterministic: the same
code and seed give the same number on every host, so a change in a small
world's fixed cost per month shows here without timing noise. pytest does
not collect this file.
"""

from __future__ import annotations

import cProfile
import os
import pstats

from policysim import SimParams, generate_world, load_region_data, step
from policysim.cli import default_data_dir
from policysim.labor import calibrate_initial_unemployment

MONTHS = 12
SEED = 1
SHARES = (0.2, 1.0)


def calls_per_month(share: float) -> float:
    """cProfile's call count over MONTHS months after set-up, per month."""
    params = SimParams()
    params.percentage_actual_pop = share
    region = load_region_data(os.path.join(default_data_dir(), "fixture3"))
    world = generate_world(region, params, SEED)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(MONTHS):
        step(world, params)
    profile.disable()
    return pstats.Stats(profile).total_calls / MONTHS


def main() -> None:
    for share in SHARES:
        print(f"fixture3 share {share}: {calls_per_month(share):,.0f} calls per month")


if __name__ == "__main__":
    main()
