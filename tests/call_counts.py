"""Python calls of set-up and per simulated month, counted by cProfile.

    PYTHONPATH=src python tests/call_counts.py

Counts the calls of one ``load_region_data`` of fixture3. Then builds
fixture3 at population share 0.2 and at 1.0 (seed 1), counting the calls
of set-up (``generate_world`` and the calibration round), and profiles the
next 12 months. Each share also prints set-up's tracemalloc peak, taken in
a set-up of its own with the profiler off. The counts are deterministic:
the same code and seed give the same number on every host, so a change in
a small world's fixed cost shows here without timing noise. The peak's
bytes vary by a few hundred between runs, as CPython's type attribute
cache, whose slots follow memory addresses, keeps some of the attribute
names numpy builds; it is printed in whole kB, which repeat. pytest does
not collect this file.

Calls are summed over the profiler's entries, one per code object.
``pstats`` keys functions by (file, line, name) and keeps one entry per
key, so the calls of functions that share a key, such as every
dataclass-generated ``__init__``, would collapse into one of them.
"""

from __future__ import annotations

import cProfile
import os
import tracemalloc

from policysim import SimParams, generate_world, load_region_data, step
from policysim.cli import default_data_dir
from policysim.labor import calibrate_initial_unemployment

MONTHS = 12
SEED = 1
SHARES = (0.2, 1.0)


def set_up(region, params):
    """Generate the world and run its calibration round."""
    world = generate_world(region, params, SEED)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    return world


def load_calls() -> int:
    """cProfile's call count over one load of fixture3, after a first load."""
    path = os.path.join(default_data_dir(), "fixture3")
    load_region_data(path)
    load = cProfile.Profile()
    load.runcall(load_region_data, path)
    return calls(load)


def call_counts(share: float) -> tuple[int, float, int]:
    """cProfile's call count over set-up, over MONTHS months after it per
    month, and tracemalloc's peak over another set-up, in bytes."""
    params = SimParams()
    params.percentage_actual_pop = share
    region = load_region_data(os.path.join(default_data_dir(), "fixture3"))
    # the first set-up in a process also imports modules and compiles
    # regular expressions, so the one counted is the second
    set_up(region, params)
    tracemalloc.start()
    try:
        set_up(region, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    setup = cProfile.Profile()
    world = setup.runcall(set_up, region, params)
    months = cProfile.Profile()
    months.enable()
    for _ in range(MONTHS):
        step(world, params)
    months.disable()
    return calls(setup), calls(months) / MONTHS, peak


def calls(profile: cProfile.Profile) -> int:
    """Every call the profile saw, recursive ones included."""
    return sum(entry.callcount for entry in profile.getstats())


def main() -> None:
    print(f"fixture3 load: {load_calls():,} calls")
    for share in SHARES:
        setup, per_month, peak = call_counts(share)
        print(f"fixture3 share {share}: {setup:,} calls in set-up, {per_month:,.0f} calls per month")
        print(f"fixture3 share {share}: set-up peak {peak / 1000:,.0f} kB traced")


if __name__ == "__main__":
    main()
