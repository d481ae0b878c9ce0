"""Month times of another revision and of this checkout, alternated in one process.

    PYTHONPATH=src python tests/ab_months.py REV [--scale 40] [--months 4]

``git archive --format=zip REV src/policysim`` is unpacked into a
temporary directory outside the checkout and imported as
``policysim_parent``; the package uses relative imports only, so the copy
is self-contained. Each package generates and calibrates its own fixture3
world with the target populations times --scale, at population share 1.0
(seed 1; the default scale is the single-x40 benchmark's world), and every
stepped month must give both the same record. Each of 16 repeats then
steps a fresh copy of each world for --months months, the package that
goes first alternating between repeats. Timing both in one process cancels
what differs between processes, checkouts and minutes of a shared host,
which whole-run pairs cannot. The output is a markdown table: the median
month of each, their ratio, and the repeats whose mean month the checkout
won. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import policysim
from policysim.cli import default_data_dir

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "fixture3"
SEED = 1
SHARE = 1.0
REPEATS = 16


def load_parent(rev: str, directory: Path):
    """The package ``src/policysim`` of ``rev``, imported as policysim_parent."""
    zipped = directory / "parent.zip"
    subprocess.run(
        ["git", "archive", "--format=zip", f"--output={zipped}", rev, "src/policysim"], cwd=ROOT, check=True
    )
    with zipfile.ZipFile(zipped) as archive:
        archive.extractall(directory)
    (directory / "src" / "policysim").rename(directory / "policysim_parent")
    sys.path.insert(0, str(directory))
    return importlib.import_module("policysim_parent")


def scaled_region(directory: Path, scale: int) -> Path:
    """A copy of fixture3 with every target population multiplied by scale."""
    source = Path(default_data_dir()) / FIXTURE
    target = directory / f"{FIXTURE}x{scale}"
    target.mkdir(parents=True)
    for path in sorted(source.glob("*.csv")):
        (target / path.name).write_bytes(path.read_bytes())
    header, *lines = (source / "municipalities.csv").read_text(encoding="utf-8").splitlines()
    column = header.split(",").index("target_population")
    rows = [header]
    for line in lines:
        cells = line.split(",")
        cells[column] = str(int(cells[column]) * scale)
        rows.append(",".join(cells))
    (target / "municipalities.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return target


def calibrated(package, region_dir: Path) -> tuple[bytes, object]:
    """A pickled, calibrated world of ``package`` and its parameters."""
    params = package.SimParams(percentage_actual_pop=SHARE)
    world = package.generate_world(package.load_region_data(str(region_dir)), params, SEED)
    package.labor.calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    return pickle.dumps(world), params


def step_months(package, frozen: bytes, params, months: int) -> tuple[list[float], list]:
    """Each month's seconds on a fresh copy of the world, and its records."""
    world = pickle.loads(frozen)
    gc.collect()
    times, records = [], []
    for _ in range(months):
        start = time.perf_counter()
        records.append(package.step(world, params))
        times.append(time.perf_counter() - start)
    # repr compares floats bit for bit, NaN included
    return times, [repr(dataclasses.astuple(record)) for record in records]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare this checkout against")
    parser.add_argument("--scale", type=int, default=40)
    parser.add_argument("--months", type=int, default=4)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        parent = load_parent(args.rev, directory)
        region_dir = scaled_region(directory / "data", args.scale)
        sides = {
            name: (package, *calibrated(package, region_dir))
            for name, package in (("parent", parent), ("change", policysim))
        }
        months = {name: [] for name in sides}
        means = {name: [] for name in sides}
        outputs = {}
        for repeat in range(REPEATS):
            for name in sorted(sides, reverse=repeat % 2 == 1):
                times, outputs[name] = step_months(*sides[name], args.months)
                months[name] += times
                means[name].append(statistics.fmean(times))
            if outputs["parent"] != outputs["change"]:
                print(f"the month records of {args.rev} and this checkout differ", file=sys.stderr)
                return 1
    parent_ms, change_ms = (statistics.median(months[name]) * 1e3 for name in ("parent", "change"))
    wins = sum(change < parent for parent, change in zip(means["parent"], means["change"]))
    print(f"fixture3 x{args.scale} share {SHARE}, {REPEATS} alternating repeats of {args.months} months")
    print()
    print("| revision | month_ms p50 |")
    print("|---|---|")
    print(f"| {args.rev} | {parent_ms:.1f} |")
    print(f"| checkout | {change_ms:.1f} |")
    print(f"| ratio | {change_ms / parent_ms:.3f} |")
    print(f"| repeats won by the checkout | {wins} of {REPEATS} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
