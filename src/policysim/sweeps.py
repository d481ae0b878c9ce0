"""Sweep grammar, experiment plans, and deterministic job expansion."""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .params import ParamError, SimParams, is_known_param, param_type, set_param
from .runner import DUMPS, config_dir_name

RUN_TYPES = ("run", "sensitivity", "distributions", "acps")
SAVE_DATA_FLAGS = tuple(DUMPS)


class SweepSpecError(ValueError):
    """Malformed sweep spec or unknown parameter name."""


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: a boolean toggle or an evenly spaced range."""

    name: str
    kind: str  # "boolean" | "range"
    first: float | None = None
    last: float | None = None
    count: int | None = None

    def values(self) -> list:
        if self.kind == "boolean":
            return [True, False]
        step = (self.last - self.first) / (self.count - 1)
        values = [self.first + index * step for index in range(self.count)]
        values[-1] = self.last  # endpoints exact
        if param_type(self.name) is int:
            return [int(round(value)) for value in values]
        return values


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse ``NAME`` (boolean) or ``NAME:first:last:count`` (range)."""
    pieces = text.strip().split(":")
    name = pieces[0].strip().upper()
    if not is_known_param(name):
        raise SweepSpecError(f"unknown parameter {name!r}")
    if param_type(name) is list:
        raise SweepSpecError(f"{name} is a list and cannot be swept; use the acps run type")
    if len(pieces) == 1:
        if param_type(name) is not bool:
            raise SweepSpecError(
                f"{name} is not boolean; use {name}:first:last:count"
            )
        return SweepSpec(name=name, kind="boolean")
    if len(pieces) != 4:
        raise SweepSpecError(
            f"range sweep must look like NAME:first:last:count, got {text!r}"
        )
    if param_type(name) is bool:
        raise SweepSpecError(f"{name} is boolean; pass the bare name")
    try:
        first = float(pieces[1])
        last = float(pieces[2])
    except ValueError as exc:
        raise SweepSpecError(f"non-numeric bounds in {text!r}") from exc
    for raw, value in ((pieces[1], first), (pieces[2], last)):
        if not math.isfinite(value):
            raise SweepSpecError(f"endpoint {raw.strip()!r} of {text!r} is not finite")
    try:
        count = int(pieces[3])
    except ValueError as exc:
        raise SweepSpecError(f"non-integer count in {text!r}") from exc
    if count < 2:
        raise SweepSpecError(f"count must be >= 2, got {count}")
    if first > last:
        raise SweepSpecError(f"first must be <= last in {text!r}")
    spec = SweepSpec(name=name, kind="range", first=first, last=last, count=count)
    values = spec.values()
    if len(set(values)) < count:
        raise SweepSpecError(f"{text!r} repeats grid values: {values}")
    return spec


@dataclass
class ExperimentPlan:
    """What to run: run type, replicates, sweeps, and outputs."""

    run_type: str
    runs_per_config: int = 1
    sweeps: list[SweepSpec] = field(default_factory=list)
    output_dir: str = "output"
    save_data: set[str] = field(default_factory=set)
    master_seed: int = 0

    def validate(self) -> None:
        if self.run_type not in RUN_TYPES:
            raise SweepSpecError(f"unknown run type {self.run_type!r}")
        if self.runs_per_config < 1:
            raise SweepSpecError("runs_per_config must be >= 1")
        if self.run_type == "sensitivity" and not self.sweeps:
            raise SweepSpecError("sensitivity runs need at least one sweep spec")
        if self.run_type != "sensitivity" and self.sweeps:
            raise SweepSpecError(f"run type {self.run_type!r} takes no sweep specs")
        repeated = [name for name, n in Counter(spec.name for spec in self.sweeps).items() if n > 1]
        if repeated:
            raise SweepSpecError(f"{repeated[0]} is swept more than once; its last value would win")
        unknown = self.save_data - set(SAVE_DATA_FLAGS)
        if unknown:
            raise SweepSpecError(f"unknown save-data flags: {sorted(unknown)}")


@dataclass(frozen=True)
class Job:
    """One seeded simulation of one configuration."""

    config_id: str
    replicate: int
    seed: int
    params: SimParams
    region_name: str
    save_data: frozenset[str] = frozenset()  # DUMPS flags the result carries


def derive_seed(master_seed: int, config_id: str, replicate: int) -> int:
    """Stable per-job seed; adding configs never perturbs existing jobs."""
    digest = hashlib.sha256(
        f"{master_seed}:{config_id}:{replicate}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def expand_plan(
    plan: ExperimentPlan, base_params: SimParams, region_names: list[str]
) -> list[Job]:
    """Expand a plan into the full deterministic job list.

    Sensitivity takes the cartesian product of its sweeps; distributions
    expands to the four fiscal regimes; acps covers every region at least
    once. Every configuration runs runs_per_config times. The other run
    types simulate the first PROCESSING_ACPS region, or the first region
    when it is empty; every name it lists must be a region.
    """
    plan.validate()
    if not region_names:
        raise SweepSpecError("no regions available to simulate")
    for name in base_params.processing_acps:
        if name not in region_names:
            raise SweepSpecError(f"PROCESSING_ACPS: region {name!r} not found")
    default_region = (base_params.processing_acps or region_names)[0]

    configs: list[tuple[str, SimParams, str]] = []
    if plan.run_type == "run":
        configs.append(("run", base_params.copy(), default_region))
    elif plan.run_type in ("sensitivity", "distributions"):
        sweeps = plan.sweeps
        if plan.run_type == "distributions":  # the four fiscal regimes
            sweeps = [parse_sweep_spec(name) for name in ("ALTERNATIVE0", "FPM_DISTRIBUTION")]
        for combo in itertools.product(*(spec.values() for spec in sweeps)):
            params = base_params.copy()
            labels = []
            for spec, value in zip(sweeps, combo):
                set_param(params, spec.name, value)
                labels.append(f"{spec.name}={_format_value(value)}")
            configs.append(("__".join(labels), params, default_region))
    elif plan.run_type == "acps":
        for region in region_names:
            params = base_params.copy()
            params.processing_acps = [region]
            configs.append((region, params, region))

    directories: dict[str, str] = {}
    for config_id, _, _ in configs:
        directory = config_dir_name(config_id)
        if directory in directories:
            raise SweepSpecError(
                f"configs {directories[directory]!r} and {config_id!r} "
                f"would share the output directory {directory!r}"
            )
        directories[directory] = config_id

    jobs: list[Job] = []
    for config_id, params, region in configs:
        try:
            params.validate()
        except ParamError as exc:
            raise SweepSpecError(f"config {config_id!r}: {exc}") from exc
        for replicate in range(plan.runs_per_config):
            jobs.append(
                Job(
                    config_id=config_id,
                    replicate=replicate,
                    seed=derive_seed(plan.master_seed, config_id, replicate),
                    params=params.copy(),
                    region_name=region,
                    save_data=frozenset(plan.save_data),
                )
            )
    return jobs
