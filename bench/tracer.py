"""Span recorder for the traced benchmark run.

The engine has no probe of its own, so the tracer wraps module attributes
from outside: every module of the ``policysim`` package that holds a
target function under any name (``scheduler`` imports ``distribute`` and
``gini`` directly, ``cli`` imports ``execute``) gets the wrapper, and
``uninstall`` puts the originals back. Timed runs never install it, so
they execute unmodified code.

Only layer-boundary functions are wrapped. Per-agent helpers such as
``goods.choose_firm`` or ``world.types.distance`` run millions of times a
run; a span around each would measure the tracer, not the engine.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# (module, function, span name). Spans nest: a substep's self time excludes
# the named functions it calls.
SPAN_TARGETS = [
    ("policysim.cli", "main", "cli.main"),
    ("policysim.sweeps", "expand_plan", "sweeps.expand"),
    ("policysim.runner", "execute", "runner.execute"),
    ("policysim.runner", "_execute_job", "runner.job"),
    ("policysim.runner", "write_outputs", "runner.write"),
    ("policysim.runner", "aggregate", "runner.aggregate"),
    ("policysim.world.regions", "load_region_data", "regions.load"),
    ("policysim.world.generate", "generate_world", "generate.world"),
    ("policysim.labor", "calibrate_initial_unemployment", "labor.calibrate"),
    ("policysim.scheduler", "run", "scheduler.run"),
    ("policysim.scheduler", "step", "scheduler.step"),
    ("policysim.scheduler", "step_production", "scheduler.production"),
    ("policysim.scheduler", "step_demographics", "scheduler.demographics"),
    ("policysim.scheduler", "step_goods_market", "scheduler.goods"),
    ("policysim.scheduler", "step_firm_decisions", "scheduler.firm_decisions"),
    ("policysim.scheduler", "step_labor_market", "scheduler.labor"),
    ("policysim.scheduler", "step_real_estate", "scheduler.real_estate"),
    ("policysim.scheduler", "step_fiscal", "scheduler.fiscal"),
    ("policysim.scheduler", "record_month", "scheduler.record"),
    ("policysim.labor", "build_pool", "labor.build_pool"),
    ("policysim.labor", "match", "labor.match"),
    ("policysim.labor", "pay_wages", "labor.pay_wages"),
    ("policysim.realestate", "reprice_houses", "realestate.reprice"),
    ("policysim.realestate", "match_market", "realestate.match_market"),
    ("policysim.fiscal", "distribute", "fiscal.distribute"),
    ("policysim.stats", "gini", "stats.gini"),
]

# (module, function, counter, size of the return value). Counted without a
# span, so the substep that calls them keeps their time as its self time.
COUNT_TARGETS = [
    ("policysim.labor", "build_pool", "labor.vacancies", lambda pool: len(pool.vacancies)),
    ("policysim.labor", "match", "labor.hires", len),
    ("policysim.goods", "goods_market_step", "goods.purchases", len),
    ("policysim.demographics", "mortality_step", "demographics.deaths", len),
    ("policysim.demographics", "fertility_step", "demographics.births", len),
    ("policysim.realestate", "build_listings", "realestate.listings", len),
    ("policysim.realestate", "select_entrants", "realestate.entrants", len),
    ("policysim.realestate", "match_market", "realestate.sales", len),
]

# Calibration hires through labor.build_pool and labor.match; inside it
# those calls are part of set-up, so they open no span and count nothing.
QUIET_INSIDE = "labor.calibrate"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Keeps spans and counts in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.results: list = []  # JobResults returned by runner.execute
        self._stack: list[int] = []
        self._quiet = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        counters: dict[tuple[str, str], list] = {}
        for module, attr, counter, size in COUNT_TARGETS:
            counters.setdefault((module, attr), []).append((counter, size))
        names = {(module, attr): name for module, attr, name in SPAN_TARGETS}
        for key in sorted(set(names) | set(counters)):
            original = getattr(sys.modules[key[0]], key[1])
            wrapper = self._wrap(original, names.get(key), counters.get(key, []))
            self._patch(original, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _patch(self, original: Callable, wrapper: Callable) -> None:
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "policysim" and not module_name.startswith("policysim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no policysim module holds {original!r}")

    def _wrap(self, original: Callable, name: str | None, counters: list) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        quiet_here = int(name == QUIET_INSIDE)
        stash = name == "runner.execute"

        def traced(*args, **kwargs):
            if self._quiet:
                return original(*args, **kwargs)
            index = -1
            if name is not None:
                index = len(spans)
                spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
                stack.append(index)
            self._quiet += quiet_here
            try:
                result = original(*args, **kwargs)
            finally:
                self._quiet -= quiet_here
                if index >= 0:
                    spans[index].end = clock()
                    stack.pop()
            for counter, size in counters:
                self.counts[counter] += size(result)
            if stash:
                self.results.extend(result)
            return result

        traced.__wrapped__ = original
        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time child spans cover.

    Children of one span never overlap (the engine is single-threaded), but
    the union is taken anyway so the reducer does not depend on it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    return totals


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    return totals


def durations(spans: list[Span], name: str) -> list[float]:
    return [span.end - span.start for span in spans if span.name == name]
