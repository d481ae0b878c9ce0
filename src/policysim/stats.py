"""Statistics: two-sample KS test, Gini coefficient, tax-profile comparison."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .params import TAX_KINDS

KS_ALPHA = 0.05
SCALE_NOTE = (
    "KS runs on raw values: a uniform rescaling of one sample shifts its "
    "ECDF support and is reported as a distribution difference."
)


class StatsError(ValueError):
    """Empty sample, mismatched comparison keys, or a malformed reference file."""


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from the int 0.

    From CPython 3.12 the builtin ``sum`` compensates float rounding:
    ``sum([1e16, 1.0, -1e16])`` is 1.0 there and 0.0 on 3.11. The float
    sums that reach ``monthly.csv`` and the pinned hashes, and the
    tolerance checks on fraction and probability tables, go through this
    one, which gives 3.11's ``sum`` bit for bit on every interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the largest ECDF gap over all sample points; the p-value uses the
    asymptotic Kolmogorov distribution at sqrt(n_a n_b / (n_a + n_b)) * D.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise StatsError("ks_two_sample requires nonempty samples")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    grid = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, grid, side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, grid, side="right") / b.size
    d_statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective_n = a.size * b.size / (a.size + b.size)
    p_value = kolmogorov_survival(math.sqrt(effective_n) * d_statistic)
    return d_statistic, p_value


def kolmogorov_survival(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lambda).

    Below lambda ~0.043, where 100 terms of the alternating series do not
    converge, the small-lambda form of Q is summed instead.
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            return min(1.0, max(0.0, total))
    # Q = 1 - sqrt(2 pi) / lambda * sum_k exp(-(2k-1)^2 pi^2 / (8 lambda^2)); its
    # k = 2 term is exp(-pi^2 / lambda^2) < 1e-2000 times the k = 1 term here
    tail = math.exp(-(math.pi**2) / (8.0 * lam * lam))
    return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * tail))


def gini(values) -> float:
    """Gini coefficient of non-negative values via the sorted-index formula."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise StatsError("gini requires a nonempty sample")
    if np.any(data < 0.0):
        raise StatsError("gini requires non-negative values")
    total = float(data.sum())
    if total == 0.0:
        return 0.0
    data = np.sort(data)
    n = data.size
    index = np.arange(1, n + 1)
    return float((2.0 * np.sum(index * data) / (n * total)) - (n + 1) / n)


@dataclass(frozen=True)
class KsReportRow:
    kind: str
    d_statistic: float
    p_value: float
    rejected: bool  # at the 0.05 level


@dataclass(frozen=True)
class KsReport:
    rows: list[KsReportRow]
    note: str


def compare_tax_distributions(
    simulated: dict[str, dict[str, float]],
    reference: dict[str, dict[str, float]],
) -> KsReport:
    """KS comparison of per-region tax totals, per kind plus overall.

    Both inputs map region -> tax kind -> total. The region key sets must
    match exactly; mismatches are reported by region id.
    """
    check_region_keys(set(simulated), set(reference))
    regions = sorted(simulated)
    rows: list[KsReportRow] = []
    for kind in TAX_KINDS:
        sample_sim = [simulated[region].get(kind, 0.0) for region in regions]
        sample_ref = [reference[region].get(kind, 0.0) for region in regions]
        d_statistic, p_value = ks_two_sample(sample_sim, sample_ref)
        rows.append(KsReportRow(kind, d_statistic, p_value, p_value < KS_ALPHA))
    totals_sim = [ordered_sum(simulated[region].values()) for region in regions]
    totals_ref = [ordered_sum(reference[region].values()) for region in regions]
    d_statistic, p_value = ks_two_sample(totals_sim, totals_ref)
    rows.append(KsReportRow("total", d_statistic, p_value, p_value < KS_ALPHA))
    return KsReport(rows=rows, note=SCALE_NOTE)


def check_region_keys(simulated_keys: set[str], reference_keys: set[str]) -> None:
    """Raise StatsError unless both sides cover the same regions."""
    if simulated_keys != reference_keys:
        missing = sorted(reference_keys - simulated_keys)
        extra = sorted(simulated_keys - reference_keys)
        raise StatsError(
            "region key mismatch: "
            f"missing from simulated {missing}, unexpected in simulated {extra}"
        )


def load_tax_reference(path) -> dict[str, dict[str, float]]:
    """Read a long-form reference CSV: region, tax_kind, total (UTF-8, a
    byte-order mark allowed)."""
    columns = ("region", "tax_kind", "total")
    out: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [name for name in columns if name not in (reader.fieldnames or [])]
        if missing:
            raise StatsError(f"{path}: missing column(s) {missing}")
        for row in reader:
            region, kind, total = (row[name] for name in columns)
            if None in (region, kind, total):
                raise StatsError(f"{path}:{reader.line_num}: expected {','.join(columns)}")
            region, kind = region.strip(), kind.strip()
            if kind not in TAX_KINDS:
                raise StatsError(f"unknown tax kind {kind!r} in {path}")
            try:
                value = float(total)
            except ValueError:
                raise StatsError(
                    f"{path}:{reader.line_num}: total {total!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise StatsError(
                    f"{path}:{reader.line_num}: total {total!r} is not a finite number"
                )
            totals = out.setdefault(region, {})
            if kind in totals:
                raise StatsError(f"{path}:{reader.line_num}: second {kind} total for {region!r}")
            totals[kind] = value
    if not out:
        raise StatsError(f"no reference rows in {path}")
    return out


def write_ks_report(report: KsReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tax_kind", "d_statistic", "p_value", "verdict", "note"])
        for row in report.rows:
            writer.writerow(
                [
                    row.kind,
                    repr(row.d_statistic),
                    repr(row.p_value),
                    "rejected" if row.rejected else "not_rejected",
                    report.note,
                ]
            )
