"""Monthly tax ledger, distribution regimes, and municipal investment.

Collected taxes accumulate in a per-municipality, per-kind ledger during the
month. At the fiscal step the ledger is distributed to municipalities under
one of four regimes and invested into each municipality's quality-of-life
index. Investment removes money from circulation; it is the single
intentional sink in the monetary audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import TAX_KINDS

CHANNELS = ("local", "equal_pool", "fpm_pool")
FRACTION_TOLERANCE = 1e-12


class FiscalError(ValueError):
    """Bad tax kind, malformed fraction row, or unmapped population."""


class TaxLedger:
    """Current-month collections keyed by (municipality id, tax kind)."""

    def __init__(self) -> None:
        self._amounts: dict[tuple[str, str], float] = {}

    def add(self, municipality_id: str, kind: str, amount: float) -> None:
        """Book a single charge."""
        self.book(kind, [municipality_id], np.zeros(1, dtype=np.int64), [amount])

    def book(
        self,
        kind: str,
        municipality_ids: Sequence[str],
        codes: np.ndarray,
        amounts: Sequence[float],
    ) -> None:
        """Book charge i, ``amounts[i]``, to ``(municipality_ids[codes[i]], kind)``.

        The result is that of booking the charges one by one, in order: a
        key enters the ledger at its first charge, and each key's charges
        are added to it left to right (``np.add.at`` adds repeated indices
        in index order; ``np.sum`` may add in pairs). Every charge must be
        >= 0: the first negative one raises FiscalError after the charges
        before it are booked.
        """
        if kind not in TAX_KINDS:
            raise FiscalError(f"unknown tax kind {kind!r}")
        amounts = np.asarray(amounts, dtype=float)
        negative = (amounts < 0.0).nonzero()[0]
        end = int(negative[0]) if len(negative) else len(amounts)
        codes = np.asarray(codes, dtype=np.int64)[:end]
        # the charged municipalities, in the order of their first charges
        first = np.full(len(municipality_ids), end)
        np.minimum.at(first, codes, np.arange(end))
        order = first.argsort()
        charged = order[first[order] < end].tolist()
        totals = np.zeros(len(municipality_ids))
        for code in charged:
            totals[code] = self._amounts.get((municipality_ids[code], kind), 0.0)
        np.add.at(totals, codes, amounts[:end])
        for code, total in zip(charged, totals[charged].tolist()):
            self._amounts[municipality_ids[code], kind] = total
        if end < len(amounts):
            raise FiscalError(f"negative tax amount {float(amounts[end])!r} for {kind}")

    def get(self, municipality_id: str, kind: str) -> float:
        return self._amounts.get((municipality_id, kind), 0.0)

    def total(self) -> float:
        return sum(self._amounts.values())

    def total_by_kind(self) -> dict[str, float]:
        totals = {kind: 0.0 for kind in TAX_KINDS}
        for (_, kind), amount in self._amounts.items():
            totals[kind] += amount
        return totals

    def reset(self) -> None:
        self._amounts.clear()


@dataclass(frozen=True)
class DistributionRegime:
    """One of the four regimes spanned by the two boolean switches."""

    alternative0: bool
    fpm_distribution: bool


# Default channel fractions per (regime, tax kind). Channels:
#   local      - stays with the collecting municipality
#   equal_pool - pooled and split equally across the ACP's municipalities
#   fpm_pool   - pooled and split by population-bracket coefficients
_DEFAULT_FRACTIONS: dict[DistributionRegime, dict[str, list[tuple[str, float]]]] = {
    DistributionRegime(True, True): {
        "consumption": [("local", 0.1875), ("equal_pool", 0.8125)],
        "labor": [("equal_pool", 0.765), ("fpm_pool", 0.235)],
        "transaction": [("local", 1.0)],
        "firms": [("equal_pool", 0.765), ("fpm_pool", 0.235)],
        "property": [("local", 1.0)],
    },
    DistributionRegime(True, False): {kind: [("local", 1.0)] for kind in TAX_KINDS},
    DistributionRegime(False, True): {
        "consumption": [("equal_pool", 1.0)],
        "labor": [("equal_pool", 0.765), ("fpm_pool", 0.235)],
        "transaction": [("equal_pool", 1.0)],
        "firms": [("equal_pool", 0.765), ("fpm_pool", 0.235)],
        "property": [("equal_pool", 1.0)],
    },
    DistributionRegime(False, False): {kind: [("equal_pool", 1.0)] for kind in TAX_KINDS},
}

# in the order the distributions run type expands its configurations
ALL_REGIMES = tuple(_DEFAULT_FRACTIONS)


class DistributionMatrix:
    """Channel fractions per (tax kind, regime), overridable from config."""

    def __init__(self, overrides: dict[str, float] | None = None) -> None:
        self._rows: dict[DistributionRegime, dict[str, list[tuple[str, float]]]] = {
            regime: {kind: list(rows) for kind, rows in table.items()}
            for regime, table in _DEFAULT_FRACTIONS.items()
        }
        if overrides:
            self._apply_overrides(overrides)
        self.validate()

    @staticmethod
    def _parse_override_key(key: str) -> tuple[DistributionRegime, str, str]:
        # key format: <TRUE|FALSE>_<TRUE|FALSE>.<KIND>.<CHANNEL>
        parts = key.upper().split(".")
        if len(parts) != 3:
            raise FiscalError(
                f"bad structure override {key!r}; expected REGIME.KIND.CHANNEL"
            )
        regime_part, kind_part, channel_part = parts
        try:
            alt0_token, fpm_token = regime_part.split("_")
            if alt0_token not in ("TRUE", "FALSE") or fpm_token not in ("TRUE", "FALSE"):
                raise ValueError
        except ValueError as exc:
            raise FiscalError(f"bad regime token in override {key!r}") from exc
        if alt0_token == "FALSE":
            raise FiscalError(
                f"override {key!r}: merged regimes (ALTERNATIVE0 = false) "
                "ignore channel fractions"
            )
        regime = DistributionRegime(True, fpm_token == "TRUE")
        kind = kind_part.lower()
        if kind not in TAX_KINDS:
            raise FiscalError(f"unknown tax kind in override {key!r}")
        channel = channel_part.lower()
        if channel not in CHANNELS:
            raise FiscalError(f"unknown channel in override {key!r}")
        return regime, kind, channel

    def _apply_overrides(self, overrides: dict[str, float]) -> None:
        for key, fraction in overrides.items():
            regime, kind, channel = self._parse_override_key(key)
            if not fraction >= 0.0:
                raise FiscalError(f"override {key!r} = {fraction!r} must be >= 0")
            rows = [(ch, fr) for ch, fr in self._rows[regime][kind] if ch != channel]
            if fraction > 0.0:
                rows.append((channel, float(fraction)))
            self._rows[regime][kind] = rows

    def validate(self) -> None:
        for regime, table in self._rows.items():
            for kind in TAX_KINDS:
                if kind not in table:
                    raise FiscalError(f"missing fractions for {kind} in {regime}")
                total = sum(fraction for _, fraction in table[kind])
                if abs(total - 1.0) > FRACTION_TOLERANCE:
                    raise FiscalError(
                        f"fractions for {kind} in regime {regime} sum to {total!r}"
                    )

    def rows(self, kind: str, regime: DistributionRegime) -> list[tuple[str, float]]:
        if kind not in TAX_KINDS:
            raise FiscalError(f"unknown tax kind {kind!r}")
        return list(self._rows[regime][kind])


def coefficient_for(population: int, brackets: list[tuple[int, int, float]]) -> float:
    """Look up the bracket coefficient for a population count."""
    for lower, upper, coefficient in brackets:
        if lower <= population < upper:
            return coefficient
    raise FiscalError(f"population {population} is outside every coefficient bracket")


def fpm_allocate(
    pool: float,
    municipality_ids: list[str],
    populations: dict[str, int],
    brackets: list[tuple[int, int, float]],
) -> dict[str, float]:
    """Split a pool by each municipality's population-bracket coefficient.

    Shares are proportional to coefficients; the last recipient with a
    positive coefficient absorbs the rounding residual so the shares sum to
    the pool exactly.
    """
    coefficients = [
        coefficient_for(populations.get(muni, 0), brackets) for muni in municipality_ids
    ]
    return _split_by_weight(pool, municipality_ids, coefficients)


def _split_by_weight(
    pool: float, municipality_ids: list[str], weights: list[float]
) -> dict[str, float]:
    """Shares proportional to weights; the last recipient with a positive
    weight takes the rounding residual, and a zero weight gets exactly 0.0."""
    total_weight = sum(weights)
    last = max(
        (index for index, weight in enumerate(weights) if weight > 0),
        default=len(weights) - 1,
    )
    shares: dict[str, float] = {}
    running = 0.0
    for index, (muni, weight) in enumerate(zip(municipality_ids, weights)):
        if index != last:
            shares[muni] = pool * weight / total_weight
            running += shares[muni]
    shares[municipality_ids[last]] = pool - running
    return shares


def _split_equally(pool: float, municipality_ids: list[str]) -> dict[str, float]:
    count = len(municipality_ids)
    share = pool / count
    out = {muni: share for muni in municipality_ids[:-1]}
    out[municipality_ids[-1]] = pool - share * (count - 1)
    return out


def _split_by_population(
    pool: float, municipality_ids: list[str], populations: dict[str, int]
) -> dict[str, float]:
    weights = [populations.get(muni, 0) for muni in municipality_ids]
    if sum(weights) <= 0:
        return _split_equally(pool, municipality_ids)
    return _split_by_weight(pool, municipality_ids, weights)


def distribute(
    ledger: TaxLedger,
    regime: DistributionRegime,
    matrix: DistributionMatrix,
    municipality_ids: list[str],
    populations: dict[str, int],
    fpm_brackets: list[tuple[int, int, float]],
) -> dict[str, float]:
    """Distribute the month's ledger to municipalities under a regime.

    With alternative0 false the whole ACP behaves as one merged municipality:
    every tax ends up in a single pot that is handed back in
    population-proportional shares, regardless of channel structure.
    """
    if not municipality_ids:
        raise FiscalError("cannot distribute without municipalities")
    if not regime.alternative0:
        return _split_by_population(ledger.total(), municipality_ids, populations)

    receipts = {muni: 0.0 for muni in municipality_ids}
    for kind in TAX_KINDS:
        for channel, fraction in matrix.rows(kind, regime):
            if channel == "local":
                for muni in municipality_ids:
                    receipts[muni] += fraction * ledger.get(muni, kind)
                continue
            pool = fraction * sum(ledger.get(muni, kind) for muni in municipality_ids)
            if channel == "equal_pool":
                allocated = _split_equally(pool, municipality_ids)
            elif channel == "fpm_pool":
                allocated = fpm_allocate(
                    pool, municipality_ids, populations, fpm_brackets
                )
            else:
                raise FiscalError(f"unknown channel {channel!r}")
            for muni, share in allocated.items():
                receipts[muni] += share
    return receipts


def invest_qli(
    municipality, funds: float, population: int, reference_cost_per_capita: float
) -> float:
    """Convert a month's receipts into quality of life, per resident.

    Money leaves circulation here. Returns the new index value.
    """
    if funds < 0.0:
        raise FiscalError("investment funds must be >= 0")
    municipality.qli += (funds / max(1, population)) / reference_cost_per_capita
    return municipality.qli

