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
    """Current-month collections keyed by (municipality row, tax kind)."""

    def __init__(self) -> None:
        self._amounts: dict[tuple[int, str], float] = {}

    def book(self, kind: str, codes: Sequence[int], amounts: Sequence[float]) -> None:
        """Book charge i, ``amounts[i]``, to ``(codes[i], kind)``.

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
        rows = int(codes.max()) + 1 if end else 0
        # the charged municipalities, in the order of their first charges
        first = np.full(rows, end)
        np.minimum.at(first, codes, np.arange(end))
        order = first.argsort()
        charged = order[first[order] < end].tolist()
        totals = np.zeros(rows)
        for code in charged:
            totals[code] = self._amounts.get((code, kind), 0.0)
        np.add.at(totals, codes, amounts[:end])
        for code, total in zip(charged, totals[charged].tolist()):
            self._amounts[code, kind] = total
        if end < len(amounts):
            raise FiscalError(f"negative tax amount {float(amounts[end])!r} for {kind}")

    def get(self, code: int, kind: str) -> float:
        return self._amounts.get((code, kind), 0.0)

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


def channel_fractions(
    regime: DistributionRegime, overrides: dict[str, float]
) -> dict[str, list[tuple[str, float]]]:
    """Each tax kind's (channel, fraction) row under a regime.

    Every ``TAXES_STRUCTURE`` override key is checked, whatever regime it
    names; only those naming ``regime`` apply. An override removes its
    channel from the row and re-appends it at the end, or drops it for a
    zero fraction. The regime's rows must then each sum to 1. Without
    overrides the default table itself is returned: do not mutate it.
    """
    table = _DEFAULT_FRACTIONS[regime]
    if not overrides:
        return table
    table = dict(table)
    for key, fraction in overrides.items():
        # key format: <TRUE|FALSE>_<TRUE|FALSE>.<KIND>.<CHANNEL>
        parts = key.upper().split(".")
        if len(parts) != 3:
            raise FiscalError(f"bad structure override {key!r}; expected REGIME.KIND.CHANNEL")
        tokens = parts[0].split("_")
        if len(tokens) != 2 or not {*tokens} <= {"TRUE", "FALSE"}:
            raise FiscalError(f"bad regime token in override {key!r}")
        if tokens[0] == "FALSE":
            raise FiscalError(
                f"override {key!r}: merged regimes (ALTERNATIVE0 = false) "
                "ignore channel fractions"
            )
        kind, channel = parts[1].lower(), parts[2].lower()
        if kind not in TAX_KINDS:
            raise FiscalError(f"unknown tax kind in override {key!r}")
        if channel not in CHANNELS:
            raise FiscalError(f"unknown channel in override {key!r}")
        if not fraction >= 0.0:
            raise FiscalError(f"override {key!r} = {fraction!r} must be >= 0")
        if regime == DistributionRegime(True, tokens[1] == "TRUE"):
            rows = [(ch, fr) for ch, fr in table[kind] if ch != channel]
            if fraction > 0.0:
                rows.append((channel, float(fraction)))
            table[kind] = rows
    for kind, rows in table.items():
        total = sum(fraction for _, fraction in rows)
        if abs(total - 1.0) > FRACTION_TOLERANCE:
            raise FiscalError(f"fractions for {kind} in regime {regime} sum to {total!r}")
    return table


def coefficient_for(population: int, brackets: list[tuple[int, int, float]]) -> float:
    """Look up the bracket coefficient for a population count."""
    for lower, upper, coefficient in brackets:
        if lower <= population < upper:
            return coefficient
    raise FiscalError(f"population {population} is outside every coefficient bracket")


def fpm_allocate(
    pool: float, populations: list[int], brackets: list[tuple[int, int, float]]
) -> list[float]:
    """Split a pool by each municipality's population-bracket coefficient.

    Shares are proportional to coefficients; the last recipient with a
    positive coefficient absorbs the rounding residual so the shares sum to
    the pool exactly.
    """
    return _split_by_weight(
        pool, [coefficient_for(population, brackets) for population in populations]
    )


def _split_by_weight(pool: float, weights: list[float]) -> list[float]:
    """Shares proportional to weights; the last recipient with a positive
    weight takes the rounding residual, and a zero weight gets exactly 0.0."""
    total_weight = sum(weights)
    last = max(
        (index for index, weight in enumerate(weights) if weight > 0),
        default=len(weights) - 1,
    )
    shares = [0.0] * len(weights)
    running = 0.0
    for index, weight in enumerate(weights):
        if index != last:
            shares[index] = pool * weight / total_weight
            running += shares[index]
    shares[last] = pool - running
    return shares


def _split_equally(pool: float, count: int) -> list[float]:
    share = pool / count
    return [share] * (count - 1) + [pool - share * (count - 1)]


def _split_by_population(pool: float, populations: list[int]) -> list[float]:
    if sum(populations) <= 0:
        return _split_equally(pool, len(populations))
    return _split_by_weight(pool, populations)


def distribute(
    ledger: TaxLedger,
    regime: DistributionRegime,
    overrides: dict[str, float],
    populations: list[int],
    fpm_brackets: list[tuple[int, int, float]],
) -> list[float]:
    """Each municipality's receipts from the month's ledger under a regime.

    ``populations`` and the returned receipts are indexed by municipality
    row, the ledger's codes. ``overrides`` is the ``TAXES_STRUCTURE`` dict
    (see channel_fractions). With alternative0 false the whole ACP behaves
    as one merged municipality: every tax ends up in a single pot that is
    handed back in population-proportional shares, regardless of channel
    structure.
    """
    if not populations:
        raise FiscalError("cannot distribute without municipalities")
    if not regime.alternative0:
        return _split_by_population(ledger.total(), populations)

    receipts = [0.0] * len(populations)
    for kind, rows in channel_fractions(regime, overrides).items():
        amounts = [ledger.get(code, kind) for code in range(len(populations))]
        for channel, fraction in rows:
            if channel == "local":
                shares = [fraction * amount for amount in amounts]
            elif channel == "equal_pool":
                shares = _split_equally(fraction * sum(amounts), len(amounts))
            else:
                shares = fpm_allocate(fraction * sum(amounts), populations, fpm_brackets)
            receipts = [receipt + share for receipt, share in zip(receipts, shares)]
    return receipts


def invest_qli(
    qli: np.ndarray,
    funds: Sequence[float],
    populations: Sequence[int],
    reference_cost_per_capita: float,
) -> None:
    """Convert a month's receipts into quality of life, per resident, in place.

    Each entry gains ``(funds / max(1, population)) / reference_cost_per_capita``.
    Money leaves circulation here. Negative funds raise before any change.
    """
    funds = np.asarray(funds, dtype=float)
    if (funds < 0.0).any():
        raise FiscalError("investment funds must be >= 0")
    qli += (funds / np.maximum(1, populations)) / reference_cost_per_capita
