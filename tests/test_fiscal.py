import numpy as np
import pytest

from policysim.fiscal import (
    ALL_REGIMES,
    DistributionRegime,
    FiscalError,
    TaxLedger,
    channel_fractions,
    coefficient_for,
    distribute,
    fpm_allocate,
    invest_qli,
)
from policysim.params import TAX_KINDS

EQUAL_POPS = [100, 100, 100]
ONE_BRACKET = [(0, 10**9, 1.0)]


def test_default_matrix_fractions():
    tt = DistributionRegime(True, True)
    assert channel_fractions(tt, {})["consumption"] == [("local", 0.1875), ("equal_pool", 0.8125)]
    assert channel_fractions(tt, {})["labor"] == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert channel_fractions(tt, {})["transaction"] == [("local", 1.0)]
    assert channel_fractions(tt, {})["firms"] == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert channel_fractions(tt, {})["property"] == [("local", 1.0)]

    ft = DistributionRegime(False, True)
    assert channel_fractions(ft, {})["consumption"] == [("equal_pool", 1.0)]
    assert channel_fractions(ft, {})["labor"] == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert channel_fractions(ft, {})["transaction"] == [("equal_pool", 1.0)]
    assert channel_fractions(ft, {})["firms"] == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert channel_fractions(ft, {})["property"] == [("equal_pool", 1.0)]

    tf = DistributionRegime(True, False)
    ff = DistributionRegime(False, False)
    for kind in TAX_KINDS:
        assert channel_fractions(tf, {})[kind] == [("local", 1.0)]
        assert channel_fractions(ff, {})[kind] == [("equal_pool", 1.0)]


def test_consumption_distribution_worked_example():
    ledger = TaxLedger()
    ledger.add(0, "consumption", 100.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, True),
        {},
        EQUAL_POPS,
        ONE_BRACKET,
    )
    assert abs(receipts[0] - (18.75 + 81.25 / 3)) <= 1e-9
    assert abs(receipts[1] - 81.25 / 3) <= 1e-9
    assert abs(receipts[0] - 45.833333333) <= 1e-6


def test_labor_distribution_pools():
    # equal coefficients: fpm acts as an equal split, so receipts decompose
    ledger = TaxLedger()
    ledger.add(0, "labor", 200.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, True),
        {},
        EQUAL_POPS,
        ONE_BRACKET,
    )
    expected_each = 153.0 / 3 + 47.0 / 3
    for receipt in receipts:
        assert abs(receipt - expected_each) <= 1e-9


def test_local_regime_keeps_taxes_at_home():
    ledger = TaxLedger()
    for kind in TAX_KINDS:
        ledger.add(1, kind, 10.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, False),
        {},
        EQUAL_POPS,
        ONE_BRACKET,
    )
    assert receipts == [0.0, 50.0, 0.0]


def test_single_municipality_receives_everything():
    ledger = TaxLedger()
    ledger.add(0, "consumption", 33.0)
    ledger.add(0, "labor", 11.0)
    for regime in ALL_REGIMES:
        receipts = distribute(ledger, regime, {}, [10], ONE_BRACKET)
        assert abs(receipts[0] - 44.0) <= 1e-9


def test_merged_regime_population_proportional():
    ledger = TaxLedger()
    ledger.add(0, "property", 60.0)
    ledger.add(2, "labor", 40.0)
    populations = [500, 300, 200]
    for fpm in (True, False):
        receipts = distribute(
            ledger,
            DistributionRegime(False, fpm),
            {},
            populations,
            ONE_BRACKET,
        )
        assert abs(receipts[0] - 50.0) <= 1e-9
        assert abs(receipts[1] - 30.0) <= 1e-9
        assert abs(receipts[2] - 20.0) <= 1e-9


def test_merged_regime_is_collection_permutation_invariant():
    populations = [500, 300, 200]
    first = TaxLedger()
    first.add(0, "consumption", 77.0)
    second = TaxLedger()
    second.add(2, "consumption", 77.0)
    regime = DistributionRegime(False, True)
    out1 = distribute(first, regime, {}, populations, ONE_BRACKET)
    out2 = distribute(second, regime, {}, populations, ONE_BRACKET)
    assert out1 == out2


def test_fpm_allocate_examples():
    assert fpm_allocate(90.0, EQUAL_POPS, ONE_BRACKET) == [30.0, 30.0, 90.0 - 60.0]
    brackets = [(0, 150, 1.0), (150, 10**9, 3.0)]
    shares = fpm_allocate(100.0, [100, 200], brackets)
    assert abs(shares[0] - 25.0) <= 1e-12
    assert abs(shares[1] - 75.0) <= 1e-12
    assert fpm_allocate(42.0, [5], ONE_BRACKET) == [42.0]


def test_fpm_allocate_sums_exactly():
    rng = np.random.default_rng(0)
    brackets = [(0, 100, 0.6), (100, 500, 1.0), (500, 10**9, 1.8)]
    for _ in range(200):
        pool = float(rng.uniform(0, 1e6))
        pops = [int(rng.integers(1, 2000)) for _ in range(3)]
        shares = fpm_allocate(pool, pops, brackets)
        assert sum(shares) == pool


def test_population_outside_brackets_is_an_error():
    with pytest.raises(FiscalError):
        coefficient_for(5000, [(0, 100, 1.0)])


def test_conservation_over_random_ledgers():
    rng = np.random.default_rng(123)
    brackets = [(0, 100, 0.6), (100, 500, 1.0), (500, 10**9, 1.8)]
    for _ in range(100):
        ledger = TaxLedger()
        for code in range(3):
            for kind in TAX_KINDS:
                ledger.add(code, kind, float(rng.uniform(0, 1000)))
        pops = [int(rng.integers(1, 1000)) for _ in range(3)]
        total = ledger.total()
        for regime in ALL_REGIMES:
            receipts = distribute(ledger, regime, {}, pops, brackets)
            assert abs(sum(receipts) - total) <= 1e-9 * total


def test_structure_override_changes_fractions():
    overrides = {"TRUE_TRUE.CONSUMPTION.LOCAL": 0.5, "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.5}
    rows = dict(channel_fractions(DistributionRegime(True, True), overrides)["consumption"])
    assert rows == {"local": 0.5, "equal_pool": 0.5}


def test_structure_override_must_sum_to_one():
    with pytest.raises(FiscalError):
        channel_fractions(DistributionRegime(True, True), {"TRUE_TRUE.CONSUMPTION.LOCAL": 0.9})


def test_override_reappends_its_channel_at_the_end_of_the_row():
    tt = DistributionRegime(True, True)
    overrides = {"TRUE_TRUE.CONSUMPTION.LOCAL": 0.25, "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.75}
    assert channel_fractions(tt, overrides)["consumption"] == [
        ("local", 0.25),
        ("equal_pool", 0.75),
    ]
    reordered = {"TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.75, "TRUE_TRUE.CONSUMPTION.LOCAL": 0.25}
    assert channel_fractions(tt, reordered)["consumption"] == [
        ("equal_pool", 0.75),
        ("local", 0.25),
    ]
    # the untouched rows and the default table stay as they were
    assert channel_fractions(tt, overrides)["labor"] == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert channel_fractions(tt, {})["consumption"] == [("local", 0.1875), ("equal_pool", 0.8125)]


def test_zero_override_drops_its_channel():
    overrides = {"TRUE_TRUE.LABOR.FPM_POOL": 0.0, "TRUE_TRUE.LABOR.EQUAL_POOL": 1.0}
    rows = channel_fractions(DistributionRegime(True, True), overrides)
    assert rows["labor"] == [("equal_pool", 1.0)]


def test_override_for_another_regime_is_parsed_but_not_applied():
    tt = DistributionRegime(True, True)
    other = {"TRUE_FALSE.LABOR.LOCAL": 0.5}  # a bad row, but not tt's
    assert channel_fractions(tt, other) == channel_fractions(tt, {})
    with pytest.raises(FiscalError, match="fractions for labor"):
        channel_fractions(DistributionRegime(True, False), other)
    with pytest.raises(FiscalError, match="bad regime token"):
        channel_fractions(tt, {"MAYBE_FALSE.LABOR.LOCAL": 1.0})
    with pytest.raises(FiscalError, match="unknown channel"):
        channel_fractions(tt, {"TRUE_FALSE.LABOR.SIDEWAYS": 1.0})
    with pytest.raises(FiscalError, match="must be >= 0"):
        channel_fractions(tt, {"TRUE_FALSE.LABOR.LOCAL": -1.0})


def test_unknown_tax_kind_rejected():
    ledger = TaxLedger()
    with pytest.raises(FiscalError):
        ledger.add(0, "tithe", 1.0)


def test_invest_qli_examples():
    qli = np.array([1.0])
    invest_qli(qli, [1000.0], populations=[100], reference_cost_per_capita=10.0)
    assert abs(qli[0] - 2.0) <= 1e-12

    untouched = np.array([1.5])
    invest_qli(untouched, [0.0], [100], 10.0)
    assert untouched[0] == 1.5

    crowded = np.array([1.0])
    invest_qli(crowded, [1000.0], [200], 10.0)
    assert abs(crowded[0] - 1.5) <= 1e-12


def test_invest_qli_never_decreases():
    rng = np.random.default_rng(9)
    qli = np.array([1.0])
    for _ in range(100):
        before = qli[0]
        invest_qli(qli, [float(rng.uniform(0, 100))], [50], 1.0)
        assert qli[0] >= before


def test_invest_qli_rejects_negative_funds_and_changes_nothing():
    qli = np.array([1.0, 1.25, 1.5])
    with pytest.raises(FiscalError, match="investment funds must be >= 0"):
        invest_qli(qli, [10.0, -1e-9, 10.0], [100, 100, 100], 1.0)
    assert qli.tolist() == [1.0, 1.25, 1.5]


def test_invest_qli_divides_an_empty_municipality_by_one():
    qli = np.array([1.0, 1.0])
    invest_qli(qli, [6.0, 6.0], [0, 3], 2.0)
    assert qli.tolist() == [1.0 + 6.0 / 2.0, 1.0 + (6.0 / 3) / 2.0]


def test_invest_qli_equals_the_scalar_formula_bit_for_bit():
    start = [1.0, 1.3759172035, 2.0000000000000004]
    funds = [981.2478859778818, 0.1, 7.3e-5]
    populations = [393, 1, 29777]
    cost = 0.2
    qli = np.array(start)
    invest_qli(qli, funds, populations, cost)
    expected = [
        q + (f / max(1, n)) / cost for q, f, n in zip(start, funds, populations)
    ]
    assert qli.tolist() == expected



# TaxLedger.book must equal booking its charges one by one, in order.
# Canary for the numpy property it relies on: np.add.at adds repeated
# indices in index order, left to right, while np.sum adds in pairs.
TINY_AFTER_ONE = [1.0] + [1e-16] * 1000  # 1.0 + 1e-16 rounds back to 1.0


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_add_at_adds_repeated_indices_left_to_right():
    # three owners' charges interleaved; right to left or in pairs, the
    # tiny charges would add up before meeting the 1.0
    owners = np.tile([0, 1, 2], len(TINY_AFTER_ONE))
    values = np.repeat(TINY_AFTER_ONE, 3)
    totals = np.zeros(3)
    np.add.at(totals, owners, values)
    assert left_to_right(TINY_AFTER_ONE) == 1.0
    assert float(np.sum(TINY_AFTER_ONE)) != 1.0
    assert left_to_right(TINY_AFTER_ONE[::-1]) != 1.0
    assert totals.tolist() == [1.0, 1.0, 1.0]


def test_book_sums_each_key_left_to_right():
    ledger = TaxLedger()
    codes = np.tile([0, 1], len(TINY_AFTER_ONE))
    amounts = np.repeat(TINY_AFTER_ONE, 2)
    ledger.book("labor", codes, amounts)
    expected = left_to_right(TINY_AFTER_ONE)
    assert expected != float(np.sum(TINY_AFTER_ONE))
    assert ledger.get(0, "labor") == ledger.get(1, "labor") == expected
    # a second batch continues each key's running sum
    ledger.book("labor", np.array([1, 1]), [1e-16, 1.0])
    assert ledger.get(1, "labor") == (expected + 1e-16) + 1.0


def test_book_enters_keys_in_first_charge_order():
    # total() adds the keys in ledger order: 1 + 1 + 1e16 keeps both ones,
    # 1e16 + 1 + 1 loses them
    ledger = TaxLedger()
    ledger.book("consumption", np.array([2, 1, 2, 0, 1]), [1.0, 1.0, 0.0, 1e16, 0.0])
    assert list(ledger._amounts) == [(2, "consumption"), (1, "consumption"), (0, "consumption")]
    assert ledger.total() == (1.0 + 1.0) + 1e16
    ledger.book("labor", np.array([0]), [5.0])
    assert list(ledger._amounts)[-1] == (0, "labor")


@pytest.mark.parametrize("position", [0, 3, 6])
def test_book_rejects_a_negative_charge_anywhere(position):
    amounts = [1.0] * 7
    amounts[position] = -0.5
    ledger = TaxLedger()
    with pytest.raises(FiscalError, match="negative tax amount -0.5 for property"):
        ledger.book("property", np.array([0, 1] * 3 + [0]), amounts)
    # the charges before the negative one are booked, as one by one
    assert ledger.total() == float(position)


def test_population_split_gives_an_empty_municipality_nothing():
    # the last municipality is empty; the residual goes to the last
    # populated one, so no share is negative
    populations = [393, 39, 297, 80, 312, 0]
    ledger = TaxLedger()
    ledger.add(0, "consumption", 981.2478859778818)
    regime = DistributionRegime(False, True)
    receipts = distribute(ledger, regime, {}, populations, ONE_BRACKET)
    assert receipts[5] == 0.0
    assert all(share > 0.0 for share in receipts[:5])
    assert sum(receipts) == 981.2478859778818
