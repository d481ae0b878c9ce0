import numpy as np
import pytest

from policysim.fiscal import (
    ALL_REGIMES,
    DistributionMatrix,
    DistributionRegime,
    FiscalError,
    TaxLedger,
    coefficient_for,
    distribute,
    fpm_allocate,
    invest_qli,
)
from policysim.params import TAX_KINDS
from policysim.world.types import Municipality

THREE_MUNIS = ["a", "b", "c"]
EQUAL_POPS = {"a": 100, "b": 100, "c": 100}
ONE_BRACKET = [(0, 10**9, 1.0)]


def test_default_matrix_fractions():
    matrix = DistributionMatrix()
    tt = DistributionRegime(True, True)
    assert matrix.rows("consumption", tt) == [("local", 0.1875), ("equal_pool", 0.8125)]
    assert matrix.rows("labor", tt) == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert matrix.rows("transaction", tt) == [("local", 1.0)]
    assert matrix.rows("firms", tt) == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert matrix.rows("property", tt) == [("local", 1.0)]

    ft = DistributionRegime(False, True)
    assert matrix.rows("consumption", ft) == [("equal_pool", 1.0)]
    assert matrix.rows("labor", ft) == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert matrix.rows("transaction", ft) == [("equal_pool", 1.0)]
    assert matrix.rows("firms", ft) == [("equal_pool", 0.765), ("fpm_pool", 0.235)]
    assert matrix.rows("property", ft) == [("equal_pool", 1.0)]

    tf = DistributionRegime(True, False)
    ff = DistributionRegime(False, False)
    for kind in TAX_KINDS:
        assert matrix.rows(kind, tf) == [("local", 1.0)]
        assert matrix.rows(kind, ff) == [("equal_pool", 1.0)]


def test_consumption_distribution_worked_example():
    ledger = TaxLedger()
    ledger.add("a", "consumption", 100.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, True),
        DistributionMatrix(),
        THREE_MUNIS,
        EQUAL_POPS,
        ONE_BRACKET,
    )
    assert abs(receipts["a"] - (18.75 + 81.25 / 3)) <= 1e-9
    assert abs(receipts["b"] - 81.25 / 3) <= 1e-9
    assert abs(receipts["a"] - 45.833333333) <= 1e-6


def test_labor_distribution_pools():
    # equal coefficients: fpm acts as an equal split, so receipts decompose
    ledger = TaxLedger()
    ledger.add("a", "labor", 200.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, True),
        DistributionMatrix(),
        THREE_MUNIS,
        EQUAL_POPS,
        ONE_BRACKET,
    )
    expected_each = 153.0 / 3 + 47.0 / 3
    for muni in THREE_MUNIS:
        assert abs(receipts[muni] - expected_each) <= 1e-9


def test_local_regime_keeps_taxes_at_home():
    ledger = TaxLedger()
    for kind in TAX_KINDS:
        ledger.add("b", kind, 10.0)
    receipts = distribute(
        ledger,
        DistributionRegime(True, False),
        DistributionMatrix(),
        THREE_MUNIS,
        EQUAL_POPS,
        ONE_BRACKET,
    )
    assert receipts == {"a": 0.0, "b": 50.0, "c": 0.0}


def test_single_municipality_receives_everything():
    ledger = TaxLedger()
    ledger.add("solo", "consumption", 33.0)
    ledger.add("solo", "labor", 11.0)
    for regime in ALL_REGIMES:
        receipts = distribute(
            ledger, regime, DistributionMatrix(), ["solo"], {"solo": 10}, ONE_BRACKET
        )
        assert abs(receipts["solo"] - 44.0) <= 1e-9


def test_merged_regime_population_proportional():
    ledger = TaxLedger()
    ledger.add("a", "property", 60.0)
    ledger.add("c", "labor", 40.0)
    populations = {"a": 500, "b": 300, "c": 200}
    for fpm in (True, False):
        receipts = distribute(
            ledger,
            DistributionRegime(False, fpm),
            DistributionMatrix(),
            THREE_MUNIS,
            populations,
            ONE_BRACKET,
        )
        assert abs(receipts["a"] - 50.0) <= 1e-9
        assert abs(receipts["b"] - 30.0) <= 1e-9
        assert abs(receipts["c"] - 20.0) <= 1e-9


def test_merged_regime_is_collection_permutation_invariant():
    populations = {"a": 500, "b": 300, "c": 200}
    first = TaxLedger()
    first.add("a", "consumption", 77.0)
    second = TaxLedger()
    second.add("c", "consumption", 77.0)
    regime = DistributionRegime(False, True)
    matrix = DistributionMatrix()
    out1 = distribute(first, regime, matrix, THREE_MUNIS, populations, ONE_BRACKET)
    out2 = distribute(second, regime, matrix, THREE_MUNIS, populations, ONE_BRACKET)
    assert out1 == out2


def test_fpm_allocate_examples():
    assert fpm_allocate(90.0, ["a", "b", "c"], EQUAL_POPS, ONE_BRACKET) == {
        "a": 30.0,
        "b": 30.0,
        "c": 90.0 - 60.0,
    }
    brackets = [(0, 150, 1.0), (150, 10**9, 3.0)]
    shares = fpm_allocate(100.0, ["a", "b"], {"a": 100, "b": 200}, brackets)
    assert abs(shares["a"] - 25.0) <= 1e-12
    assert abs(shares["b"] - 75.0) <= 1e-12
    assert fpm_allocate(42.0, ["a"], {"a": 5}, ONE_BRACKET) == {"a": 42.0}


def test_fpm_allocate_sums_exactly():
    rng = np.random.default_rng(0)
    brackets = [(0, 100, 0.6), (100, 500, 1.0), (500, 10**9, 1.8)]
    for _ in range(200):
        pool = float(rng.uniform(0, 1e6))
        pops = {m: int(rng.integers(1, 2000)) for m in THREE_MUNIS}
        shares = fpm_allocate(pool, THREE_MUNIS, pops, brackets)
        assert sum(shares.values()) == pool


def test_population_outside_brackets_is_an_error():
    with pytest.raises(FiscalError):
        coefficient_for(5000, [(0, 100, 1.0)])


def test_conservation_over_random_ledgers():
    rng = np.random.default_rng(123)
    matrix = DistributionMatrix()
    brackets = [(0, 100, 0.6), (100, 500, 1.0), (500, 10**9, 1.8)]
    for _ in range(100):
        ledger = TaxLedger()
        for muni in THREE_MUNIS:
            for kind in TAX_KINDS:
                ledger.add(muni, kind, float(rng.uniform(0, 1000)))
        pops = {m: int(rng.integers(1, 1000)) for m in THREE_MUNIS}
        total = ledger.total()
        for regime in ALL_REGIMES:
            receipts = distribute(ledger, regime, matrix, THREE_MUNIS, pops, brackets)
            assert abs(sum(receipts.values()) - total) <= 1e-9 * total


def test_structure_override_changes_fractions():
    overrides = {"TRUE_TRUE.CONSUMPTION.LOCAL": 0.5, "TRUE_TRUE.CONSUMPTION.EQUAL_POOL": 0.5}
    matrix = DistributionMatrix(overrides)
    rows = dict(matrix.rows("consumption", DistributionRegime(True, True)))
    assert rows == {"local": 0.5, "equal_pool": 0.5}


def test_structure_override_must_sum_to_one():
    with pytest.raises(FiscalError):
        DistributionMatrix({"TRUE_TRUE.CONSUMPTION.LOCAL": 0.9})


def test_unknown_tax_kind_rejected():
    ledger = TaxLedger()
    with pytest.raises(FiscalError):
        ledger.add("a", "tithe", 1.0)
    with pytest.raises(FiscalError):
        DistributionMatrix().rows("tithe", DistributionRegime(True, True))


def test_invest_qli_examples():
    muni = Municipality(id="a", qli=1.0)
    new_qli = invest_qli(muni, 1000.0, population=100, reference_cost_per_capita=10.0)
    assert abs(new_qli - 2.0) <= 1e-12

    untouched = Municipality(id="b", qli=1.5)
    assert invest_qli(untouched, 0.0, 100, 10.0) == 1.5

    crowded = Municipality(id="c", qli=1.0)
    assert abs(invest_qli(crowded, 1000.0, 200, 10.0) - 1.5) <= 1e-12


def test_invest_qli_never_decreases():
    rng = np.random.default_rng(9)
    muni = Municipality(id="a", qli=1.0)
    for _ in range(100):
        before = muni.qli
        invest_qli(muni, float(rng.uniform(0, 100)), 50, 1.0)
        assert muni.qli >= before



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
    ledger.book("labor", ["a", "b"], codes, amounts)
    expected = left_to_right(TINY_AFTER_ONE)
    assert expected != float(np.sum(TINY_AFTER_ONE))
    assert ledger.get("a", "labor") == ledger.get("b", "labor") == expected
    # a second batch continues each key's running sum
    ledger.book("labor", ["a", "b"], np.array([1, 1]), [1e-16, 1.0])
    assert ledger.get("b", "labor") == (expected + 1e-16) + 1.0


def test_book_enters_keys_in_first_charge_order():
    # total() adds the keys in ledger order: 1 + 1 + 1e16 keeps both ones,
    # 1e16 + 1 + 1 loses them
    ledger = TaxLedger()
    ledger.book("consumption", ["a", "b", "c"], np.array([2, 1, 2, 0, 1]), [1.0, 1.0, 0.0, 1e16, 0.0])
    assert list(ledger._amounts) == [("c", "consumption"), ("b", "consumption"), ("a", "consumption")]
    assert ledger.total() == (1.0 + 1.0) + 1e16
    ledger.book("labor", ["a", "b", "c"], np.array([0]), [5.0])
    assert list(ledger._amounts)[-1] == ("a", "labor")


@pytest.mark.parametrize("position", [0, 3, 6])
def test_book_rejects_a_negative_charge_anywhere(position):
    amounts = [1.0] * 7
    amounts[position] = -0.5
    ledger = TaxLedger()
    with pytest.raises(FiscalError, match="negative tax amount -0.5 for property"):
        ledger.book("property", ["a", "b"], np.array([0, 1] * 3 + [0]), amounts)
    # the charges before the negative one are booked, as one by one
    assert ledger.total() == float(position)


def test_population_split_gives_an_empty_municipality_nothing():
    # the last municipality is empty; the residual goes to the last
    # populated one, so no share is negative
    ids = [f"m{index}" for index in range(6)]
    populations = dict(zip(ids, [393, 39, 297, 80, 312, 0]))
    ledger = TaxLedger()
    ledger.add("m0", "consumption", 981.2478859778818)
    regime = DistributionRegime(False, True)
    receipts = distribute(ledger, regime, DistributionMatrix(), ids, populations, ONE_BRACKET)
    assert receipts["m5"] == 0.0
    assert all(share > 0.0 for muni, share in receipts.items() if muni != "m5")
    assert sum(receipts.values()) == 981.2478859778818
