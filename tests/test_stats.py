import numpy as np
import pytest

from policysim.fiscal import TaxLedger
from policysim.params import TAX_KINDS
from policysim.scheduler import MonthRecord
from policysim.stats import (
    KsReport,
    StatsError,
    compare_tax_distributions,
    gini,
    kolmogorov_survival,
    ks_two_sample,
    load_tax_reference,
    ordered_sum,
    write_ks_report,
)


def brute_force_ks(a, b):
    """Independent oracle: sweep the ECDF gap over every sample point."""
    best = 0.0
    for x in list(a) + list(b):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def test_ordered_sum_adds_left_to_right():
    # CPython 3.12's builtin sum compensates float rounding and gives 1.0
    # for both lists; adding left to right gives 3.11's sum on every version
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert ordered_sum(iter([0.5, 0.25])) == 0.75
    assert ordered_sum([]) == 0


def test_tax_totals_add_left_to_right():
    ledger = TaxLedger()
    ledger.book("labor", range(10), [0.1] * 10)
    assert ledger.total() == 0.9999999999999999
    record = MonthRecord(0, 1, 0.0, 1.0, 0.0, 1.0, 0.0, {f"k{i}": 0.1 for i in range(10)}, {})
    assert record.tax_total == 0.9999999999999999
    # one region each: the totals' samples differ only by the order of adding
    simulated = {"a": {f"k{i}": 0.1 for i in range(10)}}
    report = compare_tax_distributions(simulated, {"a": {"labor": 1.0}})
    assert report.rows[-1].d_statistic == 1.0


def test_ks_identical_samples():
    sample = [3.0, 1.0, 4.0, 1.5]
    d, p = ks_two_sample(sample, sample)
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    d, _ = ks_two_sample([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert d == 1.0


def test_ks_quarter_example():
    d, _ = ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5])
    assert abs(d - 0.25) <= 1e-12


def test_ks_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        na = int(rng.integers(1, 51))
        nb = int(rng.integers(1, 51))
        a = rng.normal(0, 1, size=na)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=nb)
        d, p = ks_two_sample(a, b)
        assert abs(d - brute_force_ks(a.tolist(), b.tolist())) <= 1e-12
        assert 0.0 <= d <= 1.0
        assert 0.0 <= p <= 1.0


def test_ks_symmetry():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, size=20)
    b = rng.uniform(0, 2, size=35)
    assert ks_two_sample(a, b) == ks_two_sample(b, a)


def test_ks_empty_sample_rejected():
    with pytest.raises(StatsError):
        ks_two_sample([], [1.0])


def test_kolmogorov_survival_reference_points():
    assert kolmogorov_survival(0.0) == 1.0
    # classical critical value: Q(1.3581) is roughly 0.05
    assert abs(kolmogorov_survival(1.3581) - 0.05) <= 5e-4
    assert kolmogorov_survival(10.0) <= 1e-12
    # below lambda ~0.043 the alternating series needs more than 100 terms
    for lam in (3e-5, 0.001, 0.005, 0.04):
        assert abs(kolmogorov_survival(lam) - 1.0) <= 1e-12
    # a shift of half a unit over a million points: D = 1e-6, lambda ~ 0.0007
    shifted = np.arange(1e6)
    assert ks_two_sample(shifted, shifted + 0.5)[1] > 0.99


def brute_force_gini(values):
    n = len(values)
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    diff_sum = sum(abs(x - y) for x in values for y in values)
    return diff_sum / (2 * n * n * mean)


def test_gini_examples():
    assert gini([5.0, 5.0, 5.0]) == 0.0
    assert abs(gini([0.0, 0.0, 0.0, 1.0]) - 0.75) <= 1e-12
    assert gini([7.0]) == 0.0
    assert gini([0.0, 0.0]) == 0.0


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        values = rng.uniform(0, 100, size=int(rng.integers(1, 30))).tolist()
        assert abs(gini(values) - brute_force_gini(values)) <= 1e-10


def test_gini_rejects_negative_values():
    with pytest.raises(StatsError):
        gini([1.0, -0.5])


def totals(scale=1.0):
    regions = ["r1", "r2", "r3", "r4"]
    out = {}
    for i, region in enumerate(regions):
        out[region] = {
            kind: scale * (10.0 + 3.0 * i + j) for j, kind in enumerate(TAX_KINDS)
        }
    return out


def test_compare_identical_distributions():
    report = compare_tax_distributions(totals(), totals())
    assert len(report.rows) == 6  # five kinds plus the total
    assert [row.kind for row in report.rows] == list(TAX_KINDS) + ["total"]
    for row in report.rows:
        assert row.d_statistic == 0.0
        assert not row.rejected


def test_compare_detects_scale_and_carries_note():
    report = compare_tax_distributions(totals(), totals(scale=1000.0))
    for row in report.rows:
        assert row.d_statistic == 1.0
    assert "raw values" in report.note


def test_compare_region_mismatch_reported():
    reference = totals()
    reference["extra"] = dict(reference["r1"])
    with pytest.raises(StatsError) as err:
        compare_tax_distributions(totals(), reference)
    assert "extra" in str(err.value)


def test_reference_roundtrip(tmp_path):
    report = compare_tax_distributions(totals(), totals())
    path = tmp_path / "ks_report.csv"
    write_ks_report(report, path)
    content = path.read_text().splitlines()
    assert content[0].startswith("tax_kind,")
    assert len(content) == 7

    ref_path = tmp_path / "reference.csv"
    with open(ref_path, "w") as fh:
        fh.write("region,tax_kind,total\n")
        for region, kinds in totals().items():
            for kind, value in kinds.items():
                fh.write(f"{region},{kind},{value}\n")
    loaded = load_tax_reference(ref_path)
    assert loaded == totals()

    # a spreadsheet export may start with a byte-order mark
    bom_path = tmp_path / "reference_bom.csv"
    bom_path.write_text(ref_path.read_text(), encoding="utf-8-sig")
    assert bom_path.read_bytes().startswith(b"\xef\xbb\xbfregion,")
    assert load_tax_reference(bom_path) == totals()


@pytest.mark.parametrize(
    "text, message",
    [
        ("region,kind,total\nr1,labor,1.0\n", "missing column(s) ['tax_kind']"),
        ("region,tax_kind,total\nr1,labor,lots\n", "total 'lots' is not a number"),
        ("region,tax_kind,total\nr1,labor\n", "expected region,tax_kind,total"),
        ("region,tax_kind,total\nr1,wealth,1.0\n", "unknown tax kind 'wealth'"),
        ("region,tax_kind,total\nr1,labor,1.0\nr1,labor,5.0\n", "second labor total for 'r1'"),
        ("region,tax_kind,total\nr1,labor,nan\n", "reference.csv:2: total 'nan' is not a finite"),
        ("region,tax_kind,total\nr1,labor,1.0\nr2,labor,inf\n", "reference.csv:3: total 'inf'"),
    ],
    ids=[
        "missing column",
        "non-numeric total",
        "short row",
        "unknown kind",
        "duplicate row",
        "nan total",
        "infinite total",
    ],
)
def test_malformed_reference_raises_stats_error(tmp_path, text, message):
    path = tmp_path / "reference.csv"
    path.write_text(text)
    with pytest.raises(StatsError) as err:
        load_tax_reference(path)
    assert message in str(err.value)
