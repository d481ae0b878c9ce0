import csv
import hashlib
import io
import json
import math
import os
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from policysim import (
    GenerationError,
    RegionData,
    RegionDataError,
    SimParams,
    distance,
    generate_world,
    load_region_data,
)
from policysim.cli import default_data_dir
from policysim.labor import calibrate_initial_unemployment
from policysim.scheduler import run
from policysim.world.generate import (
    HOUSE_DRAW_BOUNDS,
    HOUSE_SIZE_RANGE,
    INITIAL_WAGE_OFFER,
    _draw_rows,
    _schooling,
    _uniforms,
    allocate_proportionally,
)
from policysim.world.regions import MunicipalitySpec
from policysim.world.types import distances

from conftest import assert_ownership_partition, make_region
from test_golden import scaled_region


def test_fixture3_loads(fixture3):
    assert [m.id for m in fixture3.municipalities] == ["core", "north", "east"]
    assert [m.target_population for m in fixture3.municipalities] == [600, 300, 100]
    assert sum(m.target_population for m in fixture3.municipalities) == 1000
    assert max(fixture3.mortality["female"]) == 120


MINIMAL_FILES = {
    "municipalities.csv": "id,target_population,xmin,ymin,xmax,ymax\nm0,50,0,0,5,5\n",
    "age_gender.csv": "age,p_female,p_male\n30,0.5,0.5\n",
    "qualification.csv": (
        "age_band,years_schooling,probability\n0-120,9,1.0\n"
    ),
    "fertility.csv": "age,annual_rate\n30,0.1\n",
    "fpm_coefficients.csv": (
        "population_min,population_max,coefficient\n0,1000000,1.0\n"
    ),
}


def write_minimal_region(directory, overrides=None):
    files = dict(MINIMAL_FILES)
    mortality_rows = ["age,gender,annual_probability"]
    for age in range(121):
        p = "1.0" if age == 120 else "0.01"
        mortality_rows.append(f"{age},female,{p}")
        mortality_rows.append(f"{age},male,{p}")
    files["mortality.csv"] = "\n".join(mortality_rows) + "\n"
    if overrides:
        files.update(overrides)
    for name, content in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(content)


def test_minimal_region_loads(tmp_path):
    write_minimal_region(tmp_path)
    region = load_region_data(str(tmp_path))
    assert len(region.municipalities) == 1
    assert region.municipalities[0].id == "m0"


def test_mortality_probability_out_of_range_names_file_and_line(tmp_path):
    rows = ["age,gender,annual_probability"]
    for age in range(121):
        p = "1.0" if age == 120 else "0.01"
        rows.append(f"{age},female,{p}")
        rows.append(f"{age},male,{p}")
    rows[5] = "2,female,1.2"  # line 6 of the file
    write_minimal_region(tmp_path, {"mortality.csv": "\n".join(rows) + "\n"})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "mortality.csv" in str(err.value)
    assert ":6" in str(err.value)


def test_mortality_probability_out_of_range_after_blank_lines_names_its_line(tmp_path):
    rows = ["age,gender,annual_probability"]
    for age in range(121):
        p = "1.0" if age == 120 else "0.01"
        rows.append(f"{age},female,{p}")
        rows.append(f"{age},male,{p}")
    rows[5] = "2,female,1.2"
    rows[3:3] = [""]
    rows[1:1] = [""]  # the bad row is now on line 8 of the file
    write_minimal_region(tmp_path, {"mortality.csv": "\n".join(rows) + "\n"})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "mortality.csv:8" in str(err.value)


def test_missing_file_reported(tmp_path):
    write_minimal_region(tmp_path)
    os.remove(os.path.join(tmp_path, "fertility.csv"))
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "fertility.csv" in str(err.value)


def test_probability_rows_must_sum_to_one(tmp_path):
    write_minimal_region(
        tmp_path, {"age_gender.csv": "age,p_female,p_male\n30,0.5,0.4\n"}
    )
    with pytest.raises(RegionDataError):
        load_region_data(str(tmp_path))


def test_mortality_must_reach_one(tmp_path):
    rows = ["age,gender,annual_probability"]
    for age in range(121):
        rows.append(f"{age},female,0.5")
        rows.append(f"{age},male,0.5")
    write_minimal_region(tmp_path, {"mortality.csv": "\n".join(rows) + "\n"})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "terminal" in str(err.value)


def test_zero_target_population_rejected(tmp_path):
    write_minimal_region(
        tmp_path,
        {"municipalities.csv": "id,target_population,xmin,ymin,xmax,ymax\nm0,0,0,0,5,5\n"},
    )
    with pytest.raises(RegionDataError):
        load_region_data(str(tmp_path))


@pytest.mark.parametrize(
    "muni_id", ['"Sao Paulo, SP"', '"say ""hi"""', '"two\nlines"', '"carriage\rreturn"']
)
def test_municipality_id_that_breaks_csv_columns_rejected(tmp_path, muni_id):
    # the id becomes the qli_<id> column name of monthly.csv
    header = "id,target_population,xmin,ymin,xmax,ymax\n"
    write_minimal_region(
        tmp_path, {"municipalities.csv": header + "m0,50,0,0,5,5\n" + muni_id + ",600,0,0,5,5\n"}
    )
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "municipalities.csv:3" in str(err.value)


def test_brackets_must_cover_every_target_population(tmp_path):
    write_minimal_region(
        tmp_path,
        {"fpm_coefficients.csv": "population_min,population_max,coefficient\n0,50,1.0\n"},
    )
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert "fpm_coefficients.csv" in str(err.value)
    assert "'m0'" in str(err.value)


def _mortality_with(value):
    rows = ["age,gender,annual_probability"]
    for age in range(121):
        p = "1.0" if age == 120 else "0.01"
        rows.append(f"{age},female,{value if age == 1 else p}")
        rows.append(f"{age},male,{p}")
    return "\n".join(rows) + "\n"


# file -> (its contents with one number replaced by {value}, that line, its column)
NON_FINITE_CASES = {
    "municipalities.csv": (
        "id,target_population,xmin,ymin,xmax,ymax\nm0,50,0,0,{value},5\n", 2, "xmax"
    ),
    "age_gender.csv": ("age,p_female,p_male\n30,{value},0.5\n", 2, "p_female"),
    "qualification.csv": (
        "age_band,years_schooling,probability\n0-120,9,{value}\n", 2, "probability"
    ),
    "mortality.csv": (_mortality_with("{value}"), 4, "annual_probability"),
    "fertility.csv": ("age,annual_rate\n25,{value}\n30,0.1\n", 2, "annual_rate"),
    "fpm_coefficients.csv": (
        "population_min,population_max,coefficient\n0,1000000,{value}\n", 2, "coefficient"
    ),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("file", sorted(NON_FINITE_CASES))
def test_non_finite_number_rejected_naming_file_line_and_column(tmp_path, file, value):
    # fertility 25,inf would make every 25-year-old woman give birth each
    # month, and a nan FPM coefficient would make every QLI nan
    contents, line, column = NON_FINITE_CASES[file]
    write_minimal_region(tmp_path, {file: contents.format(value=value)})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert str(err.value) == (
        f"{file}:{line}: column {column!r}: not a finite number: {value!r}"
    )


def test_negative_fertility_age_rejected(tmp_path):
    write_minimal_region(tmp_path, {"fertility.csv": "age,annual_rate\n30,0.1\n-1,0.1\n"})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert str(err.value) == "fertility.csv:3: negative age -1"


def test_blank_first_line_is_a_header_missing_every_column(tmp_path):
    # csv.DictReader also takes a blank first line for an empty header
    text = "\nage,annual_rate\n30,0.1\n"
    assert csv.DictReader(io.StringIO(text)).fieldnames == []
    write_minimal_region(tmp_path, {"fertility.csv": text})
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert str(err.value) == "fertility.csv:1: missing columns: age, annual_rate"


def test_absent_age_band_cell_names_file_and_line(tmp_path):
    write_minimal_region(
        tmp_path, {"qualification.csv": "years_schooling,probability,age_band\n9,1.0\n"}
    )
    with pytest.raises(RegionDataError) as err:
        load_region_data(str(tmp_path))
    assert str(err.value) == (
        "qualification.csv:2: age_band must look like '16-24', got None"
    )


def test_files_that_start_with_a_byte_order_mark_load(tmp_path, fixture3, fixture3_path):
    # spreadsheet exports often save CSV as utf-8-sig
    directory = tmp_path / "fixture3"
    directory.mkdir()
    for name in os.listdir(fixture3_path):
        with open(os.path.join(fixture3_path, name), encoding="utf-8") as fh:
            text = fh.read()
        (directory / name).write_text(text, encoding="utf-8-sig")
    assert (directory / "municipalities.csv").read_bytes().startswith(b"\xef\xbb\xbfid,")
    assert load_region_data(str(directory)) == fixture3


def test_generate_counts_match_formulas(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.1
    params.members_per_family = 2.5
    params.house_vacancy = 0.1
    world = generate_world(fixture3, params, seed=42)
    assert len(world.citizens) == 100
    assert len(world.families) == 40
    assert len(world.houses) == 44
    populations = world.population_by_municipality().tolist()
    assert dict(zip(world.region.municipality_ids, populations)) == {
        "core": 60, "north": 30, "east": 10
    }


def test_generate_one_member_per_family_at_the_lower_bound(fixture3):
    params = SimParams()
    params.members_per_family = 1.0
    world = generate_world(fixture3, params, seed=42)
    assert len(world.families) == len(world.citizens)
    assert all(len(family["member_ids"]) == 1 for family in world.family_records())


def test_generate_single_citizen_floor(tmp_path):
    write_minimal_region(
        tmp_path,
        {"municipalities.csv": "id,target_population,xmin,ymin,xmax,ymax\nm0,1,0,0,5,5\n"},
    )
    region = load_region_data(str(tmp_path))
    params = SimParams()
    params.percentage_actual_pop = 1.0
    world = generate_world(region, params, seed=1)
    assert len(world.citizens) == 1
    assert len(world.families) == 1
    assert len(world.houses) >= 1


def test_generate_determinism(fixture3):
    params = SimParams()
    first = generate_world(fixture3, params, seed=7)
    second = generate_world(fixture3, params, seed=7)
    assert first.to_dict() == second.to_dict()


def test_generate_seed_changes_world(fixture3):
    params = SimParams()
    first = generate_world(fixture3, params, seed=7)
    second = generate_world(fixture3, params, seed=8)
    assert first.to_dict() != second.to_dict()


def test_occupancy_bijection_and_surplus(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=3)
    residences = world.families.residence[list(world.families)].tolist()
    assert len(residences) == len(set(residences))
    assert set(world.families.residence[world.active_families()].tolist()) == set(residences)
    vacant = [h for h in range(len(world.houses)) if h not in residences]
    assert len(vacant) == len(world.houses) - len(world.families)
    assert len(vacant) >= 0
    assert_ownership_partition(world)


def test_generated_citizens_within_table_support(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=5)
    supported_ages = {age for age, _, _ in fixture3.age_gender}
    for citizen in world.citizens.records():
        assert 0 <= citizen["qualification"] <= 21
        assert citizen["age"] in supported_ages
        assert 0 <= citizen["birth_month"] < 12


def test_dealing_keeps_families_even_within_each_municipality(fixture3):
    params = SimParams(percentage_actual_pop=1.0)
    world = generate_world(fixture3, params, seed=1)
    citizens, families = world.citizens, world.families
    # citizens are generated municipality by municipality, in id order
    counts = allocate_proportionally(
        1000, [float(spec.target_population) for spec in fixture3.municipalities]
    )
    own_municipality = np.repeat(np.arange(len(counts)), counts)
    family_municipality = world.houses.municipality[families.residence]
    assert (family_municipality[citizens.family] == own_municipality).all()
    sizes = families.members(citizens)
    adults = np.bincount(
        citizens.family,
        weights=citizens.working_age(params.working_age_min, params.working_age_max),
        minlength=len(sizes),
    )
    assert families.monthly_cash.tolist() == (adults * INITIAL_WAGE_OFFER).tolist()
    assert (families.monthly_cash > 0).any()
    for municipality in range(len(counts)):
        in_municipality = sizes[family_municipality == municipality]
        assert in_municipality.sum() == counts[municipality]
        assert in_municipality.max() - in_municipality.min() <= 1


def test_schooling_lookup_is_bisect_over_running_sums():
    qualification = {
        (0, 15): [(0, 1.0)],
        # a zero-probability row repeats the running sum before it
        (16, 29): [(6, 0.25), (9, 0.0), (12, 0.25), (16, 0.5)],
        # summed left to right these end at 0.9999999999999998, below 1.0
        (30, 120): [(6, 0.186), (9, 0.694), (12, 0.059), (16, 0.061)],
    }
    region = replace(make_region(ages=(5, 20, 40)), qualification=qualification)
    ages, draws, expected = [], [], []
    for age in (5, 20, 40):
        rows = next(rows for (low, high), rows in qualification.items() if low <= age <= high)
        sums, cumulative = [], 0.0
        for _, probability in rows:
            cumulative += probability
            sums.append(cumulative)
        years = [row_years for row_years, _ in rows]
        # 0.0, each running sum exactly, the next double above each, and
        # the largest double below 1.0
        points = [0.0, *sums, *(math.nextafter(s, 1.0) for s in sums), math.nextafter(1.0, 0.0)]
        for u in (u for u in points if u < 1.0):
            ages.append(age)
            draws.append(u)
            expected.append(years[min(bisect_right(sums, u), len(years) - 1)])
    assert sums[-1] < math.nextafter(1.0, 0.0)
    assert region.qualification[16, 29][1][1] == 0.0
    looked_up = _schooling(region.schooling, np.array(ages), np.array(draws))
    assert looked_up.tolist() == expected
    assert expected[-1] == 16  # past the last sum, the last row's years
    del qualification[16, 29]
    with pytest.raises(RegionDataError, match="no age band covers age 16"):
        replace(region, qualification=qualification)


def test_a_hand_built_region_derives_the_tables_of_a_loaded_one(fixture3):
    built = RegionData(
        fixture3.name,
        list(fixture3.municipalities),
        list(fixture3.age_gender),
        dict(fixture3.qualification),
        {gender: dict(table) for gender, table in fixture3.mortality.items()},
        dict(fixture3.fertility),
        list(fixture3.fpm_brackets),
    )
    assert built.municipality_ids == fixture3.municipality_ids == ["core", "north", "east"]
    for name in ("monthly_hazard", "birth_chance"):
        np.testing.assert_array_equal(getattr(built, name), getattr(fixture3, name))
    for name in ("categories", "schooling"):
        derived, loaded = getattr(built, name), getattr(fixture3, name)
        assert len(derived) == len(loaded)
        for column, expected in zip(derived, loaded):
            assert column.dtype == expected.dtype
            np.testing.assert_array_equal(column, expected)
    # one schooling row per age up to the terminal age, each band's last
    # running sum then +inf
    sums, years = built.schooling
    assert sums.shape == years.shape == (121, 6)
    assert sums[16].tolist() == [0.2, 0.5, 0.9, 1.0, np.inf, np.inf]
    assert years[16].tolist() == [6, 9, 12, 16, 16, 16]
    ages, female, p = built.categories
    assert len(ages) == 2 * len(fixture3.age_gender) and female[:2].tolist() == [True, False]
    assert p.sum() == pytest.approx(1.0)
    # an age that no band covers, whether drawn or not, fails at construction
    gap = {band: rows for band, rows in fixture3.qualification.items() if band != (71, 120)}
    with pytest.raises(RegionDataError) as err:
        replace(fixture3, qualification=gap)
    assert str(err.value) == "qualification.csv: no age band covers age 71"


def test_every_municipality_gets_a_firm(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.1
    world = generate_world(fixture3, params, seed=2)
    firms = world.firms
    assert np.bincount(firms.municipality, minlength=3).min() >= 1


def test_generate_zero_share_municipality_rejected(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.002  # two citizens for three municipalities
    with pytest.raises(GenerationError):
        generate_world(fixture3, params, seed=1)


def test_generate_rejects_a_hand_built_zero_target():
    # the loader rejects such a target; a hand-built region gets no citizens there
    region = make_region(
        municipalities=[
            MunicipalitySpec("m0", 100, (0.0, 0.0, 10.0, 10.0)),
            MunicipalitySpec("m1", 0, (0.0, 0.0, 10.0, 10.0)),
        ]
    )
    with pytest.raises(GenerationError, match="a municipality received zero citizens"):
        generate_world(region, SimParams(), seed=1)


def test_distance_examples():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0
    assert abs(distance((0.0, 0.0), (1.0, 1.0)) - math.sqrt(2.0)) <= 1e-12


def test_distance_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = tuple(rng.uniform(-10, 10, size=2))
        b = tuple(rng.uniform(-10, 10, size=2))
        assert distance(a, b) == distance(b, a)


def test_distances_equal_distance_bit_for_bit():
    rng = np.random.default_rng(4)
    a = rng.uniform(-300, 300, size=(2000, 2))
    b = rng.uniform(-300, 300, size=(2000, 2))
    batched = distances(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    assert batched.tolist() == [distance(tuple(p), tuple(q)) for p, q in zip(a, b)]
    grid = distances(a[:3, 0, None], a[:3, 1, None], b[:4, 0], b[:4, 1])
    assert grid.shape == (3, 4)
    assert grid[2, 1] == distance(tuple(a[2]), tuple(b[1]))


def test_allocate_proportionally_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        total = int(rng.integers(0, 500))
        weights = rng.uniform(0.1, 5.0, size=n).tolist()
        allocation = allocate_proportionally(total, weights)
        assert sum(allocation) == total
        assert all(v >= 0 for v in allocation)


def reference_allocation(total, weights, minimum=0):
    """Largest remainders over a Python left-to-right sum, one slot at a time."""
    count = len(weights)
    remaining = total - minimum * count
    weight_sum = 0.0
    for weight in weights:
        weight_sum += weight
    if weight_sum <= 0:
        quotas = [remaining / count] * count
    else:
        quotas = [remaining * weight / weight_sum for weight in weights]
    floors = [int(quota) for quota in quotas]
    order = sorted(range(count), key=lambda i: (-(quotas[i] - floors[i]), i))
    for index in order[: remaining - sum(floors)]:
        floors[index] += 1
    return [minimum + allocated for allocated in floors]


def test_allocate_proportionally_equals_the_slot_by_slot_allocation():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        # repeated and zero weights tie on their remainders
        weights = rng.choice([0.0, 0.5, 1.0, 1.0 / 3.0, 2.7, 5.0], size=n).tolist()
        if rng.random() < 0.3:
            weights = rng.uniform(0.0, 40.0, size=n).tolist()
        minimum = int(rng.integers(0, 3))
        total = minimum * n + int(rng.integers(0, 5 * n))
        expected = reference_allocation(total, weights, minimum)
        assert allocate_proportionally(total, weights, minimum) == expected
        assert allocate_proportionally(total, np.array(weights), minimum) == expected


def test_allocate_proportionally_minimum():
    allocation = allocate_proportionally(10, [5.0, 1.0, 1.0], minimum=1)
    assert sum(allocation) == 10
    assert all(v >= 1 for v in allocation)


# World.to_dict() as canonical JSON (sets sorted, random stream state
# included), hashed right after generation and right after calibration.
# The hashes were taken before generation replayed its per-agent draws in
# batched Generator calls (the fixture3 x40 pair before its per-citizen
# loops became array passes); a change to any draw or its order fails here.
WORLD_SHA256 = {
    ("fixture3-share0.2", 1): (
        "7ce3ba0d79966341184155532aea3a469a43b2dc819e314fce0397d768172b62",
        "8960ab2a62967bf72600a6538e4be98edfe90a42ce7d893ab2fc279cd1bec72c",
    ),
    ("fixture3-share0.2", 2): (
        "f323708698d08a913a50185cf5ece95b076da77422a5fce6fcd52b4753705531",
        "e14d208dc6c0140db107c58564a8ffe5997d6b9931b13fa510c5cbdce1eb6644",
    ),
    ("fixture3-share0.2", 3): (
        "1d7ddd833887bbf56df381b6d54c598f244943b8c040360d148e9374c5d64e14",
        "dee01f80c58bd56c121eeda4562943bd9fabab32c4f17b0f9a54f384eed44e0f",
    ),
    ("fixture3-share1", 1): (
        "ca45b4090455dc720a2e236dcd182d8abc049cd3e5cfff1101e1fc7a7b487d37",
        "9264f128068fdf11381a11cfc93c2a52978167c4dfc4080923d269d5449859e7",
    ),
    ("fixture3-share1", 2): (
        "3d843b2a755ae842609a9a4a6ab26c07f0cf3a4e1d23eae6b57c43a378c9afa2",
        "826c06b39d2a25c4e3804e876af7d0d2990a6051bd4514c4c697ea1529373001",
    ),
    ("fixture3-share1", 3): (
        "e6ed84d7276e19545c69f0a1b80137ea565ef3fb77f03e8c949aaeb66b5434b0",
        "cb19670981608902d2297591a63897f6106007a1ad37bbe8fbe83af112bab96b",
    ),
    ("fixture3x10-share1", 1): (
        "5eab21a8774890a46bc453cef6bf2278e9ac83368a60a895a62200564a650b80",
        "6ddd71db120ec5e6c504ec4dd01cbea5bde824b502c1f9b0497995e0ee6f355e",
    ),
    ("fixture3x10-share1", 2): (
        "b8403a634c8e07aa076a6aff2c5cb324502051f61086ae72c9970c50523d733c",
        "87b401bf44040479741221f45a2b7f32d64da8971a8f3fae8824b9ce9271f835",
    ),
    ("fixture3x10-share1", 3): (
        "432795935a483de9556e61738f11fb1d17115971b012b81b0caa0820c8e471c6",
        "113f2cd8d0dbb05bedb5c22079bcfb6b86a95a9010fbc0e4c3469d7051ac96d2",
    ),
    ("fixture3x40-share1", 1): (
        "04ba023e20035f804e969af324137ed26e88402db773b010c3d00a742fa4a3ee",
        "5ddcec1eb8290bd1ede3ccb1c70c5f232f94c908806b2732aa2b35af333964d3",
    ),
    ("solo-share0.2", 1): (
        "c62aaf89d225de01f87b6a2e99675dfbf5c4df2ff2d8d9e3ebb15a6141593758",
        "52c137216154e32dbe7d4411e58d89856f2f063fdc36f0e9631c152f0f0edafc",
    ),
    ("solo-share0.2", 2): (
        "718c2adc6517854005e66eaf99e3c75a4cb5679331fc7957abc090ee22c3b4c0",
        "b092c252a16ba716263cfa45377b946007a55f6bea18dfdec7b2bf3ab468b8e0",
    ),
    ("solo-share0.2", 3): (
        "9af74843e2f652bc5c1804b5ebcaaa546a988a40209bb52199250a47925ba838",
        "191c2470669d983eda17b0a1a84193336491f78f998a8c50a170612b50d5fceb",
    ),
}
WORLD_CASES = {
    "fixture3-share1": ("fixture3", 1, 1.0),
    "fixture3-share0.2": ("fixture3", 1, 0.2),
    "fixture3x10-share1": ("fixture3", 10, 1.0),
    "fixture3x40-share1": ("fixture3", 40, 1.0),
    "solo-share0.2": ("solo", 1, 0.2),
}


def world_sha256(world):
    def encode(value):
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        raise TypeError(f"cannot encode {type(value).__name__}")

    text = json.dumps(world.to_dict(), sort_keys=True, default=encode)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case, seed", sorted(WORLD_SHA256))
def test_generated_and_calibrated_world_pinned(tmp_path, case, seed):
    name, scale, share = WORLD_CASES[case]
    source = os.path.join(default_data_dir(), name)
    if scale != 1:
        source = str(scaled_region(source, tmp_path / f"{name}x{scale}", scale))
    params = SimParams(percentage_actual_pop=share)
    world = generate_world(load_region_data(source), params, seed)
    generated = world_sha256(world)
    calibrate_initial_unemployment(world, params.initial_unemployment, params, world.rng)
    assert (generated, world_sha256(world)) == WORLD_SHA256[case, seed]


# Canaries for the numpy properties that generate_world's batched draws
# replay; a numpy release that breaks one fails here by name. "buffered"
# starts from a generator holding half a 64-bit word in its buffer.
def generators(buffered):
    pair = np.random.default_rng(11), np.random.default_rng(11)
    if buffered:
        # an odd number of bounded 32-bit draws leaves half a word buffered
        for rng in pair:
            rng.integers(0, 12, size=5)
            assert rng.bit_generator.state["has_uint32"] == 1
    return pair


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
def test_house_rows_replay_scalar_draws(buffered):
    ours, theirs = generators(buffered)
    count = 301
    words = _draw_rows(ours, HOUSE_DRAW_BOUNDS, count)
    batched = list(
        zip(
            _uniforms(-2.5, 7.0, words[:, 0]),
            _uniforms(0.0, 3.0, words[:, 1]),
            _uniforms(*HOUSE_SIZE_RANGE, words[:, 2]),
            (words[:, 3] + np.uint64(1)).tolist(),
        )
    )
    scalar = [
        (
            float(theirs.uniform(-2.5, 7.0)),
            float(theirs.uniform(0.0, 3.0)),
            float(theirs.uniform(*HOUSE_SIZE_RANGE)),
            int(theirs.integers(1, 5)),
        )
        for _ in range(count)
    ]
    assert batched == scalar
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
@pytest.mark.parametrize("bound", [7, 16_000, 3 * 10**9])
def test_sized_integers_replay_scalar_calls(buffered, bound):
    ours, theirs = generators(buffered)
    batched = ours.integers(0, bound, size=501).tolist()
    assert batched == [int(theirs.integers(0, bound)) for _ in range(501)]
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
def test_sized_random_replays_scalar_calls(buffered):
    ours, theirs = generators(buffered)
    assert ours.random(501).tolist() == [float(theirs.random()) for _ in range(501)]
    assert ours.bit_generator.state == theirs.bit_generator.state


# World.to_dict() after stepping months: per-citizen ages, employers and
# wages, house prices and family money mid-run. The property rate defaults
# to 0.0, so the fixture3 cases set it and the levy and its clamp at the
# family's cash run every month. The hashes were taken before citizens and
# houses became column stores.
STEPPED_WORLD_SHA256 = {
    ("fixture3-property", 1): (
        "9121c3893c406409a4086b6d4e73b5d4098e7f7d0004e59bf4d476f3fd14f403"
    ),
    ("fixture3-property", 2): (
        "56f30a1c569a01189efb904818dbb620c4468389450f56c8ec8cfd4f672bd2fe"
    ),
    ("fixture3x10", 1): (
        "c7e69206b803ddaebf00bf601b4b6b1c82ad617718d467304def9b34599e1daf"
    ),
}
STEPPED_WORLD_CASES = {
    "fixture3-property": (1, 24, 0.002),
    "fixture3x10": (10, 3, 0.0),
}


@pytest.mark.parametrize("case, seed", sorted(STEPPED_WORLD_SHA256))
def test_stepped_world_pinned(tmp_path, case, seed):
    scale, months, property_rate = STEPPED_WORLD_CASES[case]
    source = os.path.join(default_data_dir(), "fixture3")
    if scale != 1:
        source = str(scaled_region(source, tmp_path / f"fixture3x{scale}", scale))
    params = SimParams(percentage_actual_pop=1.0, months=months)
    params.taxes.property = property_rate
    result = run(load_region_data(source), params, seed)
    assert world_sha256(result.world) == STEPPED_WORLD_SHA256[case, seed]
