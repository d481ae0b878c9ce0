import math
import os

import numpy as np
import pytest

from policysim import (
    GenerationError,
    RegionDataError,
    SimParams,
    distance,
    generate_world,
    load_region_data,
)
from policysim.world.generate import allocate_proportionally
from policysim.world.types import distances

from conftest import assert_ownership_partition


def test_fixture3_loads(fixture3):
    assert [m.id for m in fixture3.municipalities] == ["core", "north", "east"]
    assert [m.target_population for m in fixture3.municipalities] == [600, 300, 100]
    assert fixture3.total_target_population == 1000
    assert fixture3.max_mortality_age == 120


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


def test_generate_counts_match_formulas(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.1
    params.members_per_family = 2.5
    params.house_vacancy = 0.1
    world = generate_world(fixture3, params, seed=42)
    assert len(world.citizens) == 100
    assert len(world.families) == 40
    assert len(world.houses) == 44
    assert world.population_by_municipality() == {"core": 60, "north": 30, "east": 10}


def test_generate_one_member_per_family_at_the_lower_bound(fixture3):
    params = SimParams()
    params.members_per_family = 1.0
    world = generate_world(fixture3, params, seed=42)
    assert len(world.families) == len(world.citizens)
    assert all(len(family.member_ids) == 1 for family in world.families.values())


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
    residences = [family.residence for family in world.families.values()]
    assert len(residences) == len(set(residences))
    assert set(world.residents_by_house()) == set(residences)
    vacant = [h for h in world.houses.values() if h.id not in residences]
    assert len(vacant) == len(world.houses) - len(world.families)
    assert len(vacant) >= 0
    assert_ownership_partition(world)


def test_generated_citizens_within_table_support(fixture3):
    params = SimParams()
    world = generate_world(fixture3, params, seed=5)
    supported_ages = {age for age, _, _ in fixture3.age_gender}
    for citizen in world.citizens.values():
        assert 0 <= citizen.qualification <= 21
        assert citizen.age in supported_ages
        assert 0 <= citizen.birth_month < 12


def test_every_municipality_gets_a_firm(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.1
    world = generate_world(fixture3, params, seed=2)
    by_muni = {m: 0 for m in world.municipalities}
    for firm in world.firms.values():
        by_muni[firm.municipality_id] += 1
    assert all(count >= 1 for count in by_muni.values())


def test_generate_zero_share_municipality_rejected(fixture3):
    params = SimParams()
    params.percentage_actual_pop = 0.002  # two citizens for three municipalities
    with pytest.raises(GenerationError):
        generate_world(fixture3, params, seed=1)


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


def test_allocate_proportionally_minimum():
    allocation = allocate_proportionally(10, [5.0, 1.0, 1.0], minimum=1)
    assert sum(allocation) == 10
    assert all(v >= 1 for v in allocation)
