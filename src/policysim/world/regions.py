"""Region table ingestion and validation.

A region is a directory of six CSV files (UTF-8, header row, ``.`` decimal
separator):

    municipalities.csv    id, target_population, xmin, ymin, xmax, ymax
    age_gender.csv        age, p_female, p_male        (joint distribution)
    qualification.csv     age_band, years_schooling, probability
    mortality.csv         age, gender, annual_probability
    fertility.csv         age, annual_rate
    fpm_coefficients.csv  population_min, population_max, coefficient

Validation failures name the offending file and line. Every number must
be finite.

A RegionData also holds the month tables that demographics reads, built
once from its mortality and fertility tables when it is constructed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

PROBABILITY_SUM_TOLERANCE = 1e-9
MAX_SCHOOLING_YEARS = 21

REGION_FILES = (
    "municipalities.csv",
    "age_gender.csv",
    "qualification.csv",
    "mortality.csv",
    "fertility.csv",
    "fpm_coefficients.csv",
)


class RegionDataError(ValueError):
    """Missing file, malformed row, or violated table invariant."""

    def __init__(self, file: str, line: int | None, message: str) -> None:
        location = f"{file}:{line}" if line is not None else file
        super().__init__(f"{location}: {message}")
        self.file = file
        self.line = line


@dataclass(frozen=True)
class MunicipalitySpec:
    id: str
    target_population: int
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax


def monthly_probability(annual_probability: float) -> float:
    """Compounding-correct annual-to-monthly conversion."""
    return 1.0 - (1.0 - annual_probability) ** (1.0 / 12.0)


def _by_age(table: dict[int, float], length: int) -> np.ndarray:
    """The table's values indexed by age over 0 .. length - 1, NaN where it has no row."""
    values = np.full(length, np.nan)
    values[list(table)] = list(table.values())
    return values


@dataclass
class RegionData:
    """Validated demographic and geographic tables for one region (ACP).

    ``municipality_ids``, built at construction, is the one municipality id
    list: a municipality's row in every per-municipality column is its index.

    The month tables are derived from ``mortality`` and ``fertility`` at
    construction, so a region with other vital rates is a new RegionData.
    Both are indexed by age, hold NaN where the source table has no row, and
    end with a NaN entry that every age past the table reads:

    - ``monthly_hazard[female, age]``: ``monthly_probability`` of the annual
      mortality, row 0 for men and row 1 for women (a missing gender table
      is all NaN);
    - ``birth_chance[age]``: ``min(1, rate / 12)`` over the positive
      fertility rates.
    """

    name: str
    municipalities: list[MunicipalitySpec]
    age_gender: list[tuple[int, float, float]]  # (age, p_female, p_male)
    qualification: dict[tuple[int, int], list[tuple[int, float]]]
    mortality: dict[str, dict[int, float]]  # gender -> age -> annual p
    fertility: dict[int, float]  # age -> annual births per woman
    fpm_brackets: list[tuple[int, int, float]]
    municipality_ids: list[str] = field(init=False, repr=False, compare=False)
    monthly_hazard: np.ndarray = field(init=False, repr=False, compare=False)
    birth_chance: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.municipality_ids = [spec.id for spec in self.municipalities]
        hazards = [
            {age: monthly_probability(annual) for age, annual in by_age.items()}
            for by_age in (self.mortality.get("male", {}), self.mortality.get("female", {}))
        ]
        length = max(max(table, default=-1) for table in hazards) + 2
        self.monthly_hazard = np.stack([_by_age(table, length) for table in hazards])
        chances = {
            age: min(1.0, rate / 12.0) for age, rate in self.fertility.items() if rate > 0.0
        }
        self.birth_chance = _by_age(chances, max(chances, default=-1) + 2)

    @property
    def total_target_population(self) -> int:
        return sum(spec.target_population for spec in self.municipalities)

    @property
    def max_mortality_age(self) -> int:
        return max(self.mortality["female"])

    def qualification_rows_for_age(self, age: int) -> list[tuple[int, float]]:
        for (low, high), rows in self.qualification.items():
            if low <= age <= high:
                return rows
        raise RegionDataError(
            "qualification.csv", None, f"no age band covers age {age}"
        )


def _rows(path: str, filename: str, required: tuple[str, ...]):
    if not os.path.isfile(path):
        raise RegionDataError(filename, None, "file is missing")
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [column for column in required if column not in header]
        if missing:
            raise RegionDataError(
                filename, 1, f"missing columns: {', '.join(missing)}"
            )
        # as csv.DictReader reads them: blank lines skipped, absent cells None;
        # each row is numbered by the physical line it starts on
        padding = [None] * len(header)
        out = []
        lineno = reader.line_num + 1
        for fields in reader:
            if fields:
                out.append((lineno, dict(zip(header, fields + padding[len(fields) :]))))
            lineno = reader.line_num + 1
    if not out:
        raise RegionDataError(filename, None, "no data rows")
    return out


def _parse_float(raw, filename: str, lineno: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise RegionDataError(
            filename, lineno, f"column {column!r}: not a number: {raw!r}"
        ) from exc
    if not math.isfinite(value):
        raise RegionDataError(
            filename, lineno, f"column {column!r}: not a finite number: {raw!r}"
        )
    return value


def _parse_int(raw, filename: str, lineno: int, column: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise RegionDataError(
            filename, lineno, f"column {column!r}: not an integer: {raw!r}"
        ) from exc


def _parse_probability(raw, filename: str, lineno: int, column: str) -> float:
    value = _parse_float(raw, filename, lineno, column)
    if not 0.0 <= value <= 1.0:
        raise RegionDataError(
            filename, lineno, f"column {column!r}: probability {value} not in [0, 1]"
        )
    return value


def _load_municipalities(directory: str) -> list[MunicipalitySpec]:
    filename = "municipalities.csv"
    specs = []
    seen: set[str] = set()
    columns = ("id", "target_population", "xmin", "ymin", "xmax", "ymax")
    for lineno, row in _rows(os.path.join(directory, filename), filename, columns):
        muni_id = (row["id"] or "").strip()
        if not muni_id:
            raise RegionDataError(filename, lineno, "empty municipality id")
        if any(char in muni_id for char in ',"\r\n'):
            # the id names a qli_<id> column of the unquoted monthly.csv
            raise RegionDataError(
                filename, lineno, f"id {muni_id!r} holds a comma, quote or line break"
            )
        if muni_id in seen:
            raise RegionDataError(filename, lineno, f"duplicate id {muni_id!r}")
        seen.add(muni_id)
        target = _parse_int(row["target_population"], filename, lineno, "target_population")
        if target <= 0:
            raise RegionDataError(
                filename, lineno, f"target_population must be positive, got {target}"
            )
        bounds = tuple(
            _parse_float(row[column], filename, lineno, column)
            for column in ("xmin", "ymin", "xmax", "ymax")
        )
        if not (bounds[0] < bounds[2] and bounds[1] < bounds[3]):
            raise RegionDataError(filename, lineno, "bounding box has no area")
        specs.append(MunicipalitySpec(muni_id, target, bounds))
    return specs


def _load_age_gender(directory: str) -> list[tuple[int, float, float]]:
    filename = "age_gender.csv"
    table = []
    seen_ages: set[int] = set()
    total = 0.0
    columns = ("age", "p_female", "p_male")
    for lineno, row in _rows(os.path.join(directory, filename), filename, columns):
        age = _parse_int(row["age"], filename, lineno, "age")
        if age < 0:
            raise RegionDataError(filename, lineno, f"negative age {age}")
        if age in seen_ages:
            raise RegionDataError(filename, lineno, f"duplicate age {age}")
        seen_ages.add(age)
        p_female = _parse_probability(row["p_female"], filename, lineno, "p_female")
        p_male = _parse_probability(row["p_male"], filename, lineno, "p_male")
        table.append((age, p_female, p_male))
        total += p_female + p_male
    if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
        raise RegionDataError(
            filename, None, f"age/gender probabilities sum to {total!r}, expected 1"
        )
    table.sort(key=lambda entry: entry[0])
    return table


def _parse_age_band(raw: str, filename: str, lineno: int) -> tuple[int, int]:
    try:
        low_text, high_text = raw.strip().split("-")
        low, high = int(low_text), int(high_text)
    except ValueError as exc:
        raise RegionDataError(
            filename, lineno, f"age_band must look like '16-24', got {raw!r}"
        ) from exc
    if low > high or low < 0:
        raise RegionDataError(filename, lineno, f"bad age band {raw!r}")
    return low, high


def _load_qualification(directory: str) -> dict[tuple[int, int], list[tuple[int, float]]]:
    filename = "qualification.csv"
    bands: dict[tuple[int, int], list[tuple[int, float]]] = {}
    columns = ("age_band", "years_schooling", "probability")
    for lineno, row in _rows(os.path.join(directory, filename), filename, columns):
        band = _parse_age_band(row["age_band"], filename, lineno)
        years = _parse_int(row["years_schooling"], filename, lineno, "years_schooling")
        if not 0 <= years <= MAX_SCHOOLING_YEARS:
            raise RegionDataError(
                filename, lineno, f"years_schooling {years} not in [0, {MAX_SCHOOLING_YEARS}]"
            )
        probability = _parse_probability(row["probability"], filename, lineno, "probability")
        bands.setdefault(band, []).append((years, probability))
    for band, rows in bands.items():
        total = sum(probability for _, probability in rows)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise RegionDataError(
                filename,
                None,
                f"probabilities for band {band[0]}-{band[1]} sum to {total!r}",
            )
    return bands


def _load_mortality(directory: str) -> dict[str, dict[int, float]]:
    filename = "mortality.csv"
    tables: dict[str, dict[int, float]] = {"female": {}, "male": {}}
    columns = ("age", "gender", "annual_probability")
    for lineno, row in _rows(os.path.join(directory, filename), filename, columns):
        age = _parse_int(row["age"], filename, lineno, "age")
        gender = (row["gender"] or "").strip().lower()
        if gender not in tables:
            raise RegionDataError(filename, lineno, f"unknown gender {row['gender']!r}")
        if age in tables[gender]:
            raise RegionDataError(filename, lineno, f"duplicate ({age}, {gender}) row")
        tables[gender][age] = _parse_probability(
            row["annual_probability"], filename, lineno, "annual_probability"
        )
    for gender, table in tables.items():
        if not table:
            raise RegionDataError(filename, None, f"no rows for gender {gender!r}")
        ages = sorted(table)
        if ages != list(range(ages[0], ages[-1] + 1)) or ages[0] != 0:
            raise RegionDataError(
                filename, None, f"{gender} ages must be contiguous from 0"
            )
        previous = -1.0
        for age in ages:
            if table[age] < previous:
                raise RegionDataError(
                    filename,
                    None,
                    f"{gender} mortality decreases at age {age}",
                )
            previous = table[age]
        if table[ages[-1]] != 1.0:
            raise RegionDataError(
                filename,
                None,
                f"{gender} mortality must reach 1 at the terminal age {ages[-1]}",
            )
    if max(tables["female"]) != max(tables["male"]):
        raise RegionDataError(filename, None, "genders cover different age ranges")
    return tables


def _load_fertility(directory: str) -> dict[int, float]:
    filename = "fertility.csv"
    table: dict[int, float] = {}
    for lineno, row in _rows(os.path.join(directory, filename), filename, ("age", "annual_rate")):
        age = _parse_int(row["age"], filename, lineno, "age")
        if age < 0:
            raise RegionDataError(filename, lineno, f"negative age {age}")
        rate = _parse_float(row["annual_rate"], filename, lineno, "annual_rate")
        if rate < 0.0:
            raise RegionDataError(filename, lineno, f"negative annual_rate {rate}")
        if age in table:
            raise RegionDataError(filename, lineno, f"duplicate age {age}")
        table[age] = rate
    return table


def _load_fpm_brackets(directory: str) -> list[tuple[int, int, float]]:
    filename = "fpm_coefficients.csv"
    brackets = []
    columns = ("population_min", "population_max", "coefficient")
    for lineno, row in _rows(os.path.join(directory, filename), filename, columns):
        low = _parse_int(row["population_min"], filename, lineno, "population_min")
        high = _parse_int(row["population_max"], filename, lineno, "population_max")
        coefficient = _parse_float(row["coefficient"], filename, lineno, "coefficient")
        if coefficient <= 0.0:
            raise RegionDataError(filename, lineno, "coefficient must be > 0")
        if low >= high:
            raise RegionDataError(filename, lineno, "population_min must be < population_max")
        brackets.append((low, high, coefficient))
    brackets.sort(key=lambda bracket: bracket[0])
    if brackets[0][0] != 0:
        raise RegionDataError(filename, None, "brackets must start at population 0")
    for (_, high, _), (low, _, _) in zip(brackets, brackets[1:]):
        if high != low:
            raise RegionDataError(filename, None, "brackets must be contiguous")
    return brackets


def load_region_data(path: str) -> RegionData:
    """Load and validate one region directory."""
    if not os.path.isdir(path):
        raise RegionDataError(str(path), None, "region directory does not exist")
    region = RegionData(
        name=os.path.basename(os.path.normpath(path)),
        municipalities=_load_municipalities(path),
        age_gender=_load_age_gender(path),
        qualification=_load_qualification(path),
        mortality=_load_mortality(path),
        fertility=_load_fertility(path),
        fpm_brackets=_load_fpm_brackets(path),
    )
    max_drawable_age = max(age for age, _, _ in region.age_gender)
    if max_drawable_age > region.max_mortality_age:
        raise RegionDataError(
            "mortality.csv",
            None,
            f"mortality table ends at {region.max_mortality_age} but the age "
            f"distribution reaches {max_drawable_age}",
        )
    for age in range(0, region.max_mortality_age + 1):
        region.qualification_rows_for_age(age)
    top = region.fpm_brackets[-1][1]
    for spec in region.municipalities:
        if spec.target_population >= top:
            raise RegionDataError(
                "fpm_coefficients.csv",
                None,
                f"brackets end at population {top} but municipality {spec.id!r} "
                f"targets {spec.target_population}",
            )
    return region


def list_regions(data_dir: str) -> list[str]:
    """Region subdirectory names under a data directory, sorted."""
    if not os.path.isdir(data_dir):
        return []
    names = []
    for entry in sorted(os.listdir(data_dir)):
        candidate = os.path.join(data_dir, entry)
        if os.path.isdir(candidate) and os.path.isfile(
            os.path.join(candidate, "municipalities.csv")
        ):
            names.append(entry)
    return names
