"""Region table ingestion and validation.

A region is a directory of six CSV files (UTF-8, a byte-order mark allowed,
header row, ``.`` decimal separator):

    municipalities.csv    id, target_population, xmin, ymin, xmax, ymax
    age_gender.csv        age, p_female, p_male        (joint distribution)
    qualification.csv     age_band, years_schooling, probability
    mortality.csv         age, gender, annual_probability
    fertility.csv         age, annual_rate
    fpm_coefficients.csv  population_min, population_max, coefficient

Each loader states its file's columns once, as the ``{column: parser}``
table it reads through ``_rows``, and keeps only its own row and table
checks. Validation failures name the offending file and line. Every number
must be finite.

A RegionData also holds every table the engine derives from those, built
once when it is constructed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

PROBABILITY_SUM_TOLERANCE = 1e-9
MAX_SCHOOLING_YEARS = 21


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

    The tables below are derived from the source tables at construction, so
    a region with other tables is a new RegionData, and a hand-built region
    gets the tables a loaded one gets:

    - ``municipality_ids``: the one municipality id list; a municipality's
      row in every per-municipality column is its index.
    - ``monthly_hazard[female, age]``: ``monthly_probability`` of the annual
      mortality, row 0 for men and row 1 for women (a missing gender table
      is all NaN).
    - ``birth_chance[age]``: ``min(1, rate / 12)`` over the positive
      fertility rates.
    - ``categories``: ``(ages, female, p)``, the (age, gender) categories of
      ``age_gender`` with positive probability, female first within an age,
      and their probabilities normalised to sum to 1.
    - ``schooling``: ``(sums, years)``, one row per age from 0 to the last
      mortality or ``age_gender`` age: the running sums of the
      probabilities of the first ``qualification`` band that covers the age,
      made left to right and padded with +inf, and their years, padded with
      the last row's years. Every row has at least one pad.

    The two month tables are indexed by age, hold NaN where the source table
    has no row, and end with a NaN entry that every age past the table
    reads. An age of the schooling table that no band covers raises
    RegionDataError.
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
    categories: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    schooling: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

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

        table = np.array(self.age_gender, dtype=float)  # rows of (age, p_female, p_male)
        ages = table[:, 0].astype(np.int64)
        probabilities = table[:, 1:].ravel()
        drawn = probabilities > 0.0
        weights = probabilities[drawn]
        self.categories = (
            np.repeat(ages, 2)[drawn],
            np.tile([True, False], len(table))[drawn],
            weights / weights.sum(),
        )

        width = max(map(len, self.qualification.values()), default=0) + 1
        sums = np.full((max(int(ages.max()), length - 2) + 1, width), np.nan)
        years = np.zeros(sums.shape, dtype=np.int64)
        # the first band that covers an age is written last
        for (low, high), rows in reversed(self.qualification.items()):
            band_sums, cumulative = [], 0.0
            for _, probability in rows:
                cumulative += probability
                band_sums.append(cumulative)
            pad = width - len(rows)
            sums[low : high + 1] = band_sums + [np.inf] * pad
            years[low : high + 1] = [row_years for row_years, _ in rows] + [rows[-1][0]] * pad
        uncovered = np.flatnonzero(np.isnan(sums[:, 0])).tolist()
        if uncovered:
            raise RegionDataError(
                "qualification.csv", None, f"no age band covers age {uncovered[0]}"
            )
        self.schooling = (sums, years)


def _rows(directory: str, filename: str, columns: dict):
    """The parsed cells of a file's data rows: ``(line, values)`` per row,
    with ``values`` in the order of ``columns``, a ``{column: parser}`` table.

    Rows are read as ``csv.DictReader`` reads them: blank lines are skipped,
    absent cells are None, each row is numbered by the physical line it
    starts on, and a column named twice reads its last cell. A parser takes
    ``(cell, column)`` and raises ValueError with a bare message, to which
    this adds ``file:line``. Rows are parsed one at a time as they are
    taken, so the first fault in row order is the one reported; within a
    row, a cell that does not parse comes before the loader's own checks.
    """
    path = os.path.join(directory, filename)
    if not os.path.isfile(path):
        raise RegionDataError(filename, None, "file is missing")
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [column for column in columns if column not in header]
        if missing:
            raise RegionDataError(filename, 1, f"missing columns: {', '.join(missing)}")
        index = {column: at for at, column in enumerate(header)}
        cells = [(index[column], column, parse) for column, parse in columns.items()]
        width = len(header)
        empty = True
        lineno = reader.line_num + 1
        for fields in reader:
            if fields:
                empty = False
                fields += [None] * (width - len(fields))
                try:
                    values = [parse(fields[at], column) for at, column, parse in cells]
                except ValueError as exc:
                    raise RegionDataError(filename, lineno, str(exc)) from exc
                yield lineno, values
            lineno = reader.line_num + 1
    if empty:
        raise RegionDataError(filename, None, "no data rows")


def _int(raw, column: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"column {column!r}: not an integer: {raw!r}") from None


def _float(raw, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"column {column!r}: not a finite number: {raw!r}")
    return value


def _probability(raw, column: str) -> float:
    value = _float(raw, column)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"column {column!r}: probability {value} not in [0, 1]")
    return value


def _age_band(raw, column: str) -> tuple[int, int]:
    try:
        low_text, high_text = (raw or "").strip().split("-")
        low, high = int(low_text), int(high_text)
    except ValueError:
        raise ValueError(f"{column} must look like '16-24', got {raw!r}") from None
    if low > high or low < 0:
        raise ValueError(f"bad age band {raw!r}")
    return low, high


def _text(raw, column: str) -> str:
    return (raw or "").strip()


def _gender(raw, column: str) -> str:
    gender = (raw or "").strip().lower()
    if gender not in ("female", "male"):
        raise ValueError(f"unknown gender {raw!r}")
    return gender


def _load_municipalities(directory: str) -> list[MunicipalitySpec]:
    filename = "municipalities.csv"
    columns = {
        "id": _text, "target_population": _int,
        "xmin": _float, "ymin": _float, "xmax": _float, "ymax": _float,
    }
    specs = []
    seen: set[str] = set()
    for lineno, (muni_id, target, *bounds) in _rows(directory, filename, columns):
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
        if target <= 0:
            raise RegionDataError(
                filename, lineno, f"target_population must be positive, got {target}"
            )
        if not (bounds[0] < bounds[2] and bounds[1] < bounds[3]):
            raise RegionDataError(filename, lineno, "bounding box has no area")
        specs.append(MunicipalitySpec(muni_id, target, tuple(bounds)))
    return specs


def _load_age_gender(directory: str) -> list[tuple[int, float, float]]:
    filename = "age_gender.csv"
    columns = {"age": _int, "p_female": _probability, "p_male": _probability}
    table = []
    seen_ages: set[int] = set()
    total = 0.0
    for lineno, (age, p_female, p_male) in _rows(directory, filename, columns):
        if age < 0:
            raise RegionDataError(filename, lineno, f"negative age {age}")
        if age in seen_ages:
            raise RegionDataError(filename, lineno, f"duplicate age {age}")
        seen_ages.add(age)
        table.append((age, p_female, p_male))
        total += p_female + p_male
    if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
        raise RegionDataError(
            filename, None, f"age/gender probabilities sum to {total!r}, expected 1"
        )
    table.sort(key=lambda entry: entry[0])
    return table


def _load_qualification(directory: str) -> dict[tuple[int, int], list[tuple[int, float]]]:
    filename = "qualification.csv"
    columns = {"age_band": _age_band, "years_schooling": _int, "probability": _probability}
    bands: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for lineno, (band, years, probability) in _rows(directory, filename, columns):
        if not 0 <= years <= MAX_SCHOOLING_YEARS:
            raise RegionDataError(
                filename, lineno, f"years_schooling {years} not in [0, {MAX_SCHOOLING_YEARS}]"
            )
        bands.setdefault(band, []).append((years, probability))
    for band, rows in bands.items():
        total = sum(probability for _, probability in rows)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise RegionDataError(
                filename, None, f"probabilities for band {band[0]}-{band[1]} sum to {total!r}"
            )
    return bands


def _load_mortality(directory: str) -> dict[str, dict[int, float]]:
    filename = "mortality.csv"
    columns = {"age": _int, "gender": _gender, "annual_probability": _probability}
    tables: dict[str, dict[int, float]] = {"female": {}, "male": {}}
    for lineno, (age, gender, probability) in _rows(directory, filename, columns):
        if age in tables[gender]:
            raise RegionDataError(filename, lineno, f"duplicate ({age}, {gender}) row")
        tables[gender][age] = probability
    for gender, table in tables.items():
        if not table:
            raise RegionDataError(filename, None, f"no rows for gender {gender!r}")
        ages = sorted(table)
        if ages != list(range(ages[-1] + 1)):
            raise RegionDataError(filename, None, f"{gender} ages must be contiguous from 0")
        decreases = [age for age in ages[1:] if table[age] < table[age - 1]]
        if decreases:
            raise RegionDataError(
                filename, None, f"{gender} mortality decreases at age {decreases[0]}"
            )
        if table[ages[-1]] != 1.0:
            raise RegionDataError(
                filename, None, f"{gender} mortality must reach 1 at the terminal age {ages[-1]}"
            )
    if max(tables["female"]) != max(tables["male"]):
        raise RegionDataError(filename, None, "genders cover different age ranges")
    return tables


def _load_fertility(directory: str) -> dict[int, float]:
    filename = "fertility.csv"
    table: dict[int, float] = {}
    for lineno, (age, rate) in _rows(directory, filename, {"age": _int, "annual_rate": _float}):
        if age < 0:
            raise RegionDataError(filename, lineno, f"negative age {age}")
        if rate < 0.0:
            raise RegionDataError(filename, lineno, f"negative annual_rate {rate}")
        if age in table:
            raise RegionDataError(filename, lineno, f"duplicate age {age}")
        table[age] = rate
    return table


def _load_fpm_brackets(directory: str) -> list[tuple[int, int, float]]:
    filename = "fpm_coefficients.csv"
    columns = {"population_min": _int, "population_max": _int, "coefficient": _float}
    brackets = []
    for lineno, (low, high, coefficient) in _rows(directory, filename, columns):
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
    municipalities = _load_municipalities(path)
    age_gender = _load_age_gender(path)
    qualification = _load_qualification(path)
    mortality = _load_mortality(path)
    fertility = _load_fertility(path)
    fpm_brackets = _load_fpm_brackets(path)
    terminal_age, max_drawable_age = max(mortality["female"]), age_gender[-1][0]
    if max_drawable_age > terminal_age:
        raise RegionDataError(
            "mortality.csv",
            None,
            f"mortality table ends at {terminal_age} but the age "
            f"distribution reaches {max_drawable_age}",
        )
    # raises for an age that no qualification band covers
    region = RegionData(
        os.path.basename(os.path.normpath(path)),
        municipalities, age_gender, qualification, mortality, fertility, fpm_brackets,
    )
    top = fpm_brackets[-1][1]
    for spec in municipalities:
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
