"""Config surface: NaN bounds, TAXES_STRUCTURE overrides, README reference."""

from pathlib import Path

import pytest

from policysim.cli import main
from policysim.params import (
    FIELDS,
    STRUCTURE_PREFIX,
    ParamError,
    SimParams,
    params_as_flat_dict,
    parse_config_text,
)


@pytest.mark.parametrize("key", [key for key, spec in FIELDS.items() if spec.limits])
def test_nan_is_rejected_by_every_bounded_key(key):
    with pytest.raises(ParamError):
        parse_config_text(f"{key} = nan")


BAD_STRUCTURES = {
    "unknown-shape": "TAXES_STRUCTURE.BOGUS = 1",
    "unknown-channel": "TAXES_STRUCTURE.TRUE_TRUE.LABOR.SIDEWAYS = 1",
    "row-sum": "TAXES_STRUCTURE.TRUE_TRUE.CONSUMPTION.LOCAL = 0.5",
    # a negative fraction used to drop the channel silently, leaving a valid row
    "negative": "TAXES_STRUCTURE.TRUE_FALSE.LABOR.EQUAL_POOL = -0.5",
    "merged-regime": "TAXES_STRUCTURE.FALSE_TRUE.CONSUMPTION.EQUAL_POOL = 1",
}


@pytest.mark.parametrize("text", BAD_STRUCTURES.values(), ids=BAD_STRUCTURES.keys())
def test_bad_structure_override_is_rejected_at_parse(text):
    with pytest.raises(ParamError, match="TAXES_STRUCTURE"):
        parse_config_text(text)


def test_merged_regime_override_message():
    with pytest.raises(ParamError, match="merged regimes"):
        parse_config_text("TAXES_STRUCTURE.false_false.FIRMS.EQUAL_POOL = 1")


def test_valid_structure_override_is_accepted():
    params = parse_config_text(
        "TAXES_STRUCTURE.TRUE_FALSE.LABOR.LOCAL = 0.25\n"
        "TAXES_STRUCTURE.TRUE_FALSE.LABOR.FPM_POOL = 0.75"
    )
    assert params.taxes_structure == {
        "TRUE_FALSE.LABOR.LOCAL": 0.25,
        "TRUE_FALSE.LABOR.FPM_POOL": 0.75,
    }


@pytest.mark.parametrize("text", BAD_STRUCTURES.values(), ids=BAD_STRUCTURES.keys())
def test_cli_rejects_bad_structure_before_running(tmp_path, capsys, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text + "\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--output", str(out), "--cores", "1"])
    assert code == 2
    assert "TAXES_STRUCTURE" in capsys.readouterr().err
    assert not list(tmp_path.rglob("run_*"))


def _readme_config_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1]
    return rows


def _literal(cell):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return float(cell)
    except ValueError:
        return None


def test_readme_config_reference_matches_declared_keys():
    rows = _readme_config_rows()
    structure_rows = [key for key in rows if key.startswith(STRUCTURE_PREFIX)]
    assert len(structure_rows) == 1
    assert set(rows) - set(structure_rows) == set(FIELDS)
    defaults = params_as_flat_dict(SimParams())
    for key in FIELDS:
        literal = _literal(rows[key])
        if literal is not None:
            default = defaults[key]
            assert (literal, type(literal) is bool) == (default, type(default) is bool), key
