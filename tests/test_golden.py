"""The CLI outputs in tests/golden/ against a fresh run of each command.

Numbers are compared parsed, at rtol 1e-10, since the last printed digit
is not portable across BLAS builds; err_est, rel_dev, rel_deviation and
measured cells have an absolute floor of 1e-12, as their tiny values are
rounding.
Every other cell must match as text.  A JSON output is compared the
same way: each meta key is a row, each row of "rows" is named by its
first value.  tests/golden/regen.py rewrites the files.
"""

import csv
import importlib.util
import json
import math
import pathlib

import pytest

from fracwell import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

FLOORED = {"err_est", "rel_dev", "rel_deviation", "measured"}


def _json_rows(text):
    """_rows of a JSON output, each value as the text json gives it."""
    def cell(v):
        return v if isinstance(v, str) else json.dumps(v)

    obj = json.loads(text)
    out = {k: {"value": cell(v)} for k, v in obj["meta"].items()}
    for row in obj["rows"]:
        cells = {k: cell(v) for k, v in row.items()}
        out[next(iter(cells.values()))] = cells
    return out


def _rows(text):
    """{row name: {column: cell}}: each '# key = value' line is a row of
    its own, a table row is named by its first cell."""
    if text.startswith("{"):
        return _json_rows(text)
    lines = text.splitlines()
    out = {}
    for line in lines:
        if line.startswith("# "):
            key, value = line[2:].split(" = ", 1)
            out[key] = {"value": value}
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    for cells in table[1:]:
        out[cells[0]] = dict(zip(table[0], cells))
    return out


def _same(column, want, got):
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    floor = 1e-12 if column in FLOORED else 0.0
    return abs(a - b) <= max(1e-10 * abs(a), floor)


def differences(want_text, got_text):
    """Names of the rows (and columns) where two outputs differ."""
    want, got = _rows(want_text), _rows(got_text)
    out = [f"row {k} missing" for k in want if k not in got]
    out += [f"row {k} added" for k in got if k not in want]
    for key in want.keys() & got.keys():
        cols = [c for c in want[key]
                if not _same(c, want[key][c], got[key].get(c, ""))]
        if cols:
            out.append(f"row {key}: {', '.join(cols)} "
                       f"{[want[key][c] for c in cols]} -> "
                       f"{[got[key].get(c) for c in cols]}")
    return sorted(out)


@pytest.mark.parametrize("name", list(regen.CASES))
def test_cli_output_matches_golden(name):
    code, text = regen.render(regen.CASES[name])
    assert code == 0
    want = (GOLDEN / regen.filename(name)).read_text(encoding="utf-8")
    assert differences(want, text) == []


def test_golden_cases_cover_every_mode():
    modes = {argv[argv.index("--mode") + 1] for argv in regen.CASES.values()}
    assert modes == set(cli._MODES)


def test_differences_names_each_moved_row():
    want = ("# E = -2.5e-01\nx,phi,rel_dev\n0.0,1.0,1e-16\n0.5,2.0,3e-13\n"
            "1.0,3.0,0.0\n")
    got = ("# E = -2.5e-01\nx,phi,rel_dev\n0.0,1.0,9e-13\n0.5,2.0000001,3e-13\n"
           "2.0,3.0,0.0\n")
    assert differences(want, want) == []
    assert differences(want, got) == ["row 0.5: phi ['2.0'] -> ['2.0000001']",
                                      "row 1.0 missing", "row 2.0 added"]


def test_differences_reads_json_outputs():
    want = ('{"meta": {"mode": "energy", "alpha": 1.5}, "rows": '
            '[{"E": -0.45, "rel_deviation": 2e-13, "ok": true}]}')
    got = ('{"meta": {"mode": "energy", "alpha": 1.5}, "rows": '
           '[{"E": -0.45, "rel_deviation": 9e-13, "ok": false}]}')
    moved = ('{"meta": {"mode": "energy", "alpha": 1.6}, "rows": '
             '[{"E": -0.45, "rel_deviation": 2e-13, "ok": true}]}')
    assert differences(want, want) == []
    assert differences(want, got) == ["row -0.45: ok ['true'] -> ['false']"]
    assert differences(want, moved) == ["row alpha: value ['1.5'] -> ['1.6']"]


def test_regen_diff_prints_the_moved_cells_and_writes_nothing(capsys, monkeypatch):
    # regen.py --diff compares fresh outputs with the files and writes
    # nothing; on the committed files it has nothing to say
    stamps = {p: p.stat().st_mtime_ns for p in GOLDEN.iterdir()}
    assert regen.main(["--diff"]) == 0
    assert capsys.readouterr().out == ""
    # so the plain run, reached only once --diff found nothing moved,
    # rewrites no file either: drift below the tolerance is not a move
    assert regen.main([]) == 0
    assert capsys.readouterr().out == ""
    assert {p: p.stat().st_mtime_ns for p in GOLDEN.iterdir()} == stamps
    # a moved cell is named by file, row and column, old -> new
    name = "energy_1.5_0.8"
    text = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    monkeypatch.setattr(regen, "CASES", {name: regen.CASES[name]})
    monkeypatch.setattr(regen, "render", lambda argv: (
        0, text.replace("5.88451621303e-01", "5.9e-01")))
    assert regen.main(["--diff"]) == 1
    assert capsys.readouterr().out == (
        f"{name}.csv: row -4.51404771739e-01: kappa "
        f"['5.88451621303e-01'] -> ['5.9e-01']\n")
    assert {p: p.stat().st_mtime_ns for p in GOLDEN.iterdir()} == stamps
