"""verify-lemmas reports pinned byte for byte in tests/data.

Each file holds the stdout of one verify-lemmas run: the JSON report at
three radii and the default ranges, and a CSV report on short ranges.  A
change that claims to keep the sweeps' thresholds, margins and samples must
leave both passing untouched; only a change meant to move a sweep result
regenerates them:

    PYTHONPATH=src python tests/test_golden_reports.py --write

which prints, before it overwrites a file, every sweep field that moved,
with its old and new value.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from caralab.cli import EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"

# File name -> argv.
REPORTS = {
    "verify_lemmas_R1.5_4_10.json": ["verify-lemmas", "--R", "1.5", "--R", "4", "--R", "10"],
    "verify_lemmas_R2.csv": ["verify-lemmas", "--R", "2", "--m-max", "20000", "--n-max", "12",
                             "--format", "csv"],
}


def report(argv) -> str:
    """The stdout of one run; its timing line goes to stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_the_golden_file(name):
    assert report(REPORTS[name]) == (DATA / name).read_text()


def fields(name: str, text: str) -> dict:
    """(sweep, field) -> value of one report.  A JSON report gives each
    sample row a field of its own and files its other keys under "report";
    a CSV report gives its columns as written."""
    if name.endswith(".csv"):
        rows = csv.DictReader(io.StringIO(text))
        return {(row["parameter_name"], key): value
                for row in rows for key, value in row.items() if key != "parameter_name"}
    doc = json.loads(text)
    out = {("report", key): value for key, value in doc.items() if key != "sweeps"}
    for sweep in doc["sweeps"]:
        for key, value in sweep.items():
            if key == "samples":
                out.update({(sweep["parameter_name"], f"samples[{i}]"): row
                            for i, row in enumerate(value)})
            elif key != "parameter_name":
                out[sweep["parameter_name"], key] = value
    return out


def moves(name: str, old: str, new: str) -> list:
    """One line per field whose value differs between two reports."""
    before, after = fields(name, old), fields(name, new)
    keys = list(after) + [key for key in before if key not in after]
    return [f"{name}: {sweep} {field}: {before.get((sweep, field))!r} -> "
            f"{after.get((sweep, field))!r}"
            for sweep, field in keys if before.get((sweep, field)) != after.get((sweep, field))]


def test_write_names_each_field_that_moved():
    table = "parameter_name,worst_margin,passed\nm1,{},true\n"
    assert moves("r.csv", table.format("0.25"), table.format("0.5")) == [
        "r.csv: m1 worst_margin: '0.25' -> '0.5'"]
    doc = {"command": "verify-lemmas",
           "sweeps": [{"parameter_name": "n0", "worst_margin": 1.0, "samples": [[2, 0.25]]}]}
    old = json.dumps(doc)
    doc["sweeps"][0]["samples"][0][1] = 0.125
    assert moves("r.json", old, json.dumps(doc)) == ["r.json: n0 samples[0]: [2, 0.25] -> [2, 0.125]"]
    assert moves("r.json", old, old) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    DATA.mkdir(exist_ok=True)
    for name, argv in REPORTS.items():
        text = report(argv)
        if (DATA / name).exists():
            print("\n".join(moves(name, (DATA / name).read_text(), text)) or f"{name}: nothing moved")
        (DATA / name).write_text(text)
        print(f"wrote {DATA / name}")
