"""verify-lemmas reports pinned byte for byte in tests/data.

Each file holds the stdout of one verify-lemmas run: the JSON report at
three radii and the default ranges, and a CSV report on short ranges.  A
change that claims to keep the sweeps' thresholds, margins and samples must
leave both passing untouched; only a change meant to move a sweep result
regenerates them:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    DATA.mkdir(exist_ok=True)
    for name, argv in REPORTS.items():
        (DATA / name).write_text(report(argv))
        print(f"wrote {DATA / name}")
