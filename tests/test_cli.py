import importlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import caralab

from caralab import (
    AnnulusConfig,
    BracketOrderError,
    CoveringBranchError,
    EvaluationEscapeError,
    SpaceConfig,
    cli,
    glued_distance_bracket,
    parse_point,
)
from caralab import glued
from caralab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILURE, main, render_json
from caralab.sweeps import _block_log_moduli, _handed_sums

# Fast settings: sweep ranges for verify-lemmas, a small test-map family for
# the commands that bound distances.
SWEEP = ["--m-max", "2000", "--n-max", "8"]
BOUND = ["--family-degree", "1", "--grid-density", "2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderJson:
    def test_scalars(self):
        assert render_json(None) == "null"
        assert render_json(True) == "true"
        assert render_json(3) == "3"
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json("a\"b") == '"a\\"b"'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json(float("inf"))

    def test_insertion_order_preserved(self):
        text = render_json({"b": 1, "a": [2, {"z": 0.5}]})
        assert text.index('"b"') < text.index('"a"')
        assert json.loads(text) == {"b": 1, "a": [2, {"z": 0.5}]}


class TestVerifyLemmas:
    def test_happy_path_json(self, capsys):
        code, out, err = run(capsys, ["verify-lemmas", *SWEEP])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == "verify-lemmas"
        names = [s["parameter_name"] for s in doc["sweeps"]]
        assert names == ["m1", "two_pi_limit", "m2(R=4)", "chain_n(R=4)", "n0(R=4)"]
        assert all(s["passed"] for s in doc["sweeps"])
        assert "[timing]" in err

    def test_repeatable_radius_flag(self, capsys):
        code, out, _ = run(capsys, ["verify-lemmas", *SWEEP, "--R", "2", "--R", "10"])
        assert code == EXIT_OK
        names = [s["parameter_name"] for s in json.loads(out)["sweeps"]]
        assert "m2(R=2)" in names and "m2(R=10)" in names

    @pytest.mark.parametrize("radii, names", [
        (["1.0000000000000004"], ["m2(R=1.0000000000000004)"]),
        (["4", "4.0000001"], ["m2(R=4)", "m2(R=4.0000001)"]),
    ])
    def test_distinct_radii_get_distinct_names(self, capsys, radii, names):
        argv = ["verify-lemmas", *SWEEP, *(x for R in radii for x in ("--R", R))]
        _, out, _ = run(capsys, argv)
        got = [s["parameter_name"] for s in json.loads(out)["sweeps"]]
        assert [n for n in got if n.startswith("m2")] == names

    def test_block_table_is_computed_once(self, capsys):
        # Both block sweeps at every radius read one R-free table.
        _block_log_moduli.cache_clear()
        _handed_sums.cache_clear()
        code, _, _ = run(capsys, ["verify-lemmas", *SWEEP, "--R", "1.5", "--R", "4", "--R", "10"])
        assert code == EXIT_OK
        info = _block_log_moduli.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_csv_export(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, ["verify-lemmas", *SWEEP, "--format", "csv", "--out", str(out_file)]
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("parameter_name,range_lo")
        assert len(lines) == 6  # header + 5 sweeps

    def test_short_chain_range_notes_open_threshold(self, capsys):
        # n_max=1 cannot reach the chain threshold; that is reported, not failed
        # as long as the sweep itself cannot certify - here it exits 1 because
        # the chain genuinely does not hold yet at n=1.
        code, out, _ = run(capsys, ["verify-lemmas", *SWEEP[:2], "--n-max", "1"])
        doc = json.loads(out)
        chain = next(s for s in doc["sweeps"] if s["parameter_name"].startswith("chain"))
        assert chain["threshold_found"] is None
        assert "not yet reached" in chain["notes"]
        assert code == 1

    def test_determinism_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["verify-lemmas", *SWEEP, "--out", str(f1)])
        run(capsys, ["verify-lemmas", *SWEEP, "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--m-max", "3"], "m_max must be >= 4, got 3"),
        (["--m-max", "5"], "m_max must be >= 8, got 5"),
        (["--n-max", "25"], "n_max must lie in [1, 24], got 25"),
        (["--n-max", "0"], "n_max must lie in [1, 24], got 0"),
    ])
    def test_bad_range_fails_before_any_sweep(self, capsys, monkeypatch, argv, message):
        def fail(*args):
            raise AssertionError("a sweep ran")

        for name in dir(cli):
            if name.startswith("verify_"):
                monkeypatch.setattr(cli, name, fail)
        code, out, err = run(capsys, ["verify-lemmas", *argv])
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_degenerate_radius_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify-lemmas", *SWEEP, "--R", "0.5"])
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_radius_fails_before_any_sweep(self, capsys, monkeypatch, value):
        swept = []
        monkeypatch.setattr(cli, "verify_upper_bound_sweep", swept.append)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["verify-lemmas", *SWEEP, "--R", "4", f"--R={value}"])
        assert code == EXIT_USAGE
        # No sweep, report or numpy warning: one line naming R.
        message = f"error: R must be finite with sqrt(R) > 1, got {float(value)!r}\n"
        assert (out, err, caught, swept) == ("", message, [], [])


class TestAnnulusDistance:
    def test_happy_path(self, capsys):
        code, out, _ = run(
            capsys, ["annulus-distance", *BOUND, "2,0", "0,2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        br = doc["bracket"]
        assert 0.0 < br["lower"] <= br["upper"] < 1.0
        assert br["lower_poincare"] <= br["upper_poincare"]

    def test_identical_points_give_zero(self, capsys):
        code, out, _ = run(capsys, ["annulus-distance", *BOUND, "1.5,0.5", "1.5,0.5"])
        assert code == EXIT_OK
        br = json.loads(out)["bracket"]
        assert br["lower"] == br["upper"] == 0.0

    def test_malformed_point_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["annulus-distance", *BOUND, "2", "0,2"])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_exterior_point_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["annulus-distance", *BOUND, "9,0", "2,0"])
        assert code == EXIT_USAGE

    def test_family_degree_past_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["annulus-distance", "--family-degree", "3", "2,0", "0,2"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 3" in capsys.readouterr().err


# Malformed points, one parser for both point syntaxes.
MALFORMED = [
    (["annulus-distance", *BOUND, "2,0,1", "0,2"], "malformed point '2,0,1': expected 're,im'"),
    (["glued", "distance", *BOUND, "x:1,2", "0:2,0"],
     "malformed point 'x:1,2': expected 'sheet:re,im' or 'glue:n,m'"),
    (["glued", "distance", *BOUND, "glue:1.5,2", "0:2,0"],
     "malformed point 'glue:1.5,2': expected 'sheet:re,im' or 'glue:n,m'"),
]


@pytest.mark.parametrize("argv, message", MALFORMED)
def test_malformed_point_names_the_expected_form(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


class TestGlued:
    def test_distance(self, capsys):
        code, out, _ = run(
            capsys, ["glued", "distance", *BOUND, "0:2,0", "3:2,0"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p"] == "0:2,0"
        br = doc["bracket"]
        assert 0.0 < br["lower"] <= br["upper"] < 1.0

    def test_distance_glue_syntax(self, capsys):
        code, out, _ = run(
            capsys, ["glued", "distance", *BOUND, "glue:1,1", "0:2,0"]
        )
        assert code == EXIT_OK
        br = json.loads(out)["bracket"]
        assert br["lower"] == br["upper"] == 0.0

    def test_noncompact(self, capsys):
        code, out, _ = run(capsys, ["glued", "noncompact", *BOUND, "--N", "8"])
        assert code == EXIT_OK
        rep = json.loads(out)["noncompactness"]
        assert rep["passed"] is True
        assert rep["distinct_sheets"] >= 6

    def test_noncompact_with_one_probe_sheet_is_usage_error(self, capsys):
        # --N 2 probes sheet 2 alone: no pair, so no pairwise floor.
        code, out, err = run(capsys, ["glued", "noncompact", *BOUND, "--N", "2"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: the probe needs two sheets past sheet 1, so n_max >= 3; got 2\n"

    def test_complete(self, capsys):
        pts = [f"0:{2.0 + 1.0 / k},0" for k in range(2, 16)]
        code, out, _ = run(capsys, ["glued", "complete", *BOUND, *pts])
        assert code == EXIT_OK
        rep = json.loads(out)["completeness"]
        assert rep["cauchy_like"] is True

    def test_ball(self, capsys):
        code, out, _ = run(
            capsys,
            ["glued", "ball", *BOUND, "0:2,0", "--band", "1.5,3.0",
             "--band-sheets", "0,1", "--samples", "60"],
        )
        assert code == EXIT_OK
        ball = json.loads(out)["ball"]
        assert ball["scale"] == "poincare"
        assert ball["radius"] is None or ball["radius"] > 0.0

    def test_ball_centre_on_boundary_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["glued", "ball", *BOUND, "0:3.5,0", "--band", "1.5,3.0", "--band-sheets", "0"],
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--samples", "0"], "samples must be >= 1, got 0"),
            (["--samples", "-3"], "samples must be >= 1, got -3"),
            (["--band", "1.5"], "malformed band '1.5': expected 'r1,r2'"),
            (["--band", "1.5,"], "malformed band '1.5,': expected 'r1,r2'"),
            # An empty value names an empty set, not "all sheets".
            (["--band-sheets", "0,x"], "malformed band sheets '0,x': expected 'n,m,...'"),
            (["--band-sheets", ","], "malformed band sheets ',': expected 'n,m,...'"),
            (["--band-sheets", ""], "malformed band sheets '': expected 'n,m,...'"),
        ],
    )
    def test_ball_without_evidence_or_band_is_usage_error(self, capsys, option, message):
        code, out, err = run(
            capsys,
            ["glued", "ball", *BOUND, "0:2,0", "--band", "1.5,3.0", "--band-sheets", "0",
             *option],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    def test_band_sheets_default_to_every_sheet(self, capsys):
        code, out, _ = run(
            capsys,
            ["glued", "ball", *BOUND, "--N", "5", "0:2,0", "--band", "1.5,3.0",
             "--samples", "20"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["ball"]["band_sheets"] == [0, 1, 2, 3, 4, 5]


# Each command with the positional arguments it needs, and the config keys
# its report echoes: every option it takes but --out.
COMMANDS = {
    "verify-lemmas": (["verify-lemmas", *SWEEP], ["R", "m_max", "n_max", "format"]),
    "annulus-distance": (
        ["annulus-distance", *BOUND, "2,0", "0,2"], ["R", "family_degree", "grid_density"],
    ),
    "glued distance": (
        ["glued", "distance", *BOUND, "0:2,0", "3:2,0"],
        ["R", "N", "family_degree", "grid_density"],
    ),
    "glued noncompact": (
        ["glued", "noncompact", *BOUND, "--N", "6"],
        ["R", "N", "family_degree", "grid_density"],
    ),
    "glued complete": (
        ["glued", "complete", *BOUND, "0:2.5,0", "0:2.25,0", "0:2.125,0"],
        ["R", "N", "family_degree", "grid_density"],
    ),
    "glued ball": (
        ["glued", "ball", *BOUND, "0:2,0", "--band", "1.5,3.0", "--band-sheets", "0",
         "--samples", "20"],
        ["R", "N", "family_degree", "grid_density", "band", "band_sheets", "samples", "seed"],
    ),
}


class TestThinDeepSheets:
    """Deep sheets of a thin annulus: the zeros of B_t come within
    EPS_BOUNDARY of the unit circle, so the lower bound drops F_t, as it
    drops a quotient that rounds onto the circle, and the command runs."""

    def test_distance_keeps_the_shallow_sheet_candidate(self, capsys):
        code, out, err = run(capsys, ["glued", "distance", "--R", "1.0000001", "--N", "20",
                                      "3:1.00000005,0", "20:1.00000005,0"])
        assert (code, err) == (EXIT_OK, "")
        br = json.loads(out)["bracket"]
        assert br["lower_witness"] == "sheet-supported[3]"
        assert 0.05 < br["lower"] <= br["upper"] < 1.0

    def test_complete_reaches_sheets_19_and_20(self, capsys):
        pts = ["19:1.00005,0", "20:1.00005,0.0001", "20:1.00005,0"]
        code, out, err = run(capsys, ["glued", "complete", "--R", "1.0001", "--N", "20", *pts])
        assert (code, err) == (EXIT_OK, "")
        stats = json.loads(out)["completeness"]["tail_stats"]
        assert [s["single_sheet"] for s in stats] == [False, True]
        assert all(0.0 < s["separation_floor_mobius"] <= s["cauchy_modulus_mobius"] < 1.0
                   for s in stats)

    @pytest.mark.parametrize("R", ["1.0001", "1.001"])
    def test_noncompact_floor_of_zero_is_a_verification_failure(self, capsys, R):
        # Sheets 19 and 20 hold the same coordinate, both their F_t are
        # dropped and the radial pullbacks read 0: nothing is certified.
        code, out, err = run(capsys, ["glued", "noncompact", "--R", R, "--N", "20"])
        assert (code, err) == (EXIT_VERIFICATION_FAILURE, "")
        rep = json.loads(out)["noncompactness"]
        assert (rep["pairwise_lower_floor_mobius"], rep["passed"]) == (0.0, False)
        assert rep["distinct_sheets"] == 19


class TestOptionSets:
    @pytest.mark.parametrize(
        "command, option",
        [
            ("verify-lemmas", ["--family-degree", "2"]),
            ("verify-lemmas", ["--N", "8"]),
            ("annulus-distance", ["--format", "csv"]),
            ("annulus-distance", ["--m-max", "2000"]),
            ("glued distance", ["--seed", "1"]),
            ("glued noncompact", ["--samples", "10"]),
            ("glued complete", ["--n-max", "4"]),
            ("glued ball", ["--format", "csv"]),
            ("glued noncompact", ["--n-max", "4"]),
        ],
    )
    def test_option_a_command_does_not_read_is_a_usage_error(self, capsys, command, option):
        argv = COMMANDS[command][0]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *option])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_config_echoes_exactly_the_options_taken(self, capsys, command):
        argv, keys = COMMANDS[command]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == command
        assert list(doc["config"]) == keys

    def test_glued_distance_computes_at_the_echoed_radius(self, capsys):
        code, out, _ = run(capsys, ["glued", "distance", *BOUND, "--R", "10", "0:2,0", "3:5,1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["R"] == 10.0
        cfg = SpaceConfig(annulus=AnnulusConfig(R=10.0, family_degree=1, grid_density=2))
        expected = glued_distance_bracket(
            cfg, parse_point(cfg, "0:2,0"), parse_point(cfg, "3:5,1")
        )
        assert (doc["bracket"]["lower"], doc["bracket"]["upper"]) == (
            expected.lower, expected.upper,
        )
        assert doc["bracket"]["lower_witness"] == expected.lower_witness
        assert doc["bracket"]["upper_witness"] == expected.upper_witness

    @pytest.mark.parametrize(
        "seed, radius", [([], 0.25), (["--seed", "0"], 0.25), (["--seed", "2"], 0.125)]
    )
    def test_ball_sample_seed(self, capsys, seed, radius):
        # --seed picks the sample cloud; the default cloud is seed 0's.
        code, out, _ = run(capsys, [
            "glued", "ball", "0:2,0", "--band", "1.8,2.2", "--band-sheets", "0,1",
            "--samples", "60", *seed,
        ])
        assert code == EXIT_OK
        assert json.loads(out)["ball"]["radius"] == radius


class TestBenchmarkScript:
    @pytest.fixture
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("workloads")

    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_step_parses(self, workloads, seed):
        # The benchmark's fixed CLI session must stay valid command lines,
        # each building the config its command builds.
        parser = cli.build_parser()
        for _, argv in workloads.cli_script(seed):
            args = parser.parse_args(argv)
            assert callable(args.func)
            if "N" in args.config_keys:
                assert isinstance(cli._space_config(args), SpaceConfig)
            elif "family_degree" in args.config_keys:
                assert isinstance(cli._annulus_config(args), AnnulusConfig)

    def test_library_config_constructs(self, workloads):
        assert AnnulusConfig(R=4.0, **workloads.FAST).family_degree == 2


class TestInternalErrors:
    ANNULUS = ["annulus-distance", *BOUND, "2,0", "0,2"]
    GLUED = ["glued", "distance", *BOUND, "0:2,0", "3:2,0"]

    @pytest.mark.parametrize(
        "target, argv, exc",
        [
            ("annulus_distance_bracket", ANNULUS, BracketOrderError("lower 0.6 exceeds upper 0.5")),
            ("glued_distance_bracket", GLUED, BracketOrderError("lower 0.6 exceeds upper 0.5")),
            ("glued_distance_bracket", GLUED, EvaluationEscapeError("phi[3] escaped the unit disk")),
            ("annulus_distance_bracket", ANNULUS, CoveringBranchError("principal-branch safety")),
        ],
    )
    def test_reported_in_one_line_with_exit_1(self, capsys, monkeypatch, target, argv, exc):
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run(capsys, argv)
        assert code == EXIT_VERIFICATION_FAILURE
        assert out == ""
        assert err == f"error: {type(exc).__name__}: {exc}\n"


class TestSharedParser:
    """main parses every command line with one parser per process, and no
    parse leaves state behind for the next."""

    def test_the_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["verify-lemmas", *SWEEP], COMMANDS["glued distance"][0],
                     ["verify-lemmas", *SWEEP, "--R", "2"]):
            assert run(capsys, argv)[0] == EXIT_OK
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

    def test_a_repeated_radius_does_not_carry_over(self, capsys):
        configs = []
        for extra in (["--R", "1.5", "--R", "10"], []):
            code, out, _ = run(capsys, ["verify-lemmas", *SWEEP, *extra])
            assert code == EXIT_OK
            configs.append(json.loads(out)["config"]["R"])
        assert configs == [[1.5, 10.0], [4.0]]

    def test_a_band_sheet_subset_does_not_carry_over(self, capsys):
        argv = ["glued", "ball", *BOUND, "--N", "3", "0:2,0", "--band", "1.5,3.0",
                "--samples", "20"]
        sheets = []
        for extra in (["--band-sheets", "0"], []):
            code, out, _ = run(capsys, [*argv, *extra])
            assert code == EXIT_OK
            sheets.append(json.loads(out)["ball"]["band_sheets"])
        assert sheets == [[0], [0, 1, 2, 3]]


class TestColdStart:
    ARGV = ["glued", "distance", "--N", "20", "--family-degree", "2", "--grid-density", "2",
            "17:2,0.5", "20:-1.5,1.2"]

    def test_fresh_processes_match_a_warm_run(self, capsys):
        # Two interpreters build every table from scratch; this one reuses them.
        src = str(Path(caralab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        cold = [
            subprocess.run([sys.executable, "-m", "caralab.cli", *self.ARGV],
                           capture_output=True, env=env, check=True).stdout
            for _ in range(2)
        ]
        run(capsys, self.ARGV)
        code, warm, _ = run(capsys, self.ARGV)
        assert code == EXIT_OK
        assert cold[0] == cold[1] == warm.encode()

    @pytest.mark.parametrize("p, most", [("17:2,0.5", {17: 1, 20: 4}), ("glue:20,5", {20: 1})])
    def test_a_glued_distance_builds_few_zero_chunks(self, capsys, monkeypatch, p, most):
        # Regression guard for the chunk-lazy sheet products: with cold
        # caches, each product builds only the chunks its sum reads (sheet 20
        # has 128), plus its last zero, checked at construction.
        built = Counter()
        original = glued._sheet_zeros

        def counting(R, target, start, stop):
            built[target] += 1
            return original(R, target, start, stop)

        glued._sheet_blaschke.cache_clear()
        monkeypatch.setattr(glued, "_sheet_zeros", counting)
        code, _, _ = run(capsys, ["glued", "distance", "--N", "20", p, "20:-1.5,1.2"])
        assert code == EXIT_OK
        assert set(built) <= set(most)
        assert all(built[t] <= n + 1 for t, n in most.items()), built

    def test_a_glued_command_leaves_numpy_ma_unimported(self):
        # numpy.ma costs over 10 ms to import, and nothing here needs it.
        src = str(Path(caralab.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, sys\n"
            "from caralab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({self.ARGV!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                             check=True, text=True).stdout
        assert out == "False\n"
