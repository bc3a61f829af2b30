"""End-to-end command-line behaviour: exit codes, files, reproducibility."""
import ast
import hashlib
import inspect
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest

from freqcrowd import cli, errors, lattice, mc, window


def read_json(root, command, name="default", filename="results.json"):
    with open(os.path.join(root, command, name, filename)) as fh:
        return json.load(fh)


def read_bytes(root, command, name, filename):
    with open(os.path.join(root, command, name, filename), "rb") as fh:
        return fh.read()


def read_csv(root, command, name="default"):
    """A results.csv as its header and one column-keyed dict of cells per row."""
    lines = read_bytes(root, command, name, "results.csv").decode().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def as_cells(row):
    """A JSON row as the CSV cells the CLI writes for it."""
    return {k: cli._cell(v) for k, v in row.items()}


def synth_sweep_csv(path, family, distance, n_qubits, width_mhz,
                    sigmas=(8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 40.0)):
    lines = ["family,distance,n_qubits,sigma_f_mhz,yield"]
    for s in sigmas:
        y = window.window_yield(width_mhz, s, n_qubits)
        lines.append(f"{family},{distance},{n_qubits},{s:g},{y:.8f}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLatticeCommand:
    def test_writes_json_and_dot(self, tmp_path, capsys):
        rc = cli.main(["lattice", "--family", "heavy_hexagon", "-d", "5",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "65 qubits" in out
        payload = read_json(tmp_path, "lattice")
        assert len(payload["nodes"]) == 65
        assert len(payload["edges"]) == 72
        dot = read_bytes(tmp_path, "lattice", "default", "lattice.dot").decode()
        assert dot.startswith("digraph")
        manifest = read_json(tmp_path, "lattice", filename="manifest.json")
        assert manifest["outputs"] == ["lattice.dot", "results.json"]
        assert manifest["package"] == "freqcrowd"

    def test_dashed_family_accepted(self, tmp_path):
        assert cli.main(["lattice", "--family", "heavy-hexagon", "-d", "3",
                         "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path, "lattice")["family"] == "heavy_hexagon"

    def test_even_distance_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["lattice", "--family", "square", "-d", "4",
                         "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_largest_distance_is_accepted(self, tmp_path):
        assert cli.main(["lattice", "--family", "square", "-d", str(lattice.MAX_DISTANCE),
                         "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path, "lattice")["distance"] == lattice.MAX_DISTANCE

    def test_unknown_family(self, tmp_path):
        assert cli.main(["lattice", "--family", "kagome", "-d", "3",
                         "--out", str(tmp_path)]) == 2

    def test_family_required(self, tmp_path):
        assert cli.main(["lattice", "-d", "3", "--out", str(tmp_path)]) == 2


class TestCheckCommand:
    def test_designed_pattern_is_clean(self, tmp_path, capsys):
        rc = cli.main(["check", "--family", "square", "-d", "3", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path, "check")
        assert payload["total"] == 0
        assert set(payload["per_type"]) == {"1", "2", "3", "4", "5", "6", "7"}
        assert all(v == 0 for v in payload["per_type"].values())
        assert payload["instances"] == []
        assert " all  0" in capsys.readouterr().out

    def test_scattered_check_is_seed_deterministic(self, tmp_path):
        args = ["check", "--family", "heavy_hexagon", "-d", "3", "--sigma-mhz", "40",
                "--seed", "5"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_bytes(tmp_path / "a", "check", "default", "results.json") == \
            read_bytes(tmp_path / "b", "check", "default", "results.json")

    def test_negative_zero_sigma_is_reported_as_zero(self, tmp_path, capsys):
        """A scatter of -0.0 passes every check, and is reported as 0, not -0."""
        assert cli.main(["check", "--family", "square", "-d", "3", "--sigma-mhz=-0.0",
                         "--out", str(tmp_path)]) == 0
        assert "sigma 0 MHz" in capsys.readouterr().out
        text = read_bytes(tmp_path, "check", "default", "results.json").decode()
        assert '"sigma_f_mhz": 0.0' in text

    def test_negative_zero_spacing_is_reported_as_zero(self, tmp_path, capsys):
        """A spacing of -0.0 is read as 0.0: printed as 0 and written as 0.0."""
        assert cli.main(["check", "--family", "square", "-d", "3", "--spacing-mhz=-0.0",
                         "--out", str(tmp_path)]) == 0
        assert "at spacing 0 MHz" in capsys.readouterr().out
        text = read_bytes(tmp_path, "check", "default", "results.json").decode()
        assert '"spacing_mhz": 0.0' in text


class TestSweepCommand:
    ARGS = ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "0,20",
            "--spacings", "40,50", "--trials", "60"]

    def test_outputs_and_determinism(self, tmp_path):
        assert cli.main(self.ARGS + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(self.ARGS + ["--out", str(tmp_path / "b")]) == 0
        for fn in ("results.csv", "results.json", "plot.svg"):
            assert read_bytes(tmp_path / "a", "sweep", "default", fn) == \
                read_bytes(tmp_path / "b", "sweep", "default", fn)
        csv_text = read_bytes(tmp_path / "a", "sweep", "default", "results.csv").decode()
        header = csv_text.splitlines()[0].split(",")
        assert header[:8] == ["family", "distance", "n_qubits", "sigma_f_mhz",
                              "spacing_mhz", "trials", "mean_collisions", "yield"]
        assert len(csv_text.splitlines()) == 3  # header + two sigma points

    def test_negative_zero_sigma_is_reported_as_zero(self, tmp_path):
        """A scatter of -0.0 passes every check, and is written as 0, not -0."""
        assert cli.main(["sweep", "--family", "square", "-d", "3", "--sigmas=-0.0",
                         "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path, "sweep")
        assert [row["sigma_f_mhz"] for row in rows] == ["0"]
        text = read_bytes(tmp_path, "sweep", "default", "results.json").decode()
        assert '"sigma_f_mhz": 0.0' in text

    def test_negative_zero_spacing_is_written_as_zero(self, tmp_path):
        """A spacing grid's -0.0 is read as 0.0, and written as 0, not -0."""
        assert cli.main(["sweep", "--family", "square", "-d", "3", "--sigmas", "0,14",
                         "--spacings=-0.0", "--trials", "10", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path, "sweep")
        assert [row["spacing_mhz"] for row in rows] == ["0", "0"]

    def test_csv_rows_are_the_json_points_spread(self, tmp_path):
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path, "sweep")
        assert header == ["family", "distance", "n_qubits", "sigma_f_mhz", "spacing_mhz",
                          "trials", "mean_collisions", "yield", "mean_type1", "mean_type2",
                          "mean_type3", "mean_type4", "mean_type5", "mean_type6", "mean_type7"]
        points = read_json(tmp_path, "sweep")["points"]
        assert len(rows) == len(points) == 2
        for row, point in zip(rows, points):
            means = point.pop("per_type_means")
            assert len(means) == 7
            point.update((f"mean_type{t}", m) for t, m in enumerate(means, start=1))
            assert row == as_cells(point)

    def test_no_wall_clock_leaks_into_outputs(self, tmp_path):
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        for fn in ("results.json", "manifest.json"):
            text = read_bytes(tmp_path, "sweep", "default", fn).decode().lower()
            assert "timestamp" not in text
            assert "time\"" not in text
            assert "date" not in text

    def test_metadata_carries_seed_and_hash(self, tmp_path):
        assert cli.main(self.ARGS + ["--seed", "9", "--out", str(tmp_path)]) == 0
        meta = read_json(tmp_path, "sweep")["metadata"]
        assert meta["seed"] == 9
        assert len(meta["config_hash"]) == 12

    def test_family_required_unless_table_mode(self, tmp_path):
        assert cli.main(["sweep", "--sigmas", "0", "--out", str(tmp_path)]) == 2

    def test_negative_trials_is_usage_error(self, tmp_path, capsys):
        assert cli.main(self.ARGS[:-2] + ["--trials=-5", "--out", str(tmp_path)]) == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


SQUARE3 = ["--family", "square", "-d", "3"]
SIGMA = "sigma must be >= 0 and <= 1e+300"
SPACING = "pattern needs finite spacing >= 0"
OVERFLOW_SPACING = "set points exceed 1e+300 MHz at this spacing"
ANHARMONICITY = "anharmonicity must be negative and >= -1e+300 (MHz)"
SEED = "master seed must be in [0, 2**128)"
SPREAD = "need 0 <= lo <= hi, both finite"
RANGE = "draws a resistance outside [1e-100, 1e+100] ohm"
SETTING_CHECKS = {  # id: (argv, the flag as reported, its setting, the reason given)
    "sigmas-token": (["sweep", *SQUARE3, "--sigmas", "0,abc"], "--sigmas=0,abc", "sigmas",
                     "bad value 'abc'"),
    "no-family": (["lattice", "-d", "3"], "--family", "family", "required"),
    "no-distance": (["check", "--family", "square"], "--distance", "distance", "required"),
    "zero-distance": (["check", "--family", "square", "-d", "0"], "--distance=0", "distance",
                      "distance must be an odd integer in [3, 31], got 0"),
    "negative-trials": (["sweep", *SQUARE3, "--trials=-1"], "--trials=-1", "trials",
                        "must be >= 0 (0: adaptive)"),
    "table2-distance": (["sweep", "--reproduce-table2", "-d", "3"], "--distance=3", "distance",
                        "not taken with --reproduce-table2, whose lattices and scatter levels "
                        "are fixed"),
    **{f"{command}-no-sweep-csv": ([command], "--sweep-csv", "sweep_csv", "names no sweep CSV")
       for command in ("fit-window", "extrapolate")},
    "extrapolate-twice-named-sigma": (["extrapolate", "--sweep-csv", "{sweep_csvs}",
                                       "--sigmas", "14,14"], "--sigmas=14,14", "sigmas",
                                      "names one yield_sigma column twice"),
    "target-spread-syntax": (["tune", "--target-spread", "abc"], "--target-spread=abc",
                             "target_spread", "wants LO:HI in percent, e.g. 0.4:14.5"),
    "junctions-without-spread": (["tune", "--junctions", "30"], "--junctions=30", "junctions",
                                 "the two-group scenario takes 31 junctions; "
                                 "give --target-spread LO:HI for another count"),
    "no-csv": (["fit-rn"], "--csv", "csv_path", "required"),
}
OUT_OF_RANGE = {  # id: (argv, the error line after "error: ")
    "sigma-mhz": (["check", *SQUARE3, "--sigma-mhz", "-5"], f"--sigma-mhz=-5: {SIGMA}"),
    "nan-sigma-mhz": (["check", *SQUARE3, "--sigma-mhz", "nan"], f"--sigma-mhz=nan: {SIGMA}"),
    **{f"{name}-sigma-mhz-seed-3": (["check", *SQUARE3, f"--sigma-mhz={sigma}", "--seed", "3"],
                                    f"--sigma-mhz={sigma}: {SIGMA}")
       for name, sigma in (("negative", "-40"), ("nan", "nan"), ("inf", "inf"))},
    "sigmas": (["sweep", *SQUARE3, "--sigmas", "5,-2"], f"--sigmas=5,-2: {SIGMA}"),
    **{f"{sigma}-sigmas": (["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", sigma,
                            *trials], f"--sigmas={sigma}: {SIGMA}")
       for sigma, trials in (("nan", ()), ("inf", ("--trials", "10")))},
    "extrapolate-inf-sigmas": (["extrapolate", "--sweep-csv", "{sweep_csvs}", "--sigmas", "10,inf"],
                               "--sigmas=10,inf: sigma_f must be finite and >= 0"),
    "spacings": (["sweep", *SQUARE3, "--spacings", "-3"], f"--spacings=-3: {SPACING}"),
    "table2-spacings": (["sweep", "--reproduce-table2", "--spacings", "40,-1"],
                        f"--spacings=40,-1: {SPACING}"),
    **{f"{spacing}-spacings": (["sweep", *SQUARE3, "--sigmas", "10", "--trials", "20",
                                "--spacings", spacing], f"--spacings={spacing}: {SPACING}")
       for spacing in ("nan", "inf")},
    "seed": (["check", *SQUARE3, "--seed", "-1"], f"--seed=-1: {SEED}"),
    "seed-too-large": (["sweep", *SQUARE3, "--seed", str(2**128)], f"--seed={2**128}: {SEED}"),
    **{f"negative-seed-{name}": ([*argv, "--seed=-1"], f"--seed=-1: {SEED}") for name, argv in (
        ("scattered-check", ["check", *SQUARE3, "--sigma-mhz", "10"]),
        ("sweep", ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "14",
                   "--trials", "20"]),
        ("tune", ["tune", "--junctions", "5", "--target-spread", "0.4:14.5"]),
        ("unscattered-check", ["check", *SQUARE3]))},  # sigma 0 draws no deviates
    "spacing-mhz": (["check", *SQUARE3, "--spacing-mhz", "-40"], f"--spacing-mhz=-40: {SPACING}"),
    "nan-spacing-mhz": (["check", *SQUARE3, "--spacing-mhz", "nan"],
                        f"--spacing-mhz=nan: {SPACING}"),
    **{f"{command}-overflowing-{flag}": (
        [command, "--family", "heavy_hexagon", "-d", "3", f"--{flag}", value],
        f"--{flag}={shown}: {message}")
       for command, flag, value, shown, message in (
           ("sweep", "spacings", "1e308", "1e308", OVERFLOW_SPACING),
           ("check", "spacing-mhz", "1e308", "1e+308", OVERFLOW_SPACING))},
    # finite inputs whose trial frequencies or collision operands would overflow
    **{f"sweep-kernel-overflowing-{flag}": (
        ["sweep", "--family", "heavy_hexagon", "-d", "3", f"--{flag}={value}", *extra],
        f"--{flag}={shown}: {message}")
       for flag, value, shown, message, extra in (
           ("sigmas", "1e308", "1e308", SIGMA, ()),
           ("spacings", "5e307", "5e307", OVERFLOW_SPACING, ("--sigmas", "10", "--trials", "10")),
           ("anharmonicity-mhz", "-1.7976931348623157e308", "-1.797693135e+308",
            ANHARMONICITY, ("--sigmas", "1e300", "--trials", "10")))},
    "anharmonicity-mhz": (["sweep", *SQUARE3, "--anharmonicity-mhz", "nan"],
                          f"--anharmonicity-mhz=nan: {ANHARMONICITY}"),
    "table2-anharmonicity-mhz": (["sweep", "--reproduce-table2", "--anharmonicity-mhz", "0"],
                                 f"--anharmonicity-mhz=0: {ANHARMONICITY}"),
    **{f"check-{name}-anharmonicity-mhz": (
        ["check", *SQUARE3, "--spacing-mhz", "100", "--sigma-mhz", "120", "--seed", "3",
         f"--anharmonicity-mhz={value}"], f"--anharmonicity-mhz={value}: {ANHARMONICITY}")
       for name, value in (("nan", "nan"), ("inf", "-inf"), ("positive", "5"))},
    **{f"distance-{d}": (["lattice", *SQUARE3[:2], "-d", str(d)],
                         f"--distance={d}: distance must be an odd integer in [3, 31], got {d}")
       for d in (lattice.MAX_DISTANCE + 2, 99999)},
    **{f"{name}-junctions": (["tune", "--junctions", n, "--target-spread", "0.4:14.5"],
                             f"--junctions={n}: n must be >= 1")
       for name, n in (("zero", "0"), ("negative", "-3"))},
    "target-spread-reversed": (["tune", "--junctions", "5", "--target-spread", "5:1"],
                               f"--target-spread=5:1: {SPREAD}"),
    "nan-target-spread": (["tune", "--junctions", "5", "--target-spread", "nan:1"],
                          f"--target-spread=nan:1: {SPREAD}"),
    "inf-target-spread": (["tune", "--target-spread", "0.4:inf"],
                          f"--target-spread=0.4:inf: {SPREAD}"),
    "negative-target-spread": (["tune", "--target-spread=-1:2"], f"--target-spread=-1:2: {SPREAD}"),
    "inf-median-ohm": (["tune", "--median-ohm", "inf"],
                       "--median-ohm=inf: median must be finite and positive"),
    "median-ohm": (["tune", "--median-ohm", "-5"],
                   "--median-ohm=-5: median must be finite and positive"),
    # a population or target outside tunesim's resistance range
    **{f"{flag}-past-the-resistance-range": (["tune", *extra, f"--{flag}={value}"],
                                             f"--{flag}={shown}: {reason}")
       for flag, value, shown, reason, extra in (
           ("median-ohm", "1e300", "1e+300", RANGE, ()),
           ("median-ohm", "1e-320", "9.999888672e-321", RANGE,
            ("--junctions=3", "--target-spread=0.4:14.5")),
           ("fractional-sigma", "1000", "1000", RANGE, ()),
           ("target-spread", "0:1e308", "0:1e308", "puts a target above 1e+100 ohm", ()))},
    "nan-fractional-sigma": (["tune", "--fractional-sigma", "nan"],
                             "--fractional-sigma=nan: scatter must be finite and non-negative"),
    "fractional-sigma": (["tune", "--fractional-sigma", "-1"],
                         "--fractional-sigma=-1: scatter must be finite and non-negative"),
    "nan-noise-sigma": (["tune", "--noise-sigma", "nan"],
                        "--noise-sigma=nan: noise_sigma must be finite and >= 0"),
    "inf-noise-sigma": (["tune", "--noise-sigma", "inf"],
                        "--noise-sigma=inf: noise_sigma must be finite and >= 0"),
    "step-fraction": (["tune", "--step-fraction", "0"],
                      "--step-fraction=0: step_fraction must be in (0, 1]"),
    "step-fraction-above-one": (["tune", "--step-fraction", "1.5"],
                                "--step-fraction=1.5: step_fraction must be in (0, 1]"),
    "converge-band": (["tune", "--converge-band", "1"],
                      "--converge-band=1: converge_band must be in (0, 1)"),
    "nan-converge-band": (["tune", "--converge-band", "nan"],
                          "--converge-band=nan: converge_band must be in (0, 1)"),
    "max-anneals": (["tune", "--max-anneals", "0"], "--max-anneals=0: max_anneals must be >= 1"),
    "nan-residual-std": (["tune", "--residual-std", "nan"],
                         "--residual-std=nan: fit residual_std_mhz must be finite and >= 0"),
    "residual-std": (["tune", "--residual-std", "-1"],
                     "--residual-std=-1: fit residual_std_mhz must be finite and >= 0"),
    # a draw past a bound the setting itself is within
    **{f"residual-std-{shown}{'-one-junction' if extra else ''}-draws-past-a-frequency-bound": (
        ["tune", *extra, f"--residual-std={value}"],
        f"--residual-std={shown}: draws a converged frequency outside (0, 1e+100] GHz")
       for value, shown, extra in (("6000", "6000", ()), ("1e306", "1e+306", ()),
                                   ("1e300", "1e+300", ("--junctions=1", "--target-spread=0:1")))},
    **{f"noise-sigma-{shown}-anneals-past-the-resistance-range": (
        ["tune", f"--noise-sigma={value}"],
        f"--noise-sigma={shown}: anneal noise takes a resistance above 1e+100 ohm")
       for value, shown in (("1000", "1000"), ("1e300", "1e+300"))},
    "check-sigma-mhz-draws-past-the-frequency-bound": (
        ["check", *SQUARE3, "--sigma-mhz=1e300"],
        "--sigma-mhz=1e+300: draws a frequency past 1e+300 MHz"),
    # the CLI's own checks report a flag the same way, without a value when it is unset
    **{name: (argv, f"{flag}: {reason}")
       for name, (argv, flag, _, reason) in SETTING_CHECKS.items()},
}


def _with_sweep_csvs(tmp_path, argv):
    """``argv`` with ``{sweep_csvs}`` replaced by two synthetic sweeps' paths."""
    if "{sweep_csvs}" not in argv:
        return argv
    srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
            for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
    return [",".join(srcs) if arg == "{sweep_csvs}" else arg for arg in argv]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    """A value that the library parameter its flag feeds, or the CLI's own
    check, rejects exits 2 with one error line naming the flag and the value
    as given, before anything is counted or written."""
    argv = _with_sweep_csvs(tmp_path, argv)  # a window trend for extrapolate
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["tune", "--noise-sigma=60"],
    ["tune", "--noise-sigma=60", "--junctions=300", "--target-spread=0.4:14.5", "--seed=3"],
    ["check", *SQUARE3, "--sigma-mhz=1e299"],
], ids=["noise-sigma-60", "noise-sigma-60-spread", "check-sigma-mhz-1e299"])
def test_a_draw_inside_its_bounds_runs(tmp_path, capsys, argv):
    """Settings just inside the bounds that their draws are checked against
    run and write their run, warning nowhere: anneal noise that leaves every
    resistance at most 1e100 ohm, and a scatter whose one draw stays within
    1e300 MHz."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / argv[0] / "default" / "results.json").exists()


@pytest.mark.parametrize("argv, dest, reason", [(argv, dest, reason) for argv, _, dest, reason
                                                in SETTING_CHECKS.values()],
                         ids=SETTING_CHECKS.keys())
def test_a_rejected_setting_replayed_is_an_input_error(tmp_path, capsys, argv, dest, reason):
    """The same settings, recorded in a manifest as the run would have
    recorded them, exit 1 naming the manifest's key, and write nothing."""
    argv = _with_sweep_csvs(tmp_path, argv)
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": cfg["command"], "config": cli._snapshot(cfg)}))
    assert cli.main(["rerun", str(manifest), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: manifest config {dest!r}: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["rerun", "nope.json"],
    ["fit-window", "--sweep-csv", "nope.csv"],
    ["extrapolate", "--sweep-csv", "nope.csv"],
    ["fit-rn", "--csv", "nope.csv"],
], ids=["rerun", "fit-window", "extrapolate", "fit-rn"])
def test_an_unreadable_input_file_is_an_io_failure(tmp_path, capsys, argv):
    """A missing manifest fails as a missing CSV does: exit 1, nothing written."""
    argv = [str(tmp_path / arg) if arg.startswith("nope.") else arg for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "nope." in err
    assert not (tmp_path / "out").exists()


SHORT_ROW = "distance,n_qubits,sigma_f_mhz,yield,family\n3,17,8,0.9,square\n3,17,10,0.6\n"
UNREADABLE_TEXT = {
    "random-manifest": (["rerun", "{path}"], random.Random(41).randbytes(200),
                        "{path}: 'utf-8' codec can't decode byte 0x92 in position 1"),
    "utf16-sweep-csv": (["fit-window", "--sweep-csv", "{path}"],
                        b"\xff\xfe" + "family".encode("utf-16-le"),
                        "{path}: 'utf-8' codec can't decode byte 0xff in position 0"),
    "utf16-rn-csv": (["fit-rn", "--csv", "{path}"], b"\xff\xfe" + "8000".encode("utf-16-le"),
                     "{path}: 'utf-8' codec can't decode byte 0xff in position 0"),
    "deep-manifest": (["rerun", "{path}"], b"[" * 100_000 + b"]" * 100_000,
                      "manifest is not valid JSON: maximum recursion depth exceeded"),
    "short-sweep-row": (["fit-window", "--sweep-csv", "{path}"], SHORT_ROW.encode(),
                        "{path} row 3: 4 cells, 5 columns"),
    "long-sweep-row": (["extrapolate", "--sweep-csv", "{path}"],
                       b"family,distance,n_qubits,sigma_f_mhz,yield\nsquare,3,17,8,0.9,1\n",
                       "{path} row 2: 6 cells, 5 columns"),
    "huge-sweep-cell": (["fit-window", "--sweep-csv", "{path}"],
                        b"family,distance,n_qubits,sigma_f_mhz,yield\n" + b"x" * 200_000,
                        "{path}: field larger than field limit (131072)"),
    "huge-rn-cell": (["fit-rn", "--csv", "{path}"], b"8000,5.7\n" + b"9" * 200_000 + b",5.4\n",
                     "{path} line 2: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("argv, data, message", UNREADABLE_TEXT.values(),
                         ids=UNREADABLE_TEXT.keys())
def test_an_input_file_that_is_not_readable_text_is_an_input_error(tmp_path, capsys, argv,
                                                                   data, message):
    """Bytes that are not UTF-8, a manifest nested past the JSON reader's
    depth and a CSV row the parser cannot split by its header exit 1 with one
    error line naming the file or the manifest, and write nothing."""
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = [arg.format(path=path) for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_a_manifest_nested_past_the_json_writers_depth_is_an_error(tmp_path, capsys):
    """A config key nested just within the JSON reader's depth passes it,
    but can reach past the writer's, whose stack is deeper: the replay is
    then an error naming the file it would have written, and writes nothing.
    Depths are tried from the recursion limit down to the first that
    replays."""
    assert cli.main(["lattice", "--family", "square", "-d", "3", "--out", str(tmp_path / "a")]) == 0
    manifest = read_json(tmp_path / "a", "lattice", filename="manifest.json")
    manifest["config"]["nested"] = "NESTED"
    messages = []
    for depth in range(sys.getrecursionlimit(), 0, -1):
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(manifest).replace('"NESTED"', "[" * depth + "]" * depth))
        out = tmp_path / "out"
        rc = cli.main(["rerun", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        if rc == 0:
            break
        assert rc == 1 and err.count("\n") == 1 and not out.exists(), (depth, err)
        messages.append(err)
    assert messages[0].startswith("error: manifest is not valid JSON: maximum recursion depth")
    assert messages[-1].endswith(": nested past the JSON writer's depth\n")


def test_json_text_rejects_nesting_past_the_writers_depth():
    nested = []
    for _ in range(sys.getrecursionlimit()):
        nested = [nested]
    with pytest.raises(cli.FreqcrowdError, match="^config: nested past the JSON writer's depth$"):
        cli._json_text("config", {"nested": nested})


def test_each_input_file_is_read_once_and_recorded_by_the_digest_of_what_was_parsed(
        tmp_path, monkeypatch):
    """A run reads each input file once, through ``cli._read``, and its
    manifest records the SHA-256 of the bytes it parsed."""
    reads = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda path: reads.append(path) or read(path))
    sweeps = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
              for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
    rn = TestFitRnCommand.write_pairs(tmp_path / "rn.csv",
                                      [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)])
    for command, argv, paths in (("fit-window", ["--sweep-csv", ",".join(sweeps)], sweeps),
                                 ("extrapolate", ["--sweep-csv", ",".join(sweeps)], sweeps),
                                 ("fit-rn", ["--csv", rn], [rn])):
        reads.clear()
        assert cli.main([command, *argv, "--out", str(tmp_path / "out")]) == 0
        assert reads == paths
        recorded = read_json(tmp_path / "out", command, filename="manifest.json")["inputs_sha256"]
        assert recorded == {p: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
                            for p in paths}


def test_only_the_input_reader_and_the_run_writer_open_files():
    """Of the package's functions, only ``cli._read`` opens a file to read
    and only ``cli._write_run`` one to write: every input reaches a command
    through the one reader, read once, and hashed and parsed from the same
    bytes."""
    package = os.path.dirname(cli.__file__)
    openers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        scopes = [(None, tree)]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if isinstance(child, ast.Call) and (
                        getattr(child.func, "id", None) == "open"
                        or getattr(child.func, "attr", None) in (
                            "open", "read_text", "read_bytes", "write_text", "write_bytes")):
                    openers.add((name, scope, ast.unparse(child)))
                scopes.append((inner, child))
    assert openers == {("cli.py", "_read", "open(path, 'rb')"),
                       ("cli.py", "_write_run", "open(os.path.join(path, name), 'w', newline='')")}


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--family", "square", "-d", "3", "--spacings", "abc"],
     "--spacings=abc: bad value 'abc'"),
    (["sweep", "--reproduce-table2", "--spacings", "40,abc"],
     "--spacings=40,abc: bad value 'abc'"),
    (["sweep", "--family", "square", "-d", "3", "--sigmas", "x"], "--sigmas=x: bad value 'x'"),
    (["sweep", "--family", "square", "-d", "3", "--sigmas", "10; 2e"],
     "--sigmas=10; 2e: bad value '2e'"),
], ids=["spacings", "table2-spacings", "sigmas", "semicolon-sigmas"])
def test_non_numeric_list_value_is_a_usage_error(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / argv[0]).exists()


# The default grid picks 40 or 65 MHz on every lattice, whatever the seed, so
# only the second grid shows whether --spacings reaches the search.
@pytest.mark.parametrize("spacings", ["40,65", "40,60"])
def test_table2_rows_are_the_shared_operating_points(tmp_path, spacings):
    """Every row, as-fabricated column included, equals ``mc.table_rows``
    under the default adaptive policy on the requested spacing grid, each
    lattice measured alone."""
    assert cli.main(["sweep", "--reproduce-table2", "--spacings", spacings, "--seed", "5",
                     "--out", str(tmp_path)]) == 0
    lines = read_bytes(tmp_path, "sweep", "default", "results.csv").decode().splitlines()
    assert lines[0] == ("family,distance,n_qubits,mean_collisions_sigma132.3,spacing_mhz,"
                        "mean_collisions_sigma14,yield,trials")
    expected = []
    for family in lattice.FAMILIES:
        for distance in (3, 5, 7):
            lat = lattice.build_lattice(family, distance)
            ((tuned, fab),) = mc.table_rows([lat], lattice.FrequencyPattern(),
                                            mc.AdaptiveTrials(), 5,
                                            spacing_grid=[float(s) for s in spacings.split(",")])
            expected.append(",".join(cli._cell(v) for v in (
                family, distance, lat.n_qubits, fab.mean_collisions, tuned.spacing_mhz,
                tuned.mean_collisions, tuned.yield_fraction, tuned.trials)))
    assert lines[1:] == expected


@pytest.mark.parametrize("argv, flag", [
    (["--family", "square"], "--family=square"),
    (["-d", "3"], "--distance=3"),
    (["--sigmas", "5"], "--sigmas=5"),
], ids=["family", "distance", "sigmas"])
def test_table2_refuses_the_settings_it_would_ignore(tmp_path, capsys, argv, flag):
    """The table's nine lattices and two scatter levels are fixed, so a
    lattice or a sigma list is an error, raised before anything is written."""
    assert cli.main(["sweep", "--reproduce-table2", "--trials", "20", *argv,
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag}: not taken with --reproduce-table2" in err and "Traceback" not in err
    assert not (tmp_path / "sweep").exists()


def test_table2_manifest_replays(tmp_path):
    """A table2 manifest leaves family, distance and sigmas unset, so its
    replay passes the check and writes the same table."""
    assert cli.main(["sweep", "--reproduce-table2", "--trials", "20", "--name", "t2",
                     "--out", str(tmp_path)]) == 0
    config = read_json(tmp_path, "sweep", "t2", "manifest.json")["config"]
    assert (config["family"], config["distance"], config["sigmas"]) == (None, None, "")
    assert cli.main(["rerun", str(tmp_path / "sweep" / "t2" / "manifest.json"),
                     "--name", "replay", "--out", str(tmp_path)]) == 0
    assert read_bytes(tmp_path, "sweep", "replay", "results.csv") == \
        read_bytes(tmp_path, "sweep", "t2", "results.csv")


def test_table2_draws_each_deviate_row_once_and_writes_the_pinned_csv(tmp_path, monkeypatch):
    """Trials are planned before sampling, so the nine lattices hold only the
    1000 rows that two or more of their points read, as wide as the widest,
    and the square d=5 tuned point, planned at the boost count, draws rows
    1000-3999 itself, 49 wide, each once.  The CSV's sha256 is pinned."""
    draws, draw = [], mc._draw

    def spy(rng, first_trial, n_trials, n_qubits):
        draws.append((first_trial, n_trials, n_qubits))
        return draw(rng, first_trial, n_trials, n_qubits)
    monkeypatch.setattr(mc, "_draw", spy)
    assert cli.main(["sweep", "--reproduce-table2", "--seed", "1", "--out", str(tmp_path)]) == 0
    widest = max(lattice.build_lattice(f, d).n_qubits for f in lattice.FAMILIES for d in (3, 5, 7))
    assert widest == 145 and draws[0] == (0, 1000, widest)
    tail = draws[1:]
    assert tail and {n_qubits for _, _, n_qubits in tail} == {49}
    assert sorted(t for first, n, _ in tail for t in range(first, first + n)) == \
        list(range(1000, 4000))
    csv = read_bytes(tmp_path, "sweep", "default", "results.csv")
    assert hashlib.sha256(csv).hexdigest() == \
        "3b6f0e80be235abf36cc720259c95bda9637393cccaae3ad469e0f44471bf006"


class TestFitWindowCommand:
    def test_recovers_synthetic_width(self, tmp_path, capsys):
        # sigma 0 (yield exactly 1) and 150 MHz (yield 0 to 8 digits) carry no information
        src = synth_sweep_csv(tmp_path / "hh5.csv", "heavy_hexagon", 5, 65, 29.91,
                              sigmas=(0.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 40.0, 150.0))
        rc = cli.main(["fit-window", "--sweep-csv", src, "--out", str(tmp_path)])
        assert rc == 0
        fits = read_json(tmp_path, "fit-window")["fits"]
        assert len(fits) == 1
        assert fits[0]["n_qubits"] == 65
        assert fits[0]["delta_f_mhz"] == pytest.approx(29.91, abs=0.05)
        assert (fits[0]["n_points_used"], fits[0]["n_points_dropped"]) == (8, 2)
        rows = read_bytes(tmp_path, "fit-window", "default", "results.csv").decode().splitlines()
        assert rows[0].split(",")[-2:] == ["n_points_used", "n_points_dropped"]
        assert rows[1].split(",")[-2:] == ["8", "2"]
        assert "delta_f" in capsys.readouterr().out
        manifest = read_json(tmp_path, "fit-window", filename="manifest.json")
        assert src in manifest["inputs_sha256"]

    def test_csv_rows_are_the_json_fits(self, tmp_path):
        srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
                for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
        assert cli.main(["fit-window", "--sweep-csv", ",".join(srcs), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path, "fit-window")
        assert header == ["family", "distance", "n_qubits", "delta_f_mhz", "residual",
                          "n_points_used", "n_points_dropped"]
        fits = read_json(tmp_path, "fit-window")["fits"]
        assert len(rows) == len(fits) == 2
        assert rows == [as_cells(fit) for fit in fits]

    def test_missing_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("family,sigma\nx,1\n")
        assert cli.main(["fit-window", "--sweep-csv", str(bad), "--out", str(tmp_path)]) == 1
        assert "expected sweep CSV" in capsys.readouterr().err

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("family,distance,n_qubits,sigma_f_mhz,yield\n"
                       "square,3,17,10,0.5\n"
                       "square,3,17,oops,0.4\n")
        assert cli.main(["fit-window", "--sweep-csv", str(bad), "--out", str(tmp_path)]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_sweep_csv_required(self, tmp_path):
        assert cli.main(["fit-window", "--sweep-csv", "", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["fit-window", "extrapolate"])
def test_missing_sweep_csv_is_usage_error(tmp_path, capsys, command):
    assert cli.main([command, "--out", str(tmp_path)]) == 2
    assert "error: --sweep-csv: names no sweep CSV" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command", ["fit-window", "extrapolate"])
@pytest.mark.parametrize("cells, named", [
    ("17,nan,0.5", "sigma_f_mhz nan is not finite and >= 0"),
    ("17,inf,0.5", "sigma_f_mhz inf is not finite and >= 0"),
    ("17,-20,0.5", "sigma_f_mhz -20.0 is not finite and >= 0"),
    ("17,12,nan", "yield nan is not in [0, 1]"),
    ("17,12,1.7", "yield 1.7 is not in [0, 1]"),
    ("17,12,-0.1", "yield -0.1 is not in [0, 1]"),
    ("0,12,0.5", "n_qubits 0 is not >= 1"),
], ids=["nan-sigma", "inf-sigma", "negative-sigma", "nan-yield", "yield-above-1",
        "negative-yield", "no-qubits"])
def test_bad_sweep_row_is_an_error_naming_its_line(tmp_path, capsys, command, cells, named):
    """A sweep row the fit would drop without a word, or fit with no qubits,
    is an input error."""
    bad = tmp_path / "bad.csv"
    bad.write_text("family,distance,n_qubits,sigma_f_mhz,yield\n"
                   "square,3,17,8,0.9\nsquare,3,17,10,0.6\n"
                   f"square,3,{cells}\nsquare,3,17,16,0.1\n")
    assert cli.main([command, "--sweep-csv", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} row 4: {named}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-window", "extrapolate"])
def test_sweep_csv_paths_are_stripped(tmp_path, monkeypatch, command):
    """Blanks around a ``--sweep-csv`` path are dropped, as around a
    ``--sigmas`` value, and the manifest records each path stripped."""
    monkeypatch.chdir(tmp_path)
    for d, n, w in ((3, 23, 31.61), (5, 65, 29.91)):
        synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
    assert cli.main([command, "--sweep-csv", " hh3.csv, hh5.csv ", "--name", "spaced"]) == 0
    assert cli.main([command, "--sweep-csv", "hh3.csv,hh5.csv", "--name", "plain"]) == 0
    inputs = read_json("out", command, "spaced", "manifest.json")["inputs_sha256"]
    assert sorted(inputs) == ["hh3.csv", "hh5.csv"]
    assert read_bytes("out", command, "spaced", "results.csv") == \
        read_bytes("out", command, "plain", "results.csv")


@pytest.mark.parametrize("command", ["fit-window", "extrapolate"])
def test_a_sweep_csv_without_data_rows_is_an_input_error(tmp_path, capsys, command):
    bare = tmp_path / "bare.csv"
    bare.write_text("family,distance,n_qubits,sigma_f_mhz,yield\n")
    assert cli.main([command, "--sweep-csv", str(bare), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {bare}: no data rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigmas", ["14,14", "14,14.0000001", "0,-0"])
def test_extrapolate_sigmas_name_each_column_once(tmp_path, capsys, sigmas):
    srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
            for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
    assert cli.main(["extrapolate", "--sweep-csv", ",".join(srcs), "--sigmas", sigmas,
                     "--out", str(tmp_path / "out")]) == 2
    assert f"error: --sigmas={sigmas}: names one yield_sigma column twice" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_json_results_reject_non_finite_values(tmp_path):
    """results.json stays standard JSON: a NaN or an infinity is an error,
    raised before any file of the run, a valid one rendered first included,
    is written."""
    cfg = {"out": str(tmp_path), "command": "fit-rn", "name": "default"}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(cli.FreqcrowdError, match="^results.json: non-finite value$"):
            cli._write_run(cfg, {"results.csv": [{"delta_f_mhz": 31.5}],
                                 "results.json": {"fits": [{"delta_f_mhz": bad}]}})
    assert not (tmp_path / "fit-rn").exists()


def test_a_sweep_whose_chart_fails_leaves_no_directory(tmp_path, capsys, monkeypatch):
    """Every output is rendered before any is written: a failure while the
    last one renders leaves neither the tables nor a manifest behind."""
    from freqcrowd import svgchart

    def broken_chart(*args, **kwargs):
        raise cli.FreqcrowdError("chart failed")

    monkeypatch.setattr(svgchart, "line_chart", broken_chart)
    assert cli.main(["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "14",
                     "--trials", "20", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: chart failed\n"
    assert not (tmp_path / "out").exists()


def test_a_one_point_sweep_at_huge_scatter_writes_its_chart(tmp_path):
    """A zero-width axis at |x| >= 2**53, where adding 1 rounds away, still
    gets a chart."""
    assert cli.main(["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "1e16",
                     "--out", str(tmp_path)]) == 0
    run = tmp_path / "sweep" / "default"
    assert "plot.svg" in read_json(tmp_path, "sweep", "default", "manifest.json")["outputs"]
    assert (run / "plot.svg").read_text().count("<circle") == 2


@pytest.mark.parametrize("command", ["fit-rn", "extrapolate"])
def test_failed_run_leaves_no_directory(tmp_path, command):
    csv = synth_sweep_csv(tmp_path / "hh3.csv", "heavy_hexagon", 3, 23, 31.61)
    argv = {"fit-rn": ["--csv", str(tmp_path / "missing.csv")],
            "extrapolate": ["--sweep-csv", f"{csv},{csv}"]}[command]  # one lattice twice
    assert cli.main([command, *argv, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


class TestExtrapolateCommand:
    def test_negative_zero_sigma_names_the_zero_column(self, tmp_path):
        srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
                for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
        assert cli.main(["extrapolate", "--sweep-csv", ",".join(srcs), "--sigmas=-0.0,1",
                         "--out", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path, "extrapolate")
        assert header == ["n_qubits", "delta_f_mhz", "yield_sigma0", "yield_sigma1"]

    def test_trend_from_three_sizes(self, tmp_path, capsys):
        srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
                for d, n, w in ((3, 23, 31.61), (5, 65, 29.91), (7, 127, 29.29))]
        rc = cli.main(["extrapolate", "--sweep-csv", ",".join(srcs), "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path, "extrapolate")
        assert payload["trend"]["n_points"] == 3
        assert payload["predictions"]["delta_f_300_mhz"] == pytest.approx(27.99, abs=0.1)
        assert payload["predictions"]["delta_f_1000_mhz"] == pytest.approx(26.32, abs=0.1)
        csv_lines = read_bytes(tmp_path, "extrapolate", "default", "results.csv").decode().splitlines()
        assert csv_lines[0].split(",")[:2] == ["n_qubits", "delta_f_mhz"]
        assert csv_lines[0] == ("n_qubits,delta_f_mhz,yield_sigma14,yield_sigma12,"
                                "yield_sigma10,yield_sigma8,yield_sigma6")
        assert len(csv_lines) == 1 + len(range(20, 1001, 5))
        assert "delta_f(300)" in capsys.readouterr().out

    def test_trend_reaching_zero_is_unfittable(self, tmp_path, capsys):
        """A wide small lattice and a narrow larger one give a trend that
        reaches 0 MHz inside 20 to 1000 qubits; the error names where."""
        srcs = [synth_sweep_csv(tmp_path / "hh3.csv", "heavy_hexagon", 3, 23, 30.99),
                synth_sweep_csv(tmp_path / "sq5.csv", "square", 5, 49, 12.74)]
        assert cli.main(["extrapolate", "--sweep-csv", ",".join(srcs),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window trend delta_f(N) = ")
        assert "reaches 0 MHz at N = 83," in err and "20 to 1000 qubits" in err
        assert "delta_f must be positive" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTuneCommand:
    def test_two_group_default(self, tmp_path, capsys):
        rc = cli.main(["tune", "--seed", "36", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path, "tune")
        assert payload["n_junctions"] == 31
        assert payload["converged_fraction"] == 1.0
        assert payload["pooled_sigma_f_mhz"] == pytest.approx(16.113, abs=0.01)
        assert payload["target_sigma_f_mhz"] == pytest.approx(16.355, abs=0.01)
        assert payload["statuses"]["converged"] == 31
        assert "converged 31/31" in capsys.readouterr().out

    def test_spread_campaign(self, tmp_path):
        rc = cli.main(["tune", "--junctions", "300", "--target-spread", "0.4:14.5",
                       "--seed", "36", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path, "tune")
        assert payload["n_junctions"] == 300
        assert payload["converged_fraction"] >= 0.99
        hist = read_bytes(tmp_path, "tune", "default", "results.csv").decode().splitlines()
        assert hist[0] == "id,step,power,duration_s,resistance_ohm,status"
        assert len(hist) > 301  # one as-fabricated row each plus anneal steps

    def test_bad_spread_syntax(self, tmp_path):
        assert cli.main(["tune", "--target-spread", "5", "--out", str(tmp_path)]) == 2

    def test_odd_junction_count_needs_spread(self, tmp_path):
        assert cli.main(["tune", "--junctions", "40", "--out", str(tmp_path)]) == 2

    def test_a_campaign_with_no_converged_junction_finishes(self, tmp_path, capsys):
        """No junction converges, so the figures over converged junctions are
        null and the summary line has no sigma_R; the run still writes every
        file, manifest included."""
        assert cli.main(["tune", "--junctions", "5", "--target-spread", "50:60",
                         "--max-anneals", "1", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path, "tune")
        assert payload["n_converged"] == 0
        for key in ("sigma_r_ohm", "pooled_sigma_f_mhz", "target_sigma_f_mhz",
                    "predicted_sigma_f_mhz"):
            assert payload[key] is None, key
        assert list(payload["group_median_f_ghz"]) == ["0"]
        assert read_json(tmp_path, "tune", filename="manifest.json")["outputs"] == [
            "plot.svg", "results.csv", "results.json"]
        out = capsys.readouterr().out
        assert out.startswith("converged 0/5 (0.0%)\ngroup 0: median R = ")
        assert "sigma_R" not in out and "pooled" not in out

    def test_every_default_but_the_spread_is_read_from_tunesim(self):
        from freqcrowd import tunesim
        defaults = {opt.dest: opt.default for opt in cli.OPTIONS if opt.commands == ("tune",)}
        assert defaults.pop("target_spread") == ""
        assert all(isinstance(d, cli.ModuleDefault) and d.module == "tunesim"
                   for d in defaults.values())
        assert {key: d.value() for key, d in defaults.items()} == {
            "junctions": sum(tunesim.TWO_GROUP_SIZES),
            "median_ohm": tunesim.DEFAULT_MEDIAN_OHM,
            "fractional_sigma": tunesim.DEFAULT_FRACTIONAL_SIGMA,
            "noise_sigma": tunesim.AnnealResponseModel.default().noise_sigma,
            "step_fraction": tunesim.TunePolicy().step_fraction,
            "converge_band": tunesim.TunePolicy().converge_band,
            "max_anneals": tunesim.TunePolicy().max_anneals,
            "residual_std_mhz": tunesim.default_wafer_fit().residual_std_mhz}


class TestFitRnCommand:
    @staticmethod
    def write_pairs(path, rows):
        path.write_text("resistance_ohm,frequency_ghz\n"
                        + "\n".join(f"{r},{f}" for r, f in rows) + "\n")
        return str(path)

    def test_exact_power_law(self, tmp_path, capsys):
        rows = [(r, 180.0 * r ** -0.5) for r in (6000.0, 7000.0, 8000.0, 9000.0)]
        src = self.write_pairs(tmp_path / "rn.csv", rows)
        rc = cli.main(["fit-rn", "--csv", src, "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path, "fit-rn")
        assert payload["exponent"] == pytest.approx(-0.5, abs=1e-9)
        assert payload["prefactor"] == pytest.approx(180.0, rel=1e-9)
        assert payload["residual_std_mhz"] == pytest.approx(0.0, abs=1e-6)
        assert payload["n"] == 4
        assert "R^-0.5" in capsys.readouterr().out

    def test_fixed_exponent_two_points(self, tmp_path):
        src = self.write_pairs(tmp_path / "rn.csv", [(7000.0, 2.2), (9000.0, 1.9)])
        rc = cli.main(["fit-rn", "--csv", src, "--fix-exponent", "-0.5",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path, "fit-rn")["exponent"] == -0.5

    def test_negative_zero_fixed_exponent_is_zero(self, tmp_path, capsys):
        src = self.write_pairs(tmp_path / "rn.csv", [(7000.0, 2.2), (9000.0, 1.9)])
        assert cli.main(["fit-rn", "--csv", src, "--fix-exponent=-0.0",
                         "--out", str(tmp_path)]) == 0
        assert "R^0.0000 " in capsys.readouterr().out
        text = read_bytes(tmp_path, "fit-rn", "default", "results.json").decode()
        assert '"exponent": 0.0' in text

    @pytest.mark.parametrize("exponent", ["inf", "-inf", "nan"])
    def test_non_finite_fixed_exponent_writes_nothing(self, tmp_path, capsys, exponent):
        src = self.write_pairs(tmp_path / "rn.csv", [(7000.0, 2.2), (9000.0, 1.9)])
        rc = cli.main(["fit-rn", "--csv", src, f"--fix-exponent={exponent}",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: --fix-exponent={exponent}: "
                                           f"fixed exponent must be finite, got {exponent}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exponent", ["1e300", "-1e300", "1e3"])
    def test_a_fixed_exponent_that_overflows_the_curve_is_a_usage_error(self, tmp_path, capsys,
                                                                        exponent):
        """A finite exponent whose power law is not finite over the data is
        refused under its flag, with no numpy warning and nothing written."""
        src = self.write_pairs(tmp_path / "rn.csv", [(5000.0, 5.7), (5000.0, 5.6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["fit-rn", "--csv", src, f"--fix-exponent={exponent}",
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: --fix-exponent={float(exponent):.10g}: "
                                           "fitted curve is not finite over the data\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad_line", ["7500", "7500,1.9x", "7500,nan"],
                             ids=["one-column", "typo", "nan"])
    def test_bad_row_is_an_error_naming_its_line(self, tmp_path, capsys, bad_line):
        src = tmp_path / "rn.csv"
        src.write_text("resistance_ohm,frequency_ghz\n6000,2.31\n7000,2.15\n"
                       f"{bad_line}\n9000,1.90\n")
        assert cli.main(["fit-rn", "--csv", str(src), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src} line 4: expected two finite numbers, got '{bad_line}'")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_too_few_rows_is_runtime_error(self, tmp_path, capsys):
        src = self.write_pairs(tmp_path / "rn.csv", [(7000.0, 2.2)])
        assert cli.main(["fit-rn", "--csv", src, "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_required(self, tmp_path):
        assert cli.main(["fit-rn", "--out", str(tmp_path)]) == 2


def test_no_environment_variable_changes_a_run(tmp_path, monkeypatch):
    """Settings come from flags and defaults alone: ``FREQCROWD_*`` variables
    that once set a spacing or the summary table leave a run's bytes as they are."""
    argv = ["check", "--family", "square", "-d", "3"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("FREQCROWD_SPACING_MHZ", "80")
    monkeypatch.setenv("FREQCROWD_REPRODUCE_TABLE2", "1")
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert read_json(tmp_path / "b", "check")["spacing_mhz"] == 70.0
    for fn in ("results.json", "manifest.json"):
        assert read_bytes(tmp_path / "a", "check", "default", fn) == \
            read_bytes(tmp_path / "b", "check", "default", fn)


def test_no_settings_file_is_read(tmp_path, capsys):
    ini = tmp_path / "fc.ini"
    ini.write_text("[freqcrowd]\nspacing_mhz = 60\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--family", "square", "-d", "3", "--config", str(ini),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["..", ".", "", "a/b", "../escaped"])
def test_a_run_name_names_one_directory_under_its_command(tmp_path, capsys, name):
    """``--name`` cannot place a run beside, above or inside another one."""
    out = tmp_path / "out"
    assert cli.main(["lattice", "--family", "square", "-d", "3", "--name", name,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: --name={name}: run name {name!r} must name one directory under out/<command>/\n"
    assert not out.exists()


# resolve_config with no flags, as recorded in
# manifest.json since the first release (fit-rn recorded an unset
# fix_exponent as NaN until it became None); rerun replays these snapshots.
# Only the commands that draw take a seed: lattice, fit-window, extrapolate
# and fit-rn recorded seed 0 as well until they stopped taking --seed, and
# check and sweep recorded base_ghz 5.0 until the set-point ladder's base
# became fixed.
COMMON = {"name": "default", "out": "out"}
MANIFEST_DEFAULTS = {
    "lattice": {"distance": None, "family": None},
    "check": {"anharmonicity_mhz": -330.0, "distance": None, "family": None,
              "seed": 0, "sigma_mhz": 0.0, "spacing_mhz": 70.0},
    "sweep": {"anharmonicity_mhz": -330.0, "distance": None, "family": None,
              "reproduce_table2": False, "seed": 0, "sigmas": "", "spacings": "", "trials": 0},
    "fit-window": {"sweep_csv": None},
    "extrapolate": {"sigmas": "", "sweep_csv": None},
    "tune": {"converge_band": 0.003, "fractional_sigma": 0.046, "junctions": 31,
             "max_anneals": 50, "median_ohm": 7600.0, "noise_sigma": 0.1,
             "residual_std_mhz": 14.5, "seed": 0, "step_fraction": 0.5, "target_spread": ""},
    "fit-rn": {"csv_path": None, "fix_exponent": None},
    "rerun": {"manifest": "m.json"},
}


@pytest.mark.parametrize("command", sorted(MANIFEST_DEFAULTS))
def test_resolved_defaults_match_recorded_manifests(command):
    argv = [command, "m.json"] if command == "rerun" else [command]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert cfg == {"command": command, **COMMON, **MANIFEST_DEFAULTS[command]}


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_the_set_point_ladder_takes_no_base(tmp_path, capsys, command):
    """The ladder starts at a fixed 5 GHz, since no collision window reads an
    absolute frequency: ``--base-ghz`` is an argparse usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--family", "square", "-d", "3", "--base-ghz", "5",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --base-ghz 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lattice", "fit-window", "extrapolate", "fit-rn"])
def test_commands_that_never_draw_take_no_seed(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--seed", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_every_option_flag_parses():
    assert set(MANIFEST_DEFAULTS) == set(cli._COMMANDS)
    parser = cli.build_parser()
    samples = {int: ("7", 7), float: ("1.5", 1.5), str: ("x", "x")}
    for opt in cli.OPTIONS:
        for command in opt.commands or tuple(MANIFEST_DEFAULTS):
            head = [command, "m.json"] if command == "rerun" else [command]
            if opt.dest == "manifest":
                assert parser.parse_args([command, "x"]).manifest == "x"
                continue
            for flag in opt.flags:
                if opt.type is bool:
                    args = parser.parse_args(head + [flag])
                    assert getattr(args, opt.dest) is True
                else:
                    raw, value = samples[opt.type]
                    assert getattr(parser.parse_args(head + [flag, raw]), opt.dest) == value


def test_no_command_has_two_options_feeding_one_parameter():
    """Each library parameter a command's options feed names one flag in its errors."""
    for command in cli._COMMANDS:
        params = [param for opt in cli.OPTIONS if opt.commands is None or command in opt.commands
                  for param in opt.params or (opt.dest,)]
        assert len(params) == len(set(params)), command


def test_every_rejection_in_the_cli_is_a_package_error():
    """cli.py defines no exception class of its own, every ``raise`` of a call
    raises a class from ``freqcrowd.errors``, every ``ParameterError`` it
    raises names an option by a literal ``dest`` or a variable, and no
    (command, setting or parameter) pair leads to two options."""
    tree = ast.parse(inspect.getsource(cli))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            assert not issubclass(getattr(cli, node.name), BaseException), node.name
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            name = ast.unparse(node.exc.func)
            assert issubclass(getattr(errors, name, type), errors.FreqcrowdError), name
            if name == "ParameterError":
                assert len(node.exc.args) == 2, ast.unparse(node)
                param = node.exc.args[1]
                assert isinstance(param, ast.Name) or param.value in cli._OPTION, \
                    ast.unparse(node)
    keys = [(command, param) for opt in cli.OPTIONS for command in opt.commands or cli._COMMANDS
            for param in (opt.dest, *opt.params)]
    assert len(keys) == len(set(keys)) == len(cli._FEEDS)


class TestRerunCommand:
    def test_replay_is_byte_identical(self, tmp_path):
        rows = [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)]
        src = TestFitRnCommand.write_pairs(tmp_path / "rn.csv", rows)
        assert cli.main(["fit-rn", "--csv", src, "--name", "r1",
                         "--out", str(tmp_path / "a")]) == 0
        manifest = os.path.join(tmp_path, "a", "fit-rn", "r1", "manifest.json")
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 0
        for fn in ("results.json", "plot.svg"):
            assert read_bytes(tmp_path / "a", "fit-rn", "r1", fn) == \
                read_bytes(tmp_path / "b", "fit-rn", "r1", fn)

    def test_replay_reads_a_nan_fixed_exponent_as_unset(self, tmp_path):
        """Manifests written while a free exponent defaulted to NaN still
        replay to the same results."""
        rows = [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)]
        src = TestFitRnCommand.write_pairs(tmp_path / "rn.csv", rows)
        assert cli.main(["fit-rn", "--csv", src, "--out", str(tmp_path / "a")]) == 0
        manifest = read_json(tmp_path / "a", "fit-rn", filename="manifest.json")
        assert manifest["config"]["fix_exponent"] is None
        manifest["config"]["fix_exponent"] = float("nan")
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert '"fix_exponent": NaN' in old.read_text()
        assert cli.main(["rerun", str(old), "--out", str(tmp_path / "b")]) == 0
        for fn in ("results.json", "plot.svg"):
            assert read_bytes(tmp_path / "a", "fit-rn", "default", fn) == \
                read_bytes(tmp_path / "b", "fit-rn", "default", fn)
        replayed = read_json(tmp_path / "b", "fit-rn", filename="manifest.json")
        assert replayed["config"]["fix_exponent"] is None

    def test_replay_sweep(self, tmp_path):
        args = ["sweep", "--family", "square", "-d", "3", "--sigmas", "10,30",
                "--spacings", "40", "--trials", "50", "--seed", "2"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        manifest = os.path.join(tmp_path, "a", "sweep", "default", "manifest.json")
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 0
        assert read_bytes(tmp_path / "a", "sweep", "default", "results.csv") == \
            read_bytes(tmp_path / "b", "sweep", "default", "results.csv")

    def test_replay_reads_a_recorded_negative_zero_as_zero(self, tmp_path):
        """A manifest that recorded -0.0 replays it as 0.0, as its flag now reads."""
        args = ["check", "--family", "square", "-d", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        manifest = read_json(tmp_path / "a", "check", filename="manifest.json")
        manifest["config"]["spacing_mhz"] = -0.0
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert cli.main(["rerun", str(old), "--out", str(tmp_path / "b")]) == 0
        text = read_bytes(tmp_path / "b", "check", "default", "results.json").decode()
        assert '"spacing_mhz": 0.0' in text
        replayed = read_json(tmp_path / "b", "check", filename="manifest.json")
        assert '"spacing_mhz": 0.0' in json.dumps(replayed["config"])

    def test_replay_ignores_unread_config_keys(self, tmp_path):
        """Manifests written while sweeps took a thread count carry a
        ``threads`` key; replaying one must still give the same results."""
        args = ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "14,40",
                "--trials", "300", "--seed", "2"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        with open(tmp_path / "a" / "sweep" / "default" / "manifest.json") as fh:
            manifest = json.load(fh)
        manifest["config"]["threads"] = 4
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert cli.main(["rerun", str(old), "--out", str(tmp_path / "b")]) == 0
        assert read_bytes(tmp_path / "a", "sweep", "default", "results.csv") == \
            read_bytes(tmp_path / "b", "sweep", "default", "results.csv")

    def test_replay_rejects_seed_outside_key_range(self, tmp_path, capsys):
        """A hand-edited manifest gets the seed check a fresh run gets."""
        assert cli.main(["check", "--family", "square", "-d", "3",
                         "--out", str(tmp_path / "a")]) == 0
        with open(tmp_path / "a" / "check" / "default" / "manifest.json") as fh:
            manifest = json.load(fh)
        manifest["config"]["seed"] = -1
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert cli.main(["rerun", str(bad), "--out", str(tmp_path / "b")]) == 1
        assert "error: manifest config 'seed': master seed must be in [0, 2**128)" in \
            capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_rerun_takes_no_seed(self, tmp_path, capsys):
        """rerun replays its manifest's seed, so a --seed of its own is an
        argparse usage error, raised before the manifest is read."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["rerun", str(tmp_path / "m.json"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_changed_input_refuses_replay(self, tmp_path, capsys):
        rows = [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)]
        src = TestFitRnCommand.write_pairs(tmp_path / "rn.csv", rows)
        assert cli.main(["fit-rn", "--csv", src, "--out", str(tmp_path / "a")]) == 0
        with open(src, "a") as fh:
            fh.write("9500,1.7\n")
        manifest = os.path.join(tmp_path, "a", "fit-rn", "default", "manifest.json")
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 1
        assert "changed" in capsys.readouterr().err

    @staticmethod
    def edited_sweep_manifest(tmp_path, edit):
        """A small sweep's manifest, changed by ``edit`` and written beside it."""
        assert cli.main(["sweep", "--family", "square", "-d", "3", "--sigmas", "10",
                         "--spacings", "40", "--trials", "20", "--out", str(tmp_path / "a")]) == 0
        with open(tmp_path / "a" / "sweep" / "default" / "manifest.json") as fh:
            manifest = json.load(fh)
        edit(manifest)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        return str(bad)

    def assert_rejected(self, tmp_path, capsys, manifest, message):
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_replay_rejects_config_missing_a_read_key(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].pop("trials"))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config 'trials': required\n")

    def test_replay_rejects_unknown_command(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m.update(command="bogus"))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest command 'bogus' is not one of")

    def test_replay_rejects_non_object_config(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m.update(config=[1, 2]))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config must be a JSON object")

    def test_replay_refuses_a_name_outside_its_command(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update(name=".."))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config 'name': "
                             "run name '..' must name one directory under out/<command>/")

    def test_replay_rejects_a_nul_in_a_name_or_a_path(self, tmp_path, capsys):
        """A NUL, which no command line can pass but a manifest can hold, is
        an input error, not a ValueError from the file system."""
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update(name="a\0b"))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config 'name': "
                             "run name 'a\\x00b' must name one directory under out/<command>/")
        nul_csv = tmp_path / "nul_csv.json"
        nul_csv.write_text(json.dumps({"command": "fit-rn", "config": {
            "csv_path": "rn\0.csv", "fix_exponent": None, "name": "default"}}))
        self.assert_rejected(tmp_path, capsys, str(nul_csv), "rn\0.csv: embedded null byte\n")

    def test_rerun_refuses_its_own_name_outside_its_command(self, tmp_path, capsys):
        """rerun's own ``--name`` is a flag: a rejected one is a usage error
        that names it, raised before anything is written."""
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: None)
        assert cli.main(["rerun", manifest, "--name", "..", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == \
            "error: --name=..: run name '..' must name one directory under out/<command>/\n"
        assert not (tmp_path / "b").exists()

    def test_replay_rejects_non_object_inputs(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m.update(inputs_sha256=[1]))
        self.assert_rejected(tmp_path, capsys, manifest,
                             "manifest inputs_sha256 must be a JSON object")

    @pytest.mark.parametrize("key, value, wanted", [
        ("trials", "x", "int, not 'x'"),
        ("seed", "1", "int, not '1'"),
        ("sigmas", 5, "str, not 5"),
        ("distance", 3.5, "int, not 3.5"),
        ("trials", True, "int, not True"),
        ("reproduce_table2", 1, "bool, not 1"),
        ("anharmonicity_mhz", None, "float, not None"),
        ("anharmonicity_mhz", 10**400, "float, not 1000"),  # an int past float range
    ])
    def test_replay_rejects_wrong_typed_value(self, tmp_path, capsys, key, value, wanted):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update({key: value}))
        self.assert_rejected(tmp_path, capsys, manifest, f"manifest config {key!r}: must be {wanted}")

    @pytest.mark.parametrize("text, message", [
        ("{not json", "manifest is not valid JSON"),
        ("[1, 2]", "manifest must be a JSON object"),
        ('{"config": {}}', "manifest lacks 'command'"),
        ('{"command": "lattice"}', "manifest lacks 'config'"),
    ], ids=["not-json", "not-an-object", "no-command", "no-config"])
    def test_replay_rejects_a_malformed_manifest(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(text)
        self.assert_rejected(tmp_path, capsys, str(bad), message)

    def test_replay_refuses_a_missing_input_file(self, tmp_path, capsys):
        rows = [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)]
        src = TestFitRnCommand.write_pairs(tmp_path / "rn.csv", rows)
        assert cli.main(["fit-rn", "--csv", src, "--out", str(tmp_path / "a")]) == 0
        os.remove(src)
        manifest = str(tmp_path / "a" / "fit-rn" / "default" / "manifest.json")
        self.assert_rejected(tmp_path, capsys, manifest, f"input file missing: {src}")

    @pytest.mark.parametrize("command", ["lattice", "fit-window", "extrapolate", "fit-rn"])
    def test_replays_a_seed_recorded_before_the_command_stopped_taking_one(self, tmp_path,
                                                                          command):
        """These commands never draw, but their manifests recorded a seed
        while they took ``--seed``.  Such a manifest, written out here as
        the CLI wrote it, replays to the same outputs and the same manifest,
        byte for byte."""
        sweeps = ",".join(synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
                          for d, n, w in ((3, 23, 31.61), (5, 65, 29.91)))
        rn = TestFitRnCommand.write_pairs(tmp_path / "rn.csv",
                                          [(r, 165.0 * r ** -0.48) for r in (6000.0, 7500.0, 9000.0)])
        argv = {"lattice": ["--family", "heavy_hexagon", "-d", "3"],
                "fit-window": ["--sweep-csv", sweeps], "extrapolate": ["--sweep-csv", sweeps],
                "fit-rn": ["--csv", rn]}[command]
        assert cli.main([command, *argv, "--out", str(tmp_path / "a")]) == 0
        run = tmp_path / "a" / command / "default"
        manifest = json.loads((run / "manifest.json").read_text())
        assert "seed" not in manifest["config"]
        manifest["config"]["seed"] = 5
        manifest["config_hash"] = hashlib.sha256(
            json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()[:12]
        old = tmp_path / "old" / "manifest.json"
        old.parent.mkdir()
        old.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        assert cli.main(["rerun", str(old), "--out", str(tmp_path / "b")]) == 0
        again = tmp_path / "b" / command / "default"
        for name in manifest["outputs"]:
            assert (again / name).read_bytes() == (run / name).read_bytes(), name
        assert (again / "manifest.json").read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("command, argv", [
        ("check", ["--sigma-mhz", "20", "--seed", "3"]),
        ("sweep", ["--sigmas", "10,30", "--spacings", "40,70", "--trials", "50", "--seed", "2"])])
    def test_replays_a_base_recorded_before_the_ladder_fixed_it(self, tmp_path, command, argv):
        """check and sweep manifests recorded ``base_ghz`` (5.0 unless set)
        while the set-point ladder took a base.  Such a manifest, written out
        as the CLI wrote it, replays to the same manifest, byte for byte, and
        to the same outputs but for the config hash a sweep's results.json
        copies from its manifest."""
        assert cli.main([command, "--family", "heavy_hexagon", "-d", "3", *argv,
                         "--out", str(tmp_path / "a")]) == 0
        run = tmp_path / "a" / command / "default"
        manifest = json.loads((run / "manifest.json").read_text())
        new_hash = manifest["config_hash"]
        manifest["config"]["base_ghz"] = 5.0
        manifest["config_hash"] = hashlib.sha256(
            json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()[:12]
        old = tmp_path / "old" / "manifest.json"
        old.parent.mkdir()
        old.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        assert cli.main(["rerun", str(old), "--out", str(tmp_path / "b")]) == 0
        again = tmp_path / "b" / command / "default"
        assert (again / "manifest.json").read_bytes() == old.read_bytes()
        for name in manifest["outputs"]:
            assert (again / name).read_text() == \
                (run / name).read_text().replace(new_hash, manifest["config_hash"]), name

    def test_replay_reads_an_int_as_a_float_setting(self, tmp_path):
        manifest = self.edited_sweep_manifest(
            tmp_path, lambda m: m["config"].update(anharmonicity_mhz=-330))
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 0
        for fn in ("results.csv", "results.json", "manifest.json"):
            assert read_bytes(tmp_path / "a", "sweep", "default", fn) == \
                read_bytes(tmp_path / "b", "sweep", "default", fn)

    def test_replay_without_a_distance_is_an_input_error(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update(distance=None))
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 1
        assert "error: manifest config 'distance': required" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_missing_manifest(self, tmp_path, capsys):
        assert cli.main(["rerun", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")


def test_every_json_file_is_standard_json(tmp_path):
    """No command writes NaN or Infinity, which RFC 8259 JSON lacks:
    results.json and manifest.json alike, for every command."""
    sweeps = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
              for d, n, w in ((3, 23, 31.61), (5, 65, 29.91), (7, 127, 29.29))]
    rn = TestFitRnCommand.write_pairs(tmp_path / "rn.csv",
                                      [(r, 180.0 * r ** -0.5) for r in (6000.0, 7000.0, 8000.0)])
    out = tmp_path / "out"
    for argv in (["lattice", "--family", "heavy_hexagon", "-d", "3"],
                 ["check", "--family", "square", "-d", "5", "--sigma-mhz", "30"],
                 ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "0,14,150",
                  "--trials", "50"],
                 ["sweep", "--reproduce-table2", "--trials", "50", "--name", "t2"],
                 ["fit-window", "--sweep-csv", ",".join(sweeps)],
                 ["extrapolate", "--sweep-csv", ",".join(sweeps)],
                 ["tune", "--junctions", "20", "--target-spread", "0.4:14.5"],
                 ["fit-rn", "--csv", rn],
                 ["rerun", str(out / "fit-rn" / "default" / "manifest.json"), "--name", "replay"]):
        assert cli.main(argv + ["--out", str(out)]) == 0, argv

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    runs = sorted(p.parent for p in out.rglob("manifest.json"))
    assert len(runs) == 9
    assert {run.parent.name for run in runs} == set(cli._COMMANDS) - {"rerun"}
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_import_leaves_out_configparser_scipy_stats_and_optimize():
    """A fresh interpreter, because this test session has already loaded
    ``scipy.stats`` as an oracle."""
    code = ("import sys, freqcrowd.cli; print(sorted(m for m in "
            "('configparser', 'scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "[]"


def _scipy_modules_after(tmp_path, *argvs):
    """The ``scipy`` modules a fresh interpreter holds after importing
    ``freqcrowd.cli`` and running ``cli.main`` on each argv in turn.  A fresh
    interpreter, because this test session has loaded scipy as an oracle."""
    code = ("import json, sys\n"
            "from freqcrowd import cli\n"
            f"for argv in {[list(a) + ['--out', str(tmp_path)] for a in argvs]!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(out.stdout.splitlines()[-1])


def test_a_cold_tune_leaves_out_numpy_ma(tmp_path):
    """Group medians come from ``statistics``, not ``np.median`` or
    ``np.unique``, which load ``numpy.ma`` in numpy 2.4.  A fresh
    interpreter, because this test session may have loaded it already."""
    code = ("import sys, numpy\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    print('preloaded')\n"
            "else:\n"
            "    from freqcrowd import cli\n"
            f"    assert cli.main(['tune', '--out', {str(tmp_path)!r}]) == 0\n"
            "    print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    last = out.stdout.splitlines()[-1]
    if last == "preloaded":
        pytest.skip("import numpy alone loads numpy.ma here")
    assert last == "False"


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(tmp_path) == []


def test_commands_that_never_score_a_spacing_load_no_scipy(tmp_path):
    assert _scipy_modules_after(
        tmp_path, ["check", "--family", "square", "-d", "7", "--sigma-mhz", "14"], ["tune"]) == []


def test_sweeps_load_no_scipy(tmp_path):
    """Spacing scores use ``collision.ndtr``, so a sweep, a table2 sweep and
    the replay of a sweep all run on numpy alone."""
    assert _scipy_modules_after(
        tmp_path,
        ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "0,14", "--trials", "50",
         "--name", "hh3"],
        ["rerun", str(tmp_path / "sweep" / "hh3" / "manifest.json"), "--name", "replay"],
        ["sweep", "--reproduce-table2", "--trials", "50"]) == []


def test_every_command_loads_no_scipy(tmp_path):
    """freqcrowd imports numpy alone; scipy is a test oracle.  Every command
    runs in one fresh interpreter, fits and the replay of a sweep included."""
    sweeps = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
              for d, n, w in ((3, 23, 31.61), (5, 65, 29.91), (7, 127, 29.29))]
    rn = TestFitRnCommand.write_pairs(tmp_path / "rn.csv",
                                      [(r, 180.0 * r ** -0.5) for r in (6000.0, 7000.0, 8000.0)])
    assert _scipy_modules_after(
        tmp_path,
        ["lattice", "--family", "heavy_hexagon", "-d", "3"],
        ["check", "--family", "square", "-d", "7", "--sigma-mhz", "14"],
        ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "0,14", "--trials", "50",
         "--name", "hh3"],
        ["sweep", "--reproduce-table2", "--trials", "50"],
        ["rerun", str(tmp_path / "sweep" / "hh3" / "manifest.json"), "--name", "replay"],
        ["tune"],
        ["fit-rn", "--csv", rn],
        ["fit-window", "--sweep-csv", sweeps[1]],
        ["extrapolate", "--sweep-csv", ",".join(sweeps)]) == []
