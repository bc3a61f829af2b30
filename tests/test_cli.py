"""End-to-end command-line behaviour: exit codes, files, reproducibility."""
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from freqcrowd import cli, lattice, mc, window


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
BASE = "pattern needs finite base > 0"
OVERFLOW_BASE = "pattern base must be at most 1e+300 MHz"
OVERFLOW_SPACING = "set points exceed 1e+300 MHz at this spacing"
ANHARMONICITY = "anharmonicity must be negative and >= -1e+300 (MHz)"
SEED = "master seed must be in [0, 2**128)"
SPREAD = "need 0 <= lo <= hi, both finite"
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
    "base-ghz": (["check", *SQUARE3, "--base-ghz", "0"], f"--base-ghz=0: {BASE}"),
    "inf-base-ghz": (["sweep", *SQUARE3, "--base-ghz", "inf"], f"--base-ghz=inf: {BASE}"),
    **{f"{command}-overflowing-{flag}": (
        [command, "--family", "heavy_hexagon", "-d", "3", f"--{flag}", value],
        f"--{flag}={shown}: {message}")
       for command, flag, value, shown, message in (
           ("sweep", "spacings", "1e308", "1e308", OVERFLOW_SPACING),
           ("sweep", "base-ghz", "1e306", "1e+306", OVERFLOW_BASE),
           ("check", "spacing-mhz", "1e308", "1e+308", OVERFLOW_SPACING),
           ("check", "base-ghz", "1e306", "1e+306", OVERFLOW_BASE))},
    # finite inputs whose trial frequencies or collision operands would overflow
    **{f"sweep-kernel-overflowing-{flag}": (
        ["sweep", "--family", "heavy_hexagon", "-d", "3", f"--{flag}={value}", *extra],
        f"--{flag}={shown}: {message}")
       for flag, value, shown, message, extra in (
           ("sigmas", "1e308", "1e308", SIGMA, ()),
           ("spacings", "5e307", "5e307", OVERFLOW_SPACING, ("--sigmas", "10", "--trials", "10")),
           ("base-ghz", "1.7e305", "1.7e+305", OVERFLOW_BASE, ()),
           ("anharmonicity-mhz", "-1.7976931348623157e308", "-1.797693135e+308",
            ANHARMONICITY, ("--sigmas", "1e300", "--trials", "10")))},
    "nan-base-ghz": (["sweep", *SQUARE3, "--sigmas", "10", "--trials", "20", "--base-ghz", "nan"],
                     f"--base-ghz=nan: {BASE}"),
    "table2-base-ghz": (["sweep", "--reproduce-table2", "--base-ghz", "-5"],
                        f"--base-ghz=-5: {BASE}"),
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
}


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    """A value that the library parameter its flag feeds rejects exits 2 with
    one error line naming the flag and the value as given, before anything
    is counted or written."""
    if "{sweep_csvs}" in argv:  # a window trend for extrapolate, from two synthetic sweeps
        srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
                for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
        argv = [",".join(srcs) if arg == "{sweep_csvs}" else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--family", "square", "-d", "3", "--spacings", "abc"], "--spacings: 'abc'"),
    (["sweep", "--reproduce-table2", "--spacings", "40,abc"], "--spacings: 'abc'"),
    (["sweep", "--family", "square", "-d", "3", "--sigmas", "x"], "--sigmas: 'x'"),
    (["sweep", "--family", "square", "-d", "3", "--sigmas", "10; 2e"], "--sigmas: '2e'"),
], ids=["spacings", "table2-spacings", "sigmas", "semicolon-sigmas"])
def test_non_numeric_list_value_is_a_usage_error(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: bad value for {message}" in err and "Traceback" not in err
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
    (["--family", "square"], "--family"),
    (["-d", "3"], "-d/--distance"),
    (["--sigmas", "5"], "--sigmas"),
], ids=["family", "distance", "sigmas"])
def test_table2_refuses_the_settings_it_would_ignore(tmp_path, capsys, argv, flag):
    """The table's nine lattices and two scatter levels are fixed, so a
    lattice or a sigma list is an error, raised before anything is written."""
    assert cli.main(["sweep", "--reproduce-table2", "--trials", "20", *argv,
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: --reproduce-table2 takes no {flag}" in err and "Traceback" not in err
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
    assert "--sweep-csv is required" in capsys.readouterr().err
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


@pytest.mark.parametrize("sigmas", ["14,14", "14,14.0000001"])
def test_extrapolate_sigmas_name_each_column_once(tmp_path, capsys, sigmas):
    srcs = [synth_sweep_csv(tmp_path / f"hh{d}.csv", "heavy_hexagon", d, n, w)
            for d, n, w in ((3, 23, 31.61), (5, 65, 29.91))]
    assert cli.main(["extrapolate", "--sweep-csv", ",".join(srcs), "--sigmas", sigmas,
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: --sigmas names one yield_sigma column twice" in capsys.readouterr().err
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

    @pytest.mark.parametrize("exponent", ["inf", "-inf", "nan"])
    def test_non_finite_fixed_exponent_writes_nothing(self, tmp_path, capsys, exponent):
        src = self.write_pairs(tmp_path / "rn.csv", [(7000.0, 2.2), (9000.0, 1.9)])
        rc = cli.main(["fit-rn", "--csv", src, f"--fix-exponent={exponent}",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: --fix-exponent={exponent}: "
                                           f"fixed exponent must be finite, got {exponent}\n")
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
# and fit-rn recorded seed 0 as well until they stopped taking --seed.
COMMON = {"name": "default", "out": "out"}
MANIFEST_DEFAULTS = {
    "lattice": {"distance": None, "family": None},
    "check": {"anharmonicity_mhz": -330.0, "base_ghz": 5.0, "distance": None, "family": None,
              "seed": 0, "sigma_mhz": 0.0, "spacing_mhz": 70.0},
    "sweep": {"anharmonicity_mhz": -330.0, "base_ghz": 5.0, "distance": None, "family": None,
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
        assert "error: master seed must be in [0, 2**128)" in capsys.readouterr().err
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
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config lacks 'trials'")

    def test_replay_rejects_unknown_command(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m.update(command="bogus"))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest command 'bogus' is not one of")

    def test_replay_rejects_non_object_config(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m.update(config=[1, 2]))
        self.assert_rejected(tmp_path, capsys, manifest, "manifest config must be a JSON object")

    def test_replay_refuses_a_name_outside_its_command(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update(name=".."))
        self.assert_rejected(tmp_path, capsys, manifest,
                             "run name '..' must name one directory under out/<command>/")

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
        ("base_ghz", None, "float, not None"),
    ])
    def test_replay_rejects_wrong_typed_value(self, tmp_path, capsys, key, value, wanted):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update({key: value}))
        self.assert_rejected(tmp_path, capsys, manifest, f"manifest config {key!r} must be {wanted}")

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

    def test_replay_reads_an_int_as_a_float_setting(self, tmp_path):
        manifest = self.edited_sweep_manifest(
            tmp_path, lambda m: m["config"].update(anharmonicity_mhz=-330))
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 0
        for fn in ("results.csv", "results.json", "manifest.json"):
            assert read_bytes(tmp_path / "a", "sweep", "default", fn) == \
                read_bytes(tmp_path / "b", "sweep", "default", fn)

    def test_replay_without_a_distance_is_a_usage_error(self, tmp_path, capsys):
        manifest = self.edited_sweep_manifest(tmp_path, lambda m: m["config"].update(distance=None))
        assert cli.main(["rerun", manifest, "--out", str(tmp_path / "b")]) == 2
        assert "error: --family and --distance are required" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_missing_manifest(self, tmp_path):
        assert cli.main(["rerun", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2


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
