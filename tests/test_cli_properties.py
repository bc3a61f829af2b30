"""Property test: no setting and no input file ends the CLI in a traceback.

Each command runs on flags drawn from its own options in ``cli.OPTIONS`` and
on generated bytes, CSV text and JSON as its ``--csv``, ``--sweep-csv`` and
manifest files.  Each flag is left out, given a value its command takes, or
given a bad one; each file holds a valid input, arbitrary text of its kind or
arbitrary bytes.  A setting with a declared domain takes values across it,
its edges included, and bad values just past each edge.  Whatever it is
given, ``cli.main`` returns 0, 1 or 2 (argparse's own rejections exit 2).
A run that fails past argument parsing prints exactly one ``error:`` or
``i/o error:`` line and writes no run directory; one that succeeds writes
it.  No run warns: tier-1 turns warnings into errors, so a numpy
RuntimeWarning, which a command line would print, fails its example, and no
in-domain setting may overflow.

Valid runs stay cheap: distances up to 5, at most 50 trials, at most three
scatter levels or spacings and at most 40 junctions.  Trial counts are bounded
because a valid ``sweep --trials 100000000000`` runs for hours.  Examples are
derandomized, so a tier-1 run is repeatable.
"""
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from freqcrowd import cli, lattice, window
from reference import domain_edges

SWEEP_COLUMNS = ("family", "distance", "n_qubits", "sigma_f_mhz", "yield")
INPUTS = {"csv_path": "rn.csv", "sweep_csv": "sweep.csv", "manifest": "manifest.json"}

bad_floats = st.one_of(
    st.sampled_from(["1e300", "1e400", "nan", "inf", "-inf", "-1", "x", "", "1,5"]),
    st.floats().map(repr))
bad_lists = st.one_of(
    st.lists(bad_floats, min_size=1, max_size=3).map(",".join),
    st.text(st.sampled_from("0123456789.,;: -ex"), max_size=8))


def _domain_values(domain):
    """Values across a declared domain, its edges included, and values just
    past each edge, as flag text."""
    inside, past = domain_edges(domain)
    good = st.floats(*inside[:2]) | st.sampled_from(inside)  # lo, the highest value inside
    return good, st.sampled_from(past).map(repr)


def _float_values(opt):
    """A float option's (good, bad) values: across its declared domain and
    just past it, or else near its default and bad as floats are."""
    if opt.domain is not None:
        good, past = _domain_values(opt.domain_of())
        return good, past | bad_floats
    default = opt.default.value() if isinstance(opt.default, cli.ModuleDefault) else opt.default
    lo, hi = sorted((0.5 * default, 1.5 * default))
    return st.floats(lo, hi), bad_floats


def _list_values(dest):
    """A list option's (good, bad) values: one to three values across the
    domain of the setting it feeds, and a list holding one just past it."""
    good, past = _domain_values(cli._OPTION[dest].domain_of())
    return (st.lists(good, min_size=1, max_size=3),
            bad_lists | st.lists(past, min_size=1, max_size=3).map(",".join))


# each option's (good, bad) flag values, where they are not drawn by type
FLAGS = {
    "family": (st.sampled_from([*lattice.FAMILIES, "heavy-hexagon"]),
               st.sampled_from(["Square", "hex", "", "heavy hexagon"])),
    "distance": (st.sampled_from([3, 5]), st.sampled_from(["-3", "0", "1", "2", "4", "33", "x"])),
    "sigmas": _list_values("sigmas"),
    "spacings": _list_values("spacings"),
    "trials": (st.integers(0, 50), st.sampled_from(["-1", "-3", "x", "", "1.5", "1e3"])),
    "junctions": (st.integers(1, 40), st.sampled_from(["0", "-2", "x", ""])),
    "max_anneals": (st.integers(0, 60), st.sampled_from(["-1", "x", "1.5"])),
    "target_spread": (st.sampled_from(["0.4:14.5", "1:2", "0:0", "3:3"]),
                      st.sampled_from(["5:1", "a:b", "1:2:3", "nan:1", "0:inf", "-1:2", ":"])),
    "name": (st.sampled_from(["default", "run", "x y", "é"]),
             st.sampled_from(["..", ".", "", "a/b", "/abs"])),
    "seed": (st.integers(0, 2**128 - 1),
             st.sampled_from(["-1", "x", str(2**128), str(-2**200), "1.0"])),
}


def _flag_values(opt):
    return FLAGS[opt.dest] if opt.dest in FLAGS else _float_values(opt)


def _flag_text(value):
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


@st.composite
def argvs(draw, command):
    """A command line for ``command``: each of its options left out, given a
    value its command takes or given a bad one; input files by the names the
    example writes them under."""
    argv = [command]
    for opt in cli.OPTIONS:
        if opt.dest == "out" or (opt.commands is not None and command not in opt.commands):
            continue
        kind = draw(st.sampled_from(["good"] * 6 + ["left out"] * 2 + ["bad"]))
        if opt.dest in INPUTS:
            names = [INPUTS[opt.dest]] if kind != "bad" else draw(st.lists(
                st.sampled_from([*INPUTS.values(), "missing.csv", "."]), min_size=1, max_size=2))
            value = ",".join(names)
        elif kind == "left out":
            continue
        elif opt.type is bool:
            argv.append(opt.flags[-1])
            continue
        else:
            good, bad = _flag_values(opt)
            value = _flag_text(draw(good if kind == "good" else bad))
        argv.append(value if opt.dest == "manifest" else f"{opt.flags[-1]}={value}")
    return argv


def _rows(cells):
    """Comma-joined rows of one to six cells."""
    return st.lists(st.lists(cells, min_size=1, max_size=6).map(",".join), max_size=8)


def _curve(family, distance, width, sigmas):
    n = lattice.build_lattice(family, distance).n_qubits
    return [f"{family},{distance},{n},{s!r},{window.window_yield(width, s, n)!r}"
            for s in sigmas]


# one to three lattices' yield curves from the window model: a sweep CSV
# that fit-window and extrapolate take
model_curves = st.lists(st.builds(
    _curve, st.sampled_from(lattice.FAMILIES), st.sampled_from([3, 5]), st.floats(20.0, 40.0),
    st.lists(st.floats(1.0, 80.0), min_size=3, max_size=8, unique=True)),
    min_size=1, max_size=3).map(lambda curves: [row for curve in curves for row in curve])
sweep_cells = st.one_of(st.sampled_from([*lattice.FAMILIES, "3", "5", "17", "0", ""]),
                        bad_floats, st.floats(0.0, 1.0).map(repr))
sweep_texts = st.builds(
    lambda header, rows, eol: eol.join([",".join(header), *rows]) + eol,
    st.just(SWEEP_COLUMNS) | st.permutations(SWEEP_COLUMNS + ("extra",)).flatmap(
        lambda cols: st.integers(4, 6).map(lambda n: cols[:n])),
    model_curves | _rows(sweep_cells), st.sampled_from(["\n", "\r\n", "\n\n"]))
power_law = st.lists(st.floats(5000.0, 10000.0), min_size=2, max_size=6).map(
    lambda rs: [f"{r!r},{180.0 * r ** -0.5!r}" for r in rs])
rn_texts = st.builds(
    lambda header, rows: header + "\n".join(rows) + "\n",
    st.sampled_from(["", "resistance_ohm,frequency_ghz\n", "# wafer\n"]),
    power_law | _rows(bad_floats | st.sampled_from(["7000", "8000", "2.2", "1.9", "#"])))

# a manifest config value: its option's own type and range, or another type
json_scalars = st.none() | st.booleans() | st.floats() | st.text(max_size=5)
TYPED = {"sigmas": FLAGS["sigmas"][0].map(_flag_text),
         "spacings": FLAGS["spacings"][0].map(_flag_text),
         "sweep_csv": st.sampled_from(["sweep.csv", "rn.csv", "a\0b"]),
         "csv_path": st.sampled_from(["rn.csv", "missing.csv", "a\0b"]),
         "name": FLAGS["name"][0] | st.sampled_from(["..", "a\0b"]),
         "target_spread": st.sampled_from(["", "1:2", "a:b"])}


def _config_value(opt):
    if opt.dest in TYPED:
        typed = TYPED[opt.dest]
    elif opt.type is bool:
        typed = st.booleans()
    else:
        typed = _flag_values(opt)[0]
    return st.one_of(*[typed] * 6, json_scalars, st.lists(st.integers(-3, 3), max_size=2))


@st.composite
def manifests(draw):
    """A manifest as ``rerun`` reads it: a command, its settings (each one
    perhaps missing or of the wrong type) and perhaps input digests."""
    command = draw(st.sampled_from([*cli._REPLAYABLE, "rerun", "bogus"]))
    keys = cli._REPLAYABLE.get(command, ("name",))
    config = {key: draw(_config_value(cli._OPTION[key])) for key in keys
              if draw(st.integers(0, 9))}
    manifest = {"command": command, "config": config}
    if draw(st.booleans()):
        manifest["inputs_sha256"] = draw(st.dictionaries(
            st.sampled_from(["rn.csv", "sweep.csv", "missing.csv", "."]), st.text(max_size=3)))
    return json.dumps(manifest)


json_values = st.recursive(json_scalars | st.integers(),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
FILES = {
    "rn.csv": st.one_of(rn_texts.map(str.encode), st.binary(max_size=40)),
    "sweep.csv": st.one_of(sweep_texts.map(str.encode), st.binary(max_size=40)),
    "manifest.json": st.one_of(*[manifests().map(str.encode)] * 3, st.binary(max_size=40),
                               json_values.map(json.dumps).map(str.encode),
                               st.integers(1, 3000).map(lambda n: b"[" * n + b"]" * n)),
}


def run(argv, inputs):
    """``cli.main(argv)`` in a fresh directory holding ``inputs``: its exit
    code (None for argparse's own rejection), its stderr lines and whether
    it left an ``out`` directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in inputs.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--out", "out"])
                except SystemExit as exc:
                    assert exc.code == 2, (argv, err.getvalue())
                    code = None
            return code, err.getvalue().splitlines(), os.path.exists("out")
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("command", cli._COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_no_input_ends_in_a_traceback(command, data):
    argv = data.draw(argvs(command), label="argv")
    # the files its command line names, and every file for a manifest's inputs
    inputs = {name: data.draw(FILES[name], label=name) for name in FILES
              if command == "rerun" or any(name in arg for arg in argv)}
    code, err, wrote = run(argv, inputs)
    assert code in (None, 0, 1, 2), (argv, err)
    assert wrote == (code == 0), (argv, err)
    if code:
        assert len([line for line in err if line.startswith(("error: ", "i/o error: "))]) == 1, \
            (argv, err)
