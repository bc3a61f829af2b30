"""Command-line front end: reproducible runs with manifests.

Every command renders all its outputs, then writes them and a
``manifest.json`` together under ``out/<command>/<name>/``, so a run that fails
leaves no directory.  The manifest records the package version, the fully
resolved configuration, and SHA-256 hashes of any input files.  ``freqcrowd rerun
<manifest>`` replays the command from that snapshot; on the same platform
the CSV/JSON outputs come back byte-identical (nothing here consults the
clock or any other ambient entropy).  Only the commands that draw random
numbers, ``check``, ``sweep`` and ``tune``, take ``--seed`` (default 0).

Settings come from command-line flags, else from built-in defaults, and from
nowhere else: no environment variable or file changes a run.  Each setting is
declared once, in :data:`OPTIONS`.  To repeat a run's settings, ``rerun`` its
manifest.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error.  A rejected
setting is a :class:`ParameterError` naming it or a library parameter it feeds
(ranges are the library's to check).  Given as a flag, it exits 2 with
``error: <flag>=<value>: <reason>``, no ``=<value>`` when unset, before any
file is written; replayed from a manifest, it exits 1 with ``error: manifest
config '<key>': <reason>``.  Each input file, the manifest included, is read
once, by :func:`_read`: one that cannot be read is an I/O failure, and one
that is not UTF-8 text, or a manifest nested past the JSON reader's depth, an
``error:`` naming it.  Both exit 1.

Importing this module loads ``collision``, ``lattice`` and ``mc`` (with
``errors`` and numpy under them), which the option defaults and the
commands' shared helpers read.  Each command imports the other modules it
calls (``window``, ``tunesim``, ``physics``, ``svgchart``) when it runs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, collision, lattice, mc
from .errors import FreqcrowdError, InputError, ParameterError, UnfittableError

EXTRAPOLATE_SIGMAS = (14.0, 12.0, 10.0, 8.0, 6.0)


class Option(NamedTuple):
    """One setting: its argparse flags, the converter applied to its flag's
    value, its default (a :class:`ModuleDefault` is read when a configuration
    is resolved), the commands that take it (``None``: every command) and the
    names of the library parameters it feeds: a :class:`ParameterError` naming
    one of them or its ``dest`` is reported under its flag."""

    dest: str
    flags: tuple
    type: type
    default: object
    commands: tuple | None
    help: str | None = None
    params: tuple = ()


class ModuleDefault(NamedTuple):
    """A default at an attribute path (such as ``TunePolicy.step_fraction``) of a
    submodule only some commands import, read when a configuration is resolved."""

    module: str
    name: str

    def value(self):
        from operator import attrgetter
        return attrgetter(self.name)(__import__(self.module, globals(), None, (), 1))


_LATTICE_COMMANDS = ("lattice", "check", "sweep")

OPTIONS = (
    Option("family", ("--family",), str, None, _LATTICE_COMMANDS,
           f"one of: {', '.join(lattice.FAMILIES)}"),
    Option("distance", ("-d", "--distance"), int, None, _LATTICE_COMMANDS,
           f"code distance (odd, 3 to {lattice.MAX_DISTANCE})"),
    Option("spacing_mhz", ("--spacing-mhz",), float, lattice.DEFAULT_SPACING_MHZ, ("check",)),
    Option("base_ghz", ("--base-ghz",), float, lattice.DEFAULT_BASE_GHZ, ("check", "sweep")),
    Option("sigma_mhz", ("--sigma-mhz",), float, 0.0, ("check",),
           "add one draw of Gaussian scatter before checking"),
    Option("anharmonicity_mhz", ("--anharmonicity-mhz",), float,
           lattice.DEFAULT_ANHARMONICITY_MHZ, ("check", "sweep")),
    Option("sigmas", ("--sigmas",), str, "", ("sweep", "extrapolate"),
           "comma-separated scatter levels in MHz", ("sigma_mhz", "sigma_f_mhz")),
    Option("spacings", ("--spacings",), str, "", ("sweep",),
           "comma-separated spacing grid in MHz", ("spacing_mhz",)),
    Option("trials", ("--trials",), int, 0, ("sweep",),
           "fixed trials per point (default: adaptive)"),
    Option("reproduce_table2", ("--reproduce-table2",), bool, False, ("sweep",),
           "summary table over all nine lattices"),
    Option("sweep_csv", ("--sweep-csv",), str, None, ("fit-window", "extrapolate"),
           "comma-separated sweep results.csv paths"),
    Option("junctions", ("--junctions",), int, ModuleDefault("tunesim", "TWO_GROUP_JUNCTIONS"),
           ("tune",), params=("n",)),
    Option("target_spread", ("--target-spread",), str, "", ("tune",),
           "LO:HI percent offsets above initial resistance", ("lo_fraction", "hi_fraction")),
    Option("median_ohm", ("--median-ohm",), float,
           ModuleDefault("tunesim", "DEFAULT_MEDIAN_OHM"), ("tune",)),
    Option("fractional_sigma", ("--fractional-sigma",), float,
           ModuleDefault("tunesim", "DEFAULT_FRACTIONAL_SIGMA"), ("tune",)),
    Option("noise_sigma", ("--noise-sigma",), float,
           ModuleDefault("tunesim", "DEFAULT_NOISE_SIGMA"), ("tune",)),
    Option("step_fraction", ("--step-fraction",), float,
           ModuleDefault("tunesim", "TunePolicy.step_fraction"), ("tune",)),
    Option("converge_band", ("--converge-band",), float,
           ModuleDefault("tunesim", "TunePolicy.converge_band"), ("tune",)),
    Option("max_anneals", ("--max-anneals",), int,
           ModuleDefault("tunesim", "TunePolicy.max_anneals"), ("tune",)),
    Option("residual_std_mhz", ("--residual-std",), float,
           ModuleDefault("tunesim", "DEFAULT_RESIDUAL_STD_MHZ"), ("tune",)),
    Option("csv_path", ("--csv",), str, None, ("fit-rn",),
           "CSV with header resistance_ohm,frequency_ghz"),
    Option("fix_exponent", ("--fix-exponent",), float, None, ("fit-rn",),
           "fix the power-law exponent (default: fit it)"),
    Option("manifest", ("manifest",), str, None, ("rerun",), "path to a manifest.json"),
    Option("out", ("--out",), str, "out", None, "output root directory (default: out)"),
    Option("name", ("--name",), str, "default", None,
           "run name under out/<command>/ (default: default)"),
    Option("seed", ("--seed",), int, 0, ("check", "sweep", "tune"),
           "master seed (default: 0, never wall-clock)", ("master_seed",)),
)

_OPTION = {opt.dest: opt for opt in OPTIONS}


def resolve_config(args: argparse.Namespace) -> dict:
    """Each setting's flag, or else its default."""
    cfg = {}
    for key, value in vars(args).items():
        if value is None:  # never the command, which argparse requires
            default = _OPTION[key].default
            value = default.value() if isinstance(default, ModuleDefault) else default
        cfg[key] = value
    return cfg


def _float(text) -> float:
    """A float setting's value, with -0.0 read as 0.0, which outputs would
    print as -0: the one converter of every float flag, list token and
    replayed manifest value."""
    return float(text) + 0.0


def _float_list(cfg: dict, key: str):
    """Setting ``key`` read as comma- or semicolon-separated numbers (the
    scatter levels and spacings that take a list)."""
    values = []
    for tok in cfg[key].replace(";", ",").split(","):
        if tok.strip():
            try:
                values.append(_float(tok))
            except ValueError:
                raise ParameterError(f"bad value {tok.strip()!r}", key) from None
    return values


def _read(path: str) -> tuple[str, str]:
    """An input file's text and the SHA-256 of the bytes it was decoded
    from, in one read: the one place an input file is opened."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except ValueError as exc:  # bytes that are not UTF-8 text, or a NUL in the path
        raise InputError(f"{path}: {exc}") from None


def _json_text(filename: str, payload, indent=None) -> str:
    """Standard JSON, or an error raised before any write: no NaN, infinity or deep nesting."""
    try:
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FreqcrowdError(f"{filename}: non-finite value") from exc
    except RecursionError as exc:
        raise FreqcrowdError(f"{filename}: nested past the JSON writer's depth") from exc


def _snapshot(cfg: dict) -> dict:
    """The configuration a manifest records: all of it but the output root."""
    return {k: v for k, v in cfg.items() if k != "out"}


def _config_hash(cfg: dict) -> str:
    """The first 12 hex digits of the SHA-256 of the configuration's snapshot."""
    return hashlib.sha256(_json_text("config", _snapshot(cfg)).encode()).hexdigest()[:12]


def _render(filename: str, data) -> str:
    """A ``.json`` file's payload as strict JSON, a ``.csv`` file's row dicts
    under the first row's keys, in order, as the header, any other file's text."""
    if filename.endswith(".json"):
        return _json_text(filename, data, indent=2) + "\n"
    if filename.endswith(".csv"):
        header = list(data[0])
        lines = [",".join(header)] + [",".join(_cell(row[c]) for c in header) for row in data]
        return "\n".join(lines) + "\n"
    return data


def _write_run(cfg: dict, outputs: dict, inputs=None) -> str:
    """Render ``outputs`` (file name -> data, as :func:`_render` reads it) and a
    manifest listing ``inputs`` (path -> SHA-256), then write them all under
    ``out/<command>/<name>/``: a run that fails, or holds a NaN or an infinity
    in its configuration or payloads, leaves no directory.  Returns the path."""
    texts = {name: _render(name, data) for name, data in outputs.items()}
    texts["manifest.json"] = _render("manifest.json", {
        "package": "freqcrowd", "version": __version__, "command": cfg["command"],
        "config": _snapshot(cfg), "config_hash": _config_hash(cfg),
        "inputs_sha256": inputs or {}, "outputs": sorted(outputs)})
    path = os.path.join(cfg["out"], cfg["command"], cfg["name"])
    os.makedirs(path, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(path, name), "w", newline="") as fh:
            fh.write(text)
    return path


def _cell(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _build(cfg: dict) -> lattice.Lattice:
    for key in ("family", "distance"):
        if cfg[key] is None:
            raise ParameterError("required", key)
    return lattice.build_lattice(cfg["family"], cfg["distance"],
                                 cfg.get("anharmonicity_mhz", lattice.DEFAULT_ANHARMONICITY_MHZ))


def _pattern(cfg: dict) -> lattice.FrequencyPattern:
    """The set-point pattern of ``--base-ghz`` and, for ``check``, ``--spacing-mhz``."""
    return lattice.FrequencyPattern(cfg["base_ghz"],
                                    cfg.get("spacing_mhz", _OPTION["spacing_mhz"].default))


def _sweep_row(pt: mc.SweepPoint) -> dict:
    """One sweep point, as a results.json point."""
    return {"family": pt.family, "distance": pt.distance, "n_qubits": pt.n_qubits,
            "sigma_f_mhz": pt.sigma_mhz, "spacing_mhz": pt.spacing_mhz, "trials": pt.trials,
            "mean_collisions": pt.mean_collisions, "yield": pt.yield_fraction,
            "per_type_means": list(pt.per_type_means)}


def _spread_type_means(row: dict) -> dict:
    """A sweep row as a results.csv row, ``per_type_means`` spread into ``mean_type<t>``."""
    flat = dict(row)
    flat.update((f"mean_type{t}", m) for t, m in zip(collision.TYPE_IDS, flat.pop("per_type_means")))
    return flat


def cmd_lattice(cfg: dict) -> int:
    """Build a lattice; write JSON and DOT."""
    lat = _build(cfg)
    path = _write_run(cfg, {"results.json": lattice.to_json_dict(lat),
                            "lattice.dot": lattice.to_dot(lat)})
    s = lattice.lattice_summary(lat)
    print(f"{lat.family} d={lat.distance}: {lat.n_qubits} qubits, {len(lat.edges)} directed couplings")
    print(f"roles: {s['code_roles']}")
    print(f"written: {path}")
    return 0


def cmd_check(cfg: dict) -> int:
    """Count collisions for one frequency assignment."""
    lat = _build(cfg)
    freqs = lattice.set_points_mhz(lat, _pattern(cfg))
    collision.check_sigma(cfg["sigma_mhz"])  # sigma <= 0 or NaN draws no deviate to check it
    if cfg["sigma_mhz"] > 0.0:
        freqs = freqs + cfg["sigma_mhz"] * mc.gaussian_deviates(cfg["seed"], 1, lat.n_qubits)[0]
    report = collision.count_collisions(lat, freqs, collect=True)
    _write_run(cfg, {"results.json": {
        "family": lat.family, "distance": lat.distance, "n_qubits": lat.n_qubits,
        "sigma_f_mhz": cfg["sigma_mhz"], "spacing_mhz": cfg["spacing_mhz"],
        "per_type": {str(t): n for t, n in report.per_type.items()},
        "total": report.total,
        "instances": [list(inst) for inst in report.instances],
    }})
    print(f"{lat.family} d={lat.distance} at spacing {cfg['spacing_mhz']:g} MHz, "
          f"sigma {cfg['sigma_mhz']:g} MHz")
    print("type  count")
    for t, n in report.per_type.items():
        print(f"   {t}  {n}")
    print(f" all  {report.total}")
    return 0


def _policy(cfg: dict) -> mc.AdaptiveTrials:
    n = cfg["trials"]
    if n < 0:
        raise ParameterError("must be >= 0 (0: adaptive)", "trials")
    return mc.AdaptiveTrials(base=n, boost=n) if n else mc.AdaptiveTrials()


def cmd_sweep(cfg: dict) -> int:
    """Monte Carlo yield vs frequency scatter."""
    spacing_grid = _float_list(cfg, "spacings") or mc.DEFAULT_SPACING_GRID_MHZ
    if cfg["reproduce_table2"]:
        for key in ("family", "distance", "sigmas"):
            if cfg[key] != _OPTION[key].default:
                raise ParameterError("not taken with --reproduce-table2, whose lattices "
                                     "and scatter levels are fixed", key)
        return _sweep_table2(cfg, spacing_grid)
    lat = _build(cfg)
    pattern = _pattern(cfg)
    sigma_grid = _float_list(cfg, "sigmas") or mc.DEFAULT_SIGMA_GRID_MHZ
    points = mc.sweep_sigma(lat, pattern, sigma_grid, _policy(cfg), cfg["seed"],
                            spacing_grid=spacing_grid)
    from . import svgchart
    rows = [_sweep_row(pt) for pt in points]
    sig = [pt.sigma_mhz for pt in points]
    path = _write_run(cfg, {
        "results.csv": [_spread_type_means(row) for row in rows],
        "results.json": {"metadata": {"seed": cfg["seed"], "config_hash": _config_hash(cfg)},
                         "points": rows},
        "plot.svg": svgchart.line_chart(
            [("mean collisions", sig, [pt.mean_collisions for pt in points]),
             ("yield", sig, [pt.yield_fraction for pt in points])],
            title=f"{lat.family} d={lat.distance}", x_label="frequency scatter (MHz)",
            y_label="per-lattice mean / fraction")})
    print(f"{lat.family} d={lat.distance}: {len(points)} sigma points -> {path}")
    return 0


def _sweep_table2(cfg: dict, spacing_grid) -> int:
    """The nine lattices' summary table from :func:`mc.table_rows`: the gate's
    rows at its seed (20260815) and 1-MHz spacing grid (``--spacings`` 30 to 150).

    Every point's trials are planned from its expected collisions, not from
    the sample, so the nine lattices hold only the deviate rows that two or
    more of their points read.  Under the default policy and spacing grid
    that is rows 0-999, 145 wide, and rows 1000-3999, 49 wide: the square
    d=5 tuned point and the three d=3 as-fabricated points are planned at
    the boost count at every seed."""
    rows = []
    sigma_hi, sigma_lo = mc.AS_FABRICATED_SIGMA_MHZ, mc.TUNED_SIGMA_MHZ
    policy, pattern = _policy(cfg), _pattern(cfg)
    lattices = [lattice.build_lattice(family, distance, cfg["anharmonicity_mhz"])
                for family in lattice.FAMILIES for distance in (3, 5, 7)]
    points = mc.table_rows(lattices, pattern, policy, cfg["seed"], spacing_grid=spacing_grid)
    for lat, (tuned, asfab) in zip(lattices, points):
        rows.append({"family": lat.family, "distance": lat.distance, "n_qubits": lat.n_qubits,
                     f"mean_collisions_sigma{sigma_hi:g}": asfab.mean_collisions,
                     "spacing_mhz": tuned.spacing_mhz,
                     f"mean_collisions_sigma{sigma_lo:g}": tuned.mean_collisions,
                     "yield": tuned.yield_fraction, "trials": tuned.trials})
        print(f"{lat.family:>14} d={lat.distance}: N={lat.n_qubits:>3} "
              f"mean@{sigma_hi:g}={asfab.mean_collisions:7.1f}  "
              f"mean@{sigma_lo:g}={tuned.mean_collisions:6.2f}  "
              f"yield={100 * tuned.yield_fraction:5.1f}%")
    path = _write_run(cfg, {"results.csv": rows})
    print(f"written: {path}")
    return 0


def _read_sweep_csv(path: str):
    """A sweep results.csv's per-(family, distance) yield curves, one cell per
    header column in each non-blank row, and the SHA-256 of its bytes."""
    text, digest = _read(path)
    try:
        header, *rows = list(csv.reader(io.StringIO(text, newline=""))) or [[]]
    except csv.Error as exc:  # a cell past the csv module's field limit
        raise InputError(f"{path}: {exc}") from None
    need = {"family", "distance", "n_qubits", "sigma_f_mhz", "yield"}
    if not need.issubset(header):
        raise InputError(f"{path}: expected sweep CSV with columns {sorted(need)}")
    curves = {}
    for lineno, cells in enumerate(filter(None, rows), start=2):
        if len(cells) != len(header):
            raise InputError(f"{path} row {lineno}: {len(cells)} cells, {len(header)} columns")
        row = dict(zip(header, cells))
        try:
            key = (row["family"], int(row["distance"]), int(row["n_qubits"]))
            sigma, yld = float(row["sigma_f_mhz"]), float(row["yield"])
        except ValueError as exc:
            raise InputError(f"{path} row {lineno}: {exc}") from exc
        if key[2] < 1:
            raise InputError(f"{path} row {lineno}: n_qubits {key[2]} is not >= 1")
        if not 0.0 <= sigma < math.inf:
            raise InputError(f"{path} row {lineno}: sigma_f_mhz {sigma} is not finite and >= 0")
        if not 0.0 <= yld <= 1.0:
            raise InputError(f"{path} row {lineno}: yield {yld} is not in [0, 1]")
        curves.setdefault(key, []).append((sigma, yld))
    if not curves:
        raise InputError(f"{path}: no data rows")
    return curves, digest


def _fit_sweep_csvs(cfg: dict):
    """Fit a window to every curve in the ``--sweep-csv`` files: each file's
    SHA-256, as parsed, and one ``(family, distance, n_qubits, WindowFit)`` per curve."""
    from . import window
    paths = [p.strip() for p in (cfg["sweep_csv"] or "").split(",") if p.strip()]
    if not paths:
        raise ParameterError("names no sweep CSV", "sweep_csv")
    inputs, fits = {}, []
    for path in paths:
        curves, inputs[path] = _read_sweep_csv(path)
        for (family, distance, n_qubits), curve in sorted(curves.items()):
            fits.append((family, distance, n_qubits, window.fit_window(curve, n_qubits)))
    return inputs, fits


def cmd_fit_window(cfg: dict) -> int:
    """Fit effective collision-free windows from sweep CSVs."""
    from . import svgchart, window
    inputs, fitted = _fit_sweep_csvs(cfg)
    fits = []
    for family, distance, n_qubits, fit in fitted:
        fits.append({"family": family, "distance": distance, "n_qubits": n_qubits,
                     "delta_f_mhz": fit.delta_f_mhz, "residual": fit.rms_residual,
                     "n_points_used": fit.n_points_used, "n_points_dropped": fit.n_points_dropped})
        print(f"{family:>14} d={distance}: delta_f = {fit.delta_f_mhz:5.2f} MHz "
              f"(N={n_qubits}, rms {fit.rms_residual:.3f})")
    sig = np.linspace(1.0, 150.0, 150)
    path = _write_run(cfg, {
        "results.json": {"fits": fits},
        "results.csv": fits,  # never empty: every sweep CSV has a data row
        "plot.svg": svgchart.line_chart(
            [(f"{f['family']} d={f['distance']}", sig,
              window.window_yield(f["delta_f_mhz"], sig, f["n_qubits"])) for f in fits],
            title="fitted collision-free windows", x_label="frequency scatter (MHz)",
            y_label="yield")}, inputs)
    print(f"written: {path}")
    return 0


def cmd_extrapolate(cfg: dict) -> int:
    """Window-width trend and yield projections vs size."""
    from . import svgchart, window
    inputs, fitted = _fit_sweep_csvs(cfg)
    sizes = [n_qubits for _, _, n_qubits, _ in fitted]
    widths = [fit.delta_f_mhz for *_, fit in fitted]
    trend = window.fit_trend(sizes, widths)
    sigmas = _float_list(cfg, "sigmas") or EXTRAPOLATE_SIGMAS
    if len({f"{s:g}" for s in sigmas}) < len(sigmas):
        raise ParameterError("names one yield_sigma column twice", "sigmas")
    ns = range(20, 1001, 5)
    if min(window.predict_delta_f(trend, ns[0]), window.predict_delta_f(trend, ns[-1])) <= 0.0:
        raise UnfittableError(
            f"window trend delta_f(N) = {trend.coeff_a:.2f} {trend.coeff_b_ln:+.3f} ln N reaches "
            f"0 MHz at N = {math.exp(-trend.coeff_a / trend.coeff_b_ln):.0f}, so it cannot "
            f"be extrapolated over {ns[0]} to {ns[-1]} qubits")
    rows = []
    for n in ns:
        df = window.predict_delta_f(trend, n)
        rows.append({"n_qubits": n, "delta_f_mhz": df,
                     **{f"yield_sigma{s:g}": window.window_yield(df, s, n) for s in sigmas}})
    path = _write_run(cfg, {
        "results.csv": rows,
        "results.json": {
            "trend": {"coeff_a": trend.coeff_a, "coeff_b_ln": trend.coeff_b_ln,
                      "coeff_b_log10": trend.coeff_b_log10,
                      "rms_residual_mhz": trend.rms_residual_mhz, "n_points": trend.n_points},
            "inputs": [{"n_qubits": n, "delta_f_mhz": w} for n, w in zip(sizes, widths)],
            "predictions": {"delta_f_300_mhz": window.predict_delta_f(trend, 300),
                            "delta_f_1000_mhz": window.predict_delta_f(trend, 1000)}},
        "plot.svg": svgchart.line_chart(
            [(f"sigma {s:g} MHz", list(ns), [r[f"yield_sigma{s:g}"] for r in rows])
             for s in sigmas],
            title="yield vs lattice size for the fitted window trend",
            x_label="qubits", y_label="yield")}, inputs)
    print(f"window trend: delta_f(N) = {trend.coeff_a:.2f} {trend.coeff_b_ln:+.3f} ln N  "
          f"-> delta_f(300) = {window.predict_delta_f(trend, 300):.2f} MHz, "
          f"delta_f(1000) = {window.predict_delta_f(trend, 1000):.2f} MHz")
    print(f"written: {path}")
    return 0


def cmd_tune(cfg: dict) -> int:
    """Simulate an adaptive resistance-trimming campaign."""
    from . import svgchart, tunesim
    if cfg["target_spread"]:
        try:
            lo, hi = (float(tok) for tok in cfg["target_spread"].split(":"))
        except ValueError as exc:
            raise ParameterError("wants LO:HI in percent, e.g. 0.4:14.5", "target_spread") from exc
    elif cfg["junctions"] != tunesim.TWO_GROUP_JUNCTIONS:
        raise ParameterError(f"the two-group scenario takes {tunesim.TWO_GROUP_JUNCTIONS} "
                             "junctions; give --target-spread LO:HI for another count",
                             "junctions")
    model = tunesim.AnnealResponseModel.default(noise_sigma=cfg["noise_sigma"])
    policy = tunesim.TunePolicy(cfg["step_fraction"], cfg["converge_band"], cfg["max_anneals"])
    r = tunesim.generate_population(cfg["junctions"], cfg["median_ohm"],
                                    cfg["fractional_sigma"], cfg["seed"])
    targets, group_ids = ((tunesim.spread_targets(r, lo / 100.0, hi / 100.0), None)
                          if cfg["target_spread"] else tunesim.two_group_split(r))
    result = tunesim.run_campaign(r, targets, model=model, policy=policy,
                                  master_seed=cfg["seed"], group_ids=group_ids,
                                  fit=tunesim.default_wafer_fit(cfg["residual_std_mhz"]))
    path = _write_run(cfg, {
        "results.csv": tunesim.history_rows(result.records),
        "results.json": {
            "n_junctions": len(result.records),
            "n_converged": result.n_converged,
            "converged_fraction": result.converged_fraction,
            "sigma_r_ohm": result.sigma_r_ohm,
            "group_median_r_ohm": {str(k): v for k, v in result.group_median_r_ohm.items()},
            "group_median_f_ghz": {str(k): v for k, v in result.group_median_f_ghz.items()},
            "pooled_sigma_f_mhz": result.pooled_sigma_f_mhz,
            "target_sigma_f_mhz": result.target_sigma_f_mhz,
            "predicted_sigma_f_mhz": result.predicted_sigma_f_mhz,
            "statuses": {s: sum(1 for r in result.records if r.status == s)
                         for s in (tunesim.CONVERGED, tunesim.OVERSHOT, tunesim.EXHAUSTED)}},
        "plot.svg": svgchart.line_chart(
            [(f"j{rec.junction_id}", list(range(len(rec.steps) + 1)),
              [rec.r_initial_ohm] + [s.r_after_ohm for s in rec.steps])
             for rec in result.records[:24]],
            title="anneal trajectories", x_label="anneal step", y_label="resistance (ohm)")})
    sigma_r = "" if result.sigma_r_ohm is None else f"  sigma_R = {result.sigma_r_ohm:.1f} ohm"
    print(f"converged {result.n_converged}/{len(result.records)} "
          f"({100 * result.converged_fraction:.1f}%){sigma_r}")
    if result.pooled_sigma_f_mhz is not None:
        print(f"pooled sigma_f = {result.pooled_sigma_f_mhz:.2f} MHz about group medians, "
              f"{result.target_sigma_f_mhz:.2f} MHz against targets "
              f"(quadrature prediction {result.predicted_sigma_f_mhz:.2f} MHz)")
    for g, med in sorted(result.group_median_r_ohm.items()):
        print(f"group {g}: median R = {med:.0f} ohm, "
              f"median f = {result.group_median_f_ghz[g]:.4f} GHz")
    print(f"written: {path}")
    return 0


def cmd_fit_rn(cfg: dict) -> int:
    """Power-law fit of measured resistance/frequency pairs."""
    from . import physics, svgchart
    csv_path = cfg["csv_path"]
    if not csv_path:
        raise ParameterError("required", "csv_path")
    text, digest = _read(csv_path)
    r, f = physics.parse_resistance_frequency_csv(text, csv_path)
    fit = physics.fit_power_law(r, f, fix_exponent=cfg["fix_exponent"])
    grid = np.geomspace(float(r.min()) * 0.98, float(r.max()) * 1.02, 80)
    path = _write_run(cfg, {
        "results.json": {"prefactor": fit.prefactor, "exponent": fit.exponent,
                         "residual_std_mhz": fit.residual_std_mhz, "n": fit.n_points},
        "plot.svg": svgchart.line_chart(
            [("measured", list(r), list(f)),
             ("fit", list(grid), list(physics.predict_frequency_ghz(fit, grid)))],
            title="junction resistance to qubit frequency",
            x_label="resistance (ohm)", y_label="frequency (GHz)")}, {csv_path: digest})
    print(f"f = {fit.prefactor:.3f} * R^{fit.exponent:.4f}  "
          f"(residual {fit.residual_std_mhz:.2f} MHz over {fit.n_points} devices)")
    print(f"written: {path}")
    return 0


def _replayed_value(key: str, value):
    """A manifest value for ``key`` as its option's converter gives it: a float
    setting takes an int or a float (as a float), every other type only
    itself (so no bool for an int), and None only where it is the default.
    Manifests written while a free ``--fix-exponent`` defaulted to NaN record
    it as NaN; that reads as unset."""
    opt = _OPTION[key]
    if key == "fix_exponent" and isinstance(value, float) and math.isnan(value):
        value = None
    if value is None and opt.default is None:
        return None
    if type(value) in ((int, float) if opt.type is float else (opt.type,)):
        try:
            return (_float if opt.type is float else opt.type)(value)
        except OverflowError:
            pass
    raise ParameterError(f"must be {opt.type.__name__}, not {value!r}", key)


def cmd_rerun(cfg: dict) -> int:
    """Replay a command from its manifest.json."""
    try:
        manifest = json.loads(_read(cfg["manifest"])[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise InputError("manifest must be a JSON object")
    for needed in ("command", "config"):
        if needed not in manifest:
            raise InputError(f"manifest lacks {needed!r}")
    command, config = manifest["command"], manifest["config"]
    if not isinstance(command, str) or command not in _REPLAYABLE:
        raise InputError(f"manifest command {command!r} is not one of: {', '.join(_REPLAYABLE)}")
    if not isinstance(config, dict):
        raise InputError("manifest config must be a JSON object")
    inputs = manifest.get("inputs_sha256", {})
    if not isinstance(inputs, dict):
        raise InputError("manifest inputs_sha256 must be a JSON object")
    for in_path, digest in inputs.items():
        if not os.path.exists(in_path):
            raise InputError(f"input file missing: {in_path}")
        if _read(in_path)[1] != digest:
            raise InputError(f"input file changed since the original run: {in_path}")
    sub = dict(config, command=command, out=cfg["out"])
    try:
        for key in _REPLAYABLE[command]:
            if key not in config:
                raise ParameterError("required", key)
            sub[key] = _replayed_value(key, config[key])
        if cfg["name"] != _OPTION["name"].default:
            sub["name"] = cfg["name"]
        return _run(sub)
    except ParameterError as exc:  # a manifest's value, not a flag's
        opt = _FEEDS.get((command, exc.param))
        raise InputError(f"manifest config {opt.dest!r}: {exc}" if opt else str(exc)) from exc


def _run(cfg: dict) -> int:
    """Run ``cfg``'s command, its run name checked first, so that its outputs
    stay in one directory under ``out/<command>/``, and its seed if it takes
    one (the commands that draw): the one path from a command line or a
    replayed manifest to a command."""
    name = cfg["name"]
    if name in ("", ".", "..") or "/" in name or os.sep in name or "\0" in name:
        raise ParameterError(f"run name {name!r} must name one directory under "
                             "out/<command>/", "name")
    if cfg["command"] in _OPTION["seed"].commands:
        mc.check_seed(cfg["seed"])
    return _COMMANDS[cfg["command"]](cfg)


_COMMANDS = {
    "lattice": cmd_lattice,
    "check": cmd_check,
    "sweep": cmd_sweep,
    "fit-window": cmd_fit_window,
    "extrapolate": cmd_extrapolate,
    "tune": cmd_tune,
    "fit-rn": cmd_fit_rn,
    "rerun": cmd_rerun,
}

# the commands a manifest can replay (rerun writes none), each with the
# settings its handler reads: every option it takes but --out
_REPLAYABLE = {command: tuple(opt.dest for opt in OPTIONS
                              if opt.dest != "out"
                              and (opt.commands is None or command in opt.commands))
               for command in _COMMANDS if command != "rerun"}

# (command, setting or library parameter) -> the option feeding it there
_FEEDS = {(command, param): opt for opt in OPTIONS for command in opt.commands or _COMMANDS
          for param in (opt.dest, *opt.params)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcrowd",
        description="Frequency-crowding statistics for fixed-frequency transmon lattices.")
    parser.add_argument("--version", action="version", version=f"freqcrowd {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, handler in _COMMANDS.items():
        p = subs.add_parser(command, help=handler.__doc__)
        p.register("type", float, _float)  # type=float converts with _float
        for opt in OPTIONS:
            if opt.commands is not None and command not in opt.commands:
                continue
            kwargs = {"help": opt.help}
            if opt.type is bool:
                kwargs.update(action="store_const", const=True)
            else:
                kwargs["type"] = opt.type
            if opt.flags[0].startswith("-"):
                kwargs["dest"] = opt.dest
            p.add_argument(*opt.flags, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _run(cfg)
    except FreqcrowdError as exc:
        # a rejected setting, or a library parameter a flag feeds, is a usage error
        opt = _FEEDS.get((args.command, getattr(exc, "param", None)))
        message = str(exc)
        if opt:  # the flag, with its value unless the setting is unset
            value = cfg[opt.dest]
            message = f"{opt.flags[-1]}{'' if value is None else '=' + _cell(value)}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return 2 if opt else 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
