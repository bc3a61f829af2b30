"""Command-line front end: reproducible runs with manifests.

Every command writes its outputs under ``out/<command>/<name>/`` together
with a ``manifest.json`` recording the package version, the fully resolved
configuration, and SHA-256 hashes of any input files.  ``freqcrowd rerun
<manifest>`` replays the command from that snapshot; on the same platform
the CSV/JSON outputs come back byte-identical (nothing here consults the
clock or any other ambient entropy — the default seed is 0).

Configuration precedence: command-line flags beat ``FREQCROWD_<KEY>``
environment variables, which beat ``--config`` INI entries (section
``[freqcrowd]``), which beat built-in defaults.  Each setting is declared
once, in :data:`OPTIONS`, which drives all four sources.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, collision, lattice, mc, physics, svgchart, tunesim, window
from .errors import FreqcrowdError, InputError, ParameterError, UnfittableError

EXTRAPOLATE_SIGMAS = (14.0, 12.0, 10.0, 8.0, 6.0)


class Option(NamedTuple):
    """One setting: its argparse flags, the converter applied to flag,
    ``FREQCROWD_<DEST>`` and INI values, its default, and the commands
    that take it (``None``: every command)."""

    dest: str
    flags: tuple
    type: type
    default: object
    commands: tuple | None
    help: str | None = None


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
           collision.DEFAULT_ANHARMONICITY_MHZ, ("check", "sweep")),
    Option("sigmas", ("--sigmas",), str, "", ("sweep", "extrapolate"),
           "comma-separated scatter levels in MHz"),
    Option("spacings", ("--spacings",), str, "", ("sweep",),
           "comma-separated spacing grid in MHz"),
    Option("trials", ("--trials",), int, 0, ("sweep",),
           "fixed trials per point (default: adaptive)"),
    Option("reproduce_table2", ("--reproduce-table2",), bool, False, ("sweep",),
           "summary table over all nine lattices"),
    Option("sweep_csv", ("--sweep-csv",), str, None, ("fit-window", "extrapolate"),
           "comma-separated sweep results.csv paths"),
    Option("junctions", ("--junctions",), int, 31, ("tune",)),
    Option("target_spread", ("--target-spread",), str, "", ("tune",),
           "LO:HI percent offsets above initial resistance"),
    Option("median_ohm", ("--median-ohm",), float, tunesim.DEFAULT_MEDIAN_OHM, ("tune",)),
    Option("fractional_sigma", ("--fractional-sigma",), float,
           tunesim.DEFAULT_FRACTIONAL_SIGMA, ("tune",)),
    Option("noise_sigma", ("--noise-sigma",), float, 0.10, ("tune",)),
    Option("step_fraction", ("--step-fraction",), float, 0.5, ("tune",)),
    Option("converge_band", ("--converge-band",), float, 0.003, ("tune",)),
    Option("max_anneals", ("--max-anneals",), int, 50, ("tune",)),
    Option("residual_std_mhz", ("--residual-std",), float, 14.5, ("tune",)),
    Option("csv_path", ("--csv",), str, None, ("fit-rn",),
           "CSV with header resistance_ohm,frequency_ghz"),
    Option("fix_exponent", ("--fix-exponent",), float, None, ("fit-rn",),
           "fix the power-law exponent (default: fit it)"),
    Option("manifest", ("manifest",), str, None, ("rerun",), "path to a manifest.json"),
    Option("out", ("--out",), str, "out", None, "output root directory (default: out)"),
    Option("name", ("--name",), str, "default", None,
           "run name under out/<command>/ (default: default)"),
    Option("seed", ("--seed",), int, 0, None, "master seed (default: 0, never wall-clock)"),
    Option("config", ("--config",), str, None, None, "INI file with a [freqcrowd] section"),
)

_OPTION = {opt.dest: opt for opt in OPTIONS}


class UsageError(Exception):
    pass


def _coerce(key: str, raw: str):
    conv = _OPTION[key].type
    if conv is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"cannot read {raw!r} as a flag value for {key}")
    try:
        return conv(raw)
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {raw!r}") from exc


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge flags, FREQCROWD_* environment, INI file, and defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise UsageError(f"config file not found: {args.config}")
        if parser.has_section("freqcrowd"):
            for key, raw in parser.items("freqcrowd"):
                if key not in _OPTION:
                    raise UsageError(f"unknown config key: {key}")
                file_cfg[key] = _coerce(key, raw)
    cfg = {"command": args.command}
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            cfg[key] = value
            continue
        env = os.environ.get(f"FREQCROWD_{key.upper()}")
        if env is not None:
            cfg[key] = _coerce(key, env)
        elif key in file_cfg:
            cfg[key] = file_cfg[key]
        else:
            cfg[key] = _OPTION[key].default
    return cfg


def _float_list(cfg: dict, key: str):
    """Setting ``key`` read as comma- or semicolon-separated numbers."""
    values = []
    for tok in cfg[key].replace(";", ",").split(","):
        if tok.strip():
            try:
                values.append(float(tok))
            except ValueError:
                flag = _OPTION[key].flags[0]
                raise UsageError(f"bad value for {flag}: {tok.strip()!r}") from None
    return values


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _json_text(filename: str, payload, indent=None) -> str:
    """Standard JSON: a NaN or an infinity is an error, raised before any write."""
    try:
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FreqcrowdError(f"{filename}: non-finite value") from exc


class RunDir:
    """Output directory plus the manifest bookkeeping for one run; the
    directory is made at the first write, so a failed run leaves none.  A
    configuration holding a NaN or an infinity makes no run directory."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.path = os.path.join(cfg["out"], cfg["command"], cfg["name"])
        self.outputs = []
        self.inputs = {}
        self.snapshot = {k: v for k, v in cfg.items() if k != "out"}
        self.config_hash = hashlib.sha256(
            _json_text("config", self.snapshot).encode()).hexdigest()[:12]

    def _write(self, filename: str, text: str) -> str:
        os.makedirs(self.path, exist_ok=True)
        full = os.path.join(self.path, filename)
        with open(full, "w", newline="") as fh:
            fh.write(text)
        return full

    def note_input(self, path: str) -> None:
        self.inputs[path] = _sha256(path)

    def write_text(self, filename: str, text: str) -> str:
        full = self._write(filename, text)
        self.outputs.append(filename)
        return full

    def write_json(self, filename: str, payload) -> str:
        return self.write_text(filename, _json_text(filename, payload, indent=2) + "\n")

    def write_csv(self, filename: str, rows) -> str:
        """Write row dicts; the first row's keys, in order, are the header."""
        header = list(rows[0])
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(row[c]) for c in header))
        return self.write_text(filename, "\n".join(lines) + "\n")

    def finish(self) -> None:
        manifest = {
            "package": "freqcrowd",
            "version": __version__,
            "command": self.cfg["command"],
            "config": self.snapshot,
            "config_hash": self.config_hash,
            "inputs_sha256": self.inputs,
            "outputs": sorted(self.outputs),
        }
        self._write("manifest.json", _json_text("manifest.json", manifest, indent=2) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _build(cfg: dict) -> lattice.Lattice:
    if not cfg["family"] or not cfg["distance"]:
        raise UsageError("--family and --distance are required")
    try:
        return lattice.build_lattice(cfg["family"], cfg["distance"])
    except (ParameterError, InputError) as exc:
        raise UsageError(str(exc)) from exc


def _rules(cfg: dict) -> collision.CollisionRules:
    return collision.CollisionRules(anharmonicity_mhz=cfg["anharmonicity_mhz"])


def _pattern(cfg: dict) -> lattice.FrequencyPattern:
    return lattice.FrequencyPattern(
        base_ghz=cfg.get("base_ghz", _OPTION["base_ghz"].default),
        spacing_mhz=cfg.get("spacing_mhz", _OPTION["spacing_mhz"].default))


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
    run = RunDir(cfg)
    run.write_json("results.json", lattice.to_json_dict(lat))
    run.write_text("lattice.dot", lattice.to_dot(lat))
    run.finish()
    s = lattice.lattice_summary(lat)
    print(f"{lat.family} d={lat.distance}: {lat.n_qubits} qubits, {len(lat.edges)} directed couplings")
    print(f"roles: {s['code_roles']}")
    print(f"written: {run.path}")
    return 0


def cmd_check(cfg: dict) -> int:
    """Count collisions for one frequency assignment."""
    lat = _build(cfg)
    pattern = _pattern(cfg)
    freqs = lattice.set_points_mhz(lat, pattern)
    collision.check_sigma(cfg["sigma_mhz"])
    if cfg["sigma_mhz"] > 0.0:
        freqs = freqs + cfg["sigma_mhz"] * mc.gaussian_deviates(cfg["seed"], 1, lat.n_qubits)[0]
    report = collision.count_collisions(lat, freqs, _rules(cfg), collect=True)
    run = RunDir(cfg)
    run.write_json("results.json", {
        "family": lat.family, "distance": lat.distance, "n_qubits": lat.n_qubits,
        "sigma_f_mhz": cfg["sigma_mhz"], "spacing_mhz": cfg["spacing_mhz"],
        "per_type": {str(t): n for t, n in report.per_type.items()},
        "total": report.total,
        "instances": [list(inst) for inst in report.instances],
    })
    run.finish()
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
        raise UsageError("--trials must be >= 0 (0: adaptive)")
    return mc.AdaptiveTrials(base=n, boost=n) if n else mc.AdaptiveTrials()


def cmd_sweep(cfg: dict) -> int:
    """Monte Carlo yield vs frequency scatter."""
    spacing_grid = _float_list(cfg, "spacings") or mc.DEFAULT_SPACING_GRID_MHZ
    if cfg["reproduce_table2"]:
        return _sweep_table2(cfg, spacing_grid)
    lat = _build(cfg)
    pattern = _pattern(cfg)
    sigma_grid = _float_list(cfg, "sigmas") or mc.DEFAULT_SIGMA_GRID_MHZ
    points = mc.sweep_sigma(lat, pattern, sigma_grid, _policy(cfg), cfg["seed"],
                            spacing_grid=spacing_grid, rules=_rules(cfg))
    rows = [_sweep_row(pt) for pt in points]
    run = RunDir(cfg)
    run.write_csv("results.csv", [_spread_type_means(row) for row in rows])
    run.write_json("results.json", {
        "metadata": {"seed": cfg["seed"], "config_hash": run.config_hash},
        "points": rows,
    })
    sig = [pt.sigma_mhz for pt in points]
    run.write_text("plot.svg", svgchart.line_chart(
        [("mean collisions", sig, [pt.mean_collisions for pt in points]),
         ("yield", sig, [pt.yield_fraction for pt in points])],
        title=f"{lat.family} d={lat.distance}", x_label="frequency scatter (MHz)",
        y_label="per-lattice mean / fraction"))
    run.finish()
    print(f"{lat.family} d={lat.distance}: {len(points)} sigma points -> {run.path}")
    return 0


def _sweep_table2(cfg: dict, spacing_grid) -> int:
    """Summary table over all nine lattices: one :func:`mc.table_row` each,
    the same operating points the acceptance gate checks."""
    rows = []
    sigma_hi, sigma_lo = mc.AS_FABRICATED_SIGMA_MHZ, mc.TUNED_SIGMA_MHZ
    policy = _policy(cfg)
    lattices = [lattice.build_lattice(family, distance)
                for family in lattice.FAMILIES for distance in (3, 5, 7)]
    # one matrix for all nine: each lattice reads its own first n_qubits columns
    z = mc.gaussian_deviates(cfg["seed"], max(policy.max_trials(lat.distance) for lat in lattices),
                             max(lat.n_qubits for lat in lattices))
    for lat in lattices:
        tuned, asfab = mc.table_row(lat, _pattern(cfg), policy, cfg["seed"],
                                    spacing_grid=spacing_grid, rules=_rules(cfg), deviates=z)
        rows.append({"family": lat.family, "distance": lat.distance, "n_qubits": lat.n_qubits,
                     f"mean_collisions_sigma{sigma_hi:g}": asfab.mean_collisions,
                     "spacing_mhz": tuned.spacing_mhz,
                     f"mean_collisions_sigma{sigma_lo:g}": tuned.mean_collisions,
                     "yield": tuned.yield_fraction, "trials": tuned.trials})
        print(f"{lat.family:>14} d={lat.distance}: N={lat.n_qubits:>3} "
              f"mean@{sigma_hi:g}={asfab.mean_collisions:7.1f}  "
              f"mean@{sigma_lo:g}={tuned.mean_collisions:6.2f}  "
              f"yield={100 * tuned.yield_fraction:5.1f}%")
    run = RunDir(cfg)
    run.write_csv("results.csv", rows)
    run.finish()
    print(f"written: {run.path}")
    return 0


def _read_sweep_csv(path: str):
    """Parse a sweep results.csv into per-(family, distance) yield curves."""
    curves = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        need = {"family", "distance", "n_qubits", "sigma_f_mhz", "yield"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise InputError(f"{path}: expected sweep CSV with columns {sorted(need)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (row["family"], int(row["distance"]), int(row["n_qubits"]))
                sigma = float(row["sigma_f_mhz"])
                yld = float(row["yield"])
            except (TypeError, ValueError) as exc:
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
    return curves


def _fit_sweep_csvs(cfg: dict):
    """Fit a window to every curve in the ``--sweep-csv`` files.

    Returns the run directory and ``(family, distance, n_qubits, WindowFit)``
    per curve.
    """
    paths = [p for p in (cfg["sweep_csv"] or "").split(",") if p.strip()]
    if not paths:
        raise UsageError("--sweep-csv is required")
    run = RunDir(cfg)
    fits = []
    for path in paths:
        run.note_input(path)
        for (family, distance, n_qubits), curve in sorted(_read_sweep_csv(path).items()):
            fits.append((family, distance, n_qubits, window.fit_window(curve, n_qubits)))
    return run, fits


def cmd_fit_window(cfg: dict) -> int:
    """Fit effective collision-free windows from sweep CSVs."""
    run, fitted = _fit_sweep_csvs(cfg)
    fits = []
    for family, distance, n_qubits, fit in fitted:
        fits.append({"family": family, "distance": distance, "n_qubits": n_qubits,
                     "delta_f_mhz": fit.delta_f_mhz, "residual": fit.rms_residual,
                     "n_points_used": fit.n_points_used, "n_points_dropped": fit.n_points_dropped})
        print(f"{family:>14} d={distance}: delta_f = {fit.delta_f_mhz:5.2f} MHz "
              f"(N={n_qubits}, rms {fit.rms_residual:.3f})")
    run.write_json("results.json", {"fits": fits})
    run.write_csv("results.csv", fits)  # never empty: every sweep CSV has a data row
    sig = np.linspace(1.0, 150.0, 150)
    run.write_text("plot.svg", svgchart.line_chart(
        [(f"{f['family']} d={f['distance']}", sig,
          window.window_yield(f["delta_f_mhz"], sig, f["n_qubits"])) for f in fits],
        title="fitted collision-free windows", x_label="frequency scatter (MHz)",
        y_label="yield"))
    run.finish()
    print(f"written: {run.path}")
    return 0


def cmd_extrapolate(cfg: dict) -> int:
    """Window-width trend and yield projections vs size."""
    run, fitted = _fit_sweep_csvs(cfg)
    sizes = [n_qubits for _, _, n_qubits, _ in fitted]
    widths = [fit.delta_f_mhz for *_, fit in fitted]
    trend = window.fit_trend(sizes, widths)
    sigmas = _float_list(cfg, "sigmas") or EXTRAPOLATE_SIGMAS
    if len({f"{s:g}" for s in sigmas}) < len(sigmas):
        raise UsageError("--sigmas names one yield_sigma column twice")
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
    run.write_csv("results.csv", rows)
    run.write_json("results.json", {
        "trend": {"coeff_a": trend.coeff_a, "coeff_b_ln": trend.coeff_b_ln,
                  "coeff_b_log10": trend.coeff_b_log10, "rms_residual_mhz": trend.rms_residual_mhz,
                  "n_points": trend.n_points},
        "inputs": [{"n_qubits": n, "delta_f_mhz": w} for n, w in zip(sizes, widths)],
        "predictions": {"delta_f_300_mhz": window.predict_delta_f(trend, 300),
                        "delta_f_1000_mhz": window.predict_delta_f(trend, 1000)},
    })
    run.write_text("plot.svg", svgchart.line_chart(
        [(f"sigma {s:g} MHz", list(ns), [r[f"yield_sigma{s:g}"] for r in rows]) for s in sigmas],
        title="yield vs lattice size for the fitted window trend",
        x_label="qubits", y_label="yield"))
    run.finish()
    print(f"window trend: delta_f(N) = {trend.coeff_a:.2f} {trend.coeff_b_ln:+.3f} ln N  "
          f"-> delta_f(300) = {window.predict_delta_f(trend, 300):.2f} MHz, "
          f"delta_f(1000) = {window.predict_delta_f(trend, 1000):.2f} MHz")
    print(f"written: {run.path}")
    return 0


def cmd_tune(cfg: dict) -> int:
    """Simulate an adaptive resistance-trimming campaign."""
    if cfg["junctions"] < 1:
        raise UsageError("--junctions must be >= 1")
    fit = physics.PowerLawFit(prefactor=tunesim.default_wafer_fit().prefactor, exponent=-0.5,
                              residual_std_mhz=cfg["residual_std_mhz"], n_points=31,
                              exponent_fixed=True)
    model = tunesim.AnnealResponseModel.default(noise_sigma=cfg["noise_sigma"])
    policy = tunesim.TunePolicy(step_fraction=cfg["step_fraction"],
                                converge_band=cfg["converge_band"],
                                max_anneals=cfg["max_anneals"])
    records = tunesim.generate_population(cfg["junctions"], cfg["median_ohm"],
                                          cfg["fractional_sigma"], cfg["seed"])
    if cfg["target_spread"]:
        try:
            lo, hi = (float(tok) for tok in cfg["target_spread"].split(":"))
        except ValueError as exc:
            raise UsageError("--target-spread wants LO:HI in percent, e.g. 0.4:14.5") from exc
        tunesim.spread_targets(records, lo / 100.0, hi / 100.0)
        group_ids = None
    elif cfg["junctions"] == sum(tunesim.TWO_GROUP_SIZES):
        group_ids = tunesim.two_group_split(records)
    else:
        raise UsageError(f"either --target-spread LO:HI or --junctions "
                         f"{sum(tunesim.TWO_GROUP_SIZES)} (two-group scenario)")
    result = tunesim.run_campaign(records, model=model, policy=policy,
                                  master_seed=cfg["seed"], fit=fit, group_ids=group_ids)
    run = RunDir(cfg)
    run.write_csv("results.csv", tunesim.history_rows(result.records))
    run.write_json("results.json", {
        "n_junctions": len(result.records),
        "n_converged": result.n_converged,
        "converged_fraction": result.converged_fraction,
        "sigma_r_ohm": result.sigma_r_ohm,
        "group_median_r_ohm": {str(k): v for k, v in result.group_median_r_ohm.items()},
        "group_median_f_ghz": {str(k): v for k, v in (result.group_median_f_ghz or {}).items()},
        "pooled_sigma_f_mhz": result.pooled_sigma_f_mhz,
        "target_sigma_f_mhz": result.target_sigma_f_mhz,
        "predicted_sigma_f_mhz": result.predicted_sigma_f_mhz,
        "statuses": {s: sum(1 for r in result.records if r.status == s)
                     for s in (tunesim.CONVERGED, tunesim.OVERSHOT, tunesim.EXHAUSTED)},
    })
    shown = result.records[:24]
    run.write_text("plot.svg", svgchart.line_chart(
        [(f"j{rec.junction_id}", list(range(len(rec.steps) + 1)),
          [rec.r_initial_ohm] + [s.r_after_ohm for s in rec.steps]) for rec in shown],
        title="anneal trajectories", x_label="anneal step", y_label="resistance (ohm)"))
    run.finish()
    print(f"converged {result.n_converged}/{len(result.records)} "
          f"({100 * result.converged_fraction:.1f}%)  sigma_R = {result.sigma_r_ohm:.1f} ohm")
    if result.pooled_sigma_f_mhz is not None:
        print(f"pooled sigma_f = {result.pooled_sigma_f_mhz:.2f} MHz about group medians, "
              f"{result.target_sigma_f_mhz:.2f} MHz against targets "
              f"(quadrature prediction {result.predicted_sigma_f_mhz:.2f} MHz)")
    for g, med in sorted(result.group_median_r_ohm.items()):
        line = f"group {g}: median R = {med:.0f} ohm"
        if result.group_median_f_ghz:
            line += f", median f = {result.group_median_f_ghz[g]:.4f} GHz"
        print(line)
    print(f"written: {run.path}")
    return 0


def cmd_fit_rn(cfg: dict) -> int:
    """Power-law fit of measured resistance/frequency pairs."""
    path = cfg["csv_path"]
    if not path:
        raise UsageError("--csv is required")
    r, f = physics.load_resistance_frequency_csv(path)
    fit = physics.fit_power_law(r, f, fix_exponent=cfg["fix_exponent"])
    run = RunDir(cfg)
    run.note_input(path)
    run.write_json("results.json", {"prefactor": fit.prefactor, "exponent": fit.exponent,
                                    "residual_std_mhz": fit.residual_std_mhz, "n": fit.n_points})
    grid = np.geomspace(float(r.min()) * 0.98, float(r.max()) * 1.02, 80)
    run.write_text("plot.svg", svgchart.line_chart(
        [("measured", list(r), list(f)),
         ("fit", list(grid), list(physics.predict_frequency_ghz(fit, grid)))],
        title="junction resistance to qubit frequency",
        x_label="resistance (ohm)", y_label="frequency (GHz)"))
    run.finish()
    print(f"f = {fit.prefactor:.3f} * R^{fit.exponent:.4f}  "
          f"(residual {fit.residual_std_mhz:.2f} MHz over {fit.n_points} devices)")
    print(f"written: {run.path}")
    return 0


def _replayed_value(opt: Option, value):
    """A manifest value as its option's converter would give it: a float
    setting takes an int or a float (as a float), every other type only
    itself (so no bool for an int), and None only where it is the default.
    Manifests written while a free ``--fix-exponent`` defaulted to NaN record
    it as NaN; that reads as unset."""
    if opt.dest == "fix_exponent" and isinstance(value, float) and math.isnan(value):
        value = None
    if value is None and opt.default is None:
        return None
    if type(value) in ((int, float) if opt.type is float else (opt.type,)):
        try:
            return opt.type(value)
        except OverflowError:
            pass
    raise InputError(f"manifest config {opt.dest!r} must be {opt.type.__name__}, not {value!r}")


def cmd_rerun(cfg: dict) -> int:
    """Replay a command from its manifest.json."""
    path = cfg["manifest"]
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    missing = [key for key in _REPLAYABLE[command] if key not in config]
    if missing:
        raise InputError(f"manifest config lacks {', '.join(map(repr, missing))}")
    sub = dict(config)
    for key in _REPLAYABLE[command]:
        sub[key] = _replayed_value(_OPTION[key], config[key])
    for in_path, digest in inputs.items():
        if not os.path.exists(in_path):
            raise InputError(f"input file missing: {in_path}")
        if _sha256(in_path) != digest:
            raise InputError(f"input file changed since the original run: {in_path}")
    sub["command"] = command
    sub["out"] = cfg["out"]
    if cfg["name"] != _OPTION["name"].default:
        sub["name"] = cfg["name"]
    mc.check_seed(sub["seed"])
    return _COMMANDS[command](sub)


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
# settings its handler reads: every option it takes but --out and --config
_REPLAYABLE = {command: tuple(opt.dest for opt in OPTIONS
                              if opt.dest not in ("out", "config")
                              and (opt.commands is None or command in opt.commands))
               for command in _COMMANDS if command != "rerun"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcrowd",
        description="Frequency-crowding statistics for fixed-frequency transmon lattices.")
    parser.add_argument("--version", action="version", version=f"freqcrowd {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, handler in _COMMANDS.items():
        p = subs.add_parser(command, help=handler.__doc__)
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
        mc.check_seed(cfg["seed"])  # before any command reads or writes a file
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FreqcrowdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
