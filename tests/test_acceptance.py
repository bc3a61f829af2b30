"""Deliverable gate: the eight headline checks, one pass/fail line each.

Reference numbers are the single-junction / nine-lattice values the package
is expected to reproduce; tolerances are part of the contract (they absorb
Monte Carlo error and undocumented layout details).  Run with
``pytest tests/test_acceptance.py -rA`` to see every verdict line.
"""
import json
import os

import numpy as np
import pytest

from freqcrowd import cli, collision, lattice, mc, tunesim, window
from reference import naive_counts

MC_SEED = 20260815
TUNE_SEED = 36
# acceptance rows resolve the set-point spacing on a 1-MHz grid
FINE_SPACING_GRID = tuple(float(s) for s in range(30, 151))

# per (family, distance): qubits, tuned-precision mean and yield (sigma_f =
# 14 MHz), as-fabricated mean (sigma_f = 132.3 MHz), and window width in MHz
REFERENCE = {
    ("square", 3): (17, 3.0, 0.06, 9.0, 13.96),
    ("square", 5): (49, 10.0, 0.001, 35.0, 13.23),
    ("square", 7): (97, 23.0, 0.0, 78.0, 12.12),
    ("heavy_square", 3): (25, 0.4, 0.67, 10.0, 30.89),
    ("heavy_square", 5): (73, 1.5, 0.27, 33.0, 29.49),
    ("heavy_square", 7): (145, 3.5, 0.06, 70.0, 29.06),
    ("heavy_hexagon", 3): (23, 0.4, 0.70, 8.0, 31.61),
    ("heavy_hexagon", 5): (65, 1.2, 0.33, 25.0, 29.91),
    ("heavy_hexagon", 7): (127, 2.7, 0.08, 51.0, 29.29),
}

ALL_KEYS = tuple(REFERENCE)


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


@pytest.fixture(scope="session")
def full_sweeps():
    """Yield curves over the default scatter grid, spacing re-optimised per
    point, adaptive trials, one pinned seed for the whole gate."""
    out = {}
    for family, distance in ALL_KEYS:
        lat = lattice.build_lattice(family, distance)
        out[(family, distance)] = mc.sweep_sigma(
            lat, lattice.FrequencyPattern(), master_seed=MC_SEED)
    return out


@pytest.fixture(scope="session")
def window_fits(full_sweeps):
    fits = {}
    for key, pts in full_sweeps.items():
        curve = [(p.sigma_mhz, p.yield_fraction) for p in pts]
        fits[key] = window.fit_window(curve, pts[0].n_qubits)
    return fits


@pytest.fixture(scope="session")
def table_rows():
    """Fine-grid operating points from one ``mc.table_rows`` call over the
    nine lattices, the CLI's own path: optimise the spacing at 14 MHz
    scatter, then measure the as-fabricated 132.3 MHz level at that same
    spacing (a chip is laid out before tuning quality is known).  The
    adaptive policy plans rare-survivor points at 4000 trials."""
    rows = mc.table_rows([lattice.build_lattice(*key) for key in ALL_KEYS],
                         lattice.FrequencyPattern(), mc.AdaptiveTrials(), MC_SEED,
                         spacing_grid=FINE_SPACING_GRID)
    return dict(zip(ALL_KEYS, rows, strict=True))


@pytest.fixture(scope="session")
def two_group_campaign():
    records = tunesim.generate_population(31, master_seed=TUNE_SEED)
    group_ids = tunesim.two_group_split(records)
    return tunesim.run_campaign(records, master_seed=TUNE_SEED,
                                fit=tunesim.default_wafer_fit(), group_ids=group_ids)


@pytest.fixture(scope="session")
def spread_campaign():
    records = tunesim.generate_population(300, master_seed=TUNE_SEED)
    tunesim.spread_targets(records, 0.004, 0.145)
    return tunesim.run_campaign(records, master_seed=TUNE_SEED)


def test_criterion_1_tuned_precision_rows(table_rows):
    worst_mean, worst_yield = 0.0, 0.0
    ok = True
    for key in ALL_KEYS:
        _, ref_mean, ref_yield, _, _ = REFERENCE[key]
        tuned, _ = table_rows[key]
        ok &= tuned.trials >= 1000
        mean_ok = (abs(tuned.mean_collisions - ref_mean) <= 0.3
                   or abs(tuned.mean_collisions - ref_mean) <= 0.25 * ref_mean)
        ydev = abs(tuned.yield_fraction - ref_yield)
        ok &= mean_ok and ydev <= 0.06
        if ref_mean > 0:
            worst_mean = max(worst_mean, abs(tuned.mean_collisions / ref_mean - 1.0))
        worst_yield = max(worst_yield, ydev)
    assert verdict(1, ok, f"nine rows at 14 MHz scatter, optimised spacing, >=1000 trials "
                          f"(worst mean dev {100 * worst_mean:.1f}% of +-25%/0.3, "
                          f"worst yield dev {100 * worst_yield:.1f}pp of 6pp)")


def test_criterion_2_window_widths(window_fits):
    devs = {key: abs(window_fits[key].delta_f_mhz - REFERENCE[key][4]) for key in ALL_KEYS}
    ok = all(d <= 2.0 for d in devs.values())
    worst = max(devs, key=devs.get)
    assert verdict(2, ok, f"nine fitted window widths within +-2 MHz "
                          f"(worst {worst[0]} d={worst[1]}: {devs[worst]:.2f} MHz off)")


def test_criterion_3_size_extrapolation(window_fits):
    sizes = [REFERENCE[("heavy_hexagon", d)][0] for d in (3, 5, 7)]
    widths = [window_fits[("heavy_hexagon", d)].delta_f_mhz for d in (3, 5, 7)]
    trend = window.fit_trend(sizes, widths)
    p300 = window.predict_delta_f(trend, 300)
    p1000 = window.predict_delta_f(trend, 1000)
    ok = abs(p300 - 27.99) <= 0.7 and abs(p1000 - 26.32) <= 0.7
    assert verdict(3, ok, f"heavy-hexagon log-size trend gives {p300:.2f} MHz at N=300 "
                          f"(want 27.99+-0.7) and {p1000:.2f} at N=1000 (want 26.32+-0.7)")


def test_criterion_4_moderate_scatter_crosschecks(full_sweeps, window_fits):
    y10 = {}
    for fam in lattice.FAMILIES:
        y10[fam] = next(p.yield_fraction for p in full_sweeps[(fam, 5)]
                        if p.sigma_mhz == 10.0)
    ok = (abs(y10["square"] - 0.008) <= 0.007
          and abs(y10["heavy_square"] - 0.90) <= 0.05
          and abs(y10["heavy_hexagon"] - 0.92) <= 0.05)
    req = {fam: window.required_sigma(window_fits[(fam, 5)].delta_f_mhz,
                                      REFERENCE[(fam, 5)][0], 0.1)
           for fam in lattice.FAMILIES}
    ok &= req["square"] < 8.0
    ok &= abs(req["heavy_square"] - 16.0) <= 1.5
    ok &= abs(req["heavy_hexagon"] - 17.0) <= 1.5
    assert verdict(4, ok, f"d=5 at 10 MHz scatter: yields "
                          f"{100 * y10['square']:.2f}%/{100 * y10['heavy_square']:.1f}%/"
                          f"{100 * y10['heavy_hexagon']:.1f}% (square/hs/hh), 10%-yield scatter "
                          f"{req['square']:.2f}/{req['heavy_square']:.2f}/"
                          f"{req['heavy_hexagon']:.2f} MHz")


def test_criterion_5_as_fabricated_regime(table_rows):
    ok = True
    worst_mean = 0.0
    for key in ALL_KEYS:
        _, _, _, ref_mean, _ = REFERENCE[key]
        _, fab = table_rows[key]
        if key == ("heavy_hexagon", 3):
            ok &= abs(fab.yield_fraction - 0.001) <= 0.001
        else:
            ok &= fab.yield_fraction <= 0.001
        dev = abs(fab.mean_collisions / ref_mean - 1.0)
        ok &= dev <= 0.25
        worst_mean = max(worst_mean, dev)
    hh3 = table_rows[("heavy_hexagon", 3)][1].yield_fraction
    assert verdict(5, ok, f"132.3 MHz scatter: all yields <=0.1% "
                          f"(heavy-hexagon d=3 at {100 * hh3:.3f}%), means within "
                          f"+-25% (worst {100 * worst_mean:.1f}%)")


def test_criterion_6_tuning_campaign(two_group_campaign, spread_campaign):
    ok = spread_campaign.converged_fraction >= 0.99
    monotone = True
    for res in (two_group_campaign, spread_campaign):
        for rec in res.records:
            path = [rec.r_initial_ohm] + [s.r_after_ohm for s in rec.steps]
            monotone &= all(b > a for a, b in zip(path, path[1:]))
    ok &= monotone
    pooled = two_group_campaign.pooled_sigma_f_mhz
    vs_target = two_group_campaign.target_sigma_f_mhz
    ok &= 14.0 <= pooled <= 18.5
    ok &= 14.0 <= vs_target <= 18.5
    assert verdict(6, ok, f"{spread_campaign.n_converged}/300 spread-target junctions "
                          f"converged, every anneal history strictly rising, two-group "
                          f"frequency precision {pooled:.2f} MHz pooled / {vs_target:.2f} MHz "
                          f"vs targets (band [14.0, 18.5], quadrature model "
                          f"{two_group_campaign.predicted_sigma_f_mhz:.2f})")


def test_criterion_7_brute_force_parity():
    mismatches = 0
    for fam in lattice.FAMILIES:
        lat = lattice.build_lattice(fam, 3)
        sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=45.0))
        z = mc.gaussian_deviates(MC_SEED, 200, lat.n_qubits)
        for t in range(200):
            f = sp + 40.0 * z[t]
            fast = collision.count_collisions(lat, f).per_type
            if fast != naive_counts(lat.n_qubits, lat.edges, f):
                mismatches += 1
    ok = mismatches == 0
    assert verdict(7, ok, f"vectorised counts equal the naive reference on 200 draws "
                          f"per distance-3 lattice ({mismatches} mismatches)")


def test_criterion_8_manifest_replay(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("FREQCROWD_"):
            monkeypatch.delenv(key)
    args = ["sweep", "--family", "heavy_hexagon", "-d", "3", "--sigmas", "0,14,40",
            "--spacings", "40,60", "--trials", "200", "--seed", str(MC_SEED)]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "sweep" / "default" / "manifest.json"
    assert cli.main(["rerun", str(manifest), "--out", str(tmp_path / "b")]) == 0
    same = True
    for fn in ("results.csv", "results.json"):
        with open(tmp_path / "a" / "sweep" / "default" / fn, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / "sweep" / "default" / fn, "rb") as fh:
            same &= first == fh.read()
    with open(manifest) as fh:
        recorded = json.load(fh)
    same &= recorded["config"]["seed"] == MC_SEED
    assert verdict(8, same, "sweep replayed from its manifest is byte-identical "
                            "(results.csv, results.json)")


def test_cli_table2_reproduces_the_gates_operating_points(table_rows, tmp_path, monkeypatch):
    """The command line gives the rows criteria 1 and 5 check, cell for cell,
    when it is run at the gate's seed and on its 1-MHz spacing grid."""
    for key in list(os.environ):
        if key.startswith("FREQCROWD_"):
            monkeypatch.delenv(key)
    spacings = ",".join(f"{s:g}" for s in FINE_SPACING_GRID)
    assert cli.main(["sweep", "--reproduce-table2", "--seed", str(MC_SEED),
                     "--spacings", spacings, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep" / "default" / "results.csv") as fh:
        lines = fh.read().splitlines()
    expected = []
    for (family, distance), (tuned, fab) in table_rows.items():
        expected.append(",".join(cli._cell(v) for v in (
            family, distance, tuned.n_qubits, fab.mean_collisions, tuned.spacing_mhz,
            tuned.mean_collisions, tuned.yield_fraction, tuned.trials)))
    assert lines[1:] == expected
