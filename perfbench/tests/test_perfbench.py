"""Tests of the benchmark itself: its checker, its wrappers and its metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from freqcrowd import collision, lattice, mc
from perfbench import ROOT, metrics, run, tracer
from perfbench.checks import Z_BOUND, PointChecker, check_chip, reference, sweep_digest
from perfbench.workloads import LISTED, WORKLOADS

SEED = 7


@pytest.fixture(scope="module")
def hh3():
    return lattice.build_lattice("heavy_hexagon", 3)


@pytest.fixture(scope="module")
def point(hh3):
    return mc.run_point(hh3, lattice.FrequencyPattern(), 60.0, 1000, SEED)


def _standard_error(hh3, p):
    """The larger of the sample's spread and a Poisson spread at the expected mean."""
    z = mc.gaussian_deviates(SEED, p.trials, hh3.n_qubits)
    sp = lattice.set_points_mhz(hh3, lattice.FrequencyPattern())
    totals = collision.count_collisions_batch(collision.build_index(hh3), sp + p.sigma_mhz * z).sum(axis=1)
    edges = [tuple(e) for e in hh3.edges]
    expected = reference.expected_mean_collisions(
        sp, p.sigma_mhz, edges, reference.spectator_triples(hh3.n_qubits, edges))
    return max(float(np.std(totals, ddof=1)), math.sqrt(expected)) / math.sqrt(p.trials)


def test_checker_accepts_a_true_point(hh3, point):
    z, problems = PointChecker(hh3, SEED).check_point(point)
    assert problems == []
    assert abs(z) < Z_BOUND


def test_checker_accepts_the_exact_zero_scatter_point(hh3):
    p = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=40.0), 0.0, 10, SEED)
    assert PointChecker(hh3, SEED).check_point(p) == (None, [])
    wrong = dataclasses.replace(p, mean_collisions=p.mean_collisions + 1.0)
    assert PointChecker(hh3, SEED).check_point(wrong)[1]


def test_checker_accepts_a_sample_short_of_rare_collisions(hh3):
    # One collision in 1000 trials where 9 are expected: with the sample's own
    # spread alone this would read as -8 standard errors.
    p = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=55.0), 8.0, 1000, 206)
    assert p.mean_collisions == 0.001
    z, problems = PointChecker(hh3, 206).check_point(p)
    assert problems == [] and -3.0 < z < -2.5


def test_checker_rejects_a_mean_shifted_by_ten_standard_errors(hh3, point):
    shift = 10.0 * _standard_error(hh3, point)
    scale = (point.mean_collisions + shift) / point.mean_collisions
    bad = dataclasses.replace(point, mean_collisions=point.mean_collisions + shift,
                              per_type_means=tuple(m * scale for m in point.per_type_means))
    checker = PointChecker(hh3, SEED)
    z, problems = checker.check_point(bad)
    assert problems and z == pytest.approx(10.0, rel=0.05)
    # The closed-form comparison alone catches it too, without the recount.
    z, problems = checker.check(bad.sigma_mhz, bad.spacing_mhz, bad.trials,
                                bad.mean_collisions, exact=False)
    assert len(problems) == 1 and "standard errors" in problems[0]


def test_checker_rejects_a_corrupted_chip_report(hh3):
    f = lattice.set_points_mhz(hh3, lattice.FrequencyPattern()) \
        + 132.3 * np.random.default_rng(SEED).standard_normal(hh3.n_qubits)
    report = collision.count_collisions(hh3, f, collect=True)
    assert report.total > 0
    assert check_chip(hh3, f, report) == []
    t = next(t for t, n in report.per_type.items() if n)
    miscounted = dataclasses.replace(report, per_type={**report.per_type, t: report.per_type[t] + 1})
    assert check_chip(hh3, f, miscounted)
    assert check_chip(hh3, f, dataclasses.replace(report, instances=report.instances[1:]))


def test_wrappers_leave_results_unchanged(hh3):
    originals = (collision.count_collisions_batch, mc.count_collisions_batch, mc.run_point)
    args = (hh3, lattice.FrequencyPattern(), (0.0, 20.0, 150.0))
    plain = sweep_digest(mc.sweep_sigma(*args, master_seed=SEED))
    t = tracer.Tracer()
    with t.active():
        assert mc.count_collisions_batch is collision.count_collisions_batch is not originals[0]
        traced = sweep_digest(mc.sweep_sigma(*args, master_seed=SEED))
    marks = tracer.SigmaMarks()
    with marks.active():
        marked = sweep_digest(mc.sweep_sigma(*args, master_seed=SEED))
    assert plain == traced == marked
    assert (collision.count_collisions_batch, mc.count_collisions_batch, mc.run_point) == originals
    assert [s for _, s in marks.marks] == [0.0, 20.0, 150.0]
    assert t.spans and all(s[tracer.END] >= s[tracer.START] for s in t.spans)


def test_layer_metrics_count_searches_boosts_and_useful_rows(hh3):
    t = tracer.Tracer()
    with t.active():
        points = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (14.0, 150.0), master_seed=SEED)
    # At 150 MHz almost no chip survives, so the policy re-measures at 4000 trials.
    assert [p.trials for p in points] == [1000, 4000]
    edges = len(hh3.edges)
    triples = len(lattice.next_nearest_triples(hh3))
    m = tracer.layer_metrics(t.spans, 1, {hh3.n_qubits: (edges, triples)})
    n_spacings = len(mc.DEFAULT_SPACING_GRID_MHZ)
    rows = 2 * n_spacings * 1000 + 4000
    assert m["mc.optimize_spacing.calls"] == 2
    assert m["mc.spacing_evals"] == 2 * n_spacings
    assert m["mc.boosts"] == 1
    assert m["collision.count_collisions_batch.rows"] == rows
    assert m["collision.count_collisions_batch.predicate_evals_computed"] == rows * (4 * edges + 3 * triples)
    assert m["mc.useful_row_ratio"] == pytest.approx(5000 / rows)
    total = m["mc.sweep_sigma.self_s"] + m["mc.optimize_spacing.self_s"] + m["mc.run_point.self_s"] \
        + m["collision.count_collisions_batch.self_s"] + m["mc.gaussian_deviates.self_s"] \
        + m["collision.build_index.self_s"] + m["lattice.next_nearest_triples.self_s"]
    sweep = next(s for s in t.spans if s[tracer.NAME] == "mc.sweep_sigma")
    assert total == pytest.approx(sweep[tracer.END] - sweep[tracer.START])


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:      1000 |       1400 | freqcrowd.window",
        "import time:        50 |       1500 | freqcrowd",
    ])
    assert tracer.parse_importtime(text) == pytest.approx(
        {"scipy": 300e-6, "freqcrowd.window": 1400e-6, "freqcrowd": 1500e-6})


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(LISTED)
    assert set(LISTED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == metrics.HIGHER_IS_BETTER
    for trace, units in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        _, result = run.run("chip_check", SEED, 0.0, trace)
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
