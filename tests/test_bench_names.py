"""The package names the benchmark harness in ``perfbench/`` reads.

``perfbench.tracer.rebound`` looks each traced name up with no default, so a
renamed function would fail every benchmark run rather than any test here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from freqcrowd import collision, lattice, mc, tunesim, window

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced_names():
    return _tracer().TRACED


def test_every_traced_name_resolves_in_freqcrowd():
    names = _traced_names()
    assert names
    for qualname in names:
        module, attr = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"freqcrowd.{module}"), attr, None)), \
            qualname


def _parameter(fn, position):
    return list(inspect.signature(fn).parameters)[position]


def test_benchmark_reads_sigma_at_position_2_and_the_base_trials():
    """The per-sigma timing marks read sigma as positional argument 2, the
    kernel counters the frequencies as argument 1, and the table2 check the
    as-fabricated base trials."""
    for fn in (mc.run_point, mc.optimize_spacing):
        assert _parameter(fn, 2) == "sigma_mhz", fn.__name__
    assert _parameter(collision.count_collisions_batch, 1) == "f01_mhz"
    assert mc.AdaptiveTrials().base_trials(7, 132.3) == 1000


def test_every_call_the_benchmark_makes_runs_under_its_tracer():
    """Each call ``perfbench/`` makes into the package, with its arguments
    (workloads.py, checks.py, setup_probe.py), run under the tracer, whose
    counters read the result fields it records: a changed signature or
    field fails here rather than in a benchmark run."""
    tracer = _tracer()
    spans = tracer.Tracer()
    lat = lattice.build_lattice("heavy_hexagon", 3)
    pattern = lattice.FrequencyPattern()
    # a chip as ChipCheck draws one, and set points as PointChecker builds them
    chip = (lattice.set_points_mhz(lat, lattice.FrequencyPattern())
            + 132.3 * np.random.default_rng(1).standard_normal(lat.n_qubits))
    f = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=45.0))
    with spans.active():
        warm = mc.sweep_sigma(lat, pattern, (0.0, 14.0, 150.0), master_seed=1)
        points = mc.sweep_sigma(lat, pattern, master_seed=1)
        fit = window.fit_window([(p.sigma_mhz, p.yield_fraction) for p in points],
                                lat.n_qubits)
        report = collision.count_collisions(lat, chip, collect=True)
        counts = collision.count_collisions_batch(collision.build_index(lat), f[None, :])
        records = tunesim.generate_population(20, master_seed=1)
        tunesim.spread_targets(records, 0.004, 0.145)
        campaign = tunesim.run_campaign(records, master_seed=1)
    assert [p.sigma_mhz for p in warm] == [0.0, 14.0, 150.0]
    assert [p.sigma_mhz for p in points] == list(mc.DEFAULT_SIGMA_GRID_MHZ)
    assert all(p.n_qubits == lat.n_qubits and p.trials >= 1 and p.spacing_mhz > 0.0
               for p in warm + points)
    assert fit.delta_f_mhz > 0.0
    assert report.total == len(report.instances) > 0
    assert counts.shape == (1, 7)
    assert len(campaign.records) == 20 and 0 <= campaign.n_converged <= 20
    counted = {span[tracer.NAME]: span[tracer.COUNTERS] for span in spans.spans
               if span[tracer.COUNTERS] is not None}
    assert counted["mc.sweep_sigma"] == {"trials": [p.trials for p in points]}
    assert counted["mc.run_point"]["n"] == lat.n_qubits
    assert counted["collision.count_collisions"] == {"instances": report.total}
    assert counted["collision.count_collisions_batch"] == {"rows": 1, "n": lat.n_qubits}
    assert counted["tunesim.run_campaign"]["junctions"] == 20
    assert {"window.fit_window", "collision.build_index"} <= {s[tracer.NAME] for s in spans.spans}
