"""The package names the benchmark harness in ``perfbench/`` reads.

``perfbench.tracer.rebound`` looks each traced name up with no default, so a
renamed function would fail every benchmark run rather than any test here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from freqcrowd import collision, mc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


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
