"""The package's public names and what importing it loads.

The import checks run in a fresh interpreter, because this test session has
already imported every submodule.
"""
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import freqcrowd

# the public API, in order, under the submodule that defines each name
PUBLIC = {
    "collision": ["CollisionReport", "count_collisions", "expected_counts"],
    "errors": ["FreqcrowdError", "InputError", "ParameterError", "SingularFitError",
               "UnfittableError"],
    "lattice": ["DEFAULT_BASE_GHZ", "DEFAULT_SPACING_MHZ", "FAMILIES", "FrequencyPattern",
                "Lattice", "build_lattice", "set_points_mhz"],
    "mc": ["DEFAULT_SIGMA_GRID_MHZ", "DEFAULT_SPACING_GRID_MHZ", "AdaptiveTrials", "SweepPoint",
           "optimize_spacing", "run_point", "sweep_sigma"],
    "physics": ["PowerLawFit", "critical_current_na", "fit_power_law", "grouped_sigma",
                "predict_frequency_ghz", "target_resistance_ohm", "transmon_f01_ghz"],
    "tunesim": ["AnnealResponseModel", "CampaignResult", "JunctionRecord", "TunePolicy",
                "generate_population", "run_campaign", "tune_junction"],
    "window": ["WindowFit", "WindowTrend", "fit_trend", "fit_window", "predict_delta_f",
               "required_sigma", "window_yield"],
}
SUBMODULES = ("cli", "collision", "errors", "lattice", "mc", "physics", "svgchart", "tunesim",
              "window")
LAZY = ("physics", "svgchart", "tunesim", "window")


def _fresh(code: str, cwd=None):
    """Run ``code`` in a fresh interpreter and parse its last line as JSON."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=cwd, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(statement: str, cwd=None):
    """The freqcrowd submodules, and whether numpy and statistics are loaded,
    after ``statement`` runs in a fresh interpreter."""
    return _fresh(f"import json, sys\n{statement}\n"
                  "print(json.dumps([sorted(m for m in sys.modules if m.startswith('freqcrowd.')),"
                  " 'numpy' in sys.modules, 'statistics' in sys.modules]))", cwd=cwd)


def test_all_is_unchanged_and_in_order():
    assert freqcrowd.__all__ == ["__version__", *(n for names in PUBLIC.values() for n in names)]
    assert len(freqcrowd.__all__) == 44


def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"freqcrowd.{module}")
        for name in names:
            assert getattr(freqcrowd, name) is getattr(home, name), name


def test_every_dataclass_is_frozen():
    """No value the package hands out can be changed after it is made: every
    dataclass a submodule defines, exported or reached through one, is frozen."""
    found = {f"{cls.__module__}.{cls.__name__}": cls.__dataclass_params__.frozen
             for module in SUBMODULES
             for cls in vars(importlib.import_module(f"freqcrowd.{module}")).values()
             if isinstance(cls, type) and dataclasses.is_dataclass(cls)
             and cls.__module__ == f"freqcrowd.{module}"}
    assert "freqcrowd.tunesim.JunctionRecord" in found
    assert [name for name, frozen in found.items() if not frozen] == []


def test_a_failing_property_test_fails_alone(tmp_path):
    """Under the project's warning filters a failing hypothesis test is one
    failure among the results, not an error that ends the run: hypothesis
    imports a deprecated name only while it reports the failing example."""
    probe = tmp_path / "test_probe.py"
    probe.write_text("from hypothesis import given, strategies as st\n\n\n"
                     "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
                     "def test_passes():\n    pass\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run([sys.executable, "-m", "pytest", str(probe), "-c", str(config),
                          "-p", "no:cacheprovider", "-q"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def test_a_public_name_follows_its_submodules_binding(monkeypatch):
    """Not cached in the package: rebinding the submodule's name rebinds it."""
    replacement = object()
    monkeypatch.setattr(freqcrowd.mc, "sweep_sigma", replacement)
    assert freqcrowd.sweep_sigma is replacement


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from freqcrowd import *", namespace)
    assert set(freqcrowd.__all__) <= set(namespace)
    assert namespace["fit_window"] is freqcrowd.window.fit_window


def test_dir_lists_the_public_names_and_an_unknown_name_is_missing():
    assert set(freqcrowd.__all__) <= set(dir(freqcrowd))
    assert not hasattr(freqcrowd, "nope")


def test_every_submodule_is_an_attribute_after_a_bare_import():
    code = ("import json, freqcrowd\n"
            f"print(json.dumps([getattr(freqcrowd, m).__name__ for m in {SUBMODULES!r}]))")
    assert _fresh(code) == [f"freqcrowd.{m}" for m in SUBMODULES]


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import freqcrowd") == [[], False, False]


def test_a_sweep_import_loads_only_the_sweep_path():
    modules, numpy, _ = _loaded_after("from freqcrowd import sweep_sigma")
    assert modules == ["freqcrowd.collision", "freqcrowd.errors", "freqcrowd.lattice",
                       "freqcrowd.mc"]
    assert numpy


def test_the_cli_import_loads_no_command_module_and_no_statistics():
    modules, _, statistics = _loaded_after("import freqcrowd.cli")
    assert modules == ["freqcrowd.cli", "freqcrowd.collision", "freqcrowd.errors",
                       "freqcrowd.lattice", "freqcrowd.mc"]
    assert not statistics


def test_each_command_loads_only_the_modules_it_calls(tmp_path):
    def after(*argv):
        statement = ("from freqcrowd import cli\n"
                     f"assert cli.main({list(argv) + ['--out', str(tmp_path)]!r}) == 0")
        return set(_loaded_after(statement, cwd=tmp_path)[0])

    loaded = after("check", "--family", "square", "-d", "3")
    assert not loaded & {f"freqcrowd.{m}" for m in LAZY}
    loaded = after("tune", "--junctions", "5", "--target-spread", "0.4:14.5")
    assert "freqcrowd.tunesim" in loaded and "freqcrowd.window" not in loaded
