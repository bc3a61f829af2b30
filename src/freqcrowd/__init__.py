"""Frequency-crowding statistics for fixed-frequency transmon lattices.

The pieces, bottom to top:

- :mod:`freqcrowd.physics` — transmon/junction formulas and the
  resistance-to-frequency power law.
- :mod:`freqcrowd.lattice` — error-correction coupling graphs with gate
  directions and frequency set-point patterns.
- :mod:`freqcrowd.collision` — the seven nearest/next-nearest-neighbour
  frequency-collision predicates and their expected counts under scatter.
- :mod:`freqcrowd.mc` — deterministic Monte Carlo over frequency scatter,
  at the spacing with the fewest expected collisions.
- :mod:`freqcrowd.window` — the single-window analytic yield model, its fit,
  and size extrapolation.
- :mod:`freqcrowd.tunesim` — adaptive one-directional resistance-trim
  campaigns.
- :mod:`freqcrowd.svgchart` — dependency-free SVG line charts.
- :mod:`freqcrowd.cli` — reproducible command-line runs with manifests.

``import freqcrowd`` loads none of them, and no numpy.  A submodule is
imported when it, or a name the package takes from it, is first used: ``from
freqcrowd import sweep_sigma`` loads ``mc`` and what ``mc`` imports
(``collision``, ``lattice``, ``errors`` and numpy), but not ``window``,
``tunesim``, ``physics`` or ``svgchart``.
"""

__version__ = "0.2.0"

# every submodule, with the public names the package takes from it; each name
# is declared here once and looked up in its submodule on every access, so a
# name rebound there is rebound here too
_EXPORTS = {
    "collision": ("CollisionReport", "count_collisions", "expected_counts"),
    "errors": ("FreqcrowdError", "InputError", "ParameterError", "SingularFitError",
               "UnfittableError"),
    "lattice": ("DEFAULT_SPACING_MHZ", "FAMILIES", "FrequencyPattern", "Lattice",
                "build_lattice", "set_points_mhz"),
    "mc": ("DEFAULT_SIGMA_GRID_MHZ", "DEFAULT_SPACING_GRID_MHZ", "AdaptiveTrials", "SweepPoint",
           "optimize_spacing", "run_point", "sweep_sigma"),
    "physics": ("PowerLawFit", "critical_current_na", "fit_power_law", "grouped_sigma",
                "predict_frequency_ghz", "target_resistance_ohm", "transmon_f01_ghz"),
    "tunesim": ("AnnealResponseModel", "CampaignResult", "JunctionRecord", "TunePolicy",
                "generate_population", "run_campaign", "tune_junction"),
    "window": ("WindowFit", "WindowTrend", "fit_trend", "fit_window", "predict_delta_f",
               "required_sigma", "window_yield"),
    "svgchart": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # __import__ rather than importlib.import_module, so that
    # ``python -X importtime`` still logs each submodule as it loads
    if name in _EXPORTS:
        return __import__(name, globals(), None, (), 1)
    if name in _HOME:
        return getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
