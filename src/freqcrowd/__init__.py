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
- :mod:`freqcrowd.cli` — reproducible command-line runs with manifests.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .collision import (
    DEFAULT_RULES,
    CollisionReport,
    CollisionRules,
    count_collisions,
    expected_counts,
)
from .errors import (
    FreqcrowdError,
    InputError,
    ParameterError,
    SingularFitError,
    UnfittableError,
)
from .lattice import (
    DEFAULT_BASE_GHZ,
    DEFAULT_SPACING_MHZ,
    FAMILIES,
    FrequencyPattern,
    Lattice,
    build_lattice,
    set_points_mhz,
)
from .mc import (
    DEFAULT_SIGMA_GRID_MHZ,
    DEFAULT_SPACING_GRID_MHZ,
    AdaptiveTrials,
    SweepPoint,
    optimize_spacing,
    run_point,
    sweep_sigma,
)
from .physics import (
    PowerLawFit,
    critical_current_na,
    fit_power_law,
    grouped_sigma,
    predict_frequency_ghz,
    target_resistance_ohm,
    transmon_f01_ghz,
)
from .tunesim import (
    AnnealResponseModel,
    CampaignResult,
    JunctionRecord,
    TunePolicy,
    generate_population,
    run_campaign,
    tune_junction,
)
from .window import (
    WindowFit,
    WindowTrend,
    fit_trend,
    fit_window,
    predict_delta_f,
    required_sigma,
    window_yield,
)

# the public API is every name imported above, so each is declared once
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
