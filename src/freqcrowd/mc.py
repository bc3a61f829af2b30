"""Monte Carlo yield statistics under Gaussian frequency scatter.

The sampling contract: the standard-normal deviate applied to qubit q in
trial t under master seed s depends only on (s, t, q).  Trial t draws from
the Philox stream keyed by s at counter [0, 0, 0, t] (:func:`philox_rng`)
and qubit q takes position q of that draw.  Results are therefore
independent of batching and of which sigma/spacing values are evaluated — a
single deviate matrix can be reused across a whole sweep, since a trial's
frequencies are just set_points + sigma * z.

Every reported number comes from :func:`operating_point`, and nothing it
decides looks at the Monte Carlo sample.  It takes the spacing with the
fewest *expected* collisions (exact, from
:func:`~freqcrowd.collision.expected_counts`), so the reported statistics are
not flattered by having picked the luckiest spacing on them.  It plans the
point's trials from E, the expected collision total at that spacing
(:class:`AdaptiveTrials`): the boost count where the model yield exp(-E) is
low and the Poisson estimate of the survivors the boost would see,
``boost * exp(-E)``, is at least :data:`BOOST_MIN_SURVIVORS`, else the base
count.  Then it measures that spacing once.  So every trial count is known
before the first deviate is drawn, and a set of points draws its deviates
in one call (:class:`DeviateRows`), as many rows as its largest count.

A point is measured by counting its deviate rows into running per-type
collision totals and collision-free rows (from
:func:`~freqcrowd.collision.tally_collisions`) and summarising them as a
:class:`SweepPoint` of exact integer ratios.  Frequencies are built one
kernel block (:func:`~freqcrowd.collision.block_rows`) at a time, so a point
holds its deviate rows and one block of work, whatever its trial count.  At
zero scatter every row is the same assignment, so one counted row stands for
all of them.

:func:`sweep_sigma` and :func:`table_row` (the summary table the CLI prints
and the acceptance gate checks) are both built from :func:`operating_point`;
a sweep scores its whole sigma x spacing grid once, before its first point,
and a table row scores each of its two points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import (DEFAULT_RULES, CollisionIndex, CollisionRules, block_rows,
                        build_index, check_count, check_sigma, count_collisions_batch,
                        expected_counts, tally_collisions)
from .errors import ParameterError
from .lattice import FrequencyPattern, Lattice, set_points_mhz

DEFAULT_SPACING_GRID_MHZ = tuple(float(s) for s in range(30, 151, 5))
DEFAULT_SIGMA_GRID_MHZ = (
    0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0,
    26.0, 28.0, 30.0, 32.0, 36.0, 40.0, 44.0, 50.0, 60.0, 70.0, 100.0, 132.3, 150.0,
)

# the scatter levels of the summary table: laser-trimmed and as-fabricated
TUNED_SIGMA_MHZ = 14.0
AS_FABRICATED_SIGMA_MHZ = 132.3


def check_seed(master_seed: int) -> None:
    """Reject a master seed outside the Philox key range."""
    if not 0 <= master_seed < 2**128:
        raise ParameterError("master seed must be in [0, 2**128)")


def philox_rng(master_seed: int, counter) -> np.random.Generator:
    """Philox generator keyed by a checked master seed, at a 4-word counter."""
    check_seed(master_seed)
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


def gaussian_deviates(master_seed: int, n_trials: int, n_qubits: int,
                      first_trial: int = 0) -> np.ndarray:
    """Deviate rows z[t - first_trial, q] of trials ``first_trial`` onwards,
    under the (seed, trial, qubit) contract."""
    check_count("n_trials", n_trials)
    check_count("n_qubits", n_qubits)
    check_count("first_trial", first_trial, least=0)
    rng = philox_rng(master_seed, [0, 0, 0, 0])
    # one generator, rewound for each row to counter [0, 0, 0, t] with an empty
    # buffer: the draws of a fresh generator per trial, for a fraction of the cost
    bits = rng.bit_generator
    state = bits.state
    counter = state["state"]["counter"]
    z = np.empty((n_trials, n_qubits))
    for t, row in enumerate(z, start=first_trial):
        counter[3] = t
        bits.state = state
        rng.standard_normal(out=row)
    return z


class DeviateRows:
    """Deviate rows 0 .. ``n_trials - 1`` of one master seed, ``n_qubits``
    wide, drawn in one :func:`gaussian_deviates` call.

    Every trial count is planned before sampling, so the rows a set of points
    reads are known when they are drawn.  A point reads the first ``trials``
    rows; a lattice narrower than ``n_qubits`` reads the leading columns,
    which the sampling contract makes its own deviates.
    """

    def __init__(self, master_seed: int, n_trials: int, n_qubits: int):
        self.master_seed = master_seed
        self.z = gaussian_deviates(master_seed, n_trials, n_qubits)


@dataclass(frozen=True)
class SweepPoint:
    """Collision statistics of one (sigma, spacing) operating point."""

    family: str
    distance: int
    n_qubits: int
    sigma_mhz: float
    spacing_mhz: float
    trials: int
    master_seed: int
    yield_fraction: float
    mean_collisions: float
    per_type_means: tuple  # 7 floats, types 1..7


def run_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
              master_seed: int = 0, *, rules: CollisionRules = DEFAULT_RULES,
              index: CollisionIndex | None = None,
              deviates: DeviateRows | None = None) -> SweepPoint:
    """Monte Carlo statistics at one scatter level and pattern spacing.

    The first ``trials`` deviate rows (row t gives trial t) are counted into
    running per-type totals and collision-free rows, whose ratios to
    ``trials`` are the point's means.  Their frequencies are built and
    counted one kernel block of rows at a time, so beyond the deviate rows
    the point holds one block's frequencies and kernel temporaries.  At zero
    scatter every row is the set points themselves, so the point is one
    counted row times ``trials`` and no deviate is read.

    ``deviates`` may carry the :class:`DeviateRows` of ``master_seed`` shared
    by several points, at least ``lattice.n_qubits`` wide and, above zero
    scatter, at least ``trials`` rows long; other rows are refused with
    :class:`ParameterError`.  Without them the point draws its own rows.
    """
    check_sigma(sigma_mhz)
    check_count("trials", trials)
    check_seed(master_seed)
    trials = int(trials)  # a numpy integer would make every mean a numpy float
    if deviates is not None and (
            deviates.master_seed != master_seed or deviates.z.shape[1] < lattice.n_qubits
            or (sigma_mhz > 0.0 and len(deviates.z) < trials)):
        raise ParameterError("deviates must be drawn under master_seed, n_qubits wide or wider "
                             "and, above zero scatter, trials rows long or longer")
    idx = index if index is not None else build_index(lattice)
    sp = set_points_mhz(lattice, pattern)
    if sigma_mhz == 0.0:
        row = count_collisions_batch(idx, sp, rules)[0]
        totals, survivors = row * trials, int(not row.any()) * trials
    else:
        z = (gaussian_deviates(master_seed, trials, lattice.n_qubits) if deviates is None
             else deviates.z[:trials, :lattice.n_qubits])
        totals, survivors, rows = np.zeros(7, dtype=np.int64), 0, block_rows(idx)
        for lo in range(0, trials, rows):
            f = sigma_mhz * z[lo:lo + rows]
            f += sp  # in place: one block x qubits temporary instead of two
            block_totals, clean = tally_collisions(idx, f, rules)
            totals += block_totals
            survivors += clean
    totals = totals.tolist()  # Python integers: each mean below is the exactly rounded ratio
    return SweepPoint(family=lattice.family, distance=lattice.distance,
                      n_qubits=lattice.n_qubits, sigma_mhz=float(sigma_mhz),
                      spacing_mhz=float(pattern.spacing_mhz), trials=trials,
                      master_seed=int(master_seed), yield_fraction=survivors / trials,
                      mean_collisions=sum(totals) / trials,
                      per_type_means=tuple(c / trials for c in totals))


def _checked_totals(totals, n_spacings: int) -> np.ndarray:
    """``totals`` as a float array, checked to hold one finite expected
    collision total >= 0 per grid spacing."""
    message = "totals must hold one expected total per grid spacing, each finite and >= 0"
    try:
        out = np.asarray(totals, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(message) from None
    if out.shape != (n_spacings,) or not np.all((0.0 <= out) & (out < math.inf)):
        raise ParameterError(message)
    return out


def optimize_spacing(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
                     master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                     rules: CollisionRules = DEFAULT_RULES, index: CollisionIndex | None = None,
                     deviates: DeviateRows | None = None,
                     totals: np.ndarray | None = None) -> SweepPoint:
    """Measure the grid spacing with the fewest expected collisions.

    Every grid spacing is scored by :func:`collision.expected_counts` in one
    call, unless ``totals`` already holds their expected collision totals at
    this sigma (a 1-d sequence of finite totals >= 0, one per grid spacing,
    else :class:`ParameterError`); ties go to the smaller spacing, so at zero
    scatter (where the expectation is the exact count) this is the smallest
    collision-free spacing in the grid.  The choice does not depend on ``master_seed``,
    ``trials`` or ``deviates``: only the returned point, from
    :func:`run_point` at that spacing, is sampled.
    """
    grid = [float(s) for s in spacing_grid]
    if not grid:
        raise ParameterError("spacing grid is empty")
    idx = index if index is not None else build_index(lattice)
    if totals is None:
        totals = expected_counts(idx, set_points_mhz(lattice, pattern, grid), sigma_mhz,
                                 rules).sum(axis=-1)
    else:
        totals = _checked_totals(totals, len(grid))
    _, best = min(zip(totals.tolist(), grid))
    return run_point(lattice, pattern.with_spacing(best), sigma_mhz, trials, master_seed,
                     rules=rules, index=idx, deviates=deviates)


# per-distance model yield, exp(-E), below which a point is planned at the
# boost count; unlisted distances never boost
LOW_YIELD_THRESHOLDS = {3: 0.002, 5: 0.01, 7: 0.01}
# fewest survivors the boost must be expected to see, boost * exp(-E), for it
# to run: below this the boost would almost surely find none (Chen-Stein
# Poisson estimate of the yield, exp(-E), from the expected collision total E)
BOOST_MIN_SURVIVORS = 0.01


@dataclass(frozen=True)
class AdaptiveTrials:
    """How many trials to spend at a point, planned before any deviate is
    drawn from E, the expected collision total at its chosen spacing:
    ``boost`` where the model yield exp(-E) is below ``LOW_YIELD_THRESHOLDS``
    for the distance (rare-survivor resolution) and ``boost * exp(-E)``, the
    survivors the boost is expected to see, is at least
    ``BOOST_MIN_SURVIVORS``; else ``base``.  ``boost <= base`` never boosts,
    so every point costs ``base`` trials."""

    base: int = 1000
    boost: int = 4000

    def __post_init__(self):
        for name in ("base", "boost"):
            check_count(f"AdaptiveTrials.{name}", getattr(self, name))

    def base_trials(self, distance: int, sigma_mhz: float) -> int:
        return self.base

    def trials(self, distance: int, expected_collisions: float) -> int:
        """Trials for a point whose chosen spacing expects ``expected_collisions``."""
        model_yield = math.exp(-expected_collisions)
        if (self.boost > self.base and model_yield < LOW_YIELD_THRESHOLDS.get(distance, 0.0)
                and self.boost * model_yield >= BOOST_MIN_SURVIVORS):
            return self.boost
        return self.base


def operating_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float,
                    policy: AdaptiveTrials, master_seed: int = 0, *, index: CollisionIndex,
                    deviates: DeviateRows | None, totals: np.ndarray,
                    spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                    rules: CollisionRules = DEFAULT_RULES) -> SweepPoint:
    """One reported operating point, in three steps: :func:`optimize_spacing`
    picks the spacing from ``totals``, the expected collision totals of the
    grid spacings at this sigma; the policy plans the trials from E, the
    expected total at that spacing, ``min(totals)``; and that spacing is
    measured once, on that many ``deviates`` rows.  Neither step before the
    measurement looks at the sample.  ``totals`` is checked as in
    :func:`optimize_spacing`.  A one-element grid measures that spacing
    alone.
    """
    grid = [float(s) for s in spacing_grid]
    totals = _checked_totals(totals, len(grid))
    trials = policy.trials(lattice.distance, totals.min())
    return optimize_spacing(lattice, pattern, sigma_mhz, trials, master_seed,
                            spacing_grid=grid, rules=rules, index=index,
                            deviates=deviates, totals=totals)


def sweep_sigma(lattice: Lattice, pattern: FrequencyPattern, sigma_grid=DEFAULT_SIGMA_GRID_MHZ,
                trials_policy: AdaptiveTrials | None = None, master_seed: int = 0, *,
                spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                rules: CollisionRules = DEFAULT_RULES) -> list:
    """Sweep the scatter level, re-optimising the spacing per point.

    Each point is an :func:`operating_point`, given its sigma's row of one
    :func:`expected_counts` call over the whole sigma x spacing grid, made
    before any deviate is drawn; a one-element ``spacing_grid`` keeps that
    spacing at every point.  Every point's trials are planned from that
    scoring, so the sweep draws its deviates once, as many rows as its
    largest planned count over the sigma > 0 points (none if it has no such
    point), and every point reads its leading rows.
    """
    policy = trials_policy if trials_policy is not None else AdaptiveTrials()
    sigmas = [float(s) for s in sigma_grid]
    idx = build_index(lattice)
    scores = expected_counts(idx, set_points_mhz(lattice, pattern, spacing_grid), sigmas,
                             rules).sum(axis=-1)
    planned = [policy.trials(lattice.distance, totals.min())
               for sigma, totals in zip(sigmas, scores) if sigma > 0.0]
    z = DeviateRows(master_seed, max(planned), lattice.n_qubits) if planned else None
    return [operating_point(lattice, pattern, sigma, policy, master_seed, index=idx, deviates=z,
                            totals=totals, spacing_grid=spacing_grid, rules=rules)
            for sigma, totals in zip(sigmas, scores)]


def table_row(lattice: Lattice, pattern: FrequencyPattern, policy: AdaptiveTrials,
              master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ,
              rules: CollisionRules = DEFAULT_RULES,
              deviates: DeviateRows | None = None) -> tuple:
    """The (tuned, as-fabricated) operating points of one lattice.

    The tuned-precision point optimises the spacing at
    ``TUNED_SIGMA_MHZ`` over the grid, scored in one :func:`expected_counts`
    call; the as-fabricated point is measured at ``AS_FABRICATED_SIGMA_MHZ``
    on that same spacing, scored alone, since a chip is laid out before
    anyone knows how well tuning will do.  Each point's trials are planned
    from its own expected total.

    ``deviates`` may carry the :class:`DeviateRows` of ``master_seed`` shared
    by several lattices, as wide as the widest and ``max(policy.base,
    policy.boost)`` rows long: under the sampling contract its first
    ``lattice.n_qubits`` columns are this lattice's own deviates, so the row
    is the same as without it, and each row is drawn once for all.  Without
    them each point draws its own rows.
    """
    idx = build_index(lattice)

    def point(sigma, grid):
        totals = expected_counts(idx, set_points_mhz(lattice, pattern, grid), sigma,
                                 rules).sum(axis=-1)
        return operating_point(lattice, pattern, sigma, policy, master_seed, index=idx,
                               deviates=deviates, totals=totals, spacing_grid=grid, rules=rules)
    tuned = point(TUNED_SIGMA_MHZ, spacing_grid)
    return tuned, point(AS_FABRICATED_SIGMA_MHZ, (tuned.spacing_mhz,))
