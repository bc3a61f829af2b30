"""Monte Carlo yield statistics under Gaussian frequency scatter.

The sampling contract: the standard-normal deviate applied to qubit q in
trial t under master seed s depends only on (s, t, q).  Trial t draws from
the Philox stream keyed by s at counter [0, 0, 0, t] (:func:`philox_rng`)
and qubit q takes position q of that draw.  Results are therefore
independent of batching and of which sigma/spacing values are evaluated — a
single deviate matrix can be reused across a whole sweep, since a trial's
frequencies are just set_points + sigma * z.

A point is measured in two steps: per-row collision counts (int64
[trials, 7], row t from deviate row t), then their summary, a
:class:`SweepPoint`.  At zero scatter every row is the same assignment, so
one counted row stands for all of them.

Every reported number comes from :func:`operating_point`: the spacing with
the fewest *expected* collisions (exact, from
:func:`~freqcrowd.collision.expected_counts`) is measured at the trials
policy's base count (the pilot), and when the policy asks for more trials
the pilot's rows are extended, not recounted, so every deviate row is
counted once.  A pilot is extended only where its yield is low and the
Poisson estimate of the survivors the boost would see, ``boost * exp(-E)``
with E the expected collision total at the chosen spacing, is at least
:data:`BOOST_MIN_SURVIVORS`.  The choice never looks at the Monte Carlo
sample, so the reported statistics are not flattered by having picked the
luckiest spacing on them.  :func:`sweep_sigma` and :func:`table_row` (the summary table the
CLI prints and the acceptance gate checks) are both built from it; a sweep
scores its whole sigma x spacing grid once, before its first point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import (DEFAULT_RULES, CollisionIndex, CollisionRules, build_index,
                        check_sigma, count_collisions_batch, expected_counts)
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


def gaussian_deviates(master_seed: int, n_trials: int, n_qubits: int) -> np.ndarray:
    """Deviate matrix z[t, q] under the (seed, trial, qubit) contract."""
    if n_trials <= 0 or n_qubits <= 0:
        raise ParameterError("n_trials and n_qubits must be positive")
    rng = philox_rng(master_seed, [0, 0, 0, 0])
    # one generator, rewound for each row to counter [0, 0, 0, t] with an empty
    # buffer: the draws of a fresh generator per trial, for a fraction of the cost
    state = rng.bit_generator.state
    counter = state["state"]["counter"]
    z = np.empty((n_trials, n_qubits))
    for t in range(n_trials):
        counter[3] = t
        rng.bit_generator.state = state
        z[t] = rng.standard_normal(n_qubits)
    return z


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


def _summary(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float,
             master_seed: int, counts: np.ndarray) -> SweepPoint:
    """The :class:`SweepPoint` of per-row counts, int64 [trials, 7]."""
    totals = counts.sum(axis=1)
    return SweepPoint(
        family=lattice.family,
        distance=lattice.distance,
        n_qubits=lattice.n_qubits,
        sigma_mhz=float(sigma_mhz),
        spacing_mhz=float(pattern.spacing_mhz),
        trials=int(counts.shape[0]),
        master_seed=int(master_seed),
        yield_fraction=float(np.mean(totals == 0)),
        mean_collisions=float(np.mean(totals)),
        per_type_means=tuple(float(m) for m in counts.mean(axis=0)),
    )


def run_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
              master_seed: int = 0, *, rules: CollisionRules = DEFAULT_RULES,
              index: CollisionIndex | None = None,
              deviates: np.ndarray | None = None, pilot: list | None = None) -> SweepPoint:
    """Monte Carlo statistics at one scatter level and pattern spacing.

    Two steps: the per-row counts (int64 [trials, 7], row t from deviate row
    t), then their summary.  At zero scatter every row is the set points
    themselves, so one counted row stands for all of them (the rows are a
    read-only broadcast of it).

    ``deviates`` may carry a prebuilt matrix from :func:`gaussian_deviates`
    with at least ``trials`` rows; the first ``trials`` rows are used.
    ``pilot``, when given, is a list of per-row count arrays already taken at
    this sigma and spacing on the leading rows of the same deviates (empty
    before the first pass).  Only the rows after them are counted, the new
    rows are appended to it, and the point summarises all ``trials`` rows; so
    a boost extends its pilot instead of recounting it.
    """
    check_sigma(sigma_mhz)
    if trials <= 0:
        raise ParameterError("trials must be positive")
    counted = [] if pilot is None else pilot
    done = sum(len(c) for c in counted)
    if done > trials:
        raise ParameterError("pilot has more rows than trials")
    idx = index if index is not None else build_index(lattice)
    sp = set_points_mhz(lattice, pattern)
    if deviates is None:
        deviates = gaussian_deviates(master_seed, trials, lattice.n_qubits)
    elif deviates.shape[0] < trials or deviates.shape[1] != lattice.n_qubits:
        raise ParameterError("deviate matrix too small for requested trials")
    if trials > done:
        if sigma_mhz == 0.0:
            row = counted[0][:1] if counted else count_collisions_batch(idx, sp, rules)
            counted.append(np.broadcast_to(row, (trials - done, 7)))
        else:
            f = sigma_mhz * deviates[done:trials]
            f += sp  # in place: one rows x qubits temporary instead of two
            counted.append(count_collisions_batch(idx, f, rules))
    return _summary(lattice, pattern, sigma_mhz, master_seed, np.concatenate(counted))


def optimize_spacing(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
                     master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                     rules: CollisionRules = DEFAULT_RULES, index: CollisionIndex | None = None,
                     deviates: np.ndarray | None = None, pilot: list | None = None,
                     expected: list | None = None, totals: np.ndarray | None = None) -> SweepPoint:
    """Measure the grid spacing with the fewest expected collisions.

    Every grid spacing is scored by :func:`collision.expected_counts` in one
    call, unless ``totals`` already holds their expected collision totals at
    this sigma; ties go to the smaller spacing, so at zero scatter (where the
    expectation is the exact count) this is the smallest collision-free
    spacing in the grid.  The choice does not depend on ``master_seed``,
    ``trials`` or ``deviates``: only the returned point, from
    :func:`run_point` at that spacing, is sampled.  ``pilot`` is passed on
    to :func:`run_point`, so it receives that point's per-row counts;
    ``expected``, when given, is a list that receives the expected collision
    total at the chosen spacing.
    """
    grid = [float(s) for s in spacing_grid]
    if not grid:
        raise ParameterError("spacing grid is empty")
    idx = index if index is not None else build_index(lattice)
    if totals is None:
        totals = expected_counts(idx, set_points_mhz(lattice, pattern, grid), sigma_mhz,
                                 rules).sum(axis=-1)
    elif len(totals) != len(grid):
        raise ParameterError("totals must hold one expected total per grid spacing")
    total, best = min(zip(totals.tolist(), grid))
    if expected is not None:
        expected.append(total)
    return run_point(lattice, pattern.with_spacing(best), sigma_mhz, trials, master_seed,
                     rules=rules, index=idx, deviates=deviates, pilot=pilot)


# per-distance yield below which a pilot is extended to the boost count;
# unlisted distances never boost
LOW_YIELD_THRESHOLDS = {3: 0.002, 5: 0.01, 7: 0.01}
# fewest survivors the boost must be expected to see, boost * exp(-E), for it
# to run: below this the boost would almost surely find none (Chen-Stein
# Poisson estimate of the yield, exp(-E), from the expected collision total E)
BOOST_MIN_SURVIVORS = 0.01


@dataclass(frozen=True)
class AdaptiveTrials:
    """How many trials to spend at each sweep point: pilot at ``base``
    trials, extended to ``boost`` when the observed yield falls below
    ``LOW_YIELD_THRESHOLDS`` for the distance (rare-survivor resolution) and
    ``boost * exp(-E)``, the survivors the boost is expected to see given the
    expected collision total E, is at least ``BOOST_MIN_SURVIVORS``; a boost
    that could not find a survivor is skipped.  ``boost == base`` never
    re-runs, so every point costs ``base`` trials."""

    base: int = 1000
    boost: int = 4000

    def base_trials(self, distance: int, sigma_mhz: float) -> int:
        return self.base

    def boost_trials(self, distance: int, observed_yield: float,
                     expected_collisions: float) -> int:
        """Trials for a re-run after the pilot, or 0 to keep the pilot."""
        if (observed_yield < LOW_YIELD_THRESHOLDS.get(distance, 0.0)
                and self.boost * math.exp(-expected_collisions) >= BOOST_MIN_SURVIVORS):
            return self.boost
        return 0

    def max_trials(self, distance: int) -> int:
        return max(self.base, self.boost)


def operating_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float,
                    policy: AdaptiveTrials, master_seed: int = 0, *, index: CollisionIndex,
                    deviates: np.ndarray, spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                    rules: CollisionRules = DEFAULT_RULES,
                    totals: np.ndarray | None = None) -> SweepPoint:
    """One reported operating point: measure the spacing :func:`optimize_spacing`
    picks at the policy's base trials, then extend that pilot when the policy
    asks for more trials, given the pilot's yield and the expected collision
    total at that spacing (already computed by the search, so the boost gate
    costs no further scoring; ``totals`` is passed on to it).  A one-element
    grid measures that spacing alone.

    ``deviates`` holds at least ``policy.max_trials`` rows from
    :func:`gaussian_deviates`, shared by the pilot and the boost.  The boost
    counts only the rows after the pilot's and summarises all of them, so each
    deviate row is counted once and the point equals :func:`run_point` at the
    boost count.
    """
    n0 = policy.base_trials(lattice.distance, sigma_mhz)
    rows, expected = [], []
    pt = optimize_spacing(lattice, pattern, sigma_mhz, n0, master_seed, spacing_grid=spacing_grid,
                          rules=rules, index=index, deviates=deviates, pilot=rows,
                          expected=expected, totals=totals)
    n1 = policy.boost_trials(lattice.distance, pt.yield_fraction, expected[0])
    if n1 > n0:
        pt = run_point(lattice, pattern.with_spacing(pt.spacing_mhz), sigma_mhz, n1, master_seed,
                       rules=rules, index=index, deviates=deviates, pilot=rows)
    return pt


def sweep_sigma(lattice: Lattice, pattern: FrequencyPattern, sigma_grid=DEFAULT_SIGMA_GRID_MHZ,
                trials_policy: AdaptiveTrials | None = None, master_seed: int = 0, *,
                spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                rules: CollisionRules = DEFAULT_RULES) -> list:
    """Sweep the scatter level, re-optimising the spacing per point.

    Each point is an :func:`operating_point`, given its sigma's row of one
    :func:`expected_counts` call over the whole sigma x spacing grid, made
    before any deviate is drawn; a one-element ``spacing_grid`` keeps that
    spacing at every point.
    """
    policy = trials_policy if trials_policy is not None else AdaptiveTrials()
    sigmas = [float(s) for s in sigma_grid]
    idx = build_index(lattice)
    scores = expected_counts(idx, set_points_mhz(lattice, pattern, spacing_grid), sigmas, rules)
    z = gaussian_deviates(master_seed, policy.max_trials(lattice.distance), lattice.n_qubits)
    return [operating_point(lattice, pattern, sigma, policy, master_seed, index=idx, deviates=z,
                            spacing_grid=spacing_grid, rules=rules, totals=score.sum(axis=-1))
            for sigma, score in zip(sigmas, scores)]


def table_row(lattice: Lattice, pattern: FrequencyPattern, policy: AdaptiveTrials,
              master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ,
              rules: CollisionRules = DEFAULT_RULES,
              deviates: np.ndarray | None = None) -> tuple:
    """The (tuned, as-fabricated) operating points of one lattice.

    The tuned-precision point optimises the spacing at
    ``TUNED_SIGMA_MHZ``; the as-fabricated point is measured at
    ``AS_FABRICATED_SIGMA_MHZ`` on that same spacing, since a chip is laid
    out before anyone knows how well tuning will do.

    ``deviates`` may carry a :func:`gaussian_deviates` matrix of
    ``master_seed`` with at least ``policy.max_trials`` rows and at least
    ``lattice.n_qubits`` columns, drawn for the widest of several lattices:
    under the sampling contract its first ``lattice.n_qubits`` columns are
    this lattice's own deviates, so the row is the same as without it.
    """
    n_trials = policy.max_trials(lattice.distance)
    if deviates is None:
        deviates = gaussian_deviates(master_seed, n_trials, lattice.n_qubits)
    elif deviates.shape[0] < n_trials or deviates.shape[1] < lattice.n_qubits:
        raise ParameterError("deviate matrix too small for this lattice and policy")
    z = deviates[:, :lattice.n_qubits]
    idx = build_index(lattice)
    tuned = operating_point(lattice, pattern, TUNED_SIGMA_MHZ, policy, master_seed,
                            index=idx, deviates=z, spacing_grid=spacing_grid, rules=rules)
    fab = operating_point(lattice, pattern, AS_FABRICATED_SIGMA_MHZ, policy, master_seed,
                          index=idx, deviates=z, spacing_grid=(tuned.spacing_mhz,), rules=rules)
    return tuned, fab
