"""Monte Carlo yield statistics under Gaussian frequency scatter.

The sampling contract: the standard-normal deviate applied to qubit q in
trial t under master seed s depends only on (s, t, q).  Trial t draws from
the Philox stream keyed by s at counter [0, 0, 0, t] (:func:`philox_rng`)
and qubit q takes position q of that draw.  Results are therefore
independent of batching and of which sigma/spacing values are evaluated — a
single deviate matrix can be reused across a whole sweep, since a trial's
frequencies are just set_points + sigma * z.  A sweep draws its rows on
demand (:class:`DeviateRows`): the base rows when its first point reads
them, a boost's own rows only when a boost first reads them, each row once.

A point is measured by counting its deviate rows into running per-type
collision totals and collision-free rows (from
:func:`~freqcrowd.collision.tally_collisions`) and summarising them as a
:class:`SweepPoint` of exact integer ratios.  Frequencies are built one
kernel block (:func:`~freqcrowd.collision.block_rows`) at a time, so a point
holds its deviate rows and one block of work, whatever its trial count.  At
zero scatter every row is the same assignment, so one counted row stands for
all of them.

Every reported number comes from :func:`operating_point`: the spacing with
the fewest *expected* collisions (exact, from
:func:`~freqcrowd.collision.expected_counts`) is measured at the trials
policy's base count (the pilot).  When the policy asks for more trials, the
pilot point itself is extended, not recounted: its integer counts are
rebuilt from its exact means, so every deviate row is counted once.  A
pilot is extended only where its yield is low and the Poisson estimate of
the survivors the boost would see, ``boost * exp(-E)`` with E the expected
collision total at the chosen spacing, is at least
:data:`BOOST_MIN_SURVIVORS`.  The choice never looks at the Monte Carlo
sample, so the reported statistics are not flattered by having picked the
luckiest spacing on them.  :func:`sweep_sigma` and :func:`table_row` (the
summary table the CLI prints and the acceptance gate checks) are both built
from it; a sweep scores its whole sigma x spacing grid once, before its
first point, and a table row scores each of its two points.
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
    """The deviate matrix of one master seed, drawn as points read it.

    Rows past the last one drawn are drawn, in one :func:`gaussian_deviates`
    chunk, the first time a point reads them; chunks are kept as drawn, never
    concatenated, so a boost appends its own rows and each row is drawn once.
    A lattice narrower than ``n_qubits`` reads the leading columns, which the
    sampling contract makes its own deviates.
    """

    def __init__(self, master_seed: int, n_qubits: int):
        check_seed(master_seed)
        check_count("n_qubits", n_qubits)
        self.master_seed = master_seed
        self.n_qubits = n_qubits
        self.chunks = []
        self.rows = 0

    def blocks(self, lo: int, hi: int, n_qubits: int) -> list:
        """Rows [lo, hi) of the leading ``n_qubits`` columns, as views of the chunks."""
        if hi > self.rows:
            self.chunks.append(gaussian_deviates(self.master_seed, hi - self.rows,
                                                 self.n_qubits, self.rows))
            self.rows = hi
        out, start = [], 0
        for chunk in self.chunks:
            stop = start + len(chunk)
            if lo < stop and start < hi:
                out.append(chunk[max(lo - start, 0):min(hi, stop) - start, :n_qubits])
            start = stop
        return out


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


def _pilot_counts(pilot: SweepPoint, point: dict, trials: int) -> tuple:
    """The per-type totals, collision-free rows and trials behind ``pilot``,
    checked to be the point whose fields are ``point`` on at most ``trials``
    rows.  Each mean is the exactly rounded c / n, so ``round(mean * n)``
    gives c back."""
    n = pilot.trials
    if any(getattr(pilot, k) != v for k, v in point.items()) or not 0 < n <= trials:
        raise ParameterError("pilot must be a point of this lattice, sigma, spacing and "
                             "master_seed, over at most trials rows")
    totals = [round(m * n) for m in pilot.per_type_means]
    survivors = round(pilot.yield_fraction * n)
    if (tuple(c / n for c in totals) != pilot.per_type_means
            or sum(totals) / n != pilot.mean_collisions or survivors / n != pilot.yield_fraction):
        raise ParameterError("pilot means must be integer counts over its trials")
    return np.array(totals, dtype=np.int64), survivors, n


def run_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
              master_seed: int = 0, *, rules: CollisionRules = DEFAULT_RULES,
              index: CollisionIndex | None = None, deviates: DeviateRows | None = None,
              pilot: SweepPoint | None = None) -> SweepPoint:
    """Monte Carlo statistics at one scatter level and pattern spacing.

    The first ``trials`` deviate rows (row t gives trial t) are counted into
    running per-type totals and collision-free rows, whose ratios to
    ``trials`` are the point's means.  Their frequencies are built and
    counted one kernel block of rows at a time, so beyond the deviate rows
    the point holds one block's frequencies and kernel temporaries.  At zero
    scatter every row is the set points themselves, so the point is one
    counted row times ``trials``.

    ``deviates`` may carry the :class:`DeviateRows` of ``master_seed`` shared
    by several points, at least ``lattice.n_qubits`` wide; rows not drawn yet
    are drawn when read.  ``pilot``, when given, is this point measured on at
    most ``trials`` rows (same lattice, sigma, spacing and seed, else
    :class:`ParameterError`): its counts are rebuilt from its means and only
    the rows after its own are counted, so a boost extends its pilot instead
    of recounting it.  At zero scatter the pilot's per-type means are the row.
    """
    check_sigma(sigma_mhz)
    check_count("trials", trials)
    trials = int(trials)  # a numpy integer would make every mean a numpy float
    if deviates is None:
        deviates = DeviateRows(master_seed, lattice.n_qubits)
    elif deviates.master_seed != master_seed or deviates.n_qubits < lattice.n_qubits:
        raise ParameterError("deviates must be drawn under master_seed, n_qubits wide or wider")
    point = dict(family=lattice.family, distance=lattice.distance, n_qubits=lattice.n_qubits,
                 sigma_mhz=float(sigma_mhz), spacing_mhz=float(pattern.spacing_mhz),
                 master_seed=int(master_seed))
    totals, survivors, done = (np.zeros(7, dtype=np.int64), 0, 0) if pilot is None else \
        _pilot_counts(pilot, point, trials)
    idx = index if index is not None else build_index(lattice)
    sp = set_points_mhz(lattice, pattern)
    if sigma_mhz == 0.0:
        row = count_collisions_batch(idx, sp, rules)[0] if pilot is None else totals // done
        totals, survivors = row * trials, int(not row.any()) * trials
    elif trials > done:
        rows = block_rows(idx)
        for z in deviates.blocks(done, trials, lattice.n_qubits):
            for lo in range(0, len(z), rows):
                f = sigma_mhz * z[lo:lo + rows]
                f += sp  # in place: one block x qubits temporary instead of two
                block_totals, clean = tally_collisions(idx, f, rules)
                totals += block_totals
                survivors += clean
    totals = totals.tolist()  # Python integers: each mean below is the exactly rounded ratio
    return SweepPoint(**point, trials=trials, yield_fraction=survivors / trials,
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

    def __post_init__(self):
        for name in ("base", "boost"):
            check_count(f"AdaptiveTrials.{name}", getattr(self, name))

    def base_trials(self, distance: int, sigma_mhz: float) -> int:
        return self.base

    def boost_trials(self, distance: int, observed_yield: float,
                     expected_collisions: float) -> int:
        """Trials for a re-run after the pilot, or 0 to keep the pilot."""
        if (observed_yield < LOW_YIELD_THRESHOLDS.get(distance, 0.0)
                and self.boost * math.exp(-expected_collisions) >= BOOST_MIN_SURVIVORS):
            return self.boost
        return 0


def operating_point(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float,
                    policy: AdaptiveTrials, master_seed: int = 0, *, index: CollisionIndex,
                    deviates: DeviateRows, totals: np.ndarray,
                    spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                    rules: CollisionRules = DEFAULT_RULES) -> SweepPoint:
    """One reported operating point: measure the spacing :func:`optimize_spacing`
    picks from ``totals``, the expected collision totals of the grid spacings
    at this sigma, at the policy's base trials; then extend that pilot when
    the policy asks for more trials, given the pilot's yield and E, the
    expected total at that spacing, ``min(totals)``.  ``totals`` is checked
    as in :func:`optimize_spacing`.  A one-element grid measures that
    spacing alone.

    ``deviates`` are the :class:`DeviateRows` shared by the pilot and the
    boost: the boost draws only the rows no point has read yet.  The boost is
    a :func:`run_point` given the pilot point, so it counts only the rows
    after the pilot's, each deviate row is counted once, and the point equals
    :func:`run_point` at the boost count.
    """
    grid = [float(s) for s in spacing_grid]
    totals = _checked_totals(totals, len(grid))
    n0 = policy.base_trials(lattice.distance, sigma_mhz)
    pt = optimize_spacing(lattice, pattern, sigma_mhz, n0, master_seed, spacing_grid=grid,
                          rules=rules, index=index, deviates=deviates, totals=totals)
    n1 = policy.boost_trials(lattice.distance, pt.yield_fraction, totals.min())
    if n1 > n0:
        pt = run_point(lattice, pattern.with_spacing(pt.spacing_mhz), sigma_mhz, n1, master_seed,
                       rules=rules, index=index, deviates=deviates, pilot=pt)
    return pt


def sweep_sigma(lattice: Lattice, pattern: FrequencyPattern, sigma_grid=DEFAULT_SIGMA_GRID_MHZ,
                trials_policy: AdaptiveTrials | None = None, master_seed: int = 0, *,
                spacing_grid=DEFAULT_SPACING_GRID_MHZ,
                rules: CollisionRules = DEFAULT_RULES) -> list:
    """Sweep the scatter level, re-optimising the spacing per point.

    Each point is an :func:`operating_point`, given its sigma's row of one
    :func:`expected_counts` call over the whole sigma x spacing grid, made
    before any deviate is drawn; a one-element ``spacing_grid`` keeps that
    spacing at every point.  The points share one :class:`DeviateRows`, so
    the base rows are drawn once and boost rows only if a point boosts.
    """
    policy = trials_policy if trials_policy is not None else AdaptiveTrials()
    sigmas = [float(s) for s in sigma_grid]
    idx = build_index(lattice)
    scores = expected_counts(idx, set_points_mhz(lattice, pattern, spacing_grid), sigmas,
                             rules).sum(axis=-1)
    z = DeviateRows(master_seed, lattice.n_qubits)
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
    anyone knows how well tuning will do.

    ``deviates`` may carry the :class:`DeviateRows` of ``master_seed`` shared
    by several lattices, as wide as the widest: under the sampling contract
    its first ``lattice.n_qubits`` columns are this lattice's own deviates, so
    the row is the same as without it, and each row is drawn once for all.
    """
    z = deviates if deviates is not None else DeviateRows(master_seed, lattice.n_qubits)
    idx = build_index(lattice)

    def point(sigma, grid):
        totals = expected_counts(idx, set_points_mhz(lattice, pattern, grid), sigma,
                                 rules).sum(axis=-1)
        return operating_point(lattice, pattern, sigma, policy, master_seed, index=idx,
                               deviates=z, totals=totals, spacing_grid=grid, rules=rules)
    tuned = point(TUNED_SIGMA_MHZ, spacing_grid)
    return tuned, point(AS_FABRICATED_SIGMA_MHZ, (tuned.spacing_mhz,))
