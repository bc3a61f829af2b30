"""Monte Carlo yield statistics under Gaussian frequency scatter.

The sampling contract: the standard-normal deviate applied to qubit q in
trial t under master seed s depends only on (s, t, q).  Trial t draws from
stream t of s, the Philox stream keyed by s at counter [0, 0, 0, t]
(:class:`Streams`), and qubit q takes position q of that draw.  Results
are therefore independent of batching and of which sigma/spacing values
are evaluated — a single deviate matrix can be reused across a whole
sweep, since a trial's frequencies are just set_points + sigma * z.

Every reported point is planned, then measured.  :func:`plan_sweep`, the one
planner (:func:`plan_table` and :func:`optimize_spacing` call it), decides
each point without a deviate: the spacing with the fewest *expected*
collisions (exact, from :func:`~freqcrowd.collision.expected_counts`, so the
reported statistics are not flattered by having picked the luckiest spacing
on them), and the trials :class:`AdaptiveTrials` plans from E, the expected
collision total there: the boost count where the model yield exp(-E) is low
and the boost expects at least :data:`BOOST_MIN_SURVIVORS` survivors,
``boost * exp(-E)``, else the base count.  Each decision is a
:class:`PlannedPoint`.  :func:`measure` then samples the plans.  With every
trial count known, so are the rows that two or more points read
(:func:`shared_rows`), and only those are held (:class:`DeviateRows`); every
other row is drawn by the one point that reads it, so each row is drawn once.

A point is measured (:func:`run_point`) by handing its set points and a
reader of its deviate rows to the collision kernel's walk
(``collision._tally_point``), which counts them block by block into per-type
totals and collision-free rows, and summarising those as a
:class:`SweepPoint` of exact integer ratios.  Held rows are read as views of
their band, and every point of a :func:`measure` call counts in one set of
kernel buffers, sized before the first point.
:func:`sweep_sigma` and :func:`table_rows` (the summary table the CLI prints
and the acceptance gate checks) are plan-then-measure.

No function here takes a device constant: the anharmonicity that places the
collision windows rides on each lattice to the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# count_collisions_batch, which mc no longer calls, stays bound for perfbench's tracer
from .collision import (_Scratch, _tally_point, block_rows, check_count, check_sigma,
                        count_collisions_batch, expected_counts)
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
        raise ParameterError("master seed must be in [0, 2**128)", "master_seed")


def philox_rng(master_seed: int, counter) -> np.random.Generator:
    """Philox generator keyed by a checked master seed, at four integer counter words."""
    check_seed(master_seed)
    words = tuple(counter)
    if len(words) != 4 or not all(isinstance(w, (int, np.integer)) and 0 <= w < 2**64
                                  for w in words):
        raise ParameterError("counter must be four integer words in [0, 2**64)", "counter")
    counter = np.array(words, dtype=np.uint64)  # numpy casts a list's words through float
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


class Streams:
    """The Philox streams of one master seed, checked once: :meth:`at` gives
    stream t, the draws of ``philox_rng(master_seed, [0, 0, 0, t])``.  Every
    per-index stream, a trial's deviate row or a tuned junction's noise, is
    opened here."""

    def __init__(self, master_seed: int):
        self._rng = philox_rng(master_seed, [0, 0, 0, 0])
        # a fresh generator's state, which the setter reads about twice as
        # fast from plain lists as from arrays
        self._state = state = self._rng.bit_generator.state
        self._counter = state["state"]["counter"] = state["state"]["counter"].tolist()
        state["state"]["key"] = state["state"]["key"].tolist()
        state["buffer"] = state["buffer"].tolist()

    def at(self, t: int) -> np.random.Generator:
        """The one generator, rewound to counter [0, 0, 0, t] with an empty
        buffer: stream t, for t in [0, 2**64) (unchecked), until the next rewind."""
        self._counter[3] = t
        self._rng.bit_generator.state = self._state
        return self._rng


def gaussian_deviates(master_seed: int, n_trials: int, n_qubits: int,
                      first_trial: int = 0) -> np.ndarray:
    """Deviate rows z[t - first_trial, q] of trials ``first_trial`` onwards,
    under the (seed, trial, qubit) contract: the checked entry to
    :func:`_draw`.  Each band of :class:`DeviateRows` is drawn here."""
    check_count("n_trials", n_trials)
    check_count("n_qubits", n_qubits)
    check_count("first_trial", first_trial, least=0)
    return _draw(Streams(master_seed), first_trial, n_trials, n_qubits)


def _draw(streams: Streams, first_trial: int, n_trials: int, n_qubits: int) -> np.ndarray:
    """:func:`gaussian_deviates` without its checks: row t - first_trial
    from stream t of ``streams``."""
    # Streams.at, inlined: no call per row
    rng, state, counter = streams._rng, streams._state, streams._counter
    bits = rng.bit_generator
    z = np.empty((n_trials, n_qubits))
    for t, row in enumerate(z, start=first_trial):
        counter[3] = t
        bits.state = state
        rng.standard_normal(out=row)
    return z


def shared_rows(planned) -> list:
    """The deviate rows that two or more of a set of sigma > 0 points read,
    from each point's planned ``(trials, n_qubits)``, as bands ``(stop,
    width)``: rows from the previous band's stop (the first band's from row
    0) to ``stop``, as wide as the widest point that reads them.

    A point reads its leading rows and columns, so a row is shared while two
    or more points are planned past it.  On one lattice that is one band,
    as many rows as the second-largest count, and none for fewer than two
    points.  Every row past the bands is read by one point alone.
    """
    bands = []
    for stop in sorted({trials for trials, _ in planned}):
        readers = [n_qubits for trials, n_qubits in planned if trials >= stop]
        if len(readers) < 2:
            break
        if bands and bands[-1][1] == max(readers):
            bands.pop()  # as wide as the band before: one band
        bands.append((stop, max(readers)))
    return bands


class DeviateRows:
    """Deviate rows of one master seed, for one or more points to read:
    each ``(stop, width)`` band of ``bands`` (see :func:`shared_rows`) is
    held, drawn in one :func:`gaussian_deviates` call, and every row no band
    holds wide enough is drawn when read.  A lattice narrower than a band
    reads its leading columns, which the sampling contract makes its own
    deviates.  Bands stay [rows, qubits], as Philox draws them, one trial per
    row; ``scratch`` holds the kernel buffers the points reading them build
    their member-major blocks in.
    """

    def __init__(self, master_seed: int, bands=()):
        self.master_seed = master_seed
        self.bands, first = [], 0
        for stop, width in bands:
            self.bands.append(gaussian_deviates(master_seed, stop - first, width, first))
            first = stop
        self._streams = Streams(master_seed)
        self.scratch = _Scratch()

    def block(self, lo: int, hi: int, n_qubits: int) -> np.ndarray:
        """Rows ``lo`` onwards, ``n_qubits`` wide, at most to ``hi - 1``: a view
        of the band holding row ``lo``, up to ``hi`` or the band's end, where
        that band is at least ``n_qubits`` wide, else rows ``lo .. hi - 1``
        drawn unchecked (:func:`_draw`)."""
        first = 0
        for band in self.bands:
            if lo < first + len(band):
                if band.shape[1] >= n_qubits:
                    return band[lo - first:hi - first, :n_qubits]
                break
            first += len(band)
        return _draw(self._streams, lo, hi - lo, n_qubits)


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
              master_seed: int = 0, *, deviates: DeviateRows | None = None) -> SweepPoint:
    """Monte Carlo statistics at one scatter level and pattern spacing.

    The first ``trials`` deviate rows (row t gives trial t) are counted by
    the collision kernel's walk (``collision._tally_point``) into per-type
    totals and collision-free rows, whose ratios to ``trials`` are the
    point's means; it builds and counts them in the kernel buffers of the
    :class:`DeviateRows` read (its ``scratch``), so a point reading held rows
    reuses the buffers of every point before it.  A scatter of -0.0 is the
    zero-scatter point, reported at 0.0.

    Every row is read through one :class:`DeviateRows`: ``deviates``,
    rows of ``master_seed`` held for several points (rows of another seed
    are refused with :class:`ParameterError`), or one holding none.  Held
    rows of any length or width give the point drawn alone, since a read
    draws the rows that no band at least ``lattice.n_qubits`` wide holds.
    """
    check_sigma(sigma_mhz)
    check_count("trials", trials)
    held = deviates if deviates is not None else DeviateRows(master_seed)  # checks the seed
    sigma_mhz = float(sigma_mhz) + 0.0  # -0.0 is reported as 0.0
    trials = int(trials)  # a numpy integer would make every mean a numpy float
    if held.master_seed != master_seed:
        raise ParameterError("deviates must be drawn under master_seed")
    n = lattice.n_qubits
    totals, survivors = _tally_point(lattice.collision_index, set_points_mhz(lattice, pattern),
                                     sigma_mhz, trials, lambda lo, hi: held.block(lo, hi, n),
                                     held.scratch)
    totals = totals.tolist()  # Python integers: each mean below is the exactly rounded ratio
    return SweepPoint(family=lattice.family, distance=lattice.distance,
                      n_qubits=lattice.n_qubits, sigma_mhz=sigma_mhz,
                      spacing_mhz=float(pattern.spacing_mhz), trials=trials,
                      master_seed=int(master_seed), yield_fraction=survivors / trials,
                      mean_collisions=sum(totals) / trials,
                      per_type_means=tuple(c / trials for c in totals))


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


@dataclass(frozen=True)
class PlannedPoint:
    """One reported point, decided before any deviate is drawn: the lattice,
    the pattern at the chosen spacing, the scatter, the planned trials and
    ``expected``, the seven expected counts (types 1..7) at that spacing and
    scatter, whose total E the trials were planned from."""

    lattice: Lattice
    pattern: FrequencyPattern
    sigma_mhz: float
    trials: int
    expected: tuple


def optimize_spacing(lattice: Lattice, pattern: FrequencyPattern, sigma_mhz: float, trials: int,
                     master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ) -> SweepPoint:
    """Measure the grid spacing a plan chooses at this sigma, on ``trials``
    rows: the one-point case of :func:`plan_sweep` and :func:`measure`, at a
    given trial count.  The choice does not depend on ``master_seed`` or
    ``trials``; only the returned :func:`run_point` is sampled.  No sweep
    calls it: it stays because the benchmark harness in ``perfbench/``
    traces it by name (until ROADMAP item 10 removes that coupling).
    """
    # the plan's spacing alone: the trials are given, and run_point checks them
    (plan,) = plan_sweep(lattice, pattern, [sigma_mhz], spacing_grid=spacing_grid)
    return run_point(lattice, plan.pattern, sigma_mhz, trials, master_seed)


def plan_sweep(lattice: Lattice, pattern: FrequencyPattern, sigma_grid=DEFAULT_SIGMA_GRID_MHZ,
               trials_policy: AdaptiveTrials | None = None, *,
               spacing_grid=DEFAULT_SPACING_GRID_MHZ) -> list:
    """The :class:`PlannedPoint` of each sigma of a sweep, in grid order,
    from one :func:`expected_counts` call over the sigma x ``spacing_grid``
    stack: the one planner of every reported point.  Each takes the grid
    spacing with the fewest expected collisions, ties to the smaller spacing
    (at zero scatter, where the expectation is the exact count, the smallest
    collision-free one), and the policy's trials for E, the expected total
    there; a one-element ``spacing_grid`` keeps that spacing at every point."""
    policy = trials_policy if trials_policy is not None else AdaptiveTrials()
    # -0.0 is planned as 0.0, in either grid
    grid = [float(s) + 0.0 for s in spacing_grid]
    if not grid:
        raise ParameterError("spacing grid is empty")
    sigmas = [float(s) + 0.0 for s in sigma_grid]
    counts = expected_counts(lattice.collision_index, set_points_mhz(lattice, pattern, grid),
                             sigmas)
    plans = []
    for sigma, by_spacing, totals in zip(sigmas, counts, counts.sum(axis=-1).tolist()):
        total, spacing, k = min(zip(totals, grid, range(len(grid))))
        plans.append(PlannedPoint(lattice, pattern.with_spacing(spacing), sigma,
                                  policy.trials(lattice.distance, total),
                                  tuple(by_spacing[k].tolist())))
    return plans


def plan_table(lattices, pattern: FrequencyPattern, policy: AdaptiveTrials, *,
               spacing_grid=DEFAULT_SPACING_GRID_MHZ) -> list:
    """The (tuned, as-fabricated) :class:`PlannedPoint` pair of each lattice.

    The tuned-precision point takes the grid spacing with the fewest
    expected collisions at ``TUNED_SIGMA_MHZ``; the as-fabricated point, at
    ``AS_FABRICATED_SIGMA_MHZ``, keeps that spacing, since a chip is laid
    out before anyone knows how well tuning will do.  Each point's trials
    are planned from its own expected total.
    """
    grid = tuple(spacing_grid)  # a one-shot iterable plans every lattice
    pairs = []
    for lat in lattices:
        (tuned,) = plan_sweep(lat, pattern, [TUNED_SIGMA_MHZ], policy, spacing_grid=grid)
        (fab,) = plan_sweep(lat, pattern, [AS_FABRICATED_SIGMA_MHZ], policy,
                            spacing_grid=[tuned.pattern.spacing_mhz])
        pairs.append((tuned, fab))
    return pairs


def measure(plans, master_seed: int = 0) -> list:
    """The :class:`SweepPoint` of each plan, in order, one :func:`run_point`
    each.

    Every trial count is planned, so the rows two or more sigma > 0 plans
    read are known before any is drawn (:func:`shared_rows`).  Only those
    rows are held, one :class:`DeviateRows` draw per band, each band as wide
    as the widest plan that reads it: under the sampling contract a
    lattice's leading columns are its own deviates, so each point equals the
    point measured alone.  A plan reading past the held rows draws the rest
    itself, a kernel block at a time, so each row is drawn once.  Every point
    builds and counts its blocks in one set of kernel buffers, sized before
    the first point by cells, to the largest block of any plan.
    """
    plans = list(plans)
    z = DeviateRows(master_seed, shared_rows([(p.trials, p.lattice.n_qubits)
                                              for p in plans if p.sigma_mhz > 0.0]))
    z.scratch.fit([(p.lattice.collision_index,
                    block_rows(p.lattice.collision_index) if p.sigma_mhz > 0.0 else 1)
                   for p in plans])
    return [run_point(p.lattice, p.pattern, p.sigma_mhz, p.trials, master_seed, deviates=z)
            for p in plans]


def sweep_sigma(lattice: Lattice, pattern: FrequencyPattern, sigma_grid=DEFAULT_SIGMA_GRID_MHZ,
                trials_policy: AdaptiveTrials | None = None, master_seed: int = 0, *,
                spacing_grid=DEFAULT_SPACING_GRID_MHZ) -> list:
    """Sweep the scatter level, re-optimising the spacing per point: the
    :func:`measure` of :func:`plan_sweep`'s plans, so the whole sigma x
    spacing grid is scored in one :func:`expected_counts` call before the
    first deviate is drawn."""
    return measure(plan_sweep(lattice, pattern, sigma_grid, trials_policy,
                              spacing_grid=spacing_grid), master_seed)


def table_rows(lattices, pattern: FrequencyPattern, policy: AdaptiveTrials,
               master_seed: int = 0, *, spacing_grid=DEFAULT_SPACING_GRID_MHZ) -> list:
    """The (tuned, as-fabricated) operating points of each lattice, in order:
    :func:`plan_table`'s pairs, measured together by :func:`measure`, so the
    lattices hold only the rows that two or more of their points read."""
    pairs = plan_table(lattices, pattern, policy, spacing_grid=spacing_grid)
    points = iter(measure([plan for pair in pairs for plan in pair], master_seed))
    return list(zip(points, points))
