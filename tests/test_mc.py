"""Sampling contract, batch independence, and spacing selection."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from freqcrowd import collision, lattice, mc
from freqcrowd.errors import ParameterError
from reference import expected_mean_collisions


def test_deviates_deterministic():
    a = mc.gaussian_deviates(42, 8, 23)
    b = mc.gaussian_deviates(42, 8, 23)
    c = mc.gaussian_deviates(43, 8, 23)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_deviates_trial_prefix_stable():
    # trial t's draws depend on (seed, t) only, not on how many trials ran
    long = mc.gaussian_deviates(7, 10, 17)
    short = mc.gaussian_deviates(7, 4, 17)
    assert np.array_equal(long[:4], short)


def test_deviates_qubit_prefix_stable():
    wide = mc.gaussian_deviates(7, 6, 25)
    narrow = mc.gaussian_deviates(7, 6, 9)
    assert np.array_equal(wide[:, :9], narrow)


def test_deviates_shape_and_moments():
    z = mc.gaussian_deviates(0, 4000, 10)
    assert z.shape == (4000, 10)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@pytest.mark.parametrize("bad", [(0, 5), (5, 0), (-1, 5)])
def test_deviates_rejects_empty(bad):
    with pytest.raises(ParameterError):
        mc.gaussian_deviates(1, *bad)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_deviates_reject_seed_outside_philox_key_range(seed):
    with pytest.raises(ParameterError, match="master seed"):
        mc.gaussian_deviates(seed, 2, 3)


def test_deviates_accept_largest_seed():
    assert mc.gaussian_deviates(2**128 - 1, 2, 3).shape == (2, 3)


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
def test_deviates_follow_the_philox_contract(seed):
    """Row t is the draw of a fresh Philox generator keyed by the seed at
    counter [0, 0, 0, t], bit for bit, however the rows are produced."""
    z = mc.gaussian_deviates(seed, 4000, 49)
    for t in (0, 1, 999, 3999):
        own = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, t]))
        assert z[t].tobytes() == own.standard_normal(49).tobytes()


def test_run_point_matches_per_trial_loop(hh3):
    """The batched counter must reproduce a plain per-trial loop exactly."""
    pattern = lattice.FrequencyPattern(spacing_mhz=45.0)
    sigma, trials, seed = 22.0, 64, 5
    pt = mc.run_point(hh3, pattern, sigma, trials, seed)

    sp = lattice.set_points_mhz(hh3, pattern)
    z = mc.gaussian_deviates(seed, trials, hh3.n_qubits)
    totals, per_type = [], np.zeros(7)
    for t in range(trials):
        rep = collision.count_collisions(hh3, sp + sigma * z[t])
        totals.append(rep.total)
        per_type += [rep.per_type[m] for m in collision.TYPE_IDS]
    assert pt.mean_collisions == pytest.approx(np.mean(totals), abs=1e-12)
    assert pt.yield_fraction == pytest.approx(np.mean(np.array(totals) == 0), abs=1e-12)
    assert np.allclose(pt.per_type_means, per_type / trials, atol=1e-12)


def test_run_point_metadata_and_yield_granularity(hh3):
    pt = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=50.0), 14.0, 320, 9)
    assert (pt.family, pt.distance, pt.n_qubits) == ("heavy_hexagon", 3, 23)
    assert (pt.sigma_mhz, pt.spacing_mhz, pt.trials, pt.master_seed) == (14.0, 50.0, 320, 9)
    # yield is a fraction of an integer trial count
    assert pt.yield_fraction * pt.trials == pytest.approx(round(pt.yield_fraction * pt.trials))
    assert sum(pt.per_type_means) == pytest.approx(pt.mean_collisions, rel=1e-12)


def test_prebuilt_deviates_equivalent_to_seed(hh3):
    pattern = lattice.FrequencyPattern(spacing_mhz=40.0)
    z = mc.gaussian_deviates(11, 500, hh3.n_qubits)
    assert mc.run_point(hh3, pattern, 14.0, 200, 11) == mc.run_point(
        hh3, pattern, 14.0, 200, 11, deviates=z)
    with pytest.raises(ParameterError):
        mc.run_point(hh3, pattern, 14.0, 501, 11, deviates=z)


def test_run_point_validation(hh3):
    pattern = lattice.FrequencyPattern()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="sigma must be >= 0"):
            mc.run_point(hh3, pattern, bad, 10)
    with pytest.raises(ParameterError):
        mc.run_point(hh3, pattern, 14.0, 0)
    z = mc.gaussian_deviates(3, 20, hh3.n_qubits)
    rows = []
    mc.run_point(hh3, pattern, 14.0, 20, 3, deviates=z, pilot=rows)
    with pytest.raises(ParameterError, match="pilot has more rows"):
        mc.run_point(hh3, pattern, 14.0, 10, 3, deviates=z, pilot=rows)


@pytest.mark.parametrize("sigma", [0.0, 30.0])
def test_run_point_extends_its_pilot(hh3, sigma):
    """Counting 300 rows, then extending them to 800, gives the 800-row point,
    with every row counted once."""
    pattern = lattice.FrequencyPattern(spacing_mhz=35.0)
    z = mc.gaussian_deviates(12, 800, hh3.n_qubits)
    rows = []
    pilot = mc.run_point(hh3, pattern, sigma, 300, 12, deviates=z, pilot=rows)
    assert pilot == mc.run_point(hh3, pattern, sigma, 300, 12, deviates=z)
    extended = mc.run_point(hh3, pattern, sigma, 800, 12, deviates=z, pilot=rows)
    assert extended == mc.run_point(hh3, pattern, sigma, 800, 12, deviates=z)
    assert [len(r) for r in rows] == [300, 500]
    assert np.array_equal(np.concatenate(rows), collision.count_collisions_batch(
        collision.build_index(hh3), lattice.set_points_mhz(hh3, pattern) + sigma * z))


def test_optimize_spacing_matches_manual_grid_scan(hh3):
    """Dual route: the oracle's argmin of the expected count over the grid,
    ties to the smaller spacing, measured by a plain run_point."""
    grid = (30.0, 40.0, 50.0, 60.0)
    pattern = lattice.FrequencyPattern()
    best = mc.optimize_spacing(hh3, pattern, 14.0, 400, 2, spacing_grid=grid)
    triples = lattice.next_nearest_triples(hh3)
    _, spacing = min((expected_mean_collisions(
        lattice.set_points_mhz(hh3, pattern.with_spacing(s)), 14.0, hh3.edges, triples), s)
        for s in grid)
    assert best == mc.run_point(hh3, pattern.with_spacing(spacing), 14.0, 400, 2)


def test_optimize_spacing_reports_the_chosen_expected_total(hh3):
    """``expected`` receives the oracle's expected total at the chosen
    spacing, the smallest over the grid."""
    grid = (30.0, 40.0, 50.0, 60.0)
    pattern = lattice.FrequencyPattern()
    got = []
    pt = mc.optimize_spacing(hh3, pattern, 14.0, 10, 2, spacing_grid=grid, expected=got)
    triples = lattice.next_nearest_triples(hh3)
    want = min(expected_mean_collisions(
        lattice.set_points_mhz(hh3, pattern.with_spacing(s)), 14.0, hh3.edges, triples)
        for s in grid)
    assert got == [pytest.approx(want, rel=1e-9)]
    assert want == pytest.approx(expected_mean_collisions(
        lattice.set_points_mhz(hh3, pattern.with_spacing(pt.spacing_mhz)), 14.0, hh3.edges,
        triples), rel=1e-12)


def test_optimize_spacing_ignores_the_sample(hh3):
    """The choice comes from the expectation, so neither the seed nor the
    trial count moves it (at 24 MHz a sample-mean pick wanders between 70,
    75 and 80 MHz over these seeds)."""
    pattern = lattice.FrequencyPattern()
    chosen = {mc.optimize_spacing(hh3, pattern, 24.0, n, seed).spacing_mhz
              for seed in (0, 1, 2, 3) for n in (100, 400)}
    z = mc.gaussian_deviates(5, 50, hh3.n_qubits)
    chosen.add(mc.optimize_spacing(hh3, pattern, 24.0, 50, 5, deviates=z).spacing_mhz)
    assert len(chosen) == 1


def test_optimize_spacing_zero_scatter_prefers_smallest_clean(hh3):
    # tight spacings collide deterministically; ties above break downward
    pt = mc.optimize_spacing(hh3, lattice.FrequencyPattern(), 0.0, 5,
                             spacing_grid=(5.0, 10.0, 30.0, 45.0, 60.0))
    assert pt.spacing_mhz == 30.0
    assert pt.mean_collisions == 0.0
    assert pt.yield_fraction == 1.0


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_operating_point_rejects_bad_sigma(hh3, sigma):
    z = mc.gaussian_deviates(0, 10, hh3.n_qubits)
    with pytest.raises(ParameterError, match="sigma must be >= 0"):
        mc.operating_point(hh3, lattice.FrequencyPattern(), sigma,
                           mc.AdaptiveTrials(base=10, boost=10),
                           index=collision.build_index(hh3), deviates=z)


def test_optimize_spacing_empty_grid(hh3):
    with pytest.raises(ParameterError):
        mc.optimize_spacing(hh3, lattice.FrequencyPattern(), 14.0, 10, spacing_grid=())


def test_default_grids():
    assert mc.DEFAULT_SPACING_GRID_MHZ[0] == 30.0
    assert mc.DEFAULT_SPACING_GRID_MHZ[-1] == 150.0
    assert all(b - a == 5.0 for a, b in zip(mc.DEFAULT_SPACING_GRID_MHZ, mc.DEFAULT_SPACING_GRID_MHZ[1:]))
    assert len(mc.DEFAULT_SIGMA_GRID_MHZ) == 26
    assert 132.3 in mc.DEFAULT_SIGMA_GRID_MHZ
    assert list(mc.DEFAULT_SIGMA_GRID_MHZ) == sorted(mc.DEFAULT_SIGMA_GRID_MHZ)


class TestTrialsPolicies:
    def test_fixed(self):
        p = mc.AdaptiveTrials(base=250, boost=250)
        assert p.base_trials(5, 14.0) == 250
        assert p.boost_trials(5, 0.0, 0.0) <= p.base_trials(5, 14.0)    # never re-runs
        assert p.max_trials(5) == 250

    def test_adaptive_boosts_only_rare_survivors(self):
        p = mc.AdaptiveTrials()
        assert p.base_trials(3, 14.0) == 1000
        assert p.boost_trials(3, 0.001, 0.0) == 4000
        assert p.boost_trials(3, 0.002, 0.0) == 0       # threshold is strict
        assert p.boost_trials(5, 0.009, 0.0) == 4000
        assert p.boost_trials(5, 0.5, 0.0) == 0
        assert p.boost_trials(11, 0.0, 0.0) == 0        # unlisted distance
        assert p.max_trials(7) == 4000

    # E at which the boost expects exactly BOOST_MIN_SURVIVORS survivors
    EDGE_4000 = math.log(4000 / mc.BOOST_MIN_SURVIVORS)   # 12.9
    EDGE_240 = math.log(240 / mc.BOOST_MIN_SURVIVORS)     # 10.1

    @pytest.mark.parametrize("base, boost, distance, observed, expected, trials", [
        (1000, 4000, 7, 0.0, 0.0, 4000),                 # fires: 4000 survivors expected
        (1000, 4000, 7, 0.0, EDGE_4000 - 1e-9, 4000),    # fires: just enough survivors
        (1000, 4000, 7, 0.0, EDGE_4000 + 1e-9, 0),       # hopeless: skipped
        (1000, 4000, 5, 0.0, 30.0, 0),                   # hopeless: skipped
        (1000, 4000, 5, 0.5, 0.0, 0),                    # pilot yield high enough
        (60, 240, 3, 0.0, EDGE_240 - 1e-9, 240),         # the gate uses the boost count
        (60, 240, 3, 0.0, EDGE_240 + 1e-9, 0),
        (1000, 4000, 11, 0.0, 0.0, 0),                   # unlisted distance
        (1000, 4000, 9, 0.0, 30.0, 0),                   # unlisted and hopeless
        (250, 250, 5, 0.0, 0.0, 250),                    # base == boost: nothing to add
        (250, 250, 5, 0.0, 30.0, 0),
    ])
    def test_boost_gate(self, base, boost, distance, observed, expected, trials):
        """Boost only a low-yield pilot whose boost expects at least
        BOOST_MIN_SURVIVORS survivors, boost * exp(-E)."""
        p = mc.AdaptiveTrials(base=base, boost=boost)
        assert p.boost_trials(distance, observed, expected) == trials


def test_sweep_sigma_boost_and_order(hh3):
    policy = mc.AdaptiveTrials(base=60, boost=240)
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigma_grid=(0.0, 100.0),
                         trials_policy=policy, master_seed=4)
    assert [p.sigma_mhz for p in pts] == [0.0, 100.0]
    assert pts[0].trials == 60          # yield 1.0 at zero scatter: no boost
    assert pts[0].yield_fraction == 1.0
    assert pts[1].trials == 240         # heavy scatter collapses the yield
    assert pts[1].yield_fraction < 0.5


def test_sweep_sigma_fixed_spacing_mode(hh3):
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(spacing_mhz=55.0),
                         sigma_grid=(10.0, 20.0), trials_policy=mc.AdaptiveTrials(base=80, boost=80),
                         master_seed=6, spacing_grid=(55.0,))
    assert all(p.spacing_mhz == 55.0 for p in pts)
    assert all(p.trials == 80 for p in pts)


def test_sweep_sigma_shares_deviates_across_points(hh3):
    """A sweep point must equal the same point measured standalone with the
    same seed: deviates are a function of (seed, trial, qubit) alone."""
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(spacing_mhz=45.0),
                         sigma_grid=(14.0,), trials_policy=mc.AdaptiveTrials(base=300, boost=300),
                         master_seed=8, spacing_grid=(45.0,))
    direct = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=45.0), 14.0, 300, 8)
    assert pts[0] == direct


def _tally_kernel_rows(monkeypatch):
    """Patch the kernel where ``mc`` and ``collision`` call it; return the
    list that collects the row count of every call."""
    rows, kernel = [], collision.count_collisions_batch

    def tally(index, f01_mhz, *args, **kwargs):
        out = kernel(index, f01_mhz, *args, **kwargs)
        rows.append(out.shape[0])
        return out
    monkeypatch.setattr(mc, "count_collisions_batch", tally)
    monkeypatch.setattr(collision, "count_collisions_batch", tally)
    return rows


@pytest.mark.parametrize("sigmas, spacings", [
    ((0.0, 14.0, 150.0), mc.DEFAULT_SPACING_GRID_MHZ),
    # 11 collisions at zero scatter, and 4000 exp(-11) = 0.07 clears the boost
    # gate, so that point boosts too
    ((0.0, 150.0), (105.0,)),
])
def test_sweep_counts_each_deviate_row_once(hh3, monkeypatch, sigmas, spacings):
    """Kernel rows = the sigma > 0 points' reported trials, one row per
    sigma = 0 point, and the sigma = 0 spacing scores (one row per spacing).
    A boosted point is the plain run_point at the boost count."""
    rows = _tally_kernel_rows(monkeypatch)
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigmas, master_seed=7,
                         spacing_grid=spacings)
    boosted = [p for p in pts if p.trials == 4000]
    assert boosted
    zero = [p for p in pts if p.sigma_mhz == 0.0]
    assert sum(rows) == (sum(p.trials for p in pts if p.sigma_mhz > 0.0)
                         + len(zero) * (1 + len(spacings)))
    monkeypatch.undo()
    for p in boosted:
        direct = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=p.spacing_mhz),
                              p.sigma_mhz, 4000, 7)
        assert dataclasses.astuple(p) == dataclasses.astuple(direct)
    if spacings == (105.0,):
        assert (pts[0].trials, pts[0].yield_fraction) == (4000, 0.0)


def _expected_total(lat, spacing, sigma):
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=spacing))
    return float(collision.expected_counts(collision.build_index(lat), sp, sigma).sum())


def test_sweep_skips_a_hopeless_boost(hh3, monkeypatch):
    """A pilot with no survivor, where the boost expects fewer than
    BOOST_MIN_SURVIVORS survivors, keeps its base trials: only its rows reach
    the kernel."""
    sigma, spacing = 20.0, 10.0
    assert 4000 * math.exp(-_expected_total(hh3, spacing, sigma)) < mc.BOOST_MIN_SURVIVORS
    rows = _tally_kernel_rows(monkeypatch)
    (pt,) = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (sigma,), master_seed=7,
                           spacing_grid=(spacing,))
    assert rows == [1000]
    assert (pt.trials, pt.yield_fraction) == (1000, 0.0)
    monkeypatch.undo()
    direct = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=spacing), sigma, 1000, 7)
    assert dataclasses.astuple(pt) == dataclasses.astuple(direct)


def test_sweep_boosts_where_a_survivor_can_be_found(hh3, monkeypatch):
    """A low-yield pilot whose boost expects enough survivors is extended to
    the boost count, and equals run_point there."""
    sigma = 150.0
    (pilot,) = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (sigma,),
                              mc.AdaptiveTrials(base=1000, boost=1000), master_seed=7)
    assert pilot.yield_fraction < mc.LOW_YIELD_THRESHOLDS[3]
    expected = _expected_total(hh3, pilot.spacing_mhz, sigma)
    assert 4000 * math.exp(-expected) >= mc.BOOST_MIN_SURVIVORS
    rows = _tally_kernel_rows(monkeypatch)
    (pt,) = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (sigma,), master_seed=7)
    assert sum(rows) == pt.trials == 4000
    monkeypatch.undo()
    direct = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=pt.spacing_mhz), sigma,
                          4000, 7)
    assert dataclasses.astuple(pt) == dataclasses.astuple(direct)


def test_sweep_enters_each_sigma_through_run_point_or_optimize_spacing(hh3, monkeypatch):
    """Per-sigma timings mark a point's start at its first run_point or
    optimize_spacing call.  The sweep scores its whole sigma x spacing grid
    in one expected_counts call before the first point, as set-up, so no
    scoring runs between one sigma's entry and the next."""
    events = []

    def recorded(kind, fn):
        def call(*args, **kwargs):
            events.append((kind, args[2]))
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(mc, "run_point", recorded("enter", mc.run_point))
    monkeypatch.setattr(mc, "optimize_spacing", recorded("enter", mc.optimize_spacing))
    monkeypatch.setattr(mc, "expected_counts", recorded("score", mc.expected_counts))
    sigmas = (0.0, 14.0, 150.0)
    mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigmas, master_seed=7)
    assert events[0] == ("score", list(sigmas))
    assert all(kind == "enter" for kind, _ in events[1:])
    assert [s for k, s in events if k == "enter"] == [0.0, 0.0, 14.0, 14.0, 150.0, 150.0, 150.0]


def test_optimize_spacing_takes_the_given_totals(hh3, monkeypatch):
    """Totals already scored by the caller pick the spacing, with no scoring
    of its own; they must give one total per grid spacing."""
    monkeypatch.setattr(mc, "expected_counts", None)
    grid = (40.0, 65.0, 90.0)
    expected = []
    pt = mc.optimize_spacing(hh3, lattice.FrequencyPattern(), 14.0, 50, 3, spacing_grid=grid,
                             expected=expected, totals=np.array([2.0, 3.0, 1.5]))
    assert (pt.spacing_mhz, expected) == (90.0, [1.5])
    assert pt == mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=90.0), 14.0, 50, 3)
    with pytest.raises(ParameterError, match="one expected total per grid spacing"):
        mc.optimize_spacing(hh3, lattice.FrequencyPattern(), 14.0, 50, 3, spacing_grid=grid,
                            totals=np.array([2.0, 3.0]))


def points_sha256(points):
    """SHA-256 over every field of every SweepPoint, floats at full precision."""
    h = hashlib.sha256()
    for p in points:
        h.update(repr(dataclasses.astuple(p)).encode())
    return h.hexdigest()


def test_sweep_points_are_pinned_bit_for_bit(hh3):
    """Digests of the default heavy-hexagon d=3 sweep and of the square d=5
    summary-table row (its tuned point boosts) at seed 1: a speed-up must
    leave every field of every point unchanged."""
    sweep = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), master_seed=1)
    assert points_sha256(sweep) == \
        "4d458916da7a7aae0fa168cbe1feecfff4e9afdcaf04fdd4103a26e46cddebf8"
    row = mc.table_row(lattice.build_lattice("square", 5), lattice.FrequencyPattern(),
                       mc.AdaptiveTrials(), 1)
    assert [p.trials for p in row] == [4000, 1000]
    assert points_sha256(row) == \
        "96174221f71f713c0f45e7d12d30446a7774928fd70f7f5471362015cb9f8073"


def test_table_rows_on_one_shared_deviate_matrix(nine_lattices):
    """One matrix as wide as the widest lattice serves all nine: each row
    reads its lattice's leading columns, which the sampling contract makes
    that lattice's own deviates, so every field matches a row drawn alone."""
    policy = mc.AdaptiveTrials(base=200, boost=400)
    lats = list(nine_lattices.values())
    z = mc.gaussian_deviates(11, policy.max_trials(7), max(lat.n_qubits for lat in lats))
    boosted = 0
    for lat in lats:
        shared = mc.table_row(lat, lattice.FrequencyPattern(), policy, 11, deviates=z)
        alone = mc.table_row(lat, lattice.FrequencyPattern(), policy, 11)
        assert [dataclasses.astuple(p) for p in shared] == [dataclasses.astuple(p) for p in alone]
        boosted += sum(p.trials == policy.boost for p in alone)
    assert boosted


@pytest.mark.parametrize("short_rows, short_cols", [(1, 0), (0, 1)])
def test_table_row_rejects_too_small_deviates(hh3, short_rows, short_cols):
    policy = mc.AdaptiveTrials(base=200, boost=400)
    z = mc.gaussian_deviates(11, 400 - short_rows, hh3.n_qubits - short_cols)
    with pytest.raises(ParameterError):
        mc.table_row(hh3, lattice.FrequencyPattern(), policy, 11, deviates=z)
