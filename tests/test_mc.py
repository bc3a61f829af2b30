"""Sampling contract, batch independence, and spacing selection."""
import ast
import dataclasses
import hashlib
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from freqcrowd import collision, lattice, mc
from freqcrowd.errors import ParameterError
from reference import expected_mean_collisions, expected_type_means, naive_counts


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


@pytest.mark.parametrize("bad", [2.5, True, float("nan")])
@pytest.mark.parametrize("name", ["n_trials", "n_qubits", "first_trial"])
def test_deviates_reject_non_integer_counts(name, bad):
    """A count that is not an integer is named, not left to numpy."""
    args = {"n_trials": 2, "n_qubits": 3, "first_trial": 0, name: bad}
    with pytest.raises(ParameterError, match=name):
        mc.gaussian_deviates(1, **args)


def test_deviates_from_a_first_trial():
    """Rows drawn from trial 5 on are those rows of a draw from trial 0; the
    first trial may be 0 but not negative."""
    z = mc.gaussian_deviates(7, 12, 17)
    assert np.array_equal(mc.gaussian_deviates(7, 7, 17, first_trial=5), z[5:])
    assert np.array_equal(mc.gaussian_deviates(7, 12, 17, first_trial=0), z)
    with pytest.raises(ParameterError, match="first_trial must be an integer >= 0"):
        mc.gaussian_deviates(7, 2, 17, first_trial=-1)


def test_deviate_rows_are_one_draw_of_a_known_row_count(monkeypatch):
    """The rows are drawn when built, one draw per band: from trial 0, then
    each narrower band from the previous one's stop.  They carry their
    master seed."""
    z = mc.gaussian_deviates(3, 70, 25)
    calls = _spy_deviate_draws(monkeypatch)
    rows = mc.DeviateRows(3, [(40, 25)])
    assert calls == [(0, 40)] and rows.master_seed == 3
    assert [band.tolist() for band in rows.bands] == [z[:40].tolist()]
    del calls[:]
    rows = mc.DeviateRows(3, [(40, 25), (50, 9), (70, 4)])
    assert calls == [(0, 40), (40, 10), (50, 20)]
    assert [band.tolist() for band in rows.bands] == [
        z[:40].tolist(), z[40:50, :9].tolist(), z[50:70, :4].tolist()]
    with pytest.raises(ParameterError, match="n_trials must be an integer >= 1"):
        mc.DeviateRows(3, [(0, 25)])


@pytest.mark.parametrize("lo, hi, n_qubits, drawn", [
    (5, 15, 25, []),            # inside the first band
    (35, 45, 9, []),            # across a band boundary, read narrower
    (45, 70, 4, []),            # across the last band boundary
    (60, 80, 4, [(70, 10)]),    # across the held/drawn boundary
    (30, 50, 25, [(40, 10)]),   # wider than the second band: drawn from its start
    (0, 70, 9, [(50, 20)]),     # wider than the third band only
    (80, 90, 25, [(80, 10)]),   # past every band
    (5, 5, 25, []),             # an empty span: nothing read
], ids=["inside", "band-edge", "last-band-edge", "held-drawn", "wider-than-second",
        "wider-than-third", "past-the-bands", "empty"])
def test_deviate_rows_block_is_the_rows_drawn_alone(monkeypatch, lo, hi, n_qubits, drawn):
    """Successive reads from ``lo`` up to ``hi``, each from the row after the
    last one got, concatenate to the leading columns of those rows of one
    plain draw: each read is one to ``hi - lo`` rows, a view of the band
    holding its first row where that band is at least as wide as it asks
    for, else drawn, and each drawn row is drawn once."""
    z = mc.gaussian_deviates(3, 90, 25)
    rows = mc.DeviateRows(3, [(40, 25), (50, 9), (70, 4)])
    draws = _spy_deviate_draws(monkeypatch)
    blocks, at = [], lo
    while at < hi:
        blocks.append(rows.block(at, hi, n_qubits))
        assert 1 <= len(blocks[-1]) <= hi - at
        at += len(blocks[-1])
    block = np.concatenate(blocks or [np.empty((0, n_qubits))])
    assert block.tobytes() == z[lo:hi, :n_qubits].tobytes() and block.shape == (hi - lo, n_qubits)
    assert draws == drawn
    views = [b for b in blocks if any(np.shares_memory(b, band) for band in rows.bands)]
    assert len(views) == len(blocks) - len(drawn)


def test_deviate_rows_without_bands_draw_every_block():
    """Holding no band, a holder draws each block it is asked for, in any
    order and on one generator: the checked draw of those rows, and zero
    rows for an empty span."""
    rows = mc.DeviateRows(3)
    assert rows.bands == []
    for lo, hi in ((5, 12), (0, 7), (30, 31), (0, 7)):
        block = rows.block(lo, hi, 25)
        assert block.tobytes() == mc.gaussian_deviates(3, hi - lo, 25, lo).tobytes()
        assert block.shape == (hi - lo, 25)
    assert rows.block(5, 5, 25).shape == (0, 25)


@pytest.mark.parametrize("held, expected", [
    (True, [("check_count", "trials")]),
    (False, [("check_count", "trials"), ("check_seed", 8)]),
], ids=["partly-held", "alone"])
def test_run_point_checks_its_inputs_once_not_per_block(nine_lattices, monkeypatch, held,
                                                        expected):
    """A point of several kernel blocks checks its trials and its seed at its
    entry and never again: no block's read or draw repeats a check.  Held
    rows had their seed checked when they were built, and the point only
    requires that seed to be its own."""
    lat = nine_lattices[("heavy_square", 5)]
    idx = collision.build_index(lat)
    block = collision.block_rows(idx)
    n, pattern = 3 * block + 5, lattice.FrequencyPattern()
    z = mc.DeviateRows(8, [(block + 3, lat.n_qubits)]) if held else None
    checks = []

    def spy(module, name):
        check = getattr(module, name)

        def recorded(*args, **kwargs):
            checks.append((name, args[0]))
            return check(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    spy(collision, "check_count")
    spy(mc, "check_count")
    spy(mc, "check_seed")
    pt = mc.run_point(lat, pattern, 14.0, n, 8, deviates=z)
    assert checks == expected
    monkeypatch.undo()
    assert pt == mc.run_point(lat, pattern, 14.0, n, 8)


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


@pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
def test_a_rewound_stream_draws_as_a_fresh_generator(seed):
    """``Streams(s).at(j)`` draws what a fresh ``philox_rng(s, [0, 0, 0, j])``
    draws, bit for bit, whatever the one generator drew before the rewind:
    each stream here ends on a part-used buffer (an odd count of 32-bit
    draws, three normals) and the next starts with a 32-bit draw.  Counter
    words of 2**63 and more reach numpy exactly, not through a float."""
    streams = mc.Streams(seed)
    draws = (lambda g: g.integers(0, 2**32, 1, dtype=np.uint32),
             lambda g: g.standard_normal(3),
             lambda g: g.normal(0.0, 0.1),
             lambda g: g.random(3, dtype=np.float32))
    for j in (0, 5, 1, 5, 299, 0, 2**63 - 1, 3, 2**63, 2**63 + 5, 2**64 - 1):
        rewound, fresh = streams.at(j), mc.philox_rng(seed, [0, 0, 0, j])
        for draw in draws:
            assert np.asarray(draw(rewound)).tobytes() == np.asarray(draw(fresh)).tobytes(), j


@pytest.mark.parametrize("counter", [[0, 0, 0, 2**64], [0, -1, 0, 0], [0, 0, 0], [0, 0, 0, 0, 0],
                                     [0, 0, 0, 1.0], [0, 0, 0, 2.0**64], "0000"],
                         ids=["2**64", "negative", "three-words", "five-words", "float",
                              "float-2**64", "text"])
def test_philox_rng_refuses_a_counter_that_is_not_four_64_bit_words(counter):
    with pytest.raises(ParameterError, match=r"four integer words in \[0, 2\*\*64\)") as excinfo:
        mc.philox_rng(1, counter)
    assert excinfo.value.param == "counter"


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_streams_refuse_a_seed_outside_the_key_range(seed):
    with pytest.raises(ParameterError, match=r"master seed must be in \[0, 2\*\*128\)"):
        mc.Streams(seed)


def test_only_mc_opens_a_random_stream():
    """Every random draw of the package comes through ``mc``: the one checked
    generator :func:`mc.philox_rng` builds is the package's only call into
    ``np.random`` (or any other random module), and ``tunesim`` opens its
    streams only through ``mc``: its population lane with ``philox_rng``,
    and each junction's stream by rewinding one ``mc.Streams`` per campaign."""
    package = pathlib.Path(mc.__file__).parent
    random_calls, tunesim_streams = set(), set()
    for path in sorted(package.glob("*.py")):
        scopes = [(None, ast.parse(path.read_text()))]
        while scopes:
            scope, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if isinstance(child, ast.Call):
                    func = ast.unparse(child.func)
                    if "random" in func or func.split(".")[-1] in (
                            "default_rng", "Generator", "Philox", "SeedSequence"):
                        random_calls.add((path.name, scope, ast.unparse(child)))
                    if path.name == "tunesim.py" and func.split(".")[-1] in (
                            "Streams", "at", "philox_rng", "gaussian_deviates"):
                        tunesim_streams.add((scope, ast.unparse(child)))
                scopes.append((inner, child))
    assert random_calls == {
        ("mc.py", "philox_rng", "np.random.Generator(np.random.Philox(key=master_seed, "
                                "counter=counter))"),
        ("mc.py", "philox_rng", "np.random.Philox(key=master_seed, counter=counter)")}
    assert tunesim_streams == {("generate_population", "philox_rng(master_seed, [0, 0, 1, 0])"),
                               ("run_campaign", "Streams(master_seed)"),
                               ("run_campaign", "streams.at(j)")}


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
    """Shared rows of the same seed, wider and longer than a point reads, give
    the same point."""
    pattern = lattice.FrequencyPattern(spacing_mhz=40.0)
    z = mc.DeviateRows(11, [(501, hh3.n_qubits + 4)])
    assert mc.run_point(hh3, pattern, 14.0, 200, 11) == mc.run_point(
        hh3, pattern, 14.0, 200, 11, deviates=z)
    assert mc.run_point(hh3, pattern, 14.0, 501, 11, deviates=z) == mc.run_point(
        hh3, pattern, 14.0, 501, 11)


def test_run_point_rejects_deviates_of_another_seed(hh3):
    """Rows of another seed are not the point's deviates, so they are
    refused, at zero scatter too."""
    z = mc.DeviateRows(12, [(10, hh3.n_qubits)])
    for sigma in (14.0, 0.0):
        with pytest.raises(ParameterError, match="deviates must be drawn under master_seed"):
            mc.run_point(hh3, lattice.FrequencyPattern(), sigma, 10, 11, deviates=z)


def test_run_point_on_held_rows_narrower_than_its_lattice(hh3, monkeypatch):
    """Held rows one column narrower than the lattice hold none of its rows:
    the point draws every row itself and equals the point drawn alone, at
    zero scatter too."""
    pattern = lattice.FrequencyPattern()
    z = mc.DeviateRows(11, [(100, hh3.n_qubits - 1)])
    alone = mc.run_point(hh3, pattern, 14.0, 200, 11)
    assert 0.0 < alone.yield_fraction < 1.0
    draws = _spy_deviate_draws(monkeypatch)
    assert mc.run_point(hh3, pattern, 14.0, 200, 11, deviates=z) == alone
    assert sorted(t for first, rows in draws for t in range(first, first + rows)) == \
        list(range(200))
    assert mc.run_point(hh3, pattern, 0.0, 200, 11, deviates=z) == mc.run_point(
        hh3, pattern, 0.0, 200, 11)


@pytest.mark.parametrize("family, distance, sigma", [("heavy_hexagon", 3, 22.0),
                                                     ("heavy_square", 5, 14.0)])
def test_run_point_reads_past_the_end_of_its_deviates(nine_lattices, monkeypatch,
                                                      family, distance, sigma):
    """A point planned past the end of the held rows reads them and draws
    the rest itself, each row once, from the first row not held: it equals
    the point drawn alone and the point read from a full matrix, whether
    the held rows end inside a kernel block or on its edge.  At zero
    scatter it reads no row."""
    lat = nine_lattices[(family, distance)]
    idx = collision.build_index(lat)
    block = collision.block_rows(idx)
    n, pattern = 2 * block + 5, lattice.FrequencyPattern()
    alone = mc.run_point(lat, pattern, sigma, n, 3)
    assert alone == mc.run_point(lat, pattern, sigma, n, 3,
                                 deviates=mc.DeviateRows(3, [(n, lat.n_qubits + 2)]))
    assert 0.0 < alone.yield_fraction < 1.0
    for held in (1, block // 2 + 1, block, block + 3, n - 1):
        z = mc.DeviateRows(3, [(held, lat.n_qubits + 2)])
        draws = _spy_deviate_draws(monkeypatch)
        assert mc.run_point(lat, pattern, sigma, n, 3, deviates=z) == alone
        assert sorted(t for first, rows in draws for t in range(first, first + rows)) == \
            list(range(held, n)), held
        monkeypatch.undo()
    draws = _spy_deviate_draws(monkeypatch)
    assert mc.run_point(lat, pattern, 0.0, n, 3, deviates=z) == mc.run_point(
        lat, pattern, 0.0, n, 3)
    assert draws == []


def test_inputs_at_their_bounds_count_without_overflow():
    """Spacing, scatter and anharmonicity at the edges of their domains keep
    every trial frequency and collision operand finite: no overflow warning,
    which this suite turns into an error, in the kernel or the expectation."""
    hh3 = lattice.build_lattice("heavy_hexagon", 3, lattice.ANHARMONICITY_DOMAIN.lo)
    spacing = lattice.SPACING_DOMAIN.hi
    pattern = lattice.FrequencyPattern(spacing_mhz=spacing)
    assert lattice.set_points_mhz(hh3, pattern).max() == 5000.0 + 2 * spacing
    for sigma in (collision.SIGMA_DOMAIN.lo, collision.SIGMA_DOMAIN.hi):
        assert mc.run_point(hh3, pattern, sigma, 300, 1).trials == 300
        plan = mc.plan_sweep(hh3, pattern, [sigma], spacing_grid=[spacing])
        assert math.isfinite(sum(plan[0].expected))


def test_negative_zero_sigma_is_measured_as_zero(hh3):
    """A scatter of -0.0 passes every check and enters run_point as 0.0: the
    point reports +0.0, and equals the zero-scatter point."""
    pattern = lattice.FrequencyPattern()
    point = mc.run_point(hh3, pattern, -0.0, 10, 1)
    assert math.copysign(1.0, point.sigma_mhz) == 1.0
    assert point == mc.run_point(hh3, pattern, 0.0, 10, 1)


def test_negative_zero_sigma_is_planned_as_zero(hh3):
    """A sweep grid's -0.0 enters plan_sweep as 0.0: its plan holds +0.0."""
    (plan,) = mc.plan_sweep(hh3, lattice.FrequencyPattern(), [-0.0])
    assert math.copysign(1.0, plan.sigma_mhz) == 1.0


def test_negative_zero_spacing_is_planned_as_zero(hh3):
    """A spacing grid's -0.0 enters plan_sweep as 0.0, as a sigma does: the
    plan's pattern, and the point measured there, hold +0.0."""
    (plan,) = mc.plan_sweep(hh3, lattice.FrequencyPattern(), [14.0], spacing_grid=[-0.0])
    assert math.copysign(1.0, plan.pattern.spacing_mhz) == 1.0
    (point,) = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), [14.0], master_seed=1,
                              spacing_grid=[-0.0])
    assert math.copysign(1.0, point.spacing_mhz) == 1.0


def test_run_point_validation(hh3):
    pattern = lattice.FrequencyPattern()
    for bad in (-1.0, float("nan"), float("inf"), 1e308):  # 1e308: sigma * z would overflow
        with pytest.raises(ParameterError, match="sigma_mhz must be in"):
            mc.run_point(hh3, pattern, bad, 10)
    with pytest.raises(ParameterError):
        mc.run_point(hh3, pattern, 14.0, 0)


@pytest.mark.parametrize("bad", [2.5, True, float("nan")])
def test_run_point_rejects_non_integer_trials(hh3, bad):
    with pytest.raises(ParameterError, match="trials must be an integer >= 1"):
        mc.run_point(hh3, lattice.FrequencyPattern(), 10.0, bad, 1)


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


def test_operating_point_gates_the_boost_on_the_chosen_expected_total(hh3, monkeypatch):
    """The E a point's trials are planned from is the oracle's expected total
    at the chosen spacing, the smallest over the grid, and is planned once."""
    grid = (30.0, 40.0, 50.0, 60.0)
    pattern = lattice.FrequencyPattern()
    got, plan = [], mc.AdaptiveTrials.trials

    def spy(self, distance, expected_collisions):
        got.append(expected_collisions)
        return plan(self, distance, expected_collisions)
    monkeypatch.setattr(mc.AdaptiveTrials, "trials", spy)
    (planned,) = mc.plan_sweep(hh3, pattern, (14.0,), mc.AdaptiveTrials(base=10, boost=10),
                               spacing_grid=grid)
    triples = lattice.next_nearest_triples(hh3)
    want = min(expected_mean_collisions(
        lattice.set_points_mhz(hh3, pattern.with_spacing(s)), 14.0, hh3.edges, triples)
        for s in grid)
    assert got == [pytest.approx(want, rel=1e-9)]
    assert want == pytest.approx(expected_mean_collisions(
        lattice.set_points_mhz(hh3, planned.pattern), 14.0, hh3.edges, triples), rel=1e-12)
    del got[:]
    (pt,) = mc.measure([planned], 2)
    assert got == [] and pt.trials == planned.trials == 10
    assert pt.spacing_mhz == planned.pattern.spacing_mhz


def test_optimize_spacing_ignores_the_sample(hh3):
    """The choice comes from the expectation, so neither the seed nor the
    trial count moves it (at 24 MHz a sample-mean pick wanders between 70,
    75 and 80 MHz over these seeds)."""
    pattern = lattice.FrequencyPattern()
    chosen = {mc.optimize_spacing(hh3, pattern, 24.0, n, seed).spacing_mhz
              for seed in (0, 1, 2, 3) for n in (100, 400)}
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
    """A point's scatter is checked where it is planned."""
    with pytest.raises(ParameterError, match="sigma_mhz must be in"):
        mc.plan_sweep(hh3, lattice.FrequencyPattern(), (14.0, sigma))


def test_optimize_spacing_empty_grid(hh3):
    """An empty grid is named, not left to numpy's empty reduction, wherever
    a spacing is chosen."""
    pattern = lattice.FrequencyPattern()
    with pytest.raises(ParameterError, match="spacing grid is empty"):
        mc.optimize_spacing(hh3, pattern, 14.0, 10, spacing_grid=())
    with pytest.raises(ParameterError, match="spacing grid is empty"):
        mc.plan_sweep(hh3, pattern, (14.0,), spacing_grid=())
    with pytest.raises(ParameterError, match="spacing grid is empty"):
        mc.sweep_sigma(hh3, pattern, (14.0,), spacing_grid=())
    with pytest.raises(ParameterError, match="spacing grid is empty"):
        mc.table_rows([hh3], pattern, mc.AdaptiveTrials(), 1, spacing_grid=[])


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
        assert p.trials(5, 8.0) == 250                  # never boosts

    def test_adaptive_boosts_only_rare_survivors(self):
        """The model yield exp(-E) must be strictly below the distance's
        threshold: exp(-E) = 0.001, 0.009, 0.5 and, for d=11, 0.0003."""
        p = mc.AdaptiveTrials()
        assert p.base_trials(3, 14.0) == 1000
        assert p.trials(3, -math.log(0.001)) == 4000
        assert p.trials(3, -math.log(0.002) - 1e-9) == 1000  # threshold is strict
        assert p.trials(5, -math.log(0.009)) == 4000
        assert p.trials(5, -math.log(0.5)) == 1000
        assert p.trials(11, 8.0) == 1000                    # unlisted distance

    @pytest.mark.parametrize("field", ["base", "boost"])
    @pytest.mark.parametrize("bad", [0, -3, 10.5, 1000.0, True, "1000"])
    def test_counts_are_integers_of_at_least_one(self, field, bad):
        """Checked when the policy is built, not deep inside a sweep."""
        with pytest.raises(ParameterError, match=f"AdaptiveTrials.{field}"):
            mc.AdaptiveTrials(**{field: bad})

    def test_numpy_integer_counts_are_accepted(self):
        p = mc.AdaptiveTrials(base=np.int64(200), boost=np.int32(400))
        assert (p.base_trials(7, 132.3), p.trials(7, 8.0)) == (200, 400)

    # E at which the boost expects exactly BOOST_MIN_SURVIVORS survivors
    EDGE_4000 = math.log(4000 / mc.BOOST_MIN_SURVIVORS)   # 12.9
    EDGE_240 = math.log(240 / mc.BOOST_MIN_SURVIVORS)     # 10.1

    @pytest.mark.parametrize("base, boost, distance, expected, trials", [
        (1000, 4000, 7, 5.0, 4000),                 # fires: 27 survivors expected
        (1000, 4000, 7, EDGE_4000 - 1e-9, 4000),    # fires: just enough survivors
        (1000, 4000, 7, EDGE_4000 + 1e-9, 1000),    # hopeless: skipped
        (1000, 4000, 5, 30.0, 1000),                # hopeless: skipped
        (1000, 4000, 5, 0.0, 1000),                 # model yield 1: high enough
        (60, 240, 3, EDGE_240 - 1e-9, 240),         # the gate uses the boost count
        (60, 240, 3, EDGE_240 + 1e-9, 60),
        (1000, 4000, 11, 8.0, 1000),                # unlisted distance
        (1000, 4000, 9, 30.0, 1000),                # unlisted and hopeless
        (250, 250, 5, 8.0, 250),                    # base == boost: nothing to add
        (250, 250, 5, 30.0, 250),
        (1000, 500, 5, 8.0, 1000),                  # boost < base never boosts
    ])
    def test_boost_gate(self, base, boost, distance, expected, trials):
        """Boost only where the model yield exp(-E) is low and the boost
        expects at least BOOST_MIN_SURVIVORS survivors, boost * exp(-E)."""
        p = mc.AdaptiveTrials(base=base, boost=boost)
        assert p.trials(distance, expected) == trials


def test_sweep_sigma_boost_and_order(hh3):
    policy = mc.AdaptiveTrials(base=60, boost=240)
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigma_grid=(0.0, 150.0),
                         trials_policy=policy, master_seed=4)
    assert [p.sigma_mhz for p in pts] == [0.0, 150.0]
    assert pts[0].trials == 60          # model yield 1.0 at zero scatter: no boost
    assert pts[0].yield_fraction == 1.0
    assert pts[1].trials == 240         # heavy scatter: model yield 0.0008
    assert pts[1].yield_fraction < 0.5


def test_default_sweeps_plan_their_trials_from_the_expected_total(hh3):
    """Each point's trials are the policy's for E, the oracle's expected total
    at its chosen spacing (the exact count at zero scatter), so the sample
    does not move them: seeds 1 and 7 plan the same trials at every sigma."""
    policy, triples = mc.AdaptiveTrials(), lattice.next_nearest_triples(hh3)
    one, seven = (mc.sweep_sigma(hh3, lattice.FrequencyPattern(), master_seed=s) for s in (1, 7))
    assert [p.trials for p in one] == [p.trials for p in seven]
    for p in one:
        sp = lattice.set_points_mhz(hh3, lattice.FrequencyPattern(spacing_mhz=p.spacing_mhz))
        e = (expected_mean_collisions(sp, p.sigma_mhz, hh3.edges, triples) if p.sigma_mhz > 0.0
             else p.mean_collisions)
        assert p.trials == policy.trials(3, e), p.sigma_mhz
    assert [p.sigma_mhz for p in one if p.trials == policy.boost] == [132.3, 150.0]


def _reference_expected(lat, pattern, sigma):
    """The oracle's expected count of each type, the exact count at zero
    scatter."""
    sp = lattice.set_points_mhz(lat, pattern)
    if sigma == 0.0:
        counts = naive_counts(lat.n_qubits, lat.edges, sp)
        return [counts[t] for t in collision.TYPE_IDS]
    return expected_type_means(sp, sigma, lat.edges, lattice.next_nearest_triples(lat))


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_plans_hold_the_expected_counts_they_planned_from(nine_lattices, family):
    """Each sweep plan and each summary-table plan on a d=3 lattice holds
    the oracle's per-type expected counts at its chosen spacing and the
    policy's trials for their total; the as-fabricated plan keeps the tuned
    spacing.  Measured together, each plan gives its lone run_point."""
    lat, pattern, policy = nine_lattices[(family, 3)], lattice.FrequencyPattern(), mc.AdaptiveTrials()
    sweep = mc.plan_sweep(lat, pattern)
    ((tuned, fab),) = mc.plan_table([lat], pattern, policy)
    assert [p.sigma_mhz for p in sweep] == list(mc.DEFAULT_SIGMA_GRID_MHZ)
    assert (tuned.sigma_mhz, fab.sigma_mhz) == (mc.TUNED_SIGMA_MHZ, mc.AS_FABRICATED_SIGMA_MHZ)
    assert fab.pattern == tuned.pattern
    assert any(p.trials == policy.boost for p in sweep)
    for plan in (*sweep, tuned, fab):
        assert plan.lattice is lat
        assert list(plan.expected) == pytest.approx(
            _reference_expected(lat, plan.pattern, plan.sigma_mhz), rel=1e-9), plan.sigma_mhz
        assert plan.trials == policy.trials(3, sum(plan.expected)), plan.sigma_mhz
    for plans in (sweep, [tuned, fab]):
        for plan, pt in zip(plans, mc.measure(plans, 5), strict=True):
            alone = mc.run_point(lat, plan.pattern, plan.sigma_mhz, plan.trials, 5)
            assert dataclasses.astuple(pt) == dataclasses.astuple(alone)


def test_plans_draw_no_deviate(hh3, monkeypatch):
    """Planning decides every point without the sample: no deviate row is
    drawn until the plans are measured."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a plan drew a deviate row")
    monkeypatch.setattr(mc, "gaussian_deviates", no_draw)
    monkeypatch.setattr(mc, "_draw", no_draw)
    monkeypatch.setattr(mc, "run_point", no_draw)
    assert len(mc.plan_sweep(hh3, lattice.FrequencyPattern())) == len(mc.DEFAULT_SIGMA_GRID_MHZ)
    assert len(mc.plan_table([hh3, hh3], lattice.FrequencyPattern(), mc.AdaptiveTrials())) == 2
    assert mc.measure([], 3) == []


def test_measure_takes_plans_of_several_lattices_and_policies(nine_lattices):
    """Plans from different lattices, policies and planners, measured
    together on shared rows, each give the point measured alone."""
    pattern = lattice.FrequencyPattern()
    plans = [*mc.plan_sweep(nine_lattices[("heavy_hexagon", 3)], pattern, (0.0, 14.0, 150.0)),
             *mc.plan_sweep(nine_lattices[("square", 5)], pattern, (8.0, 14.0),
                            mc.AdaptiveTrials(base=50, boost=90)),
             *mc.plan_table([nine_lattices[("heavy_square", 3)]], pattern,
                            mc.AdaptiveTrials(base=30, boost=70))[0]]
    assert len({p.trials for p in plans}) > 2
    for plan, pt in zip(plans, mc.measure(plans, 4), strict=True):
        alone = mc.run_point(plan.lattice, plan.pattern, plan.sigma_mhz, plan.trials, 4)
        assert dataclasses.astuple(pt) == dataclasses.astuple(alone)


def test_a_one_shot_spacing_grid_plans_every_lattice(nine_lattices):
    """A generator spacing grid gives the summary table of every lattice
    what the same grid as a tuple gives, planned and measured."""
    lats = [nine_lattices[("heavy_hexagon", 3)], nine_lattices[("square", 3)]]
    pattern, policy = lattice.FrequencyPattern(), mc.AdaptiveTrials(base=30, boost=60)
    grid = (40.0, 55.0, 70.0, 85.0)
    assert mc.plan_table(lats, pattern, policy, spacing_grid=(s for s in grid)) == \
        mc.plan_table(lats, pattern, policy, spacing_grid=grid)
    one_shot = mc.table_rows(lats, pattern, policy, 2, spacing_grid=(s for s in grid))
    assert len(one_shot) == 2
    assert [tuple(map(dataclasses.astuple, pair)) for pair in one_shot] == \
        [tuple(map(dataclasses.astuple, pair))
         for pair in mc.table_rows(lats, pattern, policy, 2, spacing_grid=grid)]


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize("sigmas", [(14.0, 20.0), (14.0,)], ids=["held", "alone"])
def test_measure_checks_the_seed(hh3, seed, sigmas):
    """A seed outside the Philox key range is refused whether the plans hold
    shared rows or each point draws its own."""
    plans = mc.plan_sweep(hh3, lattice.FrequencyPattern(), sigmas)
    with pytest.raises(ParameterError, match="master seed"):
        mc.measure(plans, seed)


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


def test_mc_takes_only_the_scratch_and_the_walk_of_the_kernels_private_names():
    """A point's block walk lives in ``collision``: of the kernel's private
    names, ``mc`` imports only the scratch set it sizes and the walk it
    hands rows to, and it imports no module to reach the others through."""
    tree = ast.parse(pathlib.Path(mc.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [alias.name for node in imports if isinstance(node, ast.ImportFrom)
             and node.level == 1 and node.module == "collision" for alias in node.names]
    assert "_tally_point" in names
    assert {name for name in names if name.startswith("_")} <= {"_Scratch", "_tally_point"}
    assert not [alias.name for node in imports for alias in node.names
                if alias.name.split(".")[-1] == "collision"]


def _tally_kernel_rows(monkeypatch):
    """Patch both counters in ``collision``, where they are called: the
    batch counter, on [rows, qubits] frequencies, which no sweep calls (the
    spacings are scored at zero scatter from the kernel's own masks), and
    the unchecked block counter, on the member-major [qubits, rows] blocks
    of a point's walk; return the list that collects the row count of every
    call."""
    rows = []

    def spy(module, name, row_axis):
        kernel = getattr(module, name)

        def counted(index, f01_mhz, *args, **kwargs):
            rows.append(np.shape(f01_mhz)[row_axis] if np.ndim(f01_mhz) == 2 else 1)
            return kernel(index, f01_mhz, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    spy(collision, "count_collisions_batch", 0)
    spy(collision, "_tally", 1)
    return rows


def _spy_deviate_draws(monkeypatch):
    """Patch ``mc._draw``, which draws every deviate row, checked or not;
    return the list that collects the (first trial, rows) of every draw."""
    draws, draw = [], mc._draw

    def spy(rng, first_trial, n_trials, n_qubits):
        draws.append((first_trial, n_trials))
        return draw(rng, first_trial, n_trials, n_qubits)
    monkeypatch.setattr(mc, "_draw", spy)
    return draws


def test_sweeps_draw_deviate_rows_only_when_a_point_reads_them(hh3, nine_lattices, monkeypatch):
    """A sweep holds the rows that two or more of its points read, drawn in
    one call, and the one point planned past them draws the rest itself,
    each row once: a default heavy-hexagon d=11 sweep never boosts, so it
    draws 1000 rows once; the default square d=7 sweep boosts only at 8 MHz,
    so it holds 1000 rows and that point draws rows 1000-3999; a sweep with
    no sigma > 0 point draws nothing."""
    draws = _spy_deviate_draws(monkeypatch)
    pts = mc.sweep_sigma(lattice.build_lattice("heavy_hexagon", 11), lattice.FrequencyPattern(),
                         master_seed=1)
    assert draws == [(0, 1000)] and {p.trials for p in pts} == {1000}
    draws.clear()
    pts = mc.sweep_sigma(nine_lattices[("square", 7)], lattice.FrequencyPattern(), master_seed=1)
    assert [p.sigma_mhz for p in pts if p.trials == 4000] == [8.0]
    assert draws[0] == (0, 1000) and len(draws) > 2
    assert sorted(t for first, n in draws[1:] for t in range(first, first + n)) == \
        list(range(1000, 4000))
    draws.clear()
    assert mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (0.0,), master_seed=1)[0].trials == 1000
    assert draws == []


@pytest.mark.parametrize("planned, bands", [
    ([], []), ([(4000, 97)], []), ([(1000, 97), (4000, 97)], [(1000, 97)]),
    ([(1000, 97)] * 24 + [(4000, 97)], [(1000, 97)]),
    ([(4000, 17), (1000, 17), (4000, 17)], [(4000, 17)]),
    # table2 under the default policy: rows 1000-3999 are read by the as-fabricated
    # d=3 points and the square d=5 tuned point, so they are held 49 wide
    ([(1000, 145), (1000, 17), (4000, 17), (4000, 49), (1000, 49), (1000, 25), (4000, 25)],
     [(1000, 145), (4000, 49)]),
    ([(1000, 145), (4000, 49), (1000, 17)], [(1000, 145)]),
    ([(3, 9), (5, 9), (5, 4), (9, 2)], [(5, 9)]),
    ([(3, 9), (5, 4), (5, 4), (9, 2)], [(3, 9), (5, 4)]),
], ids=["none", "one", "boost", "square-7", "two-boosts", "table2", "one-wide-boost",
        "same-width", "narrower-band"])
def test_shared_rows_are_the_rows_two_points_read(planned, bands):
    """Each point reads its leading rows and columns: a row is held while two
    or more points are planned past it, as wide as the widest of them, and
    on one lattice that is the second-largest count."""
    assert mc.shared_rows(planned) == bands


@pytest.mark.parametrize("sigmas, spacings", [
    ((0.0, 14.0, 150.0), mc.DEFAULT_SPACING_GRID_MHZ),
    # 11 collisions at zero scatter, and 4000 exp(-11) = 0.07 clears the boost
    # gate, so that point boosts too
    ((0.0, 150.0), (105.0,)),
])
def test_sweep_counts_each_deviate_row_once(hh3, monkeypatch, sigmas, spacings):
    """Kernel rows = the sigma > 0 points' reported trials and one row per
    sigma = 0 point: the sigma = 0 spacing scores call neither counter.  A
    boosted point is the plain run_point at the boost count."""
    rows = _tally_kernel_rows(monkeypatch)
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigmas, master_seed=7,
                         spacing_grid=spacings)
    boosted = [p for p in pts if p.trials == 4000]
    assert boosted
    zero = [p for p in pts if p.sigma_mhz == 0.0]
    assert zero
    assert sum(rows) == sum(p.trials for p in pts if p.sigma_mhz > 0.0) + len(zero)
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
    """A point whose boost would expect fewer than BOOST_MIN_SURVIVORS
    survivors is planned at the base trials: only its rows reach the
    kernel."""
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
    """A point whose model yield is low and whose boost expects enough
    survivors is planned at the boost count, counts only those rows, and
    equals run_point there."""
    sigma = 150.0
    rows = _tally_kernel_rows(monkeypatch)
    (pt,) = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (sigma,), master_seed=7)
    assert sum(rows) == pt.trials == 4000
    monkeypatch.undo()
    model_yield = math.exp(-_expected_total(hh3, pt.spacing_mhz, sigma))
    assert model_yield < mc.LOW_YIELD_THRESHOLDS[3]
    assert 4000 * model_yield >= mc.BOOST_MIN_SURVIVORS
    direct = mc.run_point(hh3, lattice.FrequencyPattern(spacing_mhz=pt.spacing_mhz), sigma,
                          4000, 7)
    assert dataclasses.astuple(pt) == dataclasses.astuple(direct)


def test_sweep_enters_each_sigma_through_run_point_or_optimize_spacing(hh3, monkeypatch):
    """Per-sigma timings mark a point's start at its first run_point or
    optimize_spacing call.  The sweep plans its whole sigma x spacing grid in
    one expected_counts call before the first point, as set-up, then enters
    each sigma once, through run_point, in grid order."""
    events = []

    def recorded(kind, fn):
        def call(*args, **kwargs):
            events.append((kind, args[2]))
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(mc, "run_point", recorded("enter", mc.run_point))
    monkeypatch.setattr(mc, "optimize_spacing", recorded("search", mc.optimize_spacing))
    monkeypatch.setattr(mc, "expected_counts", recorded("score", mc.expected_counts))
    sigmas = (0.0, 14.0, 150.0)
    mc.sweep_sigma(hh3, lattice.FrequencyPattern(), sigmas, master_seed=7)
    assert events == [("score", list(sigmas))] + [("enter", s) for s in sigmas]


@pytest.mark.parametrize("family, distance, sigma", [("heavy_square", 5, 14.0),
                                                     ("heavy_hexagon", 3, 30.0)])
def test_run_point_counts_rows_split_across_blocks_once(nine_lattices, monkeypatch,
                                                        family, distance, sigma):
    """Two kernel blocks and a row, counted on rows of its own and on shared
    rows longer and wider than it reads: each point's means are the batch
    counter's column sums and all-zero rows over the same rows, and no
    kernel call sees more than one block."""
    lat = nine_lattices[(family, distance)]
    idx = collision.build_index(lat)
    block = collision.block_rows(idx)
    n, pattern = 2 * block + 1, lattice.FrequencyPattern()
    counts = collision.count_collisions_batch(
        idx, lattice.set_points_mhz(lat, pattern) + sigma * mc.gaussian_deviates(8, n, lat.n_qubits))
    survivors = np.count_nonzero(counts.sum(axis=1) == 0)
    assert 0 < survivors < n

    rows = _tally_kernel_rows(monkeypatch)
    plain = mc.run_point(lat, pattern, sigma, n, 8)
    assert max(rows) <= block and sum(rows) == n
    z = mc.DeviateRows(8, [(n + block // 2, lat.n_qubits + 3)])
    del rows[:]
    shared = mc.run_point(lat, pattern, sigma, n, 8, deviates=z)
    assert max(rows) <= block and sum(rows) == n
    for pt in (plain, shared):
        assert [m * n for m in pt.per_type_means] == counts.sum(axis=0).tolist()
        assert pt.yield_fraction * n == survivors


@pytest.mark.parametrize("family, distance", [("square", 7), ("heavy_hexagon", 11)])
def test_a_point_holds_its_deviate_rows_and_one_block(family, distance):
    """A 4000-trial point's traced peak (numpy reports its allocations to
    tracemalloc) exceeds the 1000-trial point's by no more than the 3000
    extra deviate rows and one block of frequencies: the rest of its working
    set does not grow with the trials."""
    lat = lattice.build_lattice(family, distance)
    idx = collision.build_index(lat)
    pattern = lattice.FrequencyPattern()

    def peak(trials):
        tracemalloc.start()
        try:
            mc.run_point(lat, pattern, 14.0, trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(10)  # first-call allocations
    row_bytes = lat.n_qubits * np.dtype(float).itemsize
    assert peak(4000) - peak(1000) <= 3000 * row_bytes + collision.block_rows(idx) * row_bytes


def test_a_lone_point_holds_one_block_of_deviate_rows():
    """A lone 4000-trial heavy-hexagon d=11 point draws its rows one kernel
    block at a time, so its traced peak stays well below its [4000, 311]
    deviate matrix of 9.95 MB."""
    lat = lattice.build_lattice("heavy_hexagon", 11)
    mc.run_point(lat, lattice.FrequencyPattern(), 14.0, 10, 1)  # first-call allocations
    tracemalloc.start()
    try:
        mc.run_point(lat, lattice.FrequencyPattern(), 14.0, 4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4000 * lat.n_qubits * np.dtype(float).itemsize > 9.9e6
    assert peak < 4e6


def test_table_rows_hold_their_bands_and_one_scratch_set(nine_lattices):
    """One table_rows call over the nine lattices holds its shared deviate
    bands and one set of kernel buffers, sized by cells: each buffer holds
    the largest (members x rows) or (qubits x rows) block of any lattice,
    not the most members of any lattice times the most rows of any (which
    peaked at 18 MB here).  Its traced peak stays within the bands plus a scratch set whose
    every buffer holds _BLOCK_ELEMENTS cells."""
    lats = list(nine_lattices.values())
    pattern, policy = lattice.FrequencyPattern(), mc.AdaptiveTrials()
    plans = [plan for pair in mc.plan_table(lats, pattern, policy) for plan in pair]
    bands = mc.shared_rows([(p.trials, p.lattice.n_qubits) for p in plans if p.sigma_mhz > 0.0])
    held = sum((stop - first) * width for (stop, width), first in
               zip(bands, [0] + [stop for stop, _ in bands])) * np.dtype(float).itemsize
    scratch = collision._BLOCK_ELEMENTS * sum(np.dtype(dtype).itemsize
                                              for _, _, dtype in collision._Scratch.BUFFERS)
    mc.table_rows(lats, pattern, policy, 1)  # first-call allocations
    tracemalloc.start()
    try:
        mc.table_rows(lats, pattern, policy, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bands == [(1000, 145), (4000, 49)]
    assert peak <= held + scratch


def points_sha256(points):
    """SHA-256 over every field of every SweepPoint, floats at full precision."""
    h = hashlib.sha256()
    for p in points:
        h.update(repr(dataclasses.astuple(p)).encode())
    return h.hexdigest()


def test_sweep_points_are_pinned_bit_for_bit(hh3, nine_lattices):
    """Digests of the default heavy-hexagon d=3 and square d=7 sweeps and of
    the square d=5 summary-table row (its tuned point boosts) at seed 1: a
    speed-up must leave every field of every point unchanged."""
    sweep = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), master_seed=1)
    assert points_sha256(sweep) == \
        "c7327264b48ccb42e1725df0501fc95db105cd02132db7272940413498a49fdf"
    sweep = mc.sweep_sigma(nine_lattices[("square", 7)], lattice.FrequencyPattern(), master_seed=1)
    assert points_sha256(sweep) == \
        "d604ffabf1bd94a1d061ba0355a9277b8a78bb1635593e08adf0ef6e2da8d641"
    (row,) = mc.table_rows([lattice.build_lattice("square", 5)], lattice.FrequencyPattern(),
                           mc.AdaptiveTrials(), 1)
    assert [p.trials for p in row] == [4000, 1000]
    assert points_sha256(row) == \
        "96174221f71f713c0f45e7d12d30446a7774928fd70f7f5471362015cb9f8073"


def test_table_rows_on_one_shared_deviate_matrix(nine_lattices, monkeypatch):
    """One set of held rows serves every lattice: each point reads its
    lattice's leading columns, which the sampling contract makes that
    lattice's own deviates, so every field matches the row measured alone
    and the point drawn alone.  The rows two or more points read are drawn
    once, first: all nine read rows 0-199 and the as-fabricated heavy-square
    and heavy-hexagon d=3 points, boosted, read rows 200-399, which are
    held as wide as the wider.  Without heavy-hexagon d=3 the heavy-square
    point reads rows 200-399 alone and draws them itself."""
    policy = mc.AdaptiveTrials(base=200, boost=400)
    draws, draw, holds, hold = [], mc._draw, [], mc.DeviateRows

    def spy(rng, first_trial, n_trials, n_qubits):
        draws.append((first_trial, n_trials, n_qubits))
        return draw(rng, first_trial, n_trials, n_qubits)
    for drop, held in ((None, [(0, 200, 145), (200, 200, 25)]),
                       (("heavy_hexagon", 3), [(0, 200, 145)])):
        lats = [lat for key, lat in nine_lattices.items() if key != drop]
        draws.clear()
        holds.clear()
        monkeypatch.setattr(mc, "_draw", spy)
        monkeypatch.setattr(mc, "DeviateRows",
                            lambda *args: holds.append(hold(*args)) or holds[-1])
        rows = mc.table_rows(lats, lattice.FrequencyPattern(), policy, 11)
        monkeypatch.undo()
        (z,) = holds
        assert draws[:len(held)] == held and [b.shape for b in z.bands] == [d[1:] for d in held]
        assert sorted(t for first, n, _ in draws for t in range(first, first + n)) == \
            list(range(400))
        for lat, row in zip(lats, rows):
            (alone,) = mc.table_rows([lat], lattice.FrequencyPattern(), policy, 11)
            assert [dataclasses.astuple(p) for p in row] == [dataclasses.astuple(p) for p in alone]
            for p in row:
                assert p == mc.run_point(lat, lattice.FrequencyPattern(spacing_mhz=p.spacing_mhz),
                                         p.sigma_mhz, p.trials, 11)


def test_sweep_point_floats_are_python_floats(hh3):
    """``repr`` of a point feeds every pinned digest, and a numpy float's repr
    differs from a float's: every float field, each per-type mean included,
    must be a Python float (at zero scatter, at a boost and in a table row),
    numpy-integer trial counts included."""
    pts = mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (0.0, 14.0, 150.0), master_seed=7)
    pts += mc.table_rows([hh3], lattice.FrequencyPattern(),
                         mc.AdaptiveTrials(base=50, boost=80), 7)[0]
    pts += mc.sweep_sigma(hh3, lattice.FrequencyPattern(), (0.0, 150.0),
                          mc.AdaptiveTrials(base=np.int64(50), boost=np.int32(80)), 7)
    assert any(p.trials == 4000 for p in pts)
    for p in pts:
        floats = (p.sigma_mhz, p.spacing_mhz, p.yield_fraction, p.mean_collisions,
                  *p.per_type_means)
        assert len(p.per_type_means) == 7
        assert all(type(x) is float for x in floats), p
        assert all(type(x) is int for x in (p.distance, p.n_qubits, p.trials, p.master_seed))
