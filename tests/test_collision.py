"""Window semantics per type, brute-force parity, and the expected counts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from freqcrowd import collision, lattice, mc
from freqcrowd.errors import InputError, ParameterError
from reference import expected_mean_collisions, naive_counts, spectator_triples


def pair_lattice():
    """One directed coupling: node 0 drives node 1."""
    nodes = (
        lattice.QubitNode(0, 0.0, 0.0, "data", "control", 1),
        lattice.QubitNode(1, 1.0, 0.0, "data", "target", 2),
    )
    return lattice.Lattice(family="pair", distance=3, nodes=nodes, edges=((0, 1),))


def chain_lattice(edges):
    n = 1 + max(max(e) for e in edges)
    nodes = tuple(lattice.QubitNode(i, float(i), 0.0, "data", "target", 1) for i in range(n))
    return lattice.Lattice(family="chain", distance=3, nodes=nodes, edges=tuple(edges))


def counts_for(lat, freqs, rules=collision.DEFAULT_RULES):
    return collision.count_collisions(lat, freqs, rules).per_type


class TestPairWindows:
    """Each window is open (strict) except the gate-region boundary."""

    def test_degenerate_neighbours(self):
        lat = pair_lattice()
        assert counts_for(lat, [5000.0, 5016.9])[1] == 1
        assert counts_for(lat, [5000.0, 5017.0])[1] == 0
        assert counts_for(lat, [5000.0, 4983.1])[1] == 1

    def test_two_photon_half_resonance(self):
        lat = pair_lattice()
        # f02(control)/2 sits anharmonicity/2 = 165 MHz below the control
        assert counts_for(lat, [5165.0, 5000.0])[2] == 1
        assert counts_for(lat, [5163.1, 5000.0])[2] == 1
        assert counts_for(lat, [5163.0, 5000.0])[2] == 0
        assert counts_for(lat, [5167.0, 5000.0])[2] == 0

    def test_excited_transition_overlap_counts_once(self):
        lat = pair_lattice()
        assert counts_for(lat, [5000.0, 5330.0])[3] == 1   # control on target's f12
        assert counts_for(lat, [5000.0, 4670.0])[3] == 1   # target on control's f12
        assert counts_for(lat, [5000.0, 5300.0])[3] == 0   # boundary excluded
        assert counts_for(lat, [5000.0, 5300.1])[3] == 1

    def test_gate_region_lower_bound_inclusive(self):
        lat = pair_lattice()
        # target at or below the control's 1->2 transition: no usable gate
        assert counts_for(lat, [5000.0, 4670.0])[4] == 1
        assert counts_for(lat, [5000.0, 4670.1])[4] == 0
        assert counts_for(lat, [5000.0, 4500.0])[4] == 1
        # the rule is one-sided: a target above the control is no collision
        assert counts_for(lat, [5000.0, 5010.0])[4] == 0


class TestTripleWindows:
    def test_spectator_degeneracy(self):
        lat = chain_lattice([(1, 0), (1, 2)])
        assert counts_for(lat, [5000.0, 5070.0, 5016.0])[5] == 1
        assert counts_for(lat, [5000.0, 5070.0, 5017.0])[5] == 0

    def test_spectator_excited_overlap(self):
        lat = chain_lattice([(1, 0), (1, 2)])
        assert counts_for(lat, [5000.0, 5200.0, 5330.0])[6] == 1
        assert counts_for(lat, [5000.0, 5200.0, 5355.0])[6] == 0
        assert counts_for(lat, [5330.0, 5200.0, 5000.0])[6] == 1

    def test_control_two_photon_against_spectator_sum(self):
        lat = chain_lattice([(1, 0), (1, 2)])
        # f02 of the middle control = 2*5100 - 330 = 9870
        assert counts_for(lat, [4900.0, 5100.0, 4970.0])[7] == 1
        assert counts_for(lat, [4900.0, 5100.0, 4987.0])[7] == 0
        assert counts_for(lat, [4900.0, 5100.0, 4986.9])[7] == 1

    def test_triple_requires_middle_to_drive_someone(self):
        driven = chain_lattice([(0, 1), (1, 2)])     # middle drives node 2
        undriven = chain_lattice([(0, 1), (2, 1)])   # middle drives nobody
        degenerate = [5000.0, 5070.0, 5000.0]
        assert counts_for(driven, degenerate)[5] == 1
        assert counts_for(undriven, degenerate)[5] == 0

    def test_double_sided_overlap_counts_once(self):
        # with a small |anharmonicity| both type-6 sub-windows can hold at once
        lat = chain_lattice([(1, 0), (1, 2)])
        soft = collision.CollisionRules(anharmonicity_mhz=-20.0)
        f = [5000.0, 5070.0, 5000.0]   # |fi - fk -+ 20| = 20 < 25 both ways
        assert counts_for(lat, f, soft)[6] == 1


def test_report_totals_and_instances(hh3):
    freqs = lattice.set_points_mhz(hh3, lattice.FrequencyPattern(spacing_mhz=10.0))
    report = collision.count_collisions(hh3, freqs, collect=True)
    assert report.total == sum(report.per_type.values())
    assert len(report.instances) == report.total
    for inst in report.instances:
        assert inst[0] in collision.TYPE_IDS


def reference_instances(lat, f):
    """Offending edges and triples, each found by running the naive counter
    on that edge alone or on the triple's two edges alone."""
    found = set()
    for c, t in lat.edges:
        counts = naive_counts(lat.n_qubits, [(c, t)], f)
        found |= {(typ, c, t) for typ in (1, 2, 3, 4) if counts[typ]}
    for i, j, k in spectator_triples(lat.n_qubits, lat.edges):
        pair = [e for e in lat.edges if set(e) in ({i, j}, {j, k})]
        counts = naive_counts(lat.n_qubits, pair, f)
        found |= {(typ, i, j, k) for typ in (5, 6, 7) if counts[typ]}
    return found


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_listed_instances_are_the_offending_members(nine_lattices, family):
    lat = nine_lattices[(family, 3)]
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=45.0))
    z = mc.gaussian_deviates(17, 20, lat.n_qubits)
    for t in range(20):
        f = sp + 60.0 * z[t]
        instances = collision.count_collisions(lat, f, collect=True).instances
        assert len(set(instances)) == len(instances)
        assert set(instances) == reference_instances(lat, f)
        assert [inst[0] for inst in instances] == sorted(inst[0] for inst in instances)


def test_frequency_vector_length_checked(hh3):
    with pytest.raises(InputError):
        collision.count_collisions(hh3, [5000.0] * 5)


def test_rules_validation():
    for bad in (100.0, 0.0, float("nan"), float("-inf")):
        with pytest.raises(ParameterError):
            collision.CollisionRules(anharmonicity_mhz=bad)
    assert collision.DEFAULT_RULES.anharmonicity_mhz == collision.DEFAULT_ANHARMONICITY_MHZ


@pytest.mark.parametrize("family", lattice.FAMILIES)
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_designed_patterns_are_collision_free(nine_lattices, family, distance):
    lat = nine_lattices[(family, distance)]
    freqs = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=70.0))
    assert collision.count_collisions(lat, freqs).total == 0


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_brute_force_parity_on_gaussian_draws(nine_lattices, family):
    """The vectorised counter must agree exactly with the naive reference."""
    lat = nine_lattices[(family, 3)]
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=45.0))
    z = mc.gaussian_deviates(321, 60, lat.n_qubits)
    for t in range(60):
        f = sp + 80.0 * z[t]
        fast = collision.count_collisions(lat, f).per_type
        slow = naive_counts(lat.n_qubits, lat.edges, f)
        assert fast == slow


@pytest.mark.parametrize("anharmonicity", [-330.0, -30.0, -20.0])
@pytest.mark.parametrize("family", ["square", "heavy_hexagon"])
def test_batch_parity_at_other_anharmonicities(nine_lattices, family, anharmonicity):
    """The batched counter agrees with the reference at small |a| too, where
    the two type-3 (and type-6) windows overlap: on Gaussian draws, and on a
    half-MHz grid whose pair and triple differences land on window edges."""
    lat = nine_lattices[(family, 3)]
    rules = collision.CollisionRules(anharmonicity)
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=40.0))
    gaussian = sp + 60.0 * mc.gaussian_deviates(17, 80, lat.n_qubits)
    span = int(4 * (abs(anharmonicity) + 30.0))  # half-MHz steps past the widest window
    grid = 5000.0 + 0.5 * np.random.default_rng(17).integers(0, span, (120, lat.n_qubits))
    idx = collision.build_index(lat)
    fast = collision.count_collisions_batch(idx, np.concatenate([gaussian, grid]), rules)
    for f, row in zip(np.concatenate([gaussian, grid]), fast):
        slow = naive_counts(lat.n_qubits, lat.edges, f, anharmonicity=anharmonicity)
        assert row.tolist() == [slow[t] for t in collision.TYPE_IDS]
    # the grid does put pairs and spectators on the type-3 and type-6 window edges
    d = np.abs(grid[:, idx.edge_control] - grid[:, idx.edge_target])
    dik = np.abs(grid[:, idx.tri_i] - grid[:, idx.tri_k])
    assert np.any(np.abs(d + anharmonicity) == collision.NN_EXCITED_MHZ)
    assert np.any(np.abs(dik + anharmonicity) == collision.SPECTATOR_EXCITED_MHZ)


@pytest.mark.parametrize("sigma", [20.0, 60.0])
def test_monte_carlo_mean_matches_analytic_expectation(nine_lattices, sigma):
    """E[count] is a sum of Gaussian window probabilities; the MC mean must
    land within a few standard errors of it."""
    lat = nine_lattices[("heavy_hexagon", 3)]
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=70.0))
    exact = expected_mean_collisions(sp, sigma, lat.edges,
                                     lattice.next_nearest_triples(lat))
    trials = 20000
    idx = collision.build_index(lat)
    z = mc.gaussian_deviates(99, trials, lat.n_qubits)
    counts = collision.count_collisions_batch(idx, sp[None, :] + sigma * z).sum(axis=1)
    se = counts.std(ddof=1) / np.sqrt(trials)
    assert abs(counts.mean() - exact) < 4.0 * se


def spacing_stack(lat, spacings):
    return np.stack([lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=s))
                     for s in spacings])


@pytest.mark.parametrize("sigma", [8.0, 14.0, 40.0, 132.3])
def test_expected_counts_match_reference_oracle(nine_lattices, sigma):
    """Stacked spacings, one call per sigma: every row's total equals the
    loop-and-erf oracle on all nine lattices."""
    spacings = (30.0, 45.0, 70.0, 150.0)
    for lat in nine_lattices.values():
        sp = spacing_stack(lat, spacings)
        got = collision.expected_counts(collision.build_index(lat), sp, sigma)
        assert got.shape == (len(spacings), 7)
        triples = lattice.next_nearest_triples(lat)
        for row, per_type in zip(sp, got):
            exact = expected_mean_collisions(row, sigma, lat.edges, triples)
            assert per_type.sum() == pytest.approx(exact, rel=1e-9)


def assert_matches_monte_carlo(lat, spacing, sigma, rules, trials=20000):
    """Each type's MC mean over ``trials`` draws lies within 5 standard
    errors of its expected count."""
    idx = collision.build_index(lat)
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=spacing))
    expected = collision.expected_counts(idx, sp, sigma, rules)
    z = mc.gaussian_deviates(31, trials, lat.n_qubits)
    counts = collision.count_collisions_batch(idx, sp + sigma * z, rules)
    se = counts.std(axis=0, ddof=1) / np.sqrt(trials)
    assert (se > 0).all()   # every type occurs, so every z-score is informative
    assert np.all(np.abs(counts.mean(axis=0) - expected) <= 5.0 * se)
    return expected, se


@pytest.mark.parametrize("family, spacing", [("heavy_hexagon", 70.0), ("square", 45.0)])
def test_expected_counts_match_monte_carlo_per_type(nine_lattices, family, spacing):
    assert_matches_monte_carlo(nine_lattices[(family, 3)], spacing, 60.0, collision.DEFAULT_RULES)


def test_expected_counts_overlapping_windows(nine_lattices):
    """|a| = 20 MHz is below the type-3 and type-6 widths, so their two
    windows overlap and the expectation must take their union; the oracle
    assumes disjoint windows and overstates both types here."""
    lat = nine_lattices[("square", 3)]
    soft = collision.CollisionRules(anharmonicity_mhz=-20.0)
    expected, se = assert_matches_monte_carlo(lat, 30.0, 15.0, soft)
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=30.0))
    disjoint = expected_mean_collisions(sp, 15.0, lat.edges, lattice.next_nearest_triples(lat),
                                        anharmonicity=-20.0)
    assert disjoint - expected.sum() > 50.0 * se.max()


@pytest.mark.parametrize("family", lattice.FAMILIES)
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_expected_counts_at_zero_scatter_are_exact(nine_lattices, family, distance):
    """At 17 MHz neighbours sit on the open type-1 edge (no collision); at
    165 MHz some control-target pairs sit on the closed type-4 edge (one)."""
    lat = nine_lattices[(family, distance)]
    sp = spacing_stack(lat, (5.0, 17.0, 30.0, 45.0, 70.0, 165.0))
    got = collision.expected_counts(collision.build_index(lat), sp.reshape(6, 1, -1), 0.0)
    assert got.shape == (6, 1, 7)
    for row, per_type in zip(sp, got[:, 0]):
        slow = naive_counts(lat.n_qubits, lat.edges, row)
        assert per_type.tolist() == [float(slow[t]) for t in collision.TYPE_IDS]


def test_expected_counts_keep_small_probabilities():
    """A window 100 MHz above the mean is as unlikely as one 100 MHz below
    it; both tails must keep their ~1e-31 probability instead of rounding
    one of them to 1 - 1 = 0."""
    idx = collision.build_index(pair_lattice())
    below = collision.expected_counts(idx, [5000.0, 5100.0], 5.0)[0]
    above = collision.expected_counts(idx, [5100.0, 5000.0], 5.0)[0]
    assert 0.0 < below < 1e-25
    assert below == pytest.approx(above, rel=1e-9)


def test_expected_counts_validation(hh3):
    idx = collision.build_index(hh3)
    sp = lattice.set_points_mhz(hh3, lattice.FrequencyPattern())
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="sigma must be >= 0"):
            collision.expected_counts(idx, sp, bad)
    with pytest.raises(InputError):
        collision.expected_counts(idx, sp[:5], 14.0)


def test_ndtr_matches_scipy():
    """``scipy.special.ndtr`` is the oracle here only.  Below x = -37.7 it
    underflows to 0 while ``collision.ndtr`` keeps subnormal values, so the
    relative check stops at -37.5."""
    x = np.linspace(-37.5, 38.0, 100_001)
    assert np.max(np.abs(collision.ndtr(x) - ndtr(x)) / ndtr(x)) <= 1e-13
    assert collision.ndtr(0.0) == 0.5
    assert collision.ndtr(0.0).dtype == float
    assert collision.ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
    tail = collision.ndtr(np.array([-37.8, -38.0]))
    assert (ndtr(np.array([-37.8, -38.0])) == 0.0).all() and (tail > 0.0).all()


def test_ndtr_is_the_scalar_formula_bit_for_bit():
    """Each element is ``0.5 * math.erfc(-x * sqrt(0.5))`` exactly, infinities,
    a 0-d input and the subnormal lower tail included."""
    x = np.concatenate([np.linspace(-40.0, 40.0, 20_001), np.linspace(-38.5, -38.3, 2001),
                        [-np.inf, np.inf, -0.0, 5e-324, -1e-300]])
    want = np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in x.tolist()])
    assert np.array_equal(collision.ndtr(x).view(np.int64), want.view(np.int64))
    assert 0.0 < collision.ndtr(-38.4) < np.finfo(float).tiny
    grid = x[:12].reshape(3, 4)
    assert np.array_equal(collision.ndtr(grid), want[:12].reshape(3, 4))
    zero_d = collision.ndtr(np.float64(-1.5))
    assert zero_d.shape == () and zero_d == 0.5 * math.erfc(1.5 * math.sqrt(0.5))


def test_sigma_vector_equals_stacked_scalar_calls(nine_lattices):
    """One call over the default sigma grid (zero included) equals the
    scalar calls stacked, bit for bit, on every lattice's spacing stack."""
    sigmas = list(mc.DEFAULT_SIGMA_GRID_MHZ)
    for lat in nine_lattices.values():
        idx = collision.build_index(lat)
        sp = spacing_stack(lat, mc.DEFAULT_SPACING_GRID_MHZ)
        got = collision.expected_counts(idx, sp, sigmas)
        want = np.stack([collision.expected_counts(idx, sp, s) for s in sigmas])
        assert got.shape == (len(sigmas), len(mc.DEFAULT_SPACING_GRID_MHZ), 7)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (lat.family, lat.distance)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_sigma_vector_rejects_any_bad_sigma(hh3, monkeypatch, bad):
    """A bad sigma anywhere in the vector is refused before any scoring."""
    idx = collision.build_index(hh3)
    sp = lattice.set_points_mhz(hh3, lattice.FrequencyPattern())
    monkeypatch.setattr(collision, "count_collisions_batch", None)
    for sigmas in ([bad, 14.0], [0.0, 14.0, bad]):
        with pytest.raises(ParameterError, match="sigma must be >= 0"):
            collision.expected_counts(idx, sp, sigmas)


def test_sigma_vector_shapes(hh3):
    idx = collision.build_index(hh3)
    sp = spacing_stack(hh3, (30.0, 65.0, 150.0))
    assert collision.expected_counts(idx, sp, []).shape == (0, 3, 7)
    assert collision.expected_counts(idx, sp[0], np.array([])).shape == (0, 7)
    assert collision.expected_counts(idx, sp, (0.0,)).shape == (1, 3, 7)
    with pytest.raises(InputError, match="1-d"):
        collision.expected_counts(idx, sp, [[14.0]])


def member_expected_counts(lat, set_points, sigma, anharmonicity):
    """Each type's expected count, every member's window probabilities taken
    separately on ``scipy.special.ndtr`` in the tail nearer the window, as
    spacings were scored before ``collision`` had its own normal CDF."""
    e = np.array(lat.edges).reshape(-1, 2)
    t = np.array(lattice.next_nearest_triples(lat)).reshape(-1, 3)
    a = anharmonicity
    s2 = sigma * np.sqrt(2.0)

    def between(x, sd, lo, hi):
        u, v = (lo - x) / sd, (hi - x) / sd
        return np.where(u > 0.0, ndtr(-u) - ndtr(-v), ndtr(v) - ndtr(u))

    def either(x, sd, center, width):
        p = between(x, sd, center - width, center + width) + \
            between(x, sd, -center - width, -center + width)
        overlap = width - abs(center)
        return p - between(x, sd, -overlap, overlap) if overlap > 0.0 else p

    d = set_points[..., e[:, 0]] - set_points[..., e[:, 1]]
    dik = set_points[..., t[:, 0]] - set_points[..., t[:, 2]]
    m7 = 2.0 * set_points[..., t[:, 1]] + a - set_points[..., t[:, 0]] - set_points[..., t[:, 2]]
    per_member = (between(d, s2, -17.0, 17.0), between(d, s2, (-4.0 - a) / 2.0, (4.0 - a) / 2.0),
                  either(d, s2, a, 30.0), ndtr((d + a) / s2), between(dik, s2, -17.0, 17.0),
                  either(dik, s2, a, 25.0), between(m7, sigma * np.sqrt(6.0), -17.0, 17.0))
    return np.stack([p.sum(axis=-1) for p in per_member], axis=-1)


@pytest.mark.parametrize("anharmonicity", [-330.0, -200.0, -30.0])
def test_spacing_choices_match_member_by_member_scoring(nine_lattices, anharmonicity):
    """Scoring each distinct difference once on ``collision.ndtr`` plans the
    spacing that per-member ``scipy.special.ndtr`` scoring picks, at every
    nonzero default sigma (zero scatter counts collisions, with no CDF)."""
    rules = collision.CollisionRules(anharmonicity)
    grid = mc.DEFAULT_SPACING_GRID_MHZ
    sigmas = mc.DEFAULT_SIGMA_GRID_MHZ[1:]
    for lat in nine_lattices.values():
        sp = spacing_stack(lat, grid)
        plans = mc.plan_sweep(lat, lattice.FrequencyPattern(), sigmas, rules=rules)
        for sigma, plan in zip(sigmas, plans, strict=True):
            totals = member_expected_counts(lat, sp, sigma, anharmonicity).sum(axis=-1)
            assert plan.pattern.spacing_mhz == grid[int(np.argmin(totals))], \
                (lat.family, lat.distance, sigma)


@pytest.mark.parametrize("anharmonicity", [-330.0, -20.0])
def test_expected_counts_on_arbitrary_set_points(nine_lattices, anharmonicity):
    """Set points off any pattern share few differences, and still get each
    member's own probabilities."""
    lat = nine_lattices[("square", 5)]
    sp = 5000.0 + 150.0 * np.random.default_rng(3).standard_normal((4, lat.n_qubits))
    for sigma in (6.0, 14.0, 60.0):
        got = collision.expected_counts(collision.build_index(lat), sp, sigma,
                                        collision.CollisionRules(anharmonicity))
        want = member_expected_counts(lat, sp, sigma, anharmonicity)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("distance", [11, 19])
def test_large_heavy_hexagon_has_a_collision_free_grid_spacing(distance):
    """The sizes a direct check of the window extrapolation needs: at zero
    scatter the default spacing grid holds a spacing with no collision."""
    lat = lattice.build_lattice("heavy_hexagon", distance)
    grid = mc.DEFAULT_SPACING_GRID_MHZ
    totals = collision.expected_counts(collision.build_index(lat), spacing_stack(lat, grid),
                                       0.0).sum(axis=-1)
    clean = [s for s, total in zip(grid, totals) if total == 0.0]
    assert clean
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=clean[0]))
    assert sum(naive_counts(lat.n_qubits, lat.edges, sp).values()) == 0


def test_batch_blocks_match_row_by_row_counts(nine_lattices):
    """Two full row blocks plus a partial one count exactly as single rows
    do, and each block's first and last row match the naive reference."""
    lat = nine_lattices[("square", 7)]
    idx = collision.build_index(lat)
    rows = collision.block_rows(idx)
    n = 2 * rows + rows // 2
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=45.0))
    f = sp + 60.0 * mc.gaussian_deviates(23, n, lat.n_qubits)
    batch = collision.count_collisions_batch(idx, f)
    single = np.array([collision.count_collisions_batch(idx, row)[0] for row in f])
    assert np.array_equal(batch, single)
    for r in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1):
        slow = naive_counts(lat.n_qubits, lat.edges, f[r])
        assert batch[r].tolist() == [slow[t] for t in collision.TYPE_IDS]


def test_edgeless_lattice_counts_nothing():
    nodes = tuple(lattice.QubitNode(q, q, 0, "data", "target", 1) for q in range(3))
    idx = collision.build_index(lattice.Lattice("isolated", 3, nodes, ()))
    counts = collision.count_collisions_batch(idx, np.full((5, 3), 5000.0))
    assert counts.shape == (5, 7)
    assert not counts.any()


@settings(max_examples=25, deadline=None)
@given(offset=st.floats(-800.0, 800.0, allow_nan=False))
def test_absolute_frequency_invariance(offset):
    """Every window depends on frequency differences only, so shifting the
    whole spectrum moves nothing."""
    lat = lattice.build_lattice("heavy_hexagon", 3)
    sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern(spacing_mhz=40.0))
    f = sp + 25.0 * mc.gaussian_deviates(5, 1, lat.n_qubits)[0]
    base = collision.count_collisions(lat, f).per_type
    moved = collision.count_collisions(lat, f + offset).per_type
    assert base == moved


def _at_boundary(expr, nominal, target):
    """The float within 4 ulps of ``nominal`` where ``expr`` is exactly
    ``target``, with one ``nextafter`` either side of it."""
    below = above = nominal
    candidates = [nominal]
    for _ in range(4):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        candidates += [below, above]
    hit = next(x for x in candidates if expr(x) == target)
    return [math.nextafter(hit, -math.inf), hit, math.nextafter(hit, math.inf)]


# qubit 0 drives qubit 1, and (0, 1, 2) is a spectator triple
BOUNDARY_INDEX = collision.CollisionIndex(3, np.array([0]), np.array([1]),
                                          np.array([0]), np.array([1]), np.array([2]))


def boundary_rows(a):
    """Assignments of :data:`BOUNDARY_INDEX` that put d, d_ik and
    2 f_j + a - f_i - f_k exactly on every open window boundary and one ulp
    either side, then 2000 seeded rows within a few ulps of the type-7 one."""
    rows = []
    # row [x, 0, 0] makes d = d_ik = x
    for expr, nominal, target in [
        (lambda x: x, 17.0, 17.0), (lambda x: x, -17.0, -17.0),
        (lambda x: 2.0 * x + a, (4.0 - a) / 2.0, 4.0),
        (lambda x: 2.0 * x + a, (-4.0 - a) / 2.0, -4.0),
        (lambda x: x, -a, -a),
    ] + [(lambda x: abs(x) + a, sign * (w - a), w)
         for w in (30.0, -30.0, 25.0, -25.0) for sign in (1.0, -1.0) if w - a > 0.0]:
        rows += [[x, 0.0, 0.0] for x in _at_boundary(expr, nominal, target)]
    # row [x, y, 0] makes 2 f_j + a - f_i - f_k = 2y + a - x; at y = -a/2 it is -x
    for y in (-a / 2.0, 500.0):
        for w in (17.0, -17.0):
            rows += [[x, y, 0.0] for x in _at_boundary(lambda x: 2.0 * y + a - x - 0.0,
                                                        2.0 * y + a - w, w)]
    # and rows within a few ulps of it with every operand inexact, where a sum
    # associated another way lands on the other side of the boundary
    rng = np.random.default_rng(7)
    fi, fk = rng.uniform(-400.0, 400.0, (2, 2000))
    fj = (rng.choice([17.0, -17.0], 2000) - a + fi + fk) / 2.0
    rows += np.stack([fi, fj, fk], axis=1).tolist()
    return np.array(rows)


@pytest.mark.parametrize("a", [-330.0, -330.1, -0.3, -5e-324])
def test_kernel_equals_the_former_formulas_at_each_boundary(a):
    """d, d_ik and 2 f_j + a - f_i - f_k placed exactly on every open window
    boundary and one ulp either side: the kernel, which reuses its
    temporaries in place, tests |d + a/2| and builds 2 f + a per qubit,
    counts exactly what the formulas it replaced, written out here, count."""
    f = boundary_rows(a)
    d = f[:, 0] - f[:, 1]
    dik = f[:, 0] - f[:, 2]
    former = np.stack([
        np.abs(d) < 17.0,
        np.abs(2.0 * d + a) < 4.0,
        np.abs(np.abs(d) + a) < 30.0,
        d >= -a,
        np.abs(dik) < 17.0,
        np.abs(np.abs(dik) + a) < 25.0,
        np.abs(2.0 * f[:, 1] + a - f[:, 0] - f[:, 2]) < 17.0,
    ], axis=1)
    assert former.any(axis=0).all() and not former.all(axis=0).any()
    counts = collision.count_collisions_batch(BOUNDARY_INDEX, f, collision.CollisionRules(a))
    assert np.array_equal(counts, former.astype(np.int64))


def assert_tally_is_the_batch_summary(index, f, rules=collision.DEFAULT_RULES):
    counts = collision.count_collisions_batch(index, f, rules)
    totals, survivors = collision.tally_collisions(index, f, rules)
    assert totals.dtype == np.int64 and totals.shape == (7,)
    assert totals.tolist() == counts.sum(axis=0).tolist()
    assert type(survivors) is int and survivors == np.count_nonzero(counts.sum(axis=1) == 0)


@pytest.mark.parametrize("sigma", [2.0, 14.0, 132.3])
def test_tally_is_the_batch_counters_summary(nine_lattices, sigma):
    """The reducer's totals are the batch counter's column sums and its
    survivors the all-zero rows, on every lattice, for a batch of one row,
    one block less a row, one block, and one block and a row."""
    for lat in nine_lattices.values():
        idx = collision.build_index(lat)
        block = collision.block_rows(idx)
        sp = lattice.set_points_mhz(lat, lattice.FrequencyPattern())
        z = mc.gaussian_deviates(41, block + 1, lat.n_qubits)
        for n in (1, block - 1, block, block + 1):
            assert_tally_is_the_batch_summary(idx, sp + sigma * z[:n])


@pytest.mark.parametrize("a", [-330.0, -330.1, -0.3, -5e-324])
def test_tally_is_the_batch_counters_summary_at_each_boundary(a):
    f = boundary_rows(a)
    assert_tally_is_the_batch_summary(BOUNDARY_INDEX, f, collision.CollisionRules(a))
    # every row on its own: a row that collides once, or not at all
    for row in f[::97]:
        assert_tally_is_the_batch_summary(BOUNDARY_INDEX, row, collision.CollisionRules(a))


def test_tally_checks_its_batch_and_counts_an_edgeless_lattice(hh3):
    idx = collision.build_index(hh3)
    with pytest.raises(InputError, match="columns"):
        collision.tally_collisions(idx, np.zeros((2, hh3.n_qubits + 1)))
    with pytest.raises(InputError, match="finite"):
        collision.tally_collisions(idx, np.full((2, hh3.n_qubits), np.nan))
    nodes = tuple(lattice.QubitNode(q, q, 0, "data", "target", 1) for q in range(3))
    empty = collision.build_index(lattice.Lattice("isolated", 3, nodes, ()))
    totals, survivors = collision.tally_collisions(empty, np.full((5, 3), 5000.0))
    assert (totals.tolist(), survivors) == ([0] * 7, 5)
