"""Resistance-trimming simulation: population, controller, campaign stats."""
import math

import numpy as np
import pytest

from freqcrowd import tunesim
from freqcrowd.errors import InputError, ParameterError
from freqcrowd.physics import PowerLawFit, predict_frequency_ghz


def ideal_fit(residual_mhz=0.0):
    return PowerLawFit(prefactor=5.7046 * math.sqrt(7984.0), exponent=-0.5,
                       residual_std_mhz=residual_mhz, n_points=31, exponent_fixed=True)


class TestPopulation:
    def test_deterministic(self):
        a = tunesim.generate_population(50, master_seed=1)
        b = tunesim.generate_population(50, master_seed=1)
        c = tunesim.generate_population(50, master_seed=2)
        assert [r.r_ohm for r in a] == [r.r_ohm for r in b]
        assert [r.r_ohm for r in a] != [r.r_ohm for r in c]

    def test_lognormal_shape(self):
        recs = tunesim.generate_population(100000, master_seed=0)
        r = np.array([rec.r_ohm for rec in recs])
        assert np.median(r) == pytest.approx(7600.0, rel=0.01)
        assert np.std(np.log(r / 7600.0)) == pytest.approx(0.046, rel=0.01)

    def test_zero_scatter_degenerates(self):
        recs = tunesim.generate_population(5, fractional_sigma=0.0)
        assert all(rec.r_ohm == 7600.0 for rec in recs)

    def test_fresh_records(self):
        rec = tunesim.generate_population(3, master_seed=4)[1]
        assert rec.junction_id == 1
        assert rec.r_ohm == rec.r_initial_ohm
        assert math.isnan(rec.r_target_ohm)
        assert rec.status == tunesim.PENDING
        assert rec.steps == []

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": 3, "median_ohm": 0.0}, {"n": 3, "fractional_sigma": -0.1},
        {"n": 3, "median_ohm": math.inf}, {"n": 3, "median_ohm": math.nan},
        {"n": 3, "fractional_sigma": math.inf}, {"n": 3, "fractional_sigma": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError) as excinfo:
            tunesim.generate_population(**kwargs)
        assert excinfo.value.param == list(kwargs)[-1]  # the one parameter at fault

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range(self, seed):
        with pytest.raises(ParameterError, match=r"master seed must be in \[0, 2\*\*128\)"):
            tunesim.generate_population(5, master_seed=seed)
        with pytest.raises(ParameterError, match="master seed"):
            tunesim.junction_rng(seed, 0)


class TestTargetAssignment:
    def test_two_group_split_ranks_by_resistance(self):
        recs = tunesim.generate_population(31, master_seed=3)
        gid = tunesim.two_group_split(recs)
        assert sorted(np.bincount(gid)) == [15, 16]
        lo = [rec.r_initial_ohm for rec, g in zip(recs, gid) if g == 0]
        hi = [rec.r_initial_ohm for rec, g in zip(recs, gid) if g == 1]
        assert len(lo) == 16 and max(lo) <= min(hi)
        for rec, g in zip(recs, gid):
            assert rec.r_target_ohm == tunesim.TWO_GROUP_TARGETS_OHM[g]

    def test_two_group_split_marks_a_junction_above_its_target_exhausted(self):
        """A junction can only be trimmed upwards, so one that starts above
        its group's target band is exhausted before any anneal, and one above
        its target but inside the band converges with none.  The split only
        assigns groups and targets; the campaign decides every status."""
        recs = [tunesim.JunctionRecord(j, r, r)
                for j, r in enumerate((7000.0, 9000.0, 8000.0, 8510.0))]
        gid = tunesim.two_group_split(recs, targets_ohm=(8500.0,), sizes=(4,))
        assert gid.tolist() == [0, 0, 0, 0]
        assert all(rec.status == tunesim.PENDING for rec in recs)
        assert all(rec.r_target_ohm == 8500.0 for rec in recs)
        tunesim.run_campaign(recs, group_ids=gid)
        assert [rec.status for rec in recs] == [tunesim.CONVERGED, tunesim.EXHAUSTED,
                                                tunesim.CONVERGED, tunesim.CONVERGED]
        assert (len(recs[1].steps), len(recs[3].steps)) == (0, 0)
        assert (recs[1].r_ohm, recs[3].r_ohm) == (9000.0, 8510.0)

    def test_a_two_group_junction_inside_its_band_converges_unannealed(self):
        """At seed 144 one junction starts above its 8798-ohm target but
        within the 0.3% band (26.4 ohm), so the campaign converges it with
        no anneal, and every junction lands."""
        recs = tunesim.generate_population(31, master_seed=144)
        gid = tunesim.two_group_split(recs)
        above = [rec for rec in recs if rec.r_ohm > rec.r_target_ohm]
        assert len(above) == 1
        assert 0.0 < above[0].r_ohm - above[0].r_target_ohm <= 0.003 * above[0].r_target_ohm
        res = tunesim.run_campaign(recs, master_seed=144, group_ids=gid)
        assert (above[0].status, above[0].steps) == (tunesim.CONVERGED, [])
        assert res.n_converged == 31

    def test_two_group_split_size_mismatch(self):
        recs = tunesim.generate_population(30, master_seed=3)
        with pytest.raises(InputError):
            tunesim.two_group_split(recs)
        with pytest.raises(InputError):
            tunesim.two_group_split(recs, targets_ohm=(8000.0,), sizes=(15, 15))

    def test_spread_targets_span(self):
        recs = tunesim.generate_population(11, master_seed=5)
        tunesim.spread_targets(recs, 0.004, 0.145)
        offs = [rec.r_target_ohm / rec.r_ohm - 1.0 for rec in recs]
        assert offs[0] == pytest.approx(0.004, abs=1e-12)
        assert offs[-1] == pytest.approx(0.145, abs=1e-12)
        assert offs == sorted(offs)
        for lo, hi in ((0.2, 0.1), (0.004, math.inf), (math.nan, 0.1), (0.004, math.nan)):
            with pytest.raises(ParameterError):
                tunesim.spread_targets(recs, lo, hi)


class TestResponseModel:
    def test_default_surface_bounds(self):
        m = tunesim.AnnealResponseModel.default()
        shifts = sorted(m.calibration.values())
        assert shifts[-1] == pytest.approx(0.15, abs=1e-12)
        assert shifts[0] < 5e-4
        assert len(m.calibration) == 21 * 7

    def test_pick_step_is_largest_not_exceeding(self):
        m = tunesim.AnnealResponseModel.default()
        power, duration, expected = m.pick_step(0.02)
        assert expected <= 0.02
        # no calibrated setting between the pick and the request
        assert not any(expected < s <= 0.02 for s in m.calibration.values())

    def test_pick_step_gentlest_fallback(self):
        m = tunesim.AnnealResponseModel.default()
        gentlest = min(s for s in m.calibration.values() if s > 0.0)
        assert m.pick_step(gentlest / 10.0)[2] == gentlest
        for bad in (0.0, -0.01, math.nan):
            with pytest.raises(ParameterError):
                m.pick_step(bad)

    @pytest.mark.parametrize("model", [
        tunesim.AnnealResponseModel.default(),
        # two durations share the shift 0.02, and a zero shift stays off the ladder
        tunesim.AnnealResponseModel({(0.8, 1.0): 0.0, (0.9, 1.0): 0.02, (1.0, 1.0): 0.05,
                                     (0.8, 2.0): 0.01, (0.9, 2.0): 0.02, (1.0, 2.0): 0.1}),
    ], ids=["default", "shared-shift"])
    def test_pick_step_matches_a_scan_of_the_ladder(self, model):
        """The search returns what walking the sorted (shift, power, duration)
        ladder returns: its last entry at or below the request, else its first."""
        ladder = sorted((shift, power, duration) for (power, duration), shift
                        in model.calibration.items() if shift > 0.0)

        def scan(wanted):
            chosen = ladder[0]
            for entry in ladder:
                if entry[0] > wanted:
                    break
                chosen = entry
            shift, power, duration = chosen
            return power, duration, shift

        shifts = sorted({entry[0] for entry in ladder})
        points = [shifts[0] / 2.0, 2.0 * shifts[-1]]
        points += [(a + b) / 2.0 for a, b in zip(shifts, shifts[1:])]
        for s in shifts:
            points += [math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)]
        for wanted in points:
            assert model.pick_step(wanted) == scan(wanted), wanted

    def test_realized_shift_noise(self):
        quiet = tunesim.AnnealResponseModel.default(noise_sigma=0.0)
        rng = tunesim.junction_rng(0, 0)
        assert quiet.realized_shift(0.01, rng) == 0.01
        loud = tunesim.AnnealResponseModel.default(noise_sigma=0.5)
        draws = [loud.realized_shift(0.01, rng) for _ in range(200)]
        assert min(draws) > 0.0
        assert np.std(np.log(draws)) == pytest.approx(0.5, rel=0.2)

    def test_calibration_validation(self):
        with pytest.raises(InputError):
            tunesim.AnnealResponseModel({})
        with pytest.raises(InputError):
            tunesim.AnnealResponseModel({(1.0, 1.0): 0.2})
        with pytest.raises(InputError):
            tunesim.AnnealResponseModel({(0.8, 1.0): 0.05, (0.9, 1.0): 0.05})
        with pytest.raises(InputError, match="no positive shift"):  # an empty ladder
            tunesim.AnnealResponseModel({(1.0, 1.0): 0.0})
        for noise in (-0.1, math.inf, math.nan):
            with pytest.raises(ParameterError):
                tunesim.AnnealResponseModel({(1.0, 1.0): 0.1}, noise_sigma=noise)


class TestTuneJunction:
    def test_already_in_band_takes_zero_anneals(self):
        rec = tunesim.JunctionRecord(0, 8000.0, 8000.0, r_target_ohm=8010.0)
        tunesim.tune_junction(rec, tunesim.AnnealResponseModel.default(),
                              tunesim.TunePolicy(), tunesim.junction_rng(0, 0))
        assert rec.status == tunesim.CONVERGED
        assert rec.steps == []

    def test_target_below_wire_is_exhausted_not_overshot(self):
        rec = tunesim.JunctionRecord(0, 8000.0, 8000.0, r_target_ohm=7800.0)
        tunesim.tune_junction(rec, tunesim.AnnealResponseModel.default(),
                              tunesim.TunePolicy(), tunesim.junction_rng(0, 0))
        assert rec.status == tunesim.EXHAUSTED
        assert rec.steps == []

    def test_coarse_model_overshoots(self):
        blunt = tunesim.AnnealResponseModel({(1.0, 1.0): 0.15}, noise_sigma=0.0)
        rec = tunesim.JunctionRecord(0, 8000.0, 8000.0, r_target_ohm=8080.0)
        tunesim.tune_junction(rec, blunt, tunesim.TunePolicy(), tunesim.junction_rng(0, 0))
        assert rec.status == tunesim.OVERSHOT
        assert len(rec.steps) == 1
        assert rec.r_ohm == pytest.approx(8000.0 * 1.15)

    def test_budget_exhaustion(self):
        rec = tunesim.JunctionRecord(0, 8000.0, 8000.0, r_target_ohm=8800.0)
        tunesim.tune_junction(rec, tunesim.AnnealResponseModel.default(noise_sigma=0.0),
                              tunesim.TunePolicy(max_anneals=2), tunesim.junction_rng(0, 0))
        assert rec.status == tunesim.EXHAUSTED
        assert len(rec.steps) == 2

    def test_resistance_only_rises(self):
        recs = tunesim.generate_population(20, master_seed=9)
        tunesim.spread_targets(recs, 0.01, 0.12)
        tunesim.run_campaign(recs, master_seed=9)
        for rec in recs:
            path = [rec.r_initial_ohm] + [st.r_after_ohm for st in rec.steps]
            assert all(b > a for a, b in zip(path, path[1:]))
            assert rec.r_ohm == path[-1]

    def test_deeper_targets_take_more_steps(self):
        quiet = tunesim.AnnealResponseModel.default(noise_sigma=0.0)
        counts = []
        for off in (0.01, 0.05, 0.13):
            rec = tunesim.JunctionRecord(0, 8000.0, 8000.0, r_target_ohm=8000.0 * (1 + off))
            tunesim.tune_junction(rec, quiet, tunesim.TunePolicy(), tunesim.junction_rng(0, 0))
            assert rec.status == tunesim.CONVERGED
            counts.append(len(rec.steps))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_an_exhausted_junction_is_left_as_it_is(self):
        rec = tunesim.JunctionRecord(0, 9000.0, 9000.0, r_target_ohm=8000.0,
                                     status=tunesim.EXHAUSTED)
        out = tunesim.tune_junction(rec, tunesim.AnnealResponseModel.default(),
                                    tunesim.TunePolicy(), tunesim.junction_rng(0, 0))
        assert out is rec
        assert (rec.status, rec.r_ohm, rec.steps) == (tunesim.EXHAUSTED, 9000.0, [])

    @pytest.mark.parametrize("r_ohm, target_ohm", [(0.0, 8000.0), (-5.0, 8000.0),
                                                   (8000.0, 0.0), (8000.0, math.nan)])
    def test_rejects_a_non_positive_resistance(self, r_ohm, target_ohm):
        rec = tunesim.JunctionRecord(0, 8000.0, r_ohm, r_target_ohm=target_ohm)
        with pytest.raises(ParameterError, match="resistance must be positive"):
            tunesim.tune_junction(rec, tunesim.AnnealResponseModel.default(),
                                  tunesim.TunePolicy(), tunesim.junction_rng(0, 0))

    def test_policy_validation(self):
        for bad in ({"step_fraction": 0.0}, {"converge_band": 1.0}, {"max_anneals": 0}):
            with pytest.raises(ParameterError):
                tunesim.TunePolicy(**bad)


class TestCampaign:
    def test_requires_targets(self):
        recs = tunesim.generate_population(3, master_seed=1)
        with pytest.raises(InputError):
            tunesim.run_campaign(recs)
        with pytest.raises(InputError):
            tunesim.run_campaign([])

    def test_default_fit_adds_frequencies_and_leaves_resistances_alone(self):
        """Without a fit the campaign models frequency through the default
        wafer fit, drawing each residual after the junction's anneals."""
        a = tunesim.generate_population(20, master_seed=4)
        b = tunesim.generate_population(20, master_seed=4)
        for recs in (a, b):
            tunesim.spread_targets(recs, 0.01, 0.1)
        implicit = tunesim.run_campaign(a, master_seed=4)
        explicit = tunesim.run_campaign(b, master_seed=4, fit=tunesim.default_wafer_fit())
        assert implicit == explicit
        model, policy = tunesim.AnnealResponseModel.default(), tunesim.TunePolicy()
        fresh = tunesim.generate_population(20, master_seed=4)
        tunesim.spread_targets(fresh, 0.01, 0.1)
        for rec in fresh:
            tunesim.tune_junction(rec, model, policy, tunesim.junction_rng(4, rec.junction_id))
        assert [rec.r_ohm for rec in implicit.records] == [rec.r_ohm for rec in fresh]
        assert list(implicit.group_median_f_ghz) == [0]
        assert implicit.pooled_sigma_f_mhz is not None

    def test_no_convergence_leaves_the_converged_figures_unset(self):
        recs = tunesim.generate_population(5, master_seed=0)
        tunesim.spread_targets(recs, 0.5, 0.6)
        res = tunesim.run_campaign(recs, policy=tunesim.TunePolicy(max_anneals=1))
        assert res.n_converged == 0
        assert (res.sigma_r_ohm, res.pooled_sigma_f_mhz, res.target_sigma_f_mhz,
                res.predicted_sigma_f_mhz) == (None, None, None, None)
        assert list(res.group_median_r_ohm) == list(res.group_median_f_ghz) == [0]

    @pytest.mark.parametrize("residual_mhz", [-1.0, math.inf, math.nan])
    def test_rejects_bad_fit_residual(self, residual_mhz):
        recs = tunesim.generate_population(3, master_seed=1)
        tunesim.spread_targets(recs, 0.01, 0.1)
        with pytest.raises(ParameterError, match="residual_std"):
            tunesim.run_campaign(recs, fit=ideal_fit(residual_mhz))

    def test_order_independent_noise_streams(self):
        """Each junction owns its noise stream, so tuning order is irrelevant."""
        a = tunesim.generate_population(25, master_seed=12)
        b = tunesim.generate_population(25, master_seed=12)
        tunesim.spread_targets(a, 0.01, 0.1)
        tunesim.spread_targets(b, 0.01, 0.1)
        tunesim.run_campaign(a, master_seed=12)
        model, policy = tunesim.AnnealResponseModel.default(), tunesim.TunePolicy()
        for rec in reversed(b):
            tunesim.tune_junction(rec, model, policy, tunesim.junction_rng(12, rec.junction_id))
        assert [rec.r_ohm for rec in a] == [rec.r_ohm for rec in b]
        assert [len(rec.steps) for rec in a] == [len(rec.steps) for rec in b]

    def test_zero_noise_precision_bound(self):
        """With exact anneals and a perfect fit, the only frequency error left
        is the convergence band itself."""
        recs = tunesim.generate_population(40, master_seed=2)
        tunesim.spread_targets(recs, 0.01, 0.1)
        policy = tunesim.TunePolicy()
        res = tunesim.run_campaign(recs, model=tunesim.AnnealResponseModel.default(noise_sigma=0.0),
                                   policy=policy, master_seed=2, fit=ideal_fit(0.0))
        assert res.converged_fraction == 1.0
        assert res.target_sigma_f_mhz <= 1.05 * res.predicted_sigma_f_mhz
        # band-limited trim error: |exponent| * band * f, in MHz
        assert res.predicted_sigma_f_mhz == pytest.approx(
            0.5 * policy.converge_band * 5.5e3, rel=0.15)

    def test_two_group_regression(self):
        """Flagship campaign at the pinned seed: every junction lands, and the
        three precision flavours match frozen values."""
        recs = tunesim.generate_population(31, master_seed=36)
        gid = tunesim.two_group_split(recs)
        res = tunesim.run_campaign(recs, master_seed=36, fit=tunesim.default_wafer_fit(),
                                   group_ids=gid)
        assert res.n_converged == 31
        assert res.converged_fraction == 1.0
        assert res.sigma_r_ohm == pytest.approx(17.736, abs=0.01)
        assert res.pooled_sigma_f_mhz == pytest.approx(16.113, abs=0.01)
        assert res.target_sigma_f_mhz == pytest.approx(16.355, abs=0.01)
        assert res.predicted_sigma_f_mhz == pytest.approx(16.738, abs=0.01)
        assert res.group_median_r_ohm[0] == pytest.approx(7967.6, abs=0.5)
        assert res.group_median_r_ohm[1] == pytest.approx(8780.1, abs=0.5)
        assert res.group_median_f_ghz[0] > res.group_median_f_ghz[1]

    def test_wide_spread_converges(self):
        recs = tunesim.generate_population(120, master_seed=36)
        tunesim.spread_targets(recs, 0.004, 0.145)
        res = tunesim.run_campaign(recs, master_seed=36)
        assert res.converged_fraction >= 0.99

    def test_converged_medians_park_just_under_target(self):
        """One-sided approach: the converged population sits slightly below
        its resistance target, inside the band."""
        recs = tunesim.generate_population(60, master_seed=8)
        tunesim.spread_targets(recs, 0.02, 0.1)
        policy = tunesim.TunePolicy()
        tunesim.run_campaign(recs, policy=policy, master_seed=8)
        errs = [rec.r_ohm / rec.r_target_ohm - 1.0 for rec in recs
                if rec.status == tunesim.CONVERGED]
        assert np.median(errs) < 0.0
        assert all(abs(e) <= policy.converge_band + 1e-12 for e in errs)


def test_history_rows_shape():
    recs = tunesim.generate_population(5, master_seed=11)
    tunesim.spread_targets(recs, 0.01, 0.05)
    tunesim.run_campaign(recs, master_seed=11)
    rows = tunesim.history_rows(recs)
    assert len(rows) == 5 + sum(len(rec.steps) for rec in recs)
    assert all(list(row) == ["id", "step", "power", "duration_s", "resistance_ohm", "status"]
               for row in rows)
    by_id = {}
    for row in rows:
        by_id.setdefault(row["id"], []).append(
            (row["step"], row["power"], row["duration_s"], row["resistance_ohm"], row["status"]))
    for rec in recs:
        hist = by_id[rec.junction_id]
        assert hist[0] == (0, 0.0, 0.0, rec.r_initial_ohm, rec.status)
        assert [h[0] for h in hist] == list(range(len(rec.steps) + 1))
        assert hist[-1][3] == rec.r_ohm


def test_default_wafer_fit_shape():
    fit = tunesim.default_wafer_fit()
    assert fit.exponent == -0.5
    assert fit.exponent_fixed
    assert fit.n_points == 31
    assert predict_frequency_ghz(fit, 7984.0) == pytest.approx(5.7046, abs=1e-9)
    assert fit.residual_std_mhz == 14.5
    narrow = tunesim.default_wafer_fit(9.0)
    assert narrow.residual_std_mhz == 9.0
    assert narrow.prefactor == fit.prefactor
