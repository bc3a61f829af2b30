"""Resistance-trimming simulation: population, controller, campaign stats."""
import dataclasses
import math
import re

import numpy as np
import pytest

from freqcrowd import mc, tunesim
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
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_lognormal_shape(self):
        r = tunesim.generate_population(100000, master_seed=0)
        assert np.median(r) == pytest.approx(7600.0, rel=0.01)
        assert np.std(np.log(r / 7600.0)) == pytest.approx(0.046, rel=0.01)

    def test_zero_scatter_degenerates(self):
        assert tunesim.generate_population(5, fractional_sigma=0.0).tolist() == [7600.0] * 5

    def test_a_population_is_an_array_indexed_by_junction(self):
        """Junction j sits at index j, and keeps its resistance in a larger
        population drawn at the same seed."""
        r = tunesim.generate_population(3, master_seed=4)
        assert (r.dtype, r.shape) == (np.float64, (3,))
        assert r.tolist() == tunesim.generate_population(50, master_seed=4)[:3].tolist()

    @pytest.mark.parametrize("kwargs, param", [
        ({"median_ohm": 1e300}, "median_ohm"), ({"median_ohm": 1e-300}, "median_ohm"),
        ({"fractional_sigma": 1000.0}, "fractional_sigma"),
        ({"fractional_sigma": 1e308}, "fractional_sigma"),
        ({"median_ohm": tunesim.RESISTANCE_DOMAIN.hi, "fractional_sigma": 0.05},
         "fractional_sigma"),
    ])
    def test_a_draw_outside_the_resistance_range_is_refused(self, kwargs, param):
        """Every drawn resistance lies in the resistance domain: a median or a
        scatter outside its own domain is refused, and so is a median inside
        it that the scatter draws past an edge.  No numpy warning is raised."""
        with pytest.raises(ParameterError, match=r"must be in \[|outside \[1, 1e\+09\]") as excinfo:
            tunesim.generate_population(31, master_seed=36, **kwargs)
        assert excinfo.value.param == param

    def test_the_range_edges_are_drawn(self):
        for median in (tunesim.RESISTANCE_DOMAIN.lo, tunesim.RESISTANCE_DOMAIN.hi):
            assert tunesim.generate_population(3, median, 0.0).tolist() == [median] * 3

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
            tunesim.run_campaign([8000.0], [8100.0], master_seed=seed)


class TestTargetAssignment:
    def test_two_group_split_ranks_by_resistance(self):
        r = tunesim.generate_population(31, master_seed=3)
        targets, gid = tunesim.two_group_split(r)
        assert sorted(np.bincount(gid)) == [15, 16]
        lo, hi = r[gid == 0], r[gid == 1]
        assert len(lo) == 16 and max(lo) <= min(hi)
        assert targets.tolist() == [tunesim.TWO_GROUP_TARGETS_OHM[g] for g in gid]

    @pytest.mark.parametrize("targets_ohm, sizes", [
        ((7984.0, 8798.0), (16, 15)), ((8798.0, 7984.0), (16, 15)),
        ((9000.0, 8000.0, 8500.0), (4, 20, 7)), ((8500.0,), (31,))])
    def test_two_group_split_matches_a_rank_by_rank_fill(self, targets_ohm, sizes):
        """Walking the junctions up in resistance, each takes the lowest
        target whose group is not yet full."""
        r = tunesim.generate_population(31, master_seed=7)
        targets, gid = tunesim.two_group_split(r, targets_ohm, sizes)
        want = np.empty(31, dtype=int)
        order = sorted(range(len(sizes)), key=lambda g: targets_ohm[g])
        slots = [g for g in order for _ in range(sizes[g])]
        for slot, j in zip(slots, np.argsort(r)):
            want[j] = slot
        assert gid.tolist() == want.tolist()
        assert targets.tolist() == [targets_ohm[g] for g in want]

    def test_two_group_split_marks_a_junction_above_its_target_exhausted(self):
        """A junction can only be trimmed upwards, so one that starts above
        its group's target band is exhausted before any anneal, and one above
        its target but inside the band converges with none.  The split only
        assigns groups and targets; the campaign decides every status."""
        r = np.array([7000.0, 9000.0, 8000.0, 8510.0])
        targets, gid = tunesim.two_group_split(r, targets_ohm=(8500.0,), sizes=(4,))
        assert gid.tolist() == [0, 0, 0, 0]
        assert targets.tolist() == [8500.0] * 4
        recs = tunesim.run_campaign(r, targets, group_ids=gid).records
        assert [rec.status for rec in recs] == [tunesim.CONVERGED, tunesim.EXHAUSTED,
                                                tunesim.CONVERGED, tunesim.CONVERGED]
        assert (recs[1].steps, recs[3].steps) == ((), ())
        assert (recs[1].r_ohm, recs[3].r_ohm) == (9000.0, 8510.0)

    def test_a_two_group_junction_inside_its_band_converges_unannealed(self):
        """At seed 144 one junction starts above its 8798-ohm target but
        within the 0.3% band (26.4 ohm), so the campaign converges it with
        no anneal, and every junction lands."""
        r = tunesim.generate_population(31, master_seed=144)
        targets, gid = tunesim.two_group_split(r)
        (above,) = np.flatnonzero(r > targets)
        assert 0.0 < r[above] - targets[above] <= 0.003 * targets[above]
        res = tunesim.run_campaign(r, targets, master_seed=144, group_ids=gid)
        assert (res.records[above].status, res.records[above].steps) == (tunesim.CONVERGED, ())
        assert res.n_converged == 31

    def test_two_group_split_size_mismatch(self):
        r = tunesim.generate_population(30, master_seed=3)
        with pytest.raises(InputError):
            tunesim.two_group_split(r)
        with pytest.raises(InputError):
            tunesim.two_group_split(r, targets_ohm=(8000.0,), sizes=(15, 15))

    def test_spread_targets_span(self):
        r = tunesim.generate_population(11, master_seed=5)
        offs = (tunesim.spread_targets(r, 0.004, 0.145) / r - 1.0).tolist()
        assert offs[0] == pytest.approx(0.004, abs=1e-12)
        assert offs[-1] == pytest.approx(0.145, abs=1e-12)
        assert offs == sorted(offs)
        for lo, hi in ((0.2, 0.1), (0.004, math.inf), (math.nan, 0.1), (0.004, math.nan)):
            with pytest.raises(ParameterError):
                tunesim.spread_targets(r, lo, hi)

    @pytest.mark.parametrize("hi", [1e100, 1e306])
    def test_a_target_past_the_resistance_range_is_refused(self, hi):
        r = tunesim.generate_population(11, master_seed=5)
        with pytest.raises(ParameterError, match="puts a target above 1e") as excinfo:
            tunesim.spread_targets(r, 0.0, hi)
        assert excinfo.value.param == "hi_fraction"


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
        rng = mc.Streams(0).at(0)
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
    @staticmethod
    def tune(r_ohm, r_target_ohm, model=None, policy=None):
        return tunesim.tune_junction(0, r_ohm, r_target_ohm,
                                     model or tunesim.AnnealResponseModel.default(),
                                     policy or tunesim.TunePolicy(), mc.Streams(0).at(0))

    def test_already_in_band_takes_zero_anneals(self):
        rec = self.tune(8000.0, 8010.0)
        assert rec == tunesim.JunctionRecord(0, 8000.0, 8010.0, 8000.0, tunesim.CONVERGED, ())

    def test_target_below_wire_is_exhausted_not_overshot(self):
        rec = self.tune(8000.0, 7800.0)
        assert (rec.status, rec.steps) == (tunesim.EXHAUSTED, ())

    def test_coarse_model_overshoots(self):
        blunt = tunesim.AnnealResponseModel({(1.0, 1.0): 0.15}, noise_sigma=0.0)
        rec = self.tune(8000.0, 8080.0, model=blunt)
        assert rec.status == tunesim.OVERSHOT
        assert len(rec.steps) == 1
        assert rec.r_ohm == pytest.approx(8000.0 * 1.15)
        assert (rec.r_initial_ohm, rec.r_target_ohm) == (8000.0, 8080.0)

    def test_budget_exhaustion(self):
        rec = self.tune(8000.0, 8800.0, model=tunesim.AnnealResponseModel.default(noise_sigma=0.0),
                        policy=tunesim.TunePolicy(max_anneals=2))
        assert rec.status == tunesim.EXHAUSTED
        assert len(rec.steps) == 2

    def test_a_tuned_junction_is_frozen(self):
        rec = self.tune(8000.0, 8400.0)
        assert isinstance(rec.steps, tuple) and rec.steps
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.status = tunesim.EXHAUSTED

    def test_resistance_only_rises(self):
        r = tunesim.generate_population(20, master_seed=9)
        res = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.01, 0.12), master_seed=9)
        for rec in res.records:
            path = [rec.r_initial_ohm] + [st.r_after_ohm for st in rec.steps]
            assert all(b > a for a, b in zip(path, path[1:]))
            assert rec.r_ohm == path[-1]

    def test_deeper_targets_take_more_steps(self):
        quiet = tunesim.AnnealResponseModel.default(noise_sigma=0.0)
        counts = []
        for off in (0.01, 0.05, 0.13):
            rec = self.tune(8000.0, 8000.0 * (1 + off), model=quiet)
            assert rec.status == tunesim.CONVERGED
            counts.append(len(rec.steps))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    @pytest.mark.parametrize("r_ohm, target_ohm", [(0.0, 8000.0), (-5.0, 8000.0),
                                                   (math.nan, 8000.0), (8000.0, 0.0),
                                                   (8000.0, math.nan)])
    def test_rejects_a_non_positive_resistance(self, r_ohm, target_ohm):
        with pytest.raises(ParameterError, match=r"_ohm must be in \[1, 1e\+09\]$") as excinfo:
            self.tune(r_ohm, target_ohm)
        assert excinfo.value.param == ("r_ohm" if not r_ohm > 0.0 else "r_target_ohm")

    @pytest.mark.parametrize("noise", [1e4, 1e300])
    def test_noise_that_anneals_past_the_resistance_range_is_refused(self, noise):
        """A noise level past its domain is refused naming ``noise_sigma``
        before any anneal: within it a realised shift is below 0.15 * e**14,
        so no resistance overflows."""
        with pytest.raises(ParameterError, match=r"^noise_sigma must be in \[0, 1\]$") as excinfo:
            self.tune(8000.0, 8800.0, model=tunesim.AnnealResponseModel.default(noise))
        assert excinfo.value.param == "noise_sigma"

    def test_policy_validation(self):
        for bad in ({"step_fraction": 0.0}, {"converge_band": 1.0}, {"max_anneals": 0}):
            with pytest.raises(ParameterError):
                tunesim.TunePolicy(**bad)


class TestCampaign:
    @pytest.mark.parametrize("r_ohm, targets_ohm, group_ids", [
        ([], [], None), ([8000.0, 8100.0], [8400.0], None), ([8000.0], [8400.0, 8500.0], None),
        ([8000.0, 8100.0], [8400.0, 8500.0], [0]), ([8000.0], [8400.0], [0, 1]),
        ([[8000.0]], [[8400.0]], None), (8000.0, 8400.0, None),
    ], ids=["empty", "short-targets", "long-targets", "short-groups", "long-groups", "2-d",
            "0-d"])
    def test_refuses_inputs_that_are_not_equal_length_rows(self, r_ohm, targets_ohm, group_ids):
        with pytest.raises(InputError, match="equal-length 1-d arrays"):
            tunesim.run_campaign(r_ohm, targets_ohm, group_ids=group_ids)

    @pytest.mark.parametrize("r_ohm, target_ohm", [
        (8000.0, math.nan), (math.nan, 8400.0), (8000.0, math.inf), (1e300, 1e300),
        (8000.0, 1e-300), (-8000.0, 8400.0)])
    def test_refuses_a_resistance_or_target_outside_the_range(self, r_ohm, target_ohm):
        """Each junction is checked as it is tuned: the campaign rejects an
        input outside the resistance domain."""
        with pytest.raises(ParameterError, match=r"must be in \[1, 1e\+09\]$"):
            tunesim.run_campaign([8000.0, r_ohm], [8400.0, target_ohm])

    def test_a_campaign_is_pure(self):
        """Two calls on the same inputs return equal results and leave the
        inputs as they were."""
        r = tunesim.generate_population(31, master_seed=36)
        targets, gid = tunesim.two_group_split(r)
        kept = r.copy(), targets.copy(), gid.copy()
        first = tunesim.run_campaign(r, targets, master_seed=36, group_ids=gid)
        second = tunesim.run_campaign(r, targets, master_seed=36, group_ids=gid)
        assert first == second
        assert first.pooled_sigma_f_mhz == pytest.approx(16.113, abs=0.01)
        assert all(np.array_equal(a, b) for a, b in zip((r, targets, gid), kept))

    def test_default_fit_adds_frequencies_and_leaves_resistances_alone(self):
        """Without a fit the campaign models frequency through the default
        wafer fit, drawing each residual after the junction's anneals."""
        r = tunesim.generate_population(20, master_seed=4)
        targets = tunesim.spread_targets(r, 0.01, 0.1)
        implicit = tunesim.run_campaign(r, targets, master_seed=4)
        explicit = tunesim.run_campaign(r, targets, master_seed=4, fit=tunesim.default_wafer_fit())
        assert implicit == explicit
        model, policy = tunesim.AnnealResponseModel.default(), tunesim.TunePolicy()
        alone = [tunesim.tune_junction(j, r[j], targets[j], model, policy,
                                       mc.Streams(4).at(j)) for j in range(20)]
        assert list(implicit.records) == alone
        assert list(implicit.group_median_f_ghz) == [0]
        assert implicit.pooled_sigma_f_mhz is not None

    def test_no_convergence_leaves_the_converged_figures_unset(self):
        r = tunesim.generate_population(5, master_seed=0)
        res = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.5, 0.6),
                                   policy=tunesim.TunePolicy(max_anneals=1))
        assert res.n_converged == 0
        assert (res.sigma_r_ohm, res.pooled_sigma_f_mhz, res.target_sigma_f_mhz,
                res.predicted_sigma_f_mhz) == (None, None, None, None)
        assert list(res.group_median_r_ohm) == list(res.group_median_f_ghz) == [0]
        assert res.group_median_f_ghz[0] is None

    def test_group_median_frequencies_are_over_converged_junctions(self):
        """At seed 36 two anneals converge 1 of 31 junctions: each group's
        median frequency is that of its converged junctions, the ones the
        pooled scatter is taken about, and None for a group with none, while
        the median resistance is over every junction."""
        r = tunesim.generate_population(31, master_seed=36)
        targets, gid = tunesim.two_group_split(r)
        res = tunesim.run_campaign(r, targets, master_seed=36, group_ids=gid,
                                   policy=tunesim.TunePolicy(max_anneals=2))
        conv = np.array([rec.status == tunesim.CONVERGED for rec in res.records])
        assert res.n_converged == 1 and res.pooled_sigma_f_mhz == 0.0
        (g,) = gid[conv]
        assert res.group_median_f_ghz == {g: res.group_median_f_ghz[g], 1 - g: None}
        f_fit = predict_frequency_ghz(tunesim.default_wafer_fit(), res.records[conv.argmax()].r_ohm)
        assert res.group_median_f_ghz[g] == pytest.approx(f_fit, abs=0.1)
        final_r = [rec.r_ohm for rec in res.records]
        assert res.group_median_r_ohm == {k: float(np.median(np.array(final_r)[gid == k]))
                                          for k in (0, 1)}

    @pytest.mark.parametrize("residual_mhz", [-1.0, math.inf, math.nan])
    def test_rejects_bad_fit_residual(self, residual_mhz):
        r = tunesim.generate_population(3, master_seed=1)
        with pytest.raises(ParameterError, match="residual_std"):
            tunesim.run_campaign(r, tunesim.spread_targets(r, 0.01, 0.1), fit=ideal_fit(residual_mhz))

    @pytest.mark.parametrize("residual_mhz", [6000.0, 1e306, 500.0])
    def test_a_residual_that_draws_a_converged_frequency_out_of_range_is_refused(self,
                                                                               residual_mhz):
        """A residual past its domain is refused before any junction is
        tuned, and one inside it whose draw takes a converged frequency to 0
        or below is refused after: near 5e8 ohm the fit puts a junction at
        about 23 MHz, which a 500 MHz residual draws below 0."""
        r = tunesim.generate_population(31, 5e8, master_seed=36)
        reason = ("draws a converged frequency at or below 0 GHz" if residual_mhz <= 500.0
                  else "residual_std_mhz must be in [0, 500]")
        with pytest.raises(ParameterError, match=f"^{re.escape(reason)}$") as excinfo:
            tunesim.run_campaign(r, tunesim.spread_targets(r, 0.01, 0.1), master_seed=36,
                                 fit=ideal_fit(residual_mhz))
        assert excinfo.value.param == "residual_std_mhz"

    def test_order_independent_noise_streams(self):
        """Each junction owns its noise stream, so tuning order is irrelevant:
        one set of streams rewound junction by junction, last first, tunes
        each as the campaign does."""
        r = tunesim.generate_population(25, master_seed=12)
        targets = tunesim.spread_targets(r, 0.01, 0.1)
        res = tunesim.run_campaign(r, targets, master_seed=12)
        model, policy, streams = tunesim.AnnealResponseModel.default(), tunesim.TunePolicy(), \
            mc.Streams(12)
        backwards = [tunesim.tune_junction(j, r[j], targets[j], model, policy, streams.at(j))
                     for j in reversed(range(25))]
        assert list(res.records) == backwards[::-1]

    def test_zero_noise_precision_bound(self):
        """With exact anneals and a perfect fit, the only frequency error left
        is the convergence band itself."""
        r = tunesim.generate_population(40, master_seed=2)
        policy = tunesim.TunePolicy()
        res = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.01, 0.1),
                                   model=tunesim.AnnealResponseModel.default(noise_sigma=0.0),
                                   policy=policy, master_seed=2, fit=ideal_fit(0.0))
        assert res.converged_fraction == 1.0
        assert res.target_sigma_f_mhz <= 1.05 * res.predicted_sigma_f_mhz
        # band-limited trim error: |exponent| * band * f, in MHz
        assert res.predicted_sigma_f_mhz == pytest.approx(
            0.5 * policy.converge_band * 5.5e3, rel=0.15)

    def test_two_group_regression(self):
        """Flagship campaign at the pinned seed: every junction lands, and the
        three precision flavours match frozen values."""
        r = tunesim.generate_population(31, master_seed=36)
        targets, gid = tunesim.two_group_split(r)
        res = tunesim.run_campaign(r, targets, master_seed=36, fit=tunesim.default_wafer_fit(),
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
        r = tunesim.generate_population(120, master_seed=36)
        res = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.004, 0.145), master_seed=36)
        assert res.converged_fraction >= 0.99

    def test_converged_medians_park_just_under_target(self):
        """One-sided approach: the converged population sits slightly below
        its resistance target, inside the band."""
        r = tunesim.generate_population(60, master_seed=8)
        policy = tunesim.TunePolicy()
        res = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.02, 0.1), policy=policy,
                                   master_seed=8)
        errs = [rec.r_ohm / rec.r_target_ohm - 1.0 for rec in res.records
                if rec.status == tunesim.CONVERGED]
        assert np.median(errs) < 0.0
        assert all(abs(e) <= policy.converge_band + 1e-12 for e in errs)


def test_history_rows_shape():
    r = tunesim.generate_population(5, master_seed=11)
    recs = tunesim.run_campaign(r, tunesim.spread_targets(r, 0.01, 0.05), master_seed=11).records
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
