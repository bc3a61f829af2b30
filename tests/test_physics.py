import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freqcrowd import physics
from freqcrowd.errors import InputError, ParameterError, SingularFitError


def test_transmon_frequency_reference_point():
    # EJ/h = 10.76 GHz, EC/h = 0.33 GHz is a stock 5 GHz design point
    assert physics.transmon_f01_ghz(10.76, 0.33) == pytest.approx(4.9998, abs=5e-4)


def test_transmon_frequency_closed_form():
    ej, ec = 12.0, 0.25
    assert physics.transmon_f01_ghz(ej, ec) == pytest.approx(np.sqrt(8 * ej * ec) - ec, rel=1e-12)


@pytest.mark.parametrize("ej,ec", [(0.0, 0.3), (10.0, 0.0), (-1.0, 0.3), (10.0, -0.2)])
def test_transmon_frequency_rejects_nonpositive_energies(ej, ec):
    with pytest.raises(ParameterError):
        physics.transmon_f01_ghz(ej, ec)


@pytest.mark.parametrize("ej,ec", [(math.nan, 0.3), (10.0, math.nan), (math.inf, 0.3),
                                   (math.inf, math.inf)])
def test_transmon_frequency_rejects_non_finite_energies(ej, ec):
    with pytest.raises(ParameterError):
        physics.transmon_f01_ghz(ej, ec)


def test_transmon_frequency_rejects_low_ej_ec_ratio():
    # below ~10 the charge dispersion becomes non-negligible and the
    # two-term expansion stops being trustworthy
    with pytest.raises(ParameterError):
        physics.transmon_f01_ghz(2.9, 0.3)
    physics.transmon_f01_ghz(3.0, 0.3)  # ratio exactly 10 is allowed


def test_critical_current_reference_point():
    assert physics.critical_current_na(8800.0) == pytest.approx(32.13, abs=0.01)


def test_critical_current_product_invariant():
    # Ic * Rn depends only on the gap
    r = np.array([1000.0, 5500.0, 8800.0, 20000.0])
    prod = physics.critical_current_na(r) * r
    assert np.allclose(prod, prod[0])


def test_critical_current_scales_with_gap():
    assert physics.critical_current_na(8800.0, gap_uev=360.0) == pytest.approx(
        2 * physics.critical_current_na(8800.0, gap_uev=180.0))


def test_critical_current_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        physics.critical_current_na(0.0)
    with pytest.raises(ParameterError):
        physics.critical_current_na(8800.0, gap_uev=-1.0)
    for bad in (math.nan, math.inf):  # a NaN passes a plain "<= 0" test
        with pytest.raises(ParameterError):
            physics.critical_current_na(bad)
        with pytest.raises(ParameterError):
            physics.critical_current_na(np.array([8800.0, bad]))
        with pytest.raises(ParameterError):
            physics.critical_current_na(8800.0, gap_uev=bad)


class TestPowerLawFit:
    def test_exact_law_recovered(self):
        r = np.array([6000.0, 7000.0, 8000.0, 9000.0])
        f = 510.0 * r**-0.5
        fit = physics.fit_power_law(r, f)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
        assert fit.prefactor == pytest.approx(510.0, rel=1e-9)
        assert fit.residual_std_mhz == pytest.approx(0.0, abs=1e-6)
        assert fit.n_points == 4 and not fit.exponent_fixed

    def test_fixed_exponent_two_points(self):
        r = np.array([7000.0, 9000.0])
        f = 510.0 * r**-0.5
        fit = physics.fit_power_law(r, f, fix_exponent=-0.5)
        assert fit.exponent_fixed
        assert fit.prefactor == pytest.approx(510.0, rel=1e-6)

    @pytest.mark.parametrize("exponent", [float("inf"), float("-inf"), float("nan")])
    def test_fixed_exponent_must_be_finite(self, exponent):
        with pytest.raises(ParameterError, match="fixed exponent must be finite"):
            physics.fit_power_law([7000.0, 9000.0], [2.2, 1.9], fix_exponent=exponent)

    def test_free_fit_needs_three_points(self):
        with pytest.raises(InputError):
            physics.fit_power_law([7000.0, 9000.0], [6.1, 5.4])

    def test_identical_resistances_are_singular(self):
        with pytest.raises(SingularFitError):
            physics.fit_power_law([8000.0, 8000.0, 8000.0], [5.5, 5.6, 5.7])

    def test_residual_is_linear_rms_in_mhz(self):
        r = np.array([1.0, 1.0, 2.0, 2.0])
        # symmetric +-1 MHz perturbations around an exact flat law (p = 0)
        f = np.array([5.001, 4.999, 5.001, 4.999])
        fit = physics.fit_power_law(r, f)
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_std_mhz == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("r, f", [
        ([7000.0, 8000.0, 9000.0], [5.5, 5.6]),
        ([[7000.0, 8000.0, 9000.0]], [[5.5, 5.6, 5.7]]),
        (7000.0, 5.5),
    ], ids=["lengths", "2-d", "0-d"])
    def test_rejects_arrays_of_other_shapes(self, r, f):
        with pytest.raises(InputError, match="1-d arrays of equal length"):
            physics.fit_power_law(r, f)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(InputError):
            physics.fit_power_law([7000.0, -1.0, 9000.0], [5.5, 5.6, 5.7])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_data(self, bad):
        """A NaN passes a plain ``<= 0`` test, which once gave a NaN fit."""
        with pytest.raises(InputError):
            physics.fit_power_law([7000.0, bad, 9000.0], [5.5, 5.6, 5.7])
        with pytest.raises(InputError):
            physics.fit_power_law([7000.0, 8000.0, 9000.0], [5.5, bad, 5.7])

    @given(
        a=st.floats(100.0, 1000.0),
        p=st.floats(-1.0, -0.1),
        st_r=st.lists(st.floats(1000.0, 20000.0), min_size=3, max_size=12, unique=True),
    )
    def test_roundtrip_property(self, a, p, st_r):
        r = np.array(st_r)
        fit = physics.fit_power_law(r, a * r**p)
        assert fit.exponent == pytest.approx(p, abs=1e-7)
        pred = physics.predict_frequency_ghz(fit, r)
        assert np.allclose(pred, a * r**p, rtol=1e-7)


def test_predict_and_invert_are_inverses():
    fit = physics.PowerLawFit(prefactor=509.7, exponent=-0.5, residual_std_mhz=14.5,
                              n_points=31, exponent_fixed=True)
    f = physics.predict_frequency_ghz(fit, 7984.0)
    assert physics.target_resistance_ohm(fit, f) == pytest.approx(7984.0, rel=1e-12)
    # lower frequency target -> higher resistance (negative exponent)
    assert physics.target_resistance_ohm(fit, f - 0.2) > 7984.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_predict_and_invert_reject_non_finite_or_non_positive_inputs(bad):
    fit = physics.PowerLawFit(prefactor=509.7, exponent=-0.5, residual_std_mhz=14.5, n_points=31)
    with pytest.raises(ParameterError):
        physics.predict_frequency_ghz(fit, np.array([7984.0, bad]))
    with pytest.raises(ParameterError):
        physics.target_resistance_ohm(fit, bad)


def test_invert_rejects_zero_exponent():
    flat = physics.PowerLawFit(prefactor=5.0, exponent=0.0, residual_std_mhz=0.0, n_points=3)
    with pytest.raises(ParameterError):
        physics.target_resistance_ohm(flat, 5.0)


def test_grouped_sigma_single_group():
    # +-1 MHz around a 5 GHz median
    out = physics.grouped_sigma([5.001, 4.999], [0, 0])
    assert out.pooled_sigma_mhz == pytest.approx(1.0, abs=1e-9)
    assert out.group_medians_ghz[0] == pytest.approx(5.0)


def test_grouped_sigma_ignores_between_group_spacing():
    f = [5.001, 4.999, 5.501, 5.499]
    out = physics.grouped_sigma(f, [0, 0, 1, 1])
    assert out.pooled_sigma_mhz == pytest.approx(1.0, abs=1e-9)
    assert out.n_points == 4


@pytest.mark.parametrize("group_ids", [
    [2, 0, 2, 0, 1, 2, 0],                                  # odd and one-member groups
    np.array([1, 1, 0, 0, 1, 1, 0, 0, 0, 0]),               # even groups, numpy ids
    ["b", "a", "b", "a", "a"],
], ids=["ints", "numpy", "strings"])
def test_group_medians_equal_numpys(group_ids):
    """Each group's median is the middle value or the mean of the two middle
    ones, exactly as ``np.median`` gives it, keyed by ``np.unique``'s ids as
    plain Python values, in its order."""
    values = np.random.default_rng(3).normal(5.5, 0.2, len(group_ids))
    ids = np.asarray(group_ids)
    expected = {g.item(): float(np.median(values[ids == g])) for g in np.unique(ids)}
    out = physics.group_medians(values, group_ids)
    assert list(out.items()) == list(expected.items())
    assert all(type(g) is type(e) for g, e in zip(out, expected))
    assert physics.grouped_sigma(values, group_ids).group_medians_ghz == out


def test_grouped_sigma_input_validation():
    with pytest.raises(InputError):
        physics.grouped_sigma([5.0, 5.1], [0])
    with pytest.raises(InputError):
        physics.grouped_sigma([], [])
    for bad in (math.nan, math.inf, -5.0):  # a NaN once gave its group a NaN median
        with pytest.raises(InputError):
            physics.grouped_sigma([5.001, bad, 4.999], [0, 0, 0])


def test_csv_loader_roundtrip():
    r, f = physics.parse_resistance_frequency_csv(
        "resistance_ohm,frequency_ghz\n8000,5.7\n9000,5.4\n", "rn.csv")
    assert r.tolist() == [8000.0, 9000.0]
    assert f.tolist() == [5.7, 5.4]


def test_csv_loader_rejects_empty():
    with pytest.raises(InputError, match="^no numeric rows in empty.csv$"):
        physics.parse_resistance_frequency_csv("resistance_ohm,frequency_ghz\n", "empty.csv")


def test_csv_loader_takes_a_header_only_on_the_first_line():
    """Comments and blank lines are skipped, but still counted in the line
    number an error names."""
    with pytest.raises(InputError, match=r"rn.csv line 5: expected two finite numbers"):
        physics.parse_resistance_frequency_csv(
            "# wafer 3\n\nresistance_ohm,frequency_ghz\n8000,5.7\n"
            "resistance_ohm,frequency_ghz\n9000,5.4\n", "rn.csv")
    r, f = physics.parse_resistance_frequency_csv("# wafer 3\n8000,5.7\n9000,5.4\n", "rn.csv")
    assert r.tolist() == [8000.0, 9000.0] and f.tolist() == [5.7, 5.4]


@pytest.mark.parametrize("bad", ["7500", "7500,1.9x", "7500,inf", "7500,1.9,2", "x,1.9"])
def test_csv_loader_rejects_a_row_without_two_finite_numbers(bad):
    with pytest.raises(InputError, match=r"^rn.csv line 2: "):
        physics.parse_resistance_frequency_csv(f"8000,5.7\n{bad}\n", "rn.csv")


def test_csv_loader_reads_crlf_lines_and_quoted_cells():
    r, f = physics.parse_resistance_frequency_csv(
        'resistance_ohm,frequency_ghz\r\n"8000",5.7\r\n9000,"5.4"\r\n', "rn.csv")
    assert r.tolist() == [8000.0, 9000.0] and f.tolist() == [5.7, 5.4]


def test_csv_loader_names_the_line_of_a_cell_past_the_field_limit():
    """The csv module's own error, raised for a cell of over 128 KiB, is an
    input error naming the line, not a traceback."""
    text = "8000,5.7\n" + "9" * 200_000 + ",5.4\n"
    with pytest.raises(InputError, match=r"^rn.csv line 2: field larger than field limit"):
        physics.parse_resistance_frequency_csv(text, "rn.csv")
