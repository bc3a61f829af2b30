"""Junction and transmon parameter relations.

Everything here is scalar/array algebra tying together the quantities a
fabrication line actually measures: room-temperature junction resistance,
superconducting gap, charging and Josephson energies, and the resulting
qubit transition frequency.  Energies are expressed as frequencies (GHz);
resistances in ohms; critical currents in nA.  The CSV parser reads text it is
given: nothing here opens a file.
"""
from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError, SingularFitError

# Minimum Josephson-to-charging energy ratio for the perturbative frequency
# formula to be trusted.
MIN_EJ_EC_RATIO = 10.0

# Superconducting gap of thin-film aluminium, micro-eV.
DEFAULT_GAP_UEV = 180.0


def _finite_positive(values) -> bool:
    """Whether every entry is finite and > 0; NaN fails both comparisons."""
    v = np.asarray(values, dtype=float)
    return bool(np.all((v > 0.0) & (v < math.inf)))


def transmon_f01_ghz(ej_ghz: float, ec_ghz: float) -> float:
    """Ground-to-first-excited transition frequency of a transmon.

    Args:
        ej_ghz: Josephson energy over h, GHz.
        ec_ghz: charging energy over h, GHz.

    Returns:
        f01 in GHz, from sqrt(8*EJ*EC) - EC.

    Raises:
        ParameterError: if energies are not finite and positive or EJ/EC < 10, where
            the asymptotic formula is no longer a good description.
    """
    if not _finite_positive([ej_ghz, ec_ghz]):
        raise ParameterError(f"energies must be finite and positive, got EJ={ej_ghz}, EC={ec_ghz}")
    ratio = ej_ghz / ec_ghz
    if ratio < MIN_EJ_EC_RATIO:
        raise ParameterError(
            f"EJ/EC = {ratio:.3f} below {MIN_EJ_EC_RATIO:g}; outside the validity regime"
        )
    return float(np.sqrt(8.0 * ej_ghz * ec_ghz) - ec_ghz)


def critical_current_na(resistance_ohm, gap_uev: float = DEFAULT_GAP_UEV):
    """Junction critical current in nA from its normal-state resistance.

    Uses the tunnel-junction relation Ic = pi * Delta / (2 e Rn); with the
    gap in micro-eV and Rn in ohms the prefactor works out to
    pi * gap * 1000 / (2 * Rn) nanoamps.
    """
    r = np.asarray(resistance_ohm, dtype=float)
    if not _finite_positive(r):
        raise ParameterError("resistance must be finite and positive")
    if not _finite_positive(gap_uev):
        raise ParameterError("gap must be finite and positive")
    out = np.pi * gap_uev * 1000.0 / (2.0 * r)
    return float(out) if np.isscalar(resistance_ohm) else out


@dataclass(frozen=True)
class PowerLawFit:
    """Power-law map f = prefactor * R**exponent between junction resistance
    (ohm) and qubit frequency (GHz).

    residual_std_mhz is the RMS deviation of the data from the fitted curve,
    in linear frequency units (MHz) — the scatter a tuning campaign cannot
    remove by trimming resistance alone.
    """

    prefactor: float
    exponent: float
    residual_std_mhz: float
    n_points: int
    exponent_fixed: bool = False


def fit_power_law(resistance_ohm, frequency_ghz, *, fix_exponent: float | None = None) -> PowerLawFit:
    """Fit f = a * R**p by least squares in log-log space.

    Args:
        resistance_ohm: junction resistances, ohm.
        frequency_ghz: measured qubit frequencies, GHz.
        fix_exponent: if given, constrain p to this finite value and fit only
            the prefactor (used to impose the ideal -1/2 scaling).

    Returns:
        PowerLawFit with the RMS residual evaluated in linear MHz.
    """
    if fix_exponent is not None and not math.isfinite(fix_exponent):
        raise ParameterError(f"fixed exponent must be finite, got {fix_exponent}", "fix_exponent")
    r = np.asarray(resistance_ohm, dtype=float)
    f = np.asarray(frequency_ghz, dtype=float)
    if r.shape != f.shape or r.ndim != 1:
        raise InputError("resistance and frequency must be 1-d arrays of equal length")
    if not (_finite_positive(r) and _finite_positive(f)):
        raise InputError("resistances and frequencies must be finite and positive")
    min_points = 2 if fix_exponent is not None else 3
    if r.size < min_points:
        raise InputError(f"need at least {min_points} points, got {r.size}")

    x, y = np.log(r), np.log(f)
    if fix_exponent is not None:
        p = float(fix_exponent)
        log_a = float(np.mean(y - p * x))
    else:
        sxx = float(np.sum((x - x.mean()) ** 2))
        if sxx == 0.0:
            raise SingularFitError("all resistances identical; exponent not identifiable")
        p = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
        log_a = float(y.mean() - p * x.mean())
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(np.exp(log_a))
        rms = float(np.sqrt(np.mean(((f - a * r**p) * 1e3) ** 2)))
    if not math.isfinite(rms):
        reason = "fitted curve is not finite over the data"
        raise (SingularFitError(reason) if fix_exponent is None
               else ParameterError(reason, "fix_exponent"))
    return PowerLawFit(prefactor=a, exponent=p, residual_std_mhz=rms, n_points=int(r.size),
                       exponent_fixed=fix_exponent is not None)


def predict_frequency_ghz(fit: PowerLawFit, resistance_ohm):
    """Evaluate the fitted power law at the given resistance(s)."""
    r = np.asarray(resistance_ohm, dtype=float)
    if not _finite_positive(r):
        raise ParameterError("resistance must be finite and positive")
    out = fit.prefactor * r**fit.exponent
    return float(out) if np.isscalar(resistance_ohm) else out


def target_resistance_ohm(fit: PowerLawFit, frequency_ghz):
    """Invert the fitted power law: resistance that lands on a wanted frequency."""
    f = np.asarray(frequency_ghz, dtype=float)
    if not _finite_positive(f):
        raise ParameterError("frequency must be finite and positive")
    if fit.exponent == 0.0:
        raise ParameterError("zero exponent cannot be inverted")
    out = (f / fit.prefactor) ** (1.0 / fit.exponent)
    return float(out) if np.isscalar(frequency_ghz) else out


def group_medians(values, group_ids) -> dict:
    """Median of the values in each group, keyed by group id in sorted order."""
    ids = np.asarray(group_ids).tolist()
    return {gid: float(statistics.median(v for v, i in zip(values, ids) if i == gid))
            for gid in sorted(set(ids))}


@dataclass(frozen=True)
class GroupedScatter:
    """Per-group medians (GHz) and the pooled RMS scatter about them (MHz)."""

    group_medians_ghz: dict
    pooled_sigma_mhz: float
    n_points: int


def grouped_sigma(frequency_ghz, group_ids) -> GroupedScatter:
    """Frequency scatter about per-group medians.

    Each value's deviation is taken from the median of its own group; the
    pooled figure is the RMS of all deviations, in MHz.  This is the right
    statistic for a multi-target tuning campaign, where the spread within
    each target group matters but the deliberate spacing between groups
    does not.
    """
    f = np.asarray(frequency_ghz, dtype=float)
    g = np.asarray(group_ids)
    if f.shape != g.shape or f.ndim != 1 or f.size == 0:
        raise InputError("frequencies and group ids must be matching non-empty 1-d arrays")
    if not _finite_positive(f):
        raise InputError("frequencies must be finite and positive")
    medians = group_medians(f, g)
    dev = f - np.array([medians[gid] for gid in g.tolist()])
    pooled = float(np.sqrt(np.mean((dev * 1e3) ** 2)))
    return GroupedScatter(group_medians_ghz=medians, pooled_sigma_mhz=pooled, n_points=int(f.size))


def _float_or_none(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def parse_resistance_frequency_csv(text: str, path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the text of a two-column CSV (resistance_ohm, frequency_ghz) at ``path``.

    Blank lines and lines starting with ``#`` are skipped.  The first other
    line is a header if none of its cells is a number; every other line must
    hold exactly two finite numbers, or an InputError names the line.
    """
    rows, first = [], True
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for rec in reader:
            if not "".join(rec).strip() or rec[0].lstrip().startswith("#"):
                continue
            values = [_float_or_none(cell) for cell in rec]
            if first and all(v is None for v in values):
                first = False
                continue  # header line
            first = False
            if len(values) != 2 or not all(v is not None and math.isfinite(v) for v in values):
                raise InputError(f"{path} line {reader.line_num}: expected two finite numbers, "
                                 f"got {','.join(rec)!r}")
            rows.append(values)
    except csv.Error as exc:  # a cell past the csv module's field limit
        raise InputError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"no numeric rows in {path}")
    arr = np.array(rows, dtype=float)
    return arr[:, 0], arr[:, 1]
