"""Analytic fixed-window yield model and its size-extrapolation.

A lattice survives when every one of its N qubits lands within a frequency
window of half-width delta_f around its set point, so under independent
Gaussian scatter sigma_f the survival probability is
``Phi(delta_f / sigma_f) ** N``, Phi the standard normal CDF (``ndtr``; an
un-normalised Gaussian integral would exceed 1), and it inverts in closed
form for the scatter that gives a wanted yield (:func:`required_sigma`).

The effective window of a simulated lattice is recovered by least-squares
against its Monte Carlo yield curve, and windows of several lattice sizes
extrapolate linearly in log N.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist, StatisticsError

import numpy as np

from .collision import SIGMA_DOMAIN, check_count, ndtr
from .errors import ParameterError, SingularFitError, UnfittableError


def _check_sizes(n_qubits) -> np.ndarray:
    """Lattice sizes as a float array, each finite and >= 1."""
    n = np.asarray(n_qubits, dtype=float)
    if not np.all((n >= 1.0) & (n < np.inf)):
        raise ParameterError("qubit counts must be finite and >= 1")
    return n


def window_yield(delta_f_mhz: float, sigma_f_mhz, n_qubits: int):
    """Survival fraction Phi(delta_f/sigma_f)**N, each sigma_f in
    :data:`~freqcrowd.collision.SIGMA_DOMAIN`; sigma 0 gives exactly 1."""
    if not delta_f_mhz > 0.0:
        raise ParameterError("delta_f must be positive")
    check_count("n_qubits", n_qubits)
    sig = np.asarray(sigma_f_mhz, dtype=float)
    SIGMA_DOMAIN.check(sig, "sigma_f_mhz")
    # sigma 0, or a width so wide that the ratio overflows: ratio inf, Phi 1, yield exactly 1
    with np.errstate(divide="ignore", over="ignore"):
        out = ndtr(delta_f_mhz / sig) ** n_qubits
    return float(out) if np.isscalar(sigma_f_mhz) else out


@dataclass(frozen=True)
class WindowFit:
    delta_f_mhz: float
    n_qubits: int
    n_points_used: int
    rms_residual: float  # in yield units
    n_points_dropped: int  # saturated (yield 0 or 1) or sigma-0 points skipped


def fit_window(yield_curve, n_qubits: int) -> WindowFit:
    """Fit the window half-width to a Monte Carlo yield curve.

    Args:
        yield_curve: iterable of (sigma_f_mhz, yield) pairs, each sigma finite
            and >= 0 and each yield in [0, 1].
        n_qubits: lattice size N in the model, an integer >= 1.

    Points with yield exactly 0 or 1 carry no usable information (they sit
    on the sampling floor/ceiling) and are dropped; at least three informative
    points are required.
    """
    check_count("n_qubits", n_qubits)
    pts = [(float(s), float(y)) for s, y in yield_curve]
    for s, y in pts:
        if not (0.0 <= s < np.inf and 0.0 <= y <= 1.0):
            raise ParameterError(f"curve point ({s}, {y}) needs a finite sigma >= 0 "
                                 "and a yield in [0, 1]")
    use = [(s, y) for s, y in pts if 0.0 < y < 1.0 and s > 0.0]
    if len(use) < 3:
        raise UnfittableError(f"need >= 3 points with yield strictly inside (0, 1), have {len(use)}")
    sig, obs = np.array(use).T

    def sse(df):  # a width, or an array of widths with one SSE each
        return np.sum((ndtr(np.divide.outer(df, sig)) ** n_qubits - obs) ** 2, axis=-1)

    # The SSE basin is narrow relative to any safe bracket, so seed a
    # golden-section search on [seed/2, 2 seed] from a coarse log-spaced scan.
    grid = np.geomspace(0.1, 500.0, 200)
    seed = float(grid[int(np.argmin(sse(grid)))])
    lo, hi = seed / 2.0, seed * 2.0
    while hi - lo > 1e-4:  # MHz; each step keeps the golden fraction of the bracket
        step = 0.6180339887498949 * (hi - lo)
        lo, hi = (lo, lo + step) if sse(hi - step) < sse(lo + step) else (hi - step, hi)
    df = 0.5 * (lo + hi)
    rms = float(np.sqrt(sse(df) / len(use)))
    return WindowFit(df, int(n_qubits), len(use), rms, n_points_dropped=len(pts) - len(use))


@dataclass(frozen=True)
class WindowTrend:
    """Window size versus lattice size: delta_f = coeff_a + coeff_b_ln * ln(N)."""

    coeff_a: float
    coeff_b_ln: float
    rms_residual_mhz: float
    n_points: int

    @property
    def coeff_b_log10(self) -> float:
        return self.coeff_b_ln * np.log(10.0)


def fit_trend(n_qubits_values, delta_f_values) -> WindowTrend:
    """Least-squares line through (ln N, delta_f) pairs: finite sizes >= 1
    and finite, positive widths."""
    n = _check_sizes(n_qubits_values)
    df = np.asarray(delta_f_values, dtype=float)
    if n.shape != df.shape or n.ndim != 1 or n.size < 2:
        raise ParameterError("need matching 1-d arrays with at least two points")
    if not np.all((df > 0.0) & (df < np.inf)):
        raise ParameterError("window widths must be finite and positive")
    x = np.log(n)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise SingularFitError("all lattice sizes identical; trend slope not identifiable")
    b = float(np.sum((x - x.mean()) * (df - df.mean())) / sxx)
    a = float(df.mean() - b * x.mean())
    rms = float(np.sqrt(np.mean((a + b * x - df) ** 2)))
    return WindowTrend(coeff_a=a, coeff_b_ln=b, rms_residual_mhz=rms, n_points=int(n.size))


def predict_delta_f(trend: WindowTrend, n_qubits) -> float:
    n = _check_sizes(n_qubits)
    out = trend.coeff_a + trend.coeff_b_ln * np.log(n)
    return float(out) if np.isscalar(n_qubits) else out


def required_sigma(delta_f_mhz: float, n_qubits: int, target_yield: float) -> float:
    """Scatter level at which the window model hits a wanted yield.

    The closed form delta_f / Phi^-1(target**(1/N)), with the tail 1 - target**(1/N)
    taken as -expm1(ln(target) / N) so that it keeps its digits near yield 1.  The
    target must lie above the large-sigma limit 0.5**N and below 1; sigma diverges
    just above that limit, so one above 1e9 MHz is reported as unreachable.
    """
    if not delta_f_mhz > 0.0:
        raise ParameterError("delta_f must be positive")
    check_count("n_qubits", n_qubits)
    if not (0.0 < target_yield < 1.0):
        raise ParameterError("target_yield must be inside (0, 1)")
    floor = 0.5 ** n_qubits
    if target_yield <= floor:
        raise ParameterError(f"target_yield {target_yield} at or below the large-sigma limit {floor:g}")
    try:  # Phi^-1(target**(1/N)) = -Phi^-1(1 - target**(1/N))
        x = -NormalDist().inv_cdf(-np.expm1(np.log(target_yield) / n_qubits))
    except StatisticsError as exc:  # the tail 1 - target**(1/N) underflowed to 0
        raise ParameterError(f"target_yield {target_yield} too close to 1 for N = {n_qubits}") from exc
    if not x >= delta_f_mhz / 1e9:  # sigma above 1e9 MHz, infinite or NaN
        raise ParameterError("target_yield unreachable")
    return float(delta_f_mhz / x)
