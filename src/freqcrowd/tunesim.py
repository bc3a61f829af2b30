"""Adaptive junction-resistance trimming simulation.

Thermal annealing can only *raise* a junction's room-temperature resistance,
so a tuning campaign assigns each junction a target at or above its initial
value and walks it upward in measured steps.  Each step picks a calibrated
(power, duration) setting whose expected fractional resistance shift is a
set fraction of the remaining gap; the realised shift carries multiplicative
lognormal noise.  A junction converges once its resistance sits within a
small fractional band of the target; raising it beyond the band is terminal,
since there is no way back down.

A campaign is a function of its inputs: populations and targets are float
arrays, each tuned junction comes back as a frozen :class:`JunctionRecord`, and
junction j under master seed s always sees the same counter-based noise
stream, so the tuning order changes no junction.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .mc import Streams, philox_rng
from .physics import PowerLawFit, group_medians, grouped_sigma, predict_frequency_ghz

CONVERGED = "converged"
OVERSHOT = "overshot"
EXHAUSTED = "exhausted"

# Flagship two-group campaign: as-fabricated median and fractional scatter,
# post-trim resistance targets and group sizes, anneal noise, fit residual (MHz).
DEFAULT_MEDIAN_OHM = 7600.0
DEFAULT_FRACTIONAL_SIGMA = 0.046
TWO_GROUP_TARGETS_OHM = (7984.0, 8798.0)
TWO_GROUP_SIZES = (16, 15)
TWO_GROUP_JUNCTIONS = sum(TWO_GROUP_SIZES)
DEFAULT_NOISE_SIGMA = 0.10
DEFAULT_RESIDUAL_STD_MHZ = 14.5
# Resistances a junction may take, ohm, and the largest realised frequency a
# converged junction may take, GHz: squared deviations and their mean stay finite.
MIN_OHM, MAX_OHM = 1e-100, 1e100
MAX_GHZ = 1e100


@dataclass(frozen=True)
class AnnealStep:
    power: float
    duration_s: float
    expected_shift: float
    realized_shift: float
    r_after_ohm: float


@dataclass(frozen=True)
class JunctionRecord:
    """One tuned junction: its resistances, terminal status and anneals."""

    junction_id: int
    r_initial_ohm: float
    r_target_ohm: float
    r_ohm: float
    status: str
    steps: tuple


class AnnealResponseModel:
    """Calibrated anneal response: (power, duration) -> expected fractional
    resistance shift, plus the shot-to-shot noise level.

    The default surface is strongly nonlinear in power — shift proportional
    to (power/max_power)**20 — and linear in duration, spanning roughly
    2e-4 to 0.15 so a controller can resolve shifts far below its
    convergence band while still reaching deep targets in a few steps.
    Realised shifts are expected * exp(N(0, noise_sigma)): median-preserving
    multiplicative scatter.
    """

    MAX_SHIFT = 0.15

    def __init__(self, calibration: dict, noise_sigma: float = DEFAULT_NOISE_SIGMA):
        if not 0.0 <= noise_sigma < np.inf:  # NaN fails too
            raise ParameterError("noise_sigma must be finite and >= 0", "noise_sigma")
        if not calibration:
            raise InputError("calibration table is empty")
        by_duration: dict = {}
        for (power, duration), shift in calibration.items():
            if not 0.0 <= shift <= self.MAX_SHIFT:
                raise InputError(f"shift {shift} at ({power}, {duration}) outside [0, {self.MAX_SHIFT}]")
            by_duration.setdefault(duration, []).append((power, shift))
        for duration, rows in by_duration.items():
            rows.sort()
            shifts = [s for _, s in rows]
            if any(b <= a for a, b in zip(shifts, shifts[1:])):
                raise InputError(f"shifts not strictly increasing in power at duration {duration}")
        self.calibration = dict(calibration)
        self.noise_sigma = float(noise_sigma)
        self._ladder = sorted(((shift, power, duration) for (power, duration), shift
                               in calibration.items() if shift > 0.0))
        if not self._ladder:
            raise InputError("calibration table has no positive shift")

    @classmethod
    def default(cls, noise_sigma: float = DEFAULT_NOISE_SIGMA) -> "AnnealResponseModel":
        powers = np.linspace(0.80, 1.00, 21)
        durations = np.geomspace(1.0, 10.0, 7)
        cal = {
            (round(float(p), 3), round(float(t), 3)): cls.MAX_SHIFT * float(p) ** 20 * float(t) / 10.0
            for p in powers
            for t in durations
        }
        return cls(cal, noise_sigma=noise_sigma)

    def pick_step(self, wanted_shift: float):
        """Largest calibrated setting with expected shift <= wanted, or the
        gentlest setting when even that overshoots the request."""
        if not wanted_shift > 0.0:  # NaN fails too
            raise ParameterError("wanted_shift must be positive")
        last = bisect_right(self._ladder, wanted_shift, key=lambda entry: entry[0]) - 1
        shift, power, duration = self._ladder[max(last, 0)]
        return power, duration, shift

    def realized_shift(self, expected: float, rng: np.random.Generator) -> float:
        return float(expected * np.exp(rng.normal(0.0, self.noise_sigma)))


@dataclass(frozen=True)
class TunePolicy:
    step_fraction: float = 0.5     # aim each anneal at this share of the remaining gap
    converge_band: float = 0.003   # fractional distance from target that counts as done
    max_anneals: int = 50

    def __post_init__(self):
        if not 0.0 < self.step_fraction <= 1.0:
            raise ParameterError("step_fraction must be in (0, 1]", "step_fraction")
        if not 0.0 < self.converge_band < 1.0:
            raise ParameterError("converge_band must be in (0, 1)", "converge_band")
        if self.max_anneals < 1:
            raise ParameterError("max_anneals must be >= 1", "max_anneals")


def generate_population(n: int, median_ohm: float = DEFAULT_MEDIAN_OHM,
                        fractional_sigma: float = DEFAULT_FRACTIONAL_SIGMA,
                        master_seed: int = 0) -> np.ndarray:
    """As-fabricated resistances, junction j at index j, with lognormal
    scatter: R = median * exp(sigma * z), each in [MIN_OHM, MAX_OHM]."""
    if n < 1:
        raise ParameterError("n must be >= 1", "n")
    if not 0.0 < median_ohm < np.inf:  # NaN fails too
        raise ParameterError("median must be finite and positive", "median_ohm")
    if not 0.0 <= fractional_sigma < np.inf:
        raise ParameterError("scatter must be finite and non-negative", "fractional_sigma")
    z = philox_rng(master_seed, [0, 0, 1, 0]).standard_normal(n)  # lane 1: no junction's stream
    with np.errstate(over="ignore"):
        r = median_ohm * np.exp(fractional_sigma * z)
    if not np.all((r >= MIN_OHM) & (r <= MAX_OHM)):
        at_fault = "fractional_sigma" if MIN_OHM <= median_ohm <= MAX_OHM else "median_ohm"
        raise ParameterError(f"draws a resistance outside [{MIN_OHM:g}, {MAX_OHM:g}] ohm", at_fault)
    return r


def two_group_split(r_ohm, targets_ohm=TWO_GROUP_TARGETS_OHM, sizes=TWO_GROUP_SIZES):
    """Per-junction targets and group indices, aligned with the input, that
    split a population between resistance targets, ``sizes[k]`` junctions each.

    Junctions are ranked by resistance and groups filled in ascending target
    order, so the lowest-resistance junctions take the lowest resistance
    target — every junction keeps upward headroom.  No status is set:
    :func:`tune_junction` decides each, so a junction above its target but
    inside the convergence band converges with no anneal.
    """
    targets, sizes = np.asarray(targets_ohm, dtype=float), np.asarray(sizes, dtype=int)
    if targets.shape != sizes.shape:
        raise InputError("one size per target group required")
    if sizes.sum() != len(r_ohm):
        raise InputError(f"group sizes sum to {sizes.sum()}, need {len(r_ohm)}")
    rank, by_target = np.argsort(np.argsort(r_ohm)), np.argsort(targets)
    group = by_target[np.searchsorted(np.cumsum(sizes[by_target]), rank, side="right")]
    return targets[group], group


def spread_targets(r_ohm, lo_fraction: float, hi_fraction: float) -> np.ndarray:
    """Per-junction targets evenly spanning [lo, hi] fractional offsets above
    initial resistance (a stress profile covering shallow to deep trims)."""
    if not 0.0 <= lo_fraction <= hi_fraction < np.inf:  # NaN fails too
        raise ParameterError("need 0 <= lo <= hi, both finite", "lo_fraction")
    with np.errstate(over="ignore"):
        targets = r_ohm * (1.0 + np.linspace(lo_fraction, hi_fraction, len(r_ohm)))
    if not np.all(targets <= MAX_OHM):  # targets at or above a population are above MIN_OHM
        raise ParameterError(f"puts a target above {MAX_OHM:g} ohm", "hi_fraction")
    return targets


def tune_junction(junction_id: int, r_ohm: float, r_target_ohm: float,
                  model: AnnealResponseModel, policy: TunePolicy,
                  rng: np.random.Generator) -> JunctionRecord:
    """Run the adaptive anneal loop on one junction until terminal.

    A junction already inside the convergence band takes zero anneals; one
    whose resistance sits above the band before any anneal is exhausted
    (targets below the wire cannot be reached); exceeding the band after
    annealing is an overshoot.  The anneal budget running out is exhaustion.
    A shift that overflows, or takes the resistance above ``MAX_OHM``, is a
    :class:`ParameterError` naming ``noise_sigma``, which alone can reach it.
    """
    if not (MIN_OHM <= r_ohm <= MAX_OHM and MIN_OHM <= r_target_ohm <= MAX_OHM):  # NaN fails
        raise ParameterError(f"resistance and target must lie in [{MIN_OHM:g}, {MAX_OHM:g}] ohm")
    band = policy.converge_band * r_target_ohm
    r, steps = r_ohm, []
    with np.errstate(over="ignore"):  # a shift that overflows is refused below
        while r_target_ohm - r > band and len(steps) < policy.max_anneals:
            gap = r_target_ohm / r - 1.0
            power, duration, expected = model.pick_step(policy.step_fraction * gap)
            realized = model.realized_shift(expected, rng)
            r = r * (1.0 + realized)
            steps.append(AnnealStep(power, duration, expected, realized, r))
    if not r <= MAX_OHM:  # anneals only raise r, and r above the target ends them
        raise ParameterError(f"anneal noise takes a resistance above {MAX_OHM:g} ohm", "noise_sigma")
    if abs(r - r_target_ohm) <= band:
        status = CONVERGED
    else:
        status = OVERSHOT if steps and r > r_target_ohm else EXHAUSTED
    return JunctionRecord(junction_id, r_ohm, r_target_ohm, r, status, tuple(steps))


@dataclass(frozen=True)
class CampaignResult:
    records: tuple
    n_converged: int
    converged_fraction: float
    sigma_r_ohm: float | None            # converged: RMS distance to target
    group_median_r_ohm: dict
    group_median_f_ghz: dict
    pooled_sigma_f_mhz: float | None     # converged: RMS about per-group frequency medians
    target_sigma_f_mhz: float | None     # converged: RMS of realised f minus per-junction target f
    predicted_sigma_f_mhz: float | None  # quadrature of fit residual and band-limited trim error


def run_campaign(r_ohm, targets_ohm, *, model: AnnealResponseModel | None = None,
                 policy: TunePolicy | None = None, master_seed: int = 0,
                 fit: PowerLawFit | None = None, group_ids=None) -> CampaignResult:
    """Tune junction j from r_ohm[j] to targets_ohm[j] on stream j of master_seed; summarise.

    Each junction's realised frequency is the fit (``default_wafer_fit()``
    unless given) at its final resistance plus a residual draw at the fit's
    residual_std, on its own stream after its anneals — the device-to-device
    scatter trimming cannot touch.  Two frequency-precision flavours are
    reported: scatter about the per-group medians (what a post-tune refit of
    the population sees) and deviation from the per-junction targets (how
    well the campaign hit its setpoints); the second is the one the
    quadrature prediction models, since the one-sided approach parks
    converged junctions near the low edge of the resistance band and the
    median absorbs that shared offset.  Figures over converged junctions are
    None when none converged; a converged junction's realised frequency
    outside (0, ``MAX_GHZ``] is a :class:`ParameterError` naming
    ``residual_std_mhz``.
    """
    model = model if model is not None else AnnealResponseModel.default()
    policy = policy if policy is not None else TunePolicy()
    fit = fit if fit is not None else default_wafer_fit()
    r = np.asarray(r_ohm, dtype=float)
    target_r = np.asarray(targets_ohm, dtype=float)
    gid = np.zeros(r.shape, dtype=int) if group_ids is None else np.asarray(group_ids, dtype=int)
    if not (r.ndim == 1 and 0 < r.size and r.shape == target_r.shape == gid.shape):
        raise InputError("resistances, targets and group ids must be equal-length 1-d arrays")
    if not 0.0 <= fit.residual_std_mhz < np.inf:
        raise ParameterError("fit residual_std_mhz must be finite and >= 0", "residual_std_mhz")

    streams, records, noise = Streams(master_seed), [], np.empty(r.size)
    for j, (r_j, target_j) in enumerate(zip(r.tolist(), target_r.tolist())):
        rng = streams.at(j)
        records.append(tune_junction(j, r_j, target_j, model, policy, rng))
        noise[j] = rng.normal(0.0, fit.residual_std_mhz * 1e-3)

    conv = np.array([rec.status == CONVERGED for rec in records])
    final_r = np.array([rec.r_ohm for rec in records])
    realized_f = predict_frequency_ghz(fit, final_r) + noise
    n_conv = int(conv.sum())
    sigma_r = pooled = vs_target = predicted = None
    if n_conv:
        f_conv = realized_f[conv]
        if not np.all((f_conv > 0.0) & (f_conv <= MAX_GHZ)):  # NaN fails too
            raise ParameterError(f"draws a converged frequency outside (0, {MAX_GHZ:g}] GHz",
                                 "residual_std_mhz")
        sigma_r = float(np.sqrt(np.mean((final_r[conv] - target_r[conv]) ** 2)))
        pooled = grouped_sigma(f_conv, gid[conv]).pooled_sigma_mhz
        target_f = predict_frequency_ghz(fit, target_r)
        dev_mhz = (f_conv - target_f[conv]) * 1e3
        vs_target = float(np.sqrt(np.mean(dev_mhz**2)))
        trim_mhz = abs(fit.exponent) * policy.converge_band * float(np.mean(target_f[conv])) * 1e3
        predicted = float(np.hypot(fit.residual_std_mhz, trim_mhz))
    return CampaignResult(
        records=tuple(records),
        n_converged=n_conv,
        converged_fraction=n_conv / r.size,
        sigma_r_ohm=sigma_r,
        group_median_r_ohm=group_medians(final_r, gid),
        group_median_f_ghz=group_medians(realized_f, gid),
        pooled_sigma_f_mhz=pooled,
        target_sigma_f_mhz=vs_target,
        predicted_sigma_f_mhz=predicted,
    )


def history_rows(records):
    """Flatten anneal histories to row dicts keyed id, step, power,
    duration_s, resistance_ohm and status; step 0 is the as-fabricated state."""
    rows = []
    for rec in records:
        states = [(0.0, 0.0, rec.r_initial_ohm)]
        states += [(st.power, st.duration_s, st.r_after_ohm) for st in rec.steps]
        for k, (power, duration_s, r_ohm) in enumerate(states):
            rows.append({"id": rec.junction_id, "step": k, "power": power,
                         "duration_s": duration_s, "resistance_ohm": r_ohm, "status": rec.status})
    return rows


def default_wafer_fit(residual_std_mhz: float = DEFAULT_RESIDUAL_STD_MHZ) -> PowerLawFit:
    """Representative wafer calibration: ideal -1/2 power law anchored so a
    junction at the lower two-group target sits at 5.7046 GHz, with the given
    residual scatter (MHz)."""
    prefactor = 5.7046 * np.sqrt(TWO_GROUP_TARGETS_OHM[0])
    return PowerLawFit(prefactor=float(prefactor), exponent=-0.5,
                       residual_std_mhz=residual_std_mhz, n_points=31, exponent_fixed=True)
