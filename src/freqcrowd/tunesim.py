"""Adaptive junction-resistance trimming simulation.

Thermal annealing can only *raise* a junction's room-temperature resistance,
so a tuning campaign assigns each junction a target at or above its initial
value and walks it upward in measured steps.  Each step picks a calibrated
(power, duration) setting whose expected fractional resistance shift is a
set fraction of the remaining gap; the realised shift carries multiplicative
lognormal noise.  A junction converges once its resistance sits within a
small fractional band of the target; raising it beyond the band is terminal,
since there is no way back down.

Per-junction randomness is counter-based: junction j under master seed s
always sees the same noise stream, independent of campaign composition and
iteration order, so parallel and serial campaigns agree.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError
from .mc import philox_rng
from .physics import PowerLawFit, group_medians, grouped_sigma, predict_frequency_ghz

PENDING = "pending"
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


@dataclass(frozen=True)
class AnnealStep:
    power: float
    duration_s: float
    expected_shift: float
    realized_shift: float
    r_after_ohm: float


@dataclass
class JunctionRecord:
    junction_id: int
    r_initial_ohm: float
    r_ohm: float
    r_target_ohm: float = float("nan")
    status: str = PENDING
    steps: list = field(default_factory=list)


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


def junction_rng(master_seed: int, junction_id: int) -> np.random.Generator:
    return philox_rng(master_seed, [0, 0, 0, junction_id])


def generate_population(n: int, median_ohm: float = DEFAULT_MEDIAN_OHM,
                        fractional_sigma: float = DEFAULT_FRACTIONAL_SIGMA,
                        master_seed: int = 0) -> list:
    """As-fabricated junctions with lognormal resistance scatter:
    R = median * exp(sigma * z), targets unassigned."""
    if n < 1:
        raise ParameterError("n must be >= 1", "n")
    if not 0.0 < median_ohm < np.inf:  # NaN fails too
        raise ParameterError("median must be finite and positive", "median_ohm")
    if not 0.0 <= fractional_sigma < np.inf:
        raise ParameterError("scatter must be finite and non-negative", "fractional_sigma")
    z = philox_rng(master_seed, [0, 0, 1, 0]).standard_normal(n)  # lane 1: no junction's stream
    r = median_ohm * np.exp(fractional_sigma * z)
    return [JunctionRecord(j, float(r[j]), float(r[j])) for j in range(n)]


def two_group_split(records, targets_ohm=TWO_GROUP_TARGETS_OHM, sizes=TWO_GROUP_SIZES):
    """Split a population between resistance targets and set per-record targets.

    Records are ranked by initial resistance and groups are filled in
    ascending target order, so the lowest-resistance junctions take the
    lowest resistance target — every junction keeps upward headroom.  No
    status is set: :func:`tune_junction` decides each, so a junction above
    its target but inside the convergence band converges with no anneal.

    Returns:
        group index per record, aligned with the input order.
    """
    targets = [float(t) for t in targets_ohm]
    sizes = [int(s) for s in sizes]
    if len(targets) != len(sizes):
        raise InputError("one size per target group required")
    if sum(sizes) != len(records):
        raise InputError(f"group sizes sum to {sum(sizes)}, need {len(records)}")
    rank = np.argsort(np.argsort([rec.r_ohm for rec in records]))
    bounds = np.cumsum(sizes)
    by_target = np.argsort(targets)
    grp = np.empty(len(records), dtype=int)
    for j, rec in enumerate(records):
        gslot = int(np.searchsorted(bounds, rank[j], side="right"))
        grp[j] = by_target[gslot]
        rec.r_target_ohm = targets[by_target[gslot]]
    return grp


def spread_targets(records, lo_fraction: float, hi_fraction: float) -> None:
    """Per-junction targets evenly spanning [lo, hi] fractional offsets above
    initial resistance (a stress profile covering shallow to deep trims)."""
    if not 0.0 <= lo_fraction <= hi_fraction < np.inf:  # NaN fails too
        raise ParameterError("need 0 <= lo <= hi, both finite", "lo_fraction")
    offs = np.linspace(lo_fraction, hi_fraction, len(records))
    for rec, off in zip(records, offs):
        rec.r_target_ohm = rec.r_ohm * (1.0 + float(off))


def tune_junction(record: JunctionRecord, model: AnnealResponseModel,
                  policy: TunePolicy, rng: np.random.Generator) -> JunctionRecord:
    """Run the adaptive anneal loop on one junction until terminal.

    A junction already inside the convergence band takes zero anneals; one
    whose resistance sits above the band before any anneal is exhausted
    (targets below the wire cannot be reached); exceeding the band after
    annealing is an overshoot.  The anneal budget running out is exhaustion.
    """
    if record.r_ohm <= 0.0 or not record.r_target_ohm > 0.0:
        raise ParameterError("current and target resistance must be positive")
    band = policy.converge_band * record.r_target_ohm
    while True:
        if abs(record.r_ohm - record.r_target_ohm) <= band:
            record.status = CONVERGED
            return record
        if record.r_ohm > record.r_target_ohm + band:
            record.status = OVERSHOT if record.steps else EXHAUSTED
            return record
        if len(record.steps) >= policy.max_anneals:
            record.status = EXHAUSTED
            return record
        gap = record.r_target_ohm / record.r_ohm - 1.0
        power, duration, expected = model.pick_step(policy.step_fraction * gap)
        realized = model.realized_shift(expected, rng)
        record.r_ohm = record.r_ohm * (1.0 + realized)
        record.steps.append(AnnealStep(power, duration, expected, realized, record.r_ohm))


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


def run_campaign(records, *, model: AnnealResponseModel | None = None,
                 policy: TunePolicy | None = None, master_seed: int = 0,
                 fit: PowerLawFit | None = None, group_ids=None) -> CampaignResult:
    """Tune a whole population (targets already assigned) and summarise.

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
    None when none converged.
    """
    model = model if model is not None else AnnealResponseModel.default()
    policy = policy if policy is not None else TunePolicy()
    fit = fit if fit is not None else default_wafer_fit()
    if not records:
        raise InputError("no junctions to tune")
    if any(not np.isfinite(rec.r_target_ohm) for rec in records):
        raise InputError("assign targets before running a campaign")
    if not 0.0 <= fit.residual_std_mhz < np.inf:
        raise ParameterError("fit residual_std_mhz must be finite and >= 0", "residual_std_mhz")
    gid = np.zeros(len(records), dtype=int) if group_ids is None else np.asarray(group_ids, dtype=int)

    realized_f = np.empty(len(records))
    for j, rec in enumerate(records):
        rng = junction_rng(master_seed, rec.junction_id)
        tune_junction(rec, model, policy, rng)
        noise = rng.normal(0.0, fit.residual_std_mhz * 1e-3)
        realized_f[j] = predict_frequency_ghz(fit, rec.r_ohm) + noise

    conv = np.array([rec.status == CONVERGED for rec in records])
    final_r = np.array([rec.r_ohm for rec in records])
    target_r = np.array([rec.r_target_ohm for rec in records])
    n_conv = int(conv.sum())
    sigma_r = pooled = vs_target = predicted = None
    if n_conv:
        sigma_r = float(np.sqrt(np.mean((final_r[conv] - target_r[conv]) ** 2)))
        pooled = grouped_sigma(realized_f[conv], gid[conv]).pooled_sigma_mhz
        target_f = predict_frequency_ghz(fit, target_r)
        dev_mhz = (realized_f[conv] - target_f[conv]) * 1e3
        vs_target = float(np.sqrt(np.mean(dev_mhz**2)))
        trim_mhz = abs(fit.exponent) * policy.converge_band * float(np.mean(target_f[conv])) * 1e3
        predicted = float(np.hypot(fit.residual_std_mhz, trim_mhz))
    return CampaignResult(
        records=tuple(records),
        n_converged=n_conv,
        converged_fraction=n_conv / len(records),
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
