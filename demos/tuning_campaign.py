"""Simulated laser-trim campaign: 31 junctions into two frequency groups.

Annealing only raises resistance, so the controller creeps up on each
target from below, taking the largest calibrated step that should not cross
it.  The achieved frequency precision is limited by two things trimming
cannot fix: the resistance-frequency fit residual, and the convergence band
itself.  Their quadrature sum predicts what the campaign delivers.
"""
from freqcrowd import tunesim

SEED = 36

r = tunesim.generate_population(31, master_seed=SEED)
print(f"as-fabricated: median-ish {sorted(r)[15]:.0f} ohm, "
      f"total spread {100 * (r.max() / r.min() - 1.0):.1f}%")

targets, group_ids = tunesim.two_group_split(r)
result = tunesim.run_campaign(r, targets, master_seed=SEED,
                              fit=tunesim.default_wafer_fit(), group_ids=group_ids)

print(f"converged {result.n_converged}/{len(result.records)}, "
      f"sigma_R = {result.sigma_r_ohm:.1f} ohm")
for g in sorted(result.group_median_r_ohm):
    print(f"  group {g}: median R {result.group_median_r_ohm[g]:7.1f} ohm "
          f"(target {tunesim.TWO_GROUP_TARGETS_OHM[g]:.0f}), "
          f"median f {result.group_median_f_ghz[g]:.4f} GHz")
print(f"frequency precision: {result.pooled_sigma_f_mhz:.2f} MHz about group medians, "
      f"{result.target_sigma_f_mhz:.2f} MHz against targets")
print(f"quadrature prediction from fit residual + band: "
      f"{result.predicted_sigma_f_mhz:.2f} MHz")

# a junction's walk toward its target
rec = max(result.records, key=lambda r: len(r.steps))
print(f"\nbusiest junction ({rec.junction_id}): "
      f"{rec.r_initial_ohm:.0f} -> {rec.r_target_ohm:.0f} ohm in {len(rec.steps)} anneals")
for k, step in enumerate(rec.steps, start=1):
    print(f"  step {k}: power {step.power:.3f}, {step.duration_s:5.2f} s, "
          f"expected +{100 * step.expected_shift:.2f}% got +{100 * step.realized_shift:.2f}% "
          f"-> {step.r_after_ohm:.0f} ohm")

# stress profile: 300 junctions, shallow to deep targets
deep = tunesim.generate_population(300, master_seed=SEED)
stress = tunesim.run_campaign(deep, tunesim.spread_targets(deep, 0.004, 0.145), master_seed=SEED)
print(f"\n300-junction stress: {100 * stress.converged_fraction:.1f}% converged, "
      f"longest history {max(len(r.steps) for r in stress.records)} anneals")
