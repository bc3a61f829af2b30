"""Names and units of every metric the benchmark prints.

BENCHMARK.json at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

# End-to-end, measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "solution_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "peak_rss_mb": "MB",
}

_KERNEL = "collision.count_collisions_batch"

# Per layer, from the separate traced run, per full result of the workload.
PER_LAYER = {
    f"{_KERNEL}.calls": "count",
    f"{_KERNEL}.rows": "count",
    f"{_KERNEL}.self_s": "s",
    f"{_KERNEL}.rows_per_s": "1/s",
    f"{_KERNEL}.minflt": "count",
    f"{_KERNEL}.predicate_evals_computed": "count",
    f"{_KERNEL}.bytes_computed": "bytes",
    "collision.count_collisions.calls": "count",
    "collision.count_collisions.self_s": "s",
    "collision.count_collisions.instances": "count",
    "collision.build_index.calls": "count",
    "collision.build_index.self_s": "s",
    "lattice.next_nearest_triples.self_s": "s",
    "mc.optimize_spacing.calls": "count",
    "mc.optimize_spacing.self_s": "s",
    "mc.spacing_evals": "count",
    "mc.boosts": "count",
    "mc.useful_row_ratio": "ratio",
    "mc.run_point.self_s": "s",
    "mc.sweep_sigma.self_s": "s",
    "mc.gaussian_deviates.calls": "count",
    "mc.gaussian_deviates.rows": "count",
    "mc.gaussian_deviates.self_s": "s",
    "window.fit_window.calls": "count",
    "window.fit_window.self_s": "s",
    "tunesim.run_campaign.calls": "count",
    "tunesim.run_campaign.self_s": "s",
    "tunesim.anneal_steps": "count",
    "tunesim.converged_ratio": "ratio",
    "svgchart.line_chart.self_s": "s",
    "cli.main.self_s": "s",
    "cli.process_import_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    **{f"{module}.import_s": "s" for module in (
        "freqcrowd", "freqcrowd.errors", "freqcrowd.lattice", "freqcrowd.collision",
        "freqcrowd.mc", "freqcrowd.physics", "freqcrowd.tunesim", "freqcrowd.window",
        "freqcrowd.svgchart", "freqcrowd.cli", "scipy")},
    "bench.traced_solution_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

# Per-layer metrics where a larger value is the better one; all others are
# costs.  Only BENCHMARK.json needs the direction; it is kept here so the
# tests can check that file against one list.
HIGHER_IS_BETTER = {
    f"{_KERNEL}.rows_per_s",
    "collision.count_collisions.instances",
    "mc.useful_row_ratio",
    "tunesim.converged_ratio",
}
