"""freqcrowd benchmark: time a workload, check its results, print its metrics.

Usage, from the root of a freqcrowd checkout:

    python3 perfbench/run.py --workload sweep_large --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` the per-layer metrics from a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the environment, digests, z-scores and per-item detail, also
written under ``.perfbench_work/reports/``.  README.md in this directory
describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import REFERENCE, ROOT, SRC, WORK  # noqa: E402

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def _probe(workload, *python_flags):
    """Run the set-up probe for ``workload`` in a fresh process."""
    return subprocess.run(
        [sys.executable, *python_flags, str(ROOT / "perfbench" / "setup_probe.py"),
         workload.setup_module, *(f"{f}:{d}" for f, d in workload.setup_lattices)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)


def _repeat(solve, trace: bool, seconds: float):
    """Repeat ``solve`` until ``seconds`` have passed, at least once."""
    solution_s, item_s, outputs = [], array("d"), []
    start = perf_counter()
    while not solution_s or perf_counter() - start < seconds:
        t0 = perf_counter()
        output, items = solve(trace)
        solution_s.append(perf_counter() - t0)
        item_s.extend(items)
        outputs.append(output)
    return solution_s, item_s, outputs


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "freqcrowd").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit, "source_sha256": source.hexdigest(),
        "seed": seed, "threads": 1,
    }


def _lattice_shapes() -> dict:
    """Qubit count -> (couplings, spectator triples) of each of the nine lattices,
    counted by the reference code."""
    from freqcrowd import lattice
    from perfbench.checks import reference
    from perfbench.workloads import NINE
    shapes = {}
    for family, d in NINE:
        lat = lattice.build_lattice(family, d)
        edges = [tuple(e) for e in lat.edges]
        shapes[lat.n_qubits] = (len(edges), len(reference.spectator_triples(lat.n_qubits, edges)))
    return shapes


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    from perfbench import metrics
    from perfbench.tracer import layer_metrics, parse_importtime
    from perfbench.workloads import WORKLOADS
    cls = WORKLOADS[workload_name]
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            imports = parse_importtime(_probe(cls, "-X", "importtime").stderr)
        else:
            setup = [float(_probe(cls).stdout.strip().splitlines()[-1])
                     for _ in range(SETUP_REPEATS)]
        w = cls(seed, work)
        w.warm()
        if trace:
            base_s, _, outputs = _repeat(w.solve, False, seconds / 2)
            traced_s, _, traced_out = _repeat(w.solve, True, seconds / 2)
            digests = {w.digest(o) for o in outputs + traced_out}
            outputs += traced_out
            solution_s = base_s
        else:
            solution_s, item_s, outputs = _repeat(w.solve, False, seconds)
            peak_rss = w.peak_rss_mb()
        failed, info = w.check(outputs)
        attempted = sum(w.n_items(o) for o in outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": workload_name, "trace": int(trace), "seconds": seconds,
              "environment": _environment(seed), "solutions": len(solution_s), "check": info}
    correct = failed == 0
    if trace:
        layers = layer_metrics(w.spans(), len(traced_s), _lattice_shapes())
        layers.update(w.layer_extras())
        for name in metrics.PER_LAYER:
            if name.endswith(".import_s"):
                layers[name] = imports.get(name[:-len(".import_s")], 0.0)
        layers["bench.traced_solution_s"] = statistics.median(traced_s)
        layers["bench.trace_overhead_ratio"] = statistics.median(traced_s) / statistics.median(base_s)
        report["untraced_solution_s"] = base_s
        report["traced_solution_s"] = traced_s
        report["digests_match"] = len(digests) == 1
        correct = correct and len(digests) == 1
        values = {name: layers.get(name, 0.0) for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "solution_s": statistics.median(solution_s),
            "items_per_s": len(item_s) / sum(solution_s),
            "item_s_p50": statistics.median(item_s),
            "peak_rss_mb": peak_rss,
        }
        units = metrics.END_TO_END
        report["setup_s"] = setup
        report["solution_s"] = solution_s
        report["items_per_solution"] = len(item_s) // len(solution_s)
        if len(item_s) >= 100:  # at least ten samples beyond the 90th percentile
            report["item_s_p90"] = statistics.quantiles(item_s, n=10)[-1]
        report["item_samples"] = len(item_s)
    report["metrics"] = values
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_large", "chip_check", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "freqcrowd" / "__init__.py", REFERENCE):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a freqcrowd "
                  f"checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    line = json.dumps(report)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
