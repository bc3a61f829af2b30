"""The three workloads.

Each prepares its inputs from the seed outside the timed region, then
``solve`` produces one full result of the workload (a "solution") and the
latency of each item in it.  ``check`` runs afterwards, untimed, over every
solution produced.  All calls into freqcrowd use ``threads=1``, the library
and CLI default, and go through module attributes so that the tracer's
rebinding sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from perfbench import ROOT, SRC
from perfbench.checks import PointChecker, check_chip, contract_deviates, sweep_digest
from perfbench.tracer import SigmaMarks, Tracer

NINE = tuple((family, d) for family in ("square", "heavy_square", "heavy_hexagon") for d in (3, 5, 7))

CHILD_TIMEOUT_S = 150


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _InProcess:
    """A workload that calls freqcrowd in this process, traced by ``self.tracer``."""

    def n_items(self, output) -> int:
        return len(output[0])

    def spans(self):
        return self.tracer.spans

    def layer_extras(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


class SweepLarge(_InProcess):
    """The default ``mc.sweep_sigma`` on square d=7, then ``window.fit_window``."""

    setup_module = "freqcrowd"
    setup_lattices = (("square", 7),)
    # Warm-up sweep: the smallest grid that still runs the 4000-trial boost
    # (at 14 MHz) and so allocates every array shape the timed sweep uses.
    warm_sigmas = (0.0, 14.0, 150.0)

    def __init__(self, seed: int, work: Path):
        from freqcrowd import lattice
        self.seed = seed
        self.lat = lattice.build_lattice("square", 7)
        self.pattern = lattice.FrequencyPattern()
        self.tracer = Tracer()

    def warm(self):
        from freqcrowd import mc
        mc.sweep_sigma(self.lat, self.pattern, self.warm_sigmas, master_seed=self.seed)

    def solve(self, trace: bool):
        from freqcrowd import mc, window
        marks = SigmaMarks()
        with self.tracer.active() if trace else marks.active():
            start = perf_counter()
            points = mc.sweep_sigma(self.lat, self.pattern, master_seed=self.seed)
            swept = perf_counter()
            fit = window.fit_window([(p.sigma_mhz, p.yield_fraction) for p in points],
                                    self.lat.n_qubits)
        # Point k runs from the first Monte Carlo call at its sigma to the
        # first call at the next; point 0 also carries the sweep's set-up.
        bounds = [start] + [t for t, _ in marks.marks[1:]] + [swept]
        if len(bounds) == len(points) + 1:
            item_s = [b - a for a, b in zip(bounds, bounds[1:])]
        else:  # traced, or the sweep no longer calls run_point/optimize_spacing per sigma
            item_s = [(swept - start) / len(points)] * len(points)
        return (points, fit), item_s

    def digest(self, output) -> str:
        return sweep_digest(output[0])

    def check(self, outputs):
        checker = PointChecker(self.lat, self.seed)
        verdicts = {}  # sweep digest -> (z, problems) per point
        failed = 0
        for points, fit in outputs:
            digest = sweep_digest(points)
            if digest not in verdicts:
                verdicts[digest] = [checker.check_point(p) for p in points]
            fit_ok = math.isfinite(fit.delta_f_mhz) and fit.delta_f_mhz > 0.0
            failed += len(points) if not fit_ok else sum(1 for _, probs in verdicts[digest] if probs)
        points, fit = outputs[0]
        info = {
            "sweep_points_sha256": sweep_digest(points),
            "distinct_results": len(verdicts),
            "window_delta_f_mhz": fit.delta_f_mhz,
            "points": [{"sigma_mhz": p.sigma_mhz, "spacing_mhz": p.spacing_mhz, "trials": p.trials,
                        "mean": p.mean_collisions, "z": z, "problems": probs}
                       for p, (z, probs) in zip(points, verdicts[sweep_digest(points)])],
        }
        return failed, info


class ChipCheck(_InProcess):
    """``collision.count_collisions(lat, f, collect=True)`` on single chips,
    as ``freqcrowd check`` calls it: no prebuilt index."""

    setup_module = "freqcrowd"
    setup_lattices = NINE
    lot_size = 900  # chips per solution: 50 per (lattice, sigma) pair
    sigmas = (14.0, 132.3)

    def __init__(self, seed: int, work: Path):
        from freqcrowd import lattice
        rng = np.random.default_rng(seed)
        lats = [lattice.build_lattice(f, d) for f, d in NINE]
        base = [lattice.set_points_mhz(lat, lattice.FrequencyPattern()) for lat in lats]
        self.chips = []
        for i in range(self.lot_size):
            k = i % len(lats)
            sigma = self.sigmas[i % len(self.sigmas)]
            self.chips.append((lats[k], base[k] + sigma * rng.standard_normal(lats[k].n_qubits)))
        # Brute-force checked: the first 18 chips cover every (lattice,
        # sigma) pair, then every 45th chip.
        self.sample = sorted(set(range(2 * len(lats))) | set(range(0, self.lot_size, 45)))
        # The first lot screened (the warm-up) keeps its sampled reports for
        # checking; each lot returns only (total, instances) per chip, so that
        # memory does not grow with the number of lots a run fits in.
        self.first = None
        self.tracer = Tracer()

    def warm(self):
        self.solve(False)

    def solve(self, trace: bool):
        from freqcrowd import collision
        item_s, reports = [], []
        with self.tracer.active() if trace else contextlib.nullcontext():
            for lat, f in self.chips:
                start = perf_counter()
                rep = collision.count_collisions(lat, f, collect=True)
                item_s.append(perf_counter() - start)
                reports.append(rep)
        fingerprint = np.array([(r.total, len(r.instances)) for r in reports], dtype=np.int32)
        if self.first is None:
            self.first = (fingerprint, {i: reports[i] for i in self.sample})
        return fingerprint, item_s

    def n_items(self, output) -> int:
        return len(output)

    def digest(self, output) -> str:
        return hashlib.sha256(output.tobytes()).hexdigest()

    def check(self, outputs):
        first, sampled = self.first
        problems = {i: check_chip(*self.chips[i], sampled[i]) for i in self.sample}
        bad = np.zeros(self.lot_size, dtype=bool)
        bad[[i for i, p in problems.items() if p]] = True
        failed = sum(int(np.sum(bad | np.any(fp != first, axis=1))) for fp in outputs)
        info = {"chips_per_solution": self.lot_size, "chips_brute_force_checked": len(self.sample),
                "problems": {str(i): p for i, p in problems.items() if p}}
        return failed, info


class CliCold:
    """Five ``freqcrowd`` commands, one fresh process each, in sequence."""

    setup_module = "freqcrowd.cli"
    setup_lattices = NINE

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        s = str(seed)
        self.commands = (
            ("sweep", "--family", "heavy_hexagon", "-d", "3", "--seed", s, "--name", "first",
             "--out", "out"),
            ("sweep", "--reproduce-table2", "--seed", s, "--name", "table2", "--out", "out"),
            ("tune", "--junctions", "300", "--target-spread", "0.4:14.5", "--seed", s,
             "--out", "out"),
            ("check", "--family", "square", "-d", "7", "--sigma-mhz", "14", "--seed", s,
             "--out", "out"),
            # Same run name, so the replay must match the first sweep byte for byte.
            ("rerun", "out/sweep/first/manifest.json", "--out", "out/rerun"),
        )
        # Only the source tree under test; no FREQCROWD_* settings leak in.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FREQCROWD_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.rounds = 0
        self.span_groups = []
        self.child_rss_kb = 0
        self.extras = []
        self._checkers = {}

    def warm(self):
        pass  # every command is a cold process by definition

    def solve(self, trace: bool):
        run_dir = self.work / f"round{self.rounds}"
        self.rounds += 1
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        codes, item_s, import_s = [], [], 0.0
        for k, args in enumerate(self.commands):
            report = run_dir / f"child{k}.json"
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), str(report),
                 "1" if trace else "0", *args],
                cwd=run_dir, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S)
            item_s.append(perf_counter() - start)
            codes.append(proc.returncode)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            if report.exists():
                child = json.loads(report.read_text())
                self.child_rss_kb = max(self.child_rss_kb, child["maxrss_kb"])
                import_s += child["import_s"]
                if trace:
                    self.span_groups.append(child["spans"])
        files = [p for p in (run_dir / "out").rglob("*") if p.is_file()]
        if trace:
            self.extras.append({"cli.process_import_s": import_s,
                                "cli.bytes_written": sum(p.stat().st_size for p in files),
                                "cli.files_written": len(files)})
        return (run_dir, tuple(codes)), item_s

    def n_items(self, output) -> int:
        return len(self.commands)

    def spans(self):
        from perfbench.tracer import merge
        return merge(self.span_groups)

    def digest(self, output) -> str:
        out = output[0] / "out"
        h = hashlib.sha256()
        for p in sorted(out.rglob("results.*")):
            h.update(str(p.relative_to(out)).encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    def check(self, outputs):
        failed, z_scores = 0, []
        for n, (run_dir, codes) in enumerate(outputs):
            for k, code in enumerate(codes):
                if code != 0:
                    problems = [f"exit code {code}"]
                else:
                    try:
                        problems = self._problems(k, run_dir / "out", z_scores if n == 0 else [])
                    except (OSError, KeyError, ValueError) as exc:
                        problems = [f"unreadable output: {exc!r}"]
                if problems:
                    failed += 1
                    sys.stderr.write(f"{' '.join(self.commands[k][:2])}: {problems}\n")
        return failed, {"exit_codes": [list(c) for _, c in outputs], "z_scores": z_scores}

    def _checker(self, family, distance):
        from freqcrowd import lattice
        key = (family, distance)
        if key not in self._checkers:
            self._checkers[key] = PointChecker(lattice.build_lattice(family, distance), self.seed)
        return self._checkers[key]

    def _problems(self, k, out, z_scores):
        """Problems with the output of command ``k`` under ``out``."""
        from freqcrowd import lattice, mc
        if k == 0:
            probs = []
            for p in json.loads((out / "sweep/first/results.json").read_text())["points"]:
                z, pr = self._checker("heavy_hexagon", 3).check(
                    p["sigma_f_mhz"], p["spacing_mhz"], p["trials"], p["mean_collisions"],
                    p["yield"], p["per_type_means"])
                z_scores.append(["heavy_hexagon-3", p["sigma_f_mhz"], z])
                probs += pr
            return probs
        if k == 1:
            rows = (out / "sweep/table2/results.csv").read_text().splitlines()[1:]
            probs = [] if len(rows) == len(NINE) else [f"{len(rows)} table rows"]
            for row in rows:
                family, d, _, mean_hi, spacing, mean_lo, yld, trials = row.split(",")
                checker = self._checker(family, int(d))
                z, pr = checker.check(14.0, float(spacing), int(trials), float(mean_lo), float(yld))
                z_scores.append([f"{family}-{d}", 14.0, z])
                probs += pr
                # The as-fabricated column reports no trial count; its
                # standard error is taken at the policy's base trials.
                base = mc.AdaptiveTrials().base_trials(int(d), 132.3)
                z, pr = checker.check(132.3, float(spacing), base, float(mean_hi), exact=False)
                z_scores.append([f"{family}-{d}", 132.3, z])
                probs += pr
            return probs
        if k == 2:
            res = json.loads((out / "tune/default/results.json").read_text())
            if res["n_junctions"] == 300 and res["converged_fraction"] >= 0.99:
                return []
            return [f"tune converged {res['n_converged']}/{res['n_junctions']}"]
        if k == 3:
            res = json.loads((out / "check/default/results.json").read_text())
            lat = self._checker("square", 7).lat
            f = (lattice.set_points_mhz(lat, lattice.FrequencyPattern())
                 + 14.0 * contract_deviates(self.seed, 1, lat.n_qubits)[0])
            return check_chip(lat, f, SimpleNamespace(**res))
        first, again = out / "sweep/first", out / "rerun/sweep/first"
        names = json.loads((first / "manifest.json").read_text())["outputs"]
        return [f"rerun {name} differs" for name in names
                if (first / name).read_bytes() != (again / name).read_bytes()]

    def layer_extras(self) -> dict:
        return {k: statistics.fmean(e[k] for e in self.extras) for k in self.extras[0]} \
            if self.extras else {}

    def peak_rss_mb(self) -> float:
        return max(_self_rss_mb(), self.child_rss_kb / 1024.0)


WORKLOADS = {"sweep_large": SweepLarge, "chip_check": ChipCheck, "cli_cold": CliCold}

# The workloads BENCHMARK.json lists.  chip_check still runs by hand, but its
# 0.4 s lots swing by up to 2x with the load on a shared machine, too much for
# any bound the benchmark format allows (README.md, "Run-to-run spread").
LISTED = ("sweep_large", "cli_cold")
