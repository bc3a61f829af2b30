"""Correctness checks for every result the benchmark times; run untimed.

Monte Carlo means are compared with the closed-form expectation and single
assignments with the brute-force counter, both from ``tests/reference.py``,
the package's independent oracle.  Each check returns a list of problems;
an empty list means the item passed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import math
from collections import Counter

import numpy as np

from perfbench import REFERENCE

# |z| allowed between a Monte Carlo mean and its closed-form expectation.
# Choosing the spacing on the same sample biases the mean low by up to
# about 2 standard errors; 5 leaves room for that plus chance over the
# thousands of points a benchmark campaign checks.
Z_BOUND = 5.0


def _load_reference():
    spec = importlib.util.spec_from_file_location("freqcrowd_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def contract_deviates(master_seed: int, n_trials: int, n_qubits: int) -> np.ndarray:
    """The deviates freqcrowd.mc promises: trial t draws from Philox keyed by
    the seed with counter t, and qubit q takes position q of that draw."""
    z = np.empty((n_trials, n_qubits))
    for t in range(n_trials):
        gen = np.random.Generator(np.random.Philox(key=master_seed, counter=[0, 0, 0, t]))
        z[t] = gen.standard_normal(n_qubits)
    return z


def sweep_digest(points) -> str:
    """SHA-256 over every field of every SweepPoint, floats at full precision."""
    h = hashlib.sha256()
    for p in points:
        h.update(repr(dataclasses.astuple(p)).encode())
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


class PointChecker:
    """Checks SweepPoints measured on one lattice at the default base frequency."""

    def __init__(self, lat, master_seed: int):
        from freqcrowd import collision, lattice
        self.lat = lat
        self.seed = master_seed
        self.edges = [tuple(e) for e in lat.edges]
        self.triples = reference.spectator_triples(lat.n_qubits, self.edges)
        self._index = collision.build_index(lat)
        self._count = collision.count_collisions_batch
        self._set_points = lambda spacing: lattice.set_points_mhz(
            lat, lattice.FrequencyPattern(spacing_mhz=spacing))
        self._z = np.empty((0, lat.n_qubits))

    def _deviates(self, trials: int) -> np.ndarray:
        if self._z.shape[0] < trials:
            self._z = contract_deviates(self.seed, trials, self.lat.n_qubits)
        return self._z[:trials]

    def check(self, sigma, spacing, trials, mean, yield_fraction=None, per_type_means=None,
              *, exact=True):
        """Return (z-score or None, problems) for one reported point.

        At sigma 0 every trial is the set-point assignment, so the point must
        equal the brute-force count exactly.  Otherwise the mean must lie
        within :data:`Z_BOUND` standard errors of the closed-form expectation;
        with ``exact`` it must also equal a recount of the same trials, whose
        first and last trials are compared with the brute-force counter.
        A ``yield_fraction`` or ``per_type_means`` of None skips its checks.
        """
        problems = []
        if yield_fraction is not None and not 0.0 <= yield_fraction <= 1.0:
            problems.append(f"yield {yield_fraction} outside [0, 1]")
        if per_type_means is not None and not _close(math.fsum(per_type_means), mean):
            problems.append(f"per-type means sum to {math.fsum(per_type_means)}, mean is {mean}")
        sp = self._set_points(spacing)
        n = self.lat.n_qubits
        if sigma == 0.0:
            naive = reference.naive_counts(n, self.edges, sp)
            total = sum(naive.values())
            if mean != total or yield_fraction not in (None, float(total == 0)):
                problems.append(f"sigma 0: mean {mean}, yield {yield_fraction}; brute force {total}")
            if per_type_means is not None and list(per_type_means) != [naive[t] for t in range(1, 8)]:
                problems.append("sigma 0: per-type means differ from brute force")
            return None, problems

        freqs = sp[None, :] + sigma * self._deviates(trials)
        counts = self._count(self._index, freqs)
        totals = counts.sum(axis=1)
        if exact:
            if not _close(float(np.mean(totals)), mean):
                problems.append(f"mean {mean} differs from recount {float(np.mean(totals))}")
            if yield_fraction is not None and not _close(float(np.mean(totals == 0)), yield_fraction):
                problems.append(f"yield {yield_fraction} differs from recount")
            if per_type_means is not None and not all(
                    _close(a, b) for a, b in zip(counts.mean(axis=0), per_type_means)):
                problems.append("per-type means differ from recount")
            for t in sorted({0, trials - 1}):
                naive = reference.naive_counts(n, self.edges, freqs[t])
                if [naive[k] for k in range(1, 8)] != counts[t].tolist():
                    problems.append(f"trial {t}: kernel counts differ from brute force")
        expected = reference.expected_mean_collisions(sp, sigma, self.edges, self.triples)
        # When collisions are rare, a sample that happens to hold few of them
        # understates its own spread; under the tested expectation the count
        # spreads about as much as a Poisson count with that mean.  A mean of
        # integer counts moves in steps of 1/trials, so no smaller standard
        # error is resolvable either.
        sd = max(float(np.std(totals, ddof=1)) if trials > 1 else 0.0, math.sqrt(expected))
        se = max(sd / math.sqrt(trials), 1.0 / trials)
        z = (mean - expected) / se
        if abs(z) > Z_BOUND:
            problems.append(f"mean {mean} is {z:+.1f} standard errors from expectation {expected}")
        return z, problems

    def check_point(self, p):
        return self.check(p.sigma_mhz, p.spacing_mhz, p.trials, p.mean_collisions,
                          p.yield_fraction, p.per_type_means)


def check_chip(lat, freqs, report) -> list:
    """A single-chip report must match the brute-force counter, and its listed
    instances must tally to its per-type counts."""
    problems = []
    naive = reference.naive_counts(lat.n_qubits, [tuple(e) for e in lat.edges], freqs)
    per_type = {int(t): int(c) for t, c in report.per_type.items()}
    if per_type != naive:
        problems.append(f"counts {per_type} differ from brute force {naive}")
    if report.total != sum(naive.values()):
        problems.append(f"total {report.total} differs from brute force {sum(naive.values())}")
    tally = Counter(int(inst[0]) for inst in report.instances or ())
    if {t: tally.get(t, 0) for t in range(1, 8)} != per_type:
        problems.append(f"instances tally to {dict(tally)}, counts are {per_type}")
    return problems
