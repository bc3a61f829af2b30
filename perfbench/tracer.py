"""Spans around freqcrowd's public functions, recorded from outside the package.

:func:`rebound` swaps a wrapper in for a function wherever a loaded
``freqcrowd`` module binds it.  That also catches the calls the package
makes between its own modules: ``mc`` imports ``count_collisions_batch`` and
``build_index`` by name, and ``collision`` imports ``next_nearest_triples``.

A span is the list ``[name, parent, start, end, minflt_start, minflt_end,
counters]``; ``parent`` indexes the same span list (-1 for none), so spans
written out by a child process stay plain JSON.
"""
from __future__ import annotations

import contextlib
import functools
import resource
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = (
    "lattice.next_nearest_triples",
    "collision.build_index",
    "collision.count_collisions_batch",
    "collision.count_collisions",
    "mc.gaussian_deviates",
    "mc.run_point",
    "mc.optimize_spacing",
    "mc.sweep_sigma",
    "window.fit_window",
    "tunesim.run_campaign",
    "svgchart.line_chart",
    "cli.main",
)

NAME, PARENT, START, END, FLT0, FLT1, COUNTERS = range(7)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


@contextlib.contextmanager
def rebound(qualnames, make_wrapper):
    """Bind ``make_wrapper(name, fn)`` in place of each ``module.function`` in
    every loaded freqcrowd module that holds it; restore the originals on exit.
    Functions of modules not loaded (``cli`` outside the CLI) are skipped."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "freqcrowd" or n.startswith("freqcrowd."))]
    saved = []
    try:
        for qualname in qualnames:
            mod_name, attr = qualname.split(".")
            home = sys.modules.get(f"freqcrowd.{mod_name}")
            if home is None:
                continue
            fn = getattr(home, attr)
            wrapper = make_wrapper(qualname, fn)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    saved.append((module, key, fn))
                    setattr(module, key, wrapper)
        yield
    finally:
        for module, key, fn in reversed(saved):
            setattr(module, key, fn)


def _batch_counters(args, kwargs, result):
    f01 = _arg(args, kwargs, 1, "f01_mhz")
    return {"rows": int(result.shape[0]), "n": int(np.shape(f01)[-1])}


def _point_counters(args, kwargs, result):
    return {"n": result.n_qubits, "sigma": result.sigma_mhz, "spacing": result.spacing_mhz,
            "trials": result.trials}


_COUNTERS = {
    "collision.count_collisions_batch": _batch_counters,
    "collision.count_collisions": lambda a, k, r: {"instances": len(r.instances or ())},
    "mc.gaussian_deviates": lambda a, k, r: {"rows": int(np.shape(r)[0])},
    "mc.run_point": _point_counters,
    "mc.optimize_spacing": _point_counters,
    "mc.sweep_sigma": lambda a, k, r: {"trials": [p.trials for p in r]},
    "tunesim.run_campaign": lambda a, k, r: {
        "steps": sum(len(rec.steps) for rec in r.records),
        "converged": r.n_converged, "junctions": len(r.records)},
}


class Tracer:
    """Records one span per call of each function in :data:`TRACED`."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        counters = _COUNTERS.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, perf_counter(), 0.0, _minflt(), 0, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[FLT1] = _minflt()
                open_.pop()
            if counters is not None:
                span[COUNTERS] = counters(args, kwargs, result)
            return result
        return traced

    def active(self):
        return rebound(TRACED, self.wrap)


class SigmaMarks:
    """Entry time of the first Monte Carlo call at each new sigma.  In a
    sweep these are the boundaries between its reported points."""

    def __init__(self):
        self.marks = []

    def wrap(self, name, fn):
        marks = self.marks

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            sigma = float(_arg(args, kwargs, 2, "sigma_mhz"))
            if not marks or marks[-1][1] != sigma:
                marks.append((perf_counter(), sigma))
            return fn(*args, **kwargs)
        return marked

    def active(self):
        return rebound(("mc.run_point", "mc.optimize_spacing"), self.wrap)


def merge(groups):
    """Concatenate span lists from several processes, re-basing parents."""
    out = []
    for spans in groups:
        base = len(out)
        out.extend([s[NAME], s[PARENT] + base if s[PARENT] >= 0 else -1, *s[START:]]
                   for s in spans)
    return out


def layer_metrics(spans, n_solutions: int, shapes: dict) -> dict:
    """Per-layer figures for one full result, from the spans of ``n_solutions``.

    ``shapes`` maps a lattice's qubit count to its (edges, spectator triples),
    from which the kernel's predicate evaluations and operand bytes are
    computed.  Self time is a span's duration minus its children's.
    """
    n = len(spans)
    child_s, child_flt = [0.0] * n, [0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
            child_flt[s[PARENT]] += s[FLT1] - s[FLT0]

    def under(i, prefix):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                return True
            p = spans[p][PARENT]
        return False

    calls = defaultdict(int)
    self_s = defaultdict(float)
    minflt = defaultdict(int)
    total = defaultdict(float)
    last_search = {}
    boosts = spacing_evals = 0
    reported = []
    for i, s in enumerate(spans):
        name, c = s[NAME], s[COUNTERS]
        calls[name] += 1
        self_s[name] += s[END] - s[START] - child_s[i]
        minflt[name] += s[FLT1] - s[FLT0] - child_flt[i]
        if c is None and name in _COUNTERS:
            continue  # the call raised, so there is no result to count
        top = name.startswith("mc.") and not under(i, "mc.")
        if name == "collision.count_collisions_batch":
            e, t = shapes[c["n"]]
            total["rows"] += c["rows"]
            total["evals"] += c["rows"] * (4 * e + 3 * t)
            total["bytes"] += c["rows"] * 8 * (c["n"] + 2 * e + 3 * t + 7)
        elif name == "collision.count_collisions":
            total["instances"] += c["instances"]
        elif name == "mc.gaussian_deviates":
            total["deviate_rows"] += c["rows"]
        elif name == "mc.optimize_spacing":
            last_search[s[PARENT]] = c
            if top:
                reported.append(c["trials"])
        elif name == "mc.run_point":
            if under(i, "mc.optimize_spacing"):
                spacing_evals += 1
                continue
            prev = last_search.pop(s[PARENT], None)
            boost = (prev is not None and c["trials"] > prev["trials"]
                     and (prev["n"], prev["sigma"], prev["spacing"]) == (c["n"], c["sigma"], c["spacing"]))
            boosts += boost
            if top and boost:
                reported[-1] = c["trials"]
            elif top:
                reported.append(c["trials"])
        elif name == "mc.sweep_sigma" and top:
            reported.extend(c["trials"])
        elif name == "tunesim.run_campaign":
            total["steps"] += c["steps"]
            total["converged"] += c["converged"]
            total["junctions"] += c["junctions"]

    per = 1.0 / n_solutions
    kernel = "collision.count_collisions_batch"
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = self_s[name] * per
        out[f"{name}.minflt"] = minflt[name] * per
    out.update({
        f"{kernel}.rows": total["rows"] * per,
        f"{kernel}.rows_per_s": total["rows"] / self_s[kernel] if self_s[kernel] > 0 else 0.0,
        f"{kernel}.predicate_evals_computed": total["evals"] * per,
        f"{kernel}.bytes_computed": total["bytes"] * per,
        "collision.count_collisions.instances": total["instances"] * per,
        "mc.gaussian_deviates.rows": total["deviate_rows"] * per,
        "mc.spacing_evals": spacing_evals * per,
        "mc.boosts": boosts * per,
        "mc.useful_row_ratio": sum(reported) / total["rows"] if total["rows"] else 0.0,
        "tunesim.anneal_steps": total["steps"] * per,
        "tunesim.converged_ratio": (total["converged"] / total["junctions"]
                                    if total["junctions"] else 0.0),
    })
    return out


def parse_importtime(stderr: str) -> dict:
    """Import seconds from ``python -X importtime`` output: cumulative for
    each freqcrowd module, and the summed self time of every scipy module."""
    out = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_us, cum_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == "freqcrowd" or module.startswith("freqcrowd."):
            out[module] = cum_us * 1e-6
        elif module == "scipy" or module.startswith("scipy."):
            out["scipy"] += self_us * 1e-6
    return dict(out)
