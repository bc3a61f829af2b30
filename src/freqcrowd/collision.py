"""Frequency-collision conditions for cross-resonance gate lattices.

Seven numbered collision types are counted on a lattice dressed with
per-qubit 01 transition frequencies (MHz).  Writing a = anharmonicity
(negative), f12 = f01 + a and f02 = 2*f01 + a, with c -> t a directed
control->target gate edge, {c, t} also an undirected neighbour pair, and
(i, j, k) a spectator triple (i, k distinct neighbours of j, j controlling
at least one of them):

1. neighbours degenerate:        |f01_c - f01_t| < 17
2. control two-photon on target: |f02_c - 2*f01_t| < 4
3. neighbour hits 12 transition: |f01_c - f12_t| < 30 or |f01_t - f12_c| < 30
4. target outside control band:  f01_t <= f12_c   (see note below)
5. spectators degenerate:        |f01_i - f01_k| < 17
6. spectator hits 12 transition: |f01_i - f12_k| < 25 or |f12_i - f01_k| < 25
7. two-photon via spectator sum: |f02_j - (f01_i + f01_k)| < 17

Types 3 and 6 count once per pair/triple even if both orderings violate.
All windows are strict (open) inequalities.

:data:`WINDOWS` declares each window once, as a shape on one of three
operands, linear forms of the frequencies (:func:`_operands`).  The Monte
Carlo kernel (:func:`_violations`) reads each row as a mask, and
:func:`expected_counts` as a normal-CDF difference under independent Gaussian
scatter, on :func:`ndtr` (``math.erfc``), the package's one normal CDF.
The kernel works member-major: a block is a [qubits, rows] frequency array,
so each operand gathers whole rows of it into a [members, rows] array, and
every such array lives in one :class:`_Scratch` set that its caller reuses
block after block (``mc.measure`` holds one per call), so a sweep faults its
pages in once.  A Monte Carlo point's walk over its blocks is here too
(:func:`_tally_point`): ``mc`` hands it the set points, the scatter and a
reader of deviate rows, and gets totals back.  The public counters take
[rows, qubits] frequencies.
Both read a lattice's ``collision_index`` (``lattice``'s :func:`build_index`, also
named here), which carries the lattice's anharmonicity a, the one device
constant the windows depend on; :func:`count_collisions` takes a chip's counts
and instances in one pass.
Pattern set points repeat their differences (square d=7's 25-spacing stack
has 4200 pair differences but 68 distinct values), so each distinct operand
value is scored once; a sweep scores its whole sigma x spacing grid in one
call, finding them once.

Note on type 4: the gate wants the target 01 frequency inside the open
interval (f12_c, f01_c).  Only falling off the *low* side (control-target
detuning reaching |a|) is counted; the high side (target above the control)
degrades the gate more gently, so it is not a collision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Domain, InputError, ParameterError
# DEFAULT_ANHARMONICITY_MHZ, a lattice's default, is named here too, beside the windows it places
from .lattice import DEFAULT_ANHARMONICITY_MHZ, CollisionIndex, Lattice, build_index

# Each collision window once: (type, operand, shape, centre c in units of a,
# half-width w in MHz), with shapes "plain" |x - c*a| < w, "folded"
# ||x| + c*a| < w and "above" x >= c*a.  Rows run in type order, grouped by
# operand; an operand has at most one plain row with c != 0, and at most one
# folded row, after its plain rows, and at most one "above" row, since the
# kernel holds one such mask.  Widths: the transmon gate error budget.
WINDOWS = (
    (1, "edge", "plain", 0.0, 17.0),
    # |2x + a| < 4 halved, exactly: halving commutes with rounding
    (2, "edge", "plain", -0.5, 2.0),
    # |x - a| < w or |x + a| < w: with a < 0 the smaller is ||x| + a|, in floats too
    (3, "edge", "folded", 1.0, 30.0),
    (4, "edge", "above", -1.0, None),
    (5, "pair", "plain", 0.0, 17.0),
    (6, "pair", "folded", 1.0, 25.0),
    (7, "sum", "plain", 0.0, 17.0),
)
TYPE_IDS = tuple(row[0] for row in WINDOWS)

# (row, edge or triple) cells per block of the batched counters: rows are
# counted in blocks whose scratch buffers stay cache-sized instead of one pass
# over the whole batch, and a sweep point builds its frequencies one block at
# a time, so this also sizes its scratch set.  A warm default square d=7
# sweep took 37-38 ms at 2**15 cells, 34-38 ms at 2**16, 33-34 ms at 81,920
# and 34-36 ms at 2**17 (medians of 15, 2-core x86-64, 1 MB L2 per core)
_BLOCK_ELEMENTS = 1 << 16

# the per-qubit frequency scatter sigma, MHz: 0, or 1 kHz to 10 GHz.  numpy's
# normal deviates have |z| < 14 (its ziggurat's tail draw is at most
# r + 53 ln 2 / r = 13.7), so a scattered frequency lies within 1.4e5 MHz of
# its set point, and at sigma >= 1e-3 no standardised distance overflows
SIGMA_DOMAIN = Domain(1e-3, 1e4, zero=True)


def _check_bound(f: np.ndarray, name: str) -> None:
    """Reject frequencies past 1e6 MHz in size (NaN and infinities too): each
    set point (at most 5000 + 4 * 1e4 MHz) and scattered draw of in-domain
    settings is within it, and every collision operand of such frequencies
    stays finite."""
    if not np.all(np.abs(f) <= 1e6):
        raise InputError(f"{name} must be finite, with |f| <= 1e+06 MHz")


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least`` (a bool, 2.5 or NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}", name)


class _Scratch:
    """The buffers kernel blocks are built and counted in, member-major: a
    block is a [qubits, rows] frequency array, and each operand and mask a
    [members, rows] one.  Each buffer is one flat array sized by cells, the
    most (members x rows) or (qubits x rows) of any block it was fitted to,
    and viewed in each block's shape, so one set serves blocks of every
    lattice and its pages are faulted in once."""

    # (name, the node count a block's view has, dtype): "members" is the
    # larger of an edge and a triple operand, since a view holds one operand
    BUFFERS = (("f", "qubits", float), ("q", "qubits", float), ("x", "members", float),
               ("fi", "members", float), ("fk", "members", float),
               ("mask", "members", bool), ("above", "members", bool))

    def __init__(self):
        self._flat = {}

    def fit(self, blocks) -> None:
        """Grow the buffers to hold a block of each ``(index, rows)``."""
        need = {"qubits": 0, "members": 0}
        for index, rows in blocks:
            need["qubits"] = max(need["qubits"], index.n_qubits * rows)
            need["members"] = max(need["members"],
                                  max(index.edge_control.size, index.tri_i.size) * rows)
        for name, nodes, dtype in self.BUFFERS:
            if name not in self._flat or self._flat[name].size < need[nodes]:
                self._flat[name] = np.empty(need[nodes], dtype)

    def view(self, name: str, nodes: int, rows: int) -> np.ndarray:
        """Buffer ``name`` as a [nodes, rows] array."""
        return self._flat[name][:nodes * rows].reshape(nodes, rows)


def _operands(index: CollisionIndex, f: np.ndarray, scratch: _Scratch):
    """Yield ``(operand, x, spare, members, coefficients)`` for the three
    operands, on the first axis of ``f`` (a [qubits, rows] kernel block, or
    set points one per column).  ``x`` lies in ``scratch``, as do the gathers
    it is built from, so its reader may reuse it in place until the next
    operand is drawn, and ``spare`` too, a buffer of x's shape that nothing
    reads any more (None where there is none); ``coefficients`` weight the
    nodes in ``members`` (the sum's constant a aside)."""
    rows = f.shape[1]

    def gather(nodes, name, source=f):
        # build_index makes only in-range node ids, so the clip never moves one;
        # mode="raise" would buffer ``out`` instead of writing straight into it
        return source.take(nodes, axis=0, out=scratch.view(name, nodes.size, rows), mode="clip")
    edges = (index.edge_control, index.edge_target)
    x = gather(index.edge_control, "x")
    spare = gather(index.edge_target, "fk")
    x -= spare
    yield "edge", x, spare, edges, (1, -1)
    triples = (index.tri_i, index.tri_j, index.tri_k)
    fi = gather(index.tri_i, "fi")
    fk = gather(index.tri_k, "fk")
    x = np.subtract(fi, fk, out=scratch.view("x", fi.shape[0], rows))
    yield "pair", x, None, triples, (1, 0, -1)
    # f02_j = 2 f_j + a once per qubit, then gathered to the triples
    q = np.multiply(f, 2.0, out=scratch.view("q", f.shape[0], rows))
    q += index.anharmonicity_mhz
    x = gather(index.tri_j, "x", q)
    x -= fi
    x -= fk
    yield "sum", x, fi, triples, (-1, 2, -1)


def _violations(index: CollisionIndex, f: np.ndarray, scratch: _Scratch):
    """Yield ``(type, mask, members)`` for each row of :data:`WINDOWS`: ``mask``
    is bool [n_members, rows] over the edges (control, target) or triples
    (i, j, k) whose node arrays ``members`` holds, for ``f`` [qubits, rows].
    Every operand and mask lies in ``scratch``, so a mask is its reader's
    only until the next is drawn.  An operand is reused in place once the
    masks that read it are taken: |x| first (into the operand's spare buffer
    only when x is read again), "above" masks next, then the rows in order."""
    a = index.anharmonicity_mhz
    for operand, x, spare, members, _ in _operands(index, f, scratch):
        rows = [row for row in WINDOWS if row[1] == operand]
        keep = any(shape == "above" or shape == "plain" and c for _, _, shape, c, _ in rows)
        ax = np.abs(x, out=spare if keep else x)
        above = {t: np.greater_equal(x, c * a, out=scratch.view("above", *x.shape))
                 for t, _, shape, c, _ in rows if shape == "above"}
        mask = scratch.view("mask", *x.shape)
        for t, _, shape, c, w in rows:
            if shape == "above":
                yield t, above[t], members
            elif shape == "folded":
                ax += c * a
                yield t, np.less(np.abs(ax, out=ax), w, out=mask), members
            elif c:
                x -= c * a
                yield t, np.less(np.abs(x, out=x), w, out=mask), members
            else:
                yield t, np.less(ax, w, out=mask), members


def block_rows(index: CollisionIndex) -> int:
    """Rows per block of the batched counters: ``_BLOCK_ELEMENTS`` (row,
    edge or triple) cells, and at least one row."""
    return max(1, _BLOCK_ELEMENTS // max(1, index.edge_control.size + index.tri_i.size))


def count_collisions_batch(index: CollisionIndex, f01_mhz: np.ndarray) -> np.ndarray:
    """Count collisions for a batch of frequency assignments.

    Args:
        index: a lattice's ``collision_index`` (see :func:`build_index`).
        f01_mhz: array [n_batches, n_qubits] (a single 1-d assignment is
            promoted to one batch), each at most 1e6 MHz in size.

    Returns:
        int64 array [n_batches, 7]; column m holds the count of type m+1.
    """
    f = np.asarray(f01_mhz, dtype=float)
    if f.ndim == 1:
        f = f[None, :]
    if f.ndim != 2 or f.shape[1] != index.n_qubits:
        raise InputError(f"frequencies must have {index.n_qubits} columns")
    _check_bound(f, "frequencies")
    rows = block_rows(index)
    scratch = _Scratch()
    scratch.fit([(index, min(rows, f.shape[0]))])
    out = np.zeros((f.shape[0], 7), dtype=np.int64)
    for lo in range(0, f.shape[0], rows):
        block = f[lo:lo + rows]
        f_t = scratch.view("f", index.n_qubits, block.shape[0])
        f_t[...] = block.T
        for t, mask, _ in _violations(index, f_t, scratch):
            out[lo:lo + rows, t - 1] = mask.sum(axis=0, dtype=np.int32)
    return out


def _tally(index: CollisionIndex, f: np.ndarray, scratch: _Scratch) -> tuple:
    """Per-type totals (int64 [7]) and collision-free rows (int) of one
    member-major block ``f`` [qubits, rows]: :func:`count_collisions_batch`'s
    column sums and all-zero rows, without its checks or per-row counts, for
    a caller that built ``f`` as a float array of at most :func:`block_rows`
    rows at most 1e6 MHz in size, and fitted ``scratch`` to such a block.  Each
    window's mask is counted whole; the rows it hits are noted until every
    row has collided."""
    totals = np.zeros(7, dtype=np.int64)
    hit = np.zeros(f.shape[1], dtype=bool)
    clean = f.shape[1]
    for t, mask, _ in _violations(index, f, scratch):
        totals[t - 1] = n = np.count_nonzero(mask)
        if n and clean:
            hit |= mask.any(axis=0)
            clean = hit.size - np.count_nonzero(hit)
    return totals, int(clean)


def _tally_point(index: CollisionIndex, set_points: np.ndarray, sigma: float, trials: int,
                 read, scratch: _Scratch) -> tuple:
    """Per-type totals (int64 [7]) and collision-free rows (int) of ``trials``
    frequency rows ``set_points + sigma * z``, for a caller that checked
    ``sigma`` and ``trials`` and bounded the set points.

    Row t's deviates z are read from ``read(lo, hi)``, which returns rows
    ``lo`` onwards as a [rows, qubits] array, at least one row and at most
    ``hi - lo``; the walk asks for one kernel block (:func:`block_rows`) at a
    time and advances by the rows it gets, so a point holds one block's
    deviates whatever its trials.  Each block's frequencies are built
    member-major, ``sigma * z.T + set points`` as a [qubits, rows] array, in
    ``scratch``, where the kernel gathers and counts them too: a caller that
    passes one set to every point reuses its pages.  The totals are integer
    sums, so they do not depend on how the rows are split.  At zero scatter
    every row is the set points themselves, so the point is one counted row
    times ``trials`` and ``read`` is never called."""
    if sigma == 0.0:
        scratch.fit([(index, 1)])
        totals, clean = _tally(index, set_points[:, None], scratch)
        return totals * trials, clean * trials
    totals, survivors, rows, lo = np.zeros(7, dtype=np.int64), 0, block_rows(index), 0
    scratch.fit([(index, rows)])
    while lo < trials:
        z = read(lo, min(lo + rows, trials))
        f = np.multiply(z.T, sigma, out=scratch.view("f", index.n_qubits, len(z)))
        f += set_points[:, None]
        block_totals, clean = _tally(index, f, scratch)
        totals += block_totals
        survivors += clean
        lo += len(z)
    return totals, survivors


@dataclass(frozen=True)
class CollisionReport:
    per_type: dict     # {1: count, ..., 7: count}
    total: int
    instances: tuple | None = None  # (type, nodes...) when collected


def count_collisions(lattice: Lattice, f01_mhz, *, collect: bool = False) -> CollisionReport:
    """Count all seven collision types for one frequency assignment.

    Args:
        lattice: the device graph and its anharmonicity.
        f01_mhz: per-qubit 01 frequencies, MHz, indexed by node id, each at
            most 1e6 MHz in size.
        collect: also list each offending edge/triple as (type, nodes...),
            type by type.

    Returns:
        CollisionReport with per-type counts and their sum.
    """
    idx = lattice.collision_index
    f = np.asarray(f01_mhz, dtype=float)
    if f.shape != (idx.n_qubits,):
        raise InputError(f"expected {idx.n_qubits} frequencies, got shape {f.shape}")
    _check_bound(f, "frequencies")
    scratch = _Scratch()
    scratch.fit([(idx, 1)])
    per_type, instances = {}, []
    for t, mask, members in _violations(idx, f[:, None], scratch):
        hits = np.flatnonzero(mask[:, 0])
        per_type[t] = hits.size
        instances += [(t, *(int(nodes[m]) for nodes in members)) for m in hits]
    return CollisionReport(per_type, len(instances), tuple(instances) if collect else None)


def ndtr(x) -> np.ndarray:
    """The standard normal CDF, elementwise, as a float array (0-d included).

    ``erfc`` of the negated argument keeps the lower tail's relative
    precision, and its subnormal values too, down to x = -38.5."""
    arg = np.asarray(x, dtype=float) * -math.sqrt(0.5)
    erfc = np.fromiter(map(math.erfc, arg.ravel().tolist()), dtype=float, count=arg.size)
    return 0.5 * erfc.reshape(arg.shape)


def _p_between(mean, sd, lo, hi):
    """P(lo < X < hi) for X ~ N(mean, sd**2), with both CDF terms taken in
    the tail nearer the window so small probabilities keep their digits."""
    u = (lo - mean) / sd
    v = (hi - mean) / sd
    upper = u > 0.0
    # pick both CDF arguments per member first, so ndtr runs on two arrays, not four
    return ndtr(np.where(upper, -u, v)) - ndtr(np.where(upper, -v, u))


def _p_either(mean, sd, center, width):
    """P(|X - center| < width or |X + center| < width): the two windows
    less their overlap, which is empty once |center| >= width."""
    p = (_p_between(mean, sd, center - width, center + width)
         + _p_between(mean, sd, -center - width, -center + width))
    overlap = width - abs(center)
    return p - _p_between(mean, sd, -overlap, overlap) if overlap > 0.0 else p


def expected_counts(index: CollisionIndex, set_points_mhz, sigma_mhz) -> np.ndarray:
    """Expected count of each type when every qubit gets N(0, sigma**2) scatter.

    Exact by linearity of expectation: each row of :data:`WINDOWS` tests its
    operand, a Gaussian with sd sigma times its coefficients' norm, once per
    distinct operand value and sigma.  At zero scatter this is the count at
    the set points themselves, strict windows included.

    Args:
        index: a lattice's ``collision_index`` (see :func:`build_index`).
        set_points_mhz: array [..., n_qubits]; leading axes stack set points
            (one row per pattern spacing, say), each at most 1e6 MHz in size.
        sigma_mhz: per-qubit scatter in :data:`SIGMA_DOMAIN`, MHz; a 1-d sequence
            adds a leading sigma axis whose slices equal each sigma's own call, bit for bit.

    Returns:
        float array [..., 7]; column m holds the expected count of type m+1.
    """
    sp = np.asarray(set_points_mhz, dtype=float)
    if sp.ndim == 0 or sp.shape[-1] != index.n_qubits:
        raise InputError(f"set points must have {index.n_qubits} columns")
    _check_bound(sp, "set points")
    if np.ndim(sigma_mhz) > 1:
        raise InputError("sigma must be a number or a 1-d sequence")
    sigmas = np.asarray(sigma_mhz, dtype=float).reshape(-1)
    SIGMA_DOMAIN.check(sigmas, "sigma_mhz")
    lead = sp.shape[:-1]
    out = np.empty((sigmas.size, *lead, 7))
    columns = np.ascontiguousarray(sp.reshape(-1, index.n_qubits).T)  # one set point per column
    scratch = _Scratch()
    scratch.fit([(index, columns.shape[1])])
    if (exact := sigmas == 0.0).any():
        for t, mask, _ in _violations(index, columns, scratch):
            out[exact, ..., t - 1] = mask.sum(axis=0).reshape(lead)
    if exact.all():
        return out if np.ndim(sigma_mhz) else out[0]

    a = index.anharmonicity_mhz
    per_member = []  # probabilities [sigma, distinct operand value], and each member's column
    for operand, x, _, _, coefficients in _operands(index, columns, scratch):
        # the member axis back last, as set points stack: the sorted distinct
        # values, and each member's index among them (flat on numpy 1.x)
        x = x.T.reshape(*lead, x.shape[0])
        values, of = np.unique(x, return_inverse=True)
        of = of.reshape(x.shape)
        sd = sigmas[~exact, None] * math.sqrt(sum(k * k for k in coefficients))
        for _, _, shape, c, w in (row for row in WINDOWS if row[1] == operand):
            if shape == "plain":
                p = _p_between(values, sd, c * a - w, c * a + w)
            elif shape == "folded":
                p = _p_either(values, sd, c * a, w)
            else:
                p = ndtr((values - c * a) / sd)
            per_member.append((p, of))
    # one sigma's [spacing, member] gather and sum at a time: the layout a lone sigma sums
    for k, i in enumerate(np.flatnonzero(~exact)):
        out[i] = np.stack([p[k][of].sum(axis=-1) for p, of in per_member], axis=-1)
    return out if np.ndim(sigma_mhz) else out[0]
