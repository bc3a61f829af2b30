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

from .errors import InputError, ParameterError
# DEFAULT_ANHARMONICITY_MHZ, a lattice's default, is named here too, beside the windows it places
from .lattice import DEFAULT_ANHARMONICITY_MHZ, MAX_MHZ, CollisionIndex, Lattice, build_index

# Each collision window once: (type, operand, shape, centre c in units of a,
# half-width w in MHz), with shapes "plain" |x - c*a| < w, "folded"
# ||x| + c*a| < w and "above" x >= c*a.  Rows run in type order, grouped by
# operand; an operand has at most one plain row with c != 0, and at most one
# folded row, after its plain rows.  Widths: the transmon gate error budget.
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
# counted in blocks whose temporaries stay cache-sized instead of one pass
# over the whole batch, and a sweep point builds its frequencies one block at
# a time, so this also bounds the rows x qubits array it holds
_BLOCK_ELEMENTS = 1 << 16


def check_sigma(sigma_mhz: float) -> None:
    """Reject a frequency scatter that is negative, NaN or above ``MAX_MHZ``."""
    if not 0.0 <= sigma_mhz <= MAX_MHZ:
        raise ParameterError(f"sigma must be >= 0 and <= {MAX_MHZ:g}", "sigma_mhz")


def _check_bound(f: np.ndarray, name: str) -> None:
    """Reject frequencies past ``MAX_MHZ`` in size (NaN and infinities too), so
    that no collision operand overflows."""
    if not np.all(np.abs(f) <= MAX_MHZ):
        raise InputError(f"{name} must be finite, with |f| <= {MAX_MHZ:g} MHz")


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least`` (a bool, 2.5 or NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}", name)


def _operands(index: CollisionIndex, f: np.ndarray):
    """Yield ``(operand, x, members, coefficients)`` for the three operands,
    on the last axis of ``f`` (a kernel block or a set-point stack).  ``x`` is
    fresh, so its reader may reuse it in place; ``coefficients`` weight the
    nodes in ``members`` (the sum's constant a aside)."""
    edges = (index.edge_control, index.edge_target)
    yield "edge", f[..., index.edge_control] - f[..., index.edge_target], edges, (1, -1)
    triples = (index.tri_i, index.tri_j, index.tri_k)
    fi = f[..., index.tri_i]
    fk = f[..., index.tri_k]
    yield "pair", fi - fk, triples, (1, 0, -1)
    # f02_j = 2 f_j + a once per qubit, then gathered to the triples
    x = (2.0 * f + index.anharmonicity_mhz)[..., index.tri_j]
    x -= fi
    x -= fk
    yield "sum", x, triples, (-1, 2, -1)


def _violations(index: CollisionIndex, f: np.ndarray):
    """Yield ``(type, mask, members)`` for each row of :data:`WINDOWS`: ``mask``
    is bool [n_batches, n_members] over the edges (control, target) or triples
    (i, j, k) whose node arrays ``members`` holds.  An operand is reused in
    place once the masks that read it are taken: |x| first (into its own array
    only when x is read again), "above" masks next, then the rows in order; its
    arrays go before the next operand's gathers, so blocks reuse their pages."""
    a = index.anharmonicity_mhz
    for operand, x, members, _ in _operands(index, f):
        rows = [row for row in WINDOWS if row[1] == operand]
        keep = any(shape == "above" or shape == "plain" and c for _, _, shape, c, _ in rows)
        ax = np.abs(x) if keep else np.abs(x, out=x)
        above = {t: x >= c * a for t, _, shape, c, _ in rows if shape == "above"}
        for t, _, shape, c, w in rows:
            if shape == "above":
                yield t, above[t], members
            elif shape == "folded":
                ax += c * a
                yield t, np.abs(ax, out=ax) < w, members
            elif c:
                x -= c * a
                yield t, np.abs(x, out=x) < w, members
            else:
                yield t, ax < w, members
        del x, ax, above


def block_rows(index: CollisionIndex) -> int:
    """Rows per block of the batched counters: ``_BLOCK_ELEMENTS`` (row,
    edge or triple) cells, and at least one row."""
    return max(1, _BLOCK_ELEMENTS // max(1, index.edge_control.size + index.tri_i.size))


def count_collisions_batch(index: CollisionIndex, f01_mhz: np.ndarray) -> np.ndarray:
    """Count collisions for a batch of frequency assignments.

    Args:
        index: a lattice's ``collision_index`` (see :func:`build_index`).
        f01_mhz: array [n_batches, n_qubits] (a single 1-d assignment is
            promoted to one batch), each at most ``MAX_MHZ`` in size.

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
    out = np.zeros((f.shape[0], 7), dtype=np.int64)
    for lo in range(0, f.shape[0], rows):
        for t, mask, _ in _violations(index, f[lo:lo + rows]):
            out[lo:lo + rows, t - 1] = mask.sum(axis=1, dtype=np.int32)
    return out


def _tally(index: CollisionIndex, f: np.ndarray) -> tuple:
    """Per-type totals (int64 [7]) and collision-free rows (int) of one
    block: :func:`count_collisions_batch`'s column sums and all-zero rows,
    without its checks or per-row counts, for a caller that built ``f`` as a
    float array of at most :func:`block_rows` rows within ``MAX_MHZ``.  Each window's
    mask is counted whole; the rows it hits are noted until every row has
    collided."""
    totals = np.zeros(7, dtype=np.int64)
    hit = np.zeros(f.shape[0], dtype=bool)
    clean = f.shape[0]
    for t, mask, _ in _violations(index, f):
        totals[t - 1] = n = np.count_nonzero(mask)
        if n and clean:
            hit |= mask.any(axis=1)
            clean = hit.size - np.count_nonzero(hit)
    return totals, int(clean)


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
            most ``MAX_MHZ`` in size.
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
    per_type, instances = {}, []
    for t, mask, members in _violations(idx, f[None, :]):
        hits = np.flatnonzero(mask[0])
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
            (one row per pattern spacing, say), each at most ``MAX_MHZ`` in size.
        sigma_mhz: per-qubit scatter, MHz; a 1-d sequence adds a leading sigma
            axis whose slices equal each sigma's own call, bit for bit.

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
    for sigma in sigmas.tolist():
        check_sigma(sigma)
    lead = sp.shape[:-1]
    out = np.empty((sigmas.size, *lead, 7))
    if (exact := sigmas == 0.0).any():
        counts = count_collisions_batch(index, sp.reshape(-1, index.n_qubits))
        out[exact] = counts.reshape(*lead, 7)

    a = index.anharmonicity_mhz
    per_member = []  # probabilities [sigma, distinct operand value], and each member's column
    for operand, x, _, coefficients in _operands(index, sp):
        # the sorted distinct values, and each member's index among them (flat on numpy 1.x)
        values, of = np.unique(x, return_inverse=True)
        of = of.reshape(x.shape)
        sd = sigmas[~exact, None] * math.sqrt(sum(k * k for k in coefficients))
        # below sigma ~ 1e-305 a standardised distance overflows to +-inf, whose
        # ndtr, 0 or 1, is the exact limit: the zero-scatter count off the window edges
        with np.errstate(over="ignore"):
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
