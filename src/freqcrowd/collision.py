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

Under independent Gaussian scatter each window tests one Gaussian linear
combination of frequencies, so the expected count of every type is a sum of
normal-CDF differences (:func:`expected_counts`).  :func:`ndtr` (``0.5 *
erfc(-x / sqrt(2))`` on ``math.erfc``) is the package's one normal CDF, so
freqcrowd needs numpy alone.  Pattern set points repeat their differences
(square d=7's 25-spacing stack has 4200 pair differences but 68 distinct
values), so each distinct member difference is scored once and the
probabilities are scattered back to every member before they are summed; a
sweep scores its whole sigma x spacing grid in one call, finding them once.

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
from .lattice import Lattice, next_nearest_triples

DEFAULT_ANHARMONICITY_MHZ = -330.0

TYPE_IDS = (1, 2, 3, 4, 5, 6, 7)

# window half-widths in MHz, from the standard fixed-frequency transmon gate
# error budget (type 4 has no width: it is a one-sided bound)
NN_DEGENERATE_MHZ = 17.0
TWO_PHOTON_MHZ = 4.0
NN_EXCITED_MHZ = 30.0
SPECTATOR_DEGENERATE_MHZ = 17.0
SPECTATOR_EXCITED_MHZ = 25.0
SPECTATOR_TWO_PHOTON_MHZ = 17.0

# (row, edge or triple) cells per block of the batched counters: rows are
# counted in blocks whose temporaries stay cache-sized instead of one pass
# over the whole batch, and a sweep point builds its frequencies one block at
# a time, so this also bounds the rows x qubits array it holds
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class CollisionRules:
    """The device parameter the collision windows depend on."""

    anharmonicity_mhz: float = DEFAULT_ANHARMONICITY_MHZ

    def __post_init__(self):
        if not (math.isfinite(self.anharmonicity_mhz) and self.anharmonicity_mhz < 0.0):
            raise ParameterError("anharmonicity must be finite and negative (MHz)",
                                 "anharmonicity_mhz")


DEFAULT_RULES = CollisionRules()


def check_sigma(sigma_mhz: float) -> None:
    """Reject a frequency scatter that is negative, NaN or infinite."""
    if not 0.0 <= sigma_mhz < math.inf:
        raise ParameterError("sigma must be >= 0 and < inf", "sigma_mhz")


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least`` (a bool, 2.5 or NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}", name)


@dataclass(frozen=True)
class CollisionIndex:
    """Precomputed integer index arrays for fast vectorised counting."""

    n_qubits: int
    edge_control: np.ndarray
    edge_target: np.ndarray
    tri_i: np.ndarray
    tri_j: np.ndarray
    tri_k: np.ndarray


def build_index(lattice: Lattice) -> CollisionIndex:
    edges = np.array(lattice.edges, dtype=np.intp).reshape(-1, 2)
    triples = np.array(next_nearest_triples(lattice), dtype=np.intp).reshape(-1, 3)
    return CollisionIndex(
        n_qubits=lattice.n_qubits,
        edge_control=edges[:, 0].copy(),
        edge_target=edges[:, 1].copy(),
        tri_i=triples[:, 0].copy(),
        tri_j=triples[:, 1].copy(),
        tri_k=triples[:, 2].copy(),
    )


def _violations(index: CollisionIndex, f: np.ndarray, rules: CollisionRules):
    """Yield ``(type, mask, members)`` for each of the seven rules in turn.

    ``mask`` is bool [n_batches, n_members]; ``members`` holds the node
    arrays of the edges (control, target) or triples (i, j, k) it indexes.
    This is the one definition of the collision windows.  Temporaries are
    reused in place once their mask is taken, so each window costs few passes.
    """
    a = rules.anharmonicity_mhz
    edges = (index.edge_control, index.edge_target)
    d = f[:, index.edge_control] - f[:, index.edge_target]
    ad = np.abs(d)
    beyond = d >= -a  # type 4, taken before d is reused
    yield 1, ad < NN_DEGENERATE_MHZ, edges
    # |2d + a| < w is |d + a/2| < w/2: halving commutes with rounding
    d += 0.5 * a
    yield 2, np.abs(d, out=d) < 0.5 * TWO_PHOTON_MHZ, edges
    # "|d - a| < w or |d + a| < w" is ||d| + a| < w: with a < 0 the disjunct
    # whose sign differs from d's is implied by the other, in floating point too
    ad += a
    yield 3, np.abs(ad, out=ad) < NN_EXCITED_MHZ, edges
    yield 4, beyond, edges
    del d, ad, beyond  # the edge temporaries go before the triples' are made

    triples = (index.tri_i, index.tri_j, index.tri_k)
    fi = f[:, index.tri_i]
    fk = f[:, index.tri_k]
    adik = fi - fk
    np.abs(adik, out=adik)
    yield 5, adik < SPECTATOR_DEGENERATE_MHZ, triples
    adik += a
    yield 6, np.abs(adik, out=adik) < SPECTATOR_EXCITED_MHZ, triples
    del adik  # its block can hold the type-7 operand
    # f02_j = 2 f_j + a once per qubit, then gathered to the triples
    m7 = (2.0 * f + a)[:, index.tri_j]
    m7 -= fi
    m7 -= fk
    yield 7, np.abs(m7, out=m7) < SPECTATOR_TWO_PHOTON_MHZ, triples


def block_rows(index: CollisionIndex) -> int:
    """Rows per block of the batched counters: ``_BLOCK_ELEMENTS`` (row,
    edge or triple) cells, and at least one row."""
    return max(1, _BLOCK_ELEMENTS // max(1, index.edge_control.size + index.tri_i.size))


def count_collisions_batch(index: CollisionIndex, f01_mhz: np.ndarray,
                           rules: CollisionRules = DEFAULT_RULES) -> np.ndarray:
    """Count collisions for a batch of frequency assignments.

    Args:
        index: precomputed arrays from :func:`build_index`.
        f01_mhz: array [n_batches, n_qubits] (a single 1-d assignment is
            promoted to one batch).
        rules: the anharmonicity the windows use.

    Returns:
        int64 array [n_batches, 7]; column m holds the count of type m+1.
    """
    f = np.asarray(f01_mhz, dtype=float)
    if f.ndim == 1:
        f = f[None, :]
    if f.ndim != 2 or f.shape[1] != index.n_qubits:
        raise InputError(f"frequencies must have {index.n_qubits} columns")
    if not np.all(np.isfinite(f)):
        raise InputError("frequencies must be finite")
    rows = block_rows(index)
    out = np.zeros((f.shape[0], 7), dtype=np.int64)
    for lo in range(0, f.shape[0], rows):
        for t, mask, _ in _violations(index, f[lo:lo + rows], rules):
            out[lo:lo + rows, t - 1] = mask.sum(axis=1, dtype=np.int32)
    return out


def _tally(index: CollisionIndex, f: np.ndarray, rules: CollisionRules) -> tuple:
    """Per-type totals (int64 [7]) and collision-free rows (int) of one
    block: :func:`count_collisions_batch`'s column sums and all-zero rows,
    without its checks or per-row counts, for a caller that built ``f`` as a
    finite float array of at most :func:`block_rows` rows.  Each window's
    mask is counted whole; the rows it hits are noted until every row has
    collided."""
    totals = np.zeros(7, dtype=np.int64)
    hit = np.zeros(f.shape[0], dtype=bool)
    clean = f.shape[0]
    for t, mask, _ in _violations(index, f, rules):
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


def count_collisions(lattice: Lattice, f01_mhz, rules: CollisionRules = DEFAULT_RULES,
                     *, collect: bool = False) -> CollisionReport:
    """Count all seven collision types for one frequency assignment.

    Args:
        lattice: the device graph.
        f01_mhz: per-qubit 01 frequencies, MHz, indexed by node id.
        rules: the anharmonicity the windows use.
        collect: also list each offending edge/triple as (type, nodes...),
            type by type.

    Returns:
        CollisionReport with per-type counts and their sum.
    """
    idx = build_index(lattice)
    f = np.asarray(f01_mhz, dtype=float)
    if f.shape != (idx.n_qubits,):
        raise InputError(f"expected {idx.n_qubits} frequencies, got shape {f.shape}")
    counts = count_collisions_batch(idx, f, rules)[0]
    per_type = {t: int(counts[t - 1]) for t in TYPE_IDS}
    instances = None
    if collect:
        instances = tuple((t, *(int(nodes[m]) for nodes in members))
                          for t, mask, members in _violations(idx, f[None, :], rules)
                          for m in np.flatnonzero(mask[0]))
    return CollisionReport(per_type=per_type, total=int(counts.sum()), instances=instances)



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


def _distinct(values: np.ndarray):
    """The sorted distinct entries of ``values``, and each entry's index
    among them in the shape of ``values`` (numpy 1.x returns it flat)."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return uniq, inverse.reshape(values.shape)


def expected_counts(index: CollisionIndex, set_points_mhz, sigma_mhz,
                    rules: CollisionRules = DEFAULT_RULES) -> np.ndarray:
    """Expected count of each type when every qubit gets N(0, sigma**2) scatter.

    Exact by linearity of expectation: a pair window tests f_c - f_t (sd
    sigma*sqrt(2)), a spectator window f_i - f_k (sd sigma*sqrt(2)) or
    2*f_j - f_i - f_k (sd sigma*sqrt(6)).  At zero scatter this is the count
    at the set points themselves, strict windows included.  Each window's
    probability is computed once per distinct difference and sigma.

    Args:
        index: precomputed arrays from :func:`build_index`.
        set_points_mhz: array [..., n_qubits]; leading axes stack set points
            (one row per pattern spacing, say).
        sigma_mhz: per-qubit scatter, MHz; a 1-d sequence adds a leading sigma
            axis whose slices equal each sigma's own call, bit for bit.
        rules: the anharmonicity the windows use.

    Returns:
        float array [..., 7]; column m holds the expected count of type m+1.
    """
    sp = np.asarray(set_points_mhz, dtype=float)
    if sp.ndim == 0 or sp.shape[-1] != index.n_qubits:
        raise InputError(f"set points must have {index.n_qubits} columns")
    if np.ndim(sigma_mhz) > 1:
        raise InputError("sigma must be a number or a 1-d sequence")
    sigmas = np.asarray(sigma_mhz, dtype=float).reshape(-1)
    for sigma in sigmas.tolist():
        check_sigma(sigma)
    lead = sp.shape[:-1]
    out = np.empty((sigmas.size, *lead, 7))
    if (exact := sigmas == 0.0).any():
        counts = count_collisions_batch(index, sp.reshape(-1, index.n_qubits), rules)
        out[exact] = counts.reshape(*lead, 7)

    a = rules.anharmonicity_mhz
    scattered = np.flatnonzero(~exact)
    s2 = sigmas[scattered, None] * math.sqrt(2.0)
    d, d_of = _distinct(sp[..., index.edge_control] - sp[..., index.edge_target])
    dik, dik_of = _distinct(sp[..., index.tri_i] - sp[..., index.tri_k])
    m7, m7_of = _distinct(2.0 * sp[..., index.tri_j] + a
                          - sp[..., index.tri_i] - sp[..., index.tri_k])
    per_member = (  # probabilities [sigma, distinct difference], and each member's column
        (_p_between(d, s2, -NN_DEGENERATE_MHZ, NN_DEGENERATE_MHZ), d_of),
        (_p_between(d, s2, (-TWO_PHOTON_MHZ - a) / 2.0, (TWO_PHOTON_MHZ - a) / 2.0), d_of),
        (_p_either(d, s2, a, NN_EXCITED_MHZ), d_of),
        (ndtr((d + a) / s2), d_of),
        (_p_between(dik, s2, -SPECTATOR_DEGENERATE_MHZ, SPECTATOR_DEGENERATE_MHZ), dik_of),
        (_p_either(dik, s2, a, SPECTATOR_EXCITED_MHZ), dik_of),
        (_p_between(m7, sigmas[scattered, None] * math.sqrt(6.0),
                    -SPECTATOR_TWO_PHOTON_MHZ, SPECTATOR_TWO_PHOTON_MHZ), m7_of),
    )
    # one sigma's [spacing, member] gather and sum at a time: the layout a lone sigma sums
    for k, i in enumerate(scattered):
        out[i] = np.stack([p[k][of].sum(axis=-1) for p, of in per_member], axis=-1)
    return out if np.ndim(sigma_mhz) else out[0]
