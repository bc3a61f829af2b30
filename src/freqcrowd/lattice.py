"""Qubit lattice builders and frequency-pattern assignment.

Three device families are supported, each parametrised by an odd code
distance 3 <= d <= MAX_DISTANCE:

* ``square``        — data qubits on a d x d grid plus the interleaved
                      checkerboard of check qubits between them
                      (2*d**2 - 1 qubits, max degree 4).
* ``heavy_square``  — the square grid with every coupling graph edge
                      subdivided by a two-neighbour coupler, plus paired
                      boundary couplers (3*d**2 - 2 qubits, max degree 4).
* ``heavy_hexagon`` — rows of qubits joined by sparse vertical connectors
                      ((5*d**2 + 2*d - 5)/2 qubits, max degree 3).

Edges are directed control -> target for the cross-resonance gate.  In the
heavy families every control sits on a degree-<=2 vertex; in the square
family the check qubits drive their data neighbours.  A lattice also carries
its transmons' anharmonicity, which its collision index takes to the kernel.

Frequency patterns assign each qubit one of a small set of evenly spaced
set points from a fixed 5 GHz (no collision window reads an absolute frequency):
five for the square family, three for the heavy families.  The assignments are
chosen so a perfectly fabricated device (zero scatter) has no frequency
collisions at the default 70 MHz spacing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError

FAMILIES = ("square", "heavy_square", "heavy_hexagon")

_BASE_MHZ = 5.0 * 1e3
DEFAULT_SPACING_MHZ = 70.0
# the transmon anharmonicity f12 - f01, which places every collision window
DEFAULT_ANHARMONICITY_MHZ = -330.0
# largest code distance built: 1921 to 2881 qubits by family, past the
# 1000-qubit scale the window model is extrapolated to
MAX_DISTANCE = 31
# largest set point, sigma and |anharmonicity| accepted, MHz: numpy's deviates have |z| < 14
# (ziggurat tail r + 53 ln 2 / r = 13.7), so every collision operand stays within 1e302
MAX_MHZ = 1e300


@dataclass(frozen=True)
class QubitNode:
    node_id: int
    x: float
    y: float
    code_role: str      # "data" | "ancilla" | "flag"
    gate_role: str      # "control" | "target"
    pattern_index: int  # 1-based frequency set-point index


@dataclass(frozen=True)
class Lattice:
    family: str
    distance: int
    nodes: tuple
    edges: tuple  # directed (control_id, target_id)
    anharmonicity_mhz: float = DEFAULT_ANHARMONICITY_MHZ

    def __post_init__(self):
        if not -MAX_MHZ <= self.anharmonicity_mhz < 0.0:
            raise ParameterError(f"anharmonicity must be negative and >= -{MAX_MHZ:g} (MHz)",
                                 "anharmonicity_mhz")

    @property
    def n_qubits(self) -> int:
        return len(self.nodes)

    @property
    def pattern_size(self) -> int:
        return 5 if self.family == "square" else 3

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_qubits, dtype=int)
        for c, t in self.edges:
            deg[c] += 1
            deg[t] += 1
        return deg

    def neighbors(self) -> list:
        adj: list = [[] for _ in range(self.n_qubits)]
        for c, t in self.edges:
            adj[c].append(t)
            adj[t].append(c)
        return [sorted(a) for a in adj]

    @cached_property
    def collision_index(self) -> CollisionIndex:
        """:func:`build_index` of this lattice, built on first use; not a field."""
        return build_index(self)

    def __getstate__(self):  # pickles and copies rebuild the index: a copy's would be writable
        return {k: v for k, v in vars(self).items() if k != "collision_index"}


def canonical_family(family: str) -> str:
    """Accept dash or underscore spellings; return the canonical name."""
    name = str(family).strip().lower().replace("-", "_")
    if name not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}", "family")
    return name


def expected_node_count(family: str, distance: int) -> int:
    d = distance
    family = canonical_family(family)
    if family == "square":
        return 2 * d * d - 1
    if family == "heavy_square":
        return 3 * d * d - 2
    return (5 * d * d + 2 * d - 5) // 2  # heavy_hexagon: canonical_family allows no other


def _validate_distance(distance: int) -> None:
    if not 3 <= distance <= MAX_DISTANCE or distance % 2 == 0:
        raise ParameterError(f"distance must be an odd integer in [3, {MAX_DISTANCE}], "
                             f"got {distance}", "distance")


def build_lattice(family: str, distance: int,
                  anharmonicity_mhz: float = DEFAULT_ANHARMONICITY_MHZ) -> Lattice:
    """Construct a lattice of transmons of this anharmonicity; deterministic
    node ids in scan order."""
    _validate_distance(distance)
    family = canonical_family(family)
    if family == "square":
        nodes, edges = _build_square(distance)
    elif family == "heavy_square":
        nodes, edges = _build_heavy_square(distance)
    else:
        nodes, edges = _build_heavy_hexagon(distance)
    assert len(nodes) == expected_node_count(family, distance)
    return Lattice(family, distance, tuple(nodes), tuple(sorted(edges)), anharmonicity_mhz)


# ---------------------------------------------------------------- square

def _square_check_kind(x: int, y: int, d: int) -> str | None:
    """Which check-qubit class (if any) occupies even-even grid point (x, y).

    Interior columns carry one class on alternating plaquettes, interior rows
    the other; together they tile the d x d data grid with d**2 - 1 checks.
    """
    hi = 2 * d
    if x % 2 or y % 2:
        return None
    if 2 <= x <= hi - 2 and ((x % 4 == 2 and y % 4 == 0) or (x % 4 == 0 and y % 4 == 2)):
        return "a"
    if 2 <= y <= hi - 2 and ((x % 4 == 0 and y % 4 == 0) or (x % 4 == 2 and y % 4 == 2)):
        return "b"
    return None


def _build_square(d: int) -> tuple:
    hi = 2 * d
    nodes = []
    id_at = {}
    for y in range(hi + 1):
        for x in range(hi + 1):
            if x % 2 == 1 and y % 2 == 1:
                col, row = (x - 1) // 2, (y - 1) // 2
                idx = ((3, 2), (1, 4))[row % 2][col % 2]  # 2x2 tile holds all four
                node = QubitNode(len(nodes), x, y, "data", "target", idx)
            elif _square_check_kind(x, y, d):
                node = QubitNode(len(nodes), x, y, "ancilla", "control", 5)
            else:
                continue
            id_at[(x, y)] = node.node_id
            nodes.append(node)
    edges = []
    for node in nodes:
        if node.code_role != "ancilla":
            continue
        for dx in (-1, 1):
            for dy in (-1, 1):
                tgt = id_at.get((node.x + dx, node.y + dy))
                if tgt is not None:
                    edges.append((node.node_id, tgt))
    return nodes, edges


# ---------------------------------------------------------- heavy square

def _build_heavy_square(d: int) -> tuple:
    nodes = []
    couple = []  # (coupler position, code_role, [data grid coords it joins])
    data_id = {}

    def add(x, y, code_role, gate_role, idx):
        nodes.append(QubitNode(len(nodes), x, y, code_role, gate_role, idx))
        return len(nodes) - 1

    for i in range(d):          # data rows, with couplers interleaved in scan order
        for j in range(d):
            data_id[(i, j)] = add(2 * j, 2 * i, "data", "target", 1 + (i + j) % 2)
            if j < d - 1:
                couple.append(((2 * j + 1, 2 * i), "flag", [(i, j), (i, j + 1)]))
        if i < d - 1:
            for j in range(d):
                couple.append(((2 * j, 2 * i + 1), "ancilla", [(i, j), (i + 1, j)]))
    # paired boundary couplers, alternating like the interleaved check pattern:
    # top pairs start one column in, bottom pairs at the corner, and likewise
    # (rotated) on the left/right sides.
    for j in range(1, d - 1, 2):
        couple.append(((2 * j + 1, -1), "ancilla", [(0, j), (0, j + 1)]))
    for j in range(0, d - 2, 2):
        couple.append(((2 * j + 1, 2 * d - 1), "ancilla", [(d - 1, j), (d - 1, j + 1)]))
    for i in range(0, d - 2, 2):
        couple.append(((-1, 2 * i + 1), "ancilla", [(i, 0), (i + 1, 0)]))
    for i in range(1, d - 1, 2):
        couple.append(((2 * d - 1, 2 * i + 1), "ancilla", [(i, d - 1), (i + 1, d - 1)]))

    edges = []
    for (x, y), role, joins in couple:
        cid = add(x, y, role, "control", 3)
        for ij in joins:
            edges.append((cid, data_id[ij]))
    return nodes, edges


# --------------------------------------------------------- heavy hexagon

def _hex_row_cols(r: int, d: int) -> range:
    if r == 0:
        return range(0, 2 * d)
    if r == d - 1:
        return range(1, 2 * d + 1)
    return range(0, 2 * d + 1)


def _build_heavy_hexagon(d: int) -> tuple:
    nodes = []
    id_at = {}

    def add(x, y, code_role, gate_role, idx):
        node = QubitNode(len(nodes), x, y, code_role, gate_role, idx)
        id_at[(x, y)] = node.node_id
        nodes.append(node)

    edges = []
    for r in range(d):
        cols = _hex_row_cols(r, d)
        for c in cols:
            if c % 2 == 0:
                add(c, 2 * r, "data" if r == 0 else "flag", "target", 1 + (r + c // 2) % 2)
            else:
                add(c, 2 * r, "flag" if r == 0 else "data", "control", 3)
        for c in cols:
            if c + 1 in cols:  # row-internal edge; the odd-column qubit drives
                lo, hi = id_at[(c, 2 * r)], id_at[(c + 1, 2 * r)]
                edges.append((hi, lo) if c % 2 == 0 else (lo, hi))
        if r > 0:  # connectors bridging the gap just closed, alternating offset
            above = _hex_row_cols(r - 1, d)
            for c in range(0 if (r - 1) % 2 == 0 else 2, 2 * d + 1, 4):
                if c in cols and c in above:
                    add(c, 2 * r - 1, "ancilla", "control", 3)
                    cid = id_at[(c, 2 * r - 1)]
                    edges.append((cid, id_at[(c, 2 * r - 2)]))
                    edges.append((cid, id_at[(c, 2 * r)]))
    return nodes, edges


# ------------------------------------------------------------- patterns

@dataclass(frozen=True)
class FrequencyPattern:
    """Evenly spaced set points from a fixed 5 GHz, which no collision window reads."""

    spacing_mhz: float = DEFAULT_SPACING_MHZ

    def with_spacing(self, spacing_mhz: float) -> "FrequencyPattern":
        return replace(self, spacing_mhz=spacing_mhz)


def set_points_mhz(lattice: Lattice, pattern: FrequencyPattern, spacings_mhz=None) -> np.ndarray:
    """Per-qubit frequency set points in MHz, indexed by node id.

    Given a sequence ``spacings_mhz``, one row per spacing in it (float
    [len(spacings_mhz), n_qubits]), row k equal to the set points of
    ``pattern.with_spacing(spacings_mhz[k])``.
    """
    spacing = np.asarray(pattern.spacing_mhz if spacings_mhz is None else spacings_mhz,
                         dtype=float)
    if not np.all((0.0 <= spacing) & (spacing < math.inf)):
        raise ParameterError("pattern needs finite spacing >= 0", "spacing_mhz")
    idx = np.array([n.pattern_index for n in lattice.nodes], dtype=float)
    with np.errstate(over="ignore"):  # reported below, naming the spacing
        points = _BASE_MHZ + (idx - 1.0) * spacing[..., None]
    if not np.all(points <= MAX_MHZ):
        raise ParameterError(f"set points exceed {MAX_MHZ:g} MHz at this spacing", "spacing_mhz")
    return points


def next_nearest_triples(lattice: Lattice) -> tuple:
    """Spectator triples (i, j, k): i and k are distinct neighbours of j and
    j is the gate control of at least one of them.  Returned with i < k,
    sorted, each triple once."""
    adj = lattice.neighbors()
    drives = set(lattice.edges)
    triples = []
    for j in range(lattice.n_qubits):
        nb = adj[j]
        for a in range(len(nb)):
            for b in range(a + 1, len(nb)):
                i, k = nb[a], nb[b]
                if (j, i) in drives or (j, k) in drives:
                    triples.append((i, j, k))
    return tuple(sorted(triples))


@dataclass(frozen=True, eq=False)
class CollisionIndex:
    """A lattice's edges (control, target) and spectator triples (i, j, k) as
    node arrays, and the anharmonicity that places its collision windows.
    Equal and hashed by identity, since its arrays have no truth value."""

    n_qubits: int
    edge_control: np.ndarray
    edge_target: np.ndarray
    tri_i: np.ndarray
    tri_j: np.ndarray
    tri_k: np.ndarray
    anharmonicity_mhz: float = DEFAULT_ANHARMONICITY_MHZ


def build_index(lattice: Lattice) -> CollisionIndex:
    """``lattice``'s :class:`CollisionIndex`, read-only so no caller can change a later count."""
    edges = np.array(lattice.edges, dtype=np.intp).reshape(-1, 2)
    triples = np.array(next_nearest_triples(lattice), dtype=np.intp).reshape(-1, 3)
    columns = [np.array(column) for column in (*edges.T, *triples.T)]  # contiguous copies
    for column in columns:
        column.flags.writeable = False
    return CollisionIndex(lattice.n_qubits, *columns, lattice.anharmonicity_mhz)


def connected_components(lattice: Lattice) -> int:
    adj = lattice.neighbors()
    seen = [False] * lattice.n_qubits
    n_comp = 0
    for start in range(lattice.n_qubits):
        if seen[start]:
            continue
        n_comp += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return n_comp


def lattice_summary(lattice: Lattice) -> dict:
    """Counts and structural facts used by the CLI table and sanity tests."""
    deg = lattice.degrees()
    roles: dict = {}
    for n in lattice.nodes:
        roles[n.code_role] = roles.get(n.code_role, 0) + 1
    control_degrees = [int(deg[n.node_id]) for n in lattice.nodes if n.gate_role == "control"]
    return {
        "family": lattice.family,
        "distance": lattice.distance,
        "n_qubits": lattice.n_qubits,
        "n_edges": len(lattice.edges),
        "n_triples": len(next_nearest_triples(lattice)),
        "max_degree": int(deg.max()),
        "min_degree": int(deg.min()),
        "code_roles": roles,
        "max_control_degree": max(control_degrees) if control_degrees else 0,
        "pattern_size": lattice.pattern_size,
        "connected": connected_components(lattice) == 1,
    }


# --------------------------------------------------------- serialization

def to_json_dict(lattice: Lattice) -> dict:
    return {
        "family": lattice.family,
        "distance": lattice.distance,
        "nodes": [
            {
                "id": n.node_id,
                "position": [n.x, n.y],
                "code_role": n.code_role,
                "gate_role": n.gate_role,
                "pattern_index": n.pattern_index,
            }
            for n in lattice.nodes
        ],
        "edges": [[c, t] for c, t in lattice.edges],
    }


def to_dot(lattice: Lattice) -> str:
    """Graphviz digraph; node positions pinned so neato-style tools draw the layout."""
    shape = {"data": "circle", "ancilla": "box", "flag": "diamond"}
    lines = [f'digraph "{lattice.family}_d{lattice.distance}" {{']
    for n in lattice.nodes:
        lines.append(
            f'  q{n.node_id} [label="{n.node_id}:{n.pattern_index}", shape={shape[n.code_role]}, '
            f'pos="{n.x},{-n.y}!"];'
        )
    for c, t in lattice.edges:
        lines.append(f"  q{c} -> q{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"
