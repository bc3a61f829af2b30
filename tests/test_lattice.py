import dataclasses
import pickle

import numpy as np
import pytest

from freqcrowd import collision, lattice
from freqcrowd.errors import ParameterError
from reference import spectator_triples

# (family, distance) -> qubits, directed couplings, spectator triples
SIZES = {
    ("square", 3): (17, 24, 28),
    ("square", 5): (49, 80, 104),
    ("square", 7): (97, 168, 228),
    ("heavy_square", 3): (25, 32, 16),
    ("heavy_square", 5): (73, 96, 48),
    ("heavy_square", 7): (145, 192, 96),
    ("heavy_hexagon", 3): (23, 24, 11),
    ("heavy_hexagon", 5): (65, 72, 35),
    ("heavy_hexagon", 7): (127, 144, 71),
}

ROLES = {
    ("square", 3): {"data": 9, "ancilla": 8},
    ("square", 5): {"data": 25, "ancilla": 24},
    ("square", 7): {"data": 49, "ancilla": 48},
    ("heavy_square", 3): {"data": 9, "flag": 6, "ancilla": 10},
    ("heavy_square", 5): {"data": 25, "flag": 20, "ancilla": 28},
    ("heavy_square", 7): {"data": 49, "flag": 42, "ancilla": 54},
    ("heavy_hexagon", 3): {"data": 9, "ancilla": 4, "flag": 10},
    ("heavy_hexagon", 5): {"data": 25, "ancilla": 12, "flag": 28},
    ("heavy_hexagon", 7): {"data": 49, "ancilla": 24, "flag": 54},
}


@pytest.mark.parametrize("family,distance", sorted(SIZES))
def test_node_edge_triple_counts(nine_lattices, family, distance):
    lat = nine_lattices[(family, distance)]
    n, e, t = SIZES[(family, distance)]
    assert lat.n_qubits == n
    assert len(lat.edges) == e
    assert len(lattice.next_nearest_triples(lat)) == t
    assert lattice.expected_node_count(family, distance) == n


@pytest.mark.parametrize("family,distance", sorted(ROLES))
def test_code_role_census(nine_lattices, family, distance):
    lat = nine_lattices[(family, distance)]
    census = {}
    for node in lat.nodes:
        census[node.code_role] = census.get(node.code_role, 0) + 1
    assert census == ROLES[(family, distance)]


@pytest.mark.parametrize("family,distance", sorted(SIZES))
def test_single_component_and_degree_caps(nine_lattices, family, distance):
    lat = nine_lattices[(family, distance)]
    assert lattice.connected_components(lat) == 1
    deg = lat.degrees()
    # hexagon is the only family that caps vertex degree at 3; heavy-square
    # gets its name from subdividing edges, so its flags sit at degree 2
    assert deg.max() <= (3 if family == "heavy_hexagon" else 4)
    assert deg.min() >= 1
    if family == "heavy_square":
        for node in lat.nodes:
            if node.code_role == "flag":
                assert deg[node.node_id] == 2


@pytest.mark.parametrize("distance,n_qubits", [(11, 311), (19, 919)])
def test_large_heavy_hexagon_size_and_connectivity(distance, n_qubits):
    """(5d**2 + 2d - 5) / 2 qubits in one component beyond the nine lattices."""
    lat = lattice.build_lattice("heavy_hexagon", distance)
    assert lat.n_qubits == n_qubits == (5 * distance**2 + 2 * distance - 5) // 2
    assert lattice.connected_components(lat) == 1


def test_heavy_hexagon_has_two_degree_one_vertices(nine_lattices):
    for d in (3, 5, 7):
        deg = nine_lattices[("heavy_hexagon", d)].degrees()
        assert int(np.sum(deg == 1)) == 2


def test_pattern_sizes(nine_lattices):
    assert nine_lattices[("square", 3)].pattern_size == 5
    assert nine_lattices[("heavy_square", 5)].pattern_size == 3
    assert nine_lattices[("heavy_hexagon", 7)].pattern_size == 3


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_controls_drive_every_edge(nine_lattices, family):
    """Gate direction convention: edge = (control, target), and the control
    role is consistent per node — no qubit is control on one coupling and
    target on another."""
    lat = nine_lattices[(family, 5)]
    controls = {c for c, _ in lat.edges}
    targets = {t for _, t in lat.edges}
    assert not controls & targets
    for c, _ in lat.edges:
        assert lat.nodes[c].gate_role == "control"
    for _, t in lat.edges:
        assert lat.nodes[t].gate_role == "target"


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_heavy_controls_at_top_setpoint(nine_lattices, family):
    """In the 3-frequency families every control sits on the highest set
    point; in the square family the controls are the ancillas at the middle
    of the 5-point ladder."""
    lat = nine_lattices[(family, 3)]
    want = 5 if family == "square" else 3
    for c, _ in lat.edges:
        assert lat.nodes[c].pattern_index == want


def test_triples_match_reference_enumeration(nine_lattices):
    for key, lat in nine_lattices.items():
        assert list(lattice.next_nearest_triples(lat)) == spectator_triples(
            lat.n_qubits, lat.edges)


def test_collision_index_is_built_once_and_read_only(hh3):
    """A lattice builds its collision index on first use and keeps it: its
    edges and spectator triples as arrays that no caller can write to.
    Equality, hashing, pickling and copies ignore it, and a copy's index is
    read-only too."""
    index = hh3.collision_index
    assert hh3.collision_index is index
    assert list(zip(index.edge_control.tolist(), index.edge_target.tolist())) == list(hh3.edges)
    assert list(zip(*(a.tolist() for a in (index.tri_i, index.tri_j, index.tri_k)))) == \
        list(lattice.next_nearest_triples(hh3))
    fresh = lattice.build_lattice("heavy_hexagon", 3)
    assert hh3 == fresh and hash(hh3) == hash(fresh)
    assert pickle.dumps(hh3) == pickle.dumps(fresh)
    copied = pickle.loads(pickle.dumps(hh3))
    for idx in (index, copied.collision_index):
        for name in ("edge_control", "edge_target", "tri_i", "tri_j", "tri_k"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(idx, name)[0] = 0


def test_collision_indexes_compare_and_hash_by_identity(hh3):
    """Two indexes of equal lattices are distinct objects: comparing or hashing
    them never asks an array for a truth value."""
    index = hh3.collision_index
    fresh = lattice.build_lattice("heavy_hexagon", 3).collision_index
    assert index == index and not index != index
    assert index != fresh and not index == fresh
    assert len({index, fresh, index}) == 2


def test_anharmonicity_is_checked_where_a_lattice_is_made(hh3):
    """A lattice carries its transmons' anharmonicity, checked however the
    lattice is made, and its collision index carries it to the kernel."""
    assert hh3.anharmonicity_mhz == lattice.DEFAULT_ANHARMONICITY_MHZ == -330.0
    assert collision.DEFAULT_ANHARMONICITY_MHZ == lattice.DEFAULT_ANHARMONICITY_MHZ
    for bad in (100.0, 0.0, float("nan"), float("-inf"), -1.7976931348623157e308):
        for make in (lambda: lattice.build_lattice("heavy_hexagon", 3, bad),
                     lambda: dataclasses.replace(hh3, anharmonicity_mhz=bad),
                     lambda: lattice.Lattice("pair", 3, hh3.nodes[:2], ((0, 1),), bad)):
            with pytest.raises(ParameterError, match=r"anharmonicity must be negative and "
                                                     r">= -1e\+300 \(MHz\)") as excinfo:
                make()
            assert excinfo.value.param == "anharmonicity_mhz"
    soft = lattice.build_lattice("heavy_hexagon", 3, -lattice.MAX_MHZ)
    assert soft.collision_index.anharmonicity_mhz == -lattice.MAX_MHZ
    assert soft != hh3 and soft.edges == hh3.edges
    assert hh3.collision_index.anharmonicity_mhz == -330.0


def test_distance_validation():
    with pytest.raises(ParameterError):
        lattice.build_lattice("square", 4)
    with pytest.raises(ParameterError):
        lattice.build_lattice("square", 1)
    with pytest.raises(ParameterError):
        lattice.build_lattice("octagon", 3)
    for past_the_largest in (lattice.MAX_DISTANCE + 2, 99999):
        with pytest.raises(ParameterError, match=r"odd integer in \[3, 31\]"):
            lattice.build_lattice("square", past_the_largest)


@pytest.mark.parametrize("family", lattice.FAMILIES)
def test_largest_distance_builds(family):
    assert lattice.MAX_DISTANCE >= 19
    lat = lattice.build_lattice(family, lattice.MAX_DISTANCE)
    assert lat.n_qubits == lattice.expected_node_count(family, lattice.MAX_DISTANCE)


def test_family_spelling_normalisation():
    a = lattice.build_lattice("heavy-hexagon", 3)
    b = lattice.build_lattice("heavy_hexagon", 3)
    assert a.family == b.family == "heavy_hexagon"
    assert a.edges == b.edges


def test_set_points_ladder(hh3):
    """The ladder starts at a fixed 5 GHz; its spacing is the one setting."""
    pat = lattice.FrequencyPattern(spacing_mhz=70.0)
    f = lattice.set_points_mhz(hh3, pat)
    assert set(np.unique(f)) == {5000.0, 5070.0, 5140.0}
    with pytest.raises(TypeError):
        lattice.FrequencyPattern(base_ghz=5.0)


def test_set_points_on_a_spacing_grid_match_one_spacing_at_a_time(hh3):
    """One row per grid spacing, bit for bit the pattern at that spacing."""
    pat = lattice.FrequencyPattern()
    grid = (0.0, 30.0, 37.5, 150.0)
    stack = lattice.set_points_mhz(hh3, pat, grid)
    assert stack.shape == (len(grid), hh3.n_qubits)
    for row, s in zip(stack, grid):
        assert row.tobytes() == lattice.set_points_mhz(hh3, pat.with_spacing(s)).tobytes()
    assert lattice.set_points_mhz(hh3, pat, ()).shape == (0, hh3.n_qubits)


def test_set_points_validation(hh3):
    """Each rejection names the one parameter at fault."""
    nan, inf = float("nan"), float("inf")
    for spacing in (-5.0, nan, inf, -inf):
        with pytest.raises(ParameterError, match="finite spacing >= 0") as excinfo:
            lattice.set_points_mhz(hh3, lattice.FrequencyPattern(spacing_mhz=spacing))
        assert excinfo.value.param == "spacing_mhz"
    for bad in (-5.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="finite spacing >= 0") as excinfo:
            lattice.set_points_mhz(hh3, lattice.FrequencyPattern(), (30.0, bad, 40.0))
        assert excinfo.value.param == "spacing_mhz"
    # finite, but past lattice.MAX_MHZ, where a trial's operands could overflow
    with pytest.raises(ParameterError, match=r"1e\+300 MHz") as excinfo:
        lattice.set_points_mhz(hh3, lattice.FrequencyPattern(spacing_mhz=5e307))
    assert excinfo.value.param == "spacing_mhz"


def test_dot_output_mentions_every_node(hh3):
    dot = lattice.to_dot(hh3)
    assert dot.startswith("digraph")
    for node in hh3.nodes:
        assert f"q{node.node_id}" in dot


def test_summary_contents(nine_lattices):
    s = lattice.lattice_summary(nine_lattices[("square", 5)])
    assert s["n_qubits"] == 49
    assert s["code_roles"] == {"ancilla": 24, "data": 25}
