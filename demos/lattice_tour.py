"""Tour of the three coupling-graph families and their set-point patterns.

Builds each family at distance 3/5/7, prints the census (qubits, directed
gate couplings, spectator triples, role counts), and shows why the heavy
graphs need only 3 frequency set-points where the square lattice needs 5:
at a sane spacing the designed pattern produces zero collisions.
"""
from freqcrowd import collision, lattice

for family in lattice.FAMILIES:
    print(f"== {family} ==")
    for distance in (3, 5, 7):
        lat = lattice.build_lattice(family, distance)
        s = lattice.lattice_summary(lat)
        triples = len(lattice.next_nearest_triples(lat))
        print(f"  d={distance}: {lat.n_qubits:>3} qubits, {len(lat.edges):>3} couplings, "
              f"{triples:>3} triples, roles {s['code_roles']}, "
              f"max degree {s['max_degree']}")
    print()

lat = lattice.build_lattice("heavy_hexagon", 3)
pattern = lattice.FrequencyPattern(spacing_mhz=70.0)
ladder = sorted(set(lattice.set_points_mhz(lat, pattern)))
print(f"heavy_hexagon d=3 ladder at 70 MHz spacing: {[f'{v:.0f}' for v in ladder]} MHz")

report = collision.count_collisions(lat, lattice.set_points_mhz(lat, pattern))
print(f"designed pattern collisions: {report.total} (per type {report.per_type})")

# squeeze the ladder until neighbours start landing on each other
for spacing in (70.0, 25.0, 10.0):
    f = lattice.set_points_mhz(lat, pattern.with_spacing(spacing))
    print(f"spacing {spacing:>5.1f} MHz -> {collision.count_collisions(lat, f).total} collisions")

print("\nDOT graph of the d=3 device (render with graphviz):")
print("\n".join(lattice.to_dot(lat).splitlines()[:6]) + "\n...")
