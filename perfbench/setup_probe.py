"""Time a fresh process's set-up: import a freqcrowd module, then build the
given lattices and their collision indexes.  Prints the seconds taken.

Usage: python setup_probe.py MODULE FAMILY:DISTANCE [FAMILY:DISTANCE ...]
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
__import__(sys.argv[1])  # the import statement's path, which -X importtime logs
from freqcrowd import collision, lattice  # noqa: E402

for spec in sys.argv[2:]:
    family, distance = spec.split(":")
    collision.build_index(lattice.build_lattice(family, int(distance)))
print(repr(time.perf_counter() - START))
