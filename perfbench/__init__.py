"""Benchmark harness for freqcrowd; README.md in this directory describes it."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"
WORK = ROOT / ".perfbench_work"
