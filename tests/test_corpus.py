"""The solver corpus and the Luxemburg norms of the benchmark workloads, as
``scripts/solver_counts.py`` and ``scripts/norm_counts.py`` print them, are
byte for byte the checked-in ``tests/data`` files: every step, evaluation,
banded solve, Newton step, line-search failure, stop reason, modular sum,
duality gap, hex energy and hex norm.  A change that moves one on purpose
regenerates the file,

    python3 scripts/solver_counts.py | cut -c1-117 > tests/data/solver_counts.txt
    python3 scripts/norm_counts.py > tests/data/norm_counts.txt

and names every moved line in CHANGES.md."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from pxdg import band, exponents  # noqa: E402
from scripts import norm_counts, solver_counts  # noqa: E402


def expected(name):
    with open(os.path.join(ROOT, "tests", "data", name)) as fh:
        return fh.read()


def test_solver_corpus_is_unchanged():
    # the first 117 characters leave out the wall_s and band_ms columns
    band_solve = band.KacanovBand.solve
    got = "".join(line[:117] + "\n" for line in solver_counts.lines())
    assert got == expected("solver_counts.txt")
    assert band.KacanovBand.solve is band_solve


def test_luxemburg_norms_of_the_workloads_are_unchanged():
    norm, modular_at = exponents.luxemburg_norm, exponents._modular_at
    modular_and_slope = exponents._modular_and_slope
    got = "".join(line + "\n" for line in norm_counts.lines())
    assert got == expected("norm_counts.txt")
    assert exponents.luxemburg_norm is norm
    assert exponents._modular_at is modular_at
    assert exponents._modular_and_slope is modular_and_slope
