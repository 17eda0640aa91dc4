#!/usr/bin/env python3
"""Step and evaluation counts of the solver on a fixed corpus of solves.

For each solve it prints the steps, the energy evaluations, the banded solves
(``solves``: calls of ``optimize._band_solve``, one per step plus the one of a
run that a duality gap certifies), those with Newton weights, the line-search
failures, the stop reason, the duality
gap over the energy, ``gap/|E|``, to read against the solve's tol (taken at
the last step at the Kacanov eps floor; ``-`` where no step reached it), the
final energy as ``float.hex()``, the wall time of the minimization and the
milliseconds spent in ``optimize._band_solve`` (``band_ms``); a last row sums
the steps, evaluations, solves and ``band_ms``.  The corpus is every solve of
the benchmark's workloads (``perfbench/workloads.py``: paper-figures, dg-dense,
dg-limited, const-p2), DG on the paper problem at 2560 and 5120 elements, the
hat exponent with q = r = 3 fidelity for DG and CG at 10 and 40 elements, and
DG with ``--k 2 --l 1`` at 20, 30, ..., 80 elements.
Counts, totals and energies are deterministic; times are not, so two runs
diffed without the ``wall_s`` and ``band_ms`` columns, the first 117
characters of each line, check a refactor bitwise; ``tests/data/solver_counts.txt``
holds them, and a test compares them with ``lines()``.  Nothing is written to disk.

    python3 scripts/solver_counts.py
    python3 scripts/solver_counts.py | cut -c1-117 > counts.txt
"""

import os
import sys
import time
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np

from perfbench.workloads import BUILDERS
from pxdg import optimize
from pxdg.exponents import ExponentField
from pxdg.functional import FunctionalSpec
from pxdg.meshes import uniform_mesh
from pxdg.optimize import BfgsConfig, solve_cg, solve_dg
from pxdg.problems import benchmark_mesh, dg_spec, paper1d


def hat_fidelity_problem(n):
    """p down to 1.01 at the origin, q = r = 3 fidelity, Dirichlet left, Neumann right."""
    p3 = ExponentField.constant(3.0)
    return FunctionalSpec(uniform_mesh(-1, 1, n, "left"), ExponentField.hat_family(0.01, 0.01),
                          q=p3, r=p3, xi=np.cos, u_D={"left": -1.0})


def corpus():
    """(label, method, spec, degree, config) of every solve."""
    for name, build in BUILDERS.items():
        for case in build():
            yield (f"{name}/{case.label}", case.method, case.spec, 1,
                   BfgsConfig(grad_tol=case.tol, max_iters=case.max_iters))
    prob = paper1d()
    for n in (2560, 5120):
        yield f"paper-dg-{n}", "dg", dg_spec(prob, benchmark_mesh(n)), 1, BfgsConfig(max_iters=20000)
    for method in ("dg", "cg"):
        for n in (10, 40):
            yield f"hat-fidelity-{method}-{n}", method, hat_fidelity_problem(n), 1, BfgsConfig()
    for n in range(20, 81, 10):
        yield (f"paper-dg-k2-l1-{n}", "dg", dg_spec(prob, benchmark_mesh(n), l=1), 2,
               BfgsConfig(max_iters=20000))


def lines():
    """The header, one line per solve of the corpus and the total line, as
    printed.  While they run, ``optimize._band_solve`` counts and times its
    calls."""
    band_solve, tally = optimize._band_solve, [0, 0.0]

    def counted(*args):
        t0 = time.perf_counter()
        try:
            return band_solve(*args)
        finally:
            tally[0] += 1
            tally[1] += time.perf_counter() - t0

    out = [f"{'solve':<28} {'steps':>6} {'evals':>6} {'solves':>6} {'newton':>6} {'ls_fail':>7} "
           f"{'stop':<18} {'gap/|E|':>10} {'energy':>22} {'wall_s':>8} {'band_ms':>8}"]
    total = np.zeros(3, dtype=int)
    band_ms = 0.0
    with mock.patch.object(optimize, "_band_solve", counted):
        for label, method, spec, k, cfg in corpus():
            tally[:] = 0, 0.0
            rep = (solve_dg if method == "dg" else solve_cg)(spec, k, cfg)
            gap = "-" if rep.gap is None else f"{rep.gap / abs(rep.f_history[-1]):.3g}"
            out.append(f"{label:<28} {rep.iterations:>6} {rep.n_evals:>6} {tally[0]:>6} "
                       f"{rep.newton_steps:>6} {rep.line_search_failures:>7} "
                       f"{rep.stop_reason:<18} {gap:>10} {rep.breakdown.total.hex():>22} "
                       f"{rep.wall_time:>8.4f} {1e3 * tally[1]:>8.2f}")
            total += (rep.iterations, rep.n_evals, tally[0])
            band_ms += 1e3 * tally[1]
    # band_ms in its column, past the first 117 characters
    out.append(f"{'total':<28} {total[0]:>6} {total[1]:>6} {total[2]:>6}{'':>77} {band_ms:>8.2f}")
    return out


def main():
    print("\n".join(lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
