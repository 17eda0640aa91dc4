#!/usr/bin/env python3
"""Reproduce the benchmark comparison figures.

Writes, under results/comparison/:
  * compare_n41.csv / .svg  - DG on the 41-node mesh vs CG on 82 intervals
  * cg_resolution.csv / .svg - CG at 300 vs 400 intervals against the exact curve

The DG curve hugs the exact near-step solution already on the coarse mesh; the
conforming method needs 400 intervals before it leaves the straight line.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pxdg.cli import main as pxdg_main
from pxdg.optimize import solve_cg
from pxdg.problems import benchmark_mesh, cg_spec, paper1d, solution_errors
from pxdg.reports import csv_text, write_atomic
from pxdg.svg import LineChart

OUT = os.path.join(os.path.dirname(__file__), "..", "results", "comparison")


def cg_resolution_figure():
    prob = paper1d()
    chart = LineChart(title="conforming method vs exact solution")
    gx = np.linspace(-1, 1, 801)
    chart.add_series(gx, prob.exact.u(gx), "exact")
    rows = []
    for n in (300, 400):
        rep = solve_cg(cg_spec(prob, benchmark_mesh(n)), 1)
        u = rep.solution
        nodes = u.mesh.nodes
        vals = np.concatenate([u.coeffs[:, 0], [u.coeffs[-1, -1]]])
        chart.add_series(nodes, vals, f"cg {n} intervals")
        e = solution_errors(u, prob)
        rows.append((n, e["l1"], e["max_nodal"]))
    csv = csv_text(("intervals", "l1", "max_nodal"), rows)
    write_atomic(os.path.join(OUT, "cg_resolution.svg"), chart.render())
    write_atomic(os.path.join(OUT, "cg_resolution.csv"), csv)
    print(csv, end="")


if __name__ == "__main__":
    code = pxdg_main(["compare", "--n", "41", "--out", OUT, "--plot", "svg"])
    cg_resolution_figure()
    sys.exit(code)
