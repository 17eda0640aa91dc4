#!/usr/bin/env python3
"""The north-star benchmark record: ``BENCH_<git-sha>.json`` at the root of the checkout.

It runs the end-to-end cases of the roadmap's performance aim on the paper
problem (eps = 0.01), each solve as the command line runs it (P1, nodal
trapezoid rule, tol 1e-8, at most 20000 steps) and followed by
``problems.solution_errors``:

- the two solves of ``pxdg compare --n 41``: DG on ``benchmark_mesh(41)``,
  which snaps to 40 elements, and CG on 82 intervals;
- the DG sweep of ``pxdg convergence``: 10, 20, 40, 80 and 160 elements;
- DG at 640, 1280 and 5120 elements;
- CG at 400 intervals.

Then it times one run of the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on the path).  For each case it
records the steps, the evaluations, the banded solves (calls of
``band.KacanovBand.solve``), the Newton steps, the stop reason, gap/|E| at the
last step at the eps floor (None where no step reached it), the energy and its
``float.hex``, the case's wall seconds, and per-layer numbers: those of
``perfbench/spans.py``, whose set-up layers (exact solution, assembly) come
from the case's set-up and the others from its solve and post-processing,
with ``band.solve_s``, the seconds in the banded solves.  The file also holds
``perfbench/run.py``'s ``machine_config()`` and ``dirty``: whether a tracked
file differed from HEAD (None without git).  Neither ``perfbench`` module is
edited.

Counts, stop reasons and energies are deterministic, so a rerun reproduces
them; seconds are not.

    python3 scripts/bench_north_star.py
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spans
from perfbench.run import machine_config
from pxdg import functional, optimize, problems
from scripts.solver_counts import counted_band_solves

# (label, method, elements) of every case
CASES = ([("compare-dg-41", "dg", 41), ("compare-cg-82", "cg", 82)]
         + [(f"sweep-dg-{n}", "dg", n) for n in (10, 20, 40, 80, 160)]
         + [(f"dg-{n}", "dg", n) for n in (640, 1280, 5120)]
         + [("cg-400", "cg", 400)])


def record(method, n):
    """One case, as a dict: its counts, energy, seconds and layers.  The
    program's functions are looked up on their modules at call time, so that
    the tracer's wrappers see them."""
    dg = method == "dg"
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    tracer.install([])
    try:
        problem = problems.paper1d()
        spec = (problems.dg_spec if dg else problems.cg_spec)(problem, problems.benchmark_mesh(n))
        asm = (functional.discrete_assembly if dg else functional.continuous_assembly)(spec, 1)
    finally:
        tracer.uninstall()
    tracer.phase = "run"
    tracer.install([asm])
    try:
        with counted_band_solves() as tally:
            cfg = optimize.BfgsConfig(grad_tol=1e-8, max_iters=20000)
            rep = (optimize.solve_dg if dg else optimize.solve_cg)(spec, 1, cfg)
        problems.solution_errors(rep.solution, problem)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    setup = spans.layer_metrics(tracer.spans, "setup", [])
    layers = spans.layer_metrics(tracer.spans, "run", [rep])
    layers.update({name: setup[name] for name in spans.SETUP_METRICS})
    layers["band.solve_s"] = tally[1]
    energy = rep.breakdown.total
    return {"method": method, "elements": spec.mesh.n_elements, "steps": rep.iterations,
            "evals": rep.n_evals, "band_solves": tally[0], "newton_steps": rep.newton_steps,
            "stop_reason": rep.stop_reason,
            "gap_rel": None if rep.gap is None else rep.gap / abs(rep.f_history[-1]),
            "energy": energy, "energy_hex": energy.hex(), "wall_s": wall, "layers": layers}


def _dirty():
    """Whether a tracked file differs from HEAD; None where git cannot tell."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(out.stdout.strip())


def _tier1():
    """Wall seconds and pytest's summary line of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "summary": lines[-1] if lines else ""}


def main():
    config = machine_config()
    bench = {"git_sha": config["git_sha"], "dirty": _dirty(), "machine": config,
             "cases": {label: record(method, n) for label, method, n in CASES},
             "tier1": _tier1()}
    path = os.path.join(ROOT, f"BENCH_{config['git_sha']}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True, default=int)  # numpy integer counts
        fh.write("\n")
    for label, case in bench["cases"].items():
        print(f"{label:<14} {case['steps']:>4} steps {case['evals']:>4} evals "
              f"{case['band_solves']:>4} solves {case['stop_reason']:<10} {case['wall_s']:.3f} s")
    print(f"tier-1: {bench['tier1']['summary']} ({bench['tier1']['wall_s']:.1f} s wall)")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
