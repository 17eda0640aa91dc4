#!/usr/bin/env python3
"""pxdg benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
The load is one process in a closed loop: one solve at a time, no worker pool,
BLAS at its default thread count.  After set-up, whole passes of the workload
run until ``--seconds`` of passes have been measured (at least one pass).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median import time of a fresh interpreter plus the median of
several set-ups of the workload), ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes (at least two traced),
reports the per-layer metrics of ``spans.LAYER_METRICS`` with the tracing
overhead, checks that the counts repeat exactly between traced passes, and
writes the spans to ``.bench_out/spans_<workload>.csv``.

Every solve is checked against the pinned values in ``expected.json`` (copied
from the committed ``results/`` tables where they exist).  A solve fails if it
does not converge, raises ``ArithmeticError`` or fails that check; failures are
counted, not hidden, and a check failure also makes ``correct`` false.  The
last line of standard output is one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
WORKLOADS = ("paper-figures", "dg-dense", "dg-limited", "const-p2")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_config():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "workers": 1,
    }


def _import_seconds():
    """Seconds a fresh interpreter takes to import the package and its dependencies."""
    code = ("import time; t = time.perf_counter(); import numpy, pxdg.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pxdg", "__init__.py")):
        print(f"no pxdg sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    config = machine_config()
    print("config " + json.dumps(config, sort_keys=True))

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install([])
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.setup(args.workload)
        setups.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    assemblies = [c.assemble() for c in wl.cases]

    walls, traced_walls, passes, layer_passes = [], [], [], []
    measured = 0.0
    while True:
        # traced runs alternate one untraced pass with two traced ones
        traced = bool(tracer) and len(passes) % 3 != 0
        if traced:
            tracer.phase = f"pass{len(passes)}"
            tracer.install(assemblies)
        t0 = time.perf_counter()
        outs = wl.run_pass(args.seed, tracer if traced else None)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            layer_passes.append(spans.layer_metrics(
                tracer.spans, tracer.phase, [o.report for o in outs if o.report]))
        else:
            walls.append(wall)
        passes.append(outs)
        measured += wall
        if measured >= args.seconds and (not tracer or len(traced_walls) >= 2):
            break

    outcomes = [o for outs in passes for o in outs]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    mismatches = [m for o in outcomes for m in o.mismatches]
    # the solvers are deterministic: every pass must repeat the same counts
    counts = {tuple(sorted((o.label, o.report and (o.report.iterations, o.report.line_search_failures))
                           for o in outs)) for outs in passes}
    if len(counts) > 1:
        mismatches.append(f"iteration counts differ between passes: {sorted(counts)}")
    per_pass = len(passes[0])
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} solves/pass {per_pass}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g} "
          f"({failed / len(passes):g} of {per_pass} solves per pass)")
    for o in passes[0]:
        r = o.report
        state = "raised ArithmeticError" if r is None else (
            f"iterations {r.iterations} ls_failures {r.line_search_failures} "
            f"converged {r.converged} energy {r.breakdown.total!r}")
        print(f"  solve {o.label}: {state}{' FAILED' if o.failed else ''}")

    if tracer:
        setup_layers = spans.layer_metrics(tracer.spans, "setup", [])
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        values = spans.combine(setup_layers, layer_passes, overhead)
        mismatches += [f"{name} differs between traced passes: {[p[name] for p in layer_passes]}"
                       for name in spans.count_mismatches(layer_passes)]
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans_{args.workload}.csv"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median([_import_seconds() for _ in range(SETUP_REPEATS)])
                                 + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for m in mismatches:
        print(f"  mismatch {m}")
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
