"""pxdg command line: solve | convergence | compare | exact | properties.

Options can come from a line-oriented key=value config file (--config); flags
win over file entries.  Exit codes: 0 success, 1 solver non-convergence (or a
solve that diverged, reported as "solve error"), 2 property failure,
3 configuration error.
"""

import argparse
import os
import sys

import numpy as np

from .broken import broken_seminorm, volume_samples
from .exact import build_exact
from .exponents import WeightedSampleSet, luxemburg_norm
from .functional import TermBreakdown
from .lifting import lift
from .meshes import uniform_mesh
from .optimize import BfgsConfig, solve_cg, solve_dg
from .problems import (
    benchmark_mesh,
    cg_spec,
    custom_spec,
    dg_spec,
    load_problem_file,
    paper1d,
    reference_energy,
    solution_errors,
)
from .properties import SUITES, run_suites
from .reports import ConvergenceRow, convergence_csv, fmt, write_atomic
from .svg import LineChart

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_PROPERTY_FAILURE = 2
EXIT_CONFIG_ERROR = 3


def _build_parser():
    ap = argparse.ArgumentParser(prog="pxdg")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value option file; flags win")
        p.add_argument("--problem", default="paper1d",
                       help="paper1d | custom:FILE")
        p.add_argument("--eps", type=float, default=0.01)
        p.add_argument("--a", type=float, default=0.01)
        p.add_argument("--C", type=float, default=1.3)
        p.add_argument("--k", type=int, default=1, help="polynomial degree")
        p.add_argument("--l", type=int, default=None, help="lifting degree (default k)")
        p.add_argument("--quad", default="trapezoid", choices=["trapezoid", "gauss"])
        p.add_argument("--m-panels", type=int, default=1, dest="m_panels",
                       help="panels (trapezoid) or points (gauss) per element")
        p.add_argument("--tol", type=float, default=1e-8, help="relative gradient tolerance")
        p.add_argument("--max-iters", type=int, default=20000, dest="max_iters")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--plot", choices=["svg"], help="also write SVG plots")

    ps = sub.add_parser("solve", help="minimize one discrete problem")
    common(ps)
    ps.add_argument("--method", choices=["dg", "cg"], default="dg")
    ps.add_argument("--n", type=int, required=True, help="element count")

    pc = sub.add_parser("convergence", help="sweep over mesh sizes")
    common(pc)
    pc.add_argument("--method", choices=["dg", "cg"], default="dg")
    pc.add_argument("--ns", default="10,20,40,80,160",
                    help="comma-separated element counts")

    pm = sub.add_parser("compare", help="DG(n) against CG(2n)")
    common(pm)
    pm.add_argument("--n", type=int, required=True)

    pe = sub.add_parser("exact", help="tabulate the benchmark exact solution")
    pe.add_argument("--eps", type=float, default=0.01)
    pe.add_argument("--a", type=float, default=0.01)
    pe.add_argument("--C", type=float, default=1.3)
    pe.add_argument("--samples", type=int, default=1000)
    pe.add_argument("--out", default="exact.csv")

    pp = sub.add_parser("properties", help="run the randomized property suites")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--suite", default="all",
                    help="comma-separated suite names or 'all'")
    pp.add_argument("--out", default=None, help="also write a CSV report")
    pp.add_argument("--debug-break-h", action="store_true", dest="break_h",
                    help="corrupt the face-size function (negative control)")
    return ap, sub.choices


def _apply_config_file(args, argv, parser):
    """Fill args from the --config file; each value is converted by the type of
    the subcommand parser's action for that key."""
    if not getattr(args, "config", None):
        return args
    overrides = {}
    with open(args.config) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            overrides[key.strip().replace("-", "_")] = val.strip()
    argv_keys = {a.lstrip("-").split("=")[0].replace("-", "_")
                 for a in argv if a.startswith("--")}
    actions = {a.dest: a for a in parser._actions}
    for key, val in overrides.items():
        if key in argv_keys or key not in actions:
            continue  # flags win; unknown keys are ignored
        action = actions[key]
        if isinstance(action.default, bool):
            val = val.lower() in ("1", "true", "on", "yes")
        elif action.type is not None:
            try:
                val = action.type(val)
            except ValueError:
                raise ValueError(f"{key} = {val!r} in {args.config} is not "
                                 f"a valid {action.type.__name__}") from None
        setattr(args, key, val)
    return args


def _setup_problem(args):
    """Returns (kind, problem-or-opts)."""
    if args.problem == "paper1d":
        return "paper1d", paper1d(args.eps, args.a, args.C)
    if args.problem.startswith("custom:"):
        return "custom", load_problem_file(args.problem.split(":", 1)[1])
    raise ValueError(f"unknown problem {args.problem!r}")


def _mesh_for(kind, payload, n):
    if kind == "paper1d":
        return benchmark_mesh(n, "both")
    lo, hi = payload["domain"]
    return uniform_mesh(lo, hi, n, payload["dirichlet"])


def _spec_for(kind, payload, mesh, args, method):
    quad = (args.quad, args.m_panels)
    if kind == "paper1d":
        if method == "dg":
            return dg_spec(payload, mesh, quadrature=quad, l=args.l)
        return cg_spec(payload, mesh, quadrature=quad)
    return custom_spec(payload, mesh, quadrature=quad, l=args.l,
                       normalize=(method == "cg"))


def _run_one(kind, payload, args, method, n):
    mesh = _mesh_for(kind, payload, n)
    spec = _spec_for(kind, payload, mesh, args, method)
    cfg = BfgsConfig(grad_tol=args.tol, max_iters=args.max_iters)
    rep = solve_dg(spec, args.k, cfg) if method == "dg" else solve_cg(spec, args.k, cfg)
    return mesh, spec, rep


def _polyline(u):
    """Each element's end values joined in order: (xs, ys), two points per element."""
    xs = np.column_stack([u.mesh.nodes[:-1], u.mesh.nodes[1:]]).ravel()
    ys = u.coeffs[:, [0, -1]].ravel()
    return xs, ys


def _solution_plot(path, rep, problem=None, extra=None, title=""):
    chart = LineChart(title=title)
    u = rep.solution
    if problem is not None:
        gx = np.linspace(u.mesh.x_left, u.mesh.x_right, 801)
        chart.add_series(gx, problem.exact.u(gx), "exact")
    chart.add_series(*_polyline(u), rep.method)
    if extra is not None:
        for label, exs, eys in extra:
            chart.add_series(exs, eys, label)
    write_atomic(path, chart.render())


def cmd_solve(args):
    kind, payload = _setup_problem(args)
    mesh, spec, rep = _run_one(kind, payload, args, args.method, args.n)
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "solution.csv"), rep.solution.to_csv())
    write_atomic(os.path.join(args.out, "terms.csv"),
                 TermBreakdown.csv_header() + "\n" + rep.breakdown.csv_row() + "\n")
    write_atomic(os.path.join(args.out, "trace.csv"), rep.trace_csv())
    if kind == "paper1d":
        errs = solution_errors(rep.solution, payload)
        lines = ["metric,value"] + [f"{k},{fmt(v)}" for k, v in errs.items()]
        write_atomic(os.path.join(args.out, "errors.csv"), "\n".join(lines) + "\n")
    if args.plot == "svg":
        _solution_plot(os.path.join(args.out, "solution.svg"), rep,
                       payload if kind == "paper1d" else None,
                       title=f"{args.method} n={mesh.n_elements}")
    print(f"{args.method} n={mesh.n_elements}: energy={rep.breakdown.total:.17g} "
          f"iters={rep.iterations} max|g|={rep.grad_norm_history[-1]:.6g} "
          f"tol={rep.grad_tol:.6g} converged={rep.converged} stop={rep.stop_reason}")
    return EXIT_OK if rep.converged else EXIT_NO_CONVERGENCE


def _convergence_row(kind, payload, args, method, n, reference=None):
    mesh, spec, rep = _run_one(kind, payload, args, method, n)
    u = rep.solution
    if kind == "paper1d":
        errs = solution_errors(u, payload)
        lux_err, max_nodal = errs["lux_p"], errs["max_nodal"]
        p = payload.p
    else:
        p = payload["p"]
        lux_err, max_nodal = _reference_errors(u, reference, p)
    semi = broken_seminorm(u, p)
    R = lift(u, spec.lifting)
    vol, gx = volume_samples(mesh, 6)
    rnorm = luxemburg_norm(vol, R.values_at_ref(gx).ravel(), p)
    bd = rep.breakdown
    return ConvergenceRow(mesh.n_elements, mesh.max_h, lux_err, max_nodal, semi,
                          bd.interior_penalty, bd.dirichlet_penalty, rnorm,
                          bd.total, rep.iterations, rep.wall_time), rep.converged


def _reference_errors(u, reference, p):
    gx = np.linspace(u.mesh.x_left, u.mesh.x_right, 2049)[1:-1]
    diff = u(gx) - reference(gx)
    w = np.full(gx.size, (u.mesh.x_right - u.mesh.x_left) / gx.size)
    lux = luxemburg_norm(WeightedSampleSet(gx, w), diff, p)
    return lux, float(np.max(np.abs(diff)))


def cmd_convergence(args):
    kind, payload = _setup_problem(args)
    ns = [int(t) for t in args.ns.split(",") if t]
    reference = None
    if kind == "custom":
        _, _, ref_rep = _run_one(kind, payload, args, args.method, 2 * max(ns))
        reference = ref_rep.solution
    rows = []
    all_conv = True
    for n in ns:
        row, conv = _convergence_row(kind, payload, args, args.method, n, reference)
        rows.append(row)
        all_conv = all_conv and conv
    os.makedirs(args.out, exist_ok=True)
    csv = convergence_csv(rows)
    write_atomic(os.path.join(args.out, f"convergence_{args.method}.csv"), csv)
    if kind == "paper1d":
        iu = reference_energy(payload)
        write_atomic(os.path.join(args.out, "reference_energy.csv"),
                     f"reference_energy\n{fmt(iu)}\n")
    print(csv, end="")
    return EXIT_OK if all_conv else EXIT_NO_CONVERGENCE


def cmd_compare(args):
    kind, payload = _setup_problem(args)
    if kind != "paper1d":
        raise ValueError("compare needs the benchmark problem")
    mesh_dg, _, rep_dg = _run_one(kind, payload, args, "dg", args.n)
    mesh_cg, _, rep_cg = _run_one(kind, payload, args, "cg", 2 * args.n)
    rows = ["method,n_intervals,dofs,l1,max_nodal,lux_p,energy,iterations,converged"]
    errs = {}
    for method, mesh, rep in (("dg", mesh_dg, rep_dg), ("cg", mesh_cg, rep_cg)):
        e = solution_errors(rep.solution, payload)
        errs[method] = e
        dofs = rep.solution.n_dofs if method == "dg" else mesh.n_elements * args.k - 1
        rows.append(
            f"{method},{mesh.n_elements},{dofs},{fmt(e['l1'])},{fmt(e['max_nodal'])},"
            f"{fmt(e['lux_p'])},{fmt(rep.breakdown.total)},{rep.iterations},{rep.converged}")
    os.makedirs(args.out, exist_ok=True)
    csv = "\n".join(rows) + "\n"
    write_atomic(os.path.join(args.out, f"compare_n{args.n}.csv"), csv)
    if args.plot == "svg":
        _solution_plot(os.path.join(args.out, f"compare_n{args.n}.svg"), rep_dg,
                       payload, extra=[("cg", *_polyline(rep_cg.solution))],
                       title=f"DG n={mesh_dg.n_elements} vs CG n={mesh_cg.n_elements}")
    print(csv, end="")
    ok = rep_dg.converged and rep_cg.converged
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def cmd_exact(args):
    sol = build_exact(args.eps, args.a, args.C)
    write_atomic(args.out, sol.to_csv(args.samples))
    print(f"B={sol.B:.17g} uprime0={sol.uprime(0.0):.17g}")
    return EXIT_OK


def cmd_properties(args):
    names = None if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    if names:
        unknown = set(names) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
    results = run_suites(seed=args.seed, names=names, break_h=args.break_h)
    lines = ["suite,name,passed,detail"]
    ok = True
    for r in results:
        ok = ok and r.passed
        print(("PASS" if r.passed else "FAIL"), f"{r.suite}.{r.name}", "-", r.detail)
        lines.append(f'{r.suite},{r.name},{int(r.passed)},"{r.detail}"')
    if args.out:
        write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_PROPERTY_FAILURE


def main(argv=None):
    ap, subparsers = _build_parser()
    try:
        args = ap.parse_args(argv)
        args = _apply_config_file(args, argv if argv is not None else sys.argv[1:],
                                  subparsers[args.command])
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    handlers = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "compare": cmd_compare,
        "exact": cmd_exact,
        "properties": cmd_properties,
    }
    try:
        return handlers[args.command](args)
    except ArithmeticError as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
