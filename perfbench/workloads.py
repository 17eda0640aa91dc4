"""The benchmark's workloads: fixed solves of ``pxdg`` with their post-processing.

Each workload is built by ``setup`` (problem calibration, meshes, specs and the
cached operator assembly of every case) and run by ``run_pass`` (every solve and
its post-processing, as the command line or the ``scripts/`` experiments do,
without writing files).  The meshes are fixed; the seed only permutes the
order of a pass's solves, which must not change any result.

Program functions are looked up on their modules at call time, so that the
traced run sees them through the wrappers ``spans.Tracer`` installs.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from pxdg import broken, cli, exponents, functional, lifting, meshes, optimize, problems

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

# Derived outputs (errors, norms) move to first order with the solution, so they
# get a looser tolerance than the energy, which is stationary at the minimizer.
DERIVED_RTOL = 1e-6
CLI_MAX_ITERS = 20000


@dataclass
class Case:
    label: str
    method: str              # "dg" | "cg"
    spec: object
    tol: float
    max_iters: int = CLI_MAX_ITERS
    post: object = None      # (workload, case, report) -> dict of outputs
    expect: dict = field(default_factory=dict)
    problem: object = None   # the paper problem, or None for a custom one
    reference_for: str = ""  # const-p2: this solve is the reference of a sweep

    def assemble(self):
        """The spec's operator assembly; built on the first call, cached on the spec."""
        build = functional.discrete_assembly if self.method == "dg" else functional.continuous_assembly
        return build(self.spec, 1)


@dataclass
class Outcome:
    label: str
    report: object
    failed: bool
    mismatches: list


class Workload:
    def __init__(self, cases):
        self.cases = cases
        self.references = {}

    def order(self, rng):
        """Reference solves first (the sweeps need them), the rest shuffled."""
        refs = [c for c in self.cases if c.reference_for]
        rest = [c for c in self.cases if not c.reference_for]
        rng.shuffle(rest)
        return refs + rest

    def run_pass(self, seed, tracer=None):
        outcomes = []
        self.references.clear()
        for case in self.order(random.Random(seed)):
            if tracer is not None:
                tracer.case = case.label
            outcomes.append(self._run_case(case))
        return outcomes

    def _run_case(self, case):
        cfg = optimize.BfgsConfig(grad_tol=case.tol, max_iters=case.max_iters)
        solve = optimize.solve_dg if case.method == "dg" else optimize.solve_cg
        try:
            rep = solve(case.spec, 1, cfg)
        except ArithmeticError:
            return Outcome(case.label, None, True, [])
        if case.reference_for:
            self.references[case.reference_for] = rep.solution
        out = {"energy": rep.breakdown.total}
        if case.post is not None:
            out.update(case.post(self, case, rep))
        mismatches = _check(case, rep.converged, out)
        return Outcome(case.label, rep, not rep.converged or bool(mismatches), mismatches)


def _check(case, converged, out):
    """Pinned values a converged solve must reproduce.

    An unconverged iterate is not checked against them, except that its energy
    cannot lie below the pinned minimum.
    """
    bad = []
    for key, want in case.expect.items():
        got = out[key]
        rtol = case.tol if key == "energy" else DERIVED_RTOL
        if not math.isfinite(got):
            bad.append(f"{case.label}.{key}={got!r}")
        elif converged and abs(got - want) > rtol * abs(want):
            bad.append(f"{case.label}.{key}={got!r} expected {want!r}")
        elif not converged and key == "energy" and got < want * (1.0 - rtol):
            bad.append(f"{case.label}.{key}={got!r} below the minimum {want!r}")
    return bad


# ---- post-processing, as in pxdg.cli and scripts/ -------------------------

def _paper_errors(wl, case, rep):
    e = problems.solution_errors(rep.solution, case.problem)
    return {"l1": e["l1"], "max_nodal": e["max_nodal"], "lux_p": e["lux_p"]}


def _convergence_row(wl, case, rep):
    """The columns of ``pxdg convergence`` other than counts and timings."""
    u = rep.solution
    p = case.spec.p
    if case.problem is not None:
        errs = problems.solution_errors(u, case.problem)
        lux_err, max_nodal = errs["lux_p"], errs["max_nodal"]
    else:
        lux_err, max_nodal = cli._reference_errors(u, wl.references[case.method], p)
    R = lifting.lift(u, case.spec.lifting)
    vol, gx = broken.volume_samples(u.mesh, 6)
    return {
        "lux_error": lux_err,
        "max_nodal_error": max_nodal,
        "broken_seminorm": broken.broken_seminorm(u, p),
        "lifting_norm": exponents.luxemburg_norm(vol, R.values_at_ref(gx).ravel(), p),
    }


def _figure_errors(wl, case, rep):
    """Errors plus the exact curve each figure script samples for its plot."""
    case.problem.exact.u(np.linspace(-1.0, 1.0, 801))
    return _paper_errors(wl, case, rep)


def _paper_case(label, method, problem, n, tol, post, expect, max_iters=CLI_MAX_ITERS):
    mesh = problems.benchmark_mesh(n, "both")
    spec = problems.dg_spec(problem, mesh) if method == "dg" else problems.cg_spec(problem, mesh)
    return Case(label, method, spec, tol, max_iters, post, expect, problem)


def paper_figures():
    prob = problems.paper1d()
    exp = EXPECTED["paper-figures"]
    cases = [
        _paper_case("compare-dg-41", "dg", prob, 41, 1e-7, _figure_errors, exp["compare-dg-41"]),
        _paper_case("compare-cg-82", "cg", prob, 82, 1e-7, _paper_errors, exp["compare-cg-82"]),
        _paper_case("cg-300", "cg", prob, 300, 1e-7, _figure_errors, exp["cg-300"], max_iters=40000),
        _paper_case("cg-400", "cg", prob, 400, 1e-7, _paper_errors, exp["cg-400"], max_iters=40000),
    ]
    for n in (10, 20, 40, 80, 160):
        label = f"sweep-dg-{n}"
        cases.append(_paper_case(label, "dg", prob, n, 1e-8, _convergence_row, exp[label]))
    return cases


def _single_dg(name, n):
    def build():
        prob = problems.paper1d()
        label = f"dg-{n}"
        return [_paper_case(label, "dg", prob, n, 1e-8, _paper_errors, EXPECTED[name][label])]
    return build


def const_p2():
    """``pxdg convergence --problem custom:scripts/const2.spec`` for DG and CG."""
    opts = problems.load_problem_file(os.path.join(ROOT, "scripts", "const2.spec"))
    lo, hi = opts["domain"]
    exp = EXPECTED["const-p2"]
    cases = []
    for method in ("dg", "cg"):
        for n in (320, 10, 20, 40, 80, 160):
            mesh = meshes.uniform_mesh(lo, hi, n, opts["dirichlet"])
            spec = problems.custom_spec(opts, mesh, normalize=(method == "cg"))
            ref = n == 320
            label = f"{method}-{n}"
            cases.append(Case(label, method, spec, 1e-8, post=None if ref else _convergence_row,
                              expect=exp[label], reference_for=method if ref else ""))
    return cases


BUILDERS = {
    "paper-figures": paper_figures,
    "dg-dense": _single_dg("dg-dense", 320),
    "dg-limited": _single_dg("dg-limited", 1280),
    "const-p2": const_p2,
}


def setup(name):
    """Calibrate the problem and assemble every case's operators (cached on the spec)."""
    cases = BUILDERS[name]()
    for case in cases:
        case.assemble()
    return Workload(cases)
