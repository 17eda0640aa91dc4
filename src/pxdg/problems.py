"""Benchmark problem definitions, meshes, and error metrics against the exact solution."""

import math
from dataclasses import dataclass

import numpy as np

from .broken import elementwise_gradient, volume_samples
from .exact import build_exact
from .exponents import ExponentField, luxemburg_norm
from .functional import FunctionalSpec
from .meshes import Mesh1D, uniform_mesh

__all__ = ["PaperProblem", "paper1d", "benchmark_mesh", "dg_spec", "cg_spec",
           "solution_errors", "reference_energy", "load_problem_file"]


@dataclass(frozen=True)
class PaperProblem:
    exact: object
    p: ExponentField
    u_D: dict

    @property
    def B(self):
        return self.exact.B


def paper1d(eps=0.01, a=0.01, C=1.3):
    """The 1D benchmark: hat exponent on (-1, 1), Dirichlet data +-B, no fidelity."""
    exact = build_exact(eps, a, C)
    p = ExponentField.hat_family(eps, a)
    return PaperProblem(exact, p, {"left": -exact.B, "right": exact.B})


def benchmark_mesh(n, dirichlet="both"):
    """Uniform benchmark mesh with n elements, snapped down to even n.

    The benchmark's minimizers concentrate at the origin, which the nodal
    trapezoid quadrature only sees when x = 0 is a mesh node; an odd element
    count hides the exponent dip entirely and degenerates both methods to the
    p = 2 answer.  Odd requests therefore use n-1 elements (node counts and
    element counts differ by one; the benchmark convention keeps the origin a node).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 1:
        n -= 1
    return uniform_mesh(-1.0, 1.0, n, dirichlet)


def dg_spec(problem, mesh, quadrature=("trapezoid", 1), l=None):
    return FunctionalSpec(mesh, problem.p, u_D=dict(problem.u_D),
                          quadrature=quadrature, lifting=l)


def cg_spec(problem, mesh, quadrature=("trapezoid", 1)):
    """Conforming variant; volume integrands normalized by the exponent."""
    return FunctionalSpec(mesh, problem.p, u_D=dict(problem.u_D),
                          quadrature=quadrature, normalize_by_exponent=True)


def reference_energy(problem):
    """Energy of the exact solution: the constant flux makes it 2*C*B exactly."""
    return 2.0 * problem.exact.C * problem.B


def _error_partition(mesh, layer_halfwidth):
    """Mesh nodes plus a geometric zoom toward the layer at the origin, 19 levels
    deep; keeps quadrature honest when the exact derivative varies over scales
    far below h."""
    d = layer_halfwidth * 2.0 ** (1 - np.arange(19))
    z = np.concatenate([-d, d])
    # sorted union by hand: np.union1d imports numpy.ma on first use, about 1 MB
    pts = np.sort(np.concatenate([mesh.nodes, z[(mesh.x_left < z) & (z < mesh.x_right)]]))
    return pts[np.append(True, pts[1:] != pts[:-1])]


def solution_errors(u_h, problem):
    """Error metrics of a discrete solution against the exact benchmark solution.

    Returns a dict with the L1 error, the max nodal error (both traces at every
    node), the Luxemburg p(.)-norm error, and the gradient p(.)-norm error, all
    integrated by 8-point Gauss on a partition refined geometrically toward the
    origin layer.  Every Gauss point of that partition lies strictly inside one
    element.
    """
    mesh = u_h.mesh
    layer = max(problem.exact.a, 1e-6)
    samples, _ = volume_samples(Mesh1D(_error_partition(mesh, layer)), 8)
    xq, wq = samples.xs, samples.weights
    du = u_h(xq) - problem.exact.u(xq)
    dg = elementwise_gradient(u_h)(xq) - problem.exact.uprime(xq)
    l1 = float(np.sum(wq * np.abs(du)))
    lux = luxemburg_norm(samples, du, problem.p)
    glux = luxemburg_norm(samples, dg, problem.p)
    nodes = mesh.nodes
    ue = problem.exact.u(nodes)
    left_traces = np.concatenate([[u_h.coeffs[0, 0]], u_h.coeffs[:, -1]])
    right_traces = np.concatenate([u_h.coeffs[:, 0], [u_h.coeffs[-1, -1]]])
    max_nodal = float(max(np.max(np.abs(left_traces - ue)),
                          np.max(np.abs(right_traces - ue))))
    return {"l1": l1, "max_nodal": max_nodal, "lux_p": lux, "grad_lux_p": glux}


_XI_SAMPLES = {
    "none": None,
    "zero": lambda x: 0.0 * x,
    "sin": lambda x: np.sin(math.pi * x),
}


def key_value_pairs(path):
    """The (key, value) pairs of a line-oriented key=value file, in file
    order, each side stripped; a # starts a comment that runs to the end of
    its line, and lines left blank are skipped.  A key may appear only once."""
    pairs = []
    with open(path) as fh:
        for raw in fh:
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key in (seen for seen, _ in pairs):
                raise ValueError(f"the key {key!r} appears more than once in {path}")
            pairs.append((key, val.strip()))
    return pairs


def load_problem_file(path):
    """Line-oriented key=value problem description.

    Recognized keys: p, q, r (exponent field text), uD_left, uD_right,
    dirichlet (both|left|right|none), fidelity (on|off), xi (none|zero|sin),
    domain (xl,xr).  Unknown keys are an error, and so is fidelity = on
    without q or without an xi other than none.  The returned xi is None
    when fidelity is off.
    """
    opts = dict(key_value_pairs(path))
    known = {"p", "q", "r", "uD_left", "uD_right", "dirichlet", "fidelity", "xi", "domain"}
    unknown = set(opts) - known
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    if "p" not in opts:
        raise ValueError("problem file needs the exponent field p")
    xi = opts.get("xi", "none")
    if xi not in _XI_SAMPLES:
        raise ValueError(f"unknown xi {xi!r}; expected one of {sorted(_XI_SAMPLES)}")
    fidelity = opts.get("fidelity", "off")
    if fidelity not in ("on", "off"):
        raise ValueError(f"unknown fidelity {fidelity!r}; expected one of ['off', 'on']")
    if fidelity == "on" and ("q" not in opts or _XI_SAMPLES[xi] is None):
        raise ValueError("fidelity = on needs the exponent q and an xi other than none")
    try:
        xl, xr = (float(t) for t in opts.get("domain", "-1,1").split(","))
    except ValueError:
        raise ValueError(f"domain = {opts['domain']!r} is not two numbers xl,xr") from None
    out = {
        "p": ExponentField.from_text(opts["p"]),
        "q": ExponentField.from_text(opts["q"]) if "q" in opts else None,
        "r": ExponentField.from_text(opts["r"]) if "r" in opts else None,
        "dirichlet": opts.get("dirichlet", "both"),
        "xi": _XI_SAMPLES[xi] if fidelity == "on" else None,
        "u_D": {},
        "domain": (xl, xr),
    }
    for key, side in (("uD_left", "left"), ("uD_right", "right")):
        if key in opts:
            try:
                out["u_D"][side] = float(opts[key])
            except ValueError:
                raise ValueError(f"{key} = {opts[key]!r} is not a number") from None
    return out


def custom_spec(opts, mesh, quadrature=("trapezoid", 1), l=None, normalize=False):
    return FunctionalSpec(mesh, opts["p"], q=opts["q"], r=opts["r"], xi=opts["xi"],
                          u_D=dict(opts["u_D"]), quadrature=quadrature, lifting=l,
                          normalize_by_exponent=normalize)
