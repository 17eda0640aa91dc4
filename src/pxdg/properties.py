"""Randomized property suites aggregating the per-module invariants.

Each suite returns PropertyResult rows; the CLI prints one line per row and
fails the run when any row fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .broken import (
    BrokenFunction,
    broken_seminorm,
    embed_refine,
    interpolate,
    inverse_estimate_check,
    total_variation,
    volume_samples,
)
from .exponents import (
    ExponentField,
    WeightedSampleSet,
    check_modular_norm_relations,
    log_holder_bound,
    luxemburg_norm,
    modular,
    pointwise_inequalities,
)
from .functional import FunctionalSpec, coercivity_certificate, eval_discrete
from .lifting import lift, lifting_bound_ratio, verify_weak_identity
from .meshes import refine, uniform_mesh
from .problems import paper1d
from .reconstruction import mean_bound_check, reconstruct, reconstruction_error_report

__all__ = ["PropertyResult", "run_suites", "SUITES"]


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _random_field(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return ExponentField.constant(float(rng.uniform(1.0, 4.0)))
    if kind == 1:
        return ExponentField.hat_family(float(rng.uniform(0.05, 0.9)),
                                        float(rng.uniform(0.05, 0.9)))
    xs = np.sort(rng.uniform(-1.0, 1.0, size=4))
    xs[0], xs[-1] = -1.0, 1.0
    vals = rng.uniform(1.0, 4.0, size=4)
    return ExponentField.piecewise_linear(xs, vals)


def _random_samples(rng):
    n = int(rng.integers(4, 40))
    xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
    ws = rng.uniform(0.0, 0.3, size=n)
    return WeightedSampleSet(xs, ws)


def _random_broken(rng, mesh, degree=1, scale=1.0):
    ne = mesh.n_elements
    return BrokenFunction(mesh, degree, scale * rng.normal(size=(ne, degree + 1)))


def _level_maxima(rng, mesh, levels, draws, ratio, degree):
    """On each of `levels` meshes, each the bisection of the last, the largest
    ratio(u) (at least 0) over `draws` random broken functions of `degree`."""
    maxima = []
    for _ in range(levels):
        maxima.append(max(0.0, *(ratio(_random_broken(rng, mesh, degree))
                                 for _ in range(draws))))
        mesh = refine(mesh)
    return maxima


def suite_modular(rng):
    res = []
    bad = 0
    for _ in range(200):
        fld = _random_field(rng)
        s = _random_samples(rng)
        u = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=s.xs.size)
        bad += not check_modular_norm_relations(s, u, fld).passed
    res.append(PropertyResult("modular", "unit_ball_relations", bad == 0,
                              f"200 cases, failures={bad}"))
    worst_h = 0.0
    worst_t = 0.0
    convex_ok = True
    for _ in range(100):
        fld = _random_field(rng)
        s = _random_samples(rng)
        u = rng.normal(size=s.xs.size)
        v = rng.normal(size=s.xs.size)
        c = 10.0 ** rng.uniform(-3, 3)
        nu = luxemburg_norm(s, u, fld)
        worst_h = max(worst_h, abs(luxemburg_norm(s, c * u, fld) - c * nu) / max(c * nu, 1e-30))
        tri = luxemburg_norm(s, u + v, fld) - nu - luxemburg_norm(s, v, fld)
        worst_t = max(worst_t, tri / max(nu, 1e-30))
        half = modular(s, 0.5 * (u + v), fld)
        avg = 0.5 * (modular(s, u, fld) + modular(s, v, fld))
        convex_ok = convex_ok and half <= avg * (1.0 + 1e-12) + 1e-12
    res.append(PropertyResult("modular", "homogeneity", worst_h <= 1e-9,
                              f"worst rel dev {worst_h:.2e}"))
    res.append(PropertyResult("modular", "triangle", worst_t <= 1e-9,
                              f"worst excess {worst_t:.2e}"))
    res.append(PropertyResult("modular", "convexity", convex_ok, "midpoint convexity"))
    return res


def suite_pointwise(rng):
    bad = 0
    for _ in range(300):
        eta = float(rng.normal(scale=3.0))
        xi = float(rng.normal(scale=3.0))
        px = float(rng.uniform(1.0, 4.0))
        rep = pointwise_inequalities(eta, xi, px)
        if rep.monotone_pairing < -1e-14 or not rep.splitting_bound_ok:
            bad += 1
        if math.isinf(rep.c_min_power) or math.isinf(rep.c_min_degenerate):
            bad += 1
    return [PropertyResult("pointwise", "power_inequalities", bad == 0,
                           f"300 cases, failures={bad}")]


def suite_log_holder(rng):
    res = []
    hat = ExponentField.hat_family(0.01, 0.01)
    vals = [log_holder_bound(hat, 1.0, (-(2.0**-j), 0.0)) for j in range(1, 21)]
    res.append(PropertyResult("log_holder", "hat_bounded", max(vals) < 100.0,
                              f"max over dyadic intervals {max(vals):.3g}"))
    gap = 0.8
    jumpy = ExponentField.piecewise_linear([-1.0, 0.0, 1e-13, 1.0],
                                           [1.2, 1.2, 1.2 + gap, 1.2 + gap])
    ok = True
    for j in range(2, 12):
        h = 2.0**-j
        got = log_holder_bound(jumpy, 1.0, (-h / 2, h / 2))
        want = h**-gap
        ok = ok and abs(got - want) <= 1e-6 * want
    res.append(PropertyResult("log_holder", "jump_grows", ok,
                              "matches closed form h^(-alpha*gap)"))
    return res


def suite_bv_bound(rng):
    p = ExponentField.hat_family(0.2, 0.3)

    def ratio(u):
        semi = broken_seminorm(u, p)
        return total_variation(u) / semi if semi > 0.0 else 0.0

    consts = _level_maxima(rng, uniform_mesh(-1.0, 1.0, 8), 4, 12, ratio, degree=1)
    spread = max(consts) / min(consts)
    return [PropertyResult("bv_bound", "total_variation_vs_seminorm", spread <= 2.0,
                           f"constant spread {spread:.3g} over 4 levels")]


def suite_inverse_estimate(rng):
    p = ExponentField.constant(1.0, domain=(0.0, 1.0))
    q = ExponentField.constant(2.0, domain=(0.0, 1.0))
    consts = _level_maxima(rng, uniform_mesh(0.0, 1.0, 4), 5, 8,
                           lambda u: inverse_estimate_check(u, p, q)[0], degree=3)
    spread = max(consts) / min(consts)
    return [PropertyResult("inverse_estimate", "ratio_stable", spread <= 2.0,
                           f"max-ratio spread {spread:.3g} over 5 levels")]


def suite_lifting(rng):
    res = []
    base = uniform_mesh(-1.0, 1.0, 8)
    worst_resid = 0.0
    for _ in range(50):
        u = _random_broken(rng, base, degree=int(rng.integers(1, 4)))
        R = lift(u)
        scale = 1.0 + float(np.max(np.abs(u.coeffs)))
        worst_resid = max(worst_resid, verify_weak_identity(u, R) / scale)
    res.append(PropertyResult("lifting", "weak_identity", worst_resid <= 1e-12,
                              f"worst scaled residual {worst_resid:.2e}"))

    cont = interpolate(base, 2, lambda x: np.sin(2.0 * x), continuous=True)
    Rc = lift(cont)
    res.append(PropertyResult("lifting", "continuous_maps_to_zero",
                              float(np.max(np.abs(Rc.coeffs))) == 0.0, "exact zero"))

    # support locality: one interior jump lifts only onto its two neighbors
    coeffs = np.zeros((base.n_elements, 2))
    coeffs[base.n_elements // 2:, :] = 1.0
    step = BrokenFunction(base, 1, coeffs)
    Rs = lift(step)
    f = base.n_elements // 2 - 1
    touched = {f, f + 1}
    outside = [e for e in range(base.n_elements) if e not in touched]
    res.append(PropertyResult("lifting", "support_locality",
                              float(np.max(np.abs(Rs.coeffs[outside]))) == 0.0,
                              "vanishes off the jump neighbors"))

    p = ExponentField.hat_family(0.3, 0.4)
    ratios = _level_maxima(rng, base, 5, 10, lambda u: lifting_bound_ratio(u, p), degree=1)
    spread = max(ratios) / min(ratios)
    res.append(PropertyResult("lifting", "bound_ratio_stable", spread <= 2.0,
                              f"max-ratio spread {spread:.3g} over 5 levels"))
    return res


def suite_reconstruction(rng):
    res = []
    mesh = uniform_mesh(0.0, 1.0, 5)
    u = interpolate(mesh, 1, lambda x: 5.0 + 0.0 * x)
    Q = reconstruct(u)
    res.append(PropertyResult("reconstruction", "constants_exact",
                              float(np.max(np.abs(Q.coeffs - 5.0))) == 0.0,
                              "partition of unity"))
    p = ExponentField.constant(2.0, domain=(0.0, 1.0))
    base = uniform_mesh(0.0, 1.0, 10)
    u0 = interpolate(base, 1, lambda x: np.sin(np.pi * x))
    u0.coeffs[6:, :] += 1e-3  # small persistent jump at a coarse face
    errs, hs, ratios = [], [], []
    u = u0
    for _ in range(5):
        rep = reconstruction_error_report(u, p, p)
        errs.append(rep.vol_error)
        hs.append(u.mesh.max_h)
        ratios.append(rep.grad_norm / rep.seminorm)
        u = embed_refine(u)
    orders = [math.log(e0 / e1) / math.log(h0 / h1)
              for e0, e1, h0, h1 in zip(errs, errs[1:], hs, hs[1:])]
    res.append(PropertyResult("reconstruction", "error_decay",
                              min(orders[:3]) >= 0.9,
                              f"orders {['%.3f' % o for o in orders]}"))
    spread = max(ratios) / min(ratios)
    res.append(PropertyResult("reconstruction", "gradient_stability", spread <= 2.0,
                              f"grad-norm/seminorm spread {spread:.3g}"))
    mx, mb = mean_bound_check(_random_broken(rng, uniform_mesh(0.0, 1.0, 7), degree=2))
    res.append(PropertyResult("reconstruction", "mean_bound", mx <= mb + 1e-14,
                              f"max node value {mx:.3g} vs max element mean {mb:.3g}"))
    return res


def suite_broken_poincare(rng):
    p = ExponentField.hat_family(0.01, 0.01)

    def ratio(u):
        den = broken_seminorm(u, p)
        if den <= 0.0:
            return 0.0
        vol, gx = volume_samples(u.mesh, 4)
        vals = u.values_at_ref(gx).ravel()
        mean = float(np.sum(vol.weights * vals)) / vol.total_weight
        return luxemburg_norm(vol, vals - mean, p) / den

    maxima = _level_maxima(rng, uniform_mesh(-1.0, 1.0, 8), 4, 50, ratio, degree=1)
    growth = max(m1 / m0 for m0, m1 in zip(maxima, maxima[1:]))
    return [PropertyResult("broken_poincare", "ratio_growth", growth <= 2.0,
                           f"levels {['%.3g' % m for m in maxima]}, worst growth {growth:.3g}")]


def suite_coercivity(rng):
    prob = paper1d()
    mesh = uniform_mesh(-1.0, 1.0, 10)
    spec = FunctionalSpec(mesh, prob.p, u_D=dict(prob.u_D), quadrature=("trapezoid", 1))
    bad = 0
    for _ in range(25):
        u = _random_broken(rng, mesh, scale=10.0 ** rng.uniform(0, 6))
        lhs, rhs = coercivity_certificate(u, spec)
        if lhs > rhs * (1.0 + 1e-12):
            bad += 1
    return [PropertyResult("coercivity", "energy_bounds_gradient", bad == 0,
                           f"25 cases, failures={bad}")]


def suite_consistency(rng):
    """Interpolate-then-average a smooth candidate: its boundary penalty decays
    like h and its discrete energy approaches the continuum value."""
    prob = paper1d()
    v = lambda x: prob.B * np.asarray(x)
    target = _linear_energy(prob)
    mesh = uniform_mesh(-1.0, 1.0, 10)
    pens, gaps, hs = [], [], []
    for _ in range(5):
        spec = FunctionalSpec(mesh, prob.p, u_D=dict(prob.u_D), quadrature=("gauss", 6))
        vh = reconstruct(interpolate(mesh, 1, v, continuous=True))
        bd = eval_discrete(vh, spec)
        pens.append(bd.dirichlet_penalty + bd.interior_penalty)
        gaps.append(abs(bd.total - target) / target)
        hs.append(mesh.max_h)
        mesh = refine(mesh)
    orders = [math.log(p0 / p1) / math.log(h0 / h1)
              for p0, p1, h0, h1 in zip(pens, pens[1:], hs, hs[1:])]
    ok = min(orders) >= 0.9 and gaps[-1] < gaps[0]
    return [PropertyResult("consistency", "interpolant_energy", ok,
                           f"penalty orders {['%.3f' % o for o in orders]}, "
                           f"energy gap {gaps[0]:.3g} -> {gaps[-1]:.3g}")]


def _linear_energy(prob):
    """Continuum energy of the straight line B*x under the hat exponent."""
    s = volume_samples(uniform_mesh(-1.0, 1.0, 400), 10)[0]
    return modular(s, np.full(s.xs.size, prob.B), prob.p)


SUITES = {
    "modular": suite_modular,
    "pointwise": suite_pointwise,
    "log_holder": suite_log_holder,
    "bv_bound": suite_bv_bound,
    "inverse_estimate": suite_inverse_estimate,
    "lifting": suite_lifting,
    "reconstruction": suite_reconstruction,
    "broken_poincare": suite_broken_poincare,
    "coercivity": suite_coercivity,
    "consistency": suite_consistency,
}


def run_suites(seed=0, names=None):
    rng = np.random.default_rng(seed)
    out = []
    for name in names or SUITES:
        out.extend(SUITES[name](rng))
    return out
