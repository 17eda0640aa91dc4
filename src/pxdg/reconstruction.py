"""Continuous piecewise-linear reconstruction of broken functions by patch means.

Each mesh node z receives the mean value of u over its element patch T_z; the
reconstruction is the nodal P1 function through those values.  It reproduces
constants exactly and is used for diagnostics only, never inside the solver.
"""

from dataclasses import dataclass

import numpy as np

from .broken import BrokenFunction, broken_seminorm, elementwise_gradient, jumps
from .exponents import WeightedSampleSet, luxemburg_norm
from .quadrature import composite_points, gauss_legendre

__all__ = [
    "node_projections",
    "reconstruct",
    "local_seminorm",
    "reconstruction_error_report",
    "mean_bound_check",
]


def _element_means(u):
    """Mean of u per element, exact quadrature for polynomials.

    Anchored at the first quadrature value so a constant function yields its
    value bitwise; the patch means below then reproduce constants exactly."""
    g = u.degree // 2 + 1
    gx, gw = gauss_legendre(g)
    vals = u.values_at_ref(gx)
    v0 = vals[:, 0].copy()
    return v0 + ((vals - v0[:, None]) @ gw) / np.sum(gw)


def node_projections(u):
    """Mean of u over T_z for every node z: the h-weighted mean of its two
    elements' means, anchored on the left one, and the one mean at an end."""
    m = _element_means(u)
    h = u.mesh.element_sizes
    inner = m[:-1] + h[1:] * (m[1:] - m[:-1]) / (h[:-1] + h[1:])
    return np.concatenate([m[:1], inner, m[-1:]])


def reconstruct(u):
    """The continuous degree-1 function with nodal values mean_{T_z}(u)."""
    pz = node_projections(u)
    coeffs = np.column_stack([pz[:-1], pz[1:]])
    return BrokenFunction(u.mesh, 1, coeffs, continuous=True)


def local_seminorm(u, p, element):
    """Patch seminorm over T_kappa, the element and its neighbours: gradient norm
    there plus its weighted face jumps."""
    n = u.mesh.n_elements
    lo, hi = max(element - 1, 0), min(element + 2, n)
    gx, gw = gauss_legendre(u.degree + 2)
    xq, wq = composite_points(u.mesh.nodes, gx, gw)
    grad = elementwise_gradient(u).values_at_ref(gx)
    samples = WeightedSampleSet(xq[lo:hi].ravel(), wq[lo:hi].ravel())
    out = luxemburg_norm(samples, grad[lo:hi].ravel(), p)
    J = jumps(u)
    hf = u.mesh.interior_face_sizes
    xf = u.mesh.interior_faces
    for f in range(max(lo - 1, 0), min(hi, n - 1)):
        # a weighted single-point counting norm is just the absolute value; the
        # power stays scalar, as numpy's vectorized ** can differ in the last bit
        out += abs(J[f]) * hf[f] ** p.neg_inv_conjugate(xf[f])
    return out


@dataclass(frozen=True)
class ReconstructionReport:
    vol_error: float
    grad_norm: float
    seminorm: float
    element_ratios: list


def reconstruction_error_report(u, p, q):
    """Error and stability numbers for the reconstruction of u.

    Reports ||u - Q(u)||_{q}, ||grad Q(u)||_{p}, and per-element ratios of the
    local error against h^{1/q_- - 1/p_- + 1} times the patch seminorm.
    """
    Q = reconstruct(u)
    gx, gw = gauss_legendre(max(u.degree, 1) + 3)
    xq, wq = composite_points(u.mesh.nodes, gx, gw)
    diff = u.values_at_ref(gx) - Q.values_at_ref(gx)
    vol = WeightedSampleSet(xq.ravel(), wq.ravel())
    vol_error = luxemburg_norm(vol, diff.ravel(), q)
    grad_vals = elementwise_gradient(Q).values_at_ref(gx)
    grad_norm = luxemburg_norm(vol, grad_vals.ravel(), p)
    semi = broken_seminorm(u, p)
    h = u.mesh.element_sizes
    rows = []
    for e in range(u.mesh.n_elements):
        s = WeightedSampleSet(xq[e], wq[e])
        err = luxemburg_norm(s, diff[e], q)
        qk = np.min(q(xq[e]))
        pk = np.min(p(xq[e]))
        bound = h[e] ** (1.0 / qk - 1.0 / pk + 1.0) * local_seminorm(u, p, e)
        ratio = err / bound if bound > 0.0 else 0.0
        rows.append((e, float(h[e]), err, bound, ratio))
    return ReconstructionReport(vol_error, grad_norm, semi, rows)


def mean_bound_check(u):
    """(max |node projection|, max |element mean|); the first never exceeds the second."""
    means = _element_means(u)
    return float(np.max(np.abs(node_projections(u)))), float(np.max(np.abs(means)))
