"""Continuous piecewise-linear reconstruction of broken functions by patch means.

Each mesh node z receives the mean value of u over its element patch T_z; the
reconstruction is the nodal P1 function through those values.  It reproduces
constants exactly and is used for diagnostics only, never inside the solver.
The error report gives three numbers: ||u - Q(u)||_q, ||grad Q(u)||_p and the
broken seminorm of u.
"""

from dataclasses import dataclass

import numpy as np

from .broken import BrokenFunction, broken_seminorm, gradient_samples, volume_samples
from .exponents import luxemburg_norm
from .quadrature import gauss_legendre

__all__ = [
    "node_projections",
    "reconstruct",
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
    return BrokenFunction(u.mesh, 1, coeffs)


@dataclass(frozen=True)
class ReconstructionReport:
    vol_error: float
    grad_norm: float
    seminorm: float


def reconstruction_error_report(u, p, q):
    """||u - Q(u)||_{q}, ||grad Q(u)||_{p} and the broken seminorm of u."""
    Q = reconstruct(u)
    g = max(u.degree, 1) + 3
    vol, gx = volume_samples(u.mesh, g)
    diff = u.values_at_ref(gx) - Q.values_at_ref(gx)
    vol_error = luxemburg_norm(vol, diff.ravel(), q)
    grad_norm = luxemburg_norm(vol, gradient_samples(Q, g)[1], p)
    return ReconstructionReport(vol_error, grad_norm, broken_seminorm(u, p))


def mean_bound_check(u):
    """(max |node projection|, max |element mean|); the first never exceeds the second."""
    means = _element_means(u)
    return float(np.max(np.abs(node_projections(u)))), float(np.max(np.abs(means)))
