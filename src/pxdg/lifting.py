"""The jump-lifting operator: broken functions -> degree-l broken polynomials.

Defined weakly by  integral(R(u) phi) = -sum_faces [u] {phi}  for all broken
test polynomials phi of degree l.  Because test functions live on single
elements, the operator is element-local: each element solves a small mass
system whose right-hand side reads the jumps at its own interior faces, with
the 1/2 of the average {phi} (the neighbor trace of phi vanishes).
"""

import functools

import numpy as np

from .broken import BrokenFunction, _eval_matrix, _face_weight_values, jumps, volume_samples
from .exponents import luxemburg_norm
from .quadrature import gauss_legendre

__all__ = [
    "ZeroJumpsError",
    "lift",
    "lift_matrix",
    "verify_weak_identity",
    "lifting_bound_ratio",
]


class ZeroJumpsError(ValueError):
    """Ratio checks are undefined when every jump vanishes."""


@functools.lru_cache(maxsize=None)
def _reference_mass_inverse(l):
    """Inverse mass matrix of the degree-l Gauss-Lobatto Lagrange basis on [-1, 1]."""
    gx, gw = gauss_legendre(l + 1)
    B = _eval_matrix(l, gx)
    M = B.T @ (gw[:, None] * B)
    return np.linalg.inv(M)


def lift_matrix(mesh, l):
    """Per-element lifting coefficients K of shape (n_elements, l + 1, 2).

    K[e, :, 0] and K[e, :, 1] are the coefficients on element e of the lifting
    of a unit jump at its left and its right face; they are zero where that face
    is on the boundary.  Raises ``ValueError`` for l < 0.
    """
    if l < 0:
        raise ValueError(f"lifting degree must be >= 0, got {l}")
    h = mesh.element_sizes
    Minv = _reference_mass_inverse(l)
    K = -(1.0 / h)[:, None, None] * Minv[None, :, [0, l]]
    K[0, :, 0] = 0.0
    K[-1, :, 1] = 0.0
    return K


def lift(u, l=None):
    """R(u) as a broken function of degree l (default: the degree of u)."""
    l = u.degree if l is None else l
    if u.mesh.n_elements < 2:
        raise ValueError("mesh has no interior face")
    K = lift_matrix(u.mesh, l)
    J = np.concatenate(([0.0], jumps(u), [0.0]))  # each element's left and right jump
    coeffs = K[:, :, 0] * J[:-1, None] + K[:, :, 1] * J[1:, None]
    return BrokenFunction(u.mesh, l, coeffs)


def verify_weak_identity(u, R):
    """Max residual of the defining identity over every element-local test polynomial.

    For each basis function phi of the image space, computes
    |integral(R phi) + sum_faces [u] {phi}(x_e)| with the volume integral done by
    an independent Gauss rule (exact at this degree).
    """
    l = R.degree
    gx, gw = gauss_legendre(l + 1)
    B = _eval_matrix(l, gx)
    h = u.mesh.element_sizes
    J = jumps(u)
    ne = u.mesh.n_elements
    worst = 0.0
    for e in range(ne):
        vol = (B.T @ (gw * (B @ R.coeffs[e]))) * (0.5 * h[e])
        resid = vol.copy()
        if e >= 1:  # left face is interior; phi's one-sided average is phi(-1)/2
            resid[0] += 0.5 * J[e - 1]
        if e <= ne - 2:
            resid[-1] += 0.5 * J[e]
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def lifting_bound_ratio(u, p):
    """||R(u)||_{p} divided by the weighted-jump face norm ||h^{-1/p'} [u]||_{p},
    with R(u) of the degree of u."""
    J = jumps(u)
    if not np.any(J != 0.0):
        raise ZeroJumpsError("all jumps vanish; the bound ratio is undefined")
    R = lift(u)
    vol, gx = volume_samples(u.mesh, R.degree + 2)
    num = luxemburg_norm(vol, R.values_at_ref(gx).ravel(), p)
    faces, fvals = _face_weight_values(u, p)
    den = luxemburg_norm(faces, fvals, p)
    return num / den

