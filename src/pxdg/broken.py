"""Piecewise polynomial functions on a 1D mesh: traces, jumps, gradients, seminorms.

Element-local Lagrange bases sit on Gauss-Lobatto nodes, so endpoint traces are
direct coefficient reads and jumps come out exactly.  The 1D jump convention is
left-minus-right: [u](x_e) = u^-(x_e) - u^+(x_e).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exponents import WeightedSampleSet, luxemburg_norm
from .meshes import refine
from .quadrature import composite_points, gauss_legendre, gauss_lobatto_nodes

__all__ = [
    "BrokenFunction",
    "dof_points",
    "interpolate",
    "elementwise_gradient",
    "jumps",
    "broken_seminorm",
    "total_variation",
    "inverse_estimate_check",
    "embed_refine",
    "volume_samples",
    "gradient_samples",
]


@functools.lru_cache(maxsize=None)
def _basis(degree):
    """Lagrange basis data on the degree+1 Gauss-Lobatto nodes of [-1, 1]."""
    t = gauss_lobatto_nodes(degree + 1)
    n = t.size
    w = np.ones(n)
    for j in range(n):
        diff = t[j] - np.delete(t, j)
        w[j] = 1.0 / np.prod(diff)
    # differentiation matrix at the nodes
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (t[i] - t[j])
        D[i, i] = -np.sum(D[i, :])
    return t, w, D


def _basis_columns(degree, x):
    """The degree+1 Lagrange basis functions at the 1D reference points x, as a
    list of columns: phi_j(x) for j = 0..degree.

    The barycentric formula, its denominator summed left to right; a point
    within 1e-14 of a node gets that node's unit row, the first such node's
    if there are two.
    """
    t, w, _ = _basis(degree)
    diffs = [x - tj for tj in t]
    with np.errstate(all="ignore"):
        terms = [wj / d for wj, d in zip(w, diffs)]
        den = functools.reduce(np.add, terms)
        cols = [term / den for term in terms]
    # from the last node down, so that the first node hit writes last
    for j in reversed(range(t.size)):
        hit = np.abs(diffs[j]) < 1e-14
        if hit.any():
            for i, col in enumerate(cols):
                col[hit] = float(i == j)
    return cols


def _eval_matrix(degree, ref_points):
    """Matrix B with B[q, j] = phi_j(ref_points[q]) for the Lagrange basis:
    the columns of ``_basis_columns`` side by side."""
    x = np.atleast_1d(np.asarray(ref_points, dtype=float))
    return np.stack(_basis_columns(degree, x), axis=1)


@dataclass(frozen=True)
class BrokenFunction:
    """coeffs[e, j] = value at the j-th local Gauss-Lobatto node of element e."""

    mesh: object
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        ne = self.mesh.n_elements
        if c.shape != (ne, self.degree + 1):
            raise ValueError(f"coeffs must have shape ({ne}, {self.degree + 1})")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_dofs(self):
        return self.coeffs.size

    def dof_vector(self):
        return self.coeffs.ravel().copy()

    @staticmethod
    def from_dofs(mesh, degree, dofs):
        ne = mesh.n_elements
        return BrokenFunction(mesh, degree, np.asarray(dofs, float).reshape(ne, degree + 1))

    def values_at_ref(self, ref_points):
        """Values on every element at the given reference points; shape (ne, nq)."""
        B = _eval_matrix(self.degree, ref_points)
        return self.coeffs @ B.T

    def __call__(self, x, side="left"):
        return evaluate(self, x, side)


def dof_points(mesh, degree):
    """Positions of every element's degree+1 Gauss-Lobatto nodes; shape (ne, degree + 1)."""
    t, _, _ = _basis(degree)
    nodes = mesh.nodes
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * np.diff(nodes)
    return mid[:, None] + half[:, None] * t[None, :]


def interpolate(mesh, degree, fn, continuous=False):
    """Nodal interpolant of a callable at the element-local Gauss-Lobatto nodes;
    ``continuous`` gives each element's left trace the value of its left
    neighbour's right trace, so that every jump is 0."""
    vals = np.asarray(fn(dof_points(mesh, degree)), dtype=float)
    if continuous:
        vals[1:, 0] = vals[:-1, -1]
    return BrokenFunction(mesh, degree, vals)


def evaluate(u, x, side="left"):
    """Values of the element-local polynomials at a scalar or array x.

    side, "left" or "right", picks the element of a point on a node.
    """
    x = np.asarray(x, dtype=float)
    e = np.asarray(u.mesh.element_of(x, side)).ravel()
    nodes = u.mesh.nodes
    xi = 2.0 * (x.ravel() - nodes[e]) / (nodes[e + 1] - nodes[e]) - 1.0
    coeffs = np.take(u.coeffs, e, axis=0)
    # the sum over j of phi_j * coeffs[e, j], term by term from the left
    terms = (col * coeffs[:, j] for j, col in enumerate(_basis_columns(u.degree, xi)))
    vals = functools.reduce(np.add, terms).reshape(x.shape)
    return float(vals) if vals.ndim == 0 else vals


def elementwise_gradient(u):
    """Derivative of the local polynomial per element; a degree k-1 broken function."""
    _, _, D = _basis(u.degree)
    h = u.mesh.element_sizes
    dvals = (u.coeffs @ D.T) * (2.0 / h)[:, None]
    if u.degree == 0:
        return BrokenFunction(u.mesh, 0, np.zeros((u.mesh.n_elements, 1)))
    newdeg = u.degree - 1
    tnew = gauss_lobatto_nodes(newdeg + 1)
    B = _eval_matrix(u.degree, tnew)  # derivative values live on the degree-k node set
    # dvals are samples of a degree k-1 polynomial at the k+1 old nodes; re-read
    # them at the new node set by interpolation through the old nodes
    return BrokenFunction(u.mesh, newdeg, dvals @ B.T)


def jumps(u):
    """[u] = u^- - u^+ at every interior face (face f sits at node f+1)."""
    return u.coeffs[:-1, -1] - u.coeffs[1:, 0]


def volume_samples(mesh, points_per_element):
    gx, gw = gauss_legendre(points_per_element)
    xq, wq = composite_points(mesh.nodes, gx, gw)
    return WeightedSampleSet(xq.ravel(), wq.ravel()), gx


def gradient_samples(u, points_per_element=None):
    g = points_per_element or (u.degree + 2)
    grad = elementwise_gradient(u)
    samples, gx = volume_samples(u.mesh, g)
    return samples, grad.values_at_ref(gx).ravel()


def _face_weight_values(u, p):
    """Per-face samples [u](x_e) * h(x_e)^{-1/p'(x_e)} under the counting measure."""
    xs = u.mesh.interior_faces
    hvals = u.mesh.interior_face_sizes
    expo = p.neg_inv_conjugate(xs)
    return WeightedSampleSet.counting(xs), jumps(u) * hvals**expo


def broken_seminorm(u, p):
    """Luxemburg norm of the elementwise gradient plus the weighted-jump face norm."""
    vol, gvals = gradient_samples(u)
    out = luxemburg_norm(vol, gvals, p)
    if u.mesh.n_elements > 1:
        faces, fvals = _face_weight_values(u, p)
        out += luxemburg_norm(faces, fvals, p)
    return out


def total_variation(u):
    """|Du|(Omega) for the broken function: integral of |grad u| plus summed |jumps|."""
    vol, gvals = gradient_samples(u, u.degree + 3)
    return float(np.sum(vol.weights * np.abs(gvals))) + float(np.sum(np.abs(jumps(u))))


def inverse_estimate_check(u, p, q):
    """Per-element ratios ||u||_p / (h^{1/p_+ - 1/q_-} ||u||_q); elements with u = 0 skipped."""
    vol, gx = volume_samples(u.mesh, u.degree + 2)
    xq, wq = vol.xs.reshape(-1, gx.size), vol.weights.reshape(-1, gx.size)
    vals = u.values_at_ref(gx)
    h = u.mesh.element_sizes
    ratios = []
    for e in range(u.mesh.n_elements):
        if not np.any(vals[e] != 0.0):
            continue
        s = WeightedSampleSet(xq[e], wq[e])
        pk = np.max(p(xq[e]))
        qk = np.min(q(xq[e]))
        np_norm = luxemburg_norm(s, vals[e], p)
        nq_norm = luxemburg_norm(s, vals[e], q)
        ratios.append(np_norm / (h[e] ** (1.0 / pk - 1.0 / qk) * nq_norm))
    if not ratios:
        raise ValueError("function vanishes on every element")
    return float(np.max(ratios)), ratios


def embed_refine(u):
    """The same function represented on the bisected mesh."""
    fine = refine(u.mesh)
    t, _, _ = _basis(u.degree)
    coeffs = np.empty((fine.n_elements, u.degree + 1))
    # children 2e, 2e+1 cover the left/right halves of parent e
    left = _eval_matrix(u.degree, 0.5 * (t + 1.0) - 1.0)
    right = _eval_matrix(u.degree, 0.5 * (t + 1.0))
    coeffs[0::2] = u.coeffs @ left.T
    coeffs[1::2] = u.coeffs @ right.T
    return BrokenFunction(fine, u.degree, coeffs)
