"""The penalized broken energy, its conforming counterpart, and exact DOF gradients.

Both discrete energies are ordered lists of terms

    sum_i w_i |(A x - b)_i|^{s_i} / d_i

with a sparse A.  For the broken (DG) energy of v with boundary data u_D the
list is, in this order:

    volume     A = G + R(.)  lifted gradient at quadrature points, w = w_q, s = p(x_q)
    fidelity   A = V  values at quadrature points, b = xi(x_q), w = w_q, s = q(x_q)
               (only when fidelity is on)
    Dirichlet  A = the end DOF, b = u_D, w = h^{1-p}, s = p     (one term per face)
    jumps      A = [v] at interior faces, w = h^{1-p}, s = p(x_f)
    Neumann    A = the end DOF, s = r                            (one term per face)

where b, w and d not listed are 0, 1 and 1, and ``normalize_by_exponent`` sets
d = p on the volume term and d = q on the fidelity term.  The conforming (CG)
energy is the same list without the lifting R and the two penalty terms, with
every A composed with the continuity map U from shared nodal values to broken
DOFs.  The quadrature rule is fixed by the problem setup (composite trapezoid by
default, Gauss on request).

The assembly stacks the terms into one CSR matrix.  The value, the gradient
A^T (w s |t|^{s-2} t / d) with t = A x - b (zero where t = 0), and the per-term
breakdown each take one product with it, and sum the terms' row segments in
list order.  ``hess`` gives the relaxed Kacanov matrix
A^T diag(w s max(|t|, eps)^{s-2} / d) A, or the Hessian with the extra factor
s - 1, in band storage: every row of A couples
a few neighbouring DOFs, so the matrix is banded, and its pattern is fixed, so
one sparse map takes the term weights to the band.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .broken import _basis, _eval_matrix, jumps
from .lifting import LiftingConfig, lift_matrix
from .quadrature import composite_points, reference_rule

__all__ = [
    "FunctionalSpec",
    "TermBreakdown",
    "eval_discrete",
    "grad_discrete",
    "eval_continuous",
    "grad_continuous",
    "discrete_assembly",
    "continuous_assembly",
]


@dataclass(frozen=True)
class TermBreakdown:
    gradient_term: float
    fidelity_term: float
    dirichlet_penalty: float
    interior_penalty: float
    neumann_term: float

    @property
    def total(self):
        return (self.gradient_term + self.fidelity_term + self.dirichlet_penalty
                + self.interior_penalty + self.neumann_term)

    @property
    def penalties(self):
        return self.dirichlet_penalty + self.interior_penalty

    @staticmethod
    def csv_header():
        return "grad_term,fidelity,dir_penalty,int_penalty,neumann,total"

    def csv_row(self):
        vals = (self.gradient_term, self.fidelity_term, self.dirichlet_penalty,
                self.interior_penalty, self.neumann_term, self.total)
        return ",".join(f"{v:.17g}" for v in vals)


@dataclass
class FunctionalSpec:
    """Everything needed to evaluate the energy on one mesh.

    u_D maps "left"/"right" to Dirichlet values; xi is a callable sampled at
    quadrature points when fidelity is on; quadrature is ("trapezoid", panels)
    or ("gauss", points).
    """

    mesh: object
    p: object
    q: object = None
    r: object = None
    xi: object = None
    fidelity_on: bool = False
    u_D: dict = field(default_factory=dict)
    quadrature: tuple = ("trapezoid", 1)
    lifting: LiftingConfig = None
    normalize_by_exponent: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.p.p1 <= 1.0:
            raise ValueError("the energy needs inf p > 1")
        if self.fidelity_on:
            if self.q is None or self.xi is None:
                raise ValueError("fidelity needs q and xi")
            if self.q.p1 <= 1.0:
                raise ValueError("fidelity exponent must satisfy inf q > 1")
        if self.mesh.neumann_left or self.mesh.neumann_right:
            if self.r is None:
                raise ValueError("Neumann faces need the exponent r")
            if self.r.p1 <= 1.0:
                raise ValueError("Neumann exponent must satisfy inf r > 1")
        if self.mesh.dirichlet_left and "left" not in self.u_D:
            raise ValueError("missing left Dirichlet value")
        if self.mesh.dirichlet_right and "right" not in self.u_D:
            raise ValueError("missing right Dirichlet value")
        kind, order = self.quadrature
        if kind not in ("trapezoid", "gauss") or order < 1:
            raise ValueError(f"bad quadrature {self.quadrature!r}")


def _power(t, s):
    """|t|^s with 0^s = 0 (s may vary per entry)."""
    return np.abs(t) ** s


def _dpower(t, s):
    """d/dt |t|^s = s |t|^{s-2} t, defined as 0 at t = 0 for s > 1."""
    return s * np.abs(t) ** (s - 1.0) * np.sign(t)


_FIELDS = [f.name for f in fields(TermBreakdown)]


class _Assembly:
    """The energy of one spec as a stacked term operator: DG, or CG if ``continuous``."""

    def __init__(self, spec, degree, continuous=False):
        mesh = spec.mesh
        self.spec = spec
        ne = mesh.n_elements
        nk = degree + 1
        self.ndof = ne * nk
        rx, rw = reference_rule(*spec.quadrature)
        if rx.size < degree:
            # the derivative of a degree-k polynomial has k coefficients
            raise ValueError(f"quadrature {spec.quadrature!r} has {rx.size} points per "
                             f"element; degree {degree} needs at least {degree}")
        xq, wq = composite_points(mesh.nodes, rx, rw)
        self.xq = xq.ravel()
        self.wq = wq.ravel()
        self.pq = spec.p(self.xq)
        norm = spec.normalize_by_exponent

        t, _, D = _basis(degree)
        PHI = _eval_matrix(degree, rx)            # (nq, nk)
        DPHI = PHI @ D                            # derivative samples at rx
        h = mesh.element_sizes
        self.Gv = sp.block_diag([DPHI * (2.0 / h[e]) for e in range(ne)], format="csr")
        volume = self.Gv
        if not continuous:
            nf = ne - 1
            rows = np.repeat(np.arange(nf), 2)
            cols = np.empty(2 * nf, dtype=int)
            cols[0::2] = np.arange(nf) * nk + (nk - 1)
            cols[1::2] = (np.arange(nf) + 1) * nk
            vals = np.tile([1.0, -1.0], nf)
            Jv = sp.csr_matrix((vals, (rows, cols)), shape=(nf, self.ndof))
            lcfg = spec.lifting if spec.lifting is not None else LiftingConfig(degree)
            El = sp.block_diag([_eval_matrix(lcfg.degree, rx)] * ne, format="csr")
            self.Rv = (El @ lift_matrix(mesh, lcfg.degree) @ Jv).tocsr()
            volume = (self.Gv + self.Rv).tocsr()

        # (field, A, b, s, w, d): the term sum_i w_i |(A x - b)_i|^{s_i} / d_i
        terms = [("gradient_term", volume, 0.0, self.pq, self.wq, self.pq if norm else 1.0)]
        if spec.fidelity_on:
            qq = spec.q(self.xq)
            terms.append(("fidelity_term", sp.block_diag([PHI] * ne, format="csr"),
                          np.asarray(spec.xi(self.xq), dtype=float), qq, self.wq,
                          qq if norm else 1.0))
        neumann = []
        hb = mesh.boundary_face_sizes
        ends = (("left", 0, mesh.x_left, hb[0]), ("right", self.ndof - 1, mesh.x_right, hb[1]))
        for name, dof, x, hbv in ends:
            row = sp.csr_matrix(([1.0], ([0], [dof])), shape=(1, self.ndof))
            if not getattr(mesh, f"dirichlet_{name}"):
                neumann.append(("neumann_term", row, 0.0, spec.r(x), 1.0, 1.0))
            elif not continuous:
                # scalars, not arrays: numpy's vectorized ** can differ from the scalar one
                # in the last bit, which is enough to move the solver's iterates
                pe = spec.p(x)
                terms.append(("dirichlet_penalty", row, spec.u_D[name], pe,
                              hbv ** (1.0 - pe), 1.0))
        if not continuous:
            pf = spec.p(mesh.interior_faces)
            terms.append(("interior_penalty", Jv, 0.0, pf,
                          mesh.interior_face_sizes ** (1.0 - pf), 1.0))
        terms += neumann

        if continuous:
            self._continuity_map(mesh, degree, t)
            terms = [(f, A @ self.U, *rest) for f, A, *rest in terms]
        sizes = [A.shape[0] for _, A, *_ in terms]
        stops = np.cumsum(sizes).tolist()
        self.segments = list(zip([0] + stops[:-1], stops))
        self.field_index = np.array([_FIELDS.index(f) for f, *_ in terms])
        self.A = sp.vstack([A for _, A, *_ in terms], format="csr")
        # row-major copy of A^T: sums each gradient entry in the same order as A.T @,
        # at a third of the cost of the column-major product
        self.AT = self.A.T.tocsr()
        self.b, self.s, self.w, self.d = (
            np.concatenate([np.broadcast_to(np.asarray(term[k], dtype=float), (n,))
                            for term, n in zip(terms, sizes)])
            for k in range(2, 6))

    def _continuity_map(self, mesh, degree, t):
        """U maps the shared nodal values (the CG DOFs) to broken DOFs."""
        ne = mesh.n_elements
        nk = degree + 1
        self.n_unique = ne * degree + 1
        cols = np.repeat(np.arange(ne), nk) * degree + np.tile(np.arange(nk), ne)
        self.U = sp.csr_matrix((np.ones(self.ndof), (np.arange(self.ndof), cols)),
                               shape=(self.ndof, self.n_unique))
        self.dirichlet_dofs = []
        if mesh.dirichlet_left:
            self.dirichlet_dofs.append((0, self.spec.u_D["left"]))
        if mesh.dirichlet_right:
            self.dirichlet_dofs.append((self.n_unique - 1, self.spec.u_D["right"]))
        mid = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        half = 0.5 * mesh.element_sizes
        self.unique_x = np.empty(self.n_unique)
        for e in range(ne):
            self.unique_x[e * degree:e * degree + nk] = mid[e] + half[e] * t

    def _term_values(self, resid):
        """Each term's value at the residual A x - b, in term order."""
        c = self.w * _power(resid, self.s) / self.d
        return [float(np.sum(c[a:b])) for a, b in self.segments]

    def terms(self, x):
        parts = self._term_values(self.A @ x - self.b)
        sums = np.bincount(self.field_index, parts, minlength=len(_FIELDS))
        return TermBreakdown(*sums.tolist())

    def value_and_grad(self, x):
        resid = self.A @ x - self.b
        val = 0.0
        for part in self._term_values(resid):
            val += part  # left to right; sum() compensates on Python >= 3.12
        grad = self.AT @ (self.w * _dpower(resid, self.s) / self.d)
        return val, grad

    def gradient(self, v):
        return self.value_and_grad(v)[1]

    @cached_property
    def _band_map(self):
        """(M, m): M maps term weights c to the lower band of A^T diag(c) A,
        flattened with H[i + k, i] at k * n + i for the n columns of A; m is the
        half-bandwidth."""
        A = self.A
        nnz_row = np.diff(A.indptr)
        width = int(nnz_row.max())
        # every ordered pair (p, q) of stored entries of one row, with col p >= col q
        p = np.repeat(np.arange(A.nnz), width)
        row = np.repeat(np.arange(A.shape[0]), nnz_row)[p]
        o = np.tile(np.arange(width), A.nnz)
        keep = o < nnz_row[row]
        p, row = p[keep], row[keep]
        q = A.indptr[row] + o[keep]
        lower = A.indices[p] >= A.indices[q]
        p, q, row = p[lower], q[lower], row[lower]
        off = A.indices[p] - A.indices[q]
        m = int(off.max())
        n = A.shape[1]
        M = sp.csr_matrix((A.data[p] * A.data[q], (off * n + A.indices[q], row)),
                          shape=((m + 1) * n, A.shape[0]))
        return M, m

    def hess(self, x, eps, newton=False):
        """The relaxed Kacanov matrix A^T diag(w s max(|t|, eps)^{s-2} / d) A at
        t = A x - b, as its lower band: an (m + 1, n) array with H[i + k, i] in
        row k, column i.  For s <= 2 its quadratic model majorizes the energy
        when eps = 0; at s = 2 it is the Hessian.  ``newton`` multiplies each
        weight by s - 1, which gives the Hessian wherever |t| >= eps."""
        t = np.abs(self.A @ x - self.b)
        c = self.w * self.s * np.maximum(t, eps) ** (self.s - 2.0) / self.d
        if newton:
            c *= self.s - 1.0
        M, m = self._band_map
        return (M @ c).reshape(m + 1, -1)

    def broken_to_unique(self, v):
        out = np.zeros(self.n_unique)
        counts = np.zeros(self.n_unique)
        np.add.at(out, self.U.indices, v)
        np.add.at(counts, self.U.indices, 1.0)
        return out / counts

    def unique_to_broken(self, xu):
        return self.U @ xu


def discrete_assembly(spec, degree):
    key = ("dg", degree)
    if key not in spec._cache:
        spec._cache[key] = _Assembly(spec, degree)
    return spec._cache[key]


def continuous_assembly(spec, degree):
    key = ("cg", degree)
    if key not in spec._cache:
        spec._cache[key] = _Assembly(spec, degree, continuous=True)
    return spec._cache[key]


def _check_mesh(v, spec):
    if v.mesh is not spec.mesh and not np.array_equal(v.mesh.nodes, spec.mesh.nodes):
        raise ValueError("function and spec live on different meshes")


def eval_discrete(v, spec):
    """Term-by-term value of the penalized broken energy at v."""
    _check_mesh(v, spec)
    return discrete_assembly(spec, v.degree).terms(v.dof_vector())


def grad_discrete(v, spec):
    """Exact gradient of the quadrature-discretized energy w.r.t. v's DOFs."""
    _check_mesh(v, spec)
    return discrete_assembly(spec, v.degree).gradient(v.dof_vector())


def _require_continuous(v):
    if v.mesh.n_elements > 1:
        scale = 1.0 + float(np.max(np.abs(v.coeffs)))
        if float(np.max(np.abs(jumps(v)))) > 1e-10 * scale:
            raise ValueError("conforming energy needs a continuous function")


def eval_continuous(v, spec):
    """Conforming energy (no lifting, no penalties); v must be continuous."""
    _check_mesh(v, spec)
    _require_continuous(v)
    asm = continuous_assembly(spec, v.degree)
    return asm.terms(asm.broken_to_unique(v.dof_vector()))


def grad_continuous(v, spec):
    _check_mesh(v, spec)
    _require_continuous(v)
    asm = continuous_assembly(spec, v.degree)
    return asm.value_and_grad(asm.broken_to_unique(v.dof_vector()))[1]


def coercivity_certificate(v, spec):
    """The explicit chain 2^{1-p2} * modular(grad v) <= energy + modular(R(v)).

    Returns (lhs, rhs); the inequality is exact for every v, which certifies
    that bounded energies bound the broken gradient.
    """
    _check_mesh(v, spec)
    asm = discrete_assembly(spec, v.degree)
    dof = v.dof_vector()
    gvals = asm.Gv @ dof
    rvals = asm.Rv @ dof
    grad_mod = float(np.sum(asm.wq * _power(gvals, asm.pq)))
    lift_mod = float(np.sum(asm.wq * _power(rvals, asm.pq)))
    lhs = 2.0 ** (1.0 - spec.p.p2) * grad_mod
    rhs = asm.terms(dof).total + lift_mod
    return lhs, rhs
