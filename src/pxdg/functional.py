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

The assembly stacks the terms into one row operator: every row of A couples at
most a few neighbouring DOFs, so A is held in numpy as a fixed number of
(column, value) entries per row, built from per-element arrays.  The value, the
gradient A^T (w s |t|^{s-2} t / d) with t = A x - b (zero where t = 0), and the
per-term breakdown each take one product with it (and with its transpose, held
the same way), and sum the terms' row segments in list order.  ``hess`` gives
the relaxed Kacanov matrix A^T diag(w s max(|t|, eps)^{s-2} / d) A, or the
Hessian with the extra factor s - 1, in band storage: the matrix is banded, and
its pattern is fixed, so one row operator of the same kind takes the term
weights to the band.  The conforming map U is an index array: the shared nodal
value each broken DOF takes.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

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


class _RowOp:
    """A sparse matrix held as the same number of entries in every row.

    ``cols`` and ``vals`` have shape (width, nrows): each row holds its nonzero
    entries in increasing column order, padded with weight 0 on a column of its
    own.  ``A @ x`` adds each row's products in column order, as a CSR product
    does: numpy sums the first axis of a (width, nrows) array row after row
    when nrows >= 2, which every operator here has.
    """

    def __init__(self, rows, cols, vals, shape):
        """From (row, col, value) triplets; zero values are dropped, and no two
        nonzero values may share a position."""
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        count = np.bincount(rows, minlength=shape[0])
        first = np.cumsum(count) - count
        pad = np.zeros(shape[0], dtype=np.intp)
        pad[count > 0] = cols[first[count > 0]]
        width = max(int(count.max(initial=0)), 1)
        self.cols = np.tile(pad, (width, 1))
        self.vals = np.zeros((width, shape[0]))
        slot = np.arange(rows.size) - first[rows]
        self.cols[slot, rows] = cols
        self.vals[slot, rows] = vals
        self.shape = tuple(shape)

    def transpose(self):
        real = self.vals != 0.0
        rows = np.broadcast_to(np.arange(self.shape[0]), self.cols.shape)
        return _RowOp(self.cols[real], rows[real], self.vals[real], self.shape[::-1])

    def __matmul__(self, x):
        return (self.vals * x.take(self.cols)).sum(axis=0)


def _row_blocks(cols, vals):
    """(rows, cols, vals) triplets of the matrix whose row r has the entries
    ``vals[r]`` at the columns ``cols[r]``: the two are broadcast together, and
    every axis but the last is a row axis."""
    cols, vals = np.broadcast_arrays(cols, vals)
    cols, vals = cols.reshape(-1, cols.shape[-1]), vals.reshape(-1, vals.shape[-1])
    return np.repeat(np.arange(len(vals)), vals.shape[1]), cols.ravel(), vals.ravel()


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
        first = (np.arange(ne) * nk)[:, None, None]  # each element's first DOF
        own = first + np.arange(nk)
        G = DPHI * (2.0 / h)[:, None, None]       # (ne, nq, nk)
        self._gv_blocks = (own, G)
        volume = _row_blocks(own, G)
        if not continuous:
            # the lifted jumps at the quadrature points: R(v) = EK[..., 0] [v]_left
            # + EK[..., 1] [v]_right, with EK[e, q, :] = sum_j El[q, j] K[e, j, :]
            lcfg = spec.lifting if spec.lifting is not None else LiftingConfig(degree)
            El = _eval_matrix(lcfg.degree, rx)
            K = lift_matrix(mesh, lcfg.degree)
            EK = El[None, :, 0, None] * K[:, None, 0]
            for j in range(1, lcfg.degree + 1):
                EK = EK + El[None, :, j, None] * K[:, None, j]
            # a volume row reaches the DOF before and after its element; the face
            # terms vanish at boundary faces, and the clipped columns with them
            wide = np.clip(first + np.arange(-1, nk + 1), 0, self.ndof - 1)
            R = np.zeros(G.shape[:2] + (nk + 2,))
            R[..., 0], R[..., 1] = EK[..., 0], -EK[..., 0]
            R[..., nk], R[..., nk + 1] = EK[..., 1], -EK[..., 1]
            self._rv_blocks = (wide, R)
            volume = _row_blocks(wide, R + np.pad(G, [(0, 0), (0, 0), (1, 1)]))

        # (field, nrows, (rows, cols, vals) of A, b, s, w, d): the term
        # sum_i w_i |(A x - b)_i|^{s_i} / d_i
        nvol = self.xq.size
        terms = [("gradient_term", nvol, volume, 0.0, self.pq, self.wq,
                  self.pq if norm else 1.0)]
        if spec.fidelity_on:
            qq = spec.q(self.xq)
            terms.append(("fidelity_term", nvol, _row_blocks(own, PHI),
                          np.asarray(spec.xi(self.xq), dtype=float), qq, self.wq,
                          qq if norm else 1.0))
        neumann = []
        hb = mesh.boundary_face_sizes
        ends = (("left", 0, mesh.x_left, hb[0]), ("right", self.ndof - 1, mesh.x_right, hb[1]))
        for name, dof, x, hbv in ends:
            row = (np.zeros(1, dtype=int), np.array([dof]), np.ones(1))
            if not getattr(mesh, f"dirichlet_{name}"):
                neumann.append(("neumann_term", 1, row, 0.0, spec.r(x), 1.0, 1.0))
            elif not continuous:
                # scalars, not arrays: numpy's vectorized ** can differ from the scalar one
                # in the last bit, which is enough to move the solver's iterates
                pe = spec.p(x)
                terms.append(("dirichlet_penalty", 1, row, spec.u_D[name], pe,
                              hbv ** (1.0 - pe), 1.0))
        if not continuous:
            nf = ne - 1
            left = np.arange(nf)[:, None] * nk + (nk - 1)
            jump = _row_blocks(left + [0, 1], np.array([1.0, -1.0]))
            pf = spec.p(mesh.interior_faces)
            terms.append(("interior_penalty", nf, jump, 0.0, pf,
                          mesh.interior_face_sizes ** (1.0 - pf), 1.0))
        terms += neumann

        ncols = self.ndof
        if continuous:
            self._continuity_map(mesh, degree, t)
            ncols = self.n_unique
        sizes = [n for _, n, *_ in terms]
        stops = np.cumsum(sizes).tolist()
        self.segments = list(zip([0] + stops[:-1], stops))
        self.field_index = np.array([_FIELDS.index(f) for f, *_ in terms])
        ops = [op for _, _, op, *_ in terms]
        rows = np.concatenate([op[0] + a for op, (a, _) in zip(ops, self.segments)])
        cols = np.concatenate([op[1] for op in ops])
        vals = np.concatenate([op[2] for op in ops])
        if continuous:
            cols = self.unique_dof[cols]
        self.A = _RowOp(rows, cols, vals, (stops[-1], ncols))
        self.AT = self.A.transpose()
        self.b, self.s, self.w, self.d = (
            np.concatenate([np.broadcast_to(np.asarray(term[k], dtype=float), (n,))
                            for term, n in zip(terms, sizes)])
            for k in range(3, 7))

    def _continuity_map(self, mesh, degree, t):
        """unique_dof[j] is the shared nodal value (CG DOF) that broken DOF j takes."""
        ne = mesh.n_elements
        nk = degree + 1
        self.n_unique = ne * degree + 1
        self.unique_dof = np.repeat(np.arange(ne), nk) * degree + np.tile(np.arange(nk), ne)
        self.dirichlet_dofs = []
        if mesh.dirichlet_left:
            self.dirichlet_dofs.append((0, self.spec.u_D["left"]))
        if mesh.dirichlet_right:
            self.dirichlet_dofs.append((self.n_unique - 1, self.spec.u_D["right"]))
        mid = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        half = 0.5 * mesh.element_sizes
        # a shared node takes its position from the element on its right
        nodes = mid[:, None] + half[:, None] * t
        self.unique_x = np.append(nodes[:, :degree].ravel(), nodes[-1, -1])

    @cached_property
    def Gv(self):
        """The broken gradient at the quadrature points."""
        return _RowOp(*_row_blocks(*self._gv_blocks), (self.xq.size, self.ndof))

    @cached_property
    def Rv(self):
        """The lifted jumps at the quadrature points (DG: A's volume rows are Gv + Rv)."""
        return _RowOp(*_row_blocks(*self._rv_blocks), (self.xq.size, self.ndof))

    def _term_values(self, resid):
        """Each term's value at the residual A x - b, in term order."""
        c = self.w * _power(resid, self.s) / self.d
        return [float(np.sum(c[a:b])) for a, b in self.segments]

    def residual(self, x):
        return self.A @ x - self.b

    def terms(self, x):
        parts = self._term_values(self.residual(x))
        sums = np.bincount(self.field_index, parts, minlength=len(_FIELDS))
        return TermBreakdown(*sums.tolist())

    def value_and_grad(self, x):
        resid = self.residual(x)
        val = 0.0
        for part in self._term_values(resid):
            val += part  # left to right; sum() compensates on Python >= 3.12
        grad = self.AT @ (self.w * _dpower(resid, self.s) / self.d)
        return val, grad

    def gradient(self, v):
        return self.value_and_grad(v)[1]

    @cached_property
    def _band_map(self):
        """(cols, vals, widths): the lower band of A^T diag(c) A, H[i + k, i] at
        [k, i] for the n columns of A, from the products ``vals * c[cols]``.
        These hold the m + 1 band diagonals one after another, diagonal k as a
        (widths[k], n) row operator (see ``_RowOp``) from c to H[i + k, i]:
        one width per diagonal, since the outer ones take fewer rows of A."""
        A = self.A
        n = A.shape[1]
        # every pair (a, b) of entries of one row with col a >= col b
        a, b = np.tril_indices(A.cols.shape[0])
        real = (A.vals[a] != 0.0) & (A.vals[b] != 0.0)
        off = (A.cols[a] - A.cols[b])[real]
        row = np.broadcast_to(np.arange(A.shape[0]), real.shape)[real]
        col = A.cols[b][real]
        val = (A.vals[a] * A.vals[b])[real]
        diagonals = [_RowOp(col[off == k], row[off == k], val[off == k], (n, A.shape[0]))
                     for k in range(int(off.max()) + 1)]
        return (np.concatenate([d.cols.ravel() for d in diagonals]),
                np.concatenate([d.vals.ravel() for d in diagonals]),
                [d.vals.shape[0] for d in diagonals])

    def hess(self, t, eps, newton=False):
        """The relaxed Kacanov matrix A^T diag(w s max(|t|, eps)^{s-2} / d) A at
        the residual t = A x - b, as its lower band: an (m + 1, n) array with
        H[i + k, i] in row k, column i.  For s <= 2 its quadratic model
        majorizes the energy when eps = 0; at s = 2 it is the Hessian.
        ``newton`` multiplies each weight by s - 1, which gives the Hessian
        wherever |t| >= eps."""
        c = self.w * self.s * np.maximum(np.abs(t), eps) ** (self.s - 2.0) / self.d
        if newton:
            c *= self.s - 1.0
        cols, vals, widths = self._band_map
        terms = vals * c.take(cols)
        n = self.A.shape[1]
        band = np.empty((len(widths), n))
        start = 0
        for k, width in enumerate(widths):
            terms[start:start + width * n].reshape(width, n).sum(axis=0, out=band[k])
            start += width * n
        return band

    def broken_to_unique(self, v):
        return (np.bincount(self.unique_dof, v, minlength=self.n_unique)
                / np.bincount(self.unique_dof, minlength=self.n_unique))

    def unique_to_broken(self, xu):
        return xu[self.unique_dof]


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
