"""The penalized broken energy, its conforming counterpart, and exact DOF gradients.

Both discrete energies are ordered lists of terms

    sum_i w_i |(A x - b)_i|^{s_i} / d_i

with a sparse A.  For the broken (DG) energy of v with boundary data u_D the
list is, in this order:

    volume     A = G + R(.)  lifted gradient at quadrature points, w = w_q, s = p(x_q)
    fidelity   A = V  values at quadrature points, b = xi(x_q), w = w_q, s = q(x_q)
               (only when xi is given)
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
most a few neighbouring DOFs, and A is held in numpy as the list of its nonzero
(row, column, value) entries, built from per-element arrays.  A is the only
operator the assembly stores.  The value and the per-term breakdown take one
product A x and sum the terms' row segments in list order.  The gradient
A^T (w s |t|^{s-2} t / d), with t = A x - b (zero where t = 0), is one scatter
over the entries of A.  ``band`` is A^T diag(c) A, the ``band.KacanovBand`` of
A, for the term weights c of ``weights``: the relaxed Kacanov weights
w s max(|t|, eps)^{s-2} / d, or the Hessian's with the extra factor s - 1.  It
owns the band's storage and solve, and is freed with the assembly.  ``duality_gap``
bounds the distance of the energy to its minimum from a dual point of the
terms, which ``dual_point`` builds from one solve with that band.  The
conforming map U is an index array: the shared nodal value each broken DOF
takes.

The assembly also owns everything in which a DG solve differs from a CG one,
so that the solver runs one path for both.  ``dof_x`` is the DOF layout: each
element's Gauss-Lobatto nodes for DG, the shared nodes for CG.  ``pinned``
maps the DOFs held fixed to their values: none for DG, whose penalty terms
carry the Dirichlet data, and the Dirichlet ends for CG.  ``free`` is the
contiguous slice of the other DOFs, and ``function`` turns a DOF vector into
its ``BrokenFunction``.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .band import KacanovBand
from .broken import BrokenFunction, _basis, _eval_matrix, dof_points, elementwise_gradient
from .lifting import lift, lift_matrix
from .quadrature import composite_points, reference_rule

__all__ = [
    "FunctionalSpec",
    "TermBreakdown",
    "eval_discrete",
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


@dataclass
class FunctionalSpec:
    """Everything needed to evaluate the energy on one mesh.

    u_D maps "left"/"right" to Dirichlet values; xi, if given, is a callable
    sampled at quadrature points, and turns the fidelity term on; quadrature is
    ("trapezoid", panels) or ("gauss", points); lifting is the degree l of R
    (default: the degree of the broken functions).
    """

    mesh: object
    p: object
    q: object = None
    r: object = None
    xi: object = None
    u_D: dict = field(default_factory=dict)
    quadrature: tuple = ("trapezoid", 1)
    lifting: int = None
    normalize_by_exponent: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.p.p1 <= 1.0:
            raise ValueError("the energy needs inf p > 1")
        if self.xi is not None:
            if self.q is None:
                raise ValueError("fidelity (xi given) needs the exponent q")
            if self.q.p1 <= 1.0:
                raise ValueError("fidelity exponent must satisfy inf q > 1")
        if not (self.mesh.dirichlet_left and self.mesh.dirichlet_right):
            if self.r is None:
                raise ValueError("Neumann faces need the exponent r")
            if self.r.p1 <= 1.0:
                raise ValueError("Neumann exponent must satisfy inf r > 1")
        if self.mesh.dirichlet_left and "left" not in self.u_D:
            raise ValueError("missing left Dirichlet value")
        if self.mesh.dirichlet_right and "right" not in self.u_D:
            raise ValueError("missing right Dirichlet value")
        reference_rule(*self.quadrature)


def _power(t, s):
    """|t|^s with 0^s = 0 (s may vary per entry)."""
    return np.abs(t) ** s


def _power_and_slope(t, s):
    """|t|^s and its derivative s |t|^{s-2} t (0 at t = 0 for s > 1), from the
    one fractional power |t|^{s-1}; needs s >= 1.  The product |t|^{s-1} |t|
    can differ from ``_power`` in the last bit."""
    a = np.abs(t)
    q = a ** (s - 1.0)
    return q * a, s * q * np.sign(t)


_FIELDS = [f.name for f in fields(TermBreakdown)]


class _RowOp:
    """A sparse matrix held as its nonzero entries (rows, cols, vals), sorted by
    row and then by column.  ``A @ x`` adds each row's products in column
    order, and ``rmatvec`` each column's in row order, as CSR products with A
    and with A^T do: ``np.bincount`` adds its weights in entry order."""

    def __init__(self, rows, cols, vals, shape):
        """From (row, col, value) triplets; zero values are dropped, and no two
        nonzero values may share a position."""
        keep = vals != 0.0
        order = np.lexsort((cols[keep], rows[keep]))
        self.rows, self.cols, self.vals = (a[keep][order] for a in (rows, cols, vals))
        self.shape = tuple(shape)

    def __matmul__(self, x):
        return np.bincount(self.rows, self.vals * x.take(self.cols), minlength=self.shape[0])

    def rmatvec(self, y):
        """A^T y."""
        return np.bincount(self.cols, self.vals * y.take(self.rows), minlength=self.shape[1])


def _row_blocks(cols, vals):
    """(rows, cols, vals) triplets of the matrix whose row r has the entries
    ``vals[r]`` at the columns ``cols[r]``: the two are broadcast together, and
    every axis but the last is a row axis."""
    cols, vals = np.broadcast_arrays(cols, vals)
    cols, vals = cols.reshape(-1, cols.shape[-1]), vals.reshape(-1, vals.shape[-1])
    return np.repeat(np.arange(len(vals)), vals.shape[1]), cols.ravel(), vals.ravel()


class _Assembly:
    """The energy of one spec as a stacked term operator, with its DOF layout
    and pinned DOFs: DG, or CG if ``continuous``."""

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

        _, _, D = _basis(degree)
        PHI = _eval_matrix(degree, rx)            # (nq, nk)
        DPHI = PHI @ D                            # derivative samples at rx
        h = mesh.element_sizes
        first = (np.arange(ne) * nk)[:, None, None]  # each element's first DOF
        own = first + np.arange(nk)
        G = DPHI * (2.0 / h)[:, None, None]       # (ne, nq, nk)
        volume = _row_blocks(own, G)
        if not continuous:
            # the lifted jumps at the quadrature points: R(v) = EK[..., 0] [v]_left
            # + EK[..., 1] [v]_right, with EK[e, q, :] = sum_j El[q, j] K[e, j, :]
            l = spec.lifting if spec.lifting is not None else degree
            K = lift_matrix(mesh, l)
            El = _eval_matrix(l, rx)
            EK = El[None, :, 0, None] * K[:, None, 0]
            for j in range(1, l + 1):
                EK = EK + El[None, :, j, None] * K[:, None, j]
            # a volume row reaches the DOF before and after its element; the face
            # terms vanish at boundary faces, and the clipped columns with them
            wide = np.clip(first + np.arange(-1, nk + 1), 0, self.ndof - 1)
            R = np.zeros(G.shape[:2] + (nk + 2,))
            R[..., 0], R[..., 1] = EK[..., 0], -EK[..., 0]
            R[..., nk], R[..., nk + 1] = EK[..., 1], -EK[..., 1]
            volume = _row_blocks(wide, R + np.pad(G, [(0, 0), (0, 0), (1, 1)]))

        # (field, nrows, (rows, cols, vals) of A, b, s, w, d): the term
        # sum_i w_i |(A x - b)_i|^{s_i} / d_i
        nvol = self.xq.size
        terms = [("gradient_term", nvol, volume, 0.0, self.pq, self.wq,
                  self.pq if norm else 1.0)]
        if spec.xi is not None:
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

        # a shared CG node takes its position from the element on its right, and
        # the pinned DOFs are end DOFs, so the free ones are one contiguous band
        self.continuous = continuous
        self.degree = degree
        nodes = dof_points(mesh, degree)
        self.dof_x = nodes.ravel()
        self.pinned = {}
        ncols = self.ndof
        if continuous:
            # unique_dof[j] is the shared nodal value (CG DOF) that broken DOF j takes
            self.n_unique = ncols = ne * degree + 1
            self.unique_dof = np.repeat(np.arange(ne), nk) * degree + np.tile(np.arange(nk), ne)
            self.dof_x = np.append(nodes[:, :degree].ravel(), nodes[-1, -1])
            for name, dof in (("left", 0), ("right", ncols - 1)):
                if getattr(mesh, f"dirichlet_{name}"):
                    self.pinned[dof] = spec.u_D[name]
        self.free = slice(int(0 in self.pinned), ncols - int(ncols - 1 in self.pinned))
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
        self.b, self.s, self.w, self.d = (
            np.concatenate([np.broadcast_to(np.asarray(term[k], dtype=float), (n,))
                            for term, n in zip(terms, sizes)])
            for k in range(3, 7))

    def _term_values(self, power):
        """Each term's value from |A x - b|^s, in term order."""
        c = self.w * power / self.d
        return [float(np.sum(c[a:b])) for a, b in self.segments]

    def residual(self, x):
        return self.A @ x - self.b

    def terms(self, x):
        parts = self._term_values(_power(self.residual(x), self.s))
        sums = np.bincount(self.field_index, parts, minlength=len(_FIELDS))
        return TermBreakdown(*sums.tolist())

    def value_and_grad(self, x):
        power, slope = _power_and_slope(self.residual(x), self.s)
        val = 0.0
        for part in self._term_values(power):
            val += part  # left to right; sum() compensates on Python >= 3.12
        grad = self.A.rmatvec(self.w * slope / self.d)
        return val, grad

    def dual_point(self, t, c, dx):
        """The term slopes y0 = w s |t|^{s-2} t / d at the residual t, whose
        A^T y0 is the gradient, moved to y = y0 + diag(c) A dx.  Where dx
        solves A^T diag(c) A dx = -A^T y0 on the free DOFs and is 0 on the
        pinned ones, A^T y = 0 on the free DOFs: y is a dual point for
        ``duality_gap``.  At a minimizer dx = 0 and y = y0."""
        return self.w * _power_and_slope(t, self.s)[1] / self.d + c * (self.A @ dx)

    def duality_gap(self, t, y):
        """(E(x) - D(y), its rounding bound) at the residual t = A x - b, for
        a dual point y with A^T y = 0 on the DOFs that are free; the others
        are pinned at x.

        With a = w / d, each term phi(t) = a |t|^s has the conjugate
        phi*(y) = (s - 1) a (|y| / (a s))^{s / (s - 1)}, s > 1.  By weak
        duality every x' with the pinned values of x has E(x') >= D(y), so the
        gap bounds E(x) - min E.  It is the sum of the Fenchel-Young terms
        phi(t) + phi*(y) - y t >= 0; each of their three parts is rounded to
        about u of its size, which the second value adds up.  A phi* that
        overflows is a gap of +inf."""
        a = self.w / self.d
        s = self.s
        phi = a * _power(t, s)
        with np.errstate(over="ignore"):
            conj = (s - 1.0) * a * (np.abs(y) / (a * s)) ** (s / (s - 1.0))
        yt = y * t
        return (float(np.sum(phi + conj - yt)),
                np.finfo(float).eps * float(np.sum(phi + conj + np.abs(yt))))

    @cached_property
    def band(self):
        """The ``KacanovBand`` of A on the free DOFs, built at the first solve."""
        return KacanovBand(self.A, self.free)

    def weights(self, t, eps, newton=False):
        """The weights c = w s max(|t|, eps)^{s-2} / d of the relaxed Kacanov
        matrix A^T diag(c) A at the residual t = A x - b; ``newton`` multiplies
        each by s - 1, which gives the Hessian's wherever |t| >= eps."""
        c = self.w * self.s * np.maximum(np.abs(t), eps) ** (self.s - 2.0) / self.d
        if newton:
            c *= self.s - 1.0
        return c

    def function(self, x):
        """The BrokenFunction with the DOF vector x."""
        dofs = x[self.unique_dof] if self.continuous else x
        return BrokenFunction.from_dofs(self.spec.mesh, self.degree, dofs)


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


def coercivity_certificate(v, spec):
    """The explicit chain 2^{1-p2} * modular(grad v) <= energy + modular(R(v)).

    Returns (lhs, rhs); the inequality is exact for every v, which certifies
    that bounded energies bound the broken gradient.
    """
    _check_mesh(v, spec)
    asm = discrete_assembly(spec, v.degree)
    rx = reference_rule(*spec.quadrature)[0]
    gvals = elementwise_gradient(v).values_at_ref(rx).ravel()
    rvals = lift(v, spec.lifting).values_at_ref(rx).ravel()
    grad_mod = float(np.sum(asm.wq * _power(gvals, asm.pq)))
    lift_mod = float(np.sum(asm.wq * _power(rvals, asm.pq)))
    lhs = 2.0 ** (1.0 - spec.p.p2) * grad_mod
    rhs = asm.terms(v.dof_vector()).total + lift_mod
    return lhs, rhs
