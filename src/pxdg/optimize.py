"""Minimization of the DG/CG energies by relaxed Kacanov steps with an Armijo
backtracking line search.

Every energy here is a sum of terms ``w |(A x - b)|^s / d`` whose rows couple a
few neighbouring DOFs, so the relaxed Kacanov matrix
``A^T diag(c) A``, c = w s max(|t|, eps)^{s-2} / d at the residual t = A x - b,
is banded and symmetric positive definite.  ``solve_dg`` and ``solve_cg`` run
one loop, ``_minimize``, on the free DOFs of their assembly (CG pins its
Dirichlet ends) and take each step p from one banded solve
``A^T diag(c) A p = -g`` (Diening, Fornasier, Tomasi & Wank, Numer. Math. 145,
2020: for s <= 2 its quadratic model majorizes the energy).

The eps schedule: eps is max|t| at the first step and max(eps / 10, u max|t|)
at each later one, u = 2.2e-16 the machine epsilon.  The floor is the float64
rounding level of the largest residual, one global number, not one per row:
floored only at their own rounding level, the rows of the smallest residuals
take weights near 1e19 and the banded solve loses its pivots.

The Newton switch: at the floor the error of a row with s near 1 shrinks only
by a factor of about 2 - s per step.  So from the first step at the floor on,
the weights take the factor s - 1 of the Hessian (Newton steps); waiting at the
floor for the energy to settle only adds Kacanov steps (DG on the paper problem
at 5120 elements: 90 steps with Newton from a floor step that changed the
energy by at most 1e-8 relative, 22 from the first).  The switch is two-way: right
after a Newton step that the line search shortened (alpha < 1), whose quadratic
model overshot, one step takes the relaxed Kacanov weights again, then Newton
resumes.  The step length halves from 1 until the energy decreases
sufficiently; where s > 2 and the model no longer majorizes, that halving is
what keeps the energy falling.

A run converges at max|g| <= grad_tol (1 + max|g0|).  Where s is near 1 a
term's slope s |t|^{s-1} stays O(1) however small its residual, so that test
can stall with the energy flat in float64.  So every step at the eps floor
also takes a duality gap, which bounds E(x) - min E, from the same banded
solve: the step p moves the term slopes y0 to the dual point y0 + C A p
(``_Assembly.dual_point``, ``_Assembly.duality_gap``), and a gap within
grad_tol |E| ends the run converged before that step's line search.

Everything is deterministic: identical inputs produce identical iterates.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from .functional import continuous_assembly, discrete_assembly
from .quadrature import reference_rule

__all__ = ["BfgsConfig", "SolveReport", "solve_dg", "solve_cg"]


@dataclass(frozen=True)
class BfgsConfig:
    grad_tol: float = 1e-8
    max_iters: int = 10000
    initial_guess: object = None  # None: the line through the Dirichlet data; or DOFs

    def __post_init__(self):
        # an infinite tolerance passes every test at step 0, a nan one none
        if not 0.0 < self.grad_tol < np.inf or self.max_iters <= 0:
            raise ValueError("the tolerance must be finite and positive, and the "
                             "iteration budget positive")


@dataclass
class SolveReport:
    solution: object
    breakdown: object
    iterations: int
    grad_norm_history: list
    f_history: list
    line_search_failures: int
    n_evals: int
    newton_steps: int  # banded solves with Newton weights
    stop_reason: str
    grad_tol: float  # converged at max|g| <= grad_tol, the config's grad_tol (1 + max|g0|),
    # or at a step at the eps floor with gap <= the config's grad_tol |f|
    gap: object  # the duality gap with its rounding at the last step at the eps floor; else None
    wall_time: float
    method: str

    @property
    def converged(self):
        return self.stop_reason == "converged"


class _LineSearchFailure(Exception):
    pass


# Sufficient-decrease constant of the Armijo condition.
ARMIJO_C1 = 1e-4
# Trial steps alpha = 1, 1/2, ..., 2^-59 before a line search fails.
ARMIJO_TRIALS = 60
# Relative energy change below which a trial energy equals f0 to rounding.
FLAT_RTOL = 1e-12
# Steps in which neither the energy falls beyond FLAT_RTOL nor max|g| halves,
# after which a run has stalled.
STALL_ITERS = 20


def _armijo_search(fg, x, p, f0, dphi0):
    """Backtracking step along p: the first of alpha = 1, 1/2, 1/4, ... with
    ``f <= f0 + ARMIJO_C1 alpha dphi0``; returns (alpha, f, g).

    Where the trial energy equals f0 to rounding (``FLAT_RTOL``), the decrease
    test only compares rounding noise: the step is judged by its slope alone
    with the approximate Wolfe condition of Hager & Zhang (SIAM J. Optim. 16,
    2005), ``g p <= (2 c1 - 1) dphi0``.
    """
    alpha = 1.0
    for _ in range(ARMIJO_TRIALS):
        f, g = fg(x + alpha * p)
        if abs(f - f0) <= FLAT_RTOL * abs(f0):
            if g @ p <= (2.0 * ARMIJO_C1 - 1.0) * dphi0:
                return alpha, f, g
        elif f <= f0 + ARMIJO_C1 * alpha * dphi0:
            return alpha, f, g
        alpha *= 0.5
    raise _LineSearchFailure


# Unknowns (rows, padding excluded) at or below which block cyclic reduction
# stops and the remaining block tridiagonal system is solved as one dense
# matrix: a level costs about the same numpy calls however few blocks it holds.
# Median times of one solve (2 vCPU, 25 interleaved rounds) on Kacanov
# matrices on the blocks of ``_Assembly.band_blocks``, with tails of at most
# 40, 48, 64, 80 and 96 rows: DG P1 (blocks of 2) 197, 197, 196, 209, 210 us
# at 80 rows, 483, 483, 481, 528, 527 us at 640 and 878, 878, 886, 923, 917 us
# at 2560; DG P2 (blocks of 3) 194, 194, 154, 154, 154 us at 60 rows; CG P1
# (blocks of 1) 311, 313, 314, 372, 370 us at 299 and 326, 324, 332, 331,
# 333 us at 399.  Whole CG solves at 399 rows favour 48 over 64 (its dense
# tail has 24 rows, not 49): 1.04 and 1.08 times the solve time with the
# half-bandwidth blocks and the padded tail of 48 rows, in one process over 40
# interleaved rounds.  Counted with padding, a tail of 48 rows took a DG P1
# system of 40 rows (62 padded) through one level: 153 against 99 us.
TAIL_UNKNOWNS = 48


@functools.lru_cache(maxsize=32)
def _block_index(m, n, b, s):
    """Where the block tridiagonal form of an n x n band matrix with
    half-bandwidth m, and its right-hand side, sit in ``[ab.ravel(), rhs, 0, 1]``,
    which band entries lie outside it, and how block cyclic reduction ends.

    The matrix is taken as N = 2^k - 1 block rows of b rows, led by s padding
    rows and trailed by as many as N b - n - s: block row i holds the rows
    i b - s, ..., i b - s + b - 1, and a padding row is an identity row.  The
    index array has shape (b, 2b + 1, N): for block row i, its columns are
    ``[B | A | r]``, with B[i] the diagonal block, A[i] the block coupling it
    to block i - 1 and r[i] the right-hand side.  The block index is the last
    axis, so that numpy loops over it in one call.  Band entries that reach
    below row n are ignored; ``outside`` indexes the others that no block
    holds, which is none for b >= m and s = 0.

    ``depth`` levels of reduction leave at most ``TAIL_UNKNOWNS`` rows that
    are not padding, and ``tail`` slices them out of the rows left.
    """
    N = 2 ** (-(-(n + s) // b)).bit_length() - 1
    zero = (m + 2) * n
    i = np.arange(N)
    row = i * b - s + np.arange(b)[:, None, None]
    # B[i] has the columns i b - s + c, A[i] the columns (i - 1) b - s + c
    col = (i - 1) * b - s + np.roll(np.arange(2 * b), b)[:, None]
    lo, hi = np.minimum(row, col), np.maximum(row, col)
    band = (lo >= 0) & (hi < n) & (hi - lo <= m)
    H = np.where(band, (hi - lo) * n + lo, zero)
    H = np.where((row == col) & ((row < 0) | (row >= n)), zero + 1, H)
    r = np.where((row >= 0) & (row < n), (m + 1) * n + row, zero)
    index = np.concatenate((H, r), axis=1)
    # band entries H[j + k, j] that no block holds (np.setdiff1d would import numpy.ma)
    held = np.zeros((m + 1, n), dtype=bool)
    held.flat[H[band]] = True
    k, j = np.indices(held.shape)
    outside = np.flatnonzero(~held & (j + k < n))
    index.flags.writeable = outside.flags.writeable = False  # shared by every solve of this shape
    depth = 0
    while True:
        # tail block t is block (t + 1) 2^depth - 1, so its rows increase with t
        first = ((np.arange(1, (N >> depth) + 1) << depth) - 1) * b - s
        lo, hi = np.searchsorted((first[:, None] + np.arange(b)).ravel(), (0, n)).tolist()
        if hi - lo <= TAIL_UNKNOWNS or N >> depth == 1:
            return index, outside, depth, slice(lo, hi)
        depth += 1


def _band_solve(ab, rhs, blocks):
    """Solve H x = rhs for the SPD band matrix H given by its lower band ``ab``
    (H[i + k, i] in row k, column i), by block cyclic reduction (Buzbee, Golub
    & Nielson, SIAM J. Numer. Anal. 7, 1970) on the blocks of ``_block_index``,
    ended by a dense solve (Zhang, Cohen & Owens, PPoPP 2010).

    ``blocks`` is the (size b, leading shift s) of the blocks.  (max(m, 1), 0)
    holds every band of half-bandwidth m; smaller blocks that hold the
    matrix's pattern cost less (``_Assembly.band_blocks``).  A band entry
    outside the blocks that is nonzero or nan raises
    ``np.linalg.LinAlgError``, so that no entry is dropped.

    Each level eliminates its even blocks.  One pass of elimination without
    row exchanges turns the stack ``[B | C | A | r]`` of every even block, with
    C[i] = A[i + 1]^T, into ``B^{-1} [C | A | r]``.  The odd blocks, each
    between two even ones, subtract their Schur complements in two batched
    products and form the next level.  A level costs the same few numpy calls
    whatever its size, so the levels stop once at most ``TAIL_UNKNOWNS`` rows
    that are not padding are left; those are scattered into one dense matrix
    and solved directly.  Back-substitution then runs through the levels in
    reverse.  Where n <= ``TAIL_UNKNOWNS``, the dense solve is the whole
    solve.

    A matrix that is not SPD raises ``np.linalg.LinAlgError``, as does a
    non-finite solution: a failed factorization never yields a step.  The
    pivots of each level's elimination, the D of B = L D L^T, are checked
    positive and finite together, before the level is used; the dense matrix
    is checked finite (``np.linalg.cholesky`` takes an infinite diagonal) and
    positive definite by its Cholesky factorization.
    """
    m, n = ab.shape[0] - 1, rhs.size
    b, s = blocks
    index, outside, depth, tail = _block_index(m, n, b, s)
    flat = np.concatenate((ab.ravel(), rhs, (0.0, 1.0)))
    if outside.size and flat.take(outside).any():
        raise np.linalg.LinAlgError("a band entry outside the blocks")
    T = flat.take(index)
    levels = []
    # the pivots of a level are checked once its elimination is done: a bad
    # one spoils only the level that the check rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(depth):
            even, odd = T[..., 0::2], T[..., 1::2]
            no = odd.shape[2]
            M = np.empty((b, 3 * b + 1, no + 1))
            M[:, :b] = even[:, :b]
            M[:, b:2 * b, :no] = odd[:, b:2 * b].transpose(1, 0, 2)
            M[:, b:2 * b, no] = 0.0
            M[:, 2 * b:] = even[:, b:]
            for j in range(b):
                M[j, j + 1:] /= M[j, j]
                if j + 1 < b:
                    M[j + 1:, j + 1:] -= M[j + 1:, j, None] * M[j, j + 1:]
            piv = np.diagonal(M, axis1=0, axis2=1)
            if not 0.0 < piv.min() <= piv.max() < np.inf:
                raise np.linalg.LinAlgError("non-positive or non-finite pivot")
            for j in range(b - 1, 0, -1):
                M[:j, b:] -= M[:j, j, None] * M[j, b:]
            E = M[:, b:]
            levels.append(E)
            # with E = [E_C | E_A | E_r], odd block j between even blocks j and j + 1
            # takes B - A E_C[j] - C E_A[j + 1], couples back by -A E_A[j] and has the
            # right-hand side r - A E_r[j] - C E_r[j + 1], where C = A[j + 1]^T
            left = np.einsum("ilj,lkj->ikj", odd[:, b:2 * b], E[..., :-1])
            right = np.einsum("lij,lkj->ikj", even[:, b:2 * b, 1:], E[:, b:, 1:])
            T = odd - left
            np.negative(left[:, b:2 * b], out=T[:, b:2 * b])
            T[:, :b] -= right[:, :b]
            T[:, 2 * b] -= right[:, b]
    # the tail: block i of the dense matrix holds B[i], A[i] left of it and
    # A[i + 1]^T right of it
    N = T.shape[2]
    i = np.arange(N)
    D = np.zeros((N, b, N, b))
    D[i, :, i] = T[:, :b].transpose(2, 0, 1)
    D[i[1:], :, i[:-1]] = T[:, b:2 * b, 1:].transpose(2, 0, 1)
    D[i[:-1], :, i[1:]] = T[:, b:2 * b, 1:].transpose(2, 1, 0)
    # a padding row stays an identity row with no coupling and a zero
    # right-hand side through every level, so the dense solve leaves it out
    D = D.reshape(N * b, N * b)[tail, tail]
    if not np.all(np.isfinite(D)):
        raise np.linalg.LinAlgError("non-finite matrix")
    # the factor only certifies D positive definite: numpy has no triangular
    # solve, and two general ones on it cost more than one on D
    np.linalg.cholesky(D)
    # x holds the blocks a level left over, between two zero blocks
    x = np.zeros((b, N + 2))
    xt = np.zeros(N * b)
    xt[tail] = np.linalg.solve(D, T[:, 2 * b].T.ravel()[tail])
    x[:, 1:-1] = xt.reshape(N, b).T
    for E in reversed(levels):
        xe = E[:, 2 * b] - np.einsum("ilj,lj->ij", E[:, :2 * b],
                                     np.concatenate((x[:, 1:], x[:, :-1])))
        x, xo = np.zeros((b, 2 * E.shape[2] + 1)), x
        x[:, 1::2] = xe
        x[:, 2:-1:2] = xo[:, 1:-1]
    x = x[:, 1:-1].T.ravel()[s:s + n]
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("non-finite solution")
    return x


def _minimize(asm, x, cfg):
    """Minimize the energy of ``asm`` over its free DOFs from the DOF vector x,
    whose pinned DOFs keep their values, by the steps and the line search of
    the module docstring.

    Returns ``(x, f, stats)``, with ``stats`` the iteration fields of
    ``SolveReport``.  ``n_evals`` counts every call of ``asm.value_and_grad``,
    those of a failed search included.  Ends converged at ``max|g| <= grad_tol
    (1 + max|g0|)`` (``stats["grad_tol"]``) or where the duality gap of a step
    at the eps floor, checked before its line search, is at most the config's
    grad_tol |f| (the last gap is ``stats["gap"]``).  Otherwise it ends with
    ``stop_reason`` "max_iters", "line_search_failed", "bad_pivot" (the step
    matrix is not SPD) or "stalled" (in ``STALL_ITERS`` steps the energy fell
    by no more than rounding, ``FLAT_RTOL``, and max|g| did not halve).
    """
    free = asm.free
    x = x.copy()
    evals = 0

    def fg(xfree):
        nonlocal evals
        evals += 1
        trial = x.copy()
        trial[free] = xfree
        f, g = asm.value_and_grad(trial)
        return f, g[free]

    f, g = fg(x[free])
    gmax = float(np.max(np.abs(g))) if g.size else 0.0
    tol = cfg.grad_tol * (1.0 + gmax)
    f_hist = [f]
    g_hist = [gmax]
    converged = gmax <= tol
    stop = None
    f_ref, g_ref, flat_steps = f, gmax, 0
    gap = None
    it = newton_steps = 0
    alpha = 1.0
    eps = None
    newton_phase = newton = False
    while not converged and it < cfg.max_iters:
        t = asm.residual(x)
        tmax = float(np.max(np.abs(t)))
        floor = np.finfo(float).eps * tmax
        if eps is None:
            eps = tmax
        else:
            eps = max(eps / 10.0, floor)
            newton_phase |= eps == floor
        newton = newton_phase and not (newton and alpha < 1.0)
        c = asm.weights(t, eps, newton)
        try:
            p = _band_solve(asm.hess(c)[:, free], -g, asm.band_blocks)
        except np.linalg.LinAlgError:
            stop = "bad_pivot"
            break
        newton_steps += newton
        if eps == floor:
            dx = np.zeros_like(x)
            dx[free] = p
            gap = sum(asm.duality_gap(t, asm.dual_point(t, c, dx)))
            converged = gap <= cfg.grad_tol * abs(f)
            if converged:
                break
        try:
            alpha, f, g = _armijo_search(fg, x[free], p, f, float(g @ p))
        except _LineSearchFailure:
            stop = "line_search_failed"
            break
        x[free] += alpha * p
        it += 1
        gmax = float(np.max(np.abs(g)))
        f_hist.append(f)
        g_hist.append(gmax)
        converged = gmax <= tol
        if f_ref - f > FLAT_RTOL * abs(f_ref) or gmax <= 0.5 * g_ref:
            f_ref, g_ref, flat_steps = f, gmax, 0
        else:
            flat_steps += 1
            if flat_steps >= STALL_ITERS and not converged:
                stop = "stalled"
                break
    if stop is None:
        stop = "converged" if converged else "max_iters"
    return x, f, dict(iterations=it, grad_norm_history=g_hist, f_history=f_hist,
                      line_search_failures=int(stop == "line_search_failed"), n_evals=evals,
                      newton_steps=newton_steps, stop_reason=stop, grad_tol=tol, gap=gap)


def _initial_dofs(asm, cfg):
    """The starting DOF vector with the pinned DOFs at their values: the
    config's guess, or the line through the Dirichlet data at ``asm.dof_x``
    (the one end's value if only one end has data, 0 if none has)."""
    spec, n = asm.spec, asm.dof_x.size
    if cfg.initial_guess is not None:
        x = np.array(cfg.initial_guess, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"initial guess has {x.size} entries; "
                             f"this {spec.mesh.n_elements}-element solve has {n} DOFs")
    else:
        mesh = spec.mesh
        uL = spec.u_D.get("left", spec.u_D.get("right", 0.0))
        uR = spec.u_D.get("right", uL)
        x = uL + (uR - uL) / (mesh.x_right - mesh.x_left) * (asm.dof_x - mesh.x_left)
    for dof, val in asm.pinned.items():
        x[dof] = val
    return x


def _check_dg_quadrature(spec, k):
    """DG's volume rows sample G + R(v), a polynomial of degree max(k - 1, l)
    on each element.  A rule with fewer points than it has coefficients leaves
    part of it unseen, and the minimizer of the discrete energy can then lie far
    below the continuous one; evaluating the energy with such a rule is fine."""
    l = spec.lifting if spec.lifting is not None else k
    need = max(k - 1, l) + 1
    points = reference_rule(*spec.quadrature)[0].size
    if points < need:
        raise ValueError(f"quadrature {spec.quadrature!r} has {points} points per element; "
                         f"DG with degree {k} and lifting degree {l} needs at least {need}")


def _solve(asm, cfg, method):
    """Shared body of solve_dg and solve_cg."""
    cfg = cfg or BfgsConfig()
    x = _initial_dofs(asm, cfg)
    t0 = time.perf_counter()
    x, f, stats = _minimize(asm, x, cfg)
    wall = time.perf_counter() - t0
    if not np.all(np.isfinite(x)) or not np.isfinite(f):
        raise ArithmeticError(f"{method.upper()} solve diverged to a non-finite state")
    return SolveReport(asm.function(x), asm.terms(x), **stats, wall_time=wall, method=method)


def solve_dg(spec, k, cfg=None):
    """Minimize the penalized broken energy over degree-k broken polynomials.

    Raises ``ValueError`` for k < 0, and if the quadrature has fewer than
    max(k - 1, l) + 1 points per element, l the lifting degree."""
    if k < 0:
        raise ValueError(f"DG needs degree k >= 0, got {k}")
    _check_dg_quadrature(spec, k)
    return _solve(discrete_assembly(spec, k), cfg, "dg")


def solve_cg(spec, k, cfg=None):
    """Minimize the conforming energy over continuous degree-k functions with
    Dirichlet values eliminated from the optimization variables.

    Raises ``ValueError`` for k < 1: a degree-0 function has one value on the
    whole domain, and it cannot take two different Dirichlet values."""
    if k < 1:
        raise ValueError(f"CG needs degree k >= 1, got {k}")
    return _solve(continuous_assembly(spec, k), cfg, "cg")
