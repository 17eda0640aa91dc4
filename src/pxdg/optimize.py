"""Minimization of the DG/CG energies by relaxed Kacanov steps with an Armijo
backtracking line search.

Every energy here is a sum of terms ``w |(A x - b)|^s / d`` whose rows couple a
few neighbouring DOFs, so the relaxed Kacanov matrix
``A^T diag(w s max(|t|, eps)^{s-2} / d) A`` is banded and symmetric positive
definite.  ``solve_dg`` and ``solve_cg`` take each step from one banded solve with
it (Diening, Fornasier, Tomasi & Wank, Numer. Math. 145, 2020: for s <= 2 its
quadratic model majorizes the energy), shrinking eps tenfold per step from
max|t| to ``EPS_FLOOR`` max|t| and then switching to the Newton weights
(the factor s - 1) near the minimum.  The step length halves from 1 until the
energy decreases sufficiently; where s > 2 and the model no longer majorizes,
that halving is what keeps the energy falling.

Everything is deterministic: identical inputs produce identical iterates.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from .broken import BrokenFunction, interpolate
from .functional import continuous_assembly, discrete_assembly
from .quadrature import reference_rule

__all__ = ["BfgsConfig", "SolveReport", "solve_dg", "solve_cg"]


@dataclass(frozen=True)
class BfgsConfig:
    grad_tol: float = 1e-8
    max_iters: int = 10000
    initial_guess: object = None  # None: the line through the Dirichlet data; or DOFs

    def __post_init__(self):
        if self.grad_tol <= 0.0 or self.max_iters <= 0:
            raise ValueError("tolerances and iteration budget must be positive")


@dataclass
class SolveReport:
    solution: object
    breakdown: object
    iterations: int
    grad_norm_history: list
    f_history: list
    line_search_failures: int
    n_evals: int
    stop_reason: str
    grad_tol: float  # converged at max|g| <= grad_tol, the config's grad_tol (1 + max|g0|)
    wall_time: float
    method: str

    @property
    def converged(self):
        return self.stop_reason == "converged"

    def trace_csv(self):
        lines = ["iteration,f,grad_max"]
        for i, (fv, gn) in enumerate(zip(self.f_history, self.grad_norm_history)):
            lines.append(f"{i},{fv:.17g},{gn:.17g}")
        return "\n".join(lines) + "\n"


class _LineSearchFailure(Exception):
    pass


# Sufficient-decrease constant of the Armijo condition.
ARMIJO_C1 = 1e-4
# Relative energy change below which a trial energy equals f0 to rounding.
FLAT_RTOL = 1e-12
# Steps in which neither the energy falls beyond FLAT_RTOL nor max|g| halves,
# after which a run has stalled.
STALL_ITERS = 20


def _armijo_search(fg, x, p, f0, dphi0, max_iter=60):
    """Backtracking step along p: the first of alpha = 1, 1/2, 1/4, ... with
    ``f <= f0 + ARMIJO_C1 alpha dphi0``; returns (alpha, f, g).

    Where the trial energy equals f0 to rounding (``FLAT_RTOL``), the decrease
    test only compares rounding noise: the step is judged by its slope alone
    with the approximate Wolfe condition of Hager & Zhang (SIAM J. Optim. 16,
    2005), ``g p <= (2 c1 - 1) dphi0``.
    """
    alpha = 1.0
    for _ in range(max_iter):
        f, g = fg(x + alpha * p)
        if abs(f - f0) <= FLAT_RTOL * abs(f0):
            if g @ p <= (2.0 * ARMIJO_C1 - 1.0) * dphi0:
                return alpha, f, g
        elif f <= f0 + ARMIJO_C1 * alpha * dphi0:
            return alpha, f, g
        alpha *= 0.5
    raise _LineSearchFailure


# Floor of the Kacanov relaxation eps, relative to max|A x - b|.
EPS_FLOOR = 1e-14
# Relative energy change of a step at the eps floor below which Kacanov steps
# switch to Newton weights.
NEWTON_RTOL = 1e-10


@functools.lru_cache(maxsize=32)
def _block_index(m, n):
    """Where the block tridiagonal form of an n x n band matrix with
    half-bandwidth m, and its right-hand side, sit in ``[ab.ravel(), rhs, 0, 1]``.

    The matrix is taken as N = 2^k - 1 block rows of b = max(m, 1) rows, padded
    with identity rows.  The index array has shape (b, 2b + 1, N): for block row
    i, its columns are ``[B | A | r]``, with B[i] the diagonal block, A[i] the
    block coupling it to block i - 1 and r[i] the right-hand side.  The block
    index is the last axis, so that numpy loops over it in one call.  Band
    entries that reach below row n are ignored.
    """
    b = max(m, 1)
    N = 2 ** (-(-n // b)).bit_length() - 1
    zero = (m + 2) * n
    i = np.arange(N)
    row = i * b + np.arange(b)[:, None, None]
    # B[i] has the columns i b + c, A[i] the columns (i - 1) b + c
    col = (i - 1) * b + np.roll(np.arange(2 * b), b)[:, None]
    lo, hi = np.minimum(row, col), np.maximum(row, col)
    H = np.where((lo >= 0) & (hi < n) & (hi - lo <= m), (hi - lo) * n + lo, zero)
    H = np.where((row == col) & (row >= n), zero + 1, H)
    r = np.where(row < n, (m + 1) * n + row, zero)
    index = np.concatenate((H, r), axis=1)
    index.flags.writeable = False  # shared by every solve of this shape
    return index


def _band_solve(ab, rhs):
    """Solve H x = rhs for the SPD band matrix H given by its lower band ``ab``
    (H[i + k, i] in row k, column i), by block cyclic reduction (Buzbee, Golub
    & Nielson, SIAM J. Numer. Anal. 7, 1970) on the blocks of ``_block_index``.

    Each level eliminates its even blocks.  One pass of elimination without
    row exchanges turns the stack ``[B | C | A | r]`` of every even block, with
    C[i] = A[i + 1]^T, into ``B^{-1} [C | A | r]``.  The odd blocks, each
    between two even ones, subtract their Schur complements in two batched
    products and form the next level.  Back-substitution runs through the
    levels in reverse.  A level costs the same few numpy calls whatever its
    size, and there are log2 N of them.

    The pivots of each elimination are the D of B = L D L^T.  Each is checked
    positive and finite before it is divided by, so a matrix that is not SPD
    raises ``np.linalg.LinAlgError``, as does a non-finite solution: a failed
    factorization never yields a step.
    """
    n = rhs.size
    T = np.concatenate((ab.ravel(), rhs, (0.0, 1.0))).take(_block_index(ab.shape[0] - 1, n))
    b = T.shape[0]
    levels = []
    while True:
        even, odd = T[..., 0::2], T[..., 1::2]
        no = odd.shape[2]
        M = np.empty((b, 3 * b + 1, no + 1))
        M[:, :b] = even[:, :b]
        M[:, b:2 * b, :no] = odd[:, b:2 * b].transpose(1, 0, 2)
        M[:, b:2 * b, no] = 0.0
        M[:, 2 * b:] = even[:, b:]
        for j in range(b):
            piv = M[j, j]
            if not 0.0 < piv.min() <= piv.max() < np.inf:
                raise np.linalg.LinAlgError("non-positive or non-finite pivot")
            M[j, j + 1:] /= piv
            if j + 1 < b:
                M[j + 1:, j + 1:] -= M[j + 1:, j, None] * M[j, j + 1:]
        for j in range(b - 1, 0, -1):
            M[:j, b:] -= M[:j, j, None] * M[j, b:]
        E = M[:, b:]
        levels.append(E)
        if no == 0:
            break
        # with E = [E_C | E_A | E_r], odd block j between even blocks j and j + 1
        # takes B - A E_C[j] - C E_A[j + 1], couples back by -A E_A[j] and has the
        # right-hand side r - A E_r[j] - C E_r[j + 1], where C = A[j + 1]^T
        left = np.einsum("ilj,lkj->ikj", odd[:, b:2 * b], E[..., :-1])
        right = np.einsum("lij,lkj->ikj", even[:, b:2 * b, 1:], E[:, b:, 1:])
        T = odd - left
        np.negative(left[:, b:2 * b], out=T[:, b:2 * b])
        T[:, :b] -= right[:, :b]
        T[:, 2 * b] -= right[:, b]
    # x holds the odd blocks of a level between zero blocks; the top level has none
    x = np.zeros((b, 2))
    for E in reversed(levels):
        xe = E[:, 2 * b] - np.einsum("ilj,lj->ij", E[:, :2 * b],
                                     np.concatenate((x[:, 1:], x[:, :-1])))
        x, xo = np.zeros((b, 2 * E.shape[2] + 1)), x
        x[:, 1::2] = xe
        x[:, 2:-1:2] = xo[:, 1:-1]
    x = x[:, 1:-1].T.ravel()[:n]
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("non-finite solution")
    return x


class _Kacanov:
    """Relaxed Kacanov steps: form the residual t = A x - b once per step and
    solve hess(t, eps) p = -g, with eps = max|t| at the first step and
    max(eps / 10, EPS_FLOOR max|t|) after each step.  Once eps is at its floor
    and a step changed the energy by at most NEWTON_RTOL relative, the weights
    take the factor s - 1 of the Hessian for the rest of the run."""

    def __init__(self, hess, residual):
        self.hess = hess
        self.residual = residual
        self.eps = None
        self.f = None
        self.newton = False

    def direction(self, x, f, g):
        t = self.residual(x)
        tmax = float(np.max(np.abs(t)))
        if self.eps is None:
            self.eps = tmax
        else:
            floor = EPS_FLOOR * tmax
            self.eps = max(self.eps / 10.0, floor)
            self.newton |= self.eps == floor and abs(self.f - f) <= NEWTON_RTOL * abs(f)
        self.f = f
        return _band_solve(self.hess(t, self.eps, self.newton), -g)


def _minimize(fg, x0, cfg, step):
    """Line-search descent along ``step(x, f, g)``, or along -g where that is
    not a descent direction; after a failed search, one retry along -g.

    Returns ``(x, f, stats)``, with ``stats`` the iteration fields of
    ``SolveReport``.  ``n_evals`` counts every call of ``fg``, those of failed
    searches included.  Ends converged at ``max|g| <= grad_tol (1 + max|g0|)``
    (``stats["grad_tol"]``), or unconverged with ``stop_reason`` "max_iters",
    "line_search_failed" (the retry failed too), "bad_pivot" (the step matrix
    is not SPD) or "stalled" (in ``STALL_ITERS`` steps the energy fell by no
    more than rounding, ``FLAT_RTOL``, and max|g| did not halve).
    """
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return fg(x)

    x = np.asarray(x0, dtype=float).copy()
    f, g = counted(x)
    gmax = float(np.max(np.abs(g))) if x.size else 0.0
    tol = cfg.grad_tol * (1.0 + gmax)
    f_hist = [f]
    g_hist = [gmax]
    failures = 0
    converged = gmax <= tol
    stop = None
    f_ref, g_ref, flat_steps = f, gmax, 0
    it = 0
    while not converged and it < cfg.max_iters:
        try:
            p = step(x, f, g)
        except np.linalg.LinAlgError:
            stop = "bad_pivot"
            break
        dphi0 = float(g @ p)
        if not np.isfinite(dphi0) or dphi0 >= 0.0:
            p = -g
        try:
            alpha, f_new, g_new = _armijo_search(counted, x, p, f, float(g @ p))
        except _LineSearchFailure:
            failures += 1
            p = -g
            try:
                alpha, f_new, g_new = _armijo_search(counted, x, p, f, float(g @ p))
            except _LineSearchFailure:
                failures += 1
                stop = "line_search_failed"
                break
        x = x + alpha * p
        f, g = f_new, g_new
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
                      line_search_failures=failures, n_evals=evals, stop_reason=stop,
                      grad_tol=tol)


def _line_through_data(spec):
    mesh = spec.mesh
    uL = spec.u_D.get("left")
    uR = spec.u_D.get("right")
    if uL is not None and uR is not None:
        slope = (uR - uL) / (mesh.x_right - mesh.x_left)
        return lambda x: uL + slope * (x - mesh.x_left)
    if uL is not None:
        return lambda x: uL + 0.0 * x
    if uR is not None:
        return lambda x: uR + 0.0 * x
    return lambda x: 0.0 * x


def _initial_dofs(spec, k, cfg, asm, continuous):
    """Starting DOF vector: broken DOFs for DG, every shared nodal value for CG."""
    if cfg.initial_guess is not None:
        return np.asarray(cfg.initial_guess, dtype=float).copy()
    line = _line_through_data(spec)
    if continuous:
        return np.asarray(line(asm.unique_x), dtype=float)
    return interpolate(spec.mesh, k, line).dof_vector()


def _check_dg_quadrature(spec, k):
    """DG's volume rows sample G + R(v), a polynomial of degree max(k - 1, l)
    on each element.  A rule with fewer points than it has coefficients leaves
    part of it unseen, and the minimizer of the discrete energy can then lie far
    below the continuous one; evaluating the energy with such a rule is fine."""
    l = spec.lifting.degree if spec.lifting is not None else k
    need = max(k - 1, l) + 1
    points = reference_rule(*spec.quadrature)[0].size
    if points < need:
        raise ValueError(f"quadrature {spec.quadrature!r} has {points} points per element; "
                         f"DG with degree {k} and lifting degree {l} needs at least {need}")


def _solve(spec, k, cfg, method):
    """Shared body of solve_dg and solve_cg; CG pins its Dirichlet values and
    minimizes over the remaining nodal values."""
    cfg = cfg or BfgsConfig()
    continuous = method == "cg"
    if not continuous:
        _check_dg_quadrature(spec, k)
    asm = (continuous_assembly if continuous else discrete_assembly)(spec, k)
    x = _initial_dofs(spec, k, cfg, asm, continuous)
    free = slice(None)
    if continuous:
        # the pinned DOFs are end nodes, so the free ones stay one contiguous band
        pinned = dict(asm.dirichlet_dofs)
        for dof, val in pinned.items():
            x[dof] = val
        free = slice(int(0 in pinned), x.size - int(x.size - 1 in pinned))

    def fg(xfree):
        x[free] = xfree
        val, grad = asm.value_and_grad(x)
        return val, grad[free]

    def hess(t, eps, newton):
        return asm.hess(t, eps, newton)[:, free]

    def residual(xfree):
        x[free] = xfree
        return asm.residual(x)

    t0 = time.perf_counter()
    x[free], f, stats = _minimize(fg, x[free].copy(), cfg,
                                  _Kacanov(hess, residual).direction)
    wall = time.perf_counter() - t0
    if not np.all(np.isfinite(x)) or not np.isfinite(f):
        raise ArithmeticError(f"{method.upper()} solve diverged to a non-finite state")
    dofs = asm.unique_to_broken(x) if continuous else x
    u = BrokenFunction.from_dofs(spec.mesh, k, dofs, continuous=continuous)
    return SolveReport(u, asm.terms(x), **stats, wall_time=wall, method=method)


def solve_dg(spec, k, cfg=None):
    """Minimize the penalized broken energy over degree-k broken polynomials.

    Raises ``ValueError`` if the quadrature has fewer than max(k - 1, l) + 1
    points per element, l the lifting degree."""
    return _solve(spec, k, cfg, "dg")


def solve_cg(spec, k, cfg=None):
    """Minimize the conforming energy over continuous degree-k functions with
    Dirichlet values eliminated from the optimization variables."""
    return _solve(spec, k, cfg, "cg")
