"""Quasi-Newton minimization: BFGS with a strong Wolfe line search, plus the
limited-memory variant for large DOF counts, and the DG/CG solve drivers.

Everything is deterministic: identical inputs produce identical iterates.
"""

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .broken import BrokenFunction, interpolate
from .functional import continuous_assembly, discrete_assembly

__all__ = ["BfgsConfig", "MinimizeResult", "SolveReport", "bfgs_minimize",
           "solve_dg", "solve_cg"]


@dataclass(frozen=True)
class BfgsConfig:
    grad_tol: float = 1e-8
    max_iters: int = 10000
    c1: float = 1e-4
    c2: float = 0.9
    initial_guess: object = "linear_interp"  # "zero" | "linear_interp" | array
    lbfgs_threshold: int = 2000
    lbfgs_memory: int = 20

    def __post_init__(self):
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.grad_tol <= 0.0 or self.max_iters <= 0:
            raise ValueError("tolerances and iteration budget must be positive")


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    grad_norm_history: list
    f_history: list
    line_search_failures: int
    n_evals: int


@dataclass
class SolveReport:
    solution: object
    breakdown: object
    iterations: int
    converged: bool
    grad_norm_history: list
    f_history: list
    line_search_failures: int
    wall_time: float
    method: str

    def trace_csv(self):
        lines = ["iteration,f,grad_max"]
        for i, (fv, gn) in enumerate(zip(self.f_history, self.grad_norm_history)):
            lines.append(f"{i},{fv:.17g},{gn:.17g}")
        return "\n".join(lines) + "\n"


class _LineSearchFailure(Exception):
    pass


# Relative energy change below which a trial energy equals f0 to rounding.
FLAT_RTOL = 1e-12


def _wolfe_search(fg, x, p, f0, dphi0, c1, c2, max_iter=60):
    """Strong Wolfe step along p; returns (alpha, f, g, n_evals).

    Where the trial energy equals f0 to rounding (``FLAT_RTOL``), the decrease
    tests only compare rounding noise: they are skipped, and the step is judged
    by its slope alone with the approximate Wolfe condition of Hager & Zhang
    (SIAM J. Optim. 16, 2005), ``d <= (2 c1 - 1) dphi0``.
    """

    def phi(alpha):
        f, g = fg(x + alpha * p)
        return f, g, float(g @ p)

    def flat(f):
        return abs(f - f0) <= FLAT_RTOL * abs(f0)

    def acceptable(d, level):
        return abs(d) <= -c2 * dphi0 and (not level or d <= (2.0 * c1 - 1.0) * dphi0)

    evals = 0

    def zoom(lo, f_lo, dlo, hi, f_hi):
        nonlocal evals
        for _ in range(max_iter):
            alpha = 0.5 * (lo + hi)
            f, g, d = phi(alpha)
            evals += 1
            level = flat(f)
            if not level and (not np.isfinite(f) or f > f0 + c1 * alpha * dphi0
                              or f >= f_lo):
                hi, f_hi = alpha, f
            else:
                if acceptable(d, level):
                    return alpha, f, g
                if d * (hi - lo) >= 0.0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, dlo = alpha, f, d
            if abs(hi - lo) <= 1e-16 * max(1.0, abs(lo)):
                if np.isfinite(f_lo) and f_lo < f0:
                    f, g, d = phi(lo)
                    evals += 1
                    return lo, f, g
                break
        raise _LineSearchFailure

    alpha_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = 1.0
    for it in range(max_iter):
        f, g, d = phi(alpha)
        evals += 1
        level = flat(f)
        if not level and (not np.isfinite(f) or f > f0 + c1 * alpha * dphi0
                          or (f >= f_prev and it > 0)):
            out = zoom(alpha_prev, f_prev, d_prev, alpha, f)
            return (*out, evals)
        if acceptable(d, level):
            return alpha, f, g, evals
        if d >= 0.0:
            out = zoom(alpha, f, d, alpha_prev, f_prev)
            return (*out, evals)
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha *= 2.0
    raise _LineSearchFailure


class _DenseBfgs:
    """Inverse-Hessian BFGS model; each update is one rank-2 update of H in place."""

    def __init__(self, n):
        self.H = np.eye(n)
        self.work = np.empty((n, n))
        self.first = True

    def direction(self, g):
        return -(self.H @ g)

    def update(self, s, y):
        sy = float(s @ y)
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return False  # curvature condition fails; skip
        if self.first:
            self.H *= sy / float(y @ y)
            self.first = False
        rho = 1.0 / sy
        Hy = self.H @ y
        yHy = float(y @ Hy)
        # H+ = H - rho (s Hy^T + Hy s^T) + rho (1 + rho yHy) s s^T = H + u s^T + s u^T
        u = (0.5 * rho * (1.0 + rho * yHy)) * s - rho * Hy
        np.matmul(np.column_stack((u, s)), np.vstack((s, u)), out=self.work)
        self.H += self.work
        return True

    def reset(self):
        self.H.fill(0.0)
        np.fill_diagonal(self.H, 1.0)
        self.first = True


class _LimitedMemoryBfgs:
    def __init__(self, n, memory):
        self.pairs = deque(maxlen=memory)
        self.gamma = 1.0

    def direction(self, g):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        q *= self.gamma
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q

    def update(self, s, y):
        sy = float(s @ y)
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return False
        self.pairs.append((s, y, 1.0 / sy))
        self.gamma = sy / float(y @ y)
        return True

    def reset(self):
        self.pairs.clear()
        self.gamma = 1.0


def _minimize(fg, x0, cfg):
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f, g = fg(x)
    evals = 1
    g0max = float(np.max(np.abs(g))) if n else 0.0
    tol = cfg.grad_tol * (1.0 + g0max)
    model = (_DenseBfgs(n) if n <= cfg.lbfgs_threshold
             else _LimitedMemoryBfgs(n, cfg.lbfgs_memory))
    f_hist = [f]
    g_hist = [g0max]
    failures = 0
    converged = float(np.max(np.abs(g))) <= tol
    it = 0
    while not converged and it < cfg.max_iters:
        p = model.direction(g)
        dphi0 = float(g @ p)
        if not np.isfinite(dphi0) or dphi0 >= 0.0:
            model.reset()
            p = -g
            dphi0 = float(g @ p)
        try:
            alpha, fnew, gnew, ev = _wolfe_search(fg, x, p, f, dphi0, cfg.c1, cfg.c2)
        except _LineSearchFailure:
            failures += 1
            if isinstance(model, _DenseBfgs) and not model.first or \
               isinstance(model, _LimitedMemoryBfgs) and model.pairs:
                model.reset()  # retry once from steepest descent
                p = -g
                try:
                    alpha, fnew, gnew, ev = _wolfe_search(fg, x, p, f, float(g @ p),
                                                          cfg.c1, cfg.c2)
                except _LineSearchFailure:
                    failures += 1
                    break
            else:
                break
        evals += ev
        s = alpha * p
        y = gnew - g
        x = x + s
        f, g = fnew, gnew
        model.update(s, y)
        it += 1
        gmax = float(np.max(np.abs(g)))
        f_hist.append(f)
        g_hist.append(gmax)
        converged = gmax <= tol
    return MinimizeResult(x, f, it, converged, g_hist, f_hist, failures, evals)


def bfgs_minimize(f, g, x0, cfg=None):
    """Minimize f with analytic gradient g from x0; see BfgsConfig for knobs."""
    cfg = cfg or BfgsConfig()

    def fg(x):
        return f(x), np.asarray(g(x), dtype=float)

    return _minimize(fg, x0, cfg)


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
    guess = cfg.initial_guess
    if not isinstance(guess, str):
        return np.asarray(guess, dtype=float).copy()
    if guess == "zero":
        fn = np.zeros_like
    elif guess == "linear_interp":
        fn = _line_through_data(spec)
    else:
        raise ValueError(f"unknown initial guess {guess!r}")
    if continuous:
        return np.asarray(fn(asm.unique_x), dtype=float)
    return interpolate(spec.mesh, k, fn).dof_vector()


def _solve(spec, k, cfg, method):
    """Shared body of solve_dg and solve_cg; CG pins its Dirichlet values and
    minimizes over the remaining nodal values."""
    cfg = cfg or BfgsConfig()
    continuous = method == "cg"
    asm = (continuous_assembly if continuous else discrete_assembly)(spec, k)
    x = _initial_dofs(spec, k, cfg, asm, continuous)
    free = slice(None)
    fg = asm.value_and_grad
    if continuous:
        pinned = dict(asm.dirichlet_dofs)
        for dof, val in pinned.items():
            x[dof] = val
        free = np.array([i for i in range(asm.n_unique) if i not in pinned], dtype=int)

        def fg(xfree):
            x[free] = xfree
            val, grad = asm.value_and_grad(x)
            return val, grad[free]

    t0 = time.perf_counter()
    res = _minimize(fg, x[free].copy(), cfg)
    wall = time.perf_counter() - t0
    x[free] = res.x
    if not np.all(np.isfinite(x)) or not np.isfinite(res.fun):
        raise ArithmeticError(f"{method.upper()} solve diverged to a non-finite state")
    dofs = asm.unique_to_broken(x) if continuous else x
    u = BrokenFunction.from_dofs(spec.mesh, k, dofs, continuous=continuous)
    return SolveReport(u, asm.terms(x), res.iterations, res.converged,
                       res.grad_norm_history, res.f_history,
                       res.line_search_failures, wall, method)


def solve_dg(spec, k, cfg=None):
    """Minimize the penalized broken energy over degree-k broken polynomials."""
    return _solve(spec, k, cfg, "dg")


def solve_cg(spec, k, cfg=None):
    """Minimize the conforming energy over continuous degree-k functions with
    Dirichlet values eliminated from the optimization variables."""
    return _solve(spec, k, cfg, "cg")
