"""Minimization of the DG/CG energies by relaxed Kacanov steps with an Armijo
backtracking line search.

Every energy here is a sum of terms ``w |(A x - b)|^s / d`` whose rows couple a
few neighbouring DOFs, so the relaxed Kacanov matrix
``A^T diag(c) A``, c = w s max(|t|, eps)^{s-2} / d at the residual t = A x - b,
is banded and symmetric positive definite.  ``solve_dg`` and ``solve_cg`` run
one loop, ``_minimize``, on the free DOFs of their assembly (CG pins its
Dirichlet ends) and take each step p from one banded solve
``A^T diag(c) A p = -g`` with the assembly's ``band.KacanovBand`` (Diening,
Fornasier, Tomasi & Wank, Numer. Math. 145, 2020: for s <= 2 its quadratic
model majorizes the energy).

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
            p = asm.band.solve(c, -g)
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
