import numpy as np
import pytest

from pxdg.broken import interpolate, jumps
from pxdg.exponents import ExponentField
from pxdg.functional import FunctionalSpec, discrete_assembly, eval_discrete
from pxdg.meshes import uniform_mesh
from pxdg.optimize import (
    FLAT_RTOL,
    BfgsConfig,
    _band_solve,
    _DenseBfgs,
    bfgs_minimize,
    solve_cg,
    solve_dg,
)
from pxdg.problems import benchmark_mesh, dg_spec, paper1d

P2 = ExponentField.constant(2.0)


def test_quadratic_termination():
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.ones(5)
    res = bfgs_minimize(lambda x: 0.5 * x @ A @ x - b @ x, lambda x: A @ x - b,
                        np.zeros(5))
    assert res.converged and res.iterations <= 12
    assert np.max(np.abs(res.x - np.linalg.solve(A, b))) < 1e-6


def test_rosenbrock():
    def f(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def g(x):
        return np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                         200 * (x[1] - x[0] ** 2)])

    res = bfgs_minimize(f, g, np.array([-1.2, 1.0]))
    assert res.converged
    assert np.max(np.abs(res.x - 1.0)) < 1e-6


def test_history_is_monotone():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8))
    A = A @ A.T + np.eye(8)
    b = rng.normal(size=8)
    res = bfgs_minimize(lambda x: 0.5 * x @ A @ x - b @ x + np.log1p(x @ x),
                        lambda x: A @ x - b + 2 * x / (1 + x @ x),
                        rng.normal(size=8))
    hist = np.array(res.f_history)
    assert np.all(np.diff(hist) <= 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        BfgsConfig(c1=0.5, c2=0.1)
    with pytest.raises(ValueError):
        BfgsConfig(grad_tol=0.0)


def test_dense_update_is_textbook_bfgs_in_place():
    rng = np.random.default_rng(3)
    n = 9
    model = _DenseBfgs(n)
    H, work = model.H, model.work
    M = rng.normal(size=(n, n))
    H[...] = M @ M.T + np.eye(n)
    model.first = False
    for _ in range(6):
        s = rng.normal(size=n)
        y = s + 0.3 * rng.normal(size=n)
        assert s @ y > 0.0
        rho = 1.0 / (s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        want = V.T @ H @ V + rho * np.outer(s, s)
        assert model.update(s, y)
        assert model.H is H and model.work is work
        assert np.max(np.abs(H - want)) <= 1e-13 * np.max(np.abs(want))
    model.reset()
    assert model.H is H and model.work is work and model.first
    assert np.array_equal(H, np.eye(n))
    assert not np.shares_memory(H, work)


def test_float_floor_is_not_a_line_search_failure():
    # The stiff component's energy is visible; the soft ones are below the float64
    # resolution of the offset 2, so reaching grad_tol in them never moves f.
    A = np.diag([1.0, 1e-4, 1e-3])
    x0 = np.array([1e-6, 1e-7, 1e-7])
    assert 0.5 * (A[1:, 1:] @ x0[1:]) @ x0[1:] < np.spacing(2.0)
    res = bfgs_minimize(lambda x: 2.0 + 0.5 * x @ A @ x, lambda x: A @ x, x0,
                        BfgsConfig(grad_tol=1e-12))
    assert res.converged and res.line_search_failures == 0
    assert np.max(np.abs(A @ res.x)) <= 1e-12 * (1.0 + np.max(np.abs(A @ x0)))
    hist = np.array(res.f_history)
    assert np.all(np.diff(hist) <= FLAT_RTOL * np.abs(hist[:-1]))


def quadratic_problem(B=1.0, n=4):
    mesh = uniform_mesh(-1, 1, n)
    spec = FunctionalSpec(mesh, P2, u_D={"left": -B, "right": B})
    return mesh, spec


def test_p2_dg_sanity():
    B = 1.0
    mesh, spec = quadratic_problem(B)
    rep = solve_dg(spec, 1)
    assert rep.converged
    assert rep.breakdown.total <= 2 * B * B + 1e-12
    assert np.max(np.abs(jumps(rep.solution))) <= 1e-6 * B
    # symmetry: odd solution
    c = rep.solution.coeffs
    assert np.max(np.abs(c + c[::-1, ::-1])) <= 1e-6 * B


def test_p2_cg_is_galerkin_exact():
    B = 2.5
    mesh, spec = quadratic_problem(B, n=6)
    rep = solve_cg(spec, 1)
    want = interpolate(mesh, 1, lambda x: B * x, continuous=True)
    assert np.max(np.abs(rep.solution.coeffs - want.coeffs)) <= 1e-8 * B


def test_restart_from_minimizer_is_immediate():
    mesh, spec = quadratic_problem()
    rep = solve_dg(spec, 1)
    again = solve_dg(spec, 1, BfgsConfig(initial_guess=rep.solution.dof_vector()))
    assert again.iterations <= 2


def test_optimality_gap_against_feasible_candidates():
    mesh = uniform_mesh(-1, 1, 6)
    p = ExponentField.hat_family(0.3, 0.5)
    spec = FunctionalSpec(mesh, p, u_D={"left": -1.0, "right": 1.0})
    rep = solve_dg(spec, 1)
    best = rep.breakdown.total
    for fn in (lambda x: x, lambda x: x**3, lambda x: np.sin(0.5 * np.pi * x)):
        w = interpolate(mesh, 1, fn, continuous=True)
        val = eval_discrete(w, spec).total
        assert best <= val + 1e-8 * (1 + abs(val))


def test_determinism():
    mesh = uniform_mesh(-1, 1, 8)
    p = ExponentField.hat_family(0.2, 0.4)
    spec1 = FunctionalSpec(mesh, p, u_D={"left": -2.0, "right": 2.0})
    spec2 = FunctionalSpec(mesh, p, u_D={"left": -2.0, "right": 2.0})
    r1 = solve_dg(spec1, 1)
    r2 = solve_dg(spec2, 1)
    assert np.array_equal(r1.solution.coeffs, r2.solution.coeffs)
    assert r1.f_history == r2.f_history


def test_scaling_robustness_at_p2():
    B = 1.0
    c = 1e6
    _, spec1 = quadratic_problem(B, n=8)
    _, spec2 = quadratic_problem(c * B, n=8)
    r1 = solve_dg(spec1, 1)
    r2 = solve_dg(spec2, 1)
    assert np.max(np.abs(r2.solution.coeffs - c * r1.solution.coeffs)) <= 1e-6 * c * B


def test_solve_report_fields():
    mesh, spec = quadratic_problem()
    rep = solve_dg(spec, 1)
    assert rep.method == "dg" and rep.wall_time >= 0.0
    assert len(rep.f_history) == len(rep.grad_norm_history)
    lines = rep.trace_csv().strip().split("\n")
    assert lines[0] == "iteration,f,grad_max"
    # success certificate: relative gradient reduction
    assert rep.grad_norm_history[-1] <= 1e-8 * (1.0 + rep.grad_norm_history[0])
    assert rep.stop_reason == "converged"
    assert rep.n_evals >= rep.iterations >= 1


def test_zero_initial_guess():
    mesh, spec = quadratic_problem()
    rep = solve_dg(spec, 1, BfgsConfig(initial_guess="zero"))
    assert rep.converged
    assert rep.breakdown.total <= 2.0 + 1e-12


def test_band_solve_rejects_indefinite_and_non_finite():
    ab = np.vstack((np.full(6, 4.0), np.ones(6)))
    for bad in (-1.0, 0.0, np.nan, np.inf):
        broken = ab.copy()
        broken[0, 3] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _band_solve(broken, np.ones(6))
    broken = ab.copy()
    broken[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _band_solve(broken, np.ones(6))


def test_bad_pivot_ends_the_solve_without_a_step():
    mesh, spec = quadratic_problem(n=6)
    asm = discrete_assembly(spec, 1)
    hess = asm.hess
    asm.hess = lambda *args: -hess(*args)  # negative definite
    rep = solve_dg(spec, 1)
    assert not rep.converged and rep.stop_reason == "bad_pivot"
    assert rep.iterations == 0 and np.all(np.isfinite(rep.solution.coeffs))


def test_paper_dg_above_2000_dofs_converges():
    # 1280 elements, 2560 DOFs; the energy is the one pinned by the benchmark
    rep = solve_dg(dg_spec(paper1d(), benchmark_mesh(1280)), 1)
    assert rep.converged and rep.line_search_failures == 0
    assert rep.breakdown.total == pytest.approx(3403147.763275654, rel=1e-8)


def test_stalled_paper_dg_ends_in_bounded_time():
    # at 2560 elements the gradient tolerance is out of reach; the run must still
    # end within 18.3 s, the time the former quasi-Newton solver took to spend
    # its 20000 iterations here
    rep = solve_dg(dg_spec(paper1d(), benchmark_mesh(2560)), 1, BfgsConfig(max_iters=20000))
    assert rep.wall_time < 18.3
    assert rep.converged == (rep.stop_reason == "converged")
