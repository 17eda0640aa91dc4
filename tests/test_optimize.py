import gc
import weakref

import numpy as np
import pytest

from pxdg.band import BlockLayout
from pxdg.broken import interpolate, jumps
from pxdg.exponents import ExponentField
from pxdg.functional import FunctionalSpec, continuous_assembly, discrete_assembly, eval_discrete
from pxdg.meshes import uniform_mesh
from pxdg.optimize import (
    FLAT_RTOL,
    STALL_ITERS,
    BfgsConfig,
    _armijo_search,
    solve_cg,
    solve_dg,
)
from pxdg.problems import benchmark_mesh, dg_spec, paper1d

P2 = ExponentField.constant(2.0)
HAT = ExponentField.hat_family(0.3, 0.5)


def test_config_validation():
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BfgsConfig(grad_tol=tol)
    with pytest.raises(ValueError):
        BfgsConfig(max_iters=0)


def test_float_floor_is_not_a_line_search_failure():
    # The energy's offset 2 hides its variation: every trial energy equals f0 in
    # float64, while the slope still shows descent towards x = 100.
    def fg(x):
        return 2.0 + 0.5e-20 * float((x - 100.0) @ (x - 100.0)), 1e-20 * (x - 100.0)

    x0, p = np.zeros(1), np.ones(1)
    f0, g0 = fg(x0)
    assert fg(x0 + p)[0] == f0 and fg(x0 + p)[1] @ p < 0.0
    alpha, f, g = _armijo_search(fg, x0, p, f0, float(g0 @ p))
    assert f == f0 and g @ p < 0.0

    # rounding may also put every trial energy an ulp above f0; the slope decides
    def noisy(x):
        f, g = fg(x)
        return (f if x @ x == 0.0 else np.nextafter(f, np.inf)), g

    alpha, f, g = _armijo_search(noisy, x0, p, f0, float(g0 @ p))
    assert f > f0 and g @ p < 0.0


def quadratic_problem(B=1.0, n=4):
    mesh = uniform_mesh(-1, 1, n)
    spec = FunctionalSpec(mesh, P2, u_D={"left": -B, "right": B})
    return mesh, spec


def hat_problem():
    mesh = uniform_mesh(-1, 1, 6)
    return FunctionalSpec(mesh, HAT, u_D={"left": -1.0, "right": 1.0})


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
    spec = hat_problem()
    mesh = spec.mesh
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
    hist = np.array(r1.f_history)
    assert np.all(np.diff(hist) <= FLAT_RTOL * np.abs(hist[:-1]))


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
    # success certificate: relative gradient reduction
    assert rep.grad_norm_history[-1] <= 1e-8 * (1.0 + rep.grad_norm_history[0])
    assert rep.stop_reason == "converged"
    assert rep.n_evals >= rep.iterations >= 1
    assert 0 <= rep.newton_steps <= rep.iterations and rep.gap is None


def test_converged_exactly_at_the_absolute_tolerance():
    # grad_tol is the absolute tolerance grad_tol (1 + max|g0|); converged,
    # max_iters, bad_pivot and stalled runs
    quadratic = quadratic_problem(n=8)[1]
    negated = quadratic_problem(n=6)[1]
    band = discrete_assembly(negated, 1).band
    matrix = band.matrix
    band.matrix = lambda c: -matrix(c)
    runs = [(quadratic, BfgsConfig()), (hat_problem(), BfgsConfig(grad_tol=1e-3)),
            (hat_problem(), BfgsConfig(max_iters=1)), (negated, BfgsConfig()),
            (quadratic, BfgsConfig(grad_tol=1e-16, max_iters=500))]
    reasons = set()
    for spec, cfg in runs:
        rep = solve_dg(spec, 1, cfg)
        reasons.add(rep.stop_reason)
        assert rep.grad_tol == cfg.grad_tol * (1.0 + rep.grad_norm_history[0])
        assert rep.converged == (rep.grad_norm_history[-1] <= rep.grad_tol)
    assert reasons == {"converged", "max_iters", "bad_pivot", "stalled"}


def test_zero_initial_guess():
    mesh, spec = quadratic_problem()
    rep = solve_dg(spec, 1, BfgsConfig(initial_guess=np.zeros(2 * mesh.n_elements)))
    assert rep.converged
    assert rep.breakdown.total <= 2.0 + 1e-12


@pytest.mark.parametrize("n", [10, 40])
def test_exponents_above_two_converge(n):
    # where s > 2 the Kacanov model does not majorize the energy, so a full step
    # can overshoot: the fidelity and Neumann terms with q = r = 3, and p = 4
    P3 = ExponentField.constant(3.0)
    fidelity = FunctionalSpec(uniform_mesh(-1, 1, n, "left"), HAT, q=P3, r=P3,
                              xi=np.cos, u_D={"left": -1.0})
    quartic = FunctionalSpec(uniform_mesh(-1, 1, n), ExponentField.constant(4.0),
                             u_D={"left": -1.0, "right": 1.0})
    for rep in (solve_dg(fidelity, 1), solve_cg(fidelity, 1), solve_dg(quartic, 1)):
        assert rep.stop_reason == "converged"


def test_band_solve_rejects_indefinite_and_non_finite():
    # 6 and 7 rows: the dense tail is the whole solve
    ab = np.vstack((np.full(6, 4.0), np.ones(6)))
    for bad in (-1.0, 0.0, np.nan, np.inf):
        broken = ab.copy()
        broken[0, 3] = bad
        with pytest.raises(np.linalg.LinAlgError):
            BlockLayout(1, 6, 1, 0).solve(broken, np.ones(6))
    broken = ab.copy()
    broken[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        BlockLayout(1, 6, 1, 0).solve(broken, np.ones(6))
    # tridiagonal (0.9, 1, 0.9) on 7 rows: every diagonal entry, and so every
    # pivot of the first level, is 1, but the matrix is indefinite; its first
    # negative pivot is 1 - 2 * 0.81 in the second level
    indefinite = np.vstack((np.ones(7), np.full(7, 0.9)))
    assert np.linalg.eigvalsh(np.eye(7) + 0.9 * (np.eye(7, k=1) + np.eye(7, k=-1)))[0] < 0.0
    with pytest.raises(np.linalg.LinAlgError):
        BlockLayout(1, 7, 1, 0).solve(indefinite, np.ones(7))


def test_band_solve_rejects_a_bad_diagonal_in_a_level_and_in_the_tail():
    # half-bandwidth 3 on 127 blocks of 3 rows: three levels of cyclic reduction
    # eliminate blocks 0, 2, 4, ..., then 1, 5, 9, ..., then 3, 11, 19, ...; the
    # 15 blocks left, the middle block 63 among them, are solved densely
    rng = np.random.default_rng(5)
    n = 3 * 127
    ab = 0.3 * rng.normal(size=(4, n))
    ab[0] = np.abs(ab[0]) + 8.0  # diagonally dominant: SPD
    # DG on 400 elements, on its face-centred blocks of 2 rows led by one
    # padding row: 511 blocks, of which 5 levels leave 15, the middle block 255
    # (rows 509 and 510) among them; block 4 (rows 7 and 8) goes in the first
    dg = discrete_assembly(dg_spec(paper1d(), benchmark_mesh(400)), 1)
    t = dg.residual(rng.normal(scale=1e5, size=dg.ndof))
    kacanov = dg.band.matrix(dg.weights(t, 1e-3 * np.max(np.abs(t))))
    for ab, layout, level, tail in ((ab, BlockLayout(3, n, 3, 0), 3 * 4 + 1, 3 * 63 + 1),
                                    (kacanov, dg.band.layout, 7, 509)):
        rhs = np.ones(ab.shape[1])
        assert np.all(np.isfinite(layout.solve(ab, rhs)))
        for row, where in ((level, "pivot"), (tail, "non-finite matrix|not positive definite")):
            for bad in (-1.0, 0.0, np.nan, np.inf):
                broken = ab.copy()
                broken[0, row] = bad
                with pytest.raises(np.linalg.LinAlgError, match=where):
                    layout.solve(broken, rhs)


def test_bad_pivot_ends_the_solve_without_a_step():
    mesh, spec = quadratic_problem(n=6)
    band = discrete_assembly(spec, 1).band
    matrix = band.matrix
    band.matrix = lambda c: -matrix(c)  # negative definite
    rep = solve_dg(spec, 1)
    assert not rep.converged and rep.stop_reason == "bad_pivot"
    assert rep.iterations == 0 and np.all(np.isfinite(rep.solution.coeffs))


def test_a_block_layout_is_freed_with_its_assembly():
    # the layout belongs to the assembly's band, which the spec caches; no
    # cache of the module keeps it
    spec = dg_spec(paper1d(), benchmark_mesh(40))
    assert solve_dg(spec, 1).converged
    index = weakref.ref(discrete_assembly(spec, 1).band.layout.index)
    del spec
    gc.collect()
    assert index() is None


def test_max_iters_ends_the_solve():
    assert solve_dg(hat_problem(), 1).iterations > 1
    rep = solve_dg(hat_problem(), 1, BfgsConfig(max_iters=1))
    assert rep.stop_reason == "max_iters" and not rep.converged
    assert rep.iterations == 1 and len(rep.f_history) == 2


def test_line_search_failure_counts_every_evaluation():
    spec = hat_problem()
    asm = discrete_assembly(spec, 1)
    value_and_grad = asm.value_and_grad
    calls = []  # the evaluated points; the first is the initial guess

    def infinite_off_x0(x):
        calls.append(x.copy())
        f, g = value_and_grad(x)
        return (f if np.array_equal(x, calls[0]) else np.inf), g

    asm.value_and_grad = infinite_off_x0
    rep = solve_dg(spec, 1)
    assert rep.stop_reason == "line_search_failed" and not rep.converged
    # the first step's 60 trial points were all infinite: the run ends there
    assert rep.line_search_failures == 1 and rep.iterations == 0
    assert rep.n_evals == len(calls) == 61
    assert np.array_equal(rep.solution.dof_vector(), calls[0])


def test_unreachable_tolerance_ends_as_stalled():
    # at p = 2 the first Newton step reaches the minimizer; after it the energy is
    # flat and max|g| stays at the rounding of the gradient, above this tolerance
    _, spec = quadratic_problem(n=8)
    rep = solve_dg(spec, 1, BfgsConfig(grad_tol=1e-16, max_iters=500))
    assert rep.stop_reason == "stalled" and not rep.converged
    assert STALL_ITERS <= rep.iterations < 500
    tail = np.array(rep.f_history[-STALL_ITERS - 1:])
    assert np.max(np.abs(tail - tail[0])) <= FLAT_RTOL * tail[0]
    assert rep.grad_norm_history[-1] > 1e-16 * (1.0 + rep.grad_norm_history[0])
    # nor can the duality gap certify an energy to 1e-16 relative, below its rounding
    assert rep.gap > 1e-16 * rep.f_history[-1]


def test_paper_dg_above_2000_dofs_converges():
    # 1280 elements, 2560 DOFs; the energy is the one pinned by the benchmark.
    # With eps floored at the rounding level u max|t|, Newton steps start at the
    # first step at the floor, and every step at the floor checks the duality
    # gap: 14 steps and 16 evaluations
    rep = solve_dg(dg_spec(paper1d(), benchmark_mesh(1280, "both")), 1, BfgsConfig(grad_tol=1e-8))
    assert rep.converged and rep.line_search_failures == 0
    assert rep.iterations <= 14 and rep.n_evals <= 16
    assert 1 <= rep.newton_steps < rep.iterations
    assert rep.breakdown.total == pytest.approx(3403147.763275654, rel=1e-8)


def test_stalled_paper_dg_ends_in_bounded_time():
    # at 2560 elements the gradient tolerance is out of reach; the duality gap
    # of the steps at the eps floor certifies the run after 20 evaluations,
    # well inside its 20000-step budget
    rep = solve_dg(dg_spec(paper1d(), benchmark_mesh(2560)), 1, BfgsConfig(max_iters=20000))
    assert rep.n_evals <= 20 and rep.wall_time < 5.0
    assert rep.stop_reason == "converged"


def test_paper_dg_at_5120_elements_converges():
    # the north star's probe: Newton steps from the first step at the eps floor,
    # certified by the duality gap, in 22 steps
    rep = solve_dg(dg_spec(paper1d(), benchmark_mesh(5120)), 1, BfgsConfig(max_iters=20000))
    assert rep.stop_reason == "converged" and rep.iterations <= 22
    assert rep.gap <= 1e-8 * rep.breakdown.total


def hat_fidelity_problem(n):
    # p down to 1.01 at the origin, q = r = 3 fidelity, Dirichlet left, Neumann right
    P3 = ExponentField.constant(3.0)
    return FunctionalSpec(uniform_mesh(-1, 1, n, "left"), ExponentField.hat_family(0.01, 0.01),
                          q=P3, r=P3, xi=np.cos, u_D={"left": -1.0})


@pytest.mark.parametrize("n", [10, 40])
def test_backtracked_newton_step_falls_back_to_kacanov(n):
    # p = 1.01 at the origin: Newton steps overshoot there and the line search
    # shortens them; each shortened one is followed by a step with the relaxed
    # Kacanov weights, whose model majorizes the energy, then Newton again
    rep = solve_dg(hat_fidelity_problem(n), 1)
    assert rep.converged
    assert rep.iterations <= 24 and rep.n_evals <= 43
    assert 1 <= rep.newton_steps < rep.iterations


@pytest.mark.parametrize("method", ["dg", "cg"])
def test_duality_gap_bounds_the_energy_above_its_minimum(method):
    # weak duality: at any x with the pinned values, the slopes y moved along
    # the Kacanov step give a dual energy E(x) - gap below the minimum energy;
    # at the minimizer the gap closes
    solve, assembly = {"dg": (solve_dg, discrete_assembly),
                       "cg": (solve_cg, continuous_assembly)}[method]
    for spec in (hat_problem(), hat_fidelity_problem(10)):
        rep = solve(spec, 1, BfgsConfig(max_iters=500))
        best = rep.breakdown.total
        asm = assembly(spec, 1)
        n, free = asm.A.shape[1], asm.free
        A = np.column_stack([asm.A @ e for e in np.eye(n)])

        def gap(x, eps, newton):
            # the step and dual point of the solver's steps at the eps floor
            t = asm.residual(x)
            c = asm.weights(t, eps, newton)
            dx = np.zeros(n)
            dx[free] = asm.band.solve(c, -asm.value_and_grad(x)[1][free])
            y = asm.dual_point(t, c, dx)
            assert np.max(np.abs((A.T @ y)[free])) <= 1e-10 * np.max(np.abs(y))
            return asm.duality_gap(t, y)

        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=n)
            for dof, val in asm.pinned.items():
                x[dof] = val
            for eps, newton in ((np.max(np.abs(asm.residual(x))), False), (1e-3, True)):
                g, rounding = gap(x, eps, newton)
                assert g >= -rounding
                assert asm.value_and_grad(x)[0] - g <= best + 1e-12 * best
        x = rep.solution.dof_vector()
        if method == "cg":  # the broken DOFs repeat the shared nodal values
            x = np.zeros(n)
            x[asm.unique_dof] = rep.solution.dof_vector()
        g, rounding = gap(x, 1e-12 * np.max(np.abs(asm.residual(x))), True)
        assert -rounding <= g <= 1e-8 * best


def test_gradient_stall_certified_by_the_duality_gap():
    # p = 1.01 at the origin: a term's slope s |t|^(s-1) stays O(1) however small
    # its residual, so max|g| stays far above the tolerance; the
    # energy is flat, and the duality gap certifies it to the same tolerance
    rep = solve_dg(hat_fidelity_problem(10), 1)
    assert rep.stop_reason == "converged" and rep.converged
    assert rep.grad_norm_history[-1] > 1e3 * rep.grad_tol
    assert 0.0 <= rep.gap <= 1e-8 * rep.breakdown.total


@pytest.mark.parametrize("solve, n_dofs", [(solve_dg, 20), (solve_cg, 11)])
def test_wrong_length_initial_guess_is_rejected(solve, n_dofs):
    # 10 elements of degree 1: 20 broken DOFs for DG, 11 nodal values for CG
    _, spec = quadratic_problem(n=10)
    for size in (n_dofs - 5, n_dofs + 9):
        with pytest.raises(ValueError, match=f"has {size} entries.* {n_dofs} DOFs"):
            solve(spec, 1, BfgsConfig(initial_guess=np.zeros(size)))


@pytest.mark.parametrize("dirichlet", ["both", "left", "right"])
def test_cg_keeps_its_dirichlet_ends_and_moves_its_neumann_ends(dirichlet):
    P3 = ExponentField.constant(3.0)
    u_D = {"left": -0.7, "right": 1.3}
    spec = FunctionalSpec(uniform_mesh(-1, 1, 8, dirichlet), HAT, q=P3, r=P3, xi=np.cos,
                          u_D=u_D)
    rep = solve_cg(spec, 1)
    assert rep.converged
    c = rep.solution.coeffs
    for name, end in (("left", c[0, 0]), ("right", c[-1, -1])):
        if dirichlet in (name, "both"):
            assert end == u_D[name]
        else:
            # the Neumann end leaves the line through the data, which starts there
            assert abs(end - u_D[name]) > 0.1
