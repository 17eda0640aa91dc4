from dataclasses import fields

import numpy as np
import pytest

from pxdg.broken import BrokenFunction, elementwise_gradient, interpolate, jumps
from pxdg.exponents import ExponentField
from pxdg.functional import (
    FunctionalSpec,
    TermBreakdown,
    coercivity_certificate,
    continuous_assembly,
    discrete_assembly,
    eval_continuous,
    eval_discrete,
    grad_continuous,
    grad_discrete,
)
from pxdg.lifting import LiftingConfig, lift
from pxdg.meshes import uniform_mesh
from pxdg.optimize import _band_solve
from pxdg.problems import benchmark_mesh, cg_spec, dg_spec, paper1d
from pxdg.quadrature import gauss_legendre

P2 = ExponentField.constant(2.0)
HAT = ExponentField.hat_family(0.2, 0.3)


def make_spec(mesh, **kw):
    kw.setdefault("u_D", {"left": float(mesh.x_left), "right": float(mesh.x_right)})
    return FunctionalSpec(mesh, kw.pop("p", P2), **kw)


def test_continuous_candidate_has_no_penalties():
    B = 3.0
    mesh = uniform_mesh(-1, 1, 8)
    spec = make_spec(mesh, u_D={"left": -B, "right": B})
    v = interpolate(mesh, 1, lambda x: B * x, continuous=True)
    bd = eval_discrete(v, spec)
    assert bd.total == pytest.approx(2 * B * B, rel=1e-13)
    assert bd.dirichlet_penalty == 0.0 and bd.interior_penalty == 0.0
    assert bd.gradient_term == bd.total


def test_zero_candidate_pays_boundary_penalty():
    B = 2.0
    n = 10
    mesh = uniform_mesh(-1, 1, n)
    spec = make_spec(mesh, u_D={"left": -B, "right": B})
    v = BrokenFunction(mesh, 1, np.zeros((n, 2)))
    bd = eval_discrete(v, spec)
    assert bd.total == pytest.approx(n * B * B, rel=1e-13)
    assert bd.gradient_term == 0.0 and bd.interior_penalty == 0.0


def test_single_jump_with_degree0_lifting_closed_form():
    mesh = uniform_mesh(0, 1, 2)
    spec = FunctionalSpec(mesh, P2, u_D={"left": 0.0, "right": 1.0},
                          lifting=LiftingConfig(0))
    v = BrokenFunction(mesh, 1, np.array([[0.0, 0.0], [1.0, 1.0]]))
    bd = eval_discrete(v, spec)
    # jump -1 at the face: penalty |J|^2 h^{-1} = 2; lifted gradient +-1 per element
    assert bd.interior_penalty == pytest.approx(2.0, rel=1e-14)
    assert bd.gradient_term == pytest.approx(1.0, rel=1e-14)
    assert bd.dirichlet_penalty == 0.0


def test_discrete_continuous_agreement():
    mesh = uniform_mesh(-1, 1, 6)
    spec = make_spec(mesh, u_D={"left": 0.3, "right": -0.2})
    v = interpolate(mesh, 2, lambda x: np.sin(2 * x), continuous=True)
    dg = eval_discrete(v, spec)
    cg = eval_continuous(v, spec)
    assert dg.total == pytest.approx(cg.total + dg.dirichlet_penalty, rel=1e-13)
    assert dg.interior_penalty == 0.0


def test_continuous_examples():
    mesh = uniform_mesh(-1, 1, 4)
    spec = make_spec(mesh)
    v = interpolate(mesh, 1, lambda x: x, continuous=True)
    assert eval_continuous(v, spec).total == pytest.approx(2.0, rel=1e-14)
    spec_norm = make_spec(mesh, normalize_by_exponent=True)
    assert eval_continuous(v, spec_norm).total == pytest.approx(1.0, rel=1e-14)
    xi = lambda x: np.cos(x)
    spec_fid = make_spec(mesh, q=P2, xi=xi, fidelity_on=True, quadrature=("gauss", 6))
    w = interpolate(mesh, 3, xi, continuous=True)
    assert eval_continuous(w, spec_fid).fidelity_term < 1e-9


def test_continuous_rejects_jumps():
    mesh = uniform_mesh(0, 1, 2)
    spec = FunctionalSpec(mesh, P2, u_D={"left": 0.0, "right": 1.0})
    v = BrokenFunction(mesh, 1, np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        eval_continuous(v, spec)


def test_mesh_mismatch_rejected():
    spec = make_spec(uniform_mesh(0, 1, 4))
    v = interpolate(uniform_mesh(0, 1, 5), 1, lambda x: x)
    with pytest.raises(ValueError):
        eval_discrete(v, spec)


def test_spec_validation():
    mesh = uniform_mesh(0, 1, 4)
    with pytest.raises(ValueError):
        FunctionalSpec(mesh, ExponentField.constant(1.0),
                       u_D={"left": 0.0, "right": 0.0})
    with pytest.raises(ValueError):
        FunctionalSpec(mesh, P2, fidelity_on=True, u_D={"left": 0.0, "right": 0.0})
    with pytest.raises(ValueError):
        FunctionalSpec(uniform_mesh(0, 1, 4, "left"), P2, u_D={"left": 0.0})
    with pytest.raises(ValueError):
        FunctionalSpec(mesh, P2, u_D={"left": 0.0})


def test_neumann_term():
    mesh = uniform_mesh(0, 1, 4, "left")
    r = ExponentField.constant(3.0)
    spec = FunctionalSpec(mesh, P2, r=r, u_D={"left": 0.0})
    v = interpolate(mesh, 1, lambda x: x, continuous=True)
    bd = eval_discrete(v, spec)
    assert bd.neumann_term == pytest.approx(1.0, rel=1e-14)


def test_breakdown_totals_and_csv():
    mesh = uniform_mesh(-1, 1, 4)
    spec = make_spec(mesh, p=HAT)
    v = BrokenFunction(mesh, 1, np.random.default_rng(0).normal(size=(4, 2)))
    bd = eval_discrete(v, spec)
    parts = (bd.gradient_term, bd.fidelity_term, bd.dirichlet_penalty,
             bd.interior_penalty, bd.neumann_term)
    assert all(t >= 0.0 for t in parts)
    assert bd.total == sum(parts)
    row = bd.csv_row().split(",")
    assert len(row) == 6 and float(row[-1]) == pytest.approx(bd.total)
    assert TermBreakdown.csv_header().count(",") == 5


def _fd_check(asm, x, rng, n_dirs=8):
    worst = 0.0
    f0, g0 = asm.value_and_grad(x)
    scale = 1.0 + float(np.max(np.abs(x)))
    for _ in range(n_dirs):
        d = rng.normal(size=x.size)
        d /= np.linalg.norm(d)
        best = np.inf
        for h in (1e-5 * scale, 1e-6 * scale, 1e-7 * scale):
            fp = asm.value_and_grad(x + h * d)[0]
            fm = asm.value_and_grad(x - h * d)[0]
            fd = (fp - fm) / (2 * h)
            gd = float(g0 @ d)
            best = min(best, abs(fd - gd) / max(abs(gd), 1e-300))
        worst = max(worst, best)
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    mesh = uniform_mesh(-1, 1, 6)
    left = uniform_mesh(-1, 1, 6, "left")  # Neumann face on the right
    R3 = ExponentField.constant(3.0)
    for spec in (
        make_spec(mesh),
        make_spec(mesh, p=HAT),
        make_spec(mesh, p=HAT, q=P2, xi=lambda x: np.sin(np.pi * x),
                  fidelity_on=True, quadrature=("trapezoid", 2)),
        make_spec(mesh, p=HAT, normalize_by_exponent=True),
        make_spec(left, p=HAT, r=R3, u_D={"left": -1.0}),
        make_spec(left, p=HAT, r=R3, u_D={"left": -1.0}, q=HAT, xi=np.cos,
                  fidelity_on=True, quadrature=("gauss", 3), normalize_by_exponent=True),
    ):
        dg = discrete_assembly(spec, 1)
        cg = continuous_assembly(spec, 1)
        for asm, n in ((dg, dg.ndof), (cg, cg.n_unique)):
            for _ in range(5):
                assert _fd_check(asm, rng.normal(size=n), rng) <= 1e-6


def band_to_dense(ab):
    """The symmetric matrix whose lower band ``ab`` holds H[i + k, i] at [k, i]."""
    n = ab.shape[1]
    H = np.zeros((n, n))
    i = np.arange(n)
    for k in range(min(ab.shape[0], n)):
        H[i[k:], i[:n - k]] = H[i[:n - k], i[k:]] = ab[k, :n - k]
    return H


def test_hess_is_the_jacobian_of_the_gradient():
    # every exponent 2: the gradient is affine and hess(x, 0) is its exact Jacobian;
    # for other exponents the Newton weights give it away from zero residuals
    rng = np.random.default_rng(5)
    left = uniform_mesh(-1, 1, 6, "left")
    for spec, degree, newton in (
        (make_spec(uniform_mesh(-1, 1, 6)), 1, False),
        (make_spec(uniform_mesh(-1, 1, 5)), 2, False),
        (make_spec(left, r=P2, u_D={"left": -1.0}, q=P2, xi=np.cos, fidelity_on=True,
                   quadrature=("gauss", 3)), 1, False),
        (make_spec(left, p=HAT, r=ExponentField.constant(3.0), u_D={"left": -1.0}, q=HAT,
                   xi=np.cos, fidelity_on=True, normalize_by_exponent=True), 1, True),
    ):
        asm = discrete_assembly(spec, degree)
        x = rng.normal(size=asm.ndof)
        H = band_to_dense(asm.hess(asm.residual(x), 0.0, newton))
        h = 1e-6
        fd = np.column_stack([(asm.gradient(x + h * e) - asm.gradient(x - h * e)) / (2 * h)
                              for e in np.eye(asm.ndof)])
        assert np.max(np.abs(H - fd)) <= 1e-7 * np.max(np.abs(H))


def test_kacanov_quadratic_majorizes_paper_energy():
    # s <= 2 everywhere: E(x + d) <= E(x) + g.d + d.H.d / 2 with H = hess(x, 0)
    rng = np.random.default_rng(11)
    prob = paper1d()
    mesh = benchmark_mesh(10)
    for asm in (discrete_assembly(dg_spec(prob, mesh), 1),
                continuous_assembly(cg_spec(prob, mesh), 1)):
        assert np.max(asm.s) <= 2.0
        for _ in range(5):
            x = rng.normal(scale=1e6, size=asm.A.shape[1])
            assert np.all(asm.A @ x - asm.b != 0.0)
            f, g = asm.value_and_grad(x)
            H = band_to_dense(asm.hess(asm.residual(x), 0.0))
            for scale in (1e-3, 1.0, 1e3, 1e6):
                d = rng.normal(scale=scale, size=x.size)
                model = f + g @ d + 0.5 * d @ H @ d
                assert asm.value_and_grad(x + d)[0] <= model + 1e-12 * abs(model)


def dg_operator_spec(k, l, mesh=None):
    """Gauss k+1, lifting degree l, a Neumann face on the right and fidelity on."""
    mesh = mesh or uniform_mesh(-1, 1, 5, "left")
    return make_spec(mesh, p=HAT, r=ExponentField.constant(3.0), u_D={"left": -1.0},
                     q=HAT, xi=np.cos, fidelity_on=True, quadrature=("gauss", k + 1),
                     lifting=LiftingConfig(l))


def test_term_operator_rows_sample_the_dg_function():
    # A x, term by term: the lifted gradient and the value at each quadrature
    # point, the Dirichlet end value, the jumps and the Neumann end value
    rng = np.random.default_rng(8)
    names = [f.name for f in fields(TermBreakdown)]
    for mesh in (uniform_mesh(-1, 1, 5, "left"), uniform_mesh(-1, 1, 2, "left")):
        for k in (1, 2, 3):
            for l in (0, 1, 2):
                asm = discrete_assembly(dg_operator_spec(k, l, mesh), k)
                v = BrokenFunction.from_dofs(mesh, k, rng.normal(size=asm.ndof))
                gx = gauss_legendre(k + 1)[0]
                want = {
                    "gradient_term": (elementwise_gradient(v).values_at_ref(gx)
                                      + lift(v, LiftingConfig(l)).values_at_ref(gx)).ravel(),
                    "fidelity_term": v.values_at_ref(gx).ravel(),
                    "dirichlet_penalty": v.coeffs[0, :1],
                    "interior_penalty": jumps(v),
                    "neumann_term": v.coeffs[-1, -1:],
                }
                Ax = asm.A @ v.dof_vector()
                assert sorted(names[i] for i in asm.field_index) == sorted(want)
                for (a, b), i in zip(asm.segments, asm.field_index):
                    got, ref = Ax[a:b], want[names[i]]
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def dense(op):
    """The matrix of a linear operator, from its products with the unit vectors."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


def test_gradient_and_hess_match_the_dense_term_operator():
    # DG with every lifting degree, a Neumann face and fidelity; CG with both ends
    # pinned; two elements, where each element has one interior face and rows are
    # padded most
    rng = np.random.default_rng(9)
    cases = []
    for ne in (5, 2):
        for k in (1, 2, 3):
            for l in (0, 1, 2):
                cases.append((discrete_assembly(
                    dg_operator_spec(k, l, uniform_mesh(-1, 1, ne, "left")), k), slice(None)))
            cg = make_spec(uniform_mesh(-1, 1, ne), p=HAT, quadrature=("gauss", k + 1))
            cases.append((continuous_assembly(cg, k), slice(1, -1)))
    for asm, free in cases:
        A = dense(asm.A)
        assert A.shape == asm.A.shape
        x = rng.normal(size=A.shape[1])
        t = A @ x - asm.b
        g = asm.value_and_grad(x)[1]
        want = A.T @ (asm.w * asm.s * np.abs(t) ** (asm.s - 2.0) * t / asm.d)
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))
        for eps, newton in ((0.0, False), (0.3, False), (0.3, True)):
            c = asm.w * asm.s * np.maximum(np.abs(t), eps) ** (asm.s - 2.0) / asm.d
            if newton:
                c *= asm.s - 1.0
            H = A.T @ (c[:, None] * A)
            # the band has every nonzero of H; the solver cuts out the pinned ends
            ab = asm.hess(t, eps, newton)
            for cut in (slice(None), free):
                got = band_to_dense(ab[:, cut])
                assert np.max(np.abs(got - H[cut, cut])) <= 1e-13 * np.max(np.abs(H))


def test_band_solve_matches_dense_solve():
    rng = np.random.default_rng(2)
    for m in (0, 1, 2, 3, 5):
        # block counts at and just past 2^k - 1 blocks of max(m, 1) rows
        b = max(m, 1)
        blocks = {(2 ** k - 1) * b + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)}
        for n in sorted({1, 2, 3, 4, 7, 8, 9, 31, 100} | blocks - {0}):
            ab = 0.3 * rng.normal(size=(m + 1, n))
            ab[0] = np.abs(ab[0]) + 2.0 * (m + 1)  # diagonally dominant: SPD
            rhs = rng.normal(size=n)
            want = np.linalg.solve(band_to_dense(ab), rhs)
            assert np.max(np.abs(_band_solve(ab, rhs) - want)) <= 1e-12 * np.max(np.abs(want))
    # the Kacanov matrices of the paper energy, DG at 40 and 1280 elements (m = 3,
    # n = 80 and 2560) and CG at 82 intervals (m = 1), with the cuts of the
    # solver; band entries past the last row are ignored
    prob = paper1d()
    for asm, cuts in (
        (discrete_assembly(dg_spec(prob, benchmark_mesh(40)), 1), (slice(None), slice(1, -1))),
        (discrete_assembly(dg_spec(prob, benchmark_mesh(1280)), 1), (slice(None),)),
        (continuous_assembly(cg_spec(prob, benchmark_mesh(82)), 1),
         (slice(1, -1), slice(1, None), slice(0, -1))),
    ):
        x = rng.normal(scale=1e5, size=asm.A.shape[1])
        t = asm.residual(x)
        ab = asm.hess(t, 1e-3 * np.max(np.abs(t)))
        for cut in cuts:
            H = band_to_dense(ab)[cut, cut]
            rhs = rng.normal(size=H.shape[0])
            want = np.linalg.solve(H, rhs)
            got = _band_solve(ab[:, cut], rhs)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_gradient_of_zero_candidate_is_boundary_local():
    B = 5.0
    mesh = uniform_mesh(-1, 1, 8)
    spec = make_spec(mesh, u_D={"left": -B, "right": B})
    v = BrokenFunction(mesh, 1, np.zeros((8, 2)))
    g = grad_discrete(v, spec)
    assert g[0] != 0.0 and g[-1] != 0.0
    assert np.max(np.abs(g[1:-1])) == 0.0


def test_quadratic_affinity():
    mesh = uniform_mesh(-1, 1, 5)
    spec = make_spec(mesh)  # every exponent 2: gradient affine in v
    asm = discrete_assembly(spec, 1)
    rng = np.random.default_rng(1)
    v = rng.normal(size=asm.ndof)
    g0 = asm.gradient(np.zeros(asm.ndof))
    for alpha in (0.5, 2.0, -3.0):
        lhs = asm.gradient(alpha * v)
        rhs = alpha * asm.gradient(v) + (1 - alpha) * g0
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_continuous_gradient_matches_fd():
    mesh = uniform_mesh(-1, 1, 5)
    spec = make_spec(mesh, p=HAT, normalize_by_exponent=True)
    v = interpolate(mesh, 1, lambda x: np.sin(x), continuous=True)
    g = grad_continuous(v, spec)
    from pxdg.functional import continuous_assembly

    asm = continuous_assembly(spec, 1)
    x = asm.broken_to_unique(v.dof_vector())
    h = 1e-7
    for i in (0, 2, asm.n_unique - 1):
        e = np.zeros_like(x)
        e[i] = h
        fd = (asm.value_and_grad(x + e)[0] - asm.value_and_grad(x - e)[0]) / (2 * h)
        assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-9)


def test_coercivity_certificate_random_candidates():
    mesh = uniform_mesh(-1, 1, 6)
    spec = make_spec(mesh, p=HAT)
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = BrokenFunction(mesh, 1, rng.normal(scale=10.0 ** rng.uniform(0, 4),
                                               size=(6, 2)))
        lhs, rhs = coercivity_certificate(v, spec)
        assert lhs <= rhs * (1 + 1e-12)
