from dataclasses import fields

import numpy as np
import pytest

from pxdg.broken import BrokenFunction, dof_points, elementwise_gradient, interpolate, jumps
from pxdg.exponents import ExponentField
from pxdg.functional import (
    FunctionalSpec,
    TermBreakdown,
    _tridiagonal_blocks,
    coercivity_certificate,
    continuous_assembly,
    discrete_assembly,
    eval_discrete,
)
from pxdg.lifting import lift
from pxdg.meshes import Mesh1D, uniform_mesh
from pxdg.optimize import TAIL_UNKNOWNS, _band_solve, _block_index
from pxdg.problems import benchmark_mesh, cg_spec, dg_spec, paper1d
from pxdg.quadrature import gauss_legendre

P2 = ExponentField.constant(2.0)
HAT = ExponentField.hat_family(0.2, 0.3)


def make_spec(mesh, **kw):
    kw.setdefault("u_D", {"left": float(mesh.x_left), "right": float(mesh.x_right)})
    return FunctionalSpec(mesh, kw.pop("p", P2), **kw)


def broken_to_unique(asm, v):
    """The CG DOF vector of the broken DOFs v: each shared nodal value is the
    mean of the broken DOFs that take it."""
    return (np.bincount(asm.unique_dof, v, minlength=asm.n_unique)
            / np.bincount(asm.unique_dof, minlength=asm.n_unique))


def eval_continuous(v, spec):
    """Conforming energy (no lifting, no penalties); v must be continuous."""
    scale = 1.0 + float(np.max(np.abs(v.coeffs)))
    assert float(np.max(np.abs(jumps(v)))) <= 1e-10 * scale, "v has a jump"
    asm = continuous_assembly(spec, v.degree)
    return asm.terms(broken_to_unique(asm, v.dof_vector()))


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
                          lifting=0)
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
    spec_fid = make_spec(mesh, q=P2, xi=xi, quadrature=("gauss", 6))
    w = interpolate(mesh, 3, xi, continuous=True)
    assert eval_continuous(w, spec_fid).fidelity_term < 1e-9


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
        FunctionalSpec(mesh, P2, xi=np.cos, u_D={"left": 0.0, "right": 0.0})
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


def test_breakdown_totals():
    mesh = uniform_mesh(-1, 1, 4)
    spec = make_spec(mesh, p=HAT)
    v = BrokenFunction(mesh, 1, np.random.default_rng(0).normal(size=(4, 2)))
    bd = eval_discrete(v, spec)
    parts = (bd.gradient_term, bd.fidelity_term, bd.dirichlet_penalty,
             bd.interior_penalty, bd.neumann_term)
    assert all(t >= 0.0 for t in parts)
    assert bd.total == sum(parts)


@pytest.mark.parametrize("k", [1, 2])
def test_dof_points_are_the_interpolation_nodes_and_the_solver_layout(k):
    # bitwise: the solver's initial guess is a line through the data at dof_x
    nodes = np.sort(np.random.default_rng(k).uniform(-1.0, 1.0, 7))
    mesh = Mesh1D(np.concatenate([[-1.0], nodes, [1.0]]))
    spec = make_spec(mesh, quadrature=("trapezoid", 2))
    x = dof_points(mesh, k)
    assert x.shape == (8, k + 1)
    assert np.array_equal(interpolate(mesh, k, lambda t: t).coeffs, x)
    cont = interpolate(mesh, k, lambda t: t, continuous=True).coeffs
    assert np.array_equal(cont[:, 1:], x[:, 1:]) and np.array_equal(cont[1:, 0], x[:-1, -1])
    assert np.array_equal(discrete_assembly(spec, k).dof_x, x.ravel())
    # a shared CG node takes its position from the element on its right
    assert np.array_equal(continuous_assembly(spec, k).dof_x,
                          np.append(x[:, :k].ravel(), x[-1, -1]))


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
                  quadrature=("trapezoid", 2)),
        make_spec(mesh, p=HAT, normalize_by_exponent=True),
        make_spec(left, p=HAT, r=R3, u_D={"left": -1.0}),
        make_spec(left, p=HAT, r=R3, u_D={"left": -1.0}, q=HAT, xi=np.cos,
                  quadrature=("gauss", 3), normalize_by_exponent=True),
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
        (make_spec(left, r=P2, u_D={"left": -1.0}, q=P2, xi=np.cos,
                   quadrature=("gauss", 3)), 1, False),
        (make_spec(left, p=HAT, r=ExponentField.constant(3.0), u_D={"left": -1.0}, q=HAT,
                   xi=np.cos, normalize_by_exponent=True), 1, True),
    ):
        asm = discrete_assembly(spec, degree)
        x = rng.normal(size=asm.ndof)
        H = band_to_dense(asm.hess(asm.weights(asm.residual(x), 0.0, newton)))
        h = 1e-6
        fd = np.column_stack([(asm.value_and_grad(x + h * e)[1]
                               - asm.value_and_grad(x - h * e)[1]) / (2 * h)
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
            H = band_to_dense(asm.hess(asm.weights(asm.residual(x), 0.0)))
            for scale in (1e-3, 1.0, 1e3, 1e6):
                d = rng.normal(scale=scale, size=x.size)
                model = f + g @ d + 0.5 * d @ H @ d
                assert asm.value_and_grad(x + d)[0] <= model + 1e-12 * abs(model)


def dg_operator_spec(k, l, mesh=None):
    """Gauss k+1, lifting degree l, a Neumann face on the right and fidelity on."""
    mesh = mesh or uniform_mesh(-1, 1, 5, "left")
    return make_spec(mesh, p=HAT, r=ExponentField.constant(3.0), u_D={"left": -1.0},
                     q=HAT, xi=np.cos, quadrature=("gauss", k + 1), lifting=l)


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
                                      + lift(v, l).values_at_ref(gx)).ravel(),
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


def operator_cases():
    """(assembly, free DOFs): DG with every lifting degree, a Neumann face and
    fidelity, and DG k = 0, whose volume rows are the lifting alone; CG with
    both ends pinned; on five elements and on two, where every element has one
    interior and one boundary face, and a DG volume row's column clipped at
    the boundary face is one of its element's own."""
    cases = []
    for ne in (5, 2):
        for k in (0, 1, 2, 3):
            for l in (0, 1) if k == 0 else (0, 1, 2):
                cases.append((discrete_assembly(
                    dg_operator_spec(k, l, uniform_mesh(-1, 1, ne, "left")), k), slice(None)))
            if k >= 1:
                cg = make_spec(uniform_mesh(-1, 1, ne), p=HAT, quadrature=("gauss", k + 1))
                cases.append((continuous_assembly(cg, k), slice(1, -1)))
    return cases


def test_term_operator_has_one_nonzero_per_position():
    # A @ x, A^T y and the band each add one product per (row, col) pair of
    # entries: the entries are nonzero and strictly increasing by row, then col
    for asm, _ in operator_cases():
        A = asm.A
        assert np.all(A.vals != 0.0)
        assert np.all(np.diff(A.rows * A.shape[1] + A.cols) > 0)


def test_gradient_and_hess_match_the_dense_term_operator():
    rng = np.random.default_rng(9)
    for asm, free in operator_cases():
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
            ab = asm.hess(asm.weights(t, eps, newton))
            for cut in (slice(None), free):
                got = band_to_dense(ab[:, cut])
                assert np.max(np.abs(got - H[cut, cut])) <= 1e-13 * np.max(np.abs(H))


def test_band_solve_matches_dense_solve():
    rng = np.random.default_rng(2)
    for m in (0, 1, 2, 3, 5):
        # block counts at and just past 2^k - 1 blocks of max(m, 1) rows, and
        # sizes around the largest that the dense tail solves whole
        b = max(m, 1)
        blocks = {(2 ** k - 1) * b + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)}
        tail = {TAIL_UNKNOWNS + d for d in (-1, 0, 1)}
        for n in sorted(({1, 2, 3, 4, 7, 8, 9, 31, 100, 300} | blocks | tail) - {0}):
            ab = 0.3 * rng.normal(size=(m + 1, n))
            ab[0] = np.abs(ab[0]) + 2.0 * (m + 1)  # diagonally dominant: SPD
            rhs = rng.normal(size=n)
            want = np.linalg.solve(band_to_dense(ab), rhs)
            got = _band_solve(ab, rhs, (b, 0))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
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
        ab = asm.hess(asm.weights(t, 1e-3 * np.max(np.abs(t))))
        for cut in cuts:
            H = band_to_dense(ab)[cut, cut]
            rhs = rng.normal(size=H.shape[0])
            want = np.linalg.solve(H, rhs)
            got = _band_solve(ab[:, cut], rhs, (max(ab.shape[0] - 1, 1), 0))
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def kacanov_band(asm, rng):
    """The Kacanov band of ``asm`` on its free columns at a random point."""
    x = rng.normal(scale=1e5, size=asm.A.shape[1])
    t = asm.residual(x)
    return asm.hess(asm.weights(t, 1e-3 * np.max(np.abs(t))))[:, asm.free]


def block_assemblies(n):
    """DG of degree 1, 2, 3 (2 and 3 on Gauss rules) and CG of degree 1 and 2
    with both ends pinned and with the left end only, on n elements."""
    prob = paper1d()
    for k, rule in ((1, ("trapezoid", 1)), (2, ("gauss", 3)), (3, ("gauss", 4))):
        yield f"dg{k}", discrete_assembly(dg_spec(prob, benchmark_mesh(n), rule), k)
    for k in (1, 2):
        yield f"cg{k}", continuous_assembly(cg_spec(prob, benchmark_mesh(n)), k)
    left = FunctionalSpec(uniform_mesh(-1, 1, n, "left"), HAT, r=P2, u_D={"left": -1.0})
    yield "cg1-left", continuous_assembly(left, 1)


def test_band_blocks_are_centred_on_the_faces_for_dg():
    # DG block j: the last DOF of element j - 1 and the first k of element j
    for name, asm in block_assemblies(40):
        k = asm.degree
        assert asm.band_blocks == ((k + 1, 1) if name.startswith("dg") else (k, 0)), name


def test_band_solve_with_the_assembly_blocks_matches_dense_solve():
    # sizes whose padded block systems take 0, 1 and several reduction levels
    rng = np.random.default_rng(3)
    depths = {}
    for n in (8, 20, 40, 80, 200):
        for name, asm in block_assemblies(n):
            ab = kacanov_band(asm, rng)
            rhs = rng.normal(size=ab.shape[1])
            want = np.linalg.solve(band_to_dense(ab), rhs)
            got = _band_solve(ab, rhs, asm.band_blocks)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (name, n)
            depth = _block_index(ab.shape[0] - 1, ab.shape[1], *asm.band_blocks)[2]
            depths.setdefault(name, set()).add(depth)
    for name, seen in depths.items():
        assert {0, 1} <= seen and max(seen) >= 2, (name, seen)


def test_a_band_that_does_not_fit_the_blocks_is_rejected():
    # a full band fits only the blocks of its half-bandwidth
    for m in range(5):
        pattern = np.ones((m + 1, 30), dtype=bool)
        assert _tridiagonal_blocks(pattern) == (max(m, 1), 0)
    # entries in no block of (b, s): _band_solve raises rather than drop them
    rng = np.random.default_rng(4)
    prob = paper1d()
    dg = discrete_assembly(dg_spec(prob, benchmark_mesh(200)), 1)
    full = 0.3 * rng.normal(size=(4, 400))
    full[0] = np.abs(full[0]) + 8.0  # diagonally dominant: SPD
    for ab in (full, kacanov_band(dg, rng)[:, 1:-1]):
        assert np.any(ab.ravel()[_block_index(3, ab.shape[1], 2, 1)[1]] != 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="outside the blocks"):
            _band_solve(ab, rng.normal(size=ab.shape[1]), dg.band_blocks)
    # nor a nan
    ab = kacanov_band(dg, rng)
    k, i = divmod(int(_block_index(3, ab.shape[1], *dg.band_blocks)[1][7]), ab.shape[1])
    ab[k, i] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="outside the blocks"):
        _band_solve(ab, np.ones(ab.shape[1]), dg.band_blocks)


def test_gradient_of_zero_candidate_is_boundary_local():
    B = 5.0
    mesh = uniform_mesh(-1, 1, 8)
    spec = make_spec(mesh, u_D={"left": -B, "right": B})
    v = BrokenFunction(mesh, 1, np.zeros((8, 2)))
    g = discrete_assembly(spec, 1).value_and_grad(v.dof_vector())[1]
    assert g[0] != 0.0 and g[-1] != 0.0
    assert np.max(np.abs(g[1:-1])) == 0.0


def test_quadratic_affinity():
    mesh = uniform_mesh(-1, 1, 5)
    spec = make_spec(mesh)  # every exponent 2: gradient affine in v
    asm = discrete_assembly(spec, 1)
    rng = np.random.default_rng(1)
    v = rng.normal(size=asm.ndof)
    g0 = asm.value_and_grad(np.zeros(asm.ndof))[1]
    for alpha in (0.5, 2.0, -3.0):
        lhs = asm.value_and_grad(alpha * v)[1]
        rhs = alpha * asm.value_and_grad(v)[1] + (1 - alpha) * g0
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_continuous_gradient_matches_fd():
    mesh = uniform_mesh(-1, 1, 5)
    spec = make_spec(mesh, p=HAT, normalize_by_exponent=True)
    v = interpolate(mesh, 1, lambda x: np.sin(x), continuous=True)
    asm = continuous_assembly(spec, 1)
    x = broken_to_unique(asm, v.dof_vector())
    g = asm.value_and_grad(x)[1]
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
