import numpy as np
import pytest

from pxdg.broken import BrokenFunction, evaluate, interpolate, jumps
from pxdg.exponents import ExponentField
from pxdg.lifting import (
    ZeroJumpsError,
    lift,
    lifting_bound_ratio,
    verify_weak_identity,
)
from pxdg.meshes import Mesh1D, refine, uniform_mesh

P2 = ExponentField.constant(2.0)


def two_element_example():
    mesh = Mesh1D(np.array([0.0, 1.0, 2.0]))
    return BrokenFunction(mesh, 1, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_continuous_lifts_to_zero():
    m = uniform_mesh(-1, 1, 5)
    u = interpolate(m, 2, lambda x: np.cos(x), continuous=True)
    R = lift(u)
    assert np.max(np.abs(R.coeffs)) == 0.0
    assert verify_weak_identity(u, R) == 0.0


def test_two_element_worked_example():
    u = two_element_example()
    R = lift(u, 1)
    # R = 3x - 1 on [0,1] and 5 - 3x on [1,2]
    for x, want in ((0.0, -1.0), (0.5, 0.5), (1.0, 2.0)):
        assert evaluate(R, x, "left") == pytest.approx(want, abs=1e-13)
    for x, want in ((1.0, 2.0), (1.5, 0.5), (2.0, -1.0)):
        assert evaluate(R, x, "right") == pytest.approx(want, abs=1e-13)
    # integral of R equals minus the jump times the unit average
    gx = np.polynomial.legendre.leggauss(4)
    total = 0.0
    for e in range(2):
        xs = 0.5 * (gx[0] + 1.0) + e
        total += 0.5 * np.sum(gx[1] * evaluate(R, xs))
    assert total == pytest.approx(1.0, abs=1e-13)
    assert verify_weak_identity(u, R) <= 1e-13


def test_lift_scaling_and_linearity():
    u = two_element_example()
    R1 = lift(u)
    R2 = lift(BrokenFunction(u.mesh, 1, 2.0 * u.coeffs))
    assert np.array_equal(R2.coeffs, 2.0 * R1.coeffs)
    rng = np.random.default_rng(11)
    m = uniform_mesh(0, 1, 6)
    a = BrokenFunction(m, 1, rng.normal(size=(6, 2)))
    b = BrokenFunction(m, 1, rng.normal(size=(6, 2)))
    combo = BrokenFunction(m, 1, 0.3 * a.coeffs - 1.7 * b.coeffs)
    lhs = lift(combo).coeffs
    rhs = 0.3 * lift(a).coeffs - 1.7 * lift(b).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def test_weak_identity_random_inputs():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        mesh = uniform_mesh(-1, 1, n)
        k = int(rng.integers(1, 4))
        u = BrokenFunction(mesh, k, rng.normal(size=(n, k + 1)))
        for l in (0, 1, k):
            R = lift(u, l)
            scale = 1.0 + float(np.max(np.abs(u.coeffs)))
            worst = max(worst, verify_weak_identity(u, R) / scale)
    assert worst <= 1e-12


def test_bound_ratio_worked_example():
    u = two_element_example()
    got = lifting_bound_ratio(u, P2)
    # numerator sqrt(int (3x-1)^2 + int (5-3x)^2) = sqrt 2, denominator 1
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-12)
    scaled = BrokenFunction(u.mesh, 1, 37.5 * u.coeffs)
    assert lifting_bound_ratio(scaled, P2) == pytest.approx(got, rel=1e-11)


def test_bound_ratio_requires_jumps():
    m = uniform_mesh(0, 1, 3)
    cont = interpolate(m, 1, lambda x: x, continuous=True)
    with pytest.raises(ZeroJumpsError):
        lifting_bound_ratio(cont, P2)


def test_bound_ratio_stable_under_refinement():
    rng = np.random.default_rng(1)
    p = ExponentField.hat_family(0.3, 0.4)
    mesh = uniform_mesh(-1, 1, 8)
    maxima = []
    for _ in range(5):
        worst = max(lifting_bound_ratio(
            BrokenFunction(mesh, 1, rng.normal(size=(mesh.n_elements, 2))), p)
            for _ in range(10))
        maxima.append(worst)
        mesh = refine(mesh)
    assert max(maxima) / min(maxima) <= 2.0


def degree0_closed_form(u):
    """l = 0 lifting in closed form: R|_k = -(sum of the element's face jumps)/(2 h_k)."""
    ne = u.mesh.n_elements
    h = u.mesh.element_sizes
    J = jumps(u)
    vals = np.zeros((ne, 1))
    for e in range(ne):
        s = 0.0
        if e >= 1:
            s += J[e - 1]
        if e <= ne - 2:
            s += J[e]
        vals[e, 0] = -s / (2.0 * h[e])
    return BrokenFunction(u.mesh, 0, vals)


def test_degree0_closed_form_matches_solver():
    rng = np.random.default_rng(2)
    mesh = Mesh1D(np.array([0.0, 0.3, 0.55, 1.0]))
    u = BrokenFunction(mesh, 2, rng.normal(size=(3, 3)))
    R0 = lift(u, 0)
    closed = degree0_closed_form(u)
    assert np.allclose(R0.coeffs, closed.coeffs, rtol=1e-13, atol=1e-14)


def test_default_degree_matches_input():
    m = uniform_mesh(0, 1, 4)
    u = BrokenFunction(m, 2, np.random.default_rng(3).normal(size=(4, 3)))
    assert lift(u).degree == 2


def test_single_element_mesh_rejected():
    # smallest legal mesh has an interior face; a no-face lift is meaningless
    m = uniform_mesh(0, 1, 2)
    u = BrokenFunction(m, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lift(u).coeffs.shape == (2, 2)
