import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxdg.broken import (
    BrokenFunction,
    _eval_matrix,
    broken_seminorm,
    elementwise_gradient,
    embed_refine,
    evaluate,
    interpolate,
    inverse_estimate_check,
    jumps,
    total_variation,
)
from pxdg.exponents import ExponentField
from pxdg.meshes import Mesh1D, uniform_mesh

P2 = ExponentField.constant(2.0)


def step_function(mesh, left, right):
    coeffs = np.empty((mesh.n_elements, 2))
    half = mesh.n_elements // 2
    coeffs[:half] = left
    coeffs[half:] = right
    return BrokenFunction(mesh, 1, coeffs)


def test_evaluate_examples():
    m = uniform_mesh(0, 1, 2)
    u = BrokenFunction(m, 1, np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert evaluate(u, 0.25) == pytest.approx(0.5)
    s = step_function(m, 1.0, 3.0)
    assert evaluate(s, 0.5, "left") == 1.0
    assert evaluate(s, 0.5, "right") == 3.0
    hat = interpolate(m, 1, lambda x: 1 - np.abs(2 * x - 1), continuous=True)
    assert evaluate(hat, 0.5, "left") == evaluate(hat, 0.5, "right") == 1.0
    # an array of points gives the scalar values bitwise, nodes included
    xs = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
    cubic = interpolate(m, 3, lambda x: np.sin(3 * x))
    for f in (u, s, hat, cubic):
        for side in ("left", "right"):
            vals = evaluate(f, xs, side)
            assert vals.shape == xs.shape
            assert np.array_equal(vals, [evaluate(f, x, side) for x in xs])
        assert np.array_equal(f(xs.reshape(2, 3)), evaluate(f, xs).reshape(2, 3))


def test_evaluate_is_the_matrix_path_bit_for_bit():
    # evaluate sums the basis columns times the coefficients from the left; the
    # product of the barycentric matrix with the coefficients, summed over a
    # row, is the same sum.  Mesh nodes put points on the element ends, and a
    # node hit must not warn
    rng = np.random.default_rng(0)
    for nodes in (np.linspace(-1.0, 2.0, 13), 2.0 ** -np.arange(12.0)[::-1] - 2.0**-11):
        mesh = Mesh1D(nodes)
        xs = np.concatenate([rng.uniform(nodes[0], nodes[-1], 200), nodes])
        for k in range(4):
            u = BrokenFunction(mesh, k, rng.normal(size=(mesh.n_elements, k + 1)))
            for side in ("left", "right"):
                e = mesh.element_of(xs, side)
                xi = 2.0 * (xs - nodes[e]) / (nodes[e + 1] - nodes[e]) - 1.0
                want = np.sum(_eval_matrix(k, xi) * u.coeffs[e], axis=1)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert np.array_equal(evaluate(u, xs, side), want), (k, side)
            got = u(xs[3])
            assert type(got) is float and got == evaluate(u, xs[:4])[3]
            assert np.array_equal(u(xs[:6].reshape(2, 3)), evaluate(u, xs[:6]).reshape(2, 3))
            empty = u(np.empty(0))
            assert empty.shape == (0,) and empty.dtype == float


def test_gradient_examples():
    m = uniform_mesh(0, 1, 4)
    u = interpolate(m, 1, lambda x: 2.0 * x)
    g = elementwise_gradient(u)
    assert np.allclose(g.coeffs, 2.0)
    one = uniform_mesh(0, 1, 2)
    usq = interpolate(one, 2, lambda x: x**2)
    gsq = elementwise_gradient(usq)
    for x in (0.1, 0.3, 0.7):
        assert evaluate(gsq, x) == pytest.approx(2 * x, abs=1e-13)
    const = interpolate(m, 1, lambda x: np.full_like(x, 3.0))
    assert np.max(np.abs(elementwise_gradient(const).coeffs)) < 1e-14


def test_jump_examples():
    m = uniform_mesh(0, 1, 2)
    assert jumps(step_function(m, 1.0, 3.0))[0] == -2.0
    assert jumps(step_function(m, 0.0, 1.0))[0] == -1.0
    cont = interpolate(m, 1, lambda x: np.sin(x), continuous=True)
    assert np.max(np.abs(jumps(cont))) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.integers(0, 10**6))
def test_jump_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    m = uniform_mesh(0, 1, 5)
    u = BrokenFunction(m, 1, rng.normal(size=(5, 2)))
    v = BrokenFunction(m, 1, rng.normal(size=(5, 2)))
    w = BrokenFunction(m, 1, a * u.coeffs + b * v.coeffs)
    want = a * jumps(u) + b * jumps(v)
    scale = 1.0 + np.max(np.abs(want))
    assert np.allclose(jumps(w), want, rtol=0, atol=1e-13 * scale)
    # pure power-of-two scalings commute with the trace reads exactly
    w2 = BrokenFunction(m, 1, 2.0 * u.coeffs)
    assert np.array_equal(jumps(w2), 2.0 * jumps(u))


def test_seminorm_examples():
    m = uniform_mesh(-1, 1, 4)
    u = interpolate(m, 1, lambda x: x, continuous=True)
    assert broken_seminorm(u, P2) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    two = uniform_mesh(0, 1, 2)
    s = step_function(two, 0.0, 1.0)
    # gradient part 0; single-face counting norm |[u]| h^{-1/2} = sqrt 2
    assert broken_seminorm(s, P2) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    z = BrokenFunction(two, 1, np.zeros((2, 2)))
    assert broken_seminorm(z, P2) == 0.0


def test_seminorm_continuous_equals_gradient_norm():
    m = uniform_mesh(-1, 1, 6)
    u = interpolate(m, 2, lambda x: np.sin(2 * x), continuous=True)
    from pxdg.broken import gradient_samples
    from pxdg.exponents import luxemburg_norm

    vol, gvals = gradient_samples(u)
    assert broken_seminorm(u, P2) == luxemburg_norm(vol, gvals, P2)


def test_total_variation_example():
    two = uniform_mesh(0, 1, 2)
    s = step_function(two, 0.0, 1.0)
    assert total_variation(s) == pytest.approx(1.0, rel=1e-13)


def test_inverse_estimate_identity_case():
    m = uniform_mesh(0, 1, 3)
    u = interpolate(m, 2, lambda x: 1 + x + x**2)
    worst, _ = inverse_estimate_check(u, P2, P2)
    assert worst <= 1.0 + 1e-12


def test_inverse_estimate_closed_form():
    # u = x on [0, h]: L1 norm h^2/2, L2 norm h^{3/2}/sqrt(3); the h-powers cancel
    p1 = ExponentField.constant(1.0)
    for j in range(1, 8):
        h = 2.0**-j
        m = uniform_mesh(0, 2 * h, 2)
        u = interpolate(m, 1, lambda x: x)
        worst, ratios = inverse_estimate_check(u, p1, P2)
        want = (h * h / 2) / (h ** (1.0 - 0.5) * h**1.5 / np.sqrt(3.0))
        assert ratios[0] == pytest.approx(want, rel=1e-10)
        assert worst <= np.sqrt(3.0) + 1e-9


def test_inverse_estimate_skips_zero_elements():
    m = uniform_mesh(0, 1, 2)
    u = step_function(m, 0.0, 1.0)
    worst, ratios = inverse_estimate_check(u, P2, P2)
    assert len(ratios) == 1


def test_embed_refine_reproduces_values():
    m = uniform_mesh(-1, 1, 3)
    u = BrokenFunction(m, 3, np.random.default_rng(5).normal(size=(3, 4)))
    r = embed_refine(u)
    for x in np.linspace(-0.999, 0.999, 40):
        assert evaluate(r, x) == pytest.approx(evaluate(u, x), abs=1e-13)
    gu, gr = elementwise_gradient(u), elementwise_gradient(r)
    for x in (-0.8, -0.2, 0.4, 0.9):
        assert evaluate(gr, x) == pytest.approx(evaluate(gu, x), abs=1e-12)

