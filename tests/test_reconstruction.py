import numpy as np
import pytest

from pxdg.broken import (BrokenFunction, _face_weight_values, embed_refine, gradient_samples,
                         interpolate, jumps)
from pxdg.exponents import ExponentField, WeightedSampleSet, luxemburg_norm
from pxdg.meshes import Mesh1D, uniform_mesh
from pxdg.reconstruction import (
    mean_bound_check,
    node_projections,
    reconstruct,
    reconstruction_error_report,
)

P2 = ExponentField.constant(2.0)


def local_seminorm(u, p, element):
    """Patch seminorm over T_kappa, the element and its neighbours: gradient norm
    there plus its weighted face jumps."""
    lo, hi = max(element - 1, 0), min(element + 2, u.mesh.n_elements)
    g = u.degree + 2
    vol, gvals = gradient_samples(u, g)
    patch = slice(lo * g, hi * g)
    out = luxemburg_norm(WeightedSampleSet(vol.xs[patch], vol.weights[patch]), gvals[patch], p)
    # face f sits between elements f and f+1; a weighted single-point counting
    # norm is just the absolute value
    _, fvals = _face_weight_values(u, p)
    return out + float(np.sum(np.abs(fvals[max(lo - 1, 0):hi])))


def test_project_node_examples():
    m = uniform_mesh(0, 1, 2)
    const = interpolate(m, 1, lambda x: np.full_like(x, 4.5))
    assert node_projections(const)[1] == pytest.approx(4.5, abs=0)
    u = interpolate(m, 1, lambda x: x, continuous=True)
    assert node_projections(u)[1] == pytest.approx(0.5, abs=1e-15)
    s = BrokenFunction(m, 1, np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert node_projections(s)[1] == pytest.approx(0.5, abs=1e-15)


# a non-uniform mesh of 5 elements, sizes 0.2, 0.05, 0.35, 0.4, 0.1
UNEVEN = Mesh1D(np.array([0.0, 0.2, 0.25, 0.6, 1.0, 1.1]))


def test_node_projections_average_the_adjacent_elements():
    # elementwise constants 1, 2, 4, 8, 16: an end node takes its one element's
    # value, an interior node the h-weighted mean of its two elements
    c = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    u = BrokenFunction(UNEVEN, 1, np.column_stack([c, c]))
    h = UNEVEN.element_sizes
    want = [1.0] + [(h[i] * c[i] + h[i + 1] * c[i + 1]) / (h[i] + h[i + 1])
                    for i in range(4)] + [16.0]
    assert np.allclose(node_projections(u), want, rtol=1e-15, atol=0)
    assert node_projections(u)[0] == 1.0 and node_projections(u)[-1] == 16.0


def test_local_seminorm_reads_the_element_its_neighbours_and_their_faces():
    # a unit jump at x = 0.6 (the face between elements 2 and 3) lies on the
    # patches of elements 1..4; element 0's patch {0, 1} does not reach it
    step = BrokenFunction(UNEVEN, 1, np.repeat([[0.0], [0.0], [0.0], [1.0], [1.0]], 2, axis=1))
    w = (0.5 * (0.35 + 0.4)) ** -0.5
    got = [local_seminorm(step, P2, e) for e in range(5)]
    assert got[0] == 0.0 and got[1:] == pytest.approx([w] * 4, rel=1e-14)
    # a unit slope on the end element 4 only: on the patches of elements 3 and 4
    ramp = BrokenFunction(UNEVEN, 1, np.zeros((5, 2)))
    ramp.coeffs[4, 1] = 0.1
    got = [local_seminorm(ramp, P2, e) for e in range(5)]
    assert got[:3] == [0.0] * 3 and got[3:] == pytest.approx([np.sqrt(0.1)] * 2, rel=1e-12)


def test_reconstruct_examples():
    m = uniform_mesh(0, 1, 3)
    const = interpolate(m, 1, lambda x: np.full_like(x, 5.0))
    Q = reconstruct(const)
    assert np.max(np.abs(Q.coeffs - 5.0)) == 0.0 and not np.any(jumps(Q))
    two = uniform_mesh(0, 1, 2)
    s = BrokenFunction(two, 1, np.array([[0.0, 0.0], [1.0, 1.0]]))
    Qs = reconstruct(s)
    assert np.allclose(Qs.coeffs, [[0.0, 0.5], [0.5, 1.0]])
    # continuous piecewise linear: nodes become neighborhood means, not u itself
    u = interpolate(uniform_mesh(0, 1, 4), 1, lambda x: x * x, continuous=True)
    Qu = reconstruct(u)
    assert not np.allclose(Qu.coeffs, u.coeffs)


def test_reconstruction_is_linear():
    rng = np.random.default_rng(0)
    m = uniform_mesh(-1, 1, 5)
    a = BrokenFunction(m, 2, rng.normal(size=(5, 3)))
    b = BrokenFunction(m, 2, rng.normal(size=(5, 3)))
    combo = BrokenFunction(m, 2, 2.0 * a.coeffs - 0.5 * b.coeffs)
    lhs = reconstruct(combo).coeffs
    rhs = 2.0 * reconstruct(a).coeffs - 0.5 * reconstruct(b).coeffs
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_error_report_constant_is_exact():
    m = uniform_mesh(0, 1, 4)
    const = interpolate(m, 1, lambda x: np.full_like(x, 2.0))
    rep = reconstruction_error_report(const, P2, P2)
    assert rep.vol_error == 0.0 and rep.grad_norm == 0.0


def test_error_decay_on_embedded_function():
    base = uniform_mesh(0, 1, 10)
    u = interpolate(base, 1, lambda x: np.sin(np.pi * x))
    u.coeffs[6:, :] += 1e-3
    errs, hs = [], []
    for _ in range(5):
        rep = reconstruction_error_report(u, P2, P2)
        errs.append(rep.vol_error)
        hs.append(u.mesh.max_h)
        u = embed_refine(u)
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
    assert np.min(orders) >= 0.9


def test_gradient_stability_within_factor_two():
    base = uniform_mesh(0, 1, 10)
    u = interpolate(base, 1, lambda x: np.sin(np.pi * x))
    u.coeffs[6:, :] += 1e-3
    ratios = []
    for _ in range(5):
        rep = reconstruction_error_report(u, P2, P2)
        ratios.append(rep.grad_norm / rep.seminorm)
        u = embed_refine(u)
    assert max(ratios) / min(ratios) <= 2.0


def test_boundary_deviation_scaling():
    # |(u - Q u)(1)| against h^{1 - 1/p} times the boundary-patch seminorm
    base = uniform_mesh(0, 1, 10)
    u = interpolate(base, 1, lambda x: np.sin(np.pi * x))
    consts = []
    for _ in range(5):
        Q = reconstruct(u)
        dev = abs(u.coeffs[-1, -1] - Q.coeffs[-1, -1])
        h = u.mesh.max_h
        semi = local_seminorm(u, P2, u.mesh.n_elements - 1)
        consts.append(dev / (h ** 0.5 * semi))
        u = embed_refine(u)
    assert max(consts) / min(consts) <= 2.0


def test_mean_bound_exact():
    rng = np.random.default_rng(4)
    m = uniform_mesh(-1, 1, 7)
    u = BrokenFunction(m, 3, rng.normal(size=(7, 4)))
    mx, mb = mean_bound_check(u)
    assert mx <= mb + 1e-14


def test_node_projection_bounds():
    rng = np.random.default_rng(9)
    m = uniform_mesh(0, 1, 6)
    u = BrokenFunction(m, 1, rng.normal(size=(6, 2)))
    pz = node_projections(u)
    assert pz.shape == (7,)
    assert np.max(np.abs(pz)) <= np.max(np.abs(u.coeffs)) + 1e-14

