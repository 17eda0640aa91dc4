import numpy as np
import pytest

from pxdg.meshes import Mesh1D, refine, uniform_mesh


def test_uniform_examples():
    m = uniform_mesh(-1, 1, 4, "both")
    assert np.allclose(m.nodes, [-1, -0.5, 0, 0.5, 1])
    assert np.allclose(m.element_sizes, 0.5)
    assert np.allclose(m.interior_faces, [-0.5, 0, 0.5])
    m41 = uniform_mesh(-1, 1, 41, "both")
    assert m41.n_elements == 41 and abs(m41.element_sizes[0] - 2 / 41) < 1e-15
    ml = uniform_mesh(0, 1, 2, "left")
    assert ml.dirichlet_left and not ml.dirichlet_right


def test_uniform_rejects_small_n():
    with pytest.raises(ValueError):
        uniform_mesh(0, 1, 1)


def test_refine_examples():
    assert refine(uniform_mesh(-1, 1, 4)).n_elements == 8
    m = Mesh1D(np.array([0.0, 0.3, 1.0]))
    assert np.allclose(refine(m).nodes, [0, 0.15, 0.3, 0.65, 1.0])
    assert refine(refine(uniform_mesh(0, 1, 10))).n_elements == 40


def test_refine_preserves_tags_and_halves_h():
    m = uniform_mesh(-1, 1, 4, "left")
    r = refine(m)
    assert r.dirichlet == "left"
    assert np.allclose(r.interior_face_sizes, 0.25)
    assert np.allclose(m.interior_face_sizes, 0.5)


def test_face_size_comparability():
    m = Mesh1D(np.array([0.0, 0.1, 0.4, 1.0]))
    h = m.element_sizes
    hf = m.interior_face_sizes
    for i, fh in enumerate(hf):
        for hk in (h[i], h[i + 1]):
            assert 0.5 * hk <= fh <= 2.0 * hk


def test_sizes_sum_to_measure():
    m = Mesh1D(np.array([-2.0, -1.0, 0.5, 3.0]), "right")
    assert abs(np.sum(m.element_sizes) - 5.0) < 1e-15


def test_element_lookup_sides():
    m = uniform_mesh(0, 1, 4)
    assert m.element_of(0.5, "left") == 1
    assert m.element_of(0.5, "right") == 2
    with pytest.raises(ValueError):
        m.element_of(2.0)
    xs = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
    left, right = m.element_of(xs, "left"), m.element_of(xs, "right")
    assert left.dtype.kind == "i" and right.dtype.kind == "i"
    assert left.tolist() == [0, 0, 0, 1, 3] and right.tolist() == [0, 0, 1, 2, 3]
    assert left.tolist() == [m.element_of(x, "left") for x in xs]
    assert isinstance(m.element_of(0.5), int)
    with pytest.raises(ValueError):
        m.element_of(np.array([0.5, -0.1, 0.7]))
