import numpy as np
import pytest

from pxdg.broken import interpolate
from pxdg.meshes import uniform_mesh
from pxdg.problems import (
    _error_partition,
    benchmark_mesh,
    cg_spec,
    custom_spec,
    dg_spec,
    load_problem_file,
    paper1d,
    reference_energy,
    solution_errors,
)


@pytest.fixture(scope="module")
def prob():
    return paper1d()


def test_calibration(prob):
    assert abs(prob.B - 1.03e6) / 1.03e6 < 0.05
    assert prob.u_D == {"left": -prob.B, "right": prob.B}
    assert prob.p(0.0) == 1.01


def test_reference_energy_closed_form(prob):
    # constant flux turns the energy of the exact solution into 2*C*B
    assert reference_energy(prob) == 2.0 * 1.3 * prob.B


def test_benchmark_mesh_snaps_odd_counts():
    assert benchmark_mesh(40).n_elements == 40
    assert benchmark_mesh(41).n_elements == 40
    assert benchmark_mesh(10).n_elements == 10
    assert 0.0 in benchmark_mesh(41).nodes
    with pytest.raises(ValueError):
        benchmark_mesh(1)


@pytest.mark.parametrize("n", [2, 3, 40, 41, 399, 1280, 5120])
def test_error_partition_matches_the_node_set_construction(n):
    mesh = benchmark_mesh(n)
    for layer in (0.01, 1e-6, 0.3, 0.9):
        pts = set(float(x) for x in mesh.nodes)
        for j in range(19):
            d = layer * 2.0 ** (1 - j)
            pts.update(s for s in (-d, d) if mesh.x_left < s < mesh.x_right)
        want = np.array(sorted(pts))
        got = _error_partition(mesh, layer)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def test_specs_build(prob):
    mesh = benchmark_mesh(10)
    d = dg_spec(prob, mesh)
    c = cg_spec(prob, mesh)
    assert d.quadrature == ("trapezoid", 1) and not d.normalize_by_exponent
    assert c.normalize_by_exponent


def test_interpolant_errors_are_nodally_exact(prob):
    mesh = benchmark_mesh(20)
    v = interpolate(mesh, 1, prob.exact.u, continuous=True)
    errs = solution_errors(v, prob)
    assert errs["max_nodal"] == 0.0
    assert 0.0 < errs["l1"] < prob.B  # interpolation misses the inner layer only
    assert errs["lux_p"] > 0.0 and errs["grad_lux_p"] > 0.0


def test_problem_file_roundtrip(tmp_path):
    path = tmp_path / "custom.spec"
    path.write_text(
        "# toy problem\n"
        "p = kind=const value=2\n"
        "uD_left = -1\n"
        "uD_right = 1\n"
        "dirichlet = both\n"
        "fidelity = off\n"
        "domain = -1,1\n"
    )
    opts = load_problem_file(path)
    assert opts["p"](0.3) == 2.0
    assert opts["u_D"] == {"left": -1.0, "right": 1.0}
    mesh = uniform_mesh(*opts["domain"], 4, opts["dirichlet"])
    spec = custom_spec(opts, mesh)
    assert spec.mesh is mesh


def test_problem_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("p = kind=const value=2\nwhatever = 3\n")
    with pytest.raises(ValueError):
        load_problem_file(path)


def test_benchmark_dg_solution_shape(prob):
    # coarse-mesh solution: monotone increasing, odd, with the rise at the origin
    from pxdg.optimize import BfgsConfig, solve_dg

    mesh = benchmark_mesh(41)
    rep = solve_dg(dg_spec(prob, mesh), 1, BfgsConfig(max_iters=20000))
    u = rep.solution
    B = prob.B
    traces = np.ravel(u.coeffs)  # left/right traces in spatial order
    assert np.all(np.diff(traces) >= -1e-6 * B)
    odd_defect = np.max(np.abs(u.coeffs + u.coeffs[::-1, ::-1]))
    assert odd_defect <= 1e-3 * B
    f0 = mesh.n_elements // 2 - 1
    assert abs(u.coeffs[f0 + 1, 0] - u.coeffs[f0, 1]) >= 0.5 * B  # steep at x = 0
