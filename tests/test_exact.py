import time

import numpy as np
import pytest
from scipy.integrate import quad

from pxdg import exact
from pxdg.exact import build_exact


@pytest.fixture(scope="module")
def bench():
    return build_exact(0.01, 0.01, 1.3)


def test_build_is_fast(bench):
    t0 = time.perf_counter()
    build_exact(0.01, 0.01, 1.3)
    assert time.perf_counter() - t0 < 1.0


def test_derivative_at_origin_is_exact_power(bench):
    want = 1.3**100
    assert abs(bench.uprime(0.0) - want) <= 1e-12 * want


def test_boundary_value_calibration(bench):
    assert abs(bench.B - 1.03e6) / 1.03e6 < 0.05
    # independent adaptive-quadrature oracle for the inner primitive
    eps, a, C = 0.01, 0.01, 1.3
    inner, _ = quad(lambda t: C ** (1.0 / t), eps, 1.0, epsabs=0.0, epsrel=1e-12,
                    limit=400)
    want = a / (1.0 - eps) * inner + C * (1.0 - a)
    assert abs(bench.B - want) <= 1e-9 * want


def test_eval_examples(bench):
    assert bench.u(1.0) == bench.B and bench.uprime(1.0) == pytest.approx(1.3)
    assert bench.u(0.0) == 0.0 and bench.uprime(0.0) == pytest.approx(1.3 ** (1 / 0.01))
    for x0 in (0.3, 0.007, 0.94):
        assert bench.u(-x0) == -bench.u(x0) and bench.uprime(-x0) == bench.uprime(x0)
    a = bench.a
    xs = np.array([0.0, a, -a, 1.0, -1.0, 0.3, -0.007, 0.5 * a, -1e-7, 0.94])
    us = bench.u(xs)
    assert np.array_equal(us, [bench.u(float(x)) for x in xs])
    assert np.array_equal(bench.u(-xs), -us)
    assert np.array_equal(bench.u(xs.reshape(2, 5)), us.reshape(2, 5))


def test_domain_error(bench):
    with pytest.raises(ValueError):
        bench.u(1.5)


def flux(sol, x):
    """|u'|^{p-2} u' = u'^{p-1}; constant C by construction."""
    return sol.uprime(x) ** sol._pm1(x)


def test_flux_is_constant(bench):
    xs = np.linspace(-1, 1, 201)
    assert np.max(np.abs(flux(bench, xs) - 1.3)) <= 1e-9 * 1.3


def test_outer_linear_extension(bench):
    # u(x) = C(x-1) + B on [a, 1]
    for x in (0.02, 0.4, 0.99):
        assert bench.u(x) == pytest.approx(1.3 * (x - 1.0) + bench.B, rel=1e-13)
    assert bench.u(bench.a) + 1.3 * (1 - bench.a) == pytest.approx(bench.B, abs=0)


def test_trivial_flux_one():
    sol = build_exact(0.4, 0.3, 1.0)
    assert sol.B == pytest.approx(1.0, rel=1e-13)
    xs = np.linspace(-1, 1, 21)
    assert np.max(np.abs(sol.u(xs) - xs)) < 1e-12
    assert np.max(np.abs(sol.uprime(xs) - 1.0)) == 0.0


def test_calibration_is_monotone_in_flux():
    d = 1e-6
    b_plus = build_exact(0.01, 0.01, 1.3 + d).B
    b_minus = build_exact(0.01, 0.01, 1.3 - d).B
    assert (b_plus - b_minus) / (2 * d) > 0.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_exact(0.01, 0.01, -1.0)
    with pytest.raises(ValueError):
        build_exact(1.5, 0.01, 1.3)


def test_b_that_overflows_or_does_not_settle_is_rejected(monkeypatch):
    with pytest.raises(ValueError, match="overflows float64"):
        build_exact(1e-4, 0.01, 1.3)
    # a primitive that changes with every doubling never settles
    monkeypatch.setattr(exact, "_panel_table",
                        lambda eps, C, n: (np.linspace(eps, 1.0, n + 1), np.linspace(0.0, n, n + 1)))
    with pytest.raises(ValueError, match="not settled at 8192 panels"):
        build_exact(0.01, 0.01, 1.3)
