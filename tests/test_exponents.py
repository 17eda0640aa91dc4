import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pxdg import exponents
from pxdg.broken import volume_samples
from pxdg.exponents import (
    DomainError,
    ExponentField,
    WeightedSampleSet,
    check_modular_norm_relations,
    log_holder_bound,
    luxemburg_norm,
    modular,
    pointwise_inequalities,
)
from pxdg.meshes import uniform_mesh

HAT = ExponentField.hat_family(0.01, 0.01)


def test_eval_examples():
    assert HAT(0.0) == 1.01
    assert HAT(0.5) == 2.0
    assert ExponentField.constant(2.0)(0.3) == 2.0


def test_eval_outside_domain():
    with pytest.raises(DomainError):
        HAT(1.5)


def test_bounds_on_dense_grid():
    xs = np.linspace(-1, 1, 4001)
    p = HAT(xs)
    assert np.all(p >= HAT.p1) and np.all(p <= HAT.p2)
    assert HAT(0.01) == 2.0 and HAT(-0.01) == 2.0


def test_hat_matches_its_closed_form():
    # 2 - (1-eps)(1 - min(|x|,a)/a) rounds differently from the interpolant: within
    # 2 ulps, and equal beyond the kinks; the dip is the rounded 1 + eps = p1
    rng = np.random.default_rng(0)
    for eps, a in rng.uniform(0.001, 0.99, size=(50, 2)):
        field = ExponentField.hat_family(eps, a)
        x = np.concatenate([rng.uniform(-1, 1, 200), rng.uniform(-a, a, 200), [-a, a]])
        closed = 2.0 - (1.0 - eps) * (1.0 - np.minimum(np.abs(x), a) / a)
        assert np.all(np.abs(field(x) - closed) <= 2 * np.spacing(closed))
        outside = np.abs(x) >= a
        assert np.array_equal(field(x[outside]), closed[outside])
        assert field(0.0) == 1.0 + eps == field.p1


def test_neg_inv_conjugate_handles_p_equal_one():
    f = ExponentField.constant(1.0)
    assert f.neg_inv_conjugate(0.3) == 0.0


def test_modular_examples():
    s = volume_samples(uniform_mesh(0.0, 1.0, 4), 6)[0]
    p2 = ExponentField.constant(2.0)
    assert abs(modular(s, s.xs, p2) - 1.0 / 3.0) < 1e-14
    s2 = volume_samples(uniform_mesh(-1.0, 1.0, 4), 6)[0]
    assert abs(modular(s2, np.ones(s2.xs.size), p2) - 2.0) < 1e-14


def test_modular_against_adaptive_quadrature_oracle():
    # panel edges aligned with the exponent kink keep the composite rule exact
    field = ExponentField.hat_family(0.3, 0.4)
    left = volume_samples(uniform_mesh(0.0, 0.4, 16), 10)[0]
    right = volume_samples(uniform_mesh(0.4, 1.0, 24), 10)[0]
    s = WeightedSampleSet(np.concatenate([left.xs, right.xs]),
                          np.concatenate([left.weights, right.weights]))
    for fn in (lambda x: np.ones_like(x), lambda x: 2.0 + np.sin(3.0 * x)):
        got = modular(s, fn(s.xs), field)
        want, _ = quad(lambda x: abs(fn(np.array(x))) ** field(x), 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-13, limit=200, points=[0.4])
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_luxemburg_examples():
    p2 = ExponentField.constant(2.0)
    s = volume_samples(uniform_mesh(0.0, 1.0, 4), 6)[0]
    assert abs(luxemburg_norm(s, np.ones(s.xs.size), p2) - 1.0) < 1e-13
    s2 = volume_samples(uniform_mesh(-1.0, 1.0, 4), 6)[0]
    assert abs(luxemburg_norm(s2, np.ones(s2.xs.size), p2) - np.sqrt(2.0)) < 1e-13


def test_luxemburg_zero_function():
    s = volume_samples(uniform_mesh(0.0, 1.0, 2), 4)[0]
    assert luxemburg_norm(s, np.zeros(s.xs.size), HAT) == 0.0


def test_luxemburg_non_finite_values():
    # as the modular: a nan of positive weight makes the norm nan, an infinite
    # value makes it infinite; neither warns
    s = WeightedSampleSet(np.array([0.0, 1.0]), np.ones(2))
    for fld in (ExponentField.constant(2.0), ExponentField.piecewise_linear([0, 1], [1.5, 3])):
        assert np.isnan(luxemburg_norm(s, np.array([np.nan, np.nan]), fld))
        assert np.isnan(luxemburg_norm(s, np.array([np.nan, np.inf]), fld))
        assert luxemburg_norm(s, np.array([np.inf, 1.0]), fld) == np.inf
        assert luxemburg_norm(s, np.array([-np.inf, 0.0]), fld) == np.inf


def test_luxemburg_ignores_samples_of_zero_weight():
    # 0 * nan, 0 * inf and 0 * 1e200**2 would make the modular nan; the
    # modular drops these samples as the norm does
    s = WeightedSampleSet(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    fld = ExponentField.constant(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for v in (np.nan, np.inf, 1e200):
            u = np.array([v, 1.0])
            assert luxemburg_norm(s, u, fld) == 1.0
            assert modular(s, u, fld) == 1.0
            assert check_modular_norm_relations(s, u, fld).passed


def test_luxemburg_against_bruteforce_bisection():
    # same discrete measure, independent root finding: plain bisection to
    # 1e-13, no bracket theory, on exponents up to 64
    s = volume_samples(uniform_mesh(0.0, 1.0, 16), 8)[0]
    for field in (ExponentField.hat_family(0.3, 0.4),
                  ExponentField.piecewise_linear([0, 0.5, 1], [1.2, 8, 3]),
                  ExponentField.piecewise_linear([0, 1], [2, 64]),
                  ExponentField.constant(64.0)):
        got = luxemburg_norm(s, s.xs, field)
        lo, hi = 1e-3, 1e3
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if modular(s, s.xs / mid, field) > 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(got - 0.5 * (lo + hi)) <= 2e-13 * got, field


def test_luxemburg_norm_takes_few_modular_sums(monkeypatch):
    # a norm of 5e-3 bisects down from the bracket end 1; bisecting only to
    # 1e-6 and leaving the rest to Newton took this one from 53 sums to 33,
    # and bisecting only to 1e-2 and polishing until a step no longer moves
    # k took it to 21, with the same norm.  Only the polish steps form the
    # slope: four here, where it was a fixed three
    calls = []
    for name in ("_modular_at", "_modular_and_slope"):
        fn = getattr(exponents, name)
        monkeypatch.setattr(exponents, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    rng = np.random.default_rng(0)
    s = WeightedSampleSet(np.sort(rng.uniform(-1, 1, 50)), rng.uniform(0, 0.04, 50))
    luxemburg_norm(s, rng.normal(scale=5e-3, size=50), HAT)
    assert len(calls) <= 24
    assert calls.count("_modular_and_slope") <= 5


def test_trial_modular_is_the_modular_bit_for_bit():
    # the trials decide the bracket and the bisection's branches, so they must
    # be the modular itself and the rho of the polish.  Both helpers take the
    # magnitudes |u|, which the norm forms once
    rng = np.random.default_rng(0)
    fields = (HAT, ExponentField.piecewise_linear([-1, 0.2, 1], [1.2, 3.5, 2.0]),
              ExponentField.constant(2.5))
    for fld in fields:
        for _ in range(5):
            s = WeightedSampleSet(np.sort(rng.uniform(-1, 1, 40)), rng.uniform(0, 0.05, 40))
            u = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=40)
            p, mags = fld(s.xs), np.abs(u)
            for k in (1e-3, 0.37, 1.0, 2.5, 1e4):
                trial = exponents._modular_at(s.weights, mags, k, p)
                assert trial == modular(s, u / k, fld)
                assert trial == exponents._modular_and_slope(s.weights, mags, k, p)[0]


def test_luxemburg_rescales_a_modular_that_under_or_overflows():
    # rho(u) at k = 1 underflows to 0 or overflows to inf: the norm is then
    # max|u| times the norm of u / max|u|
    s = WeightedSampleSet(np.array([0.0, 1.0]), np.ones(2))
    pwl = ExponentField.piecewise_linear([0, 1], [1.5, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = luxemburg_norm(s, np.full(2, 1e-170), ExponentField.constant(2.0))
        assert abs(tiny - np.sqrt(2.0) * 1e-170) <= 4 * np.spacing(tiny)
        huge = luxemburg_norm(s, np.full(2, 1e150), pwl)
    assert np.isfinite(huge)
    assert huge == 1e150 * luxemburg_norm(s, np.ones(2), pwl)


def test_luxemburg_rescales_a_subnormal_modular():
    # rho(u) = 2e-310 is subnormal but not 0: bisected and polished unscaled,
    # the norm came out 2.0000008289046e-310.  Rescaled by max|u| it is exact
    s = WeightedSampleSet(np.array([0.0, 1.0]), np.ones(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert luxemburg_norm(s, np.full(2, 1e-310), ExponentField.constant(1.0)) == 2e-310


def test_constant_p_matches_classical_lp():
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 2.0, 3.0, 7.0):
        fld = ExponentField.constant(p)
        s = WeightedSampleSet(np.linspace(0, 1, 17), rng.uniform(0, 0.2, 17))
        u = rng.normal(size=17)
        classical = (np.sum(s.weights * np.abs(u) ** p)) ** (1.0 / p)
        assert abs(luxemburg_norm(s, u, fld) - classical) <= 1e-12 * max(1.0, classical)


def test_constant_p_norm_is_the_closed_form_to_a_few_ulps():
    # the comparison bounds put the root on an end of the bracket, where the
    # Newton polish lands an ulp beyond it; the norm must not fall back to the
    # bisection midpoint, which is only 1e-6 close.  At the small scales the
    # bracket [rho^(1/p), 1] takes hundreds of halvings
    rng = np.random.default_rng(0)
    for p in (1.5, 2.0, 3.0):
        fld = ExponentField.constant(p)
        for scale in (1e-100, 1e-80, 1e-60, 1e-3, 0.3, 1.0, 1e4):
            for _ in range(10):
                s = WeightedSampleSet(np.sort(rng.uniform(-1, 1, 50)), rng.uniform(0, 0.04, 50))
                u = rng.normal(scale=scale, size=50)
                # factored by the scale, so that the rounding of 1/p is not
                # multiplied by |log rho|, over 300 at the smallest scale
                closed = scale * float(np.sum(s.weights * np.abs(u / scale) ** p)) ** (1.0 / p)
                got = luxemburg_norm(s, u, fld)
                assert abs(got - closed) <= 4 * np.finfo(float).eps * closed, (p, scale)


def _fsum_root(s, u, fld, guess):
    """The smallest float k in [guess/2, 2 guess] with rho(u/k) <= 1, by
    bisection to adjacent floats on a modular summed with ``math.fsum``."""
    mags, p = np.abs(u), fld(s.xs)

    def rho(k):
        return math.fsum((s.weights * (mags / k) ** p).tolist())

    lo, hi = 0.5 * guess, 2.0 * guess
    assert rho(lo) > 1.0 >= rho(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def test_luxemburg_polish_reaches_rounding():
    # the bisection stops at 1e-2 relative and the Newton polish runs until a
    # step no longer moves k.  From 1e-2 three steps land within about
    # ((p2 + 1)/2)^7 (5e-3)^8 of the root, at most an ulp or two for p2 <= 4,
    # so the field up to 8 is the one that tells a polish cut short
    rng = np.random.default_rng(0)
    fields = [HAT, ExponentField.piecewise_linear([-1, 0.2, 1], [1.2, 4.0, 2.0]),
              ExponentField.piecewise_linear([-1, 0.2, 1], [1.2, 8.0, 2.0])]
    fields += [ExponentField.constant(p) for p in (1.5, 2.0, 3.0)]
    for fld in fields:
        for scale in (1e-150, 1e-100, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e100, 1e150):
            for _ in range(8):
                # a tenth of the samples inside the paper hat's dip, p down to 1.01
                xs = np.concatenate([rng.uniform(-1, 1, 45), rng.uniform(-0.01, 0.01, 5)])
                s = WeightedSampleSet(np.sort(xs), rng.uniform(0, 0.04, 50))
                u = rng.normal(scale=scale, size=50)
                # a small function's first trial, at the lower comparison
                # bound rho^(1/p1), can overflow to inf, which reads as >= 1
                with np.errstate(over="ignore"):
                    got = luxemburg_norm(s, u, fld)
                want = _fsum_root(s, u, fld, got)
                assert abs(got - want) <= 2 * np.spacing(want), (fld, scale)
                if fld.p1 == fld.p2:
                    p = fld.p1
                    terms = s.weights * np.abs(u / scale) ** p
                    closed = scale * math.fsum(terms.tolist()) ** (1 / p)
                    assert abs(got - closed) <= 2 * np.spacing(closed), (p, scale)


def test_modular_norm_relations_examples():
    p2 = ExponentField.constant(2.0)
    s = volume_samples(uniform_mesh(0.0, 1.0, 2), 6)[0]
    u = np.cos(s.xs)
    lam = luxemburg_norm(s, u, p2)
    rep = check_modular_norm_relations(s, u / lam, p2)
    assert rep.passed and abs(rep.rho - 1.0) < 1e-9

    mixed = ExponentField.piecewise_linear([0.0, 1.0], [1.01, 2.0])
    u2 = u / lam * 2.0
    rep2 = check_modular_norm_relations(s, u2, mixed)
    lam2 = rep2.lam
    assert rep2.passed
    assert lam2**1.01 - 1e-9 <= rep2.rho <= lam2**2.0 + 1e-9

    rep3 = check_modular_norm_relations(s, u / lam * 0.5, p2)
    assert rep3.passed and abs(rep3.rho - 0.25) < 1e-9


def test_log_holder_examples():
    const = ExponentField.constant(3.0)
    assert log_holder_bound(const, 1.0, (0.25, 0.75)) == 1.0
    vals = [log_holder_bound(HAT, 1.0, (-(2.0**-j), 0.0)) for j in range(1, 21)]
    assert max(vals) < 100.0  # bounded along the shrinking sequence
    gap = 0.5
    jumpy = ExponentField.piecewise_linear([-1, 0, 1e-13, 1], [1.5, 1.5, 2.0, 2.0])
    for h in (2.0**-j for j in range(2, 10)):
        got = log_holder_bound(jumpy, 1.0, (-h / 2, h / 2))
        assert abs(got - h**-gap) <= 1e-6 * h**-gap


def test_pointwise_examples():
    rep = pointwise_inequalities(1.0, 0.0, 2.0)
    assert rep.c_min_power == pytest.approx(1.0)
    # |2|^{p-2} 2 - |1|^{p-2} 1 = 4 - 1 at p = 3, so the sharp constant is 1/3
    rep2 = pointwise_inequalities(2.0, 1.0, 3.0)
    assert rep2.c_min_power == pytest.approx(1.0 / 3.0)
    rep3 = pointwise_inequalities(0.7, 0.7, 1.7)
    assert rep3.c_min_power == 0.0 and rep3.c_min_degenerate == 0.0


def test_serialization_roundtrip():
    for text, fld in (("kind=hat eps=0.01 a=0.01", HAT),
                      ("kind=const value=2", ExponentField.constant(2.0)),
                      ("kind=pwl xs=0,0.5,1 vals=1.2,2,1.5",
                       ExponentField.piecewise_linear([0, 0.5, 1], [1.2, 2.0, 1.5]))):
        back = ExponentField.from_text(text)
        assert back == fld
        xs = np.linspace(*[max(fld.domain[0], -1e6), min(fld.domain[1], 1e6)], 11)
        assert np.array_equal(back(xs), fld(xs))


@settings(max_examples=60, deadline=None)
@given(st.floats(-50, 50), st.floats(min_value=0.001, max_value=100),
       st.integers(0, 10**6))
@example(0.0, 1e-80, 0)
def test_homogeneity_property(shift, scale, seed):
    rng = np.random.default_rng(seed)
    s = WeightedSampleSet(np.linspace(-1, 1, 9), rng.uniform(0, 1, 9))
    u = rng.normal(size=9) + shift
    n1 = luxemburg_norm(s, u, HAT)
    n2 = luxemburg_norm(s, scale * u, HAT)
    assert abs(n2 - scale * n1) <= 1e-9 * scale * n1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_triangle_and_convexity_property(seed):
    rng = np.random.default_rng(seed)
    s = WeightedSampleSet(np.linspace(-1, 1, 13), rng.uniform(0, 1, 13))
    u = rng.normal(size=13)
    v = rng.normal(size=13)
    nu, nv, nuv = (luxemburg_norm(s, w, HAT) for w in (u, v, u + v))
    assert nuv <= nu + nv + 1e-9 * max(1.0, nu + nv)
    mid = modular(s, 0.5 * (u + v), HAT)
    assert mid <= 0.5 * (modular(s, u, HAT) + modular(s, v, HAT)) * (1 + 1e-12) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_modular_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    s = WeightedSampleSet(np.sort(rng.uniform(-1, 1, 11)), rng.uniform(0, 1, 11))
    u = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=11)
    assert check_modular_norm_relations(s, u, HAT).passed
