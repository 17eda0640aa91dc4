"""Variable exponents p(x) and Luxemburg norms over discrete (weighted-sample) measures.

All integrals are taken against a ``WeightedSampleSet`` supplied by the caller:
a quadrature rule for volume integrals, a counting measure for face sums.
Nothing here integrates analytically.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "ExponentField",
    "WeightedSampleSet",
    "modular",
    "luxemburg_norm",
    "check_modular_norm_relations",
    "log_holder_bound",
    "pointwise_inequalities",
]


class DomainError(ValueError):
    """Evaluation point outside the closure of the field's domain."""


@dataclass(frozen=True)
class ExponentField:
    """A bounded exponent x -> p(x) on an interval, with 1 <= p1 <= p <= p2 < inf.

    p is the piecewise-linear interpolant of the breakpoints (xs, vals), constant
    beyond the end breakpoints; every such field is Lipschitz, hence log-Holder.
    """

    domain: tuple
    xs: tuple
    vals: tuple

    def __post_init__(self):
        xs = self.xs
        if not (all(map(math.isfinite, xs)) and all(a < b for a, b in zip(xs, xs[1:]))):
            raise ValueError(f"breakpoints {xs} must be finite and strictly increasing")
        if not all(math.isfinite(v) and v >= 1.0 for v in self.vals):
            raise ValueError(f"exponent values {self.vals} must be finite and >= 1")

    @staticmethod
    def constant(value, domain=(-math.inf, math.inf)):
        return ExponentField(tuple(domain), (0.0,), (float(value),))

    @staticmethod
    def hat_family(eps, a):
        """p(x) = ((1-eps)/a)|x| + 1 + eps on |x| <= a, and 2 on a <= |x| <= 1:
        the V-shaped profile dipping to 1+eps at the origin."""
        if not (0.0 < eps < 1.0 and 0.0 < a < 1.0):
            raise ValueError("hat family needs 0 < eps, a < 1")
        eps, a = float(eps), float(a)
        return ExponentField((-1.0, 1.0), (-a, 0.0, a), (2.0, 1.0 + eps, 2.0))

    @staticmethod
    def piecewise_linear(xs, vals):
        xs = tuple(float(x) for x in xs)
        vals = tuple(float(v) for v in vals)
        if len(xs) != len(vals) or len(xs) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        return ExponentField((xs[0], xs[-1]), xs, vals)

    @property
    def p1(self):
        return min(self.vals)

    @property
    def p2(self):
        return max(self.vals)

    def _check_domain(self, x):
        lo, hi = self.domain
        tol = 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                          abs(hi) if math.isfinite(hi) else 0.0)
        if np.any(np.asarray(x) < lo - tol) or np.any(np.asarray(x) > hi + tol):
            raise DomainError(f"point outside domain {self.domain}")

    def __call__(self, x):
        """Evaluate p(x); accepts scalars or arrays, errors outside the domain."""
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        p = np.interp(x, self.xs, self.vals)
        return float(p) if scalar else p

    def neg_inv_conjugate(self, x):
        """The exponent -1/p'(x) = (1-p)/p, read as 0 where p = 1."""
        p = np.asarray(self(x), dtype=float)
        out = (1.0 - p) / p
        return float(out) if np.isscalar(x) else out

    @staticmethod
    def from_text(text):
        kv = {}
        for tok in text.split():
            if "=" not in tok:
                raise ValueError(f"exponent field spec {text!r}: the token {tok!r} has no '='")
            key, val = tok.split("=", 1)
            if key in kv:
                raise ValueError(f"exponent field spec {text!r}: the key {key!r} "
                                 "appears more than once")
            kv[key] = val

        def read(key, parse):
            if key not in kv:
                raise ValueError(f"exponent field spec {text!r} lacks the key {key!r}")
            try:
                return parse(kv[key])
            except ValueError:
                raise ValueError(f"exponent field spec {text!r}: {key}={kv[key]!r} "
                                 "is not numeric") from None

        def floats(v):
            return [float(t) for t in v.split(",")]

        kind = kv.get("kind")
        if kind == "const":
            return ExponentField.constant(read("value", float))
        if kind == "hat":
            return ExponentField.hat_family(read("eps", float), read("a", float))
        if kind == "pwl":
            return ExponentField.piecewise_linear(read("xs", floats), read("vals", floats))
        raise ValueError(f"unknown exponent field spec {text!r}")


@dataclass(frozen=True)
class WeightedSampleSet:
    """A discrete measure: points x_i with weights w_i >= 0."""

    xs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        xs = np.atleast_1d(np.asarray(self.xs, dtype=float))
        ws = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if xs.shape != ws.shape:
            raise ValueError("points and weights must have matching shape")
        if np.any(ws < 0.0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "weights", ws)

    @staticmethod
    def counting(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return WeightedSampleSet(xs, np.ones_like(xs))

    @property
    def total_weight(self):
        return float(np.sum(self.weights))


# below the smallest normal float a modular has lost precision to underflow
_TINY = np.finfo(float).tiny


def modular(samples, values, fld):
    """The modular sum_i w_i |u_i|^{p(x_i)} of samples u_i = u(x_i).  Samples of
    weight zero do not count, whatever their value."""
    keep = samples.weights > 0.0
    values = np.asarray(values, dtype=float)[keep]
    p = fld(samples.xs[keep])
    return float(np.sum(samples.weights[keep] * np.abs(values) ** p))


def _modular_at(weights, mags, k, p):
    """rho(u/k) from the magnitudes |u| of the samples, at the sampled
    exponents p, as the first value of ``_modular_and_slope``: the bracket and
    bisection trials."""
    return float((weights * (mags / k) ** p).sum())


def _modular_and_slope(weights, mags, k, p):
    """rho(u/k) and d rho(u/k) / dk from the magnitudes |u| of the samples, at
    the sampled exponents p: the Newton polish."""
    t = mags / k
    tp = t**p
    rho = float((weights * tp).sum())
    drho = -float((weights * p * tp).sum()) / k
    return rho, drho


def luxemburg_norm(samples, values, fld):
    """inf{k > 0 : modular(u/k) <= 1}, by bracketing, bisection to 1e-2 relative
    and a Newton polish to rounding.

    k -> modular(u/k) is continuous, convex and strictly decreasing while
    positive, so the root of modular(u/k) = 1 is simple.  The magnitudes |u|
    are taken once; the bracket and bisection trials form modular(u/k) alone
    from them, and only the polish also forms its slope.  A Newton step from a
    point a relative distance d from the root lands about (p2 + 1)/2 * d^2
    away, so from the bisection's 1e-2 three or four steps reach rounding.
    The polish stops at a step that moves k by at most 4e-16 k, or at a zero
    slope, and after 8 steps at most; each step is clamped to the bracket.
    Where modular(u) is subnormal, 0 or infinite, the norm is max|u| times
    the norm of u / max|u| (homogeneity).  Samples of weight zero do not
    count.  Returns 0 for the zero function, nan if a sample is nan and inf if
    one is infinite.
    """
    keep = samples.weights > 0.0
    w, mags = samples.weights[keep], np.abs(np.asarray(values, dtype=float)[keep])
    top = np.max(mags, initial=0.0)
    if top == 0.0 or not math.isfinite(top):
        return float(top)
    p = fld(samples.xs[keep])
    with np.errstate(over="ignore"):
        rho = float((w * mags**p).sum())
    scale = 1.0
    if not _TINY <= rho < math.inf:
        # each term of u / max|u| is at most its weight and the largest equals
        # it, so this rho is finite and positive
        scale, mags = float(top), mags / top
        rho = float((w * mags**p).sum())
    p1, p2 = fld.p1, fld.p2
    # modular/norm comparison bounds give the initial bracket
    if rho >= 1.0:
        lo, hi = rho ** (1.0 / p2), rho ** (1.0 / p1)
    else:
        lo, hi = rho ** (1.0 / p1), rho ** (1.0 / p2)
    lo, hi = min(lo, 1.0), max(hi, 1.0)
    # expand until modular(u/lo) >= 1 >= modular(u/hi)
    for _ in range(200):
        if _modular_at(w, mags, lo, p) >= 1.0:
            break
        lo *= 0.5
    for _ in range(200):
        if _modular_at(w, mags, hi, p) <= 1.0:
            break
        hi *= 2.0
    # no cap on the halvings: a small function's bracket [rho^(1/p), 1] spans
    # hundreds of binades.  A subnormal bracket can be too coarse to get this
    # narrow; it ends when its midpoint rounds to an end
    while hi - lo > 1e-2 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _modular_at(w, mags, mid, p) > 1.0:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    for _ in range(8):
        # a step past the bracket is clamped to it: where an end is the root
        # (a constant exponent), the step lands an ulp beyond it
        r, dr = _modular_and_slope(w, mags, k, p)
        if dr == 0.0:
            break
        k, prev = min(max(k - (r - 1.0) / dr, lo), hi), k
        if abs(k - prev) <= 4e-16 * k:
            break
    return float(scale * k)


@dataclass(frozen=True)
class ModularNormReport:
    lam: float
    rho: float
    passed: bool


def check_modular_norm_relations(samples, values, fld, slack=1e-9):
    """Verify the unit-ball trichotomy and the lambda^{p1}/lambda^{p2} sandwiches.

    With lam the Luxemburg norm and rho the modular: lam < 1 iff rho < 1 (same for
    = and >); lam >= 1 implies lam^{p1} <= rho <= lam^{p2}; lam <= 1 implies
    lam^{p2} <= rho <= lam^{p1}.  Comparisons carry ``slack`` for roundoff.
    """
    lam = luxemburg_norm(samples, values, fld)
    rho = modular(samples, values, fld)
    p1, p2 = fld.p1, fld.p2
    if lam == 0.0:
        return ModularNormReport(lam, rho, rho <= slack)
    s = slack * max(1.0, rho)
    near_one = abs(lam - 1.0) <= slack
    if near_one:
        item1 = abs(rho - 1.0) <= s
    elif lam < 1.0:
        item1 = rho < 1.0 + s
    else:
        item1 = rho > 1.0 - s
    item2 = True
    item3 = True
    if lam >= 1.0 - slack:
        item2 = (lam**p1 <= rho + s) and (rho <= lam**p2 + s)
    if lam <= 1.0 + slack:
        item3 = (lam**p2 <= rho + s) and (rho <= lam**p1 + s)
    return ModularNormReport(lam, rho, item1 and item2 and item3)


def log_holder_bound(fld, alpha, interval):
    """max of h^{alpha (p(x)-p(y))}, h = diam, over x, y among 513 equispaced points
    of the interval and the field's breakpoints inside it.

    Bounded uniformly in h for log-Holder fields; grows like h^{-alpha*gap} across
    a jump of size gap.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    a, b = interval
    xs = np.linspace(a, b, 513)
    inside = [x for x in fld.xs if a < x < b]
    if inside:
        xs = np.sort(np.concatenate([xs, inside]))
    p = fld(xs)
    h = b - a
    gap = float(np.max(p) - np.min(p))
    if h == 1.0 or gap == 0.0:
        return 1.0
    e = alpha * gap
    return float(max(h**e, h**-e))


@dataclass(frozen=True)
class PointwiseInequalityReport:
    monotone_pairing: float
    c_min_power: float
    c_min_degenerate: float
    splitting_bound_ok: bool


def pointwise_inequalities(eta, xi, px):
    """Minimal constants for the first two pointwise power inequalities at
    (eta, xi, p), and whether the third holds.

    The pairing (|eta|^{p-2}eta - |xi|^{p-2}xi)(eta - xi) is nonnegative; the first
    inequality bounds |eta-xi|^p by it (p >= 2), the second bounds
    |eta-xi|^2 (|eta|+|xi|)^{p-2} by it (p < 2), and the third is the splitting
    |eta|^p <= 2^{p-1}(|eta-xi|^p + |xi|^p) (p >= 1).
    """
    if px < 1.0:
        raise ValueError("need p >= 1")

    def flux(t):
        return abs(t) ** (px - 2.0) * t if t != 0.0 else 0.0

    d = eta - xi
    pairing = (flux(eta) - flux(xi)) * d

    def ratio(lhs):
        if lhs == 0.0:
            return 0.0
        return lhs / pairing if pairing > 0.0 else math.inf

    c1 = ratio(abs(d) ** px) if px >= 2.0 else 0.0
    if px < 2.0:
        s = abs(eta) + abs(xi)
        lhs2 = d * d * s ** (px - 2.0) if s > 0.0 else 0.0
        c2 = ratio(lhs2)
    else:
        c2 = 0.0
    rhs3 = abs(d) ** px + abs(xi) ** px
    if abs(eta) == 0.0:
        c3 = 0.0
    elif rhs3 == 0.0:
        c3 = math.inf
    else:
        c3 = abs(eta) ** px / rhs3
    return PointwiseInequalityReport(pairing, c1, c2, c3 <= 2.0 ** (px - 1.0) * (1.0 + 1e-12))
