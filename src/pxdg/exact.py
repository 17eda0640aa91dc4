"""Closed-form benchmark solution with constant flux |u'|^{p-2} u' = C.

For the V-shaped exponent dipping to 1 + eps at the origin the derivative is
u'(x) = C^{1/(p(x)-1)}: astronomically large near 0 for C > 1, exactly C on the
outer region where p = 2.  u is odd with u(1) = B.  The inner primitive is
computed once on a geometric grid adapted to the exponential growth of the
integrand and queried by panel lookup.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre

__all__ = ["ExactSolution", "build_exact"]


@dataclass(frozen=True)
class ExactSolution:
    eps: float
    a: float
    C: float
    B: float
    _tau_edges: np.ndarray
    _prefix: np.ndarray

    def _pm1(self, x):
        """p(x) - 1 computed without cancellation: eps + (1-eps) min(|x|,a)/a."""
        t = np.minimum(np.abs(x), self.a) / self.a
        return self.eps + (1.0 - self.eps) * t

    def uprime(self, x):
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        _check_domain(x)
        out = self.C ** (1.0 / self._pm1(x))
        return float(out) if scalar else out

    def _F(self, tau):
        """Integral of C^{1/t} dt from eps to tau, for an array tau in [eps, 1]."""
        edges, prefix = self._tau_edges, self._prefix
        i = np.clip(np.searchsorted(edges, tau, side="right") - 1, 0, edges.size - 2)
        return prefix[i] + _panel_integrals(edges[i], tau, math.log(self.C))

    def u(self, x):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        _check_domain(xs)
        ax = np.abs(xs)
        inner = ax <= self.a
        val = self.B - self.C * (1.0 - ax)
        tau = self.eps + (1.0 - self.eps) * ax[inner] / self.a
        val[inner] = self.a / (1.0 - self.eps) * self._F(tau)
        out = np.where(xs != 0.0, np.copysign(val, xs), 0.0)
        return float(out[0]) if scalar else out


def _check_domain(x):
    if np.any(np.abs(np.asarray(x)) > 1.0 + 1e-12):
        raise ValueError("exact solution is defined on [-1, 1]")


def _panel_integrals(lo, hi, c):
    """Integral of exp(c/t) dt over each panel [lo, hi], by 20-point Gauss-Legendre."""
    gx, gw = gauss_legendre(20)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * np.sum(gw * np.exp(c / (mid[:, None] + half[:, None] * gx)), axis=1)


def _panel_table(eps, C, n_panels):
    edges = np.geomspace(eps, 1.0, n_panels + 1)
    vals = _panel_integrals(edges[:-1], edges[1:], math.log(C))
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    return edges, prefix


def build_exact(eps, a, C):
    """Calibrate the benchmark solution; B is the boundary value u(1).

    The inner primitive is refined geometrically, from 64 up to 8192 panels,
    until B settles to 1e-12 relative.  A B that overflows float64 or has not
    settled by then is a ValueError.
    """
    if not (0.0 < eps < 1.0 and 0.0 < a < 1.0):
        raise ValueError("need 0 < eps, a < 1")
    if C <= 0.0:
        raise ValueError("the flux constant C must be positive")
    B = None
    for n in (64 << j for j in range(8)):
        with np.errstate(over="ignore"):
            edges, prefix = _panel_table(eps, C, n)
        prev, B = B, a / (1.0 - eps) * prefix[-1] + C * (1.0 - a)
        if not math.isfinite(B):
            raise ValueError(f"the exact solution for eps={eps}, C={C} overflows float64")
        if prev is not None and abs(B - prev) <= 1e-12 * abs(B):
            return ExactSolution(float(eps), float(a), float(C), float(B), edges, prefix)
    raise ValueError(f"the exact solution for eps={eps}, C={C} has not settled at {n} panels")
