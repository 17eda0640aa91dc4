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
        gx, gw = gauss_legendre(20)
        lo = edges[i]
        mid = 0.5 * (lo + tau)
        half = 0.5 * (tau - lo)
        c = math.log(self.C)
        partial = half * np.sum(gw * np.exp(c / (mid[:, None] + half[:, None] * gx)), axis=1)
        return prefix[i] + partial

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

    def flux(self, x):
        """|u'|^{p-2} u' = u'^{p-1}; constant C by construction."""
        return self.uprime(x) ** self._pm1(x)

    def to_csv(self, n_samples=1000):
        xs = np.linspace(-1.0, 1.0, n_samples)
        lines = ["x,u,uprime"]
        us = self.u(xs)
        ups = self.uprime(xs)
        for x, uu, up in zip(xs, us, ups):
            lines.append(f"{x:.17g},{uu:.17g},{up:.17g}")
        return "\n".join(lines) + "\n"


def _check_domain(x):
    if np.any(np.abs(np.asarray(x)) > 1.0 + 1e-12):
        raise ValueError("exact solution is defined on [-1, 1]")


def _panel_table(eps, C, n_panels):
    edges = np.geomspace(eps, 1.0, n_panels + 1)
    gx, gw = gauss_legendre(20)
    c = math.log(C)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    vals = halfs * np.sum(gw[None, :] * np.exp(c / (mids[:, None] + halfs[:, None] * gx[None, :])),
                          axis=1)
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    return edges, prefix


def build_exact(eps, a, C, rtol=1e-12):
    """Calibrate the benchmark solution; B is the boundary value u(1).

    The inner primitive is refined geometrically until B settles to rtol.
    """
    if not (0.0 < eps < 1.0 and 0.0 < a < 1.0):
        raise ValueError("need 0 < eps, a < 1")
    if C <= 0.0:
        raise ValueError("the flux constant C must be positive")
    n = 64
    prev = None
    while True:
        edges, prefix = _panel_table(eps, C, n)
        B = a / (1.0 - eps) * prefix[-1] + C * (1.0 - a)
        if prev is not None and abs(B - prev) <= rtol * abs(B):
            break
        if n >= 8192:
            break
        prev = B
        n *= 2
    return ExactSolution(float(eps), float(a), float(C), float(B), edges, prefix)
