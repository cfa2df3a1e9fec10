"""Shared independent oracles for the test suite.

Expectations over exponential link powers are evaluated here by composite
Gauss-Legendre quadrature in u = ln(W / mean), where W / mean = e^u has
the density e^(u - e^u).  In u the suite's integrands are analytic near
the real axis: a log2(1 + ...) term is singular only at Im u = pi, and a
circular average with coefficient |c| <= 0.8 no nearer than about 1.3.  So
16 nodes per panel of width 2 reach ~1e-15 relative, and the width-4
panels below u = -10 carry weight < 5e-5.  ``test_regions.py::TestOracle``
checks the rule against nested adaptive ``scipy.integrate.quad`` to 1e-12
bits.  The package evaluates Rayleigh region terms by a trapezoid over
their Laplace form in ln z, a different integral on a different rule, so
the two routes share no code.
"""

import numpy as np
import pytest

# u in [-50, 4]: the mass outside is below e^-50 + e^-54.
_EDGES = np.concatenate([np.arange(-50.0, -10.0, 4.0), np.arange(-10.0, 5.0, 2.0)])
_X, _WX = np.polynomial.legendre.leggauss(16)
_HALF = np.diff(_EDGES)[:, None] / 2.0
_U = ((_EDGES[:-1, None] + _EDGES[1:, None]) / 2.0 + _HALF * _X).ravel()
_NODES = np.exp(_U)  # W / mean
_WEIGHTS = (_HALF * _WX).ravel() * np.exp(_U - _NODES)


def exp_e1(f, mean):
    """E[f(W)] for W ~ Exp(mean)."""
    return float(np.sum(_WEIGHTS * f(mean * _NODES)))


def exp_e2(f, mean1, mean2):
    """E[f(W1, W2)] for independent exponentials."""
    x1 = (mean1 * _NODES)[:, None]
    x2 = (mean2 * _NODES)[None, :]
    w = _WEIGHTS[:, None] * _WEIGHTS[None, :]
    return float(np.sum(w * f(x1, x2)))


def exp_e3(f, mean1, mean2, mean3):
    """E[f(W1, W2, W3)] for independent exponentials, one W1 node at a time."""
    return float(sum(
        wt * exp_e2(lambda x2, x3: f(mean1 * x, x2, x3), mean2, mean3)
        for x, wt in zip(_NODES, _WEIGHTS)
    ))


def _circular_log2(p, q):
    """E[log2(p + q cos(phi))] over a uniform phi, valid for p > |q|."""
    return np.log2((p + np.sqrt(np.maximum(p * p - q * q, 0.0))) / 2.0)


def cos_avg_e1(pq, mean):
    """E[log2(p + q cos(phi))] with phi uniform, (p, q) = pq(W)."""
    return exp_e1(lambda w: _circular_log2(*pq(w)), mean)


def cos_avg_e2(pq, mean1, mean2):
    """E[log2(p + q cos(phi))] with phi uniform, (p, q) = pq(W1, W2).

    Uses the closed-form circular average log2((p + sqrt(p^2 - q^2))/2),
    valid for p > |q|.
    """
    return exp_e2(lambda w1, w2: _circular_log2(*pq(w1, w2)), mean1, mean2)


@pytest.fixture(scope="session")
def rayleigh_gap():
    """Exact logarithmic Jensen's gap of an exponential power gain."""
    return float(np.euler_gamma) * np.log2(np.e)
