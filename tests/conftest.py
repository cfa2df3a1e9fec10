"""Shared independent oracles for the test suite.

Expectations over exponential link powers are evaluated here with tensor
Gauss-Laguerre quadrature; the package itself uses adaptive scipy
quadrature and seeded Monte Carlo, so the two routes share no code.
"""

import numpy as np
import pytest

_NODES, _WEIGHTS = np.polynomial.laguerre.laggauss(128)


def exp_e1(f, mean):
    """E[f(W)] for W ~ Exp(mean)."""
    return float(np.sum(_WEIGHTS * f(mean * _NODES)))


def exp_e2(f, mean1, mean2):
    """E[f(W1, W2)] for independent exponentials."""
    x1 = (mean1 * _NODES)[:, None]
    x2 = (mean2 * _NODES)[None, :]
    w = _WEIGHTS[:, None] * _WEIGHTS[None, :]
    return float(np.sum(w * f(x1, x2)))


def exp_e3(f, mean1, mean2, mean3, nodes=48):
    """E[f(W1, W2, W3)] for independent exponentials."""
    x, wt = np.polynomial.laguerre.laggauss(nodes)
    x1 = (mean1 * x)[:, None, None]
    x2 = (mean2 * x)[None, :, None]
    x3 = (mean3 * x)[None, None, :]
    w = wt[:, None, None] * wt[None, :, None] * wt[None, None, :]
    return float(np.sum(w * f(x1, x2, x3)))


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
