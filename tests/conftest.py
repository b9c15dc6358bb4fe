"""Shared test fixtures."""

import pytest
from mpmath import mp


def _kron(a, b):
    """Kronecker product of two mpmath matrices."""
    out = mp.zeros(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def gksl_state(rho0, gamma_plus, gamma_minus, t):
    """(ee, gg, eg) of exp(L t) rho0 for the GKSL Liouvillian L, at 30 digits.

    L is built from the jump operators sqrt(Gamma_-) sigma_- and
    sqrt(Gamma_+) sigma_+, with D[c] rho = c rho c^+ - {c^+ c, rho} / 2, in
    the basis (|e>, |g>).  vec stacks the columns of rho, so that
    vec(A rho B) = (B^T kron A) vec(rho), and exp(L t) is `mpmath.expm`.
    Nothing here shares code with `gravatom.lindblad`.
    """
    with mp.workdps(30):
        one = mp.eye(2)
        lower = mp.matrix([[0, 0], [1, 0]])  # sigma_- = |g><e|
        generator = mp.zeros(4, 4)
        for rate, jump in ((gamma_minus, lower), (gamma_plus, lower.T)):
            c = mp.sqrt(mp.mpf(rate)) * jump
            n = c.H * c
            generator += _kron(c.H.T, c) - (_kron(one, n) + _kron(n.T, one)) / 2
        eg = mp.mpc(rho0.eg)
        vec = mp.matrix([mp.mpf(rho0.ee), mp.conj(eg), eg, mp.mpf(rho0.gg)])
        out = mp.expm(generator * mp.mpf(t)) * vec
        return float(mp.re(out[0])), float(mp.re(out[3])), complex(out[2])


@pytest.fixture
def gksl_reference():
    return gksl_state
