"""Shared test fixtures."""

import math

import pytest
from mpmath import mp

from gravatom import rates, specfun
from gravatom.oracle import integrate_adaptive, oscillatory_tail


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


def _mu2_moment(a, b):
    """integral over mu in [-1, 1] of mu^2 / sqrt(a + b*mu), for 0 <= b <= a.

    The closed antiderivative, rationalised so that nothing cancels:
    4 (3 + 4a / (a + q)) / (15 (s+ + s-)), with s+- = sqrt(a +- b) and
    q = s+ s-.
    """
    s_plus, s_minus = math.sqrt(a + b), math.sqrt(a - b)
    return 4.0 * (3.0 + 4.0 * a / (a + s_plus * s_minus)) / (15.0 * (s_plus + s_minus))


def _radial_product(y, omega):
    """(omega*y*cos - sin) * (cos + omega*y*sin), both at omega*y."""
    u = omega * y
    c, s = math.cos(u), math.sin(u)
    return (u * c - s) * (c + u * s)


def _literal_kernel_b1(R, omega):
    """B1 with the literal kernel distance sqrt(y^2 + 2R cos(theta) + R^2).

    The cross term lacks the radial variable, so the angular moment is
    ``_mu2_moment`` at a = y^2 + R^2, b = 2R (it needs R >= 2), under the
    head and tail of ``oracle.b1_numeric``.  It does not match the closed
    form of f1, as the distance-kernel record of ``verify`` states.
    """
    def integrand(y):
        moment = _mu2_moment(y * y + R * R, 2.0 * R)
        return 2.0 * math.pi * _radial_product(y, omega) * moment / (y * y)

    return integrate_adaptive(integrand, 0.0, R) + oscillatory_tail(integrand, R, math.pi / omega)


@pytest.fixture
def mu2_moment():
    return _mu2_moment


@pytest.fixture
def radial_product():
    return _radial_product


@pytest.fixture
def literal_kernel_b1():
    return _literal_kernel_b1


@pytest.fixture
def shift_f1(monkeypatch):
    """``shift_f1(offset)`` makes every caller of ``specfun.f1`` see f1 + offset.

    The callers look ``specfun.f1`` up when they run, so the shift reaches the
    rate bracket and every reference of the verification report alike.
    """
    f1 = specfun.f1

    def shift(offset):
        monkeypatch.setattr(specfun, "f1", lambda x: f1(x) + offset)

    return shift


@pytest.fixture
def raise_in_bracket(monkeypatch):
    """``raise_in_bracket(exc)`` makes every call of ``rates.rate_bracket`` raise ``exc``.

    As with ``shift_f1``, the callers look the function up when they run, so
    the report's own calls and those of ``rates.build_rate_set`` both raise.
    """

    def raise_(exc):
        def bracket(x, phi, sin2psi):
            raise exc

        monkeypatch.setattr(rates, "rate_bracket", bracket)

    return raise_
