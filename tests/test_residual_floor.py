"""The exact residual floor of the stored float terms, at 50 digits.

Every other residual oracle runs in floats.  Here the lowered momentum
kl and the weighted spinor c*u of each stored term are taken as exact
numbers, and the term residual sign*slashed(kl) c*u - m c*u of
`verify.term_residuals` is formed in mpmath at 50 digits, where every
product of two floats and every sum of a few of them is exact.  With one
plane wave per half, the field residual has the same norm at every
point, sqrt(|r0|^2 + |r1|^2), so this is the exact value that the float
`dirac_residual` estimates at its sample points.

Over |k| from 1e-6 to 1e6 and m from 1e-8 to 1e4 the floor sits within
a few eps * k_scale * u_scale, the float residual within as much of it,
and both far below the certification bound RESIDUAL_TOL * k_scale *
u_scale, which is what a per-record bound can be built on."""

import numpy as np
import pytest

from qdirac import dirac_residual, enumerate_massive_set, enumerate_massless_theta0_set
from qdirac.spinor import GAMMA
from qdirac.verify import HALF_MASS_SIGN, RESIDUAL_TOL, default_points

mp = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
POINTS = default_points()
# the nonzero entries (column, value) of each row of each gamma matrix: 0, +-1 or +-i
GAMMA_ROWS = [[[(c, mp.mpc(g.real, g.imag)) for c, g in enumerate(row) if g] for row in gamma]
              for gamma in GAMMA]
D0, D1 = np.array([0.36, -0.48, 0.8]), np.array([-0.6, 0.0, 0.8])


def _exact_term_residual(kl, w, sign, mass):
    """|sign * slashed(kl) w - m w| of one term, at 50 digits."""
    with mp.workdps(50):
        w = [mp.mpc(z.real, z.imag) for z in w]
        total = mp.mpf(0)
        for r in range(4):
            acc = -mp.mpf(mass) * w[r]
            for mu in range(4):
                for c, g in GAMMA_ROWS[mu][r]:
                    acc += sign * g * mp.mpf(kl[mu]) * w[c]
            total += abs(acc) ** 2
        return mp.sqrt(total)


def _exact_residual(field) -> float:
    """The field residual's norm, the same at every point for one term per half."""
    with mp.workdps(50):
        squares = [_exact_term_residual(kl[0], w[0], sign, field.mass) ** 2
                   for sign, (kl, w) in zip(HALF_MASS_SIGN, field.stacked_terms())]
        return float(mp.sqrt(sum(squares)))


def _scale(field) -> float:
    """k_scale * u_scale of the field's certification bound."""
    k_scale = max(1.0, field.mass, *(float(np.abs(kl).max()) for kl, _ in field.stacked_terms()))
    return k_scale * field._scales[0]


def _sets():
    for k in 10.0 ** np.arange(-6, 7, 2):
        kvec0, kvec1 = tuple(k * D0), tuple(k * D1)
        yield enumerate_massless_theta0_set(kvec0, kvec1, 0.7)
        for m in 10.0 ** np.arange(-8, 5, 2):
            yield enumerate_massive_set(m, kvec0, kvec1, 0.7)
            yield enumerate_massive_set(m, kvec0, kvec1, 1.2, spin_axis="momentum")


def test_exact_residual_floor_sits_far_below_the_certification_bound():
    for sols in _sets():
        for f, got in zip(sols, dirac_residual(sols, points=POINTS)):
            assert all(len(kl) == 1 for kl, _ in f.stacked_terms())
            exact, scale = _exact_residual(f), _scale(f)
            # the stored terms sit within a few rounding units of the kernel ...
            assert exact <= 2 * EPS * scale, (f.label, f.mass, f.k0)
            # ... the float residual reads that floor to within as much ...
            assert abs(got - exact) <= 2 * EPS * scale, (f.label, f.mass, f.k0)
            # ... and the certification bound is more than 2000 times the floor
            assert exact <= 5e-4 * RESIDUAL_TOL * scale


def test_exact_floor_at_a_large_mass_catalog():
    # the catalog {"mass": 1e4, "kvec0": [3000, -7000, 2000], "kvec1": [0, 1, 0],
    # "theta0": 0.5} reads 1.53e-12 in floats, over an absolute 1e-12
    sols = enumerate_massive_set(1e4, (3000.0, -7000.0, 2000.0), (0.0, 1.0, 0.0), 0.5)
    floats = dirac_residual(sols, points=POINTS)
    exact = [_exact_residual(f) for f in sols]
    assert f"{max(floats):.3g}" == "1.53e-12"
    assert f"{max(exact):.3g}" == "1.29e-12"
    # the largest kernel residual of a stored spinor u0, before its weight cos(theta0)
    unweighted = max(_exact_term_residual(f.k0.lowered(), f.u0, HALF_MASS_SIGN[0], f.mass) for f in sols)
    assert f"{float(unweighted):.3g}" == "1.49e-12"
    # about 0.4 eps * k_scale * u_scale: no absolute tolerance near 1e-12 holds at this scale
    assert all(0.3 * EPS * _scale(f) <= e <= 0.5 * EPS * _scale(f) for f, e in zip(sols, exact))
