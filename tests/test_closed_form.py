"""The closed form of `build_u_spinor` in exact arithmetic.

The spatial momentum k and the mass m are symbols, and so is
E = |k.t|, with the mass shell E^2 = |k|^2 + m^2 as the one relation
between them: an expression vanishes on the shell when the numerator
of its reduced form leaves no remainder on division by that relation.
Each branch shape of `solutions._U_COLUMNS` assembles u from chi and
(sigma.k) chi / (E + m) as the builder does.  For both mass signs, both
frequency signs and both spins, and at m = 0 in the helicity basis,
(slashed(k) - mass_sign*m) u vanishes exactly, and the builder's
rescaling gives u^dag u = E or E/m exactly.  The spin sums of the
scaled spinors are the frequency projectors, per half the two spins at
both frequency signs are complete, and the residues of the propagator
at k.t = +-E are the spin sums."""

import itertools

import pytest

from qdirac import solutions
from qdirac.spinor import GAMMA, PAULI

sp = pytest.importorskip("sympy")

KVEC = KX, KY, KZ = sp.symbols("k_x k_y k_z", real=True)
M = sp.Symbol("m", positive=True)
E = sp.Symbol("E", positive=True)  # |k.t|


def _exact(a) -> "sp.Matrix":
    """A matrix of entries 0, +-1 and +-i, exactly."""
    return sp.Matrix([[int(z.real) + sp.I * int(z.imag) for z in row] for row in a])


SIGMA_K = sum((k * _exact(p) for k, p in zip(KVEC, PAULI)), sp.zeros(2, 2))
GAMMA0 = _exact(GAMMA[0])
SLASHED_K_SPATIAL = sum((-k * _exact(g) for k, g in zip(KVEC, GAMMA[1:])), sp.zeros(4, 4))
GAMMA5 = sp.I * GAMMA0 * _exact(GAMMA[1]) * _exact(GAMMA[2]) * _exact(GAMMA[3])


def _zero_on_shell(expr, m) -> bool:
    numerator, _ = sp.fraction(sp.together(sp.expand(expr)))
    return sp.rem(sp.expand(numerator), E**2 - KX**2 - KY**2 - KZ**2 - m**2, E) == 0


def _check_closed_form(m, mass_sign, freq, chi, targets):
    """The spinor of one branch shape, unscaled, after checking it."""
    lower = SIGMA_K * chi / (E + m)
    column = [*chi, *lower, *(-lower)]
    u = sp.Matrix([column[c] for c in solutions._U_COLUMNS[2 * (freq > 0) + ((mass_sign > 0) == (freq > 0))]])
    kernel = freq * E * GAMMA0 + SLASHED_K_SPATIAL - mass_sign * m * sp.eye(4)
    assert all(_zero_on_shell(r, m) for r in kernel * u)
    # u^dag u = 2E chi^dag chi / (E + m) > 0, so the builder's scale
    # sqrt(target / u^dag u) is real, and the built u^dag u is the target
    norm2, closed = (u.H * u)[0], 2 * E * (chi.H * chi)[0] / (E + m)
    assert _zero_on_shell(norm2 - closed, m)
    for target in targets:
        assert _zero_on_shell(target / closed * norm2 - target, m)
    return u


@pytest.mark.parametrize("mass_sign, freq, spin", itertools.product((1, -1), (1, -1), (0, 1)))
def test_massive_closed_form_is_in_the_kernel_with_either_norm(mass_sign, freq, spin):
    _check_closed_form(M, mass_sign, freq, sp.eye(2)[:, spin], (E, E / M))


@pytest.mark.parametrize("mass_sign, freq, helicity", itertools.product((1, -1), (1, -1), (1, -1)))
def test_massless_closed_form_names_the_helicity(mass_sign, freq, helicity):
    zero = sp.Integer(0)
    # the eigenvectors of sigma.k, unnormalized: the builder's rescaling drops the norm of chi
    chi = sp.Matrix([E + KZ, KX + sp.I * KY] if helicity > 0 else [-KX + sp.I * KY, E + KZ])
    assert all(_zero_on_shell(r, zero) for r in SIGMA_K * chi - helicity * E * chi)
    u = _check_closed_form(zero, mass_sign, freq, chi, (E,))
    # the chirality is helicity * sign(k.t)
    assert all(_zero_on_shell(r, zero) for r in GAMMA5 * u - helicity * freq * u)


# --- spin sums and completeness -------------------------------------------------
#
# A mode expansion per symplectic half needs more than kernel membership:
# the spin sums give the projectors onto each frequency, and completeness
# says the two spins at +-E span C^4.  ubar = u^dag gamma^0.

SPINS = [sp.eye(2)[:, s] for s in (0, 1)]
HELICITIES = [sp.Matrix([E + KZ, KX + sp.I * KY]), sp.Matrix([-KX + sp.I * KY, E + KZ])]


def _slashed_k(freq) -> "sp.Matrix":
    return freq * E * GAMMA0 + SLASHED_K_SPATIAL


def _outer_sum(m, mass_sign, freq, chis, target) -> "sp.Matrix":
    """sum over the spinors chi of u u^dag, each u scaled to u^dag u = target
    as the builder scales it."""
    total = sp.zeros(4, 4)
    for chi in chis:
        u = _check_closed_form(m, mass_sign, freq, chi, (target,))
        total += u * u.H * target / (2 * E * (chi.H * chi)[0] / (E + m))
    return total


def _zero_matrix_on_shell(a, m) -> bool:
    return all(_zero_on_shell(r, m) for r in a)


@pytest.mark.parametrize("mass_sign, freq", itertools.product((1, -1), (1, -1)))
def test_massive_spin_sum_is_the_frequency_projector(mass_sign, freq):
    # with u^dag u = E/m: sum_s u ubar = sign(k.t) (slashed(k) + mass_sign m) / 2m,
    # and each ubar u = sign(k.t) mass_sign
    total = _outer_sum(M, mass_sign, freq, SPINS, E / M)
    assert _zero_matrix_on_shell(total * GAMMA0 - freq * (_slashed_k(freq) + mass_sign * M * sp.eye(4)) / (2 * M), M)
    for chi in SPINS:
        ubar_u = (_outer_sum(M, mass_sign, freq, [chi], E / M) * GAMMA0).trace()
        assert _zero_on_shell(ubar_u - freq * mass_sign, M)


@pytest.mark.parametrize("mass_sign, freq", itertools.product((1, -1), (1, -1)))
def test_massless_helicity_sum_is_half_slashed_k(mass_sign, freq):
    # at m = 0 with u^dag u = E in the helicity basis: sum_h u ubar = sign(k.t) slashed(k) / 2
    zero = sp.Integer(0)
    total = _outer_sum(zero, mass_sign, freq, HELICITIES, E)
    assert _zero_matrix_on_shell(total * GAMMA0 - freq * _slashed_k(freq) / 2, zero)


@pytest.mark.parametrize("mass_sign", [1, -1])
@pytest.mark.parametrize("m, target", [(M, E / M), (M, E), (sp.Integer(0), E)],
                         ids=["E_over_m", "E", "massless"])
def test_two_spins_at_both_frequencies_are_complete(mass_sign, m, target):
    # per half: sum over 2 spins x 2 frequency signs of u u^dag = target * 1,
    # so the four spinors have rank 4 and form a basis of C^4
    chis = SPINS if m != 0 else HELICITIES
    total = _outer_sum(m, mass_sign, 1, chis, target) + _outer_sum(m, mass_sign, -1, chis, target)
    assert _zero_matrix_on_shell(total - target * sp.eye(4), m)


# --- propagator residues ----------------------------------------------------------

W = sp.Symbol("omega", real=True)  # k.t off the shell


def _propagator_residue(m, mass_sign, freq) -> "sp.Matrix":
    """The residue in k.t at k.t = freq * E of S(k) = (slashed(k) + mass_sign m) / (k^2 - m^2).
    At fixed spatial momentum k^2 - m^2 = (k.t)^2 - |k|^2 - m^2 = (k.t)^2 - E^2."""
    numerator = W * GAMMA0 + SLASHED_K_SPATIAL + mass_sign * m * sp.eye(4)
    return ((W - freq * E) * numerator / (W**2 - E**2)).applyfunc(sp.cancel).subs(W, freq * E)


@pytest.mark.parametrize("mass_sign, freq", itertools.product((1, -1), (1, -1)))
def test_propagator_residue_is_the_spin_sum(mass_sign, freq):
    # (m/E) sum_s u ubar with u^dag u = E/m, and (1/E) sum_s u ubar with
    # u^dag u = E: the signs of the spin sum and of 1/(2 k.t) cancel
    residue = _propagator_residue(M, mass_sign, freq)
    for target, weight in ((E / M, M / E), (E, 1 / E)):
        spin_sum = _outer_sum(M, mass_sign, freq, SPINS, target) * GAMMA0
        assert _zero_matrix_on_shell(residue - weight * spin_sum, M)


@pytest.mark.parametrize("mass_sign, freq", itertools.product((1, -1), (1, -1)))
def test_massless_propagator_residue_is_the_helicity_sum(mass_sign, freq):
    # at m = 0 with u^dag u = E = |k| in the helicity basis: (1/|k|) sum_h u ubar
    zero = sp.Integer(0)
    spin_sum = _outer_sum(zero, mass_sign, freq, HELICITIES, E) * GAMMA0
    assert _zero_matrix_on_shell(_propagator_residue(zero, mass_sign, freq) - spin_sum / E, zero)
