import numpy as np
import pytest

from qdirac.qalg import I, ONE, Quaternion, mul
from qdirac.spinor import (
    BETA_DIAG,
    GAMMA,
    PAULI,
    FourVector,
    METRIC_DIAG,
    QSpinor4,
    gamma,
    helicity_matrix,
    slashed,
    spin_basis,
)
from qdirac.solutions import build_u_spinor
from helpers import (
    adjoint_pairing, apply_left, matrix_rank, random_null_fourvector, spinor_quaternions,
)

EYE = np.eye(4)


# --- gamma matrices --------------------------------------------------------

def test_gamma0_is_beta():
    assert np.array_equal(gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma_matrices_frozen_values():
    g1 = np.array([
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ], dtype=complex)
    g2 = np.array([
        [0, 0, 0, -1j],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [-1j, 0, 0, 0],
    ], dtype=complex)
    g3 = np.array([
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [-1, 0, 0, 0],
        [0, 1, 0, 0],
    ], dtype=complex)
    assert np.array_equal(gamma(1), g1)
    assert np.array_equal(gamma(2), g2)
    assert np.array_equal(gamma(3), g3)


def test_gamma_squares():
    assert np.array_equal(gamma(0) @ gamma(0), EYE)
    for ell in (1, 2, 3):
        assert np.array_equal(gamma(ell) @ gamma(ell), -EYE)


def test_clifford_anticommutators_exact():
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
            want = 2.0 * (METRIC_DIAG[mu] if mu == nu else 0.0) * EYE
            assert np.array_equal(anti, want), (mu, nu)


def test_gamma_index_range():
    with pytest.raises(ValueError):
        gamma(4)
    with pytest.raises(ValueError):
        gamma(-1)


def test_gamma_is_readonly():
    with pytest.raises(ValueError):
        gamma(0)[0, 0] = 5.0


def test_dirac_constants_are_one_readonly_array_each():
    assert GAMMA.shape == (4, 4, 4) and PAULI.shape == (3, 2, 2)
    assert not GAMMA.flags.writeable and not PAULI.flags.writeable
    # gamma(mu) is a view of GAMMA, not a copy
    assert np.shares_memory(gamma(2), GAMMA) and not gamma(2).flags.writeable


# --- slashed ----------------------------------------------------------------

def test_slashed_single_component():
    assert np.array_equal(slashed(FourVector(1, 0, 0, 0)), gamma(0))
    assert np.array_equal(slashed(FourVector(0, 1, 0, 0)), -gamma(1))


def test_slashed_determinant_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = FourVector(*rng.uniform(-2, 2, size=4))
        det = np.linalg.det(slashed(v))
        want = v.dot(v) ** 2
        assert abs(det - want) <= 1e-10 * max(abs(want), 1.0)


def test_slashed_null_vector_singular():
    rng = np.random.default_rng(4)
    for _ in range(50):
        theta = random_null_fourvector(rng)
        assert matrix_rank(slashed(theta)) == 2


def test_slashed_square():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = FourVector(*rng.uniform(-3, 3, size=4))
        sq = slashed(v) @ slashed(v)
        want = v.dot(v) * EYE
        assert np.abs(sq - want).max() <= 1e-13 * max(abs(v.dot(v)), 1.0)


# --- quaternionic spinors ----------------------------------------------------

def _random_qspinor(rng) -> QSpinor4:
    return QSpinor4(
        rng.normal(size=4) + 1j * rng.normal(size=4),
        rng.normal(size=4) + 1j * rng.normal(size=4),
    )


def _complex_as_quaternion(c: complex) -> Quaternion:
    return Quaternion(c.real, c.imag, 0.0, 0.0)


def test_qspinor_quaternion_round_trip_bit_exact():
    rng = np.random.default_rng(6)
    s = _random_qspinor(rng)
    back = QSpinor4.from_quaternions(s.quaternions)
    assert np.array_equal(s.psi0, back.psi0)
    assert np.array_equal(s.psi1, back.psi1)


# The oracle's actions on quaternion spinors (`helpers.apply_left`,
# `helpers.adjoint_pairing` and `mul` by i) against the product table and
# against the symplectic formulas the library runs.

def _quaternion_array(s: QSpinor4) -> np.ndarray:
    return spinor_quaternions(s.psi0[None], s.psi1[None])


def _halves(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return q[0, :, 0] + 1j * q[1, :, 0], q[2, :, 0] + 1j * q[3, :, 0]


def test_apply_left_identity():
    rng = np.random.default_rng(7)
    q = _quaternion_array(_random_qspinor(rng))
    assert np.array_equal(apply_left(np.eye(4, dtype=complex), q), q)


def test_apply_left_pure_complex_embedding():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    out0, out1 = _halves(apply_left(m, _quaternion_array(QSpinor4(psi0, np.zeros(4)))))
    assert np.allclose(out0, m @ psi0, rtol=0, atol=1e-13)
    assert np.array_equal(out1, np.zeros(4, dtype=complex))


def test_apply_left_against_quaternion_product_table():
    # expand every entry as a scalar quaternion product; a complex scalar
    # on the left multiplies both symplectic halves unconjugated, so the
    # action is (M psi0, M psi1)
    rng = np.random.default_rng(9)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = _random_qspinor(rng)
    comps = s.quaternions
    rows = []
    for a in range(4):
        acc = Quaternion()
        for b in range(4):
            acc = acc + mul(_complex_as_quaternion(m[a, b]), comps[b])
        rows.append(acc)
    oracle = QSpinor4.from_quaternions(rows)
    out0, out1 = _halves(apply_left(m, _quaternion_array(s)))
    assert np.array_equal(out0, oracle.psi0) and np.array_equal(out1, oracle.psi1)
    assert np.abs(out0 - m @ s.psi0).max() <= 1e-13
    assert np.abs(out1 - m @ s.psi1).max() <= 1e-13


def test_apply_left_composition():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q = _quaternion_array(_random_qspinor(rng))
    assert np.abs(apply_left(a @ b, q) - apply_left(a, apply_left(b, q))).max() <= 1e-13


def test_right_mul_i_spinor_componentwise():
    # right multiplication by i is (i psi0, -i psi1) on the halves
    rng = np.random.default_rng(11)
    s = _random_qspinor(rng)
    want = QSpinor4(1j * s.psi0, -1j * s.psi1)
    for got, q in zip(want.quaternions, s.quaternions):
        assert got == mul(q, I)


def test_right_vs_left_i_on_symplectic_halves():
    rng = np.random.default_rng(12)
    pure0 = _quaternion_array(QSpinor4(rng.normal(size=4) + 1j * rng.normal(size=4), np.zeros(4)))
    assert np.array_equal(mul(pure0, I), mul(I, pure0))
    pure1 = _quaternion_array(QSpinor4(np.zeros(4), rng.normal(size=4) + 1j * rng.normal(size=4)))
    assert np.array_equal(mul(pure1, I), -mul(I, pure1))


# --- adjoint -----------------------------------------------------------------

def test_adjoint_basis_vector():
    # adj(e_a) e_b = beta_aa delta_ab, for every unit in every slot
    for unit in (ONE, I):
        basis = [[unit if a == b else Quaternion() for b in range(4)] for a in range(4)]
        for a in range(4):
            for b in range(4):
                want = ONE * float(BETA_DIAG[a]) if a == b else Quaternion()
                assert adjoint_pairing(basis[a], basis[b]) == want


def test_adjoint_against_componentwise_formula():
    # the symplectic form: the adjoint row is (beta conj(psi0), -beta psi1),
    # since the quaternion conjugate of z0 + z1 j is conj(z0) - z1 j
    rng = np.random.default_rng(13)
    s, t = _random_qspinor(rng), _random_qspinor(rng)
    row0, row1 = BETA_DIAG * np.conj(s.psi0), -BETA_DIAG * s.psi1
    z0 = np.sum(row0 * t.psi0 - row1 * np.conj(t.psi1))
    z1 = np.sum(row0 * t.psi1 + row1 * np.conj(t.psi0))
    got = adjoint_pairing(s.quaternions, t.quaternions)
    assert (got - Quaternion(z0.real, z0.imag, z1.real, z1.imag)).norm() <= 1e-13


def test_adjoint_gamma0_density_identity():
    # real part of adj(Psi) gamma^0 Psi equals Psi^dag Psi since
    # beta gamma^0 = identity
    rng = np.random.default_rng(14)
    s = _random_qspinor(rng)
    col = [Quaternion(*c) for c in apply_left(gamma(0), _quaternion_array(s))[:, :, 0].T]
    paired = adjoint_pairing(s.quaternions, col)
    density = float(np.sum(np.abs(s.psi0) ** 2 + np.abs(s.psi1) ** 2))
    assert abs(paired.w - density) <= 1e-13 * density


# --- helicity ----------------------------------------------------------------

def test_helicity_matrix_along_z():
    assert np.array_equal(helicity_matrix((0, 0, 1)), 0.5 * np.diag([1, -1, 1, -1]).astype(complex))


def test_helicity_eigenvalues():
    rng = np.random.default_rng(15)
    for _ in range(30):
        kvec = rng.normal(size=3)
        eig = np.sort(np.linalg.eigvalsh(helicity_matrix(kvec)))
        assert np.allclose(eig, [-0.5, -0.5, 0.5, 0.5], atol=1e-13)


def test_helicity_scale_invariant():
    kvec = np.array([0.3, -1.2, 0.5])
    assert np.allclose(helicity_matrix(2 * kvec), helicity_matrix(kvec), atol=0, rtol=1e-15)


def test_helicity_zero_momentum_rejected():
    with pytest.raises(ValueError):
        helicity_matrix((0, 0, 0))


# axes whose norm overflows or underflows, each with its in-range twin
EXTREME_AXES = [((1e308, 1e308, 0.0), (1.0, 1.0, 0.0)), ((-1e308, 0.0, 1e308), (-1.0, 0.0, 1.0)),
                ((1e-320, 1e-320, 0.0), (1.0, 1.0, 0.0)), ((0.0, -5e-324, 0.0), (0.0, -1.0, 0.0)),
                ((3e-200, -4e-200, 1e-200), (3.0, -4.0, 1.0)), ((0.0, 0.0, -1e308), (0.0, 0.0, -1.0))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis, twin", EXTREME_AXES)
def test_extreme_axes_keep_their_direction(axis, twin):
    for got, want in zip(spin_basis(axis), spin_basis(twin)):
        assert np.abs(got - want).max() <= 1e-15
    assert np.abs(helicity_matrix(axis) - helicity_matrix(twin)).max() <= 1e-15
    k = FourVector(2.0, 0.0, 0.0, 3.0 ** 0.5)
    u, want = (build_u_spinor(k, 1.0, 1, "up", spin_axis=a) for a in (axis, twin))
    assert np.abs(u - want).max() <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_axes_are_rejected_by_name(bad):
    axis = (0.5, bad, 0.0)
    with pytest.raises(ValueError, match="spin axis must be finite"):
        spin_basis(axis)
    with pytest.raises(ValueError, match="spin axis must be finite"):
        build_u_spinor(FourVector(2.0, 0.0, 0.0, 3.0 ** 0.5), 1.0, 1, "up", spin_axis=axis)
    with pytest.raises(ValueError, match="three-momentum must be finite"):
        helicity_matrix(axis)


def test_zero_axis_is_rejected():
    for zero in ((0.0, 0.0, 0.0), (0.0, -0.0, 0.0)):
        with pytest.raises(ValueError, match="spin axis must be nonzero"):
            spin_basis(zero)


def test_spin_basis_eigenvectors():
    rng = np.random.default_rng(16)
    from qdirac.spinor import PAULI

    for _ in range(30):
        axis = rng.normal(size=3)
        n = axis / np.linalg.norm(axis)
        sk = sum(n[i] * PAULI[i] for i in range(3))
        up, down = spin_basis(axis)
        assert np.linalg.norm(sk @ up - up) <= 1e-14
        assert np.linalg.norm(sk @ down + down) <= 1e-14
        assert abs(np.vdot(up, down)) <= 1e-15
    z_up, z_down = spin_basis(None)
    assert np.array_equal(z_up, np.array([1, 0], dtype=complex))
    assert np.array_equal(z_down, np.array([0, 1], dtype=complex))
