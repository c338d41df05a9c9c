"""Complex 4-spinors, Dirac matrices, and quaternion-valued 4-spinors.

The gamma matrices are fixed in the standard (Dirac) representation and
the metric signature is (+,-,-,-).  Quaternionic spinors are stored
symplectically as a pair of complex 4-spinors (psi0, psi1) meaning
``psi0 + psi1*j`` componentwise.  A complex matrix acting from the left
multiplies both halves without conjugation, because a left complex
scalar never crosses the j: c*(z*j) == (c*z)*j.  The right-acting
imaginary unit instead maps (psi0, psi1) -> (i*psi0, -i*psi1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qalg import Quaternion


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, order="C")
    a.setflags(write=False)
    return a


PAULI = tuple(
    _readonly(m)
    for m in (
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    )
)

_ID2 = np.eye(2, dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)

GAMMA = tuple(
    _readonly(m)
    for m in (
        np.block([[_ID2, _ZERO2], [_ZERO2, -_ID2]]),
        np.block([[_ZERO2, PAULI[0]], [-PAULI[0], _ZERO2]]),
        np.block([[_ZERO2, PAULI[1]], [-PAULI[1], _ZERO2]]),
        np.block([[_ZERO2, PAULI[2]], [-PAULI[2], _ZERO2]]),
    )
)

BETA = GAMMA[0]
# beta is diagonal; its diagonal is all the adjoint machinery needs.
BETA_DIAG = np.array([1.0, 1.0, -1.0, -1.0])

METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True, slots=True)
class FourVector:
    """Real Lorentz four-vector, components contravariant, signature (+,-,-,-)."""

    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def dot(self, other: "FourVector") -> float:
        return self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z

    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def lowered(self) -> np.ndarray:
        """Covariant components (t, -x, -y, -z)."""
        return np.array([self.t, -self.x, -self.y, -self.z])

    @classmethod
    def from_array(cls, a) -> "FourVector":
        t, x, y, z = (float(v) for v in a)
        return cls(t, x, y, z)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, f: float) -> "FourVector":
        return FourVector(f * self.t, f * self.x, f * self.y, f * self.z)

    def is_zero(self) -> bool:
        return self.t == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0


ZERO_FOUR = FourVector()


def gamma(mu: int) -> np.ndarray:
    """Dirac matrix gamma^mu, mu in 0..3 (read-only view)."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be in 0..3, got {mu}")
    return GAMMA[mu]


def slashed(v) -> np.ndarray:
    """gamma_mu v^mu = v.t*g0 - v.x*g1 - v.y*g2 - v.z*g3.

    A (4, N) array of (t, x, y, z) components gives the N matrices
    stacked, shape (N, 4, 4), each equal to that of the FourVector."""
    if isinstance(v, FourVector):
        t, x, y, z = v.t, v.x, v.y, v.z
    else:
        t, x, y, z = np.asarray(v, dtype=float)[:, :, None, None]
    return t * GAMMA[0] - x * GAMMA[1] - y * GAMMA[2] - z * GAMMA[3]


def helicity_matrix(kvec) -> np.ndarray:
    """Spin projection onto the momentum direction: (1/2) sigma.k_hat in
    both 2x2 blocks.  Eigenvalues are +-1/2, each doubly degenerate."""
    k = np.asarray(kvec, dtype=float)
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        raise ValueError("helicity is undefined for zero three-momentum")
    sk = sum(k[ell] * PAULI[ell] for ell in range(3)) / norm
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = 0.5 * sk
    out[2:, 2:] = 0.5 * sk
    return out


def spin_basis(axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal 2-spinor eigenvectors (chi_plus, chi_minus) of
    sigma.n_hat for a quantization axis n.  None means the z axis, which
    returns the exact standard basis (1,0) and (0,1)."""
    if axis is None:
        return (np.array([1.0 + 0j, 0.0 + 0j]), np.array([0.0 + 0j, 1.0 + 0j]))
    n = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValueError("spin axis must be nonzero")
    n = n / norm
    if n[0] == 0.0 and n[1] == 0.0:
        if n[2] > 0.0:
            return (np.array([1.0 + 0j, 0.0 + 0j]), np.array([0.0 + 0j, 1.0 + 0j]))
        return (np.array([0.0 + 0j, 1.0 + 0j]), np.array([-1.0 + 0j, 0.0 + 0j]))
    theta = math.acos(max(-1.0, min(1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    chi_plus = np.array([c + 0j, s * e]) + 0.0
    chi_minus = np.array([-s * e.conjugate(), c + 0j]) + 0.0
    return chi_plus, chi_minus


@dataclass(frozen=True, slots=True)
class QSpinor4:
    """Four quaternion components stored as the symplectic pair
    (psi0, psi1): two complex 4-spinors meaning psi0 + psi1*j."""

    psi0: np.ndarray
    psi1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("psi0", "psi1"):
            a = np.array(getattr(self, name), dtype=complex, order="C")
            if a.shape != (4,):
                raise ValueError(f"{name} must have shape (4,), got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_quaternions(cls, qs) -> "QSpinor4":
        qs = tuple(qs)
        if len(qs) != 4:
            raise ValueError("QSpinor4 needs exactly 4 quaternion components")
        psi0 = np.array([complex(q.w, q.x) for q in qs])
        psi1 = np.array([complex(q.y, q.z) for q in qs])
        return cls(psi0, psi1)

    @property
    def quaternions(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return tuple(
            Quaternion(z0.real, z0.imag, z1.real, z1.imag)
            for z0, z1 in zip(self.psi0, self.psi1)
        )


def apply_left(matrix: np.ndarray, s: QSpinor4) -> QSpinor4:
    """Left action of a complex 4x4 matrix on a quaternionic spinor.

    Complex entries stay on the left of each quaternion component, so
    they never cross a j and both symplectic halves transform with the
    same (unconjugated) matrix: (M psi0, M psi1).
    """
    m = np.asarray(matrix, dtype=complex)
    return QSpinor4(m @ s.psi0, m @ s.psi1)


def right_mul_i_spinor(s: QSpinor4) -> QSpinor4:
    """Componentwise right multiplication by i: (i*psi0, -i*psi1)."""
    return QSpinor4(1j * s.psi0, -1j * s.psi1)


def adjoint(s: QSpinor4) -> QSpinor4:
    """Adjoint row: quaternion-conjugate transpose followed by beta.

    The quaternion conjugate of z0 + z1*j is conj(z0) - z1*j, and beta
    flips the sign of the last two entries.  The result is returned as a
    QSpinor4 whose entries are understood as a row.
    """
    return QSpinor4(BETA_DIAG * np.conj(s.psi0), -BETA_DIAG * s.psi1)


def dirac_pair(row: QSpinor4, col: QSpinor4) -> Quaternion:
    """Quaternion-valued contraction sum_a row_a * col_a (row from
    adjoint())."""
    z0 = np.sum(row.psi0 * col.psi0 - row.psi1 * np.conj(col.psi1))
    z1 = np.sum(row.psi0 * col.psi1 + row.psi1 * np.conj(col.psi0))
    return Quaternion(z0.real, z0.imag, z1.real, z1.imag)
