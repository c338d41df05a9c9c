"""Dirac matrices, Lorentz four-vectors and quaternion-valued 4-spinors.

The gamma matrices are fixed in the standard (Dirac) representation and
the metric signature is (+,-,-,-).  A quaternionic spinor `QSpinor4` is
stored symplectically as a pair of complex 4-spinors (psi0, psi1)
meaning ``psi0 + psi1*j`` componentwise; `QSpinor4.quaternions` and
`QSpinor4.from_quaternions` convert to and from four `Quaternion`s.
`GAMMA` (4, 4, 4) and `PAULI` (3, 2, 2) are the one read-only copy of
each constant.  Nothing here acts on a spinor: the half sign table of
the field equation is `verify.HALF_MASS_SIGN`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .qalg import Quaternion


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, order="C")
    a.setflags(write=False)
    return a


PAULI = _readonly([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

_ID2, _ZERO2 = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
GAMMA = _readonly([np.block([[_ID2, _ZERO2], [_ZERO2, -_ID2]]),
                   *(np.block([[_ZERO2, p], [-p, _ZERO2]]) for p in PAULI)])

# beta = gamma^0 is diagonal; the adjoint pairings need only its diagonal.
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
    """Dirac matrix gamma^mu, mu in 0..3 (a read-only view of GAMMA)."""
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


def _axis_norm(v, name: str, zero: str) -> tuple[np.ndarray, float]:
    """The finite nonzero vector `v` (3,) as floats, and its norm; a vector whose squares overflow
    or underflow past the smallest normal float is divided by its largest component first.
    Raises ValueError, with the message `zero` for a zero vector."""
    a = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not sys.float_info.min ** 0.5 <= norm < math.inf:
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite, got {a.tolist()}")
        if a.any():
            a = a / np.abs(a).max()
            norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError(zero)
    if a.shape != (3,):  # last, so a vector failing a check above keeps its message
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    return a, norm


def helicity_matrix(kvec) -> np.ndarray:
    """Spin projection onto the momentum direction: (1/2) sigma.k_hat in
    both 2x2 blocks.  Eigenvalues are +-1/2, each doubly degenerate."""
    k, norm = _axis_norm(kvec, "three-momentum", "helicity is undefined for zero three-momentum")
    sk = sum(k[ell] * PAULI[ell] for ell in range(3)) / norm
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = 0.5 * sk
    out[2:, 2:] = 0.5 * sk
    return out


def spin_basis(axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal 2-spinor eigenvectors (chi_plus, chi_minus) of
    sigma.n_hat for a quantization axis n.  None means the z axis, which
    returns the exact standard basis (1,0) and (0,1)."""
    n, norm = _axis_norm((0.0, 0.0, 1.0) if axis is None else axis, "spin axis", "spin axis must be nonzero")
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
