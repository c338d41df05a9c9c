"""Scalar quaternion arithmetic and the pointwise real inner product.

Conventions: q = w + x*i + y*j + z*k with the anti-commuting units
i*j = k, j*k = i, k*i = j and i**2 = j**2 = k**2 = -1.  In symplectic
form q = z0 + z1*j with complex z0 = w + x*i and z1 = y + z*i.  Moving a
complex scalar through j conjugates it (j*c = conj(c)*j); that single
rule is the source of every conjugation appearing elsewhere in this
package.

All values are immutable and every function is pure, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Quaternion:
    """One quaternion with real components (w, x, y, z).

    Constructors reject non-finite components.
    """

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("w", "x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"quaternion component {name!r} must be finite, got {v}")
            object.__setattr__(self, name, v)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.w == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0


@dataclass(frozen=True, slots=True)
class ComplexPair:
    """Symplectic components (z0, z1) of a quaternion q = z0 + z1*j."""

    z0: complex
    z1: complex

    def __post_init__(self) -> None:
        for name in ("z0", "z1"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise ValueError(f"symplectic component {name!r} must be finite, got {v}")
            object.__setattr__(self, name, v)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product via the component table."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def mul_symplectic(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product through the symplectic pairs.

    (z0 + z1 j)(w0 + w1 j) = (z0 w0 - z1 conj(w1)) + (z0 w1 + z1 conj(w0)) j.
    Kept as an independent algorithm so the two product routes can be
    cross-checked against each other.
    """
    a = symplectic_split(p)
    b = symplectic_split(q)
    r0 = a.z0 * b.z0 - a.z1 * b.z1.conjugate()
    r1 = a.z0 * b.z1 + a.z1 * b.z0.conjugate()
    return from_symplectic(ComplexPair(r0, r1))


def conjugate(q: Quaternion) -> Quaternion:
    return q.conjugate()


def right_mul_i(q: Quaternion) -> Quaternion:
    """Return q*i without forming a general product.

    In symplectic terms (z0, z1) -> (i*z0, -i*z1); the sign flip on the
    j-half is what distinguishes right from left multiplication by i.
    """
    return Quaternion(-q.x, q.w, q.z, -q.y)


def real_inner_pointwise(p: Quaternion, q: Quaternion) -> float:
    """Scalar part of (p q* + p* q)/2, i.e. the Euclidean dot of the
    4-component real vectors.  Symmetric, bilinear and positive definite."""
    return p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z


def is_parallel(p: Quaternion, q: Quaternion, tol: float) -> bool:
    """True when the imaginary part of p q* vanishes up to tol.

    The tolerance is relative: the imaginary norm is compared against
    tol * |p| * |q|, so the test behaves uniformly across magnitudes.
    The zero quaternion counts as parallel to everything.
    """
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    v = mul(p, q.conjugate())
    imag = math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)
    return imag <= tol * p.norm() * q.norm()


def symplectic_split(q: Quaternion) -> ComplexPair:
    return ComplexPair(complex(q.w, q.x), complex(q.y, q.z))


def from_symplectic(pair: ComplexPair) -> Quaternion:
    return Quaternion(pair.z0.real, pair.z0.imag, pair.z1.real, pair.z1.imag)
