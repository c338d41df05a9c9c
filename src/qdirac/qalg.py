"""Quaternion arithmetic: the `Quaternion` value and two product routes.

`mul` and `mul_symplectic` take two `Quaternion`s, returning a
`Quaternion`, or (4, N) real arrays of (w, x, y, z) components,
returning a (4, N) array; both forms run the same component formulas,
so the array form is bit-identical to the scalar form column by column.

Conventions: q = w + x*i + y*j + z*k with the anti-commuting units
i*j = k, j*k = i, k*i = j and i**2 = j**2 = k**2 = -1.  In symplectic
form q = z0 + z1*j with complex z0 = w + x*i and z1 = y + z*i; that is
how `spinor.QSpinor4` stores its components, and `mul_symplectic` is
the product in that form.  Moving a complex scalar through j conjugates
it (j*c = conj(c)*j); that single rule is the source of every
conjugation appearing elsewhere in this package.

All values are immutable and every function is pure, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _components(q) -> tuple:
    if isinstance(q, Quaternion):
        return (q.w, q.x, q.y, q.z)
    if np.ndim(q) == 0 or len(q) != 4:
        raise ValueError("expected a Quaternion or a (4, N) component array")
    return tuple(q)


def _pack(p, q, comps: tuple):
    if isinstance(p, Quaternion) and isinstance(q, Quaternion):
        return Quaternion(*comps)
    return np.stack(comps)


def mul(p, q):
    """Hamilton product via the component table."""
    pw, px, py, pz = _components(p)
    qw, qx, qy, qz = _components(q)
    return _pack(p, q, (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ))


def _cmul(ar, ai, br, bi) -> tuple:
    """(ar + ai i)(br + bi i) as the real pair CPython's complex product forms."""
    return ar * br - ai * bi, ar * bi + ai * br


def mul_symplectic(p, q):
    """Hamilton product through the symplectic pairs.

    (z0 + z1 j)(w0 + w1 j) = (z0 w0 - z1 conj(w1)) + (z0 w1 + z1 conj(w0)) j,
    with z0 = w + x i and z1 = y + z i.  Each complex product is written
    out in real parts, so arrays and scalars round alike.  Kept as an
    independent algorithm, sharing no arithmetic with `mul`, so the two
    product routes can be cross-checked against each other.
    """
    pw, px, py, pz = _components(p)
    qw, qx, qy, qz = _components(q)
    a_re, a_im = _cmul(pw, px, qw, qx)
    b_re, b_im = _cmul(py, pz, qy, -qz)
    c_re, c_im = _cmul(pw, px, qy, qz)
    d_re, d_im = _cmul(py, pz, qw, -qx)
    return _pack(p, q, (a_re - b_re, a_im - b_im, c_re + d_re, c_im + d_im))
