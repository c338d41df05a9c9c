"""Spacetime lattice sampling, central differences, and Riemann-sum quadrature.

A grid axis with a periodic flag generates N points covering one full
period (no duplicated endpoint), which makes the plain Riemann sum exact
for commensurate trigonometric integrands and lets the difference
stencil wrap.  Layout is row-major (it, ix, iy, iz) and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import flag, require, sequence, vector
from .spinor import FourVector

@dataclass(frozen=True, slots=True)
class SpacetimeGrid:
    """Rectangular lattice: origin plus counts x spacing per axis."""

    origin: FourVector
    spacing: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]
    periodic: tuple[bool, bool, bool, bool] = (False, False, False, False)

    def __post_init__(self) -> None:
        spacing = vector(self.spacing, "spacing", 4)
        counts = vector(self.counts, "counts", 4, integral=True)
        periodic = tuple(flag(p, "periodic") for p in sequence(self.periodic, "periodic", 4))
        if not all(s > 0 for s in spacing):
            raise ValueError(f"grid spacings must be finite and positive, got {spacing}")
        if not np.isfinite(self.origin.as_array()).all():
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if any(c < 1 for c in counts):
            raise ValueError("grid counts must be >= 1")
        o = self.origin
        if not all(math.isfinite(a + s * (n - 1))
                   for a, s, n in zip((o.t, o.x, o.y, o.z), spacing, counts)):
            raise ValueError("grid extent overflows: origin + spacing * (counts - 1) must be finite")
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "periodic", periodic)

    def axis(self, i: int) -> np.ndarray:
        o = self.origin.as_array()[i]
        return o + self.spacing[i] * np.arange(self.counts[i])

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self.axis(i) for i in range(4))

    @property
    def cell_volume(self) -> float:
        """Spatial cell volume dx*dy*dz."""
        return self.spacing[1] * self.spacing[2] * self.spacing[3]

    def point(self, it: int, ix: int, iy: int, iz: int) -> FourVector:
        ts, xs, ys, zs = self.axes()
        return FourVector(ts[it], xs[ix], ys[iy], zs[iz])

    def refined(self) -> "SpacetimeGrid":
        """Grid with all spacings halved.

        Periodic axes keep their extent (counts multiply, origin fixed);
        non-periodic axes keep their counts, so their window shrinks
        about its own center.  Either way the difference stencils probe
        the same region of the field with a halved step.  A 1-point axis
        is reduced, periodic or not: it keeps its count and its origin.
        """
        spacing = tuple(s / 2 for s in self.spacing)
        counts = []
        origin = list(self.origin.as_array())
        for i, (n, per) in enumerate(zip(self.counts, self.periodic)):
            if per and n > 1:
                counts.append(2 * n)
            else:
                counts.append(n)
                center = origin[i] + 0.5 * (n - 1) * self.spacing[i]
                origin[i] = center - 0.5 * (n - 1) * spacing[i]
        return SpacetimeGrid(FourVector.from_array(origin), spacing, tuple(counts), self.periodic)

    def to_dict(self) -> dict:
        return {
            "origin": self.origin.as_array().tolist(),
            "spacing": list(self.spacing),
            "counts": list(self.counts),
            "periodic": list(self.periodic),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpacetimeGrid":
        return cls(
            spacing=require(d, "spacing"),
            counts=require(d, "counts"),
            origin=FourVector(*vector(d.get("origin", (0.0, 0.0, 0.0, 0.0)), "origin", 4)),
            periodic=d.get("periodic", (False, False, False, False)),
        )


@dataclass(frozen=True, slots=True)
class SampledField:
    """Field values on a grid, stored as symplectic arrays of shape
    (nt, nx, ny, nz, 4)."""

    grid: SpacetimeGrid
    psi0: np.ndarray
    psi1: np.ndarray

    def __post_init__(self) -> None:
        shape = self.grid.counts + (4,)
        for name in ("psi0", "psi1"):
            a = np.ascontiguousarray(getattr(self, name), dtype=complex)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def sample(field, grid: SpacetimeGrid) -> SampledField:
    """Evaluate a field on every lattice point through its `evaluate_grid`."""
    return field.evaluate_grid(grid)


# Pairs per block of `_plane_wave_sum`: the (t, x, y) phase block holds
# t*x*y points times at most this many pairs, whatever the pair count.
_MAX_PAIRS = 1000


def _plane_wave_sum(axes, k: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_p coef_p exp(i k_p.x) on the product of four coordinate arrays
    (a grid's `axes()`), shape counts + (C,), for P lowered four-momenta
    `k` (P, 4) and their complex coefficients `coef` (P, C).

    exp(i k.x) factorizes by axis, so the exponentials are taken on the
    axes only; the (t, x, y) phase block is then contracted against the
    z phases times the coefficients in one matrix product per block of
    _MAX_PAIRS pairs, the blocks summed in order.
    """
    counts = tuple(len(a) for a in axes)
    nt, nx, ny, nz = counts
    c = coef.shape[1]
    out = None
    # one (empty) block when there are no pairs, so the sum reads zero
    for start in range(0, max(len(k), 1), _MAX_PAIRS):
        kb, cb = k[start:start + _MAX_PAIRS], coef[start:start + _MAX_PAIRS]
        et, ex, ey, ez = (np.exp(1j * np.multiply.outer(a, kb[:, i])) for i, a in enumerate(axes))
        zc = (ez.T[:, :, None] * cb[:, None, :]).reshape(len(kb), nz * c)
        # a temporary, so one phase block is alive at a time
        block = (et[:, None, None] * ex[:, None] * ey).reshape(nt * nx * ny, len(kb)) @ zc
        # the first block is taken as it is: one block gives the bytes of one product
        out = block if out is None else out + block
    return out.reshape(counts + (c,))


def central_diff(values: np.ndarray, axis: int, spacing: float, periodic: bool = False) -> np.ndarray:
    """Second-order central difference (f[+1] - f[-1]) / 2h along `axis`.

    Periodic axes wrap the stencil; otherwise boundary slots are NaN so
    downstream reductions can mask them out.  Requires >= 3 points.
    """
    n = values.shape[axis]
    if n < 3:
        raise ValueError(f"central difference needs >= 3 points on axis {axis}, got {n}")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    def along(start, stop):
        index = [slice(None)] * values.ndim
        index[axis] = slice(start, stop)
        return tuple(index)

    out = np.empty(values.shape, dtype=np.result_type(values, float))
    np.subtract(values[along(2, None)], values[along(None, -2)], out=out[along(1, -1)])
    if periodic:
        np.subtract(values[along(1, 2)], values[along(-1, None)], out=out[along(0, 1)])
        np.subtract(values[along(0, 1)], values[along(-2, -1)], out=out[along(-1, None)])
    else:
        out[along(0, 1)] = np.nan
        out[along(-1, None)] = np.nan
    out /= 2.0 * spacing
    return out


def integrate_spatial(values: np.ndarray, grid: SpacetimeGrid):
    """Riemann sum times the cell volume over a fixed-time slice of the
    spatial lattice shape (nx, ny, nz): a float, or a complex for
    complex values."""
    expected = grid.counts[1:]
    if values.shape != expected:
        raise ValueError(f"expected shape {expected}, got {values.shape}")
    return (values.sum(axis=(0, 1, 2)) * grid.cell_volume).item()
