"""Spacetime lattices, sampling, and `_real_slabs`, the one kernel that
sums plane waves on a lattice, in slabs: continuity sums its current
pairs of nonzero momentum difference through it, and a field samples
Psi.  No `src/` code calls the central differences and the quadrature
below; they remain as names the benchmark's traced runs wrap and as
test oracles.

A grid axis with a periodic flag generates N points covering one full
period (no duplicated endpoint), which makes the plain Riemann sum exact
for commensurate trigonometric integrands and lets the difference
stencil wrap.  Layout is row-major (it, ix, iy, iz) and deterministic.
"""
from __future__ import annotations

import itertools
import math
import sys
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
        object.__setattr__(self, "spacing", vector(self.spacing, "spacing", 4))
        object.__setattr__(self, "counts", vector(self.counts, "counts", 4, integral=True))
        object.__setattr__(self, "periodic",
                           tuple(flag(p, "periodic") for p in sequence(self.periodic, "periodic", 4)))
        self._check()

    def _check(self) -> None:
        """The range checks on fields already read as typed tuples."""
        o, spacing, counts = self.origin, self.spacing, self.counts
        origin = (o.t, o.x, o.y, o.z)
        if not all(s > 0 for s in spacing):
            raise ValueError(f"grid spacings must be finite and positive, got {spacing}")
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"grid origin must be finite, got {o}")
        if any(c < 1 for c in counts):
            raise ValueError("grid counts must be >= 1")
        # a count past the float range (a long refinement ladder doubles it
        # each level) overflows the extent too, and cannot be a float factor
        if not all(n - 1 <= sys.float_info.max and math.isfinite(a + s * (n - 1))
                   for a, s, n in zip(origin, spacing, counts)):
            raise ValueError("grid extent overflows: origin + spacing * (counts - 1) must be finite")

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
        """Grid with all spacings halved: a periodic axis keeps its extent
        (count doubled, origin fixed), any other keeps its count about its
        center, and a 1-point axis keeps its count and its origin."""
        spacing = tuple(s / 2 for s in self.spacing)
        counts = []
        o = self.origin
        origin = [o.t, o.x, o.y, o.z]
        for i, (n, per) in enumerate(zip(self.counts, self.periodic)):
            if per and n > 1:
                counts.append(2 * n)
            else:
                counts.append(n)
                center = origin[i] + 0.5 * (n - 1) * self.spacing[i]
                origin[i] = center - 0.5 * (n - 1) * spacing[i]
        # the fields are typed already, so only the range checks run: a
        # halved spacing can underflow to 0, and a doubled count can
        # push a periodic axis's extent past the float range
        grid = object.__new__(SpacetimeGrid)
        for name, value in (("origin", FourVector(*origin)), ("spacing", spacing),
                            ("counts", tuple(counts)), ("periodic", self.periodic)):
            object.__setattr__(grid, name, value)
        grid._check()
        return grid

    def to_dict(self) -> dict:
        return {
            "origin": self.origin.as_array().tolist(),
            "spacing": list(self.spacing),
            "counts": list(self.counts),
            "periodic": list(self.periodic),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpacetimeGrid":
        # periodic is passed only when given, so the dataclass holds its default
        return cls(
            spacing=require(d, "spacing"),
            counts=require(d, "counts"),
            origin=FourVector(*vector(d.get("origin", (0.0, 0.0, 0.0, 0.0)), "origin", 4)),
            **({"periodic": d["periodic"]} if "periodic" in d else {}),
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


# Pairs per block of `_real_slabs`: one matrix product per block and slab.
_MAX_PAIRS = 1000


# Bytes per slab of `_real_slabs`: its phase rows and its real sums.
# A slab is a run of whole (t, x) lines at one t, at least one, so it is
# bounded by this or by one line of ny rows, whatever the lattice size.
_SLAB_BYTES = 1 << 19


def _interleaved(c: np.ndarray) -> np.ndarray:
    """(P, W) complex -> (2P, W) real rows (Re c_p, -Im c_p): a (rows, P)
    complex array viewed as (rows, 2P) floats times this is Re of its
    complex product with c."""
    out = np.empty((2 * len(c), c.shape[1]))
    out[0::2] = c.real
    np.negative(c.imag, out=out[1::2])
    return out


def _real_slabs(axes, k: np.ndarray, coef: np.ndarray):
    """Re sum_p coef_p exp(i k_p.x) on the product of four coordinate
    arrays (a grid's `axes()`), for lowered four-momenta `k` (P, 4) and
    complex coefficients `coef` (P, C): yields blocks (lines, ny, C, nz),
    each a slab of x lines at one t, in row-major (t, x) order.  A block
    is a view of a buffer reused for the next slab, so read or write it
    before asking for the next.  Memory: O(P * (nt + nx + ny + nz)) phases
    and one slab."""
    sizes = [len(a) for a in axes]
    nt, nx, ny, nz = sizes
    pairs, c = coef.shape
    width = c * nz
    x = np.concatenate(axes)[:, None]
    blocks = []
    # one (empty) block when there are no pairs, so the sums read zero
    for start in range(0, max(pairs, 1), _MAX_PAIRS):
        part = slice(start, start + _MAX_PAIRS)
        # the four axis phase arrays, stacked, in one exp
        phase = np.exp(1j * (x * np.repeat(k[part].T, sizes, axis=0)))
        et, ex, ey, ez = phase[:nt], phase[nt:nt + nx], phase[nt + nx:nt + nx + ny], phase[-nz:]
        z = (coef[part, :, None] * ez.T[:, None, :]).reshape(ez.shape[1], width)
        blocks.append((et, ex, ey, _interleaved(z)))
    pw = blocks[0][2].shape[1]
    step = min(nx, max(1, _SLAB_BYTES // (ny * (16 * pw + 8 * width))))
    tx_rows = np.empty(step * pw, dtype=complex)
    phases = np.empty(step * ny * pw, dtype=complex)
    sums = np.empty(step * ny * width)
    more = np.empty(step * ny * width) if len(blocks) > 1 else None
    # a slab is a run of x lines at one t
    for t, x0 in itertools.product(range(nt), range(0, nx, step)):
        m = min(step, nx - x0)
        out = sums[:m * ny * width].reshape(m, ny, width)
        for n, (et, ex, ey, z) in enumerate(blocks):
            p = ey.shape[1]
            tx = tx_rows[:m * p].reshape(m, p)
            np.multiply(et[t], ex[x0:x0 + m], out=tx)
            buf = phases[:m * ny * p].reshape(m, ny, p)
            np.multiply(tx[:, None], ey, out=buf)
            real = buf.view(float)
            if n == 0:
                np.matmul(real, z, out=out)
            else:
                out += np.matmul(real, z, out=more[:out.size].reshape(out.shape))
        yield out.reshape(m, ny, c, nz)


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
