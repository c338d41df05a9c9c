"""Spacetime lattice sampling, central differences, and Riemann-sum quadrature.

A grid axis with a periodic flag generates N points covering one full
period (no duplicated endpoint), which makes the plain Riemann sum exact
for commensurate trigonometric integrands and lets the difference
stencil wrap.  Layout is row-major (it, ix, iy, iz) and deterministic.
"""

from __future__ import annotations

import itertools
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
        if not all(math.isfinite(a + s * (n - 1)) for a, s, n in zip(origin, spacing, counts)):
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
        """Grid with all spacings halved.

        Periodic axes keep their extent (counts multiply, origin fixed);
        non-periodic axes keep their counts, so their window shrinks
        about its own center.  Either way the difference stencils probe
        the same region of the field with a halved step.  A 1-point axis
        is reduced, periodic or not: it keeps its count and its origin.
        """
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


# Bytes per slab of `_real_slabs`: its phase rows and its real sums.
# A slab is a run of whole (t, x) lines at one t, at least one, so it is
# bounded by this or by one line of ny rows, whatever the lattice size.
_SLAB_BYTES = 1 << 19


def _interleaved(c: np.ndarray) -> np.ndarray:
    """(P, W) complex -> (2P, W) real rows (Re c_p, -Im c_p): a (rows, P)
    complex array viewed as (rows, 2P) floats times this is Re of its
    complex product with c."""
    p, w = c.shape
    return np.conj(c, order="C").view(float).reshape(p, w, 2).transpose(0, 2, 1).reshape(2 * p, w)


def _real_slabs(axes, k: np.ndarray, coef: np.ndarray, seams=()):
    """Re sum_p coef_p exp(i k_p.x) on the product of four coordinate
    arrays, as `_plane_wave_sum(axes, k, coef).real`, streamed in slabs,
    each a run of x lines at one t: yields blocks (lines, ny, C, nz) in
    row-major (t, x) order.  A block is a view of a buffer reused for the
    next slab, so read it (or write it) before asking for the next one.

    Each `seams` entry (mu, slot, c), c of shape (P,), adds
    Re sum_p c_p exp(i k_p.x) to column 0 on the points whose index on
    axis mu is `slot`.

    The axis phases, and the z phases times the coefficients as
    interleaved (Re, -Im) rows, are formed once.  Each slab fills one
    (rows, P) complex buffer with the (t, x, y) phases and makes one real
    matrix product per block of _MAX_PAIRS pairs, the blocks summed in
    order; a z seam rides along as one more product column.  Memory is
    O(P * (nt + nx + ny + nz)) for the phases plus one slab."""
    sizes = [len(a) for a in axes]
    nt, nx, ny, nz = sizes
    pairs, c = coef.shape
    width = c * nz
    zseams = [(slot, cs) for mu, slot, cs in seams if mu == 3]
    cols = width + len(zseams)
    x = np.concatenate(axes)[:, None]
    blocks = []
    # one (empty) block when there are no pairs, so the sums read zero
    for start in range(0, max(pairs, 1), _MAX_PAIRS):
        part = slice(start, start + _MAX_PAIRS)
        # the four axis phase arrays, stacked, in one exp
        phase = np.exp(1j * (x * np.repeat(k[part].T, sizes, axis=0)))
        et, ex, ey, ez = phase[:nt], phase[nt:nt + nx], phase[nt + nx:nt + nx + ny], phase[-nz:]
        z = (coef[part, :, None] * ez.T[:, None, :]).reshape(ez.shape[1], width)
        if zseams:
            z = np.concatenate([z, *(cs[part, None] * ez[slot, :, None] for slot, cs in zseams)], axis=1)
        row_seams = [(mu, slot, _interleaved(cs[part, None] * ez.T)) for mu, slot, cs in seams if mu != 3]
        blocks.append((et, ex, ey, _interleaved(z), row_seams))
    pw = blocks[0][2].shape[1]
    step = min(nx, max(1, _SLAB_BYTES // (ny * (16 * pw + 8 * cols))))
    tx_rows = np.empty(step * pw, dtype=complex)
    phases = np.empty(step * ny * pw, dtype=complex)
    sums = np.empty(step * ny * cols)
    more = np.empty(step * ny * cols) if len(blocks) > 1 else None
    # a slab is a run of x lines at one t
    for t, x0 in itertools.product(range(nt), range(0, nx, step)):
        m = min(step, nx - x0)
        out = sums[:m * ny * cols].reshape(m, ny, cols)
        for n, (et, ex, ey, z, row_seams) in enumerate(blocks):
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
            for mu, slot, zs in row_seams:
                if mu == 2:
                    out[:, slot, :nz] += real[:, slot] @ zs
                elif mu == 0 and slot == t:
                    out[..., :nz] += real @ zs
                elif mu == 1 and x0 <= slot < x0 + m:
                    out[slot - x0, :, :nz] += real[slot - x0] @ zs
        for e, (slot, _) in enumerate(zseams):
            out[..., slot] += out[..., width + e]
        yield out[..., :width].reshape(m, ny, c, nz)


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
