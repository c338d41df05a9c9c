"""Quantitative checks on constructed solutions: field-equation
residuals, probability currents and their conservation, grid inner
products, Gram/orthogonality structure, adjoint norms, and helicity.

Analytic derivatives are the primary residual path; finite differences
appear only in the continuity check, so convention bugs and
discretization error stay separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SampledField, SpacetimeGrid, central_diff, integrate_spatial, sample
from .spinor import BETA_DIAG, FourVector, GAMMA, helicity_matrix

# The verification bounds, stated once.  RESIDUAL_TOL: field-equation,
# dispersion, kernel, normalization, helicity and constraint residuals;
# ALGEBRA_TOL: the quaternion and gamma-matrix identity sweeps;
# QUADRATURE_TOL: grid inner products and rounding-level continuity
# defects.
RESIDUAL_TOL = 1e-12
ALGEBRA_TOL = 1e-13
QUADRATURE_TOL = 1e-10

_GAMMA_STACK = np.stack(GAMMA)
# beta @ gamma^mu, the Hermitian forms behind the four-current
_BG_STACK = np.stack([np.diag(BETA_DIAG).astype(complex) @ g for g in GAMMA])


def default_points(seed: int = 7) -> np.ndarray:
    """32 deterministic pseudo-random spacetime sample points in [-3, 3)^4."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(32, 4))


def dirac_residual(field, a: FourVector | None = None, points=None) -> float:
    """Sup-norm of the field-equation residual over sample points.

    Evaluates gamma^mu ((d_mu - a_mu i .) Psi) i - m Psi with analytic
    plane-wave derivatives; `a` is the real gauge four-vector entering
    the potential as a^mu i (the complex part is zero for every field in
    scope).
    """
    if points is None:
        points = default_points()
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    psi0, psi1, d0, d1 = field.eval_with_derivatives(pts)
    if a is not None and not a.is_zero():
        al = a.lowered()
        # left multiplication by i reaches both symplectic halves unconjugated
        d0 = d0 - al[None, :, None] * (1j * psi0)[:, None, :]
        d1 = d1 - al[None, :, None] * (1j * psi1)[:, None, :]
    # right multiplication by i: (+i, -i) on the symplectic pair
    r0 = np.einsum("mrc,pmc->pr", _GAMMA_STACK, 1j * d0) - field.mass * psi0
    r1 = np.einsum("mrc,pmc->pr", _GAMMA_STACK, -1j * d1) - field.mass * psi1
    norms = np.sqrt(np.sum(np.abs(r0) ** 2 + np.abs(r1) ** 2, axis=1))
    return float(norms.max())


def _current(psi0: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Real four-current of symplectic halves with shape (..., 4)."""
    j = np.einsum("...a,mab,...b->...m", np.conj(psi0), _BG_STACK, psi0)
    j = j + np.einsum("...a,mab,...b->...m", np.conj(psi1), _BG_STACK, psi1)
    return np.real(j)


def current(field, x: FourVector) -> FourVector:
    """Probability four-current at x (real part of the adjoint pairing).

    The time component equals the density Psi^dag Psi."""
    s = field.evaluate(x)
    return FourVector(*_current(s.psi0, s.psi1))


def current_grid(sampled: SampledField) -> np.ndarray:
    """Four-current on every lattice point, shape (nt, nx, ny, nz, 4)."""
    return _current(sampled.psi0, sampled.psi1)


@dataclass(frozen=True, slots=True)
class ContinuityReport:
    """Finite-difference continuity check on one grid."""

    grid: dict
    lhs_norm: float
    rhs_norm: float
    defect: float
    interior_points: int


def _source_term(sampled: SampledField, b) -> np.ndarray:
    """Pointwise real part of adj(Psi) b_l (gamma^l - conj(gamma^l)) j Psi.

    `b` holds the contravariant complex components b^mu; only the spatial
    (lowered) entries act, and only matrices with imaginary entries
    survive the gamma - conj(gamma) difference."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (4,):
        raise ValueError("b must be a complex 4-vector")
    psi0, psi1 = sampled.psi0, sampled.psi1
    # a large b overflows here; continuity_residual rejects the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.zeros((4, 4), dtype=complex)
        for ell in (1, 2, 3):
            m = m + (-b[ell]) * (GAMMA[ell] - np.conj(GAMMA[ell]))
        # j Psi = (-conj(psi1), conj(psi0)) symplectically
        col0 = np.einsum("ab,...b->...a", m, -np.conj(psi1))
        col1 = np.einsum("ab,...b->...a", m, np.conj(psi0))
        row0 = BETA_DIAG * np.conj(psi0)
        row1 = -BETA_DIAG * psi1
        # real part of the quaternion contraction sum_a row_a col_a
        val = np.sum(row0 * col0 - row1 * np.conj(col1), axis=-1)
    return np.real(val)


def continuity_residual(field, grid: SpacetimeGrid, b=None) -> ContinuityReport:
    """Central-difference d_mu J^mu against the complex-potential source.

    Axes with a single point are treated as reduced (the field must be
    uniform along them, so their derivative vanishes); every other axis
    needs at least three points."""
    for i, n in enumerate(grid.counts):
        if n == 2:
            raise ValueError(
                f"degenerate grid: axis {i} has 2 points; need >= 3 (or 1 for a reduced axis)"
            )
    if all(n == 1 for n in grid.counts):
        raise ValueError("degenerate grid: no differentiable axis")
    sampled = sample(field, grid)
    currents = current_grid(sampled)
    div = np.zeros(grid.counts, dtype=float)
    for axis in range(4):
        if grid.counts[axis] == 1:
            continue
        div = div + central_diff(
            currents[..., axis], axis=axis, spacing=grid.spacing[axis],
            periodic=grid.periodic[axis],
        )
    rhs = np.zeros(grid.counts) if b is None else _source_term(sampled, b)
    # the stencil leaves NaN on the boundary slots of non-periodic axes;
    # any other non-finite value is an overflow
    valid = np.zeros(grid.counts, dtype=bool)
    valid[tuple(slice(1, -1) if n > 1 and not per else slice(None)
                for n, per in zip(grid.counts, grid.periodic))] = True
    lhs_norm = float(np.abs(div[valid]).max())
    rhs_norm = float(np.abs(rhs[valid]).max())
    defect = float(np.abs(div[valid] - rhs[valid]).max())
    if not all(map(math.isfinite, (lhs_norm, rhs_norm, defect))):
        raise ValueError("continuity terms overflow: the field or the potential b is too large")
    return ContinuityReport(
        grid=grid.to_dict(),
        lhs_norm=lhs_norm,
        rhs_norm=rhs_norm,
        defect=defect,
        interior_points=int(valid.sum()),
    )


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Continuity defects across grid refinements and the fitted order."""

    h_scales: tuple[float, ...]
    levels: tuple[ContinuityReport, ...]
    fitted_order: float


def continuity_convergence(field, grid: SpacetimeGrid, levels: int = 3, b=None) -> ConvergenceReport:
    """Run the continuity check on `levels` grids, halving every spacing
    each level, and fit the convergence order of the defect."""
    if levels < 2:
        raise ValueError("need at least 2 refinement levels to fit an order")
    reports = []
    h_scales = []
    g = grid
    for lvl in range(levels):
        reports.append(continuity_residual(field, g, b=b))
        h_scales.append(2.0 ** (-lvl))
        if lvl + 1 < levels:
            g = g.refined()
    defects = np.array([r.defect for r in reports])
    if np.all(defects > 0):
        slope = np.polyfit(np.log(np.array(h_scales)), np.log(defects), 1)[0]
        order = float(slope)
    else:
        order = float("nan")
    return ConvergenceReport(tuple(h_scales), tuple(reports), order)


def inner_product_grid(psi, phi, grid: SpacetimeGrid) -> float:
    """Discrete real inner product (Phi Psi* + Phi* Psi)/2 summed over
    spinor components and spatial points at the first time slice, times
    the cell volume."""
    sa = sample(psi, grid)
    sb = sample(phi, grid)
    return _inner_from_slices(sa, sb, grid)


def _inner_from_slices(sa: SampledField, sb: SampledField, grid) -> float:
    a0 = sa.psi0[0]
    a1 = sa.psi1[0]
    b0 = sb.psi0[0]
    b1 = sb.psi1[0]
    integrand = np.sum(np.real(a0 * np.conj(b0)) + np.real(a1 * np.conj(b1)), axis=-1)
    return integrate_spatial(integrand, grid)


@dataclass(frozen=True, slots=True)
class GramReport:
    """Pairwise real inner products of a solution set on a common grid."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    max_offdiag: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": self.matrix.tolist(),
            "max_offdiag": self.max_offdiag,
        }


def gram_matrix(solutions, grid: SpacetimeGrid) -> GramReport:
    sols = list(solutions)
    sampled = [sample(s, grid) for s in sols]
    n = len(sols)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            val = _inner_from_slices(sampled[i], sampled[j], grid)
            g[i, j] = val
            g[j, i] = val
    off = g - np.diag(np.diag(g))
    max_off = float(np.abs(off).max()) if n > 1 else 0.0
    labels = tuple(getattr(s, "label", "") or f"sol{i}" for i, s in enumerate(sols))
    return GramReport(labels, g, max_off)


def adjoint_norm(sol, x: FourVector | None = None) -> float:
    """Real part of adj(Psi) Psi with both component spinors rescaled to
    the covariant normalization u^dag u = |k.t| / m, which makes the
    value read +-cos(2*theta0) by branch.  Constant in x for plane
    waves; massless components pair to zero identically."""
    if x is None:
        x = FourVector()
    u0, u1 = sol.u0, sol.u1
    if sol.mass > 0:
        u0 = u0 * math.sqrt((abs(sol.k0.t) / sol.mass) / float(np.real(np.vdot(u0, u0))))
        u1 = u1 * math.sqrt((abs(sol.k1.t) / sol.mass) / float(np.real(np.vdot(u1, u1))))
    else:
        u0 = u0 / float(np.linalg.norm(u0))
        u1 = u1 / float(np.linalg.norm(u1))
    ang = float(np.dot(x.as_array(), sol.theta.lowered())) + sol.theta0
    w0 = math.cos(ang) ** 2 * np.abs(u0) ** 2
    w1 = math.sin(ang) ** 2 * np.abs(u1) ** 2
    return float(np.sum(BETA_DIAG * (w0 + w1)))


@dataclass(frozen=True, slots=True)
class HelicityReport:
    """Per-component helicity eigenvalues; NaN where the component is
    not an eigenvector (residual reported alongside)."""

    h0: float
    h1: float
    residual0: float
    residual1: float


def helicity_check(sol) -> HelicityReport:
    values = []
    residuals = []
    for k, u in ((sol.k0, sol.u0), (sol.k1, sol.u1)):
        kvec = k.spatial()
        if float(np.linalg.norm(kvec)) == 0.0:
            raise ValueError("helicity_check needs nonzero spatial momenta")
        h = helicity_matrix(kvec)
        r = h @ u
        lam = float(np.real(np.vdot(u, r) / np.vdot(u, u)))
        resid = float(np.linalg.norm(r - lam * u) / np.linalg.norm(u))
        residuals.append(resid)
        values.append(lam if resid <= RESIDUAL_TOL else float("nan"))
    return HelicityReport(values[0], values[1], residuals[0], residuals[1])
