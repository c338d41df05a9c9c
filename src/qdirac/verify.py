"""Checks on constructed fields: field-equation residuals, probability
currents and their continuity on a lattice, grid inner products and Gram
matrices, adjoint norms and helicity.  README §continuity states the
lattice mechanism, its seam runs included.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fields import number
from .grid import SampledField, SpacetimeGrid, _real_slabs
# not called here; perfbench/spans.py wraps them under this module path
from .grid import central_diff, integrate_spatial, sample  # noqa: F401
from .spinor import BETA_DIAG, METRIC_DIAG, FourVector, GAMMA, PAULI

# The verification bounds, stated once.  RESIDUAL_TOL: field-equation,
# dispersion, kernel, normalization, helicity and constraint residuals;
# ALGEBRA_TOL: the quaternion and gamma-matrix identity sweeps;
# QUADRATURE_TOL: grid inner products and rounding-level continuity
# defects.
RESIDUAL_TOL = 1e-12
ALGEBRA_TOL = 1e-13
QUADRATURE_TOL = 1e-10

# The mass sign of each symplectic half, stated once: the spinors of half
# h lie in ker(slashed(k) - HALF_MASS_SIGN[h] m), because right
# multiplication by i is +i on the complex half and -i on the j half.
HALF_MASS_SIGN = (-1, 1)
_COMPONENTS = operator.attrgetter("t", "x", "y", "z")
# beta @ gamma^mu, the Hermitian forms behind the four-current
_BG_STACK = np.stack([np.diag(BETA_DIAG).astype(complex) @ g for g in GAMMA])


def default_points(seed: int = 7) -> np.ndarray:
    """32 deterministic pseudo-random spacetime sample points in [-3, 3)^4."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(32, 4))


def _stack_terms(fields) -> None:
    """Write one read-only table (kl, cu, owner, starts, u_scale, k_scale)
    of the terms (c, k, u) of `fields`, half 0 of every field then half 1,
    as lowered momenta kl and cu = c*u; starts[h][f] is field f's first
    row in half h, owner[n] the field of row n (None for one field), and
    u_scale[f] and k_scale[f] field f's certification scales, see
    `_PlaneWaveSum._scales`.  Each field gets `_run` (table, f).  Past
    reading each field's terms, no step runs Python code per term."""
    half0, half1, counts0, counts1 = [], [], [], []
    for f in fields:
        terms0, terms1 = f._terms()
        half0 += terms0
        half1 += terms1
        counts0.append(len(terms0))
        counts1.append(len(terms1))
    c, k, u = zip(*half0, *half1)
    # each term's (t, x, y, z), then times the metric diagonal: the lowered momenta
    kl = np.array(list(map(_COMPONENTS, k)), dtype=float) * METRIC_DIAG
    u = np.array(u, dtype=complex).reshape(-1, 4)
    cu = np.array(c, dtype=complex)[:, None] * u
    kl.setflags(write=False)
    cu.setflags(write=False)
    # per term, max(1, |c|) * math.hypot(*|u|) and the largest |component| of its momentum
    u_peak = list(map(operator.mul, map(max, itertools.repeat(1.0), map(abs, c)),
                      map(math.hypot, *np.abs(u).T.tolist())))
    k_peak = np.abs(kl).max(axis=1).tolist()
    # the half-1 rows follow every half-0 row; each half's last start ends it
    s0, s1 = starts = (list(itertools.accumulate(counts0, initial=0)),
                       list(itertools.accumulate(counts1, initial=len(half0))))
    # the index of each row's field, which only a run of several fields reads
    owner = (np.arange(2 * len(fields)) % len(fields)).repeat(counts0 + counts1) if len(fields) > 1 else None
    u_scale = [max([1.0, *u_peak[a0:b0], *u_peak[a1:b1]]) for a0, b0, a1, b1 in zip(s0, s0[1:], s1, s1[1:])]
    k_scale = [max([1.0, f.mass, *k_peak[a0:b0], *k_peak[a1:b1]])
               for f, a0, b0, a1, b1 in zip(fields, s0, s0[1:], s1, s1[1:])]
    table = kl, cu, owner, starts, u_scale, k_scale
    for n, f in enumerate(fields):
        object.__setattr__(f, "_run", (table, n))


def _stack_rows(fields):
    """Per half: the lowered momenta (M, 4), weighted spinors (M, 4) and
    owner indices (M,) of the stacked terms of `fields`, in field order.
    One field gives its own arrays, a run of consecutive fields of one
    `_stack_terms` table slices of it, uncopied, and any other list a
    concatenation."""
    if len(fields) == 1:
        return [(kl, w, np.zeros(len(kl), dtype=int)) for kl, w in fields[0].stacked_terms()]
    if not fields:
        return [(np.zeros((0, 4)), np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=int))] * 2
    table, first = fields[0]._run
    if all(f._run[0] is table and f._run[1] == n for n, f in enumerate(fields, first)):
        kl, w, owner, starts, _, _ = table
        return [(kl[h[first]:h[first + len(fields)]], w[h[first]:h[first + len(fields)]],
                 owner[h[first]:h[first + len(fields)]] - first) for h in starts]
    halves = [[f.stacked_terms()[h] for f in fields] for h in (0, 1)]
    return [(*map(np.concatenate, zip(*half)),
             np.arange(len(fields)).repeat([len(kl) for kl, _ in half])) for half in halves]


def _points(points) -> np.ndarray:
    """One (4,) point or a (P, 4) array of points as a (P, 4) float array;
    raises ValueError naming any other shape and any point that is not
    finite."""
    pts = np.asarray(points, dtype=float)
    if pts.shape == (4,):
        pts = pts[None]
    elif pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError(f"sample points must be one point (4,) or an array (P, 4), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)]
        raise ValueError(f"sample points must be finite, got {bad.tolist()}")
    return pts


def _owner_sums(points, kl, values, owner, count: int) -> np.ndarray:
    """sum exp(i k.x) value over each field's rows, shape (P, F, 4), as one
    matmul against the rows spread into their owners' columns: each
    field's sum is its one-field sum, bit for bit, in any set."""
    # BLAS rounds a matrix-vector product unlike a matrix product, so a
    # one-row table is read as the first row of its row doubled
    rows = kl.repeat(2, axis=0) if len(kl) == 1 else kl
    phases = np.exp(1j * (points @ rows.T)[:, :len(kl)])
    spread = np.zeros((len(kl), count, 4), dtype=complex)
    spread[np.arange(len(kl)), owner] = values
    return (phases @ spread.reshape(len(kl), 4 * count)).reshape(len(points), count, 4)


def term_residuals(fields, a: FourVector | None = None):
    """Per half: lowered momenta (M, 4), residual spinors (M, 4) and owner
    indices (M,) of the terms w exp(i k.x) of `fields`, each at its own
    field's mass m, in gamma^mu ((d_mu - a_mu i .) Psi) i - m Psi: by
    HALF_MASS_SIGN, -(slashed(k - a) + m) w and (slashed(k - a) - m) w."""
    masses = [f.mass for f in fields]
    # a set of one mass takes it as a number, a set of several row by row
    column = None if len(set(masses)) == 1 else np.array(masses, dtype=float)[:, None]
    return [(kl, sign * np.einsum("mrc,tm,tc->tr", GAMMA, kl if a is None else kl - a.lowered(), w)
             - (masses[0] if column is None else column[owner]) * w, owner)
            for sign, (kl, w, owner) in zip(HALF_MASS_SIGN, _stack_rows(fields))]


def dirac_residual(field, a: FourVector | None = None, points=None):
    """Sup-norm of the field-equation residual, with the real gauge
    four-vector `a` in the potential a^mu i, over the sample points
    (`default_points()` when None).  A sequence of fields of any masses
    gives one value per field, each its one-field value."""
    single = hasattr(field, "stacked_terms")
    fields = [field] if single else list(field)
    if points is None:
        points = default_points()
    pts = _points(points)
    r0, r1 = (_owner_sums(pts, kl, r, owner, len(fields)) for kl, r, owner in term_residuals(fields, a))
    norms = np.sqrt(np.sum(np.abs(r0) ** 2 + np.abs(r1) ** 2, axis=2)).max(axis=0)
    return float(norms[0]) if single else norms.tolist()


def densities(fields, points) -> np.ndarray:
    """Psi^dag Psi of every field at every point, shape (P, F)."""
    fields = list(fields)
    pts = _points(points)
    psi0, psi1 = (_owner_sums(pts, kl, w, owner, len(fields)) for kl, w, owner in _stack_rows(fields))
    return np.sum(np.abs(psi0) ** 2 + np.abs(psi1) ** 2, axis=2)


def _current(psi0: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Real four-current of symplectic halves with shape (..., 4).

    In the Dirac representation beta gamma^0 is the identity and
    beta gamma^k = [[0, sigma^k], [sigma^k, 0]], so each half adds
    |psi|^2 to J^0 and 2 Re psi_up^dag sigma^k psi_lo to J^k."""
    j = np.zeros(psi0.shape[:-1] + (4,))
    for psi in (psi0, psi1):
        sq = psi.real * psi.real + psi.imag * psi.imag
        j[..., 0] += sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3]
        # conj(up_0) * lo and conj(up_1) * lo
        a = np.conj(psi[..., 0, None]) * psi[..., 2:]
        c = np.conj(psi[..., 1, None]) * psi[..., 2:]
        j[..., 1] += 2.0 * (a[..., 1].real + c[..., 0].real)
        j[..., 2] += 2.0 * (a[..., 1].imag - c[..., 0].imag)
        j[..., 3] += 2.0 * (a[..., 0].real - c[..., 1].real)
    return j


def current(field, x: FourVector) -> FourVector:
    """Probability four-current at x (real part of the adjoint pairing).

    The time component equals the density Psi^dag Psi."""
    s = field.evaluate(x)
    return FourVector(*_current(s.psi0, s.psi1))


def current_grid(sampled: SampledField) -> np.ndarray:
    """Four-current on every lattice point, shape (nt, nx, ny, nz, 4)."""
    return _current(sampled.psi0, sampled.psi1)


def _current_pairs(field):
    """The pairs a <= b of both halves as lowered momenta k_b - k_a (P, 4)
    and coefficients adj(w_a) gamma^mu w_b (P, 4), doubled for a < b,
    whose phased real parts sum to J^mu."""
    ks, coefs, rows, weights, start = [], [], [], [], 0
    for kl, w in field.stacked_terms():
        n = len(w)
        # every ordered pair (a, b) of the half, at row start + a * n + b; rows keeps a <= b
        ks.append((kl[None] - kl[:, None]).reshape(-1, 4))
        coefs.append(np.einsum("ai,mij,bj->abm", w.conj(), _BG_STACK, w).reshape(-1, 4))
        for a in range(n):
            rows += range(start + a * n + a, start + (a + 1) * n)
            weights += [1.0] + [2.0] * (n - 1 - a)
        start += n * n
    rows = np.array(rows, dtype=int)
    return np.concatenate(ks)[rows], np.concatenate(coefs)[rows] * np.array(weights)[:, None]


def _source_matrix(b) -> np.ndarray:
    """S = A - A^T with A = beta conj(m) and m = -b_l (gamma^l - conj(gamma^l)):
    the source of the complex potential `b` (b^mu, complex) is
    Re psi1^T S psi0.  Only b^y acts: gamma^0, gamma^1 and gamma^3 are real
    in the Dirac representation, so gamma^2 alone survives the difference."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (4,):
        raise ValueError("b must be a complex 4-vector")
    m = sum(-b[ell] * (GAMMA[ell] - np.conj(GAMMA[ell])) for ell in (1, 2, 3))
    a = BETA_DIAG[:, None] * np.conj(m)
    return a - a.T


def _source_pairs(field, s: np.ndarray):
    """Re psi1^T S psi0 as a sum over the term pairs (a in half 0,
    b in half 1): v_b^T S w_a exp(i (k_a + q_b).x)."""
    (k0, w), (k1, v) = field.stacked_terms()
    coef = np.einsum("bi,ij,aj->ab", v, s, w)
    return (k0[:, None, :] + k1[None, :, :]).reshape(-1, 4), coef.reshape(-1, 1)


def analytic_divergence(field) -> float:
    """Bound on sup_x |d_mu J^mu| from the exact derivative of the pair
    form of the current: each pair picks up i (k_b - k_a)_mu.

    For on-shell terms of one half this vanishes by the Gordon identity,
    adj(u_a)(slashed(k_b) - slashed(k_a)) u_b = 0, so a value far above
    rounding marks a convention bug rather than discretization error."""
    k, coef = _current_pairs(field)
    return float(np.abs(np.sum(coef * k, axis=1)).sum())


def _interior_axes(grid: SpacetimeGrid) -> list[list[float]]:
    """Coordinates of the lattice points where the central difference is
    defined, all but the end slots of each non-periodic axis, as lists of
    the floats `grid.axis` holds there."""
    o = grid.origin
    return [[a + h * i for i in (range(1, n - 1) if n > 1 and not per else range(n))]
            for a, h, n, per in zip((o.t, o.x, o.y, o.z), grid.spacing, grid.counts, grid.periodic)]


_OVERFLOW = "continuity terms overflow: the field or the potential b is too large"


def _running_max(peak: float, values: np.ndarray) -> float:
    """max(peak, max |values|), NaN once either holds a NaN."""
    v = max(abs(float(np.maximum.reduce(values, axis=None))),
            abs(float(np.minimum.reduce(values, axis=None))))
    return v if v > peak or v != v else peak


@dataclass(frozen=True, slots=True)
class ContinuityReport:
    """Finite-difference continuity check on one grid."""

    grid: dict
    lhs_norm: float
    rhs_norm: float
    defect: float
    interior_points: int


def _ladder(field, grids, b) -> list[ContinuityReport]:
    """The continuity report of `field` on each grid of a refinement
    ladder (each grid the `refined()` one before it), against the source of
    the complex potential `b` (None for none).  Every grid is checked
    before any lattice work.  Raises ValueError for an axis of 2 points, a
    grid with no differentiated axis, a differentiated spacing whose 1 / h
    overflows (it would read 0 * inf = NaN in the symbol) and terms that
    overflow."""
    for grid in grids:
        for i, (n, h) in enumerate(zip(grid.counts, grid.spacing)):
            if n == 2:
                raise ValueError(
                    f"degenerate grid: axis {i} has 2 points; need >= 3 (or 1 for a reduced axis)"
                )
            if n > 1 and not math.isfinite(1.0 / h):
                raise ValueError(
                    f"grid spacing {h!r} on axis {i} is too small: its difference symbol overflows"
                )
        if all(n == 1 for n in grid.counts):
            raise ValueError("degenerate grid: no differentiable axis")
    s = None if b is None else _source_matrix(b)
    first = grids[0]
    # the differentiated axes, and the periodic ones among them
    diff = [mu for mu, n in enumerate(first.counts) if n > 1]
    ring = [mu for mu in diff if first.periodic[mu]]
    k, coef = _current_pairs(field)
    # a pair with q = 0 has the symbol 0 and no seam term, so it is dropped,
    # unless a coefficient is not finite: 0 * inf would read NaN
    moving = k.any(axis=1)
    if not np.isfinite(coef[~moving][:, diff]).all():
        raise ValueError(_OVERFLOW)
    k, coef = k[moving], coef[moving]
    pairs = len(k)
    # every level's coefficient columns: the divergence, summed in place,
    # and the source of b
    if s is None:
        k_both, columns = k, np.zeros((len(grids), pairs, 1), dtype=complex)
    else:
        ks, cs = _source_pairs(field, s)
        k_both = np.concatenate([k, ks])
        columns = np.zeros((len(grids), len(k_both), 2), dtype=complex)
        columns[:, pairs:, 1] = cs[:, 0]
    if not len(k_both):
        return [ContinuityReport(grid.to_dict(), 0.0, 0.0, 0.0, math.prod(map(len, _interior_axes(grid))))
                for grid in grids]
    h = np.array([g.spacing for g in grids])[:, None, :]
    symbol, hd = columns[:, :pairs, 0], h[..., diff]
    terms = coef[:, diff] * (1j * np.sin(k[:, diff] * hd) / hd)
    for d in range(len(diff)):
        symbol += terms[..., d]
    # refinement doubles N and halves h, both exactly, so every level has the first one's phi and seams
    phi = k[:, ring] * np.array([first.counts[mu] * first.spacing[mu] for mu in ring])
    miss = np.abs(phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi)))
    cut = ~np.all(miss <= ALGEBRA_TOL * np.maximum(1.0, np.abs(phi)), axis=0)
    seams = [mu for mu, c in zip(ring, cut) if c]
    if seams:
        turn = np.exp(1j * phi[:, cut])
        step = np.exp(1j * k[:, seams] * h[..., seams])
        twice_h = 2.0 * h[..., seams]
        heads = coef[:, seams] * (-(turn - 1.0) / step) / twice_h
        tails = coef[:, seams] * (step * (1.0 / turn - 1.0)) / twice_h
    reports = []
    for level, grid in enumerate(grids):
        axes = _interior_axes(grid)
        # per seam axis, its three runs: (slots, seam term of the run)
        splits = [[(slice(0, 1), heads[level, :, i]), (slice(1, -1), 0.0),
                   (slice(-1, None), tails[level, :, i])] for i in range(len(seams))]
        lhs_norm = rhs_norm = defect = 0.0
        for runs in itertools.product(*splits):
            run_axes, column = list(axes), columns[level].copy() if seams else columns[level]
            for mu, (slots, term) in zip(seams, runs):
                run_axes[mu] = axes[mu][slots]
                column[:pairs, 0] += term
            for block in _real_slabs(run_axes, k_both, column):
                div = block[:, :, 0]
                lhs_norm = _running_max(lhs_norm, div)
                if s is not None:
                    rhs_norm = _running_max(rhs_norm, block[:, :, 1])
                    # the slab is read, so its divergence column takes the gap
                    defect = _running_max(defect, np.subtract(div, block[:, :, 1], out=div))
        if s is None:
            defect = lhs_norm
        if not all(map(math.isfinite, (lhs_norm, rhs_norm, defect))):
            raise ValueError(_OVERFLOW)
        reports.append(ContinuityReport(grid.to_dict(), lhs_norm, rhs_norm, defect,
                                        math.prod(map(len, axes))))
    return reports


def continuity_residual(field, grid: SpacetimeGrid, b=None) -> ContinuityReport:
    """Central-difference d_mu J^mu against the source of the complex
    potential `b` on the points where the stencil is defined (all but the
    end slots of each non-periodic axis): the one-grid `_ladder`.  An axis
    of one point is reduced; every other axis needs at least three."""
    return _ladder(field, [grid], b)[0]


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Continuity defects across grid refinements and the fitted order."""

    h_scales: tuple[float, ...]
    levels: tuple[ContinuityReport, ...]
    fitted_order: float


def continuity_convergence(field, grid: SpacetimeGrid, levels: int = 3, b=None) -> ConvergenceReport:
    """Run the continuity check on `levels` grids, halving every spacing
    each level, in one `_ladder` pass, and fit the convergence order of
    the defect."""
    levels = number(levels, "levels", integral=True)
    if levels < 2:
        raise ValueError("need at least 2 refinement levels to fit an order")
    grids = [grid]
    while len(grids) < levels:
        grids.append(grids[-1].refined())
    reports = _ladder(field, grids, b)
    h_scales = tuple(2.0 ** (-lvl) for lvl in range(levels))
    return ConvergenceReport(h_scales, tuple(reports), _fitted_order(h_scales, [r.defect for r in reports]))


def _fitted_order(h_scales, defects) -> float:
    """The least-squares slope of log(defect) against log(h), in closed
    form with `math.fsum`; NaN unless every defect is positive.  The
    log-defects are taken from the first level's, which leaves the slope
    unchanged and makes equal defects fit exactly 0.0."""
    if not all(d > 0 for d in defects):
        return math.nan
    xs = [math.log(h) for h in h_scales]
    y0 = math.log(defects[0])
    ys = [math.log(d) - y0 for d in defects]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / math.fsum((x - mx) ** 2 for x in xs))


def _inner_products(fields, grid: SpacetimeGrid) -> np.ndarray:
    """Real inner products of every pair of fields, (F, F), symmetric,
    summed from the (M, M) term pairs with the lattice sum factorized by
    axis, E^T conj(E) with E = exp(i outer(axis, k)), and reduced to
    fields by an (F, M) owner matrix: O(axis points * M + M^2)."""
    g = np.zeros((len(fields), len(fields)))
    if not fields:
        return g
    axes = (np.array([grid.origin.t]), *(grid.axis(i) for i in (1, 2, 3)))
    for k, w, rows in _stack_rows(fields):
        owner = np.eye(len(fields))[:, rows]
        pair = w @ w.conj().T
        for i, x in enumerate(axes):
            e = np.exp(1j * np.multiply.outer(x, k[:, i]))
            pair *= e.T @ e.conj()
        g += (owner @ pair @ owner.T).real
    # each entry i <= j once, mirrored
    g = np.triu(g) + np.triu(g, 1).T
    return g * grid.cell_volume


def inner_product_grid(psi, phi, grid: SpacetimeGrid) -> float:
    """Discrete real inner product (Phi Psi* + Phi* Psi)/2 summed over
    spinor components and spatial points at the first time slice, times
    the cell volume, summed from the plane-wave pair terms."""
    return float(_inner_products((psi, phi), grid)[0, 1])


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
    """Pairwise `inner_product_grid` values of a solution set, summed
    from plane-wave pair terms in one pass."""
    sols = list(solutions)
    n = len(sols)
    g = _inner_products(sols, grid)
    if not np.isfinite(g).all():
        raise ValueError("the Gram products overflow: the solutions' norms or the box volume are too large")
    off = g - np.diag(np.diag(g))
    max_off = float(np.abs(off).max()) if n > 1 else 0.0
    labels = tuple(getattr(s, "label", "") or f"sol{i}" for i, s in enumerate(sols))
    return GramReport(labels, g, max_off)


def adjoint_norm(sol, x: FourVector | None = None, theta0: float | None = None) -> float:
    """Real part of adj(Psi) Psi with both component spinors rescaled to
    the covariant normalization u^dag u = |k.t| / m, which makes the
    value read +-cos(2*theta0) by branch.  Constant in x for plane
    waves; massless components pair to zero identically.  `theta0`,
    when given, replaces the mixing angle of `sol`."""
    return _adjoint_norms(sol, [sol.theta0 if theta0 is None else number(theta0, "theta0")], x)[0]


def _adjoint_norms(sol, theta0s, x: FourVector | None = None) -> list[float]:
    """`adjoint_norm` of `sol` at x for each mixing angle in `theta0s`,
    from one rescaling of its spinors: row n is the one-angle sum."""
    if x is None:
        x = FourVector()
    u0, u1 = sol.u0, sol.u1
    if sol.mass > 0:
        u0 = u0 * math.sqrt((abs(sol.k0.t) / sol.mass) / float(np.real(np.vdot(u0, u0))))
        u1 = u1 * math.sqrt((abs(sol.k1.t) / sol.mass) / float(np.real(np.vdot(u1, u1))))
    else:
        u0 = u0 / float(np.linalg.norm(u0))
        u1 = u1 / float(np.linalg.norm(u1))
    phase = float(np.dot(_points(x.as_array())[0], sol.theta.lowered()))
    angles = [phase + t0 for t0 in theta0s]
    w0 = np.array([[math.cos(a) ** 2] for a in angles]) * np.abs(u0) ** 2
    w1 = np.array([[math.sin(a) ** 2] for a in angles]) * np.abs(u1) ** 2
    return np.sum(BETA_DIAG * (w0 + w1), axis=1).tolist()


@dataclass(frozen=True, slots=True)
class HelicityReport:
    """Per-component helicity eigenvalues; NaN where the component is
    not an eigenvector (residual reported alongside)."""

    h0: float
    h1: float
    residual0: float
    residual1: float


def helicity_check(sol):
    """Helicity of both component spinors of one solution, or one report
    per solution of a sequence: every spinor's (1/2) sigma.k_hat
    projection, Rayleigh quotient and eigen-residual in one pass."""
    single = hasattr(sol, "stacked_terms")
    sols = [sol] if single else list(sol)
    if not sols:
        return []
    k = np.array([kk.spatial() for s in sols for kk in (s.k0, s.k1)])
    u = np.array([uu for s in sols for uu in (s.u0, s.u1)])
    norm = np.linalg.norm(k, axis=1)
    if not norm.all():
        raise ValueError("helicity_check needs nonzero spatial momenta")
    # (1/2) sigma.k_hat on both 2-spinor blocks of each row
    r = (0.5 * (k / norm[:, None]) @ PAULI.reshape(3, 4)).reshape(-1, 1, 2, 2) @ u.reshape(-1, 2, 2, 1)
    r = r.reshape(-1, 4)
    lam = (np.einsum("ti,ti->t", u.conj(), r) / np.einsum("ti,ti->t", u.conj(), u)).real
    resid = np.linalg.norm(r - lam[:, None] * u, axis=1) / np.linalg.norm(u, axis=1)
    values = np.where(resid <= RESIDUAL_TOL, lam, np.nan)
    reports = [HelicityReport(*values[i:i + 2].tolist(), *resid[i:i + 2].tolist())
               for i in range(0, len(u), 2)]
    return reports[0] if single else reports
