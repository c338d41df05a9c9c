"""Quantitative checks on constructed solutions: field-equation
residuals, probability currents and their conservation, grid inner
products, Gram/orthogonality structure, adjoint norms, and helicity.

Each plane-wave term leaves a constant residual spinor in the field
equation, so a field's residual is the phased sum of its term residuals
and their norms bound it at every spacetime point.  The lattice
difference operator appears only in the continuity check, so convention
bugs and discretization error stay separable.

The per-solution checks take a whole set in one array pass: the terms
of every field are stacked per half (`_stack_rows`, as certification
and the Gram products stack them), and each row is summed into the
field that owns it.

Every field is a finite sum of plane waves per symplectic half, so its
current and its complex-potential source are finite sums of bilinear
pair terms.  The central difference of a plane wave is the plane wave
times its difference symbol i sin(q h)/h, so the continuity check takes
the lattice divergence as one real sum of pair terms on the interior
points, plus two end-slab sums on each periodic axis that some pair does
not wrap.  The sums stream through one reused slab buffer
(`grid._real_slabs`) and the norms are folded slab by slab, so the
check's memory is one slab plus the axis phases of the pairs, whatever
the lattice size; every field runs this one kernel, and a refinement
ladder forms its pairs once for all levels.  `analytic_divergence`
differentiates the same pairs exactly.

Grid inner products and the Gram matrix are summed from the same pair
terms with the lattice sum factorized by axis, so their memory is
O(box_cells) per term rather than O(box_cells^3): no field is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SampledField, SpacetimeGrid, _real_slabs
# not called here; perfbench/spans.py wraps them under this module path
from .grid import central_diff, integrate_spatial, sample  # noqa: F401
from .spinor import BETA_DIAG, FourVector, GAMMA, PAULI

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
# beta @ gamma^mu, the Hermitian forms behind the four-current
_BG_STACK = np.stack([np.diag(BETA_DIAG).astype(complex) @ g for g in GAMMA])


def default_points(seed: int = 7) -> np.ndarray:
    """32 deterministic pseudo-random spacetime sample points in [-3, 3)^4."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(32, 4))


def _stack_rows(fields):
    """Per half: the stacked terms of every field, concatenated in field
    order, as lowered momenta (M, 4), weighted spinors (M, 4) and the
    index (M,) of the field that owns each row.  One field gives its own
    arrays, uncopied; no field gives no rows."""
    if len(fields) == 1:
        return [(kl, w, np.zeros(len(kl), dtype=int)) for kl, w in fields[0].stacked_terms()]
    if not fields:
        return [(np.zeros((0, 4)), np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=int))] * 2
    halves = [[f.stacked_terms()[h] for f in fields] for h in (0, 1)]
    return [(*map(np.concatenate, zip(*half)),
             np.arange(len(fields)).repeat([len(kl) for kl, _ in half])) for half in halves]


def _owner_sums(points, kl, values, owner, count: int) -> np.ndarray:
    """sum exp(i k.x) value over each field's rows, shape (P, F, 4): one
    matmul against the rows spread into their owners' columns (one field
    owns every row, so its rows need no spreading)."""
    phases = np.exp(1j * (points @ kl.T))
    if count == 1:
        return (phases @ values)[:, None, :]
    spread = np.zeros((len(kl), count, 4), dtype=complex)
    spread[np.arange(len(kl)), owner] = values
    return (phases @ spread.reshape(len(kl), 4 * count)).reshape(len(points), count, 4)


def term_residuals(fields, a: FourVector | None = None):
    """Per half: lowered momenta (M, 4), residual spinors (M, 4) and owner
    indices (M,) of the plane-wave terms w exp(i k.x) of a sequence of
    fields of one mass, in gamma^mu ((d_mu - a_mu i .) Psi) i - m Psi.
    The derivative and the potential give i (k - a)_mu, so by
    HALF_MASS_SIGN: -(slashed(k - a) + m) w and (slashed(k - a) - m) w.
    No field gives no rows."""
    mass = fields[0].mass if fields else 0.0
    if any(f.mass != mass for f in fields):
        raise ValueError("the fields of one set must share a mass")
    return [(kl, sign * np.einsum("mrc,tm,tc->tr", GAMMA, kl if a is None else kl - a.lowered(), w)
             - mass * w, owner)
            for sign, (kl, w, owner) in zip(HALF_MASS_SIGN, _stack_rows(fields))]


def dirac_residual(field, a: FourVector | None = None, points=None):
    """Sup-norm of the field-equation residual over sample points.

    Sums the phased term residuals of `term_residuals` at each point;
    `a` is the real gauge four-vector entering the potential as a^mu i
    (the complex part is zero for every field in scope).  A sequence of
    fields of one mass gives one value per field, from one pass."""
    single = hasattr(field, "stacked_terms")
    fields = [field] if single else list(field)
    if points is None:
        points = default_points()
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    r0, r1 = (_owner_sums(pts, kl, r, owner, len(fields)) for kl, r, owner in term_residuals(fields, a))
    norms = np.sqrt(np.sum(np.abs(r0) ** 2 + np.abs(r1) ** 2, axis=2)).max(axis=0)
    return float(norms[0]) if single else norms.tolist()


def densities(fields, points) -> np.ndarray:
    """Psi^dag Psi of every field at every point, shape (P, F)."""
    fields = list(fields)
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
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
    """The four-current as a finite sum of plane waves.

    Each half sum_a w_a exp(i k_a.x) gives
    J^mu = sum_a adj(w_a) gamma^mu w_a
         + sum_{a<b} 2 Re(adj(w_a) gamma^mu w_b exp(i (k_b - k_a).x)),
    so the pairs a <= b of both halves are returned as lowered
    momenta (P, 4) and complex coefficients (P, 4) whose real part,
    summed over the pairs, is J^mu."""
    ks, coefs = [], []
    for kl, w in field.stacked_terms():
        a, b = np.array([(i, j) for i in range(len(w)) for j in range(i, len(w))],
                        dtype=int).reshape(-1, 2).T
        pair = np.einsum("ai,mij,bj->abm", np.conj(w), _BG_STACK, w)[a, b]
        ks.append(kl[b] - kl[a])
        coefs.append(np.where((a == b)[:, None], 1.0, 2.0) * pair)
    return np.concatenate(ks), np.concatenate(coefs)


def _source_matrix(b) -> np.ndarray:
    """S = A - A^T with A = beta conj(m) and m = -b_l (gamma^l - conj(gamma^l)):
    the source of the complex potential `b` is Re psi1^T S psi0.

    `b` holds the contravariant complex components b^mu; only the spatial
    (lowered) entries act, and only matrices with imaginary entries
    survive the gamma - conj(gamma) difference."""
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


def _interior_axes(grid: SpacetimeGrid) -> list[np.ndarray]:
    """Coordinates of the lattice points where the central difference is
    defined: all but the end slots of each non-periodic axis."""
    o = grid.origin
    index = np.arange(max(grid.counts), dtype=float)
    return [a + h * (index[1:n - 1] if n > 1 and not per else index[:n])
            for a, h, n, per in zip((o.t, o.x, o.y, o.z), grid.spacing, grid.counts, grid.periodic)]


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
    """The continuity check on each grid of a refinement ladder, with the
    pair terms of the current and of the source of `b` formed once.

    The central difference of exp(i q.x) along axis mu is exactly
    i sin(q_mu h_mu) / h_mu exp(i q.x), so on each grid the divergence
    is the real part of one plane-wave sum on the interior points whose
    coefficients are the pair coefficients contracted with that symbol
    over the non-reduced axes.  The source pairs ride along as a second
    coefficient column.  The sum streams through the real slabs of
    `_real_slabs`, and lhs_norm, rhs_norm and defect are running maxima
    over the slabs that keep a NaN, so a level holds one slab (at most
    grid._SLAB_BYTES, or one (t, x) line) and never its whole lattice.

    A wrapped stencil on a periodic axis reads exp(i q.x) at its end
    slots only when phi = q N h is a multiple of 2 pi.  Where some pair
    misses one by more than ALGEBRA_TOL * max(1, |phi|), the exact
    correction of the two end slabs is one more sum each:
    -c e^{-iqh} (e^{i phi} - 1) / 2h at slot 0 and
    c e^{iqh} (e^{-i phi} - 1) / 2h at slot N - 1.  Refinement doubles N
    and halves h, both exactly, so phi and the seam axes are decided on
    the first grid for the whole ladder.  Every grid is validated before
    any lattice work."""
    for grid in grids:
        for i, n in enumerate(grid.counts):
            if n == 2:
                raise ValueError(
                    f"degenerate grid: axis {i} has 2 points; need >= 3 (or 1 for a reduced axis)"
                )
        if all(n == 1 for n in grid.counts):
            raise ValueError("degenerate grid: no differentiable axis")
    s = None if b is None else _source_matrix(b)
    k, coef = _current_pairs(field)
    if s is None:
        k_both, stacked = k, np.zeros((len(k), 1), dtype=complex)
    else:
        ks, cs = _source_pairs(field, s)
        k_both = np.concatenate([k, ks])
        stacked = np.zeros((len(k) + len(ks), 2), dtype=complex)
        stacked[len(k):, 1] = cs[:, 0]
    seams = []
    for mu, (n, h, per) in enumerate(zip(grids[0].counts, grids[0].spacing, grids[0].periodic)):
        if not per or n == 1:
            continue
        phi = k[:, mu] * (n * h)
        miss = np.abs(phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi)))
        if not np.all(miss <= ALGEBRA_TOL * np.maximum(1.0, np.abs(phi))):
            turn = np.exp(1j * phi)
            seams.append((mu, -(turn - 1.0), 1.0 / turn - 1.0))
    pairs = len(k_both)
    reports = []
    for grid in grids:
        # the divergence column of `stacked`, summed in place
        symbol = stacked[:len(k), 0]
        symbol[:] = 0.0
        for mu, (n, h) in enumerate(zip(grid.counts, grid.spacing)):
            if n > 1:
                symbol += coef[:, mu] * (1j * np.sin(k[:, mu] * h) / h)
        cuts = []
        for mu, ahead, behind in seams:
            n, h = grid.counts[mu], grid.spacing[mu]
            step = np.exp(1j * k[:, mu] * h)
            for slot, seam in ((0, ahead / step), (n - 1, step * behind)):
                cut = np.zeros(pairs, dtype=complex)
                cut[:len(k)] = coef[:, mu] * seam / (2.0 * h)
                cuts.append((mu, slot, cut))
        axes = _interior_axes(grid)
        lhs_norm = rhs_norm = defect = 0.0
        for block in _real_slabs(axes, k_both, stacked, cuts):
            div = block[:, :, 0]
            lhs_norm = _running_max(lhs_norm, div)
            if s is not None:
                rhs_norm = _running_max(rhs_norm, block[:, :, 1])
                # the slab is read, so its divergence column takes the gap
                defect = _running_max(defect, np.subtract(div, block[:, :, 1], out=div))
        if s is None:
            defect = lhs_norm
        if not all(map(math.isfinite, (lhs_norm, rhs_norm, defect))):
            raise ValueError("continuity terms overflow: the field or the potential b is too large")
        reports.append(ContinuityReport(grid.to_dict(), lhs_norm, rhs_norm, defect,
                                        math.prod(map(len, axes))))
    return reports


def continuity_residual(field, grid: SpacetimeGrid, b=None) -> ContinuityReport:
    """Central-difference d_mu J^mu against the complex-potential source,
    on the points where the stencil is defined (all but the end slots of
    each non-periodic axis).

    The divergence and the source come from one plane-wave sum of the
    pair terms times their difference symbols, plus the end-slab terms
    of a periodic axis that some pair does not wrap, streamed in real
    slabs: the one-grid case of `_ladder`; no stencil runs and no
    current or lattice-sized array is formed.  Axes
    with a single point are treated as reduced (the field must be
    uniform along them, so their derivative vanishes); every other axis
    needs at least three points."""
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
    if levels < 2:
        raise ValueError("need at least 2 refinement levels to fit an order")
    grids = [grid]
    while len(grids) < levels:
        grids.append(grids[-1].refined())
    reports = _ladder(field, grids, b)
    h_scales = [2.0 ** (-lvl) for lvl in range(levels)]
    defects = np.array([r.defect for r in reports])
    if np.all(defects > 0):
        slope = np.polyfit(np.log(np.array(h_scales)), np.log(defects), 1)[0]
        order = float(slope)
    else:
        order = float("nan")
    return ConvergenceReport(tuple(h_scales), tuple(reports), order)


def _inner_products(fields, grid: SpacetimeGrid) -> np.ndarray:
    """Real inner products of every pair of fields, (F, F), symmetric.

    With each half sum_a w_a exp(i k_a.x), the lattice sum at the first
    time slice of Re psi^dag phi is the real part of
    sum_{a in psi, b in phi} (w_a . conj(w_b)) sum_x exp(i (k_a - k_b).x),
    and the lattice sum of the phase factorizes into one sum per axis,
    E^T conj(E) with E = exp(i outer(axis, k)).  The M terms of all
    fields are stacked per half, and an (F, M) owner matrix, 1 where a
    term belongs to a field, reduces the (M, M) pair sums to fields.
    Cost and memory are O(axis points * M + M^2): nothing is sampled."""
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
    return _adjoint_norms(sol, [sol.theta0 if theta0 is None else theta0], x)[0]


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
    phase = float(np.dot(x.as_array(), sol.theta.lowered()))
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
