"""Shared oracles for the test suite.

These deliberately avoid the library's construction paths: null spaces
come from dense SVD, momenta from direct resampling, so agreement with
the closed forms is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np

from qdirac import (
    FourVector, Quaternion, central_diff, integrate_spatial, mass_shell_energy, mul,
    mul_symplectic, sample, slashed,
)
from qdirac.spinor import BETA_DIAG, GAMMA

# beta @ gamma^mu, the Hermitian forms behind the four-current
BG_STACK = np.stack([np.diag(BETA_DIAG).astype(complex) @ g for g in GAMMA])


def null_space(matrix: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space via SVD,
    shape (4, k)."""
    u, s, vh = np.linalg.svd(matrix)
    scale = s[0] if s[0] > 0 else 1.0
    keep = s <= rtol * scale
    return vh[keep].conj().T


def matrix_rank(matrix: np.ndarray, rtol: float = 1e-9) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    scale = s[0] if s[0] > 0 else 1.0
    return int(np.sum(s > rtol * scale))


def in_span(vec: np.ndarray, basis: np.ndarray) -> float:
    """Relative distance of vec from span(basis); 0 means contained."""
    proj = basis @ (basis.conj().T @ vec)
    return float(np.linalg.norm(vec - proj) / np.linalg.norm(vec))


def rank_one_gram_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Ratio s2/s1 of the singular values of [a | b]; 0 iff parallel."""
    m = np.stack([a / np.linalg.norm(a), b / np.linalg.norm(b)], axis=1)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[1] / s[0])


def random_onshell(rng: np.random.Generator, mass: float, sign: int) -> FourVector:
    kvec = rng.uniform(-2.0, 2.0, size=3)
    if mass == 0.0 and np.linalg.norm(kvec) == 0.0:
        kvec = np.array([0.0, 0.0, 1.0])
    return FourVector(mass_shell_energy(kvec, mass, sign), *kvec)


def random_null_fourvector(rng: np.random.Generator) -> FourVector:
    direction = rng.normal(size=3)
    direction = direction / np.linalg.norm(direction)
    scale = rng.uniform(0.5, 2.0)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return FourVector(sign * scale, *(scale * direction))


def quaternion_components(rng: np.random.Generator, n: int, bound: float = 2.0) -> np.ndarray:
    return rng.uniform(-bound, bound, size=(n, 4))


def scalar_quaternion_sweep(rng: np.random.Generator, n: int = 2000) -> dict:
    """The verify quaternion sweep, one `Quaternion` draw at a time."""
    vals = rng.uniform(-2.0, 2.0, size=(n, 12))
    worst_mult = 0.0
    worst_assoc = 0.0
    worst_algo = 0.0
    for row in vals:
        p = Quaternion(*row[0:4])
        q = Quaternion(*row[4:8])
        r = Quaternion(*row[8:12])
        pq = mul(p, q)
        worst_mult = max(worst_mult, abs(pq.norm() - p.norm() * q.norm()) / max(p.norm() * q.norm(), 1e-300))
        lhs = mul(pq, r)
        rhs = mul(p, mul(q, r))
        scale = max(lhs.norm(), 1e-300)
        worst_assoc = max(worst_assoc, (lhs - rhs).norm() / scale)
        alt = mul_symplectic(p, q)
        worst_algo = max(worst_algo, (pq - alt).norm() / max(pq.norm(), 1e-300))
    return {"multiplicativity": worst_mult, "associativity": worst_assoc, "algorithms": worst_algo}


def scalar_slashed_square(rng: np.random.Generator, n: int = 200) -> float:
    """The verify slashed-square check, one `FourVector` at a time."""
    worst = 0.0
    for row in rng.uniform(-2.0, 2.0, size=(n, 4)):
        v = FourVector(*row)
        sq = slashed(v) @ slashed(v)
        worst = max(
            worst,
            float(np.abs(sq - v.dot(v) * np.eye(4)).max()) / max(abs(v.dot(v)), 1.0),
        )
    return worst


def einsum_current(psi0: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Real four-current adj(psi) gamma^mu psi of both symplectic halves,
    one 4x4 Hermitian form per point, shape (..., 4)."""
    j = np.einsum("...a,mab,...b->...m", np.conj(psi0), BG_STACK, psi0)
    j = j + np.einsum("...a,mab,...b->...m", np.conj(psi1), BG_STACK, psi1)
    return np.real(j)


def sampled_source(psi0: np.ndarray, psi1: np.ndarray, b) -> np.ndarray:
    """Pointwise real part of adj(Psi) b_l (gamma^l - conj(gamma^l)) j Psi
    for the contravariant complex potential b, from sampled halves."""
    b = np.asarray(b, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    for ell in (1, 2, 3):
        m = m + (-b[ell]) * (GAMMA[ell] - np.conj(GAMMA[ell]))
    # j Psi = (-conj(psi1), conj(psi0)) symplectically
    col0 = np.einsum("ab,...b->...a", m, -np.conj(psi1))
    col1 = np.einsum("ab,...b->...a", m, np.conj(psi0))
    row0 = BETA_DIAG * np.conj(psi0)
    row1 = -BETA_DIAG * psi1
    # real part of the quaternion contraction sum_a row_a col_a
    return np.real(np.sum(row0 * col0 - row1 * np.conj(col1), axis=-1))


def difference_residual(field, points, a=None, h: float = 1e-5) -> float:
    """Sup-norm over `points` of gamma^mu ((d_mu - a_mu i .) Psi) i - m Psi,
    with d_mu a central difference of `eval_points` values.

    Left multiplication by i reaches both symplectic halves as i; right
    multiplication by i is +i on the complex half and -i on the j half.
    Nothing here reads the plane-wave terms."""
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    al = np.zeros(4) if a is None else a.lowered()
    values = field.eval_points(pts)
    steps = h * np.eye(4)
    fwd = [field.eval_points(pts + step) for step in steps]
    bwd = [field.eval_points(pts - step) for step in steps]
    total = np.zeros(len(pts))
    for half, right_i in ((0, 1j), (1, -1j)):
        psi = values[half]
        r = -field.mass * psi
        for mu in range(4):
            d = (fwd[mu][half] - bwd[mu][half]) / (2 * h) - al[mu] * 1j * psi
            r = r + (d @ GAMMA[mu].T) * right_i
        total += np.sum(np.abs(r) ** 2, axis=1)
    return float(np.sqrt(total).max())


def sampled_inner_product(psi, phi, grid) -> float:
    """The lattice inner product from sampled fields: Re psi^dag phi of
    both halves at every spatial point of the first time slice, summed
    and times the cell volume."""
    a, b = sample(psi, grid), sample(phi, grid)
    integrand = np.sum(np.real(a.psi0[0] * np.conj(b.psi0[0]))
                       + np.real(a.psi1[0] * np.conj(b.psi1[0])), axis=-1)
    return integrate_spatial(integrand, grid)


def sampled_gram(fields, grid) -> np.ndarray:
    """Every pairwise `sampled_inner_product` of a field list."""
    return np.array([[sampled_inner_product(a, b, grid) for b in fields] for a in fields])


def oracle_continuity(field, grid, b=None):
    """The continuity check from sampled values: central-difference
    stencils over the `einsum_current` of the whole lattice, against the
    `sampled_source` of b (zero without one), on the points where every
    stencil is defined.  Returns the sup norms of the divergence, the
    source and their difference, and the current."""
    sampled = sample(field, grid)
    j = einsum_current(sampled.psi0, sampled.psi1)
    div = sum(central_diff(j[..., mu], mu, grid.spacing[mu], grid.periodic[mu])
              for mu in range(4) if grid.counts[mu] > 1)
    rhs = np.zeros(grid.counts) if b is None else sampled_source(sampled.psi0, sampled.psi1, b)
    inner = tuple(slice(1, -1) if n > 1 and not per else slice(None)
                  for n, per in zip(grid.counts, grid.periodic))
    return np.abs(div[inner]).max(), np.abs(rhs[inner]).max(), np.abs((div - rhs)[inner]).max(), j
