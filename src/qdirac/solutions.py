"""Free-particle solutions of the quaternionic Dirac equation,

    Psi(x) = cos(Theta) exp(i k0.x) u0  +  sin(Theta) exp(i k1.x) u1 j,
    Theta = theta.x + theta0,

built in closed form from one row kernel and residual-certified; the
README states the sign convention, the row table and the certification
bound.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import verify
from ._fields import choice, number, require, sign, vector
from .grid import SampledField, SpacetimeGrid, _real_slabs
from .spinor import GAMMA, PAULI, ZERO_FOUR, FourVector, QSpinor4, spin_basis

SCHEMA_VERSION = 1

SPINS = ("up", "down")
CHIRALITIES = ("L", "R")
NORM_CHOICES = ("E", "E_over_m")

_Z_BASIS = spin_basis(None)
# slashed(k) - mass_sign*m over coefficients (k.t, k.x, k.y, k.z, -mass_sign*m)
_KERNEL_STACK = np.stack([GAMMA[0], -GAMMA[1], -GAMMA[2], -GAMMA[3], np.eye(4)]).reshape(5, 16)
# u from the columns of (chi, lower, -lower), by shape 2*(k.t > 0) + (chi on top):
# the lower block takes the frequency sign; chi is on top when the mass sign agrees with it
_U_COLUMNS = ((4, 5, 0, 1), (0, 1, 4, 5), (2, 3, 0, 1), (0, 1, 2, 3))


class CertificationError(RuntimeError):
    """A constructed solution failed its residual certification.

    This signals an internal sign or convention bug, never bad user
    input, and deliberately aborts instead of trying another convention.
    """


def mass_shell_energy(kvec, mass: float, sign: int = 1) -> float:
    """Frequency sign * sqrt(|kvec|^2 + mass^2) on the mass shell."""
    kvec = np.asarray(kvec, dtype=float)
    if mass < 0:
        raise ValueError("mass must be >= 0")
    choice(sign, "sign", (1, -1))
    # the BLAS dot that @ runs, without its overflow warning (reported below)
    k2 = float(np.vdot(kvec, kvec))
    if mass == 0.0 and k2 == 0.0:
        raise ValueError("massless momentum must have nonzero spatial part")
    energy = math.sqrt(k2 + mass * mass)
    if not math.isfinite(energy):
        raise ValueError(
            f"mass {mass!r} or momentum {kvec.tolist()} is too large: its energy overflows")
    return sign * energy


def dispersion_residual(kfour: FourVector, mass: float) -> float:
    """|k.k - m^2| relative to |k.t|^2 + m^2, or |k.k| when that is 0."""
    kk = kfour.dot(kfour)
    scale = kfour.t * kfour.t + mass * mass
    if scale == 0.0:
        return abs(kk)
    return abs(kk - mass * mass) / scale


def build_u_spinor(kfour, mass, mass_sign, spin="up", norm_choice="E_over_m",
                   spin_axis=None) -> np.ndarray:
    """The element (4,) of ker(slashed(k) - mass_sign*m) for one on-shell
    FourVector `kfour` with k.t != 0 and mass m >= 0: the spin-`spin`
    eigenvector of sigma.n on top for the axis `spin_axis` (z when None),
    scaled to u^dag u = |k.t| ("E") or |k.t|/m ("E_over_m", m > 0), its
    first significant component real positive.  Raises ValueError for a
    bad value, a sequence of four-momenta included, and
    CertificationError when the kernel check fails."""
    if not isinstance(kfour, FourVector):
        raise ValueError(f"build_u_spinor builds one row: got a {type(kfour).__name__}, not a FourVector")
    if not isinstance(mass, numbers.Real):
        number(mass, "mass")  # raises, naming the mass; a number keeps the messages below
    if not mass >= 0.0:
        raise ValueError("build_u_spinor requires mass >= 0")
    choice(mass_sign, "mass_sign", (1, -1))
    choice(spin, "spin", SPINS)
    choice(norm_choice, "norm_choice", NORM_CHOICES)
    if mass == 0.0 and norm_choice == "E_over_m":
        raise ValueError("norm_choice 'E_over_m' needs mass > 0")
    basis = _Z_BASIS if spin_axis is None else spin_basis(spin_axis)
    # the mass as a Python float, so a numpy scalar rounds as a float does
    return _u_rows([(kfour, float(mass), mass_sign, basis[SPINS.index(spin)], norm_choice)])[0]


def _u_rows(rows) -> np.ndarray:
    """The (T, 4) `build_u_spinor` spinors of T checked rows (k, m,
    mass_sign, chi, norm_choice), in one array pass.  Each row passes its
    gates (nonzero frequency, mass shell, a finite u^dag u) before the
    next row is read; the first row failing its kernel bound, which an
    overflowing spinor fails, raises after the pass."""
    seen, chis, scalars, flat = [], [], [], []
    for i, (k, m, ms, chi, nc) in enumerate(rows):
        seen.append((k, m, ms))
        if k.t == 0.0:
            raise ValueError(f"four-momentum {k} has zero frequency")
        if not dispersion_residual(k, m) <= verify.RESIDUAL_TOL:  # NaN when k.t**2 overflows
            raise ValueError(f"four-momentum {k} is off the mass shell for m={m}")
        energy = abs(k.t)
        target = energy if nc == "E" else energy / m
        if not math.isfinite(target):
            raise ValueError(f"mass {m!r} is too small: u^dag u = |k.t|/m overflows")
        chis.append(chi)
        # |k.t| + m, u^dag u, the phase threshold, the squared kernel bound
        # (|u| = sqrt(target); finite, so an overflow fails it), _KERNEL_STACK weights
        bound = verify.RESIDUAL_TOL * (energy + m) * math.sqrt(target)
        scalars += (energy + m, target, 1e-12 * math.sqrt(target),
                    min(bound * bound, sys.float_info.max), k.t, k.x, k.y, k.z, -ms * m)
        flat += [6 * i + c for c in _U_COLUMNS[2 * (k.t > 0) + ((ms > 0) == (k.t > 0))]]

    # every product below is complex
    nums = np.array(scalars, dtype=float).astype(complex).reshape(-1, 9)
    chi = np.array(chis, dtype=complex).reshape(-1, 2)
    # sigma.k: one term per real and imaginary part, so exact, signed zeros included
    sk = (nums[:, 5:8] @ PAULI.reshape(3, 4)).reshape(-1, 2, 2)
    lower = (sk @ chi[:, :, None])[:, :, 0] / nums[:, :1]
    u = np.concatenate([chi, lower, -lower], axis=1).take(flat).reshape(-1, 4)
    # np.vdot per row: no row-wise sum of |u|^2 rounds as it does
    u = u * np.array([math.sqrt(t / np.vdot(v, v).real) for t, v in zip(scalars[1::9], u)])[:, None]
    # make the first significant component real positive, dividing by np.hypot,
    # which abs() of one complex computes (np.abs of an array rounds differently)
    lead = u[np.arange(len(seen)), (np.abs(u) > nums.real[:, 2:3]).argmax(axis=1)]
    u = u * (np.conj(lead) / np.hypot(lead.real, lead.imag))[:, None]

    # a kernel entry has one term per real and imaginary part (two on the
    # diagonal), so it is exact; the matmul residual is that of a one-row build
    r = ((nums[:, 4:] @ _KERNEL_STACK).reshape(-1, 4, 4) @ u[:, :, None]).view(float)
    squares = np.einsum("tij,tij->t", r, r)  # no overflow warning: an inf fails the finite bound
    ok = squares <= nums.real[:, 3]
    if np.count_nonzero(ok) < len(seen):
        i = int(np.argmin(ok))
        k, m, ms = seen[i]
        if not math.isfinite(squares[i]):
            raise ValueError(f"mass {m!r} or momentum {k} is too large: the spinor overflows")
        raise CertificationError(
            f"u-spinor failed the kernel condition: residual {math.sqrt(squares[i]):.3e} "
            f"for k={k}, mass_sign={ms}"
        )
    return u


# ---------------------------------------------------------------------------
# solution descriptors


class _PlaneWaveSum:
    """Evaluation shared by every field in this module.

    Each symplectic half of a field is a finite sum of plane-wave terms
    c exp(i k.x) u, listed by the subclass's _terms() as (c, k, u)
    triples with complex coefficient c, four-momentum k and spinor u.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        """Stack the terms once, at construction (see stacked_terms)."""
        halves = self._terms()
        terms = [term for half in halves for term in half]
        verify._stack_terms([self], [c for c, _, _ in terms],
                            np.array([(k.t, -k.x, -k.y, -k.z) for _, k, _ in terms],
                                     dtype=float).reshape(-1, 4),
                            np.array([u for _, _, u in terms], dtype=complex).reshape(-1, 4),
                            [tuple(map(len, halves))], range(len(terms)))

    def stacked_terms(self):
        """Per half: lowered momenta (T, 4) and weighted spinors c*u (T, 4)."""
        return self._stacked

    def eval_points(self, points):
        """Values (psi0, psi1), each of shape (P, 4), at a batch of points."""
        pts = verify._points(points)
        return tuple(np.exp(1j * (pts @ kl.T)) @ cu for kl, cu in self.stacked_terms())

    def _sample_grid(self, grid: SpacetimeGrid) -> SampledField:
        """Values on every lattice point: Im s = Re -i s, so each half is the real
        lattice sum of (c u, -i c u), copied slab by slab into its float view."""
        halves = []
        for kl, cu in self.stacked_terms():
            # allocated as its sum starts: the first sum's tables never sit beside both outputs
            halves.append(np.empty(grid.counts + (4,), dtype=complex))
            row, lines = 0, halves[-1].view(float).reshape((-1,) + grid.counts[2:] + (8,))
            for block in _real_slabs(grid.axes(), kl, np.stack([cu, -1j * cu], axis=2).reshape(-1, 8)):
                row += len(block)
                lines[row - len(block):row] = block.transpose(0, 1, 3, 2)
        return SampledField(grid, *halves)

    def evaluate(self, x: FourVector) -> QSpinor4:
        psi0, psi1 = self.eval_points(x.as_array())
        return QSpinor4(psi0[0], psi1[0])

    def density(self, x: FourVector) -> float:
        return float(verify.densities([self], x.as_array())[0, 0])


@dataclass(frozen=True, slots=True)
class PlaneWaveSolution(_PlaneWaveSum):
    """Closed-form solution descriptor, evaluable at any spacetime point.

    evaluate(x) = cos(Theta) exp(i k0.x) u0 + sin(Theta) exp(i k1.x) u1 j
    with Theta = theta.x + theta0.  Instances built by the constructors
    in this module are residual-certified; the raw dataclass performs no
    physics checks so tests can form deliberately broken descriptors.
    """

    theta0: float
    k0: FourVector
    k1: FourVector
    u0: np.ndarray
    u1: np.ndarray
    mass: float
    theta: FourVector = ZERO_FOUR
    label: str = ""
    _stacked: list = field(init=False, repr=False, compare=False)
    _u_scale: float = field(init=False, repr=False, compare=False)
    _run: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("u0", "u1"):
            a = np.array(getattr(self, name), dtype=complex, order="C")
            if a.shape != (4,):
                raise ValueError(f"{name} must have shape (4,), got {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "mass", float(self.mass))
        if self.mass < 0 or not math.isfinite(self.mass):
            raise ValueError("mass must be finite and >= 0")
        _PlaneWaveSum.__post_init__(self)

    def _terms(self):
        """One term per half at constant phase; with a running phase,
        cos(Theta) exp(i k.x) = (e^{i theta0} exp(i(k+theta).x)
        + e^{-i theta0} exp(i(k-theta).x)) / 2, and likewise for sin."""
        if self.theta.is_zero():
            return (((math.cos(self.theta0), self.k0, self.u0),),
                    ((math.sin(self.theta0), self.k1, self.u1),))
        e = 0.5 * cmath.exp(1j * self.theta0)
        th = self.theta
        return (((e, self.k0 + th, self.u0), (e.conjugate(), self.k0 - th, self.u0)),
                ((-1j * e, self.k1 + th, self.u1), (1j * e.conjugate(), self.k1 - th, self.u1)))

    def evaluate_grid(self, grid: SpacetimeGrid) -> SampledField:
        return self._sample_grid(grid)


# ---------------------------------------------------------------------------
# massive family


@dataclass(frozen=True, slots=True)
class MassiveSpec:
    """Parameters of one massive plane-wave solution.  esign0 ('+', '-',
    1 or -1, stored as +-1) is the branch label of the complex half, which
    runs at -esign0*E0; the j half carries -esign0, its frequency sign."""

    mass: float
    theta0: float
    kvec0: tuple[float, float, float]
    kvec1: tuple[float, float, float]
    spin0: str = "up"
    spin1: str = "up"
    esign0: int = 1
    norm_choice: str = "E_over_m"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", number(self.mass, "mass"))
        object.__setattr__(self, "theta0", number(self.theta0, "theta0"))
        if not self.mass > 0:
            raise ValueError("mass must be finite and > 0")
        object.__setattr__(self, "kvec0", vector(self.kvec0, "kvec0", 3))
        object.__setattr__(self, "kvec1", vector(self.kvec1, "kvec1", 3))
        for name in ("spin0", "spin1"):
            choice(getattr(self, name), name, SPINS)
        object.__setattr__(self, "esign0", sign(self.esign0, "esign0"))
        choice(self.norm_choice, "norm_choice", NORM_CHOICES)

    @property
    def label(self) -> str:
        return _massive_label(self.spin0, self.spin1, self.esign0)


def _massive_label(spin0: str, spin1: str, esign0: int) -> str:
    """Label such as "ud+-": the two spins, then the branch labels esign0, -esign0."""
    return f"{spin0[0]}{spin1[0]}{'+-' if esign0 > 0 else '-+'}"


def _half(kvec, mass, half, esign, spin, norm_choice, spin_axis):
    """Four-momenta and read-only kernel spinors (T, 4) of T plane-wave
    terms, from per-row lists of checked values: spatial momentum (or a
    FourVector, taken as given), mass, half, branch label, spin and spin
    axis (None for z, "momentum" for the helicity basis).  Massive rows
    take `norm_choice`, massless ones "E".  The only place a branch label
    becomes a frequency sign: -esign*E on half 0, +esign*E on half 1 (the
    mass signs of verify.HALF_MASS_SIGN), esign*|k| on a massless row.
    Rows sharing a kvec object and a mass share its energy and momenta,
    and rows sharing a kvec object its helicity basis, each made once."""
    kvec = list(kvec)  # holds every kvec object for the call, so its id keys the memos below
    signs = [verify.HALF_MASS_SIGN[h] if m > 0 else 1 for h, m in zip(half, mass)]
    energies, momenta, helicity, ks = {}, {}, {}, []
    for kv, m, mass_sign, e in zip(kvec, mass, signs, esign):
        if isinstance(kv, FourVector):
            ks.append(kv)
            continue
        key = id(kv), m
        k = momenta.get((key, mass_sign * e))
        if k is None:
            if key not in energies:
                energies[key] = mass_shell_energy(kv, m)
            k = momenta[key, mass_sign * e] = FourVector(mass_sign * e * energies[key], *kv)
        ks.append(k)

    def chi(kv, k, m, sp, axis):
        if m > 0 and axis is None:
            return _Z_BASIS[SPINS.index(sp)]
        if id(kv) not in helicity:
            # at zero frequency the z basis stands in: _u_rows rejects the row
            helicity[id(kv)] = _Z_BASIS if k.t == 0.0 else spin_basis((k.x, k.y, k.z))
        return helicity[id(kv)][SPINS.index(sp)]

    # each basis is taken as `_u_rows` reads its row, after the gates of the rows before it
    u = _u_rows((k, m, ms, chi(kv, k, m, sp, axis), norm_choice if m > 0 else "E")
                for kv, k, m, ms, sp, axis in zip(kvec, ks, mass, signs, spin, spin_axis))
    u.setflags(write=False)
    return ks, u


def _build(members, norm_choice: str = "E_over_m") -> list[PlaneWaveSolution]:
    """Certified fields from one row table.  Member (mass, theta0, row0,
    row1, label, theta) is one field whose halves hold the terms of rows
    (kvec, half, esign, spin, spin_axis) at its mass; massive rows take
    `norm_choice`.  One `_half` call builds every distinct row, and one
    `certify_solution` call certifies every field at its own mass."""
    # (id(kvec), mass, half, esign, spin, spin_axis) -> (its index, the row), in order
    # of first use; keyed by object, so equal momenta differing in a zero's sign keep their rows
    index = {}
    pairs = [tuple(index.setdefault((id(row[0]), m, *row[1:]), (len(index), row))[0] for row in rows)
             for m, _, *rows, _, _ in members]
    kvec, half, esign, spin, axis = zip(*(row for _, row in index.values()))
    k, u = _half(kvec, [key[1] for key in index], half, esign, spin, norm_choice, axis)
    table = [(q.t, -q.x, -q.y, -q.z) for q in k]
    spinors = list(u)  # one read-only view per row, shared by the fields holding it
    fields = [object.__new__(PlaneWaveSolution) for _ in members]
    # each slot's own descriptor sets it past the frozen __setattr__
    set_theta0, set_k0, set_k1, set_u0, set_u1, set_mass, set_theta, set_label = (
        getattr(PlaneWaveSolution, name).__set__
        for name in ("theta0", "k0", "k1", "u0", "u1", "mass", "theta", "label"))
    terms = []
    for f, (i, j), (m, t0, _, _, label, theta) in zip(fields, pairs, members):
        set_theta0(f, float(t0))
        set_k0(f, k[i])
        set_k1(f, k[j])
        set_u0(f, spinors[i])
        set_u1(f, spinors[j])
        set_mass(f, float(m))
        set_theta(f, theta)
        set_label(f, label)
        terms.append(f._terms())
    coefs, kl_rows, u_rows = [], [], []
    for h in (0, 1):  # the table runs half by half (`verify._stack_terms`)
        for field_terms, rows in zip(terms, pairs):
            r = rows[h]
            for c, q, _ in field_terms[h]:
                u_rows.append(r)
                coefs.append(c)
                if q is k[r]:
                    kl_rows.append(r)
                else:  # a running phase's k +- theta
                    kl_rows.append(len(table))
                    table.append((q.t, -q.x, -q.y, -q.z))
    verify._stack_terms(fields, coefs, np.array(table, dtype=float).take(kl_rows, axis=0), u,
                        [tuple(map(len, t)) for t in terms], u_rows)
    certify_solution(fields)
    return fields


def _massive_pairs(mass: float, pairs, spin_axis=None) -> list:
    """Members of the massive solutions (theta0, kvec0, kvec1, spin0, spin1,
    esign0) of one mass; the j half carries the label -esign0."""
    return [(mass, t0, (kv0, 0, e, s0, spin_axis), (kv1, 1, -e, s1, spin_axis),
             _massive_label(s0, s1, e), ZERO_FOUR) for t0, kv0, kv1, s0, s1, e in pairs]


def build_massive_solution(spec: MassiveSpec) -> PlaneWaveSolution:
    """Certified massive plane-wave solution for one label combination."""
    return build_massive_solutions([spec])[0]


def build_massive_solutions(specs) -> list[PlaneWaveSolution]:
    """Certified massive solutions of one mass and norm_choice, one per
    spec, built and certified in one pass."""
    specs = list(specs)
    if not specs:
        return []
    mass, norm_choice = specs[0].mass, specs[0].norm_choice
    if any((s.mass, s.norm_choice) != (mass, norm_choice) for s in specs):
        raise ValueError("the specs of one build must share mass and norm_choice")
    return _build(_massive_pairs(mass, [(s.theta0, s.kvec0, s.kvec1, s.spin0, s.spin1, s.esign0)
                                        for s in specs]), norm_choice)


SPIN_PAIRS = (("up", "up"), ("down", "down"), ("up", "down"), ("down", "up"))


def _massive_set(mass: float, kvec0, kvec1, theta0: float, spin_axis=None) -> list:
    """Members of the eight labeled massive solutions, in set order; they
    share their 8 distinct rows (half, spin, esign0)."""
    pairs = [(theta0, kvec0, kvec1, s0, s1, e) for s0, s1 in SPIN_PAIRS for e in (1, -1)]
    return _massive_pairs(mass, pairs, spin_axis)


def enumerate_massive_set(
    mass: float,
    kvec0,
    kvec1,
    theta0: float,
    norm_choice: str = "E_over_m",
    spin_axis=None,
) -> list[PlaneWaveSolution]:
    """The eight labeled massive solutions, in the fixed order
    (uu,+-), (uu,-+), (dd,+-), (dd,-+), (ud,+-), (ud,-+), (du,+-), (du,-+)."""
    spec = MassiveSpec(mass=mass, theta0=theta0, kvec0=kvec0, kvec1=kvec1, norm_choice=norm_choice)
    # read before the rows that hold it are hashed
    spin_axis = choice(spin_axis, "spin_axis", (None, "momentum"))
    return _build(_massive_set(spec.mass, spec.kvec0, spec.kvec1, spec.theta0, spin_axis), spec.norm_choice)


# ---------------------------------------------------------------------------
# massless families


@dataclass(frozen=True, slots=True)
class MasslessThetaSpec:
    """Massless solution with a running phase Theta = theta.x + theta0.

    theta must be null and nonzero; the component momenta are
    k_alpha = kappa_alpha * theta with nonzero real kappas, and each
    component spinor is the chirality-selected element of
    ker slashed(k_alpha) = ker slashed(theta).
    """

    theta: FourVector
    kappa0: float
    kappa1: float
    theta0: float = 0.0
    chirality0: str = "R"
    chirality1: str = "R"

    def __post_init__(self) -> None:
        for name in ("kappa0", "kappa1", "theta0"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        if self.theta.is_zero():
            raise ValueError("theta must be nonzero (use the constant-phase family otherwise)")
        scale = max(self.theta.t**2, float(self.theta.spatial() @ self.theta.spatial()))
        if abs(self.theta.dot(self.theta)) > verify.RESIDUAL_TOL * scale:
            raise ValueError(f"theta must be null, got theta.theta = {self.theta.dot(self.theta)!r}")
        if self.kappa0 == 0.0 or self.kappa1 == 0.0:
            raise ValueError("kappa0/kappa1 must be nonzero (zero four-momentum is not normalizable)")
        for name in ("chirality0", "chirality1"):
            choice(getattr(self, name), name, CHIRALITIES)

    @property
    def label(self) -> str:
        return f"{self.chirality0}{self.chirality1}.theta"


def _running_phase(spec: MasslessThetaSpec) -> list:
    """The member of one running-phase solution; its four-momenta
    kappa*theta are taken as given."""
    # ker slashed(k) = ker slashed(theta); the helicity along k is
    # chirality * sign(k.t), which flips with the sign of kappa
    row0, row1 = ((k, h, 1, "up" if (c == "R") == (k.t > 0) else "down", None) for h, (k, c) in enumerate(
        ((spec.theta.scale(spec.kappa0), spec.chirality0), (spec.theta.scale(spec.kappa1), spec.chirality1))))
    return [(0.0, spec.theta0, row0, row1, spec.label, spec.theta)]


def build_massless_theta_solution(spec: MasslessThetaSpec) -> PlaneWaveSolution:
    """Certified massless solution with running phase direction theta."""
    return _build(_running_phase(spec))[0]


_CHIRALITY_PAIRS = (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R"))


def _massless_set(kvec0, kvec1, theta0: float) -> list:
    """Members of the four constant-phase massless solutions, sharing 4
    rows; at positive frequency chirality = helicity."""
    spin = {"L": "down", "R": "up"}
    return [(0.0, theta0, (kvec0, 0, 1, spin[c0], None), (kvec1, 1, 1, spin[c1], None), f"{c0}{c1}",
             ZERO_FOUR) for c0, c1 in _CHIRALITY_PAIRS]


def enumerate_massless_theta0_set(kvec0, kvec1, theta0: float) -> list[PlaneWaveSolution]:
    """The four constant-phase massless solutions, ordered
    (L,L), (L,R), (R,L), (R,R); both components run at positive frequency."""
    return _build(_massless_set(vector(kvec0, "kvec0", 3), vector(kvec1, "kvec1", 3),
                                number(theta0, "theta0")))


# ---------------------------------------------------------------------------
# constraint reporting


# the running-phase constraint chain, in report order
_CONSTRAINT_CHECKS = (
    "theta_null", "k0_dot_theta", "k1_dot_theta",
    "k0_proportional", "k1_proportional",
    "p0_shell", "p1_shell", "massless_required",
)


@dataclass(frozen=True, slots=True)
class ConstraintCheck:
    name: str
    residual: float
    passed: bool
    vacuous: bool = False


@dataclass(frozen=True, slots=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    kappa0: float
    kappa1: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.vacuous for c in self.checks)

    def check(self, name: str) -> ConstraintCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_constraints(
    theta: FourVector,
    k0: FourVector,
    k1: FourVector,
    mass: float,
) -> ConstraintReport:
    """Report on the running-phase constraint chain: theta null, momenta
    orthogonal and proportional to theta, effective momenta on shell, and
    mass forced to zero.  Reports, never raises; theta = 0 marks every
    check vacuous."""
    if theta.is_zero():
        vacuous = (ConstraintCheck(n, 0.0, True, vacuous=True) for n in _CONSTRAINT_CHECKS)
        return ConstraintReport(tuple(vacuous), 0.0, 0.0)

    tol = verify.RESIDUAL_TOL
    checks: list[ConstraintCheck] = []
    th_arr = theta.as_array()
    th_scale = float(th_arr @ th_arr)
    checks.append(
        ConstraintCheck("theta_null", abs(theta.dot(theta)),
                        abs(theta.dot(theta)) <= tol * th_scale)
    )

    kappas = []
    for name, k in (("0", k0), ("1", k1)):
        k_arr = k.as_array()
        k_scale = max(float(np.abs(k_arr).max()) * float(np.abs(th_arr).max()), 1e-300)
        r_dot = abs(k.dot(theta))
        checks.append(ConstraintCheck(f"k{name}_dot_theta", r_dot, r_dot <= tol * k_scale))
        kappa = float(k_arr @ th_arr) / th_scale
        kappas.append(kappa)
        r_prop = float(np.linalg.norm(k_arr - kappa * th_arr))
        prop_scale = max(float(np.linalg.norm(k_arr)), math.sqrt(th_scale))
        checks.append(ConstraintCheck(f"k{name}_proportional", r_prop, r_prop <= tol * prop_scale))
        r_shell = max(
            abs((k + theta).dot(k + theta) - mass * mass),
            abs((k - theta).dot(k - theta) - mass * mass),
        )
        shell_scale = max(k.t * k.t + mass * mass, th_scale)
        checks.append(ConstraintCheck(f"p{name}_shell", r_shell, r_shell <= tol * shell_scale))

    checks.append(ConstraintCheck("massless_required", abs(mass), mass == 0.0))

    by_name = {c.name: c for c in checks}
    return ConstraintReport(tuple(by_name[n] for n in _CONSTRAINT_CHECKS), kappas[0], kappas[1])


# ---------------------------------------------------------------------------
# wave packets


@dataclass(frozen=True, slots=True)
class PacketSample:
    """One on-shell plane-wave sample of a packet component; esign reads as MassiveSpec.esign0."""

    kvec: tuple[float, float, float]
    amplitude: float
    spin: str = "up"
    esign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kvec", vector(self.kvec, "kvec", 3))
        object.__setattr__(self, "amplitude", number(self.amplitude, "amplitude"))
        choice(self.spin, "spin", SPINS)
        object.__setattr__(self, "esign", sign(self.esign, "esign"))


@dataclass(frozen=True, slots=True)
class WavePacketSpec:
    """Finite superposition for one symplectic component."""

    component: int
    mass: float
    samples: tuple[PacketSample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "component", choice(self.component, "component", (0, 1)))
        object.__setattr__(self, "mass", number(self.mass, "mass"))
        if self.mass < 0:
            raise ValueError("mass must be finite and >= 0")
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("samples must be nonempty")


@dataclass(frozen=True, slots=True)
class WavePacket(_PlaneWaveSum):
    """Grid-evaluable field cos(theta0)*sum_n A_n e^{ik_n.x}u_n
    + sin(theta0)*sum_m B_m e^{iq_m.x}v_m j.

    terms0/terms1 hold the (amplitude, k, u) triples of each half."""

    mass: float
    theta0: float
    terms0: tuple[tuple[float, FourVector, np.ndarray], ...]
    terms1: tuple[tuple[float, FourVector, np.ndarray], ...]
    _stacked: list = field(init=False, repr=False, compare=False)
    _u_scale: float = field(init=False, repr=False, compare=False)
    _run: tuple = field(init=False, repr=False, compare=False)
    label = "wave packet"

    def _terms(self):
        return tuple(
            tuple((mix * a, k, u) for a, k, u in terms)
            for mix, terms in ((math.cos(self.theta0), self.terms0),
                               (math.sin(self.theta0), self.terms1))
        )

    def evaluate_grid(self, grid: SpacetimeGrid) -> SampledField:
        return self._sample_grid(grid)


def build_wave_packet(spec: WavePacketSpec) -> WavePacket:
    """Single-component packet; the other symplectic half is zero."""
    samples = (spec.samples, ()) if spec.component == 0 else ((), spec.samples)
    return make_wave_packet(spec.mass, spec.component * math.pi / 2.0, *samples)


def make_wave_packet(mass: float, theta0: float, samples0, samples1) -> WavePacket:
    """Two-component packet with an explicit mixing angle, certified as a field."""
    mass, theta0 = number(mass, "mass"), number(theta0, "theta0")
    if mass < 0:
        raise ValueError("mass must be finite and >= 0")
    samples, n0 = [*samples0, *samples1], len(samples0)
    if not samples:
        raise ValueError("samples must be nonempty")
    k, u = _half([s.kvec for s in samples], [mass] * len(samples), [0] * n0 + [1] * (len(samples) - n0),
                 [s.esign for s in samples], [s.spin for s in samples], "E_over_m", [None] * len(samples))
    terms = [(s.amplitude, k[i], u[i]) for i, s in enumerate(samples)]
    packet = WavePacket(mass, theta0, tuple(terms[:n0]), tuple(terms[n0:]))
    certify_solution(packet)
    return packet


# ---------------------------------------------------------------------------
# certification


def certify_solution(sol):
    """Certify one field (a solution or a wave packet) and return its
    residual bound, or a list of fields of any masses and return one bound
    per field, equal to its one-field call's.  In field order, each field
    needs every term momentum on its mass shell and its bound, the sum of
    its term residual norms, at most RESIDUAL_TOL * k_scale * u_scale.
    Raises CertificationError for a failure, ValueError for an overflow."""
    fields = [sol] if isinstance(sol, _PlaneWaveSum) else list(sol)
    if not fields:
        return []
    terms = verify.term_residuals(fields)
    owner = np.concatenate([o for _, _, o in terms])
    kl = np.concatenate([kl for kl, _, _ in terms])
    r = np.concatenate([r for _, r, _ in terms])
    # each term's residual norm, in np.linalg.norm's float operations
    norms = np.sqrt(np.add.reduce((r.conj() * r).real, axis=1)).tolist()
    masses = np.array([f.mass for f in fields])
    # each term's dispersion_residual at its field's mass, in the same float operations
    t, x, y, z = kl.T
    m = masses[owner]
    scale = t * t + m * m
    # a scale of 0 (k.t = m = 0) leaves |k.k| undivided; an overflow reads NaN, so off shell
    disp = (np.abs(t * t - x * x - y * y - z * z - m * m) / np.where(scale == 0.0, 1.0, scale)).tolist()
    # per field, the sum of its term residual norms in row order and its k_scale: the
    # largest of 1, its mass and its term momenta (a running phase moves them to k +- theta)
    res = [0.0] * len(fields)
    k_scale = [max(1.0, f.mass) for f in fields]
    # the first off-shell term of the first field holding one, in the field's term order
    owners, first = owner.tolist(), None
    for i, (o, norm, peak, d) in enumerate(zip(owners, norms, np.abs(kl).max(axis=1).tolist(), disp)):
        res[o] += norm
        k_scale[o] = max(k_scale[o], peak)
        if not d <= verify.RESIDUAL_TOL and (first is None or o < owners[first]):
            first = i
    for n, (f, r, ks) in enumerate(zip(fields, res, k_scale)):
        if first is not None and n == owners[first]:
            k = FourVector(*(kl[first] * (1.0, -1.0, -1.0, -1.0)).tolist())
            if not math.isfinite(disp[first]):  # k.k overflows
                raise ValueError(f"solution {f.label!r} overflows: term momentum {k} is too large")
            raise CertificationError(f"term momentum {k} violates the dispersion relation for m={f.mass}")
        if not math.isfinite(r):
            raise ValueError(f"solution {f.label!r} overflows: mass, momenta or amplitudes too large")
        if r > verify.RESIDUAL_TOL * ks * f._u_scale:
            raise CertificationError(f"solution {f.label!r} failed residual certification: {r:.3e}")
    return res[0] if isinstance(sol, _PlaneWaveSum) else res


# ---------------------------------------------------------------------------
# JSON schemas for the solution specs


def _from_dict(cls, d):
    """The spec dataclass `cls` read from a JSON object: a field without a
    default is required, any other is passed only when its key is present
    (so the dataclass alone holds defaults and value rules); other keys are ignored."""
    return cls(**{f.name: require(d, f.name) for f in fields(cls) if f.default is MISSING or f.name in d})


def massive_spec_from_dict(d: dict) -> MassiveSpec:
    spec = _from_dict(MassiveSpec, d)
    # esign1 is optional and must be the opposite label
    if "esign1" in d and sign(d["esign1"], "esign1") != -spec.esign0:
        raise ValueError("field 'esign1' must be opposite to 'esign0' (the (+-)/(-+) pairing)")
    return spec


def packet_spec_from_dict(d: dict) -> WavePacketSpec:
    raw = require(d, "samples")
    if not isinstance(raw, (list, tuple)):
        raise ValueError("field 'samples' must be a list")
    spec = WavePacketSpec(
        component=require(d, "component"),
        mass=require(d, "mass"),
        samples=tuple(_from_dict(PacketSample, s) for s in raw),
    )
    for idx, (s, sample) in enumerate(zip(raw, spec.samples)):
        if "energy" in s:
            expected = mass_shell_energy(sample.kvec, spec.mass, sample.esign)
            got = number(s["energy"], "energy")
            if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"sample {idx} field 'energy' {got} is off shell "
                    f"(expected {expected} for kvec={sample.kvec}, mass={spec.mass})"
                )
    return spec
