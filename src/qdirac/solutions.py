"""Construction of free-particle solutions of the quaternionic Dirac
equation in the real-Hilbert-space formulation.

A solution is the quaternionic field

    Psi(x) = cos(Theta) exp(i k0.x) u0  +  sin(Theta) exp(i k1.x) u1 j,

with Theta = theta.x + theta0.  Splitting the equation symplectically
decouples it into two complex Dirac problems whose mass terms carry
opposite signs:

    (slashed(k0) + m) u0 = 0        (complex half)
    (slashed(k1) - m) u1 = 0        (j half)

Sign bookkeeping that follows from this and is certified at build time:
the (+/-) branch labels attached to a solution name the spinor shape
(upper-dominant "+" versus lower-dominant "-").  For the j half the
label coincides with the sign of the plane-wave frequency k1.t.  For the
complex half the flipped mass sign forces the opposite frequency,
k0.t = -esign0 * E0: the upper-dominant kernel element of
slashed(k) + m lives at negative k.t.  Only this assignment satisfies
the field equation and reproduces the +-cos(2*theta0) adjoint-norm
pattern simultaneously; every constructor re-checks its residual and
aborts rather than fall back to a different sign convention.

Every plane-wave term, massless ones included, takes its spinor from the
one closed form `build_u_spinor` for ker(slashed(k) -+ m): the massless
kernel is its m = 0 case, with the spatial momentum as spin axis so that
spin names the helicity.  So every term passes the same kernel check,
normalization and phase fix (the first significant component is made
real positive, so builds are deterministic).  Every solution builder
runs through one row table (`_build`): the distinct terms of its fields
(4 per half for the 8 massive solutions, 2 for the 4 massless ones) are
the rows of one array pass, each field's stacked terms are slices of one
table, and one stacked residual product certifies them all, as
`make_wave_packet` certifies a packet's terms.  The checks of `verify`
take a set the same way, and `density` is their one-field case.

Each check runs once, where its values enter: the public entry points
read every value, and the private row kernel `_u_rows` runs the numeric
gates of each row before it reads the next, so the first bad row raises
its own error.  Certification checks each distinct term momentum, and
takes the norm of each distinct spinor, once.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import verify
from ._fields import choice, number, require, sign, vector
from .grid import SampledField, SpacetimeGrid, _plane_wave_sum
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
    """|k.k - m^2| relative to |k.t|^2 + m^2."""
    return _dispersion(kfour.t, kfour.dot(kfour), mass)


def _dispersion(t: float, kk: float, mass: float) -> float:
    """dispersion_residual of a four-momentum with time part t and k.k = kk."""
    scale = t * t + mass * mass
    if scale == 0.0:
        return abs(kk)
    return abs(kk - mass * mass) / scale


def build_u_spinor(kfour, mass, mass_sign, spin="up", norm_choice="E_over_m",
                   spin_axis=None) -> np.ndarray:
    """Closed-form element of ker(slashed(k) - mass_sign*m) for on-shell k
    with k.t != 0, massless (m = 0) included.

    The 2-spinor chi is the spin-`spin` eigenvector of sigma.n for the
    quantization axis `spin_axis` (z axis when None).  Both branch shapes
    use the denominator |k.t| + m, so they are stable at every admissible
    frequency sign.  At m = 0 the mass sign drops out; with the spatial
    momentum as spin axis, spin names the helicity and the chirality
    (gamma5 eigenvalue) is helicity * sign(k.t).  The result is scaled to
    u^dag u = |k.t| ("E") or |k.t|/m ("E_over_m", m > 0 only) and its
    kernel membership is re-verified.

    A sequence of T four-momenta builds T rows in one array pass: every
    other argument is then one value or T values (a spin_axis of three
    numbers is one axis), and the result is the (T, 4) stack of the
    one-row builds.  Each row's values are checked as `_u_rows` reads
    the row, after the numeric gates of the rows before it, so the first
    bad row raises its own error; the kernel bounds are checked last.
    """
    single = isinstance(kfour, FourVector)
    ks = [kfour] if single else list(kfour)
    columns = [[v] if single else _per_row(v, name, len(ks)) for v, name in (
        (mass, "mass"), (mass_sign, "mass_sign"), (spin, "spin"),
        (norm_choice, "norm_choice"), (spin_axis, "spin_axis"))]
    u = _u_rows(_checked_row(*row) for row in zip(ks, *columns))
    return u[0] if single else u


def _checked_row(k, m, mass_sign, spin, norm_choice, axis) -> tuple:
    """One row of `build_u_spinor`, its values checked, as `_u_rows` reads it."""
    if not m >= 0.0:
        raise ValueError("build_u_spinor requires mass >= 0")
    choice(mass_sign, "mass_sign", (1, -1))
    choice(spin, "spin", SPINS)
    choice(norm_choice, "norm_choice", NORM_CHOICES)
    if m == 0.0 and norm_choice == "E_over_m":
        raise ValueError("norm_choice 'E_over_m' needs mass > 0")
    basis = _Z_BASIS if axis is None else spin_basis(axis)
    return k, m, mass_sign, basis[SPINS.index(spin)], norm_choice


def _u_rows(rows) -> np.ndarray:
    """The (T, 4) spinors of T checked rows (k, m, mass_sign, chi,
    norm_choice), as `build_u_spinor` describes them, in one array pass.

    Each row passes its gates (nonzero frequency, mass shell, a finite
    u^dag u) before the next row is read; the kernel bound of every row,
    which an overflowing spinor fails, is checked after the pass, and
    the first row failing it raises."""
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


def _per_row(value, name: str, count: int) -> list:
    """`value` for each of `count` rows: a list, tuple or array holds one
    value per row, except a spin axis of three numbers, which is one axis."""
    if not isinstance(value, (list, tuple, np.ndarray)) or (
            name == "spin_axis" and len(value) == 3 and all(isinstance(x, numbers.Real) for x in value)):
        return [value] * count
    if len(value) != count:
        raise ValueError(f"{name} must be one value or {count} values, got {len(value)}")
    return list(value)


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
        _stack_terms([self], [c for c, _, _ in terms],
                     np.array([(k.t, -k.x, -k.y, -k.z) for _, k, _ in terms], dtype=float).reshape(-1, 4),
                     np.array([u for _, _, u in terms], dtype=complex).reshape(-1, 4), map(len, halves))

    def stacked_terms(self):
        """Per half: lowered momenta (T, 4) and weighted spinors c*u (T, 4)."""
        return self._stacked

    def eval_points(self, points):
        """Values (psi0, psi1), each of shape (P, 4), at a batch of points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 4)
        return tuple(np.exp(1j * (pts @ kl.T)) @ cu for kl, cu in self.stacked_terms())

    def _sample_grid(self, grid: SpacetimeGrid) -> SampledField:
        """Values on every lattice point."""
        return SampledField(grid, *(_plane_wave_sum(grid.axes(), kl, cu) for kl, cu in self.stacked_terms()))

    def evaluate(self, x: FourVector) -> QSpinor4:
        psi0, psi1 = self.eval_points(x.as_array())
        return QSpinor4(psi0[0], psi1[0])

    def density(self, x: FourVector) -> float:
        return float(verify.densities([self], x.as_array())[0, 0])


def _stack_terms(fields, coefs, kl, u, counts, u_rows=None) -> None:
    """Give every field its stacked terms, as slices of one read-only table
    of lowered momenta and weighted spinors c*u, and the spinor scale of
    its certification bound: its largest term spinor norm, scaled up by a
    coefficient above 1 (an amplitude).

    Term n has coefficient coefs[n], lowered momentum kl[n] and spinor
    u[u_rows[n]] (u[n] when u_rows is None); counts are the term counts of
    each half, field by field.  The norm of each row of u is taken once."""
    norms = [math.hypot(*a) for a in np.abs(u).tolist()]
    if u_rows is None:
        u_rows = range(len(coefs))
    else:
        u = u.take(u_rows, axis=0)
    cu = np.array(coefs, dtype=complex)[:, None] * u.reshape(-1, 4)
    kl.setflags(write=False)
    cu.setflags(write=False)
    scales = [max(1.0, abs(c)) * norms[r] for c, r in zip(coefs, u_rows)]
    ends = list(itertools.accumulate(counts, initial=0))
    for n, f in enumerate(fields):
        a, b, c = ends[2 * n:2 * n + 3]
        object.__setattr__(f, "_stacked", [(kl[a:b], cu[a:b]), (kl[b:c], cu[b:c])])
        object.__setattr__(f, "_u_scale", max([1.0, *scales[a:c]]))


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
    """Parameters of one massive plane-wave solution.

    esign0 is the branch label of the complex half; the j half carries
    the opposite label -esign0 (the (+-)/(-+) pairing), which is also the
    frequency sign of k1.  The complex half runs at the reversed
    frequency -esign0*E0 (see module docstring).  esign0 is read as
    '+', '-', 1 or -1 and stored as +-1.
    """

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


def _half(kvec, mass: float, half, esign, spin, norm_choice: str = "E_over_m", spin_axis=None):
    """Four-momenta and read-only kernel spinors (T, 4) of T plane-wave terms.

    The only place a branch label becomes a frequency sign.  Massive: the
    complex half (0) carries the flipped mass sign, so it runs at
    -esign*E with u in ker(slashed(k) + m); the j half (1) runs at
    +esign*E with u in ker(slashed(k) - m).  Massless: the frequency is
    esign*|k| on both halves, the mass sign drops out, the spin axis is
    the momentum, so spin names the helicity, and u^dag u = |k.t|.
    `half`, `esign` and `spin` hold T values; `spin_axis` is one value or
    T values: None for the z axis, or "momentum" for the helicity basis.
    A FourVector in `kvec` is a four-momentum taken as given (a running
    phase's kappa*theta); its esign is not read.

    The values are read as checked where they entered.  Rows sharing a
    kvec object share its energy, its four-momentum of each frequency
    sign and its helicity basis, each computed once; each basis is taken
    as `_u_rows` reads its row, after the gates of the rows before it.
    """
    massive = mass > 0
    kvec = list(kvec)  # holds every kvec object for the call, so its id keys the memos below
    signs = [verify.HALF_MASS_SIGN[h] if massive else 1 for h in half]
    energies, momenta, helicity, ks = {}, {}, {}, []
    for kv, mass_sign, e in zip(kvec, signs, esign):
        if isinstance(kv, FourVector):
            ks.append(kv)
            continue
        k = momenta.get((id(kv), mass_sign * e))
        if k is None:
            if id(kv) not in energies:
                energies[id(kv)] = mass_shell_energy(kv, mass)
            k = momenta[id(kv), mass_sign * e] = FourVector(mass_sign * e * energies[id(kv)], *kv)
        ks.append(k)

    def chi(kv, k, sp, axis):
        if massive and axis is None:
            return _Z_BASIS[SPINS.index(sp)]
        if id(kv) not in helicity:
            # at zero frequency the z basis stands in: _u_rows rejects the row
            helicity[id(kv)] = _Z_BASIS if k.t == 0.0 else spin_basis((k.x, k.y, k.z))
        return helicity[id(kv)][SPINS.index(sp)]

    axes, norm_choice = _per_row(spin_axis, "spin_axis", len(ks)), norm_choice if massive else "E"
    u = _u_rows((k, mass, ms, chi(kv, k, sp, axis), norm_choice)
                for kv, k, ms, sp, axis in zip(kvec, ks, signs, spin, axes))
    u.setflags(write=False)
    return ks, u


def _build(mass: float, members, norm_choice: str = "E_over_m") -> list[PlaneWaveSolution]:
    """Certified fields of one mass from one row table, in one pass.

    Each member (theta0, row0, row1, label, theta) is one field, whose
    halves are the plane-wave terms of rows (kvec, half, esign, spin,
    spin_axis), as `_half` reads them; rows holding the same kvec object
    and equal labels are built once, so equal momenta that differ in the
    sign of a zero keep their own rows.  One `_half` call builds every
    row, the fields take their stacked terms from one table and skip the
    dataclass checks of these values, and one `certify_solution` call
    certifies them all.  A term at a row's own momentum gathers the row;
    a running phase's k +- theta adds its own momenta to the table."""
    index = {}  # (id(kvec), half, esign, spin, spin_axis) -> (its index, the row), in order of first use
    pairs = [tuple(index.setdefault((id(row[0]), *row[1:]), (len(index), row))[0] for row in rows)
             for _, *rows, _, _ in members]
    kvec, half, esign, spin, axis = zip(*(row for _, row in index.values()))
    k, u = _half(kvec, mass, half, esign, spin, norm_choice, axis)
    table = [(q.t, -q.x, -q.y, -q.z) for q in k]
    spinors = list(u)  # one read-only view per row, shared by the fields holding it
    fields = [object.__new__(PlaneWaveSolution) for _ in members]
    # each slot's own descriptor sets it past the frozen __setattr__
    set_theta0, set_k0, set_k1, set_u0, set_u1, set_mass, set_theta, set_label = (
        getattr(PlaneWaveSolution, name).__set__
        for name in ("theta0", "k0", "k1", "u0", "u1", "mass", "theta", "label"))
    coefs, kl_rows, u_rows, counts = [], [], [], []
    for f, (i, j), (t0, _, _, label, theta) in zip(fields, pairs, members):
        set_theta0(f, float(t0))
        set_k0(f, k[i])
        set_k1(f, k[j])
        set_u0(f, spinors[i])
        set_u1(f, spinors[j])
        set_mass(f, float(mass))
        set_theta(f, theta)
        set_label(f, label)
        for terms, r in zip(f._terms(), (i, j)):
            counts.append(len(terms))
            for c, q, _ in terms:
                u_rows.append(r)
                coefs.append(c)
                if q is k[r]:
                    kl_rows.append(r)
                else:  # a running phase's k +- theta
                    kl_rows.append(len(table))
                    table.append((q.t, -q.x, -q.y, -q.z))
    _stack_terms(fields, coefs, np.array(table, dtype=float).take(kl_rows, axis=0), u, counts, u_rows)
    certify_solution(fields)
    return fields


def _massive_pairs(pairs, spin_axis=None) -> list:
    """Members of the massive solutions (theta0, kvec0, kvec1, spin0, spin1,
    esign0); the j half carries the label -esign0."""
    return [(t0, (kv0, 0, e, s0, spin_axis), (kv1, 1, -e, s1, spin_axis),
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
    return _build(mass, _massive_pairs([(s.theta0, s.kvec0, s.kvec1, s.spin0, s.spin1, s.esign0)
                                        for s in specs]), norm_choice)


SPIN_PAIRS = (("up", "up"), ("down", "down"), ("up", "down"), ("down", "up"))


def _massive_set(kvec0, kvec1, theta0: float, spin_axis=None) -> list:
    """Members of the eight labeled massive solutions, in set order; they
    share their 8 distinct rows (half, spin, esign0)."""
    pairs = [(theta0, kvec0, kvec1, s0, s1, e) for s0, s1 in SPIN_PAIRS for e in (1, -1)]
    return _massive_pairs(pairs, spin_axis)


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
    return _build(spec.mass, _massive_set(spec.kvec0, spec.kvec1, spec.theta0, spin_axis), spec.norm_choice)


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
    return [(spec.theta0, row0, row1, spec.label, spec.theta)]


def build_massless_theta_solution(spec: MasslessThetaSpec) -> PlaneWaveSolution:
    """Certified massless solution with running phase direction theta."""
    return _build(0.0, _running_phase(spec))[0]


_CHIRALITY_PAIRS = (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R"))


def _massless_set(kvec0, kvec1, theta0: float) -> list:
    """Members of the four constant-phase massless solutions, sharing 4
    rows; at positive frequency chirality = helicity."""
    spin = {"L": "down", "R": "up"}
    return [(theta0, (kvec0, 0, 1, spin[c0], None), (kvec1, 1, 1, spin[c1], None), f"{c0}{c1}", ZERO_FOUR)
            for c0, c1 in _CHIRALITY_PAIRS]


def enumerate_massless_theta0_set(kvec0, kvec1, theta0: float) -> list[PlaneWaveSolution]:
    """The four constant-phase massless solutions, ordered
    (L,L), (L,R), (R,L), (R,R); both components run at positive frequency."""
    return _build(0.0, _massless_set(vector(kvec0, "kvec0", 3), vector(kvec1, "kvec1", 3),
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
    k, u = _half([s.kvec for s in samples], mass, [0] * n0 + [1] * (len(samples) - n0),
                 [s.esign for s in samples], [s.spin for s in samples])
    terms = [(s.amplitude, k[i], u[i]) for i, s in enumerate(samples)]
    packet = WavePacket(mass, theta0, tuple(terms[:n0]), tuple(terms[n0:]))
    certify_solution(packet)
    return packet


# ---------------------------------------------------------------------------
# certification


def certify_solution(sol):
    """Verify the field-equation residual and dispersion of a constructed
    field, a solution or a wave packet; raise CertificationError on
    failure, else return the residual bound.  The bound is the sum of the
    norms of the term residuals, which no pointwise residual exceeds, so
    no point is sampled.  A non-finite residual is an overflow of the
    inputs (ValueError).

    A list of fields of one mass is certified in one `verify.term_residuals`
    product, each by its own checks and bound, and returns a list of bounds.
    The fields are checked in order: each term momentum by its dispersion,
    then the residual, against the spinor scale recorded with the field's
    stacked terms.  Each distinct term momentum is checked once."""
    fields = [sol] if isinstance(sol, _PlaneWaveSum) else list(sol)
    if not fields:
        return []
    terms = verify.term_residuals(fields)
    owner = np.concatenate([o for _, _, o in terms])
    kl = np.concatenate([kl for kl, _, _ in terms])
    res = np.bincount(owner, np.linalg.norm(np.concatenate([r for _, r, _ in terms]), axis=1),
                      minlength=len(fields))
    mass = fields[0].mass
    # a running phase moves the term momenta to k +- theta
    k_scale = np.full(len(fields), max(1.0, mass))
    np.maximum.at(k_scale, owner, np.abs(kl).max(axis=1))
    lowered = list(map(tuple, kl.tolist()))
    # k.k of lowered components (t, -x, -y, -z), summed as FourVector.dot sums it
    off = {(t, x, y, z) for t, x, y, z in set(lowered)
           if not _dispersion(t, t * t - x * x - y * y - z * z, mass) <= verify.RESIDUAL_TOL}
    # the first off-shell term of the first field holding one, in the field's term order
    first_off = (-1, 0)
    if off:
        first_off = min((o, n) for n, (o, q) in enumerate(zip(owner.tolist(), lowered)) if q in off)
    for n, (f, r, ks) in enumerate(zip(fields, res.tolist(), k_scale.tolist())):
        if n == first_off[0]:
            t, x, y, z = lowered[first_off[1]]
            k = FourVector(t, -x, -y, -z)
            if not math.isfinite(dispersion_residual(k, mass)):  # k.k overflows
                raise ValueError(f"solution {f.label!r} overflows: term momentum {k} is too large")
            raise CertificationError(f"term momentum {k} violates the dispersion relation for m={mass}")
        if not math.isfinite(r):
            raise ValueError(f"solution {f.label!r} overflows: mass, momenta or amplitudes too large")
        if r > verify.RESIDUAL_TOL * ks * f._u_scale:
            raise CertificationError(f"solution {f.label!r} failed residual certification: {r:.3e}")
    return float(res[0]) if isinstance(sol, _PlaneWaveSum) else [float(r) for r in res]


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
