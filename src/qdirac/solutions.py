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
normalization and phase fix.  Spinor phases are fixed by making the
first significant component real positive, so constructions are
deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import verify
from ._fields import choice, number, require, sign, vector
from .grid import SampledField, SpacetimeGrid, plane_wave_sum
from .spinor import (
    FourVector,
    PAULI,
    QSpinor4,
    ZERO_FOUR,
    slashed,
    spin_basis,
)

SCHEMA_VERSION = 1

SPINS = ("up", "down")
CHIRALITIES = ("L", "R")
NORM_CHOICES = ("E", "E_over_m")


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
    with np.errstate(over="ignore"):
        k2 = float(kvec @ kvec)
    if mass == 0.0 and k2 == 0.0:
        raise ValueError("massless momentum must have nonzero spatial part")
    energy = math.sqrt(k2 + mass * mass)
    if not math.isfinite(energy):
        raise ValueError(
            f"mass {mass!r} or momentum {kvec.tolist()} is too large: its energy overflows")
    return sign * energy


def dispersion_residual(kfour: FourVector, mass: float) -> float:
    """|k.k - m^2| relative to |k.t|^2 + m^2."""
    scale = kfour.t * kfour.t + mass * mass
    if scale == 0.0:
        return abs(kfour.dot(kfour))
    return abs(kfour.dot(kfour) - mass * mass) / scale


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Rotate a spinor's global phase so the first significant component
    is real positive."""
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        raise ValueError("cannot fix the phase of a zero spinor")
    for comp in u:
        if abs(comp) > 1e-12 * nrm:
            return u * (comp.conjugate() / abs(comp))
    raise ValueError("spinor has no significant component")


def build_u_spinor(
    kfour: FourVector,
    mass: float,
    mass_sign: int,
    spin: str = "up",
    norm_choice: str = "E_over_m",
    spin_axis=None,
) -> np.ndarray:
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
    """
    if not mass >= 0.0:
        raise ValueError("build_u_spinor requires mass >= 0")
    choice(mass_sign, "mass_sign", (1, -1))
    choice(spin, "spin", SPINS)
    choice(norm_choice, "norm_choice", NORM_CHOICES)
    if mass == 0.0 and norm_choice == "E_over_m":
        raise ValueError("norm_choice 'E_over_m' needs mass > 0")
    if kfour.t == 0.0:
        raise ValueError(f"four-momentum {kfour} has zero frequency")
    if dispersion_residual(kfour, mass) > verify.RESIDUAL_TOL:
        raise ValueError(f"four-momentum {kfour} is off the mass shell for m={mass}")

    chi_up, chi_down = spin_basis(spin_axis)
    chi = chi_up if spin == "up" else chi_down
    energy = abs(kfour.t)
    kvec = kfour.spatial()
    sk = sum(kvec[ell] * PAULI[ell] for ell in range(3))
    lower = (sk @ chi) / (energy + mass)

    positive = kfour.t > 0
    if mass_sign > 0:
        blocks = (chi, lower) if positive else (-lower, chi)
    else:
        blocks = (lower, chi) if positive else (chi, -lower)
    u = np.concatenate(blocks).astype(complex)

    target = energy if norm_choice == "E" else energy / mass
    u = u * math.sqrt(target / float(np.real(np.vdot(u, u))))
    u = _fix_phase(u)

    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm((slashed(kfour) - mass_sign * mass * np.eye(4)) @ u))
    if not math.isfinite(resid):
        raise ValueError(f"mass {mass!r} or momentum {kfour} is too large: the spinor overflows")
    if resid > verify.RESIDUAL_TOL * (energy + mass) * float(np.linalg.norm(u)):
        raise CertificationError(
            f"u-spinor failed the kernel condition: residual {resid:.3e} "
            f"for k={kfour}, mass_sign={mass_sign}"
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

    def stacked_terms(self):
        """Per half: lowered momenta (T, 4) and weighted spinors c*u (T, 4)."""
        return [(np.array([k.lowered() for _, k, _ in half], dtype=float).reshape(-1, 4),
                 np.array([c * u for c, _, u in half], dtype=complex).reshape(-1, 4))
                for half in self._terms()]

    def eval_points(self, points):
        """Values (psi0, psi1), each of shape (P, 4), at a batch of points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 4)
        return tuple(np.exp(1j * (pts @ kl.T)) @ cu for kl, cu in self.stacked_terms())

    def _sample_grid(self, grid: SpacetimeGrid) -> SampledField:
        """Values on every lattice point."""
        return SampledField(grid, *(plane_wave_sum(grid, kl, cu) for kl, cu in self.stacked_terms()))

    def evaluate(self, x: FourVector) -> QSpinor4:
        psi0, psi1 = self.eval_points(x.as_array())
        return QSpinor4(psi0[0], psi1[0])

    def density(self, x: FourVector) -> float:
        s = self.evaluate(x)
        return float(np.sum(np.abs(s.psi0) ** 2 + np.abs(s.psi1) ** 2))


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
    frequency -esign0*E0 (see module docstring).
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
        choice(self.esign0, "esign0", (1, -1))
        choice(self.norm_choice, "norm_choice", NORM_CHOICES)

    @property
    def label(self) -> str:
        s = {"up": "u", "down": "d"}
        e = {1: "+", -1: "-"}
        return f"{s[self.spin0]}{s[self.spin1]}{e[self.esign0]}{e[-self.esign0]}"


def _resolve_axis(spin_axis, kvec):
    """The spin quantization axis: None for the z axis, or kvec itself
    when spin_axis is "momentum" (the helicity basis)."""
    if choice(spin_axis, "spin_axis", (None, "momentum")) is None:
        return None
    if float(np.linalg.norm(kvec)) == 0.0:
        raise ValueError("spin_axis='momentum' needs nonzero spatial momentum")
    return kvec


def _half(kvec, mass: float, half: int, esign: int, spin: str,
          norm_choice: str = "E_over_m", spin_axis=None):
    """Four-momentum and read-only kernel spinor of one plane-wave term.

    The only place a branch label becomes a frequency sign.  Massive: the
    complex half (0) carries the flipped mass sign, so it runs at
    -esign*E with u in ker(slashed(k) + m); the j half (1) runs at
    +esign*E with u in ker(slashed(k) - m).  Massless: the frequency is
    esign*|k| on both halves, the mass sign drops out, the spin axis is
    the momentum, so spin names the helicity, and u^dag u = |k.t|.
    """
    if mass > 0:
        mass_sign = 1 if half else -1
        k = FourVector(mass_sign * esign * mass_shell_energy(kvec, mass), *kvec)
        axis = _resolve_axis(spin_axis, kvec)
    else:
        k = FourVector(esign * mass_shell_energy(kvec, 0.0), *kvec)
        mass_sign, norm_choice, axis = 1, "E", kvec
    u = build_u_spinor(k, mass, mass_sign, spin, norm_choice, axis)
    u.setflags(write=False)
    return k, u


def build_massive_solution(spec: MassiveSpec, spin_axis=None) -> PlaneWaveSolution:
    """Certified massive plane-wave solution for one label combination."""
    k0, u0 = _half(spec.kvec0, spec.mass, 0, spec.esign0, spec.spin0, spec.norm_choice, spin_axis)
    k1, u1 = _half(spec.kvec1, spec.mass, 1, -spec.esign0, spec.spin1, spec.norm_choice, spin_axis)
    sol = PlaneWaveSolution(
        theta0=spec.theta0, k0=k0, k1=k1, u0=u0, u1=u1,
        mass=spec.mass, theta=ZERO_FOUR, label=spec.label,
    )
    certify_solution(sol)
    return sol


SPIN_PAIRS = (("up", "up"), ("down", "down"), ("up", "down"), ("down", "up"))


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
    out = []
    for spin0, spin1 in SPIN_PAIRS:
        for esign0 in (1, -1):
            spec = MassiveSpec(
                mass=mass, theta0=theta0, kvec0=kvec0, kvec1=kvec1,
                spin0=spin0, spin1=spin1, esign0=esign0, norm_choice=norm_choice,
            )
            out.append(build_massive_solution(spec, spin_axis=spin_axis))
    return out


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


def build_massless_theta_solution(spec: MasslessThetaSpec) -> PlaneWaveSolution:
    """Certified massless solution with running phase direction theta."""
    k0 = spec.theta.scale(spec.kappa0)
    k1 = spec.theta.scale(spec.kappa1)
    # ker slashed(k) = ker slashed(theta); the helicity along k is
    # chirality * sign(k.t), which flips with the sign of kappa
    u0, u1 = (
        build_u_spinor(k, 0.0, 1, "up" if (c == "R") == (k.t > 0) else "down", "E", k.spatial())
        for k, c in ((k0, spec.chirality0), (k1, spec.chirality1)))
    sol = PlaneWaveSolution(
        theta0=spec.theta0, k0=k0, k1=k1, u0=u0, u1=u1,
        mass=0.0, theta=spec.theta, label=spec.label,
    )
    certify_solution(sol)
    return sol


_CHIRALITY_PAIRS = (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R"))


def enumerate_massless_theta0_set(kvec0, kvec1, theta0: float) -> list[PlaneWaveSolution]:
    """The four constant-phase massless solutions, ordered
    (L,L), (L,R), (R,L), (R,R); both components run at positive frequency."""
    kvec0 = vector(kvec0, "kvec0", 3)
    kvec1 = vector(kvec1, "kvec1", 3)
    theta0 = number(theta0, "theta0")
    # the four distinct terms, each built once; at positive frequency
    # the chirality equals the helicity
    terms = [{c: _half(kvec, 0.0, half, 1, "up" if c == "R" else "down") for c in CHIRALITIES}
             for half, kvec in enumerate((kvec0, kvec1))]
    out = []
    for c0, c1 in _CHIRALITY_PAIRS:
        (k0, u0), (k1, u1) = terms[0][c0], terms[1][c1]
        sol = PlaneWaveSolution(
            theta0=theta0, k0=k0, k1=k1, u0=u0, u1=u1,
            mass=0.0, theta=ZERO_FOUR, label=f"{c0}{c1}",
        )
        certify_solution(sol)
        out.append(sol)
    return out


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
    """One on-shell plane-wave sample of a packet component."""

    kvec: tuple[float, float, float]
    amplitude: float
    spin: str = "up"
    esign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kvec", vector(self.kvec, "kvec", 3))
        object.__setattr__(self, "amplitude", number(self.amplitude, "amplitude"))
        choice(self.spin, "spin", SPINS)
        choice(self.esign, "esign", (1, -1))


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
    """Two-component packet with an explicit mixing angle."""
    terms0, terms1 = (tuple((s.amplitude, *_half(s.kvec, mass, half, s.esign, s.spin))
                            for s in samples)
                      for half, samples in enumerate((samples0, samples1)))
    return WavePacket(float(mass), float(theta0), terms0, terms1)


# ---------------------------------------------------------------------------
# certification


def certify_solution(sol: PlaneWaveSolution) -> float:
    """Verify the field-equation residual and dispersion of a constructed
    solution; raise CertificationError on failure, else return the
    residual bound.  The bound is the sum of the norms of the term
    residuals, which no pointwise residual exceeds, so no point is
    sampled.  A non-finite residual is an overflow of the inputs
    (ValueError)."""
    for k in (sol.k0, sol.k1):
        if dispersion_residual(k, sol.mass) > verify.RESIDUAL_TOL:
            raise CertificationError(
                f"stored momentum {k} violates the dispersion relation for m={sol.mass}"
            )
    terms = verify.term_residuals(sol)
    res = float(sum(np.linalg.norm(r, axis=1).sum() for _, r in terms))
    if not math.isfinite(res):
        raise ValueError(f"solution {sol.label!r} overflows: mass or momenta too large")
    # a running phase moves the term momenta to k +- theta
    k_scale = max([1.0, sol.mass, *(float(np.abs(kl).max()) for kl, _ in terms if kl.size)])
    u_scale = max(1.0, float(np.linalg.norm(sol.u0)), float(np.linalg.norm(sol.u1)))
    if res > verify.RESIDUAL_TOL * k_scale * u_scale:
        raise CertificationError(
            f"solution {sol.label!r} failed residual certification: {res:.3e}"
        )
    return res


# ---------------------------------------------------------------------------
# JSON schemas for the solution specs


def massive_spec_from_dict(d: dict) -> MassiveSpec:
    spec = MassiveSpec(
        mass=require(d, "mass"),
        theta0=require(d, "theta0"),
        kvec0=require(d, "kvec0"),
        kvec1=require(d, "kvec1"),
        spin0=d.get("spin0", "up"),
        spin1=d.get("spin1", "up"),
        esign0=sign(d.get("esign0", "+"), "esign0"),
        norm_choice=d.get("norm_choice", "E_over_m"),
    )
    # esign1 is optional and must be the opposite label
    if "esign1" in d and sign(d["esign1"], "esign1") != -spec.esign0:
        raise ValueError("field 'esign1' must be opposite to 'esign0' (the (+-)/(-+) pairing)")
    return spec


def massless_theta_spec_from_dict(d: dict) -> MasslessThetaSpec:
    return MasslessThetaSpec(
        theta=FourVector(*vector(require(d, "theta"), "theta", 4)),
        kappa0=require(d, "kappa0"),
        kappa1=require(d, "kappa1"),
        theta0=d.get("theta0", 0.0),
        chirality0=d.get("chirality0", "R"),
        chirality1=d.get("chirality1", "R"),
    )


def packet_spec_from_dict(d: dict) -> WavePacketSpec:
    raw = require(d, "samples")
    if not isinstance(raw, (list, tuple)):
        raise ValueError("field 'samples' must be a list")
    spec = WavePacketSpec(
        component=require(d, "component"),
        mass=require(d, "mass"),
        samples=tuple(
            PacketSample(
                kvec=require(s, "kvec"),
                amplitude=require(s, "amplitude"),
                spin=s.get("spin", "up"),
                esign=sign(s.get("esign", "+"), "esign"),
            )
            for s in raw
        ),
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
