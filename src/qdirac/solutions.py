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

Spinor phases are fixed by making the first significant component real
positive, so constructions are deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

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


@cache
def _cert_points() -> np.ndarray:
    """The deterministic sample points of build-time residual
    certification, read-only.  Drawn on first use, not at import:
    numpy imports its random module lazily."""
    points = verify.default_points(seed=8643)
    points.setflags(write=False)
    return points


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
    """Closed-form element of ker(slashed(k) - mass_sign*m) for on-shell k.

    The 2-spinor chi is the spin-`spin` eigenvector of sigma.n for the
    quantization axis `spin_axis` (z axis when None).  Both branch shapes
    use the denominator |k.t| + m, so they are stable at every admissible
    frequency sign.  The result is scaled to u^dag u = |k.t| ("E") or
    |k.t|/m ("E_over_m") and its kernel membership is re-verified.
    """
    if mass <= 0.0:
        raise ValueError("build_u_spinor requires mass > 0")
    choice(mass_sign, "mass_sign", (1, -1))
    choice(spin, "spin", SPINS)
    choice(norm_choice, "norm_choice", NORM_CHOICES)
    shell = abs(kfour.dot(kfour) - mass * mass)
    if shell > verify.RESIDUAL_TOL * (kfour.t * kfour.t + mass * mass):
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


def _massless_kernel_spinor(kfour: FourVector, chirality: str, energy: float) -> np.ndarray:
    """Element of the 2-dimensional ker(slashed(k)) for null k != 0,
    selected by chirality ("R" -> +1, "L" -> -1 eigenvalue of gamma5),
    phase-fixed and scaled to u^dag u = energy.

    The helicity of the returned spinor is chirality * sign(k.t) / 2 * 2;
    concretely u = (chi_h, c*chi_h) with h = c * sign(k.t).
    """
    kvec = kfour.spatial()
    if float(np.linalg.norm(kvec)) == 0.0 or kfour.t == 0.0:
        raise ValueError("massless kernel needs a nonzero null four-momentum")
    c = 1 if chirality == "R" else -1
    h = c * (1 if kfour.t > 0 else -1)
    chi_up, chi_down = spin_basis(kvec)
    chi = chi_up if h > 0 else chi_down
    u = _fix_phase(np.concatenate((chi, c * chi)).astype(complex))
    return u * math.sqrt(energy / float(np.real(np.vdot(u, u))))


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

    def eval_with_derivatives(self, points):
        """Values and analytic first derivatives at a batch of points.

        Returns (psi0, psi1, d0, d1): values with shape (P, 4) and
        derivatives with shape (P, 4, 4) indexed (point, lowered mu,
        spinor component).
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 4)
        values, derivs = [], []
        for kl, cu in self.stacked_terms():
            phase = np.exp(1j * (pts @ kl.T))
            values.append(phase @ cu)
            # d_mu exp(i k.x) = i k_mu exp(i k.x), term by term
            dcu = (1j * kl[:, :, None] * cu[:, None, :]).reshape(-1, 16)
            derivs.append((phase @ dcu).reshape(-1, 4, 4))
        return values[0], values[1], derivs[0], derivs[1]

    def _sample_grid(self, grid: SpacetimeGrid) -> SampledField:
        """Values on every lattice point."""
        return SampledField(grid, *(plane_wave_sum(grid, kl, cu) for kl, cu in self.stacked_terms()))

    def evaluate(self, x: FourVector) -> QSpinor4:
        psi0, psi1, _, _ = self.eval_with_derivatives(x.as_array())
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

    esign0/esign1 are the branch labels of the (+-)/(-+) pairing; they
    must be opposite.  esign1 equals the frequency sign of k1; the
    complex half runs at the reversed frequency -esign0*E0 (see module
    docstring).
    """

    mass: float
    theta0: float
    kvec0: tuple[float, float, float]
    kvec1: tuple[float, float, float]
    spin0: str = "up"
    spin1: str = "up"
    esign0: int = 1
    esign1: int = -1
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
        for name in ("esign0", "esign1"):
            choice(getattr(self, name), name, (1, -1))
        if self.esign1 != -self.esign0:
            raise ValueError("esign1 must be opposite to esign0 (the (+-)/(-+) pairing)")
        choice(self.norm_choice, "norm_choice", NORM_CHOICES)

    @property
    def label(self) -> str:
        s = {"up": "u", "down": "d"}
        e = {1: "+", -1: "-"}
        return f"{s[self.spin0]}{s[self.spin1]}{e[self.esign0]}{e[self.esign1]}"


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
    esign*|k|, spin names the helicity, and the chirality is helicity *
    frequency sign.
    """
    if mass > 0:
        mass_sign = 1 if half else -1
        k = FourVector(mass_sign * esign * mass_shell_energy(kvec, mass), *kvec)
        u = build_u_spinor(k, mass, mass_sign=mass_sign, spin=spin, norm_choice=norm_choice,
                           spin_axis=_resolve_axis(spin_axis, kvec))
    else:
        k = FourVector(esign * mass_shell_energy(kvec, 0.0), *kvec)
        h = 1 if spin == "up" else -1
        u = _massless_kernel_spinor(k, "R" if h * esign > 0 else "L", abs(k.t))
    u.setflags(write=False)
    return k, u


def build_massive_solution(spec: MassiveSpec, spin_axis=None) -> PlaneWaveSolution:
    """Certified massive plane-wave solution for one label combination."""
    k0, u0 = _half(spec.kvec0, spec.mass, 0, spec.esign0, spec.spin0, spec.norm_choice, spin_axis)
    k1, u1 = _half(spec.kvec1, spec.mass, 1, spec.esign1, spec.spin1, spec.norm_choice, spin_axis)
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
                spin0=spin0, spin1=spin1, esign0=esign0, esign1=-esign0,
                norm_choice=norm_choice,
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
    component spinor is the chirality-selected kernel element of
    slashed(theta).
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
    # kernel of slashed(theta), not of slashed(k): for kappa < 0 the two
    # differ in helicity; normalization forced to u^dag u = |k.t|
    u0 = _massless_kernel_spinor(spec.theta, spec.chirality0, abs(k0.t))
    u1 = _massless_kernel_spinor(spec.theta, spec.chirality1, abs(k1.t))
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
    out = []
    for c0, c1 in _CHIRALITY_PAIRS:
        # at positive frequency the chirality equals the helicity
        k0, u0 = _half(kvec0, 0.0, 0, 1, "up" if c0 == "R" else "down")
        k1, u1 = _half(kvec1, 0.0, 1, 1, "up" if c1 == "R" else "down")
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


def _packet_term(sample: PacketSample, mass: float, component: int):
    return (sample.amplitude, *_half(sample.kvec, mass, component, sample.esign, sample.spin))


def build_wave_packet(spec: WavePacketSpec) -> WavePacket:
    """Single-component packet; the other symplectic half is zero."""
    terms = tuple(_packet_term(s, spec.mass, spec.component) for s in spec.samples)
    if spec.component == 0:
        return WavePacket(spec.mass, 0.0, terms, ())
    return WavePacket(spec.mass, math.pi / 2.0, (), terms)


def make_wave_packet(mass: float, theta0: float, samples0, samples1) -> WavePacket:
    """Two-component packet with an explicit mixing angle."""
    terms0 = tuple(_packet_term(s, mass, 0) for s in samples0)
    terms1 = tuple(_packet_term(s, mass, 1) for s in samples1)
    return WavePacket(float(mass), float(theta0), terms0, terms1)


# ---------------------------------------------------------------------------
# certification


def certify_solution(sol: PlaneWaveSolution) -> float:
    """Verify the analytic field-equation residual and dispersion of a
    constructed solution; raise CertificationError on failure.  A
    non-finite residual is an overflow of the inputs (ValueError)."""
    for k in (sol.k0, sol.k1):
        if dispersion_residual(k, sol.mass) > verify.RESIDUAL_TOL:
            raise CertificationError(
                f"stored momentum {k} violates the dispersion relation for m={sol.mass}"
            )
    res = verify.dirac_residual(sol, points=_cert_points())
    if not math.isfinite(res):
        raise ValueError(f"solution {sol.label!r} overflows: mass or momenta too large")
    k_scale = max(
        1.0,
        float(np.abs(sol.k0.as_array()).max()),
        float(np.abs(sol.k1.as_array()).max()),
        sol.mass,
    )
    u_scale = max(1.0, float(np.linalg.norm(sol.u0)), float(np.linalg.norm(sol.u1)))
    if res > verify.RESIDUAL_TOL * k_scale * u_scale:
        raise CertificationError(
            f"solution {sol.label!r} failed residual certification: {res:.3e}"
        )
    return res


# ---------------------------------------------------------------------------
# JSON schemas for the solution specs


def massive_spec_from_dict(d: dict) -> MassiveSpec:
    return MassiveSpec(
        mass=require(d, "mass"),
        theta0=require(d, "theta0"),
        kvec0=require(d, "kvec0"),
        kvec1=require(d, "kvec1"),
        spin0=d.get("spin0", "up"),
        spin1=d.get("spin1", "up"),
        esign0=sign(d.get("esign0", "+"), "esign0"),
        esign1=sign(d.get("esign1", "-"), "esign1"),
        norm_choice=d.get("norm_choice", "E_over_m"),
    )


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
