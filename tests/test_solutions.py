import cmath
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from qdirac import (
    CertificationError,
    FourVector,
    MassiveSpec,
    MasslessThetaSpec,
    PacketSample,
    PlaneWaveSolution,
    WavePacket,
    WavePacketSpec,
    adjoint_norm,
    build_massive_solution,
    build_massless_theta_solution,
    build_u_spinor,
    build_wave_packet,
    certify_solution,
    check_constraints,
    dirac_residual,
    enumerate_massive_set,
    enumerate_massless_theta0_set,
    inner_product_grid,
    make_wave_packet,
    mass_shell_energy,
    slashed,
    SpacetimeGrid,
)
from qdirac import solutions
from qdirac._fields import choice
from qdirac.cli import run_verify
from qdirac.solutions import (
    NORM_CHOICES,
    SPINS,
    _half,
    build_massive_solutions,
    massive_spec_from_dict,
    packet_spec_from_dict,
)
from qdirac.spinor import BETA_DIAG, GAMMA, spin_basis
from qdirac.verify import default_points
from helpers import in_span, null_space, random_null_fourvector

# chirality operator; "R" is its +1 eigenvalue, "L" its -1 eigenvalue
GAMMA5 = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]

EPS = np.finfo(float).eps
RNG_POINTS = np.random.default_rng(77).uniform(-3, 3, size=(40, 4))


# --- mass shell -------------------------------------------------------------

def test_mass_shell_rest_frame():
    assert mass_shell_energy((0, 0, 0), 1.0) == 1.0


def test_mass_shell_pythagorean():
    assert mass_shell_energy((3, 0, 0), 4.0) == 5.0


def test_mass_shell_dispersion():
    rng = np.random.default_rng(1)
    for _ in range(100):
        kvec = rng.uniform(-3, 3, size=3)
        m = rng.uniform(0.1, 4.0)
        sign = 1 if rng.uniform() < 0.5 else -1
        k = FourVector(mass_shell_energy(kvec, m, sign), *kvec)
        assert abs(k.dot(k) - m * m) <= 1e-14 * (k.t**2 + m * m)


def test_mass_shell_rejects_null_zero():
    with pytest.raises(ValueError):
        mass_shell_energy((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        mass_shell_energy((1, 0, 0), -1.0)


# --- u spinors ----------------------------------------------------------------

def test_u_spinor_rest_frame_exact():
    # at rest with mass_sign +1 the kernel is the upper block; with
    # E_over_m the normalization is exactly 1
    u = build_u_spinor(FourVector(2.0, 0, 0, 0), 2.0, mass_sign=1, spin="up",
                       norm_choice="E_over_m")
    assert np.array_equal(u, np.array([1, 0, 0, 0], dtype=complex))
    d = build_u_spinor(FourVector(2.0, 0, 0, 0), 2.0, mass_sign=1, spin="down",
                       norm_choice="E_over_m")
    assert np.array_equal(d, np.array([0, 1, 0, 0], dtype=complex))


@pytest.mark.parametrize("mass_sign", [1, -1])
@pytest.mark.parametrize("esign", [1, -1])
def test_u_spinor_kernel_residual(mass_sign, esign):
    rng = np.random.default_rng(100 + 10 * mass_sign + esign)
    for _ in range(50):
        kvec = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        k = FourVector(mass_shell_energy(kvec, m, esign), *kvec)
        for spin in ("up", "down"):
            u = build_u_spinor(k, m, mass_sign, spin)
            res = np.linalg.norm((slashed(k) - mass_sign * m * np.eye(4)) @ u)
            assert res <= 1e-12 * np.linalg.norm(u) * (abs(k.t) + m)


def test_u_spinor_normalization_both_choices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        kvec = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        esign = 1 if rng.uniform() < 0.5 else -1
        k = FourVector(mass_shell_energy(kvec, m, esign), *kvec)
        e = abs(k.t)
        for choice, want in (("E", e), ("E_over_m", e / m)):
            u = build_u_spinor(k, m, 1, "up", norm_choice=choice)
            assert abs(np.real(np.vdot(u, u)) - want) <= 1e-12 * want


def test_u_spinor_oracle_span():
    # independent dense null-space oracle: kernel is 2-dimensional and
    # contains the closed form; the two spin states span it
    rng = np.random.default_rng(4)
    for _ in range(50):
        kvec = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        mass_sign = 1 if rng.uniform() < 0.5 else -1
        esign = 1 if rng.uniform() < 0.5 else -1
        k = FourVector(mass_shell_energy(kvec, m, esign), *kvec)
        basis = null_space(slashed(k) - mass_sign * m * np.eye(4))
        assert basis.shape[1] == 2
        u_up = build_u_spinor(k, m, mass_sign, "up")
        u_dn = build_u_spinor(k, m, mass_sign, "down")
        assert in_span(u_up, basis) <= 1e-10
        assert in_span(u_dn, basis) <= 1e-10
        overlap = basis.conj().T @ np.stack([u_up, u_dn], axis=1)
        assert np.linalg.matrix_rank(overlap, tol=1e-8) == 2


def test_u_spinor_phase_convention():
    rng = np.random.default_rng(5)
    for _ in range(30):
        kvec = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        u = build_u_spinor(FourVector(mass_shell_energy(kvec, m), *kvec), m, 1, "down")
        nrm = np.linalg.norm(u)
        lead = next(c for c in u if abs(c) > 1e-12 * nrm)
        assert abs(lead.imag) <= 1e-15 * nrm
        assert lead.real > 0


@pytest.mark.parametrize("mass_sign", [1, -1])
@pytest.mark.parametrize("norm_choice, basis", [
    ("E_over_m", "z"), ("E_over_m", "momentum"), ("E", "z"), ("E", "momentum"), ("E", "massless"),
])
def test_spin_sums_and_completeness_of_built_rows(mass_sign, norm_choice, basis):
    # the rows (+E up, +E down, -E up, -E down) at one spatial momentum: per
    # frequency sign, sum_s u ubar = sign(k.t) (slashed(k) + mass_sign m) / 2,
    # divided by m for E_over_m, and ubar u = sign(k.t) mass_sign (times m
    # for E); over all four, sum u u^dag = (E/m or E) 1, so they have rank 4
    # and form a basis of C^4.  ubar = u^dag gamma^0
    rng = np.random.default_rng(31 + 2 * mass_sign + len(norm_choice) + len(basis))
    eps = np.finfo(float).eps
    for _ in range(20):
        kvec = tuple(rng.uniform(-2, 2, size=3))
        m = 0.0 if basis == "massless" else rng.uniform(0.2, 3.0)
        e = mass_shell_energy(kvec, m)
        per_m = m if norm_choice == "E_over_m" else 1.0
        u = np.array([build_u_spinor(FourVector(f * e, *kvec), m, mass_sign, spin, norm_choice,
                                     None if basis == "z" else kvec) for f in (1, -1) for spin in SPINS])
        outer = np.einsum("ti,tj->tij", u, u.conj())
        scale = e / per_m
        assert np.abs(outer.sum(axis=0) - scale * np.eye(4)).max() <= 8 * eps * scale
        assert np.linalg.matrix_rank(u) == 4
        for f, rows in ((1, slice(0, 2)), (-1, slice(2, 4))):
            want = f * (slashed(FourVector(f * e, *kvec)) + mass_sign * m * np.eye(4)) / (2 * per_m)
            assert np.abs(outer[rows].sum(axis=0) @ GAMMA[0] - want).max() <= 8 * eps * scale
            ubar_u = np.einsum("ti,ij,tj->t", u[rows].conj(), GAMMA[0], u[rows]).real
            assert np.abs(ubar_u - f * mass_sign * m / per_m).max() <= 8 * eps * scale


def test_u_spinor_input_validation():
    with pytest.raises(ValueError):
        build_u_spinor(FourVector(1.5, 0, 0, 0), 1.0, 1, "up")  # off shell
    with pytest.raises(ValueError):
        build_u_spinor(FourVector(1.0, 0, 0, 0), -1.0, 1, "up")
    with pytest.raises(ValueError):
        build_u_spinor(FourVector(1.0, 0, 0, 0), 1.0, 2, "up")


def test_u_spinor_massless_case():
    # m = 0 is the massless kernel: only the "E" norm, and k.t must be nonzero
    with pytest.raises(ValueError, match="E_over_m"):
        build_u_spinor(FourVector(1, 0, 0, 1), 0.0, 1, "up", "E_over_m")
    for k in (FourVector(), FourVector(0, 1, 0, 0)):
        with pytest.raises(ValueError, match="frequency"):
            build_u_spinor(k, 0.0, 1, "up", "E")
    with pytest.raises(ValueError, match="mass shell"):
        build_u_spinor(FourVector(1, 0, 0, 0.5), 0.0, 1, "up", "E")
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = random_null_fourvector(rng)
        basis = null_space(slashed(k))
        for mass_sign in (1, -1):
            for axis in (None, k.spatial()):
                up, down = (build_u_spinor(k, 0.0, mass_sign, spin, "E", axis) for spin in ("up", "down"))
                for u in (up, down):
                    assert np.linalg.norm(slashed(k) @ u) <= 1e-12 * abs(k.t) * np.linalg.norm(u)
                    assert in_span(u, basis) <= 1e-10
                    assert np.real(np.vdot(u, u)) == pytest.approx(abs(k.t), rel=1e-12)
                sol = PlaneWaveSolution(0.3, k, k, up, down, 0.0)
                assert certify_solution(sol) <= 1e-12 * max(1.0, abs(k.t))


@pytest.mark.parametrize("mass, norm_choice", [(1.3, "E_over_m"), (1.3, "E"), (0.0, "E")])
@pytest.mark.parametrize("mass_sign", [1, -1])
def test_spin_sums_and_completeness(mass, norm_choice, mass_sign):
    # per half: sum_s u ubar = sign(k.t) (slashed(k) + mass_sign m) / (2m)
    # (/ 2 with the "E" norm), and the two spins at +-E form a basis of
    # C^4: sum u u^dag = u^dag u times 1, in the z and momentum bases
    rng = np.random.default_rng(41 + mass_sign)
    div = 2 * mass if norm_choice == "E_over_m" else 2.0
    for _ in range(20):
        kvec = rng.uniform(-2, 2, size=3)
        for axis in (None, kvec):
            completeness = np.zeros((4, 4), dtype=complex)
            for esign in (1, -1):
                k = FourVector(mass_shell_energy(kvec, mass, esign), *kvec)
                us = [build_u_spinor(k, mass, mass_sign, spin, norm_choice, axis) for spin in SPINS]
                target = abs(k.t) * 2 / div
                spin_sum = sum(np.outer(u, np.conj(u) * BETA_DIAG) for u in us)
                want = esign * (slashed(k) + mass_sign * mass * np.eye(4)) / div
                assert np.abs(spin_sum - want).max() <= 8 * EPS * target
                completeness += sum(np.outer(u, np.conj(u)) for u in us)
            assert np.abs(completeness - target * np.eye(4)).max() <= 8 * EPS * target


def test_numpy_scalar_mass_builds_the_float_mass_spinor():
    k = FourVector(2.0, 0.0, 0.0, math.sqrt(3.0))
    for mass in (np.float32(1.0), np.float64(1.0), 1):
        for norm_choice in NORM_CHOICES:
            got = build_u_spinor(k, mass, 1, "up", norm_choice)
            assert got.tobytes() == build_u_spinor(k, 1.0, 1, "up", norm_choice).tobytes()


@pytest.mark.parametrize("mass", [[1.0], "1.0", None, 1j])
def test_a_non_number_mass_raises_naming_the_mass(mass):
    k = FourVector(2.0, 0.0, 0.0, math.sqrt(3.0))
    with pytest.raises(ValueError, match=re.escape(f"field 'mass' must be a number, got {mass!r}")):
        build_u_spinor(k, mass, 1)


@pytest.mark.parametrize("mass, message", [
    (math.nan, "build_u_spinor requires mass >= 0"),
    (-1.0, "build_u_spinor requires mass >= 0"),
    (math.inf, "is off the mass shell for m=inf"),
])
def test_a_bad_number_mass_keeps_its_message(mass, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_u_spinor(FourVector(2.0, 0.0, 0.0, math.sqrt(3.0)), mass, 1)


# --- massive solutions -----------------------------------------------------------

def test_symplectic_limits():
    kvec = (0.3, -0.5, 0.8)
    m = 1.4
    e_over_m = mass_shell_energy(kvec, m) / m
    pure_c = build_massive_solution(MassiveSpec(m, 0.0, kvec, kvec))
    s = pure_c.evaluate(FourVector(0.7, 0.1, -0.2, 0.4))
    assert np.abs(s.psi1).max() == 0.0
    assert pure_c.density(FourVector()) == pytest.approx(e_over_m, rel=1e-14)

    pure_j = build_massive_solution(MassiveSpec(m, math.pi / 2, kvec, kvec))
    s = pure_j.evaluate(FourVector(0.7, 0.1, -0.2, 0.4))
    assert np.abs(s.psi0).max() <= 1e-16 * np.abs(s.psi1).max()
    assert pure_j.density(FourVector()) == pytest.approx(e_over_m, rel=1e-14)


def test_density_generic_mixture():
    rng = np.random.default_rng(6)
    for _ in range(20):
        kvec0 = rng.uniform(-2, 2, size=3)
        kvec1 = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 3.0)
        t0 = rng.uniform(0, 2 * math.pi)
        sol = build_massive_solution(MassiveSpec(m, t0, kvec0, kvec1))
        e0 = mass_shell_energy(kvec0, m) / m
        e1 = mass_shell_energy(kvec1, m) / m
        want = math.cos(t0) ** 2 * e0 + math.sin(t0) ** 2 * e1
        for pt in RNG_POINTS[:8]:
            assert abs(sol.density(FourVector(*pt)) - want) <= 1e-12 * max(want, 1.0)


def test_massive_spec_pairing_enforced():
    # the j-half label is derived as -esign0; a JSON spec may still name it
    assert MassiveSpec(1.0, 0.0, (0, 0, 1), (0, 0, 1), esign0=-1).label == "uu-+"
    d = {"mass": 1.0, "theta0": 0.0, "kvec0": [0, 0, 1], "kvec1": [0, 0, 1]}
    with pytest.raises(ValueError, match="esign1"):
        massive_spec_from_dict({**d, "esign0": "+", "esign1": "+"})
    assert massive_spec_from_dict({**d, "esign0": "-"}).esign0 == -1


def test_bool_sign_rejected():
    # True == 1, so a plain membership test would take True for +1
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="esign0"):
            MassiveSpec(mass=1.0, theta0=0.0, kvec0=(0, 0, 1), kvec1=(0, 0, 1), esign0=bad)
        with pytest.raises(ValueError, match="esign"):
            PacketSample((0, 0, 1), 1.0, "up", bad)


def test_spin_axis_vector_rejected():
    with pytest.raises(ValueError, match="spin_axis"):
        enumerate_massive_set(1.0, (0, 0, 1), (0, 1, 0), 0.4, spin_axis=np.array([0.0, 0.0, 1.0]))


def test_enumerate_massive_set_labels_and_residuals():
    sols = enumerate_massive_set(1.1, (0.2, 0.3, -0.4), (0.5, 0.0, 0.1), math.pi / 5)
    assert len(sols) == 8
    labels = [s.label for s in sols]
    assert labels == ["uu+-", "uu-+", "dd+-", "dd-+",
                      "ud+-", "ud-+", "du+-", "du-+"]
    for s in sols:
        assert dirac_residual(s, points=RNG_POINTS) <= 1e-12


def _member_alone(mass, kvec0, kvec1, theta0, norm_choice, spin_axis,
                  spin0="up", spin1="up", esign0=1):
    """One member of the massive set, built on its own: by
    build_massive_solution for the z spin axis, else from its two halves."""
    spec = MassiveSpec(mass, theta0, kvec0, kvec1, spin0, spin1, esign0, norm_choice)
    if spin_axis is None:
        return build_massive_solution(spec)
    # _half reads its values as checked: the spec checks the spins, and the
    # axis is read here as enumerate_massive_set reads it
    spin_axis = choice(spin_axis, "spin_axis", (None, "momentum"))
    # one one-row _half call per half, the complex half first
    ((k0,), (u0,)), ((k1,), (u1,)) = (
        _half([kvec], [spec.mass], [half], [e], [spin], norm_choice, [spin_axis])
        for half, kvec, e, spin in ((0, spec.kvec0, esign0, spin0), (1, spec.kvec1, -esign0, spin1)))
    sol = PlaneWaveSolution(spec.theta0, k0, k1, u0, u1, spec.mass, label=spec.label)
    certify_solution(sol)
    return sol


@pytest.mark.parametrize("norm_choice", ["E", "E_over_m"])
@pytest.mark.parametrize("spin_axis", [None, "momentum"])
def test_massive_set_members_equal_their_single_builds(norm_choice, spin_axis):
    # distinct kvec0 and kvec1, so a term taken from the wrong half shows
    kvec0, kvec1 = (0.2, 0.3, -0.4), (-0.5, 0.7, 0.1)
    members = [(s0, s1, e) for s0, s1 in solutions.SPIN_PAIRS for e in (1, -1)]
    for mass in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
        sols = enumerate_massive_set(mass, kvec0, kvec1, 0.7, norm_choice, spin_axis)
        for s, (spin0, spin1, esign0) in zip(sols, members, strict=True):
            want = _member_alone(mass, kvec0, kvec1, 0.7, norm_choice, spin_axis,
                                 spin0, spin1, esign0)
            assert (s.k0, s.k1, s.label, s.theta0, s.mass) == (
                want.k0, want.k1, want.label, want.theta0, want.mass)
            assert np.array_equal(s.u0, want.u0) and np.array_equal(s.u1, want.u1)


def _values(field, points):
    """(psi0, psi1) of a field at every point, as one flat complex vector."""
    return np.concatenate([np.concatenate([e.psi0, e.psi1])
                           for e in (field.evaluate(FourVector(*p)) for p in points)])


def test_gamma5_j_map_swaps_the_halves_but_leaves_the_labeled_span():
    # Psi -> gamma5 Psi j sends (psi0, psi1) to (-gamma5 psi1, gamma5 psi0):
    # the halves swap, and gamma5 flips their mass signs back
    mass, kvec, theta0 = 1.3, (0.3, -0.5, 0.7), 0.37
    sols = enumerate_massive_set(mass, kvec, kvec, theta0)
    images = [PlaneWaveSolution(math.pi / 2 - s.theta0, s.k1, s.k0, -GAMMA5 @ s.u1, GAMMA5 @ s.u0, mass)
              for s in sols]
    for s, image in zip(sols, images):
        for p in RNG_POINTS:
            x = FourVector(*p)
            e, g = s.evaluate(x), image.evaluate(x)
            assert np.abs(g.psi0 + GAMMA5 @ e.psi1).max() <= 4 * EPS
            assert np.abs(g.psi1 - GAMMA5 @ e.psi0).max() <= 4 * EPS
    assert max(dirac_residual(images)) <= 1e-16
    points = default_points()

    def real_rank(fields):
        v = np.array([_values(f, points) for f in fields])
        return np.linalg.matrix_rank(np.concatenate([v.real, v.imag], axis=1))

    assert real_rank(images) == 6
    # the map does not keep the labeled set's span under the set's phase convention
    for angle, rank in ((theta0, 12), (math.pi / 2 - theta0, 12),
                        (-(math.pi / 2 - theta0), 10), (math.pi / 2 + theta0, 10)):
        assert real_rank(images + enumerate_massive_set(mass, kvec, kvec, angle)) == rank
    members = [_values(s, points) for s in sols]
    for image in (_values(f, points) for f in images):
        for v in members:
            assert min(np.abs(image - sign * v).max() for sign in (1, -1)) >= 0.99 * np.abs(v).max()


def test_set_builders_make_one_half_call_per_distinct_term(monkeypatch):
    calls = []

    def counting_half(*args, **kwargs):
        calls.append(args)
        return _half(*args, **kwargs)

    monkeypatch.setattr(solutions, "_half", counting_half)
    # one stacked call, one row per distinct term: 8 massive, 4 massless
    enumerate_massive_set(1.1, (0.2, 0.3, -0.4), (0.5, 0.0, 0.1), 0.3)
    assert [len(kvec) for kvec, *_ in calls] == [8]
    calls.clear()
    enumerate_massless_theta0_set((0.2, 0.3, -0.4), (0.5, 0.0, 0.1), 0.3)
    assert [len(kvec) for kvec, *_ in calls] == [4]


@pytest.mark.parametrize("mass", [0.0, 1.3])
def test_half_reads_momenta_from_an_array_or_generator_as_from_tuples(mass):
    # the rows of an array or a generator are new objects, freed once read
    kvecs = [(0.2, 0.3, -0.4), (0.5, 0.0, 0.1), (-0.7, 0.2, 0.9), (0.1, -0.6, 0.3)]
    half, esign, spin = [0, 1, 0, 1], [1, -1, -1, 1], ["up", "down", "down", "up"]
    norm_choice = "E" if mass == 0.0 else "E_over_m"
    want_k, want_u = _half(kvecs, [mass] * 4, half, esign, spin, norm_choice, [None] * 4)
    for kvec in (np.array(kvecs), (np.array(kv) for kv in kvecs)):
        k, u = _half(kvec, [mass] * 4, half, esign, spin, norm_choice, [None] * 4)
        assert k == want_k
        assert np.array_equal(u, want_u)


# --- one row table per build ------------------------------------------------------

def _bits(*arrays) -> list:
    """dtype, shape and bytes of each array: equal means bit for bit, signed zeros included."""
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _field_bits(f) -> list:
    return [f.label, *_bits(f.k0.as_array(), f.k1.as_array(), f.theta.as_array(), f.u0, f.u1,
                            *(a for half in f.stacked_terms() for a in half))]


def _verify_fields(mass, box_length, theta0):
    """The fields of run_verify's one pass, in its table order, each built
    by its standalone builder: the massive set, the massless set, the
    running phase, the helicity set and the Gram set."""
    base = 2.0 * math.pi / box_length
    kvec = (base, 0.0, base)
    directions = ((base, 0.0, 0.0), (0.0, base, 0.0), (0.0, 0.0, base), (-base, 0.0, 0.0))
    return [*enumerate_massive_set(mass, kvec, kvec, theta0),
            *enumerate_massless_theta0_set(kvec, kvec, theta0),
            build_massless_theta_solution(
                MasslessThetaSpec(FourVector(1.0, 0.0, 0.0, 1.0), kappa0=2.0, kappa1=1.0, theta0=theta0)),
            *enumerate_massive_set(mass, kvec, kvec, theta0, spin_axis="momentum"),
            *build_massive_solutions(MassiveSpec(mass, theta0, kv, kv, s0, s1, e)
                                     for (s0, s1), kv in zip(solutions.SPIN_PAIRS, directions)
                                     for e in (1, -1))]


@pytest.mark.parametrize("mass, box_length, theta0", [(1.0, 2.0 * math.pi, math.pi / 8), (1.7, 5.0, -0.3)])
def test_verify_passes_equal_the_standalone_builds(monkeypatch, mass, box_length, theta0):
    want = _verify_fields(mass, box_length, theta0)
    passes, rows = [], []
    build, half = solutions._build, solutions._half

    def recording_build(*args, **kwargs):
        passes.append(build(*args, **kwargs))
        return passes[-1]

    def counting_half(kvec, *args):
        rows.append(len(kvec))
        return half(kvec, *args)

    monkeypatch.setattr(solutions, "_build", recording_build)
    monkeypatch.setattr(solutions, "_half", counting_half)
    code, _ = run_verify({"mass": mass, "box_length": box_length, "theta0": theta0}, None, 3)
    assert code == 0
    # one pass: 8 massive, 4 massless, 2 running-phase, 8 helicity and 16 Gram rows in one spinor build
    assert rows == [38]
    assert [[_field_bits(f) for f in p] for p in passes] == [[_field_bits(f) for f in want]]


def test_table_built_stacks_equal_the_constructor_stacks():
    theta = FourVector(1.2, 0, 1.2, 0)
    fields = [*enumerate_massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77, "E", "momentum"),
              *build_massive_solutions([MassiveSpec(0.2, -2.5, (0, 0, 0), (1e3, -2.0, 0.5), "down", "up", -1),
                                        MassiveSpec(0.2, 1.1, (0.3, 0, 0), (0.3, 0, 0), esign0="-")]),
              *enumerate_massless_theta0_set((0.4, 0.0, -0.6), (-0.3, 0.5, 0.2), 2.9),
              build_massless_theta_solution(MasslessThetaSpec(theta, -1.5, 0.5, 2.1, "L", "R"))]
    packet = make_wave_packet(0.8, 0.3, [PacketSample((0.2, 0, 1), 1.5),
                                         PacketSample((0, -1, 0), 0.5, "down")],
                              [PacketSample((1, 1, 0), 0.7, esign=-1)])
    for f in fields:
        made = PlaneWaveSolution(f.theta0, f.k0, f.k1, f.u0, f.u1, f.mass, f.theta, f.label)
        assert _field_bits(f) == _field_bits(made)
        assert (f.theta0, f.mass) == (made.theta0, made.mass)
        assert not any(a.flags.writeable for a in (f.u0, f.u1, *(a for h in f.stacked_terms() for a in h)))
    for f in [*fields, packet]:
        # each half stacked term by term: lowered momenta and c*u
        want = [(np.array([k.lowered() for _, k, _ in half], dtype=float).reshape(-1, 4),
                 np.array([c * u for c, _, u in half], dtype=complex).reshape(-1, 4)) for half in f._terms()]
        assert _bits(*(a for h in f.stacked_terms() for a in h)) == _bits(*(a for h in want for a in h))


@pytest.mark.parametrize("kvec, spin_axis", [((1e200, 0.0, 0.0), None), ((0.0, 0.0, 0.0), "momentum")])
def test_a_broken_row_raises_its_standalone_message(kvec, spin_axis):
    with pytest.raises(ValueError) as alone:
        enumerate_massive_set(1.3, kvec, kvec, 0.4, spin_axis=spin_axis)
    good = solutions._massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77)
    with pytest.raises(ValueError) as merged:
        solutions._build(good + solutions._massive_set(1.3, kvec, kvec, 0.4, spin_axis))
    assert str(merged.value) == str(alone.value)
    # verify's one pass: its massive set, first in the table, overflows first, as it does alone
    with pytest.raises(ValueError) as alone:
        enumerate_massive_set(1e300, (1.0, 0.0, 1.0), (1.0, 0.0, 1.0), math.pi / 8)
    with pytest.raises(ValueError) as merged:
        run_verify({"mass": 1e300}, None, 0)
    assert str(merged.value) == str(alone.value)


def _oracle_rows(seed):
    """Builder rows over both mass signs, massive and massless momenta,
    both norms, the z and momentum axes, both frequency signs and both
    spins, at scales from 1e-3 to 1e3, in shuffled order."""
    rng = np.random.default_rng(seed)
    rows = []
    for mass_sign, massless, norm, axis, freq, spin in itertools.product(
            (1, -1), (False, True), NORM_CHOICES, (None, "momentum"), (1, -1), SPINS):
        if massless and norm == "E_over_m":
            continue
        kvec = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        mass = 0.0 if massless else 10.0 ** rng.uniform(-3, 3)
        k = FourVector(mass_shell_energy(kvec, mass, freq), *kvec)
        rows.append((k, mass, mass_sign, spin, norm, None if axis is None else kvec))
    return [rows[i] for i in rng.permutation(len(rows))]


def _checked(k, mass, mass_sign, spin, norm, axis) -> tuple:
    """The `solutions._u_rows` row of build_u_spinor's arguments, read as
    build_u_spinor reads them."""
    basis = solutions._Z_BASIS if axis is None else spin_basis(axis)
    return k, float(mass), mass_sign, basis[SPINS.index(spin)], norm


@pytest.mark.parametrize("seed", [3, 4])
def test_stacked_builder_rows_equal_their_one_row_builds(seed):
    # the row kernel builds every set and every packet in one pass
    rows = _oracle_rows(seed)
    stacked = solutions._u_rows([_checked(*row) for row in rows])
    assert stacked.shape == (len(rows), 4)
    for (k, mass, mass_sign, spin, norm, axis), u in zip(rows, stacked):
        alone = build_u_spinor(k, mass, mass_sign, spin, norm, axis)
        # bit for bit, signed zeros included
        assert alone.tobytes() == u.tobytes()
        kernel = null_space(slashed(k) - mass_sign * mass * np.eye(4))
        assert kernel.shape[1] == 2
        assert in_span(u, kernel) <= 1e-12
        target = abs(k.t) if norm == "E" else abs(k.t) / mass
        assert float(np.vdot(u, u).real) == pytest.approx(target, rel=1e-13)


def _four_momenta(mass: float = 1.0) -> list:
    return [FourVector(mass_shell_energy(kvec, mass), *kvec)
            for kvec in ((0.3, 0, 0.4), (0, 1.0, 0), (-0.2, 0.5, 0.1), (0, 0, 2.0))]


def test_build_u_spinor_builds_one_row():
    ks = _four_momenta()
    for kfour in (ks, ks[:1], tuple(ks)):
        with pytest.raises(ValueError, match="build_u_spinor builds one row"):
            build_u_spinor(kfour, 1.0, 1)


def test_stacked_builder_checks_each_row_against_its_own_bound(monkeypatch):
    # a planted kernel error delta*u: the row at |k| ~ 1 fails its bound
    # 1e-12 (|k.t| + m) |u| even next to a row whose bound is 1e6 times larger
    small, big = (FourVector(mass_shell_energy((0.0, 0.0, kz), 1.0), 0.0, 0.0, kz) for kz in (1.0, 1e6))
    stack = solutions._KERNEL_STACK.copy()
    stack[4] *= 1.0 + 1e-9
    monkeypatch.setattr(solutions, "_KERNEL_STACK", stack)
    build_u_spinor(big, 1.0, 1)
    with pytest.raises(CertificationError) as alone:
        build_u_spinor(small, 1.0, 1)
    with pytest.raises(CertificationError) as in_stack:
        solutions._u_rows([_checked(k, 1.0, 1, "up", "E_over_m", None) for k in (big, small)])
    assert str(in_stack.value) == str(alone.value)


def _reused_rows():
    """Builder rows over a few momenta and spin axes, each reused by many
    rows: axes along +z and -z (the exact branches of spin_basis), general
    axes, the z axis (None), one axis repeated as an equal but separate
    list, and two equal axes that differ in the sign of a zero, whose
    bases differ."""
    kvecs = [(0.3, -0.4, 1.2), (0.0, 0.0, -0.7), (-1.5, 0.0, 0.2)]
    axes = [None, (0.0, 0.0, 2.0), (0.0, 0.0, -1.5), (0.3, -0.4, 1.2), [0.3, -0.4, 1.2],
            (-1.0, 0.0, 0.5), (-1.0, -0.0, 0.5)]
    rows = []
    for n, (kvec, axis, mass_sign, freq, spin, mass) in enumerate(itertools.product(
            kvecs, axes, (1, -1), (1, -1), SPINS, (0.0, 0.8))):
        norm = "E" if mass == 0.0 or n % 3 == 0 else "E_over_m"
        k = FourVector(mass_shell_energy(kvec, mass, freq), *kvec)
        rows.append((k, mass, mass_sign, spin, norm, axis))
    return rows


def test_stacked_builder_rows_reusing_momenta_and_axes_equal_their_one_row_builds():
    rows = _reused_rows()
    assert spin_basis((-1.0, 0.0, 0.5))[0].tobytes() != spin_basis((-1.0, -0.0, 0.5))[0].tobytes()
    for part in (rows, rows[::-1], rows[5:9]):
        stacked = solutions._u_rows([_checked(*row) for row in part])
        for (k, mass, mass_sign, spin, norm, axis), u in zip(part, stacked, strict=True):
            # bit for bit, signed zeros included
            assert build_u_spinor(k, mass, mass_sign, spin, norm, axis).tobytes() == u.tobytes()


def test_builds_keep_the_signed_zeros_of_each_momentum():
    # equal spatial momenta at one frequency that differ in the sign of a zero
    sol = build_massive_solution(MassiveSpec(1.0, 0.3, (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0)))
    assert sol.k0.t == sol.k1.t
    assert (math.copysign(1.0, sol.k0.x), math.copysign(1.0, sol.k1.x)) == (1.0, -1.0)
    # and so do the rows of one set build, which equal spatial momenta would otherwise share
    specs = [MassiveSpec(1.0, 0.3, (0.0, 0.5, 1.0), (0.2, 0.1, 0.3)),
             MassiveSpec(1.0, 0.3, (-0.0, 0.5, 1.0), (0.2, 0.1, 0.3))]
    for f, spec in zip(build_massive_solutions(specs), specs, strict=True):
        assert _field_bits(f) == _field_bits(build_massive_solution(spec))
    assert math.copysign(1.0, build_massive_solutions(specs)[1].k0.x) == -1.0


def test_stacked_builder_raises_for_its_first_bad_row():
    good = FourVector(mass_shell_energy((0.0, 0.3, 0.4), 1.0), 0.0, 0.3, 0.4)
    off_shell = FourVector(1.5, 0.0, 0.0, 0.0)
    tiny = FourVector(mass_shell_energy((0.0, 0.3, 0.4), 5e-324), 0.0, 0.3, 0.4)
    with pytest.raises(ValueError) as off:
        build_u_spinor(off_shell, 1.0, 1, "up")
    with pytest.raises(ValueError) as small:
        build_u_spinor(tiny, 5e-324, 1, "up")
    assert "off the mass shell" in str(off.value)
    assert "is too small: u^dag u = |k.t|/m overflows" in str(small.value)
    for spin in ("sideways", ["up"]):
        with pytest.raises(ValueError, match="'spin' must be one of"):
            build_u_spinor(good, 1.0, 1, spin)
    rows = {k: _checked(k, m, 1, "up", "E_over_m", None)
            for k, m in ((good, 1.0), (off_shell, 1.0), (tiny, 5e-324))}
    for ks, alone in (((off_shell, good, good), off), ((good, off_shell, good), off),
                      ((good, tiny, off_shell), small)):
        with pytest.raises(ValueError) as first:
            solutions._u_rows([rows[k] for k in ks])
        assert str(first.value) == str(alone.value)

    # a row failing a numeric gate raises before the next row is read
    def unread_after(bad):
        yield rows[good]
        yield rows[bad]
        raise AssertionError("the row after a failing row was read")

    for bad, alone in ((off_shell, off), (tiny, small)):
        with pytest.raises(ValueError) as first:
            solutions._u_rows(unread_after(bad))
        assert str(first.value) == str(alone.value)


def test_off_shell_term_momentum_fails_certification_alone_and_in_a_set():
    # a non-null running phase moves the term momenta k +- theta off the shell
    good = enumerate_massive_set(1.0, (0.3, 0.0, 0.4), (0.0, 0.5, 0.0), 0.4)
    bad = dataclasses.replace(good[0], theta=FourVector(0.3, 0.1, 0.0, 0.0))
    with pytest.raises(CertificationError, match="violates the dispersion relation") as alone:
        certify_solution(bad)
    # bad shares both of its rows with good[0]; behind massless fields it keeps its own mass
    massless = enumerate_massless_theta0_set((0.3, 0.0, 0.4), (0.0, 0.5, 0.0), 0.4)
    for fields in ([good[0], bad], [bad, good[0]], [*good, bad], [*massless, bad]):
        with pytest.raises(CertificationError) as in_set:
            certify_solution(fields)
        assert str(in_set.value) == str(alone.value)


def test_set_certification_reports_the_first_off_shell_term_in_field_order():
    # field 0 is off shell in its j half only, field 1 in its complex half only:
    # field 0's term is reported, though field 1's is stacked before it
    good = enumerate_massive_set(1.0, (0.3, 0.0, 0.4), (0.0, 0.5, 0.0), 0.4)
    off_k = FourVector(1.5, 0.0, 0.0, 0.0)
    bad1 = dataclasses.replace(good[0], k1=off_k)
    bad0 = dataclasses.replace(good[1], k0=FourVector(2.5, 0.0, 0.0, 0.0))
    with pytest.raises(CertificationError) as alone:
        certify_solution(bad1)
    assert str(alone.value) == f"term momentum {off_k} violates the dispersion relation for m=1.0"
    with pytest.raises(CertificationError) as in_set:
        certify_solution([good[2], bad1, bad0])
    assert str(in_set.value) == str(alone.value)


def test_spinor_scale_of_each_field_is_its_largest_scaled_term_spinor():
    theta = FourVector(1.2, 0, 1.2, 0)
    fields = [*enumerate_massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77, "E", "momentum"),
              *enumerate_massless_theta0_set((0.4, 0.0, -0.6), (-0.3, 0.5, 0.2), 2.9),
              build_massless_theta_solution(MasslessThetaSpec(theta, -1.5, 0.5, 2.1, "L", "R")),
              make_wave_packet(0.8, 0.3, [PacketSample((0.2, 0, 1), 1.5), PacketSample((0, -1, 0), 0.5, "down")],
                               [PacketSample((1, 1, 0), 40.0, esign=-1)])]
    for f in fields:
        terms = [term for half in f._terms() for term in half]
        assert f._u_scale == max([1.0, *(max(1.0, abs(c)) * math.hypot(*np.abs(u)) for c, _, u in terms)])


def test_set_certification_holds_each_solution_to_its_own_bound():
    # a spinor 1e-10 outside the kernel fails the bound of a |k| ~ 1
    # solution, though not that of a 1e3 times larger set member
    big = build_massive_solution(MassiveSpec(1.0, 0.3, (0, 0, 1e3), (0, 1e3, 0)))
    ok = build_massive_solution(MassiveSpec(1.0, 0.3, (0, 0, 1), (0, 1, 0)))
    off = np.array([0.0, 1.0, 0.0, 0.0]) * 1e-10 * float(np.linalg.norm(ok.u0))
    broken = dataclasses.replace(ok, u0=ok.u0 + off)
    assert certify_solution([big, ok]) == [certify_solution(big), certify_solution(ok)]
    with pytest.raises(CertificationError) as alone:
        certify_solution(broken)
    with pytest.raises(CertificationError) as in_set:
        certify_solution([big, broken])
    assert str(in_set.value) == str(alone.value)
    # each field is held to its own mass: a list of several masses gives each its one-field bound
    mixed = [big, build_massive_solution(MassiveSpec(2.0, 0.3, (0, 0, 1), (0, 1, 0))),
             *enumerate_massless_theta0_set((0, 0, 1e3), (0, 1, 0), 0.3), ok,
             build_massless_theta_solution(MasslessThetaSpec(FourVector(1.2, 0, 1.2, 0), -1.5, 0.5, 2.1)),
             make_wave_packet(40.0, 0.3, [PacketSample((0.2, 0, 1), 1.5)], [PacketSample((1, 1, 0), 0.7)])]
    for fields in (mixed, mixed[::-1]):
        assert certify_solution(fields) == [certify_solution(f) for f in fields]


def test_packets_are_certified_as_fields():
    samples = (PacketSample((0, 0, 1.0), 1.0), PacketSample((0.5, 0, 0), 1e6, "down", -1))
    packet = make_wave_packet(1.0, 0.4, samples, samples[:1])
    # the amplitude scales the bound with the residual
    assert certify_solution(packet) <= 1e-12 * 1e6 * 2.0
    (a0, k0, u0), (a1, k1, u1) = packet.terms0
    # the second term's spinor taken from ker(slashed(k) - m), the j-half kernel
    wrong = build_u_spinor(k1, 1.0, 1, "down")
    with pytest.raises(CertificationError, match="wave packet"):
        certify_solution(WavePacket(1.0, 0.4, ((a0, k0, u0), (a1, k1, wrong)), packet.terms1))


@pytest.mark.parametrize("change", [
    {"mass": 0.0},
    {"mass": -1.0},
    {"kvec0": (0.0, float("nan"), 1.0)},
    {"norm_choice": "bogus"},
    {"spin_axis": (0.0, 0.0, 1.0)},
    {"kvec1": (0.0, 0.0, 1e200)},
])
def test_massive_set_rejects_like_its_first_member(change):
    args = {"mass": 1.0, "kvec0": (0.2, 0.3, -0.4), "kvec1": (0.5, 0.0, 0.1),
            "theta0": 0.3, "norm_choice": "E_over_m", "spin_axis": None, **change}
    with pytest.raises(ValueError) as alone:
        _member_alone(**args)
    with pytest.raises(ValueError) as in_set:
        enumerate_massive_set(**args)
    assert type(in_set.value) is type(alone.value)
    assert str(in_set.value) == str(alone.value)


@pytest.mark.parametrize("mass", [1.0, 0.3, 7.0])
def test_rephased_solution_adjoint_norm_equals_fresh_build(mass):
    # the verify adjoint check re-phases uu+- and uu-+ of its massive set
    kvec = (1.0, 0.0, 1.0)
    sols = enumerate_massive_set(mass, kvec, kvec, math.pi / 8.0)
    for t0 in (0.0, math.pi / 8.0, math.pi / 4.0, math.pi / 2.0):
        for s, esign0 in zip(sols[:2], (1, -1)):
            fresh = build_massive_solution(MassiveSpec(mass, t0, kvec, kvec, esign0=esign0))
            assert adjoint_norm(dataclasses.replace(s, theta0=t0)) == adjoint_norm(fresh)


def test_complex_limit_degeneracy():
    # at theta0 = 0 only the complex half survives, so solutions sharing
    # (spin0, branch) coincide as fields
    sols = enumerate_massive_set(1.0, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 0.0)
    by_label = {s.label: s for s in sols}
    x = FourVector(0.3, -0.7, 0.2, 1.1)
    for a, b in (("uu+-", "ud+-"), ("dd-+", "du-+")):
        sa, sb = by_label[a].evaluate(x), by_label[b].evaluate(x)
        assert np.array_equal(sa.psi0, sb.psi0)
        assert np.array_equal(sa.psi1, sb.psi1)


def test_certification_rejects_off_shell_momentum():
    sol = build_massive_solution(MassiveSpec(1.0, 0.3, (0, 0, 1), (0, 0, 1)))
    broken = dataclasses.replace(sol, k0=FourVector(sol.k0.t + 0.3, *sol.k0.spatial()))
    with pytest.raises(CertificationError):
        certify_solution(broken)


def test_certification_rejects_wrong_kernel_spinor():
    # on shell, but u0 taken from ker(slashed(k) - m) instead of ker(slashed(k) + m)
    sol = build_massive_solution(MassiveSpec(1.0, 0.3, (0, 0, 1), (0, 0, 1)))
    assert sol.k0 == sol.k1
    broken = dataclasses.replace(sol, u0=sol.u1)
    with pytest.raises(CertificationError):
        certify_solution(broken)


BIG_THETA = FourVector(1e4, 6e3, 0, 8e3)


def test_running_phase_certified_at_term_momenta():
    # |k0| = |k1| = 1, but the plane-wave terms run at (1e-4 +- 1) theta,
    # and the residual bound scales with those momenta
    sol = build_massless_theta_solution(MasslessThetaSpec(BIG_THETA, kappa0=1e-4, kappa1=1e-4))
    u_scale = max(1.0, float(np.linalg.norm(sol.u0)), float(np.linalg.norm(sol.u1)))
    assert certify_solution(sol) <= 1e-12 * 1e4 * u_scale


def test_certification_rejects_running_phase_spinor_outside_kernel():
    # a null theta rotated in space: its kernel spinor is not in ker slashed(BIG_THETA)
    sol = build_massless_theta_solution(MasslessThetaSpec(BIG_THETA, kappa0=1e-4, kappa1=1e-4))
    other = build_massless_theta_solution(
        MasslessThetaSpec(FourVector(1e4, 0, 6e3, 8e3), kappa0=1e-4, kappa1=1e-4))
    for broken in (dataclasses.replace(sol, u0=other.u0), dataclasses.replace(sol, u1=other.u1)):
        with pytest.raises(CertificationError):
            certify_solution(broken)


# --- constraint reports -----------------------------------------------------------

def test_constraints_null_theta_proportional():
    theta = FourVector(1, 0, 0, 1)
    rep = check_constraints(theta, theta.scale(3.0), theta.scale(-2.0), 0.0)
    assert rep.all_passed
    assert rep.kappa0 == pytest.approx(3.0)
    assert rep.kappa1 == pytest.approx(-2.0)


def test_constraints_massive_with_theta_rejected():
    theta = FourVector(1, 0, 0, 1)
    rep = check_constraints(theta, theta.scale(3.0), theta.scale(-2.0), 1.0)
    assert not rep.all_passed
    assert not rep.check("massless_required").passed


def test_constraints_vacuous_for_zero_theta():
    rep = check_constraints(FourVector(), FourVector(1, 0, 0, 0), FourVector(1, 0, 0, 0), 1.0)
    assert all(c.vacuous for c in rep.checks)
    assert rep.all_passed


def test_constraints_detect_nonproportional():
    theta = FourVector(1, 0, 0, 1)
    k = FourVector(1, 0.5, 0, 1)
    rep = check_constraints(theta, k, theta.scale(1.0), 0.0)
    assert not rep.check("k0_proportional").passed


# --- massless theta family ---------------------------------------------------------

def test_massless_theta_kernel_dimension_oracle():
    theta = FourVector(1, 0, 0, 1)
    assert null_space(slashed(theta)).shape[1] == 2


def test_massless_theta_solution_certified():
    rng = np.random.default_rng(8)
    for _ in range(20):
        theta = random_null_fourvector(rng)
        spec = MasslessThetaSpec(theta=theta, kappa0=rng.uniform(0.5, 2),
                                 kappa1=-rng.uniform(0.5, 2), theta0=rng.uniform(0, 6),
                                 chirality0="L", chirality1="R")
        sol = build_massless_theta_solution(spec)
        assert dirac_residual(sol, points=RNG_POINTS) <= 1e-12
        basis = null_space(slashed(theta))
        assert in_span(sol.u0, basis) <= 1e-10
        assert in_span(sol.u1, basis) <= 1e-10
        assert abs(sol.k0.dot(spec.theta)) <= 1e-12
        assert abs(sol.k1.dot(spec.theta)) <= 1e-12


def test_massless_theta_unit_kappas_reduce_to_plane_waves():
    # the phase map e^{+-i Theta} turns the running-phase solution into
    # plain massless plane waves at momenta (kappa -+ 1) theta, which
    # must again satisfy the field equation
    theta = FourVector(1, 0, 0, 1)
    spec = MasslessThetaSpec(theta=theta, kappa0=1.0, kappa1=1.0, theta0=0.0,
                             chirality0="R", chirality1="R")
    sol = build_massless_theta_solution(spec)
    for shift in (1.0, -1.0):
        mapped = PlaneWaveSolution(
            theta0=0.0,
            k0=sol.k0 + theta.scale(shift),
            k1=sol.k1 + theta.scale(shift),
            u0=sol.u0, u1=sol.u1, mass=0.0,
        )
        assert dirac_residual(mapped, points=RNG_POINTS) <= 1e-12


def test_massless_theta_spec_validation():
    with pytest.raises(ValueError):
        MasslessThetaSpec(theta=FourVector(1, 0, 0, 0.5), kappa0=1, kappa1=1)  # not null
    with pytest.raises(ValueError):
        MasslessThetaSpec(theta=FourVector(), kappa0=1, kappa1=1)  # zero
    with pytest.raises(ValueError):
        MasslessThetaSpec(theta=FourVector(1, 0, 0, 1), kappa0=0.0, kappa1=1)


# --- massless constant-phase family -------------------------------------------------

def test_enumerate_massless_theta0_set():
    sols = enumerate_massless_theta0_set((0, 0, 1.3), (0.5, 0, 0.5), 0.9)
    assert len(sols) == 4
    assert [s.label for s in sols] == ["LL", "LR", "RL", "RR"]
    for s in sols:
        assert dirac_residual(s, points=RNG_POINTS) <= 1e-12


def test_massless_chirality_is_helicity():
    from qdirac import helicity_check

    sols = enumerate_massless_theta0_set((0, 0, 1.0), (0, 0.6, 0.8), 0.3)
    want = {"L": -0.5, "R": 0.5}
    for s in sols:
        rep = helicity_check(s)
        assert rep.h0 == pytest.approx(want[s.label[0]], abs=1e-12)
        assert rep.h1 == pytest.approx(want[s.label[1]], abs=1e-12)


def _massless_terms():
    """(k, u, chirality) of every kind of massless term: the constant-phase
    set, running phases at both signs of kappa and of theta.t, and packet
    samples at both esign values (chirality = helicity * esign)."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        for s in enumerate_massless_theta0_set(*rng.uniform(-2, 2, size=(2, 3)), 0.4):
            yield s.k0, s.u0, s.label[0]
            yield s.k1, s.u1, s.label[1]
    for _ in range(5):
        theta = random_null_fourvector(rng)
        for th in (theta, theta.scale(-1.0)):
            for kappa0, kappa1 in ((-1.3, 0.7), (0.4, -2.1)):
                for c0, c1 in (("L", "R"), ("R", "L")):
                    s = build_massless_theta_solution(MasslessThetaSpec(th, kappa0, kappa1, 0.2, c0, c1))
                    yield s.k0, s.u0, c0
                    yield s.k1, s.u1, c1
    for component in (0, 1):
        samples = [PacketSample(rng.uniform(-2, 2, size=3), 1.0, spin, esign)
                   for spin in ("up", "down") for esign in (1, -1)]
        packet = build_wave_packet(WavePacketSpec(component, 0.0, samples))
        for sample, (_, k, u) in zip(samples, (packet.terms0, packet.terms1)[component]):
            assert k.t * sample.esign > 0
            yield k, u, "R" if (sample.spin == "up") == (sample.esign > 0) else "L"


def test_massless_terms_are_chiral_kernel_elements():
    count = 0
    for k, u, chirality in _massless_terms():
        c = 1 if chirality == "R" else -1
        assert np.linalg.norm(GAMMA5 @ u - c * u) <= 1e-12 * np.linalg.norm(u)
        assert in_span(u, null_space(slashed(k))) <= 1e-10
        assert np.real(np.vdot(u, u)) == pytest.approx(abs(k.t), rel=1e-12)
        count += 1
    assert count == 40 + 80 + 8


def test_massless_zero_momentum_rejected():
    with pytest.raises(ValueError):
        enumerate_massless_theta0_set((0, 0, 0), (0, 0, 1), 0.0)


def test_running_phase_momentum_underflowing_to_zero_has_zero_frequency():
    # valid spec, but kappa0*theta underflows to the zero four-momentum
    spec = MasslessThetaSpec(theta=FourVector(1e-170, 1e-170, 0, 0), kappa0=1e-170, kappa1=1.0)
    with pytest.raises(ValueError, match="has zero frequency"):
        build_massless_theta_solution(spec)


# --- wave packets --------------------------------------------------------------------

@pytest.mark.parametrize("mass, theta0, message", [
    ("1.0", 0.3, "field 'mass' must be a number"),
    (math.nan, 0.3, "field 'mass' must be finite"),
    (-1.0, 0.3, "mass must be finite and >= 0"),
    (1.0, math.nan, "field 'theta0' must be finite"),
    (1.0, "0.3", "field 'theta0' must be a number"),
])
def test_make_wave_packet_reads_its_mass_and_angle_where_they_enter(mass, theta0, message):
    with pytest.raises(ValueError, match=message):
        make_wave_packet(mass, theta0, [PacketSample((0.0, 0.0, 1.0), 1.0)], [])



def test_make_wave_packet_needs_a_sample():
    with pytest.raises(ValueError, match="samples must be nonempty"):
        make_wave_packet(1.0, 0.3, [], [])
    # one empty half is a one-component packet
    for samples0, samples1 in (([PacketSample((0.0, 0.0, 1.0), 1.0)], []),
                               ([], [PacketSample((0.0, 0.0, 1.0), 1.0)])):
        packet = make_wave_packet(1.0, 0.3, samples0, samples1)
        assert (len(packet.terms0), len(packet.terms1)) == (len(samples0), len(samples1))

def test_single_sample_packet_equals_plane_wave():
    kvec = (0.2, -0.4, 0.9)
    m = 1.2
    packet = build_wave_packet(WavePacketSpec(0, m, (PacketSample(kvec, 1.0, "up", 1),)))
    plane = build_massive_solution(MassiveSpec(m, 0.0, kvec, kvec, spin0="up", esign0=1))
    for pt in RNG_POINTS[:10]:
        a = packet.evaluate(FourVector(*pt))
        b = plane.evaluate(FourVector(*pt))
        assert np.abs(a.psi0 - b.psi0).max() <= 1e-14
        assert np.abs(a.psi1).max() == 0.0
    assert dirac_residual(packet, points=RNG_POINTS) <= 1e-12


def test_two_sample_interference_pattern():
    # equal weights at +-k_z: density(z) = 2 E/m (1 + cos(2 k_z z) * f)
    # with f the normalized spinor overlap; checked against pointwise
    # evaluation and the closed form
    kz = 0.8
    m = 1.0
    spec = WavePacketSpec(0, m, (
        PacketSample((0, 0, kz), 1.0, "up", 1),
        PacketSample((0, 0, -kz), 1.0, "up", 1),
    ))
    packet = build_wave_packet(spec)
    u_plus = packet.terms0[0][2]
    u_minus = packet.terms0[1][2]
    overlap = complex(np.vdot(u_plus, u_minus))
    e_over_m = mass_shell_energy((0, 0, kz), m) / m
    assert abs(overlap.imag) <= 1e-15
    for z in np.linspace(-3, 3, 17):
        x = FourVector(0.0, 0.0, 0.0, z)
        s = packet.evaluate(x)
        direct = float(np.sum(np.abs(s.psi0) ** 2 + np.abs(s.psi1) ** 2))
        assert packet.density(x) == pytest.approx(direct, rel=1e-13)
        want = 2 * e_over_m + 2 * overlap.real * math.cos(2 * kz * z)
        assert direct == pytest.approx(want, abs=1e-12)


def test_gaussian_packet_normalizable():
    rng = np.random.default_rng(12)
    n = 64
    length = 2 * math.pi
    base = 2 * math.pi / length
    harmonics = rng.integers(-4, 5, size=(n, 3))
    weights = np.exp(-0.5 * np.sum(harmonics**2, axis=1) / 4.0)
    samples = tuple(
        PacketSample(tuple(base * h), float(w), "up", 1)
        for h, w in zip(harmonics, weights)
        if np.any(h != 0)
    )
    packet = build_wave_packet(WavePacketSpec(0, 1.0, samples))
    cells = 10
    grid = SpacetimeGrid(FourVector(0, 0, 0, 0),
                         (1.0, length / cells, length / cells, length / cells),
                         (1, cells, cells, cells), (False, True, True, True))
    norm = inner_product_grid(packet, packet, grid)
    assert norm > 0
    factor = 1.0 / math.sqrt(norm)
    rescaled = WavePacket(packet.mass, packet.theta0,
                          tuple((a * factor, k, u) for a, k, u in packet.terms0), ())
    assert inner_product_grid(rescaled, rescaled, grid) == pytest.approx(1.0, abs=1e-10)


def test_packet_terms_match_solution_halves():
    # a packet term and the matching half of a plane-wave solution share
    # the sign convention: same four-momentum and same kernel spinor
    m, kvec0, kvec1 = 1.4, (0.3, -0.5, 0.8), (-0.2, 0.6, 0.1)
    for spin in ("up", "down"):
        for esign0 in (1, -1):
            sol = build_massive_solution(MassiveSpec(m, 0.3, kvec0, kvec1, spin, spin, esign0))
            halves = ((0, kvec0, esign0, sol.k0, sol.u0), (1, kvec1, -esign0, sol.k1, sol.u1))
            for component, kvec, esign, k, u in halves:
                packet = build_wave_packet(
                    WavePacketSpec(component, m, (PacketSample(kvec, 2.0, spin, esign),)))
                amplitude, pk, pu = (packet.terms0, packet.terms1)[component][0]
                assert amplitude == 2.0 and pk == k
                assert np.array_equal(pu, u)
                assert not pu.flags.writeable
    # massless: spin up at esign +1 is the right-handed positive-frequency term
    rr = enumerate_massless_theta0_set(kvec0, kvec1, 0.3)[3]
    assert rr.label == "RR"
    for component, kvec, k, u in ((0, kvec0, rr.k0, rr.u0), (1, kvec1, rr.k1, rr.u1)):
        packet = build_wave_packet(WavePacketSpec(component, 0.0, (PacketSample(kvec, 1.0, "up", 1),)))
        _, pk, pu = (packet.terms0, packet.terms1)[component][0]
        assert pk == k
        assert np.array_equal(pu, u)


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        WavePacketSpec(2, 1.0, (PacketSample((0, 0, 1), 1.0),))
    with pytest.raises(ValueError):
        WavePacketSpec(0, 1.0, ())
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="amplitude"):
            PacketSample((0, 0, 1), bad)


# --- plane-wave-sum evaluation ---------------------------------------------------------

EVAL_GRID = SpacetimeGrid(FourVector(-0.3, 0.2, -0.4, 0.1), (0.3, 0.45, 0.5, 0.55), (3, 4, 5, 6))
THETA_SPEC = MasslessThetaSpec(FourVector(1, 0, 0.6, 0.8), kappa0=-1.5, kappa1=2.0,
                               theta0=0.4, chirality0="L", chirality1="R")


def _eval_field(name):
    if name == "massive":
        return build_massive_solution(MassiveSpec(
            1.3, 0.7, (0.4, -0.2, 1.0), (0.1, 0.5, -0.3), "down", "up", -1))
    if name == "theta_negative_kappa":
        return build_massless_theta_solution(THETA_SPEC)
    return make_wave_packet(1.0, math.pi / 6, (
        PacketSample((1.0, 0.0, 0.0), 1.0),
        PacketSample((0.0, 1.0, 1.0), 0.8, "down", -1),
    ), (PacketSample((0.0, 0.0, 1.0), 0.7, "down"),))


EVAL_FIELDS = ("massive", "theta_negative_kappa", "two_component_packet")


@pytest.mark.parametrize("name", EVAL_FIELDS)
def test_evaluate_grid_matches_pointwise(name):
    field = _eval_field(name)
    sampled = field.evaluate_grid(EVAL_GRID)
    lattice = np.stack(np.meshgrid(*EVAL_GRID.axes(), indexing="ij"), axis=-1)
    psi0, psi1 = field.eval_points(lattice.reshape(-1, 4))
    assert np.abs(sampled.psi0 - psi0.reshape(sampled.psi0.shape)).max() <= 1e-14
    assert np.abs(sampled.psi1 - psi1.reshape(sampled.psi1.shape)).max() <= 1e-14


def test_theta_solution_matches_closed_form():
    # cos(Theta) e^{i k0.x} u0 and sin(Theta) e^{i k1.x} u1, Theta = theta.x + theta0
    sol = build_massless_theta_solution(THETA_SPEC)
    psi0, psi1 = sol.eval_points(RNG_POINTS)
    for pt, v0, v1 in zip(RNG_POINTS, psi0, psi1):
        x = FourVector(*pt)
        ang = THETA_SPEC.theta.dot(x) + THETA_SPEC.theta0
        want0 = math.cos(ang) * cmath.exp(1j * sol.k0.dot(x)) * sol.u0
        want1 = math.sin(ang) * cmath.exp(1j * sol.k1.dot(x)) * sol.u1
        assert np.abs(v0 - want0).max() <= 1e-14
        assert np.abs(v1 - want1).max() <= 1e-14


# --- JSON schemas ---------------------------------------------------------------------

def test_massive_spec_json_round_trip():
    spec = MassiveSpec(1.5, 0.7, (0.1, 0.2, 0.3), (0, 0, 1), "down", "up", -1, "E")
    d = {"schema_version": 1, "kind": "massive", "mass": 1.5, "theta0": 0.7,
         "kvec0": [0.1, 0.2, 0.3], "kvec1": [0, 0, 1], "spin0": "down", "spin1": "up",
         "esign0": "-", "esign1": "+", "norm_choice": "E"}
    assert massive_spec_from_dict(d) == spec


def test_packet_spec_json_round_trip():
    spec = WavePacketSpec(1, 0.0, (PacketSample((0, 0, 2), 0.5, "down", -1),))
    d = {"schema_version": 1, "kind": "packet", "component": 1, "mass": 0.0,
         "samples": [{"kvec": [0, 0, 2], "amplitude": 0.5, "spin": "down", "esign": "-"}]}
    assert packet_spec_from_dict(d) == spec


def test_spec_json_defaults_are_the_dataclass_defaults():
    # a JSON object with only the required fields reads the spec that
    # the keyword construction leaving every default builds
    massive = {"mass": 1.5, "theta0": 0.7, "kvec0": [0.1, 0.2, 0.3], "kvec1": [0, 0, 1]}
    assert massive_spec_from_dict(massive) == MassiveSpec(**massive)
    sample = {"kvec": [0, 0, 2], "amplitude": 0.5}
    spec = packet_spec_from_dict({"component": 0, "mass": 1.0, "samples": [sample]})
    assert spec.samples == (PacketSample(**sample),)


def test_spec_signs_read_in_both_forms():
    args = (1.0, 0.0, (0, 0, 1), (0, 0, 1))
    assert MassiveSpec(*args, esign0="-") == MassiveSpec(*args, esign0=-1)
    assert PacketSample((0, 0, 1), 1.0, esign="+").esign == 1


def test_spec_json_missing_fields_named():
    with pytest.raises(ValueError, match="mass"):
        massive_spec_from_dict({"theta0": 0.0, "kvec0": [0, 0, 1], "kvec1": [0, 0, 1]})
    with pytest.raises(ValueError, match="samples"):
        packet_spec_from_dict({"component": 0, "mass": 1.0})
    # wrong types are ValueErrors naming the field, never TypeErrors
    massive = {"mass": 1.0, "theta0": 0.0, "kvec0": [0, 0, 1], "kvec1": [0, 0, 1]}
    packet = {"component": 0, "mass": 1.0, "samples": [{"kvec": [0, 0, 1], "amplitude": 1.0}]}
    cases = [
        (massive_spec_from_dict, {**massive, "mass": [1]}, "mass"),
        (massive_spec_from_dict, {**massive, "theta0": "0.5"}, "theta0"),
        (massive_spec_from_dict, {**massive, "kvec0": 3}, "kvec0"),
        (massive_spec_from_dict, {**massive, "esign0": True}, "esign0"),
        (massive_spec_from_dict, [], "mass"),
        (packet_spec_from_dict, {**packet, "mass": [1]}, "mass"),
        (packet_spec_from_dict, {**packet, "component": []}, "component"),
        (packet_spec_from_dict, {**packet, "component": True}, "component"),
        (packet_spec_from_dict, {**packet, "samples": [[0, 0, 1]]}, "kvec"),
        (packet_spec_from_dict, {**packet, "samples": [{"kvec": [0, 0, 1], "amplitude": 1.0,
                                                        "energy": "1.4"}]}, "energy"),
    ]
    for from_dict, d, field in cases:
        with pytest.raises(ValueError, match=field):
            from_dict(d)


def test_packet_spec_off_shell_energy_rejected():
    cfg = {
        "component": 0,
        "mass": 1.0,
        "samples": [{"kvec": [0, 0, 1], "amplitude": 1.0, "energy": 2.0}],
    }
    with pytest.raises(ValueError, match="off shell"):
        packet_spec_from_dict(cfg)


def test_bool_signs_rejected():
    # True == 1, so a plain membership test would take it for +1
    with pytest.raises(ValueError, match="'sign'"):
        mass_shell_energy((0.0, 0.0, 1.0), 1.0, True)
    with pytest.raises(ValueError, match="mass_sign"):
        build_u_spinor(FourVector(2**0.5, 0.0, 0.0, 1.0), 1.0, mass_sign=True)
    with pytest.raises(ValueError, match="mass_sign"):
        build_u_spinor(FourVector(2**0.5, 0.0, 0.0, 1.0), 1.0, mass_sign=np.True_)
