"""The per-solution checks run over a whole set in one array pass:
`dirac_residual` and `helicity_check` on a sequence, `densities`, and
`adjoint_norm` with one mixing angle or several.  Each set value is
checked against its member's value from a per-field formula written
here from the plane-wave terms, `_terms()`, so a row that lands in the
wrong member shows.  Also pins the real span of the massive and
massless sets, and the empty result of each set kernel."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from qdirac import (
    FourVector,
    MassiveSpec,
    MasslessThetaSpec,
    PacketSample,
    adjoint_norm,
    build_massless_theta_solution,
    dirac_residual,
    enumerate_massive_set,
    enumerate_massless_theta0_set,
    helicity_check,
    helicity_matrix,
    make_wave_packet,
    slashed,
)
from qdirac.cli import run_verify
from qdirac.grid import SpacetimeGrid
from qdirac.solutions import (SPIN_PAIRS, build_massive_solutions, build_u_spinor, certify_solution,
                              mass_shell_energy)
from qdirac.spinor import BETA_DIAG
from qdirac.verify import _adjoint_norms, default_points, densities, gram_matrix, term_residuals
from helpers import matrix_rank

POINTS = np.random.default_rng(31).uniform(-3, 3, size=(12, 4))
# a real gauge potential: every term then leaves a residual of order |a|
A = FourVector(0.3, -0.2, 0.45, 0.1)
EPS = np.finfo(float).eps
ULPS = 8

KV0, KV1 = (0.4, -0.2, 0.7), (0.1, 0.5, -0.3)
THETA = FourVector(1.2, 0.0, 1.2, 0.0)


def _running_phase(kappa0, kappa1, c0, c1):
    return build_massless_theta_solution(MasslessThetaSpec(THETA, kappa0, kappa1, 0.4, c0, c1))


def _set(name):
    """The fields of one set builder, all of one mass."""
    if name == "massive_z":
        return enumerate_massive_set(1.3, KV0, KV1, 0.77)
    if name == "massive_momentum":
        return enumerate_massive_set(1.3, KV0, KV1, 0.77, spin_axis="momentum")
    if name == "massless":
        return enumerate_massless_theta0_set(KV0, KV1, 0.77)
    if name == "running_phase":
        return [_running_phase(2.0, 3.0, "R", "L"), _running_phase(-1.5, 0.5, "L", "R"),
                _running_phase(1.0, -2.5, "R", "R")]
    if name == "gram":
        base = 2 * math.pi / 5.0
        directions = ((base, 0, 0), (0, base, 0), (0, 0, base), (-base, 0, 0))
        return build_massive_solutions(
            MassiveSpec(1.0, 0.3, kv, kv, spin0=s0, spin1=s1, esign0=e)
            for (s0, s1), kv in zip(SPIN_PAIRS, directions) for e in (1, -1))
    if name == "packets":
        return [make_wave_packet(1.0, t0, (PacketSample((0.2, 0.0, 1.0), 1.0),
                                           PacketSample((0.0, -0.6, 0.4), amp, "down", -1)),
                                 (PacketSample((0.5, 0.1, 0.0), 0.7, "down"),))
                for t0, amp in ((0.3, 0.8), (1.1, -0.4))]
    # two rows per half (running phase) beside one row per half (massless set)
    return [_running_phase(2.0, 3.0, "R", "L"), *enumerate_massless_theta0_set(KV0, KV1, 0.77),
            _running_phase(-1.5, 0.5, "L", "R")]


SETS = ["massive_z", "massive_momentum", "massless", "running_phase", "gram", "packets", "mixed"]


def _halves(field, x):
    """Both halves at x from the raw terms, each term with its own phase:
    (the values, the residual values, the scale of both) per half."""
    out = []
    for sign, terms in zip((-1.0, 1.0), field._terms()):
        psi = res = np.zeros(4, dtype=complex)
        scale = 0.0
        for c, k, u in terms:
            phase = c * cmath.exp(1j * (k.t * x[0] - k.x * x[1] - k.y * x[2] - k.z * x[3]))
            r = (sign * slashed(k - A) - field.mass * np.eye(4)) @ u
            psi, res = psi + phase * u, res + phase * r
            scale += abs(c) * (np.linalg.norm(u) + np.linalg.norm(r))
        out.append((psi, res, scale))
    return out


@pytest.mark.parametrize("name", SETS)
def test_set_residuals_and_densities_match_each_member(name):
    fields = _set(name)
    residuals = dirac_residual(fields, a=A, points=POINTS)
    dens = densities(fields, POINTS)
    assert len(residuals) == len(fields) and dens.shape == (len(POINTS), len(fields))
    for i, f in enumerate(fields):
        want_res, res_scale = 0.0, 0.0
        for p, x in enumerate(POINTS):
            (psi0, r0, s0), (psi1, r1, s1) = _halves(f, x)
            want_res = max(want_res, math.sqrt(np.vdot(r0, r0).real + np.vdot(r1, r1).real))
            res_scale = max(res_scale, s0 + s1)
            want_dens = np.vdot(psi0, psi0).real + np.vdot(psi1, psi1).real
            assert abs(dens[p, i] - want_dens) <= ULPS * EPS * (s0 + s1) ** 2, (f.label, p)
        assert want_res > 0.01
        assert abs(residuals[i] - want_res) <= ULPS * EPS * res_scale, f.label


@pytest.mark.parametrize("name", ["massive_z", "massive_momentum", "massless", "running_phase",
                                  "gram", "mixed"])
def test_set_helicity_and_adjoint_match_each_member(name):
    sols = _set(name)
    reports = helicity_check(sols)
    assert len(reports) == len(sols)
    for s, rep in zip(sols, reports):
        for (k, u), h, resid in (((s.k0, s.u0), rep.h0, rep.residual0),
                                 ((s.k1, s.u1), rep.h1, rep.residual1)):
            r = helicity_matrix(k.spatial()) @ u
            lam = (np.vdot(u, r) / np.vdot(u, u)).real
            want = np.linalg.norm(r - lam * u) / np.linalg.norm(u)
            assert abs(resid - want) <= ULPS * EPS, s.label
            if want <= 1e-12:
                assert abs(h - lam) <= ULPS * EPS, s.label
            else:
                assert math.isnan(h)
        for t0 in (0.0, 0.4, math.pi / 4, 2.0):
            got = adjoint_norm(s, theta0=t0)
            assert got == adjoint_norm(dataclasses.replace(s, theta0=t0))
            # adj(Psi) Psi at x = 0, each spinor scaled to u^dag u = |k.t|/m (unit when m = 0)
            n0, n1 = ((abs(k.t) / s.mass if s.mass > 0 else 1.0) / np.vdot(u, u).real
                      for k, u in ((s.k0, s.u0), (s.k1, s.u1)))
            want = (math.cos(t0) ** 2 * n0 * np.sum(BETA_DIAG * np.abs(s.u0) ** 2)
                    + math.sin(t0) ** 2 * n1 * np.sum(BETA_DIAG * np.abs(s.u1) ** 2))
            assert abs(got - want) <= ULPS * EPS * (n0 * np.vdot(s.u0, s.u0).real
                                                    + n1 * np.vdot(s.u1, s.u1).real), s.label


def test_set_helicity_in_the_momentum_basis_reads_the_labels():
    for s, rep in zip(_set("massive_momentum"), helicity_check(_set("massive_momentum"))):
        want = {"u": 0.5, "d": -0.5}
        assert rep.residual0 <= 1e-12 and rep.residual1 <= 1e-12
        assert abs(rep.h0 - want[s.label[0]]) <= 2 * EPS
        assert abs(rep.h1 - want[s.label[1]]) <= 2 * EPS


# x != 0 moves a running phase's angle by theta.x
ADJOINT_POINTS = [None, FourVector(0.3, -1.2, 0.5, 2.0)]
ADJOINT_ANGLES = (0.0, 0.4, math.pi / 8, math.pi / 4, math.pi / 2, 2.0)


def _adjoint_norm_one_angle(s, x, t0):
    """adj(Psi) Psi at x for one mixing angle, each spinor rescaled on its
    own and summed over one 1-D row, as a one-angle check computes it."""
    u0, u1 = s.u0, s.u1
    if s.mass > 0:
        u0 = u0 * math.sqrt((abs(s.k0.t) / s.mass) / float(np.real(np.vdot(u0, u0))))
        u1 = u1 * math.sqrt((abs(s.k1.t) / s.mass) / float(np.real(np.vdot(u1, u1))))
    else:
        u0 = u0 / float(np.linalg.norm(u0))
        u1 = u1 / float(np.linalg.norm(u1))
    ang = float(np.dot((FourVector() if x is None else x).as_array(), s.theta.lowered())) + t0
    return float(np.sum(BETA_DIAG * (math.cos(ang) ** 2 * np.abs(u0) ** 2
                                     + math.sin(ang) ** 2 * np.abs(u1) ** 2)))


@pytest.mark.parametrize("x", ADJOINT_POINTS, ids=["origin", "x"])
@pytest.mark.parametrize("name", ["massive_z", "massive_momentum", "massless", "running_phase",
                                  "gram", "mixed"])
def test_batched_adjoint_norms_equal_each_one_angle_call(name, x):
    for s in _set(name):
        got = _adjoint_norms(s, ADJOINT_ANGLES, x)
        assert got == [adjoint_norm(s, x, theta0=t0) for t0 in ADJOINT_ANGLES], s.label
        assert got == [_adjoint_norm_one_angle(s, x, t0) for t0 in ADJOINT_ANGLES], s.label


def test_massless_set_and_running_phase_share_one_residual_pass():
    # verify checks both m = 0 sets in one call: each value is its own call's, bit for bit
    for theta0 in (0.0, 0.77, 2.5):
        massless = enumerate_massless_theta0_set(KV0, KV1, theta0)
        running = build_massless_theta_solution(MasslessThetaSpec(THETA, 2.0, 1.0, theta0))
        assert dirac_residual([*massless, running], points=POINTS) == [
            *dirac_residual(massless, points=POINTS), dirac_residual(running, points=POINTS)]


# each set kernel on no field, and its empty result
EMPTY_SETS = {
    "dirac_residual": (lambda: dirac_residual([]), []),
    "term_residuals": (lambda: [tuple(a.shape for a in half) for half in term_residuals([])],
                       [((0, 4), (0, 4), (0,))] * 2),
    "certify_solution": (lambda: certify_solution([]), []),
    "build_massive_solutions": (lambda: build_massive_solutions([]), []),
    "densities": (lambda: densities([], POINTS).shape, (len(POINTS), 0)),
    "helicity_check": (lambda: helicity_check([]), []),
}


@pytest.mark.parametrize("kernel", list(EMPTY_SETS))
def test_set_kernels_take_an_empty_set(kernel):
    call, want = EMPTY_SETS[kernel]
    assert call() == want


def test_set_residual_gives_each_mass_its_one_field_value():
    # each field is held to its own mass: a mixed list, in any order and
    # from separate builds, gives every field its one-field value bit for bit
    fields = [*_set("massive_z")[:3], *_set("massless")[:2], *_set("running_phase")[:1],
              *_set("gram")[:2], *_set("packets")[:1], *_set("massive_momentum")[5:]]
    for order in (fields, fields[::-1], fields[1::2] + fields[::2]):
        assert dirac_residual(order, a=A, points=POINTS) == [
            dirac_residual(f, a=A, points=POINTS) for f in order]
        assert dirac_residual(order, points=POINTS) == [dirac_residual(f, points=POINTS) for f in order]
        halves = term_residuals(order)
        for n, f in enumerate(order):
            for (kl, r, owner), (want_kl, want_r, _) in zip(halves, term_residuals([f])):
                assert np.array_equal(kl[owner == n], want_kl) and np.array_equal(r[owner == n], want_r)


def test_certified_bounds_equal_the_array_reference():
    # the per-field sums of term residual norms, bit for bit as np.bincount
    # sums np.linalg.norm's values, for every set and for all of them at once
    every = [f for name in SETS for f in _set(name)]
    for fields in [*(_set(name) for name in SETS), every]:
        halves = term_residuals(fields)
        owner = np.concatenate([o for _, _, o in halves])
        norms = np.linalg.norm(np.concatenate([r for _, r, _ in halves]), axis=1)
        assert certify_solution(fields) == np.bincount(owner, norms, minlength=len(fields)).tolist()


# --- the span of each set -------------------------------------------------------------

def _values(sols):
    """Each solution's values at POINTS, both halves: {label: (P, 8) complex}."""
    return {s.label: np.concatenate(s.eval_points(POINTS), axis=1) for s in sols}


def _real_rank(values) -> int:
    return matrix_rank(np.array([np.concatenate([v.real.ravel(), v.imag.ravel()])
                                 for v in values]))


@pytest.mark.parametrize("spin_axis", [None, "momentum"])
def test_massive_set_spans_six_real_dimensions(spin_axis):
    values = _values(enumerate_massive_set(1.3, KV0, KV1, 0.77, spin_axis=spin_axis))
    # within a branch label the two halves mix freely: uu + dd = ud + du
    for branch in ("+-", "-+"):
        lhs = values["uu" + branch] + values["dd" + branch]
        rhs = values["ud" + branch] + values["du" + branch]
        assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(lhs).max()
    assert _real_rank(values.values()) == 6


def test_massless_set_spans_three_real_dimensions():
    values = _values(enumerate_massless_theta0_set(KV0, KV1, 0.77))
    lhs, rhs = values["LL"] + values["RR"], values["LR"] + values["RL"]
    assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(lhs).max()
    assert _real_rank(values.values()) == 3


# --- verify's one row table --------------------------------------------------------

def _verify_configs(count=30):
    """Seeded verify configs over mass 1e-3..1e3, theta0 in [0, pi/2],
    box_length 1e-2..1e2 and box_cells 3..16, each with its own seed, every
    other one under --tol 1e-20."""
    rng = np.random.default_rng(29)
    for n in range(count):
        cfg = {"mass": 10.0 ** rng.uniform(-3, 3), "theta0": rng.uniform(0, math.pi / 2),
               "box_length": 10.0 ** rng.uniform(-2, 2), "box_cells": int(rng.integers(3, 17))}
        yield cfg, int(rng.integers(0, 2**32)), 1e-20 if n % 2 else None


def _one_set_checks(cfg, seed):
    """verify's table-built check values and Gram matrix, each from separate
    one-set public builds and one call per set."""
    mass, theta0, box_length, cells = cfg["mass"], cfg["theta0"], cfg["box_length"], cfg["box_cells"]
    base = 2.0 * math.pi / box_length
    kvec = (base, 0.0, base)
    points = default_points(seed=seed)
    massive = enumerate_massive_set(mass, kvec, kvec, theta0)
    helicity = enumerate_massive_set(mass, kvec, kvec, theta0, spin_axis="momentum")
    directions = ((base, 0.0, 0.0), (0.0, base, 0.0), (0.0, 0.0, base), (-base, 0.0, 0.0))
    gram = build_massive_solutions(MassiveSpec(mass, theta0, kv, kv, s0, s1, e)
                                   for (s0, s1), kv in zip(SPIN_PAIRS, directions) for e in (1, -1))
    running = build_massless_theta_solution(
        MasslessThetaSpec(FourVector(1.0, 0.0, 0.0, 1.0), 2.0, 1.0, theta0))
    e_plus = mass_shell_energy(kvec, mass)
    k_up = FourVector(e_plus, *kvec)
    norm_err = 0.0
    for nc, target in (("E", e_plus), ("E_over_m", e_plus / mass)):
        u = build_u_spinor(k_up, mass, 1, norm_choice=nc)
        norm_err = max(norm_err, abs(float(np.real(np.vdot(u, u))) - target) / target)
    expected = math.cos(theta0) ** 2 * (e_plus / mass) + math.sin(theta0) ** 2 * (e_plus / mass)
    hel_err, eig = 0.0, {"u": 0.5, "d": -0.5}
    for s, rep in zip(helicity, helicity_check(helicity)):
        hel_err = max(hel_err, rep.residual0, rep.residual1,
                      abs(rep.h0 - eig[s.label[0]]), abs(rep.h1 - eig[s.label[1]]))
    grid = SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, *[box_length / cells] * 3), (1, cells, cells, cells),
                         (False, True, True, True))
    return {
        "residual_massive_set": max(dirac_residual(massive, points=points)),
        "residual_massless_set": max(dirac_residual(enumerate_massless_theta0_set(kvec, kvec, theta0),
                                                    points=points)),
        "residual_massless_theta": dirac_residual(running, points=points),
        "normalization": norm_err,
        "density": float(np.abs(densities(massive, points[:8]) - expected).max()),
        "helicity": hel_err,
    }, gram_matrix(gram, grid).matrix.tolist()


def test_verify_table_changes_no_check_value():
    for cfg, seed, tol in _verify_configs():
        _, report = run_verify(cfg, tol, seed)
        want, gram = _one_set_checks(cfg, seed)
        got = {name: value for name, value, _, _ in report["checks"].rows if name in want}
        assert got == want, (cfg, seed)
        assert report["gram"]["matrix"] == gram, (cfg, seed)
