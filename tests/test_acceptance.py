"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured value at its pinned tolerance (run with -s to see
them)."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qdirac import (
    FourVector,
    MassiveSpec,
    MasslessThetaSpec,
    SpacetimeGrid,
    adjoint_norm,
    build_massive_solution,
    build_massless_theta_solution,
    build_u_spinor,
    check_constraints,
    continuity_convergence,
    dirac_residual,
    enumerate_massive_set,
    enumerate_massless_theta0_set,
    gamma,
    gram_matrix,
    helicity_check,
    make_wave_packet,
    mass_shell_energy,
    slashed,
)
from qdirac.qalg import I, J, K, ONE, Quaternion, mul
from qdirac.solutions import PacketSample, SPIN_PAIRS
from qdirac.spinor import METRIC_DIAG, QSpinor4
from helpers import null_space, rank_one_gram_defect

BOX = 2.0 * math.pi


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_quaternion_algebra_suite():
    start = time.perf_counter()
    units = {"1": ONE, "i": I, "j": J, "k": K}
    eps = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j"}
    for (a, b), c in eps.items():
        assert mul(units[a], units[b]) == units[c]
        assert mul(units[b], units[a]) == -units[c]
    for name in ("i", "j", "k"):
        assert mul(units[name], units[name]) == -ONE

    rng = np.random.default_rng(2024)
    vals = rng.uniform(-2.0, 2.0, size=(10_000, 12))
    worst_mult = worst_assoc = 0.0
    drawn = []
    for row in vals:
        p, q, r = Quaternion(*row[:4]), Quaternion(*row[4:8]), Quaternion(*row[8:])
        pq = mul(p, q)
        worst_mult = max(worst_mult, abs(pq.norm() - p.norm() * q.norm())
                         / max(p.norm() * q.norm(), 1e-300))
        diff = (mul(pq, r) - mul(p, mul(q, r))).norm()
        worst_assoc = max(worst_assoc, diff / max(mul(pq, r).norm(), 1e-300))
        drawn.append(p)
    # every drawn p through the symplectic storage and back, four per spinor
    for i in range(0, len(drawn), 4):
        s = QSpinor4.from_quaternions(drawn[i:i + 4])
        back = QSpinor4.from_quaternions(s.quaternions)
        assert np.array_equal(back.psi0, s.psi0) and np.array_equal(back.psi1, s.psi1)
        assert all(b == p and math.copysign(1.0, b.w) == math.copysign(1.0, p.w)
                   for b, p in zip(back.quaternions, drawn[i:i + 4]))
    assert worst_mult <= 1e-13
    assert worst_assoc <= 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"product table exact, multiplicativity {worst_mult:.2e} and "
              f"associativity {worst_assoc:.2e} <= 1e-13 over 1e4 draws, "
              f"round-trip bit-exact, {elapsed:.2f}s < 1s")


def test_criterion_2_clifford_suite():
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
            want = 2.0 * (METRIC_DIAG[mu] if mu == nu else 0.0) * eye
            assert np.array_equal(anti, want)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for row in rng.uniform(-3.0, 3.0, size=(1000, 4)):
        v = FourVector(*row)
        dev = np.abs(slashed(v) @ slashed(v) - v.dot(v) * eye).max()
        worst = max(worst, dev / max(abs(v.dot(v)), 1.0))
    assert worst <= 1e-13
    report(2, f"anticommutators exact, slashed(v)^2 deviation {worst:.2e} "
              f"<= 1e-13 over 1e3 draws")


def test_criterion_3_solution_set_cardinality():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for draw in range(20):
        mass = rng.uniform(0.3, 2.5)
        kvec0 = rng.uniform(-1.5, 1.5, size=3)
        kvec1 = rng.uniform(-1.5, 1.5, size=3)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        points = rng.uniform(-3.0, 3.0, size=(32, 4))
        massive = enumerate_massive_set(mass, kvec0, kvec1, theta0)
        assert len(massive) == 8
        kv0 = kvec0 if np.linalg.norm(kvec0) > 0 else np.array([0, 0, 1.0])
        kv1 = kvec1 if np.linalg.norm(kvec1) > 0 else np.array([0, 0, 1.0])
        massless = enumerate_massless_theta0_set(kv0, kv1, theta0)
        assert len(massless) == 4
        for s in massive + massless:
            worst = max(worst, dirac_residual(s, points=points))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"8 massive + 4 massless per draw, max residual {worst:.2e} "
              f"<= 1e-12 over 20 draws x 32 points, {elapsed:.2f}s < 5s")


def test_criterion_4_normalization_and_density():
    rng = np.random.default_rng(2027)
    worst_norm = worst_dens = 0.0
    for _ in range(50):
        kvec = rng.uniform(-2.0, 2.0, size=3)
        mass = rng.uniform(0.3, 2.5)
        esign = 1 if rng.uniform() < 0.5 else -1
        mass_sign = 1 if rng.uniform() < 0.5 else -1
        k = FourVector(mass_shell_energy(kvec, mass, esign), *kvec)
        energy = abs(k.t)
        for choice, target in (("E", energy), ("E_over_m", energy / mass)):
            u = build_u_spinor(k, mass, mass_sign, "up", norm_choice=choice)
            worst_norm = max(worst_norm, abs(np.real(np.vdot(u, u)) - target) / target)
    for _ in range(20):
        kvec0 = rng.uniform(-2.0, 2.0, size=3)
        kvec1 = rng.uniform(-2.0, 2.0, size=3)
        mass = rng.uniform(0.3, 2.5)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        sol = build_massive_solution(MassiveSpec(mass, theta0, kvec0, kvec1))
        e0 = mass_shell_energy(kvec0, mass) / mass
        e1 = mass_shell_energy(kvec1, mass) / mass
        want = math.cos(theta0) ** 2 * e0 + math.sin(theta0) ** 2 * e1
        for pt in rng.uniform(-3.0, 3.0, size=(8, 4)):
            worst_dens = max(worst_dens,
                             abs(sol.density(FourVector(*pt)) - want) / max(want, 1.0))
    assert worst_norm <= 1e-12
    assert worst_dens <= 1e-12
    report(4, f"u^dag u deviation {worst_norm:.2e} (both choices), density "
              f"deviation {worst_dens:.2e}, both <= 1e-12")


def test_criterion_5_gram_orthogonality():
    # equal momenta within every solution (E0 = E1 = E); the four spin
    # pairs sit at distinct commensurate momenta of equal magnitude, the
    # configuration the orthogonality display describes
    cells = 12
    grid = SpacetimeGrid(FourVector(0, 0, 0, 0),
                         (0.1, BOX / cells, BOX / cells, BOX / cells),
                         (1, cells, cells, cells), (False, True, True, True))
    base = 2.0 * math.pi / BOX
    directions = ((base, 0, 0), (0, base, 0), (0, 0, base), (-base, 0, 0))
    theta0 = math.pi / 8
    sols = []
    for (s0, s1), kv in zip(SPIN_PAIRS, directions):
        for esign0 in (1, -1):
            sols.append(build_massive_solution(MassiveSpec(
                1.0, theta0, kv, kv, spin0=s0, spin1=s1, esign0=esign0)))
    rep = gram_matrix(sols, grid)
    assert rep.matrix.shape == (8, 8)
    diag_scale = float(rep.diagonal.max())
    off_rel = rep.max_offdiag / diag_scale
    energy = mass_shell_energy(directions[0], 1.0)
    diag_rel = float(np.abs(rep.diagonal - energy * BOX**3).max()) / (energy * BOX**3)
    assert off_rel <= 1e-10
    assert diag_rel <= 1e-10
    report(5, f"8x8 Gram max off-diagonal {off_rel:.2e} <= 1e-10 x diagonal, "
              f"diagonal vs E*V deviation {diag_rel:.2e} <= 1e-10")


def test_criterion_6_adjoint_norms():
    worst = 0.0
    kvec = (0.4, -0.1, 0.8)
    for theta0 in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
        plus = build_massive_solution(MassiveSpec(1.0, theta0, kvec, kvec, esign0=1))
        minus = build_massive_solution(MassiveSpec(1.0, theta0, kvec, kvec, esign0=-1))
        want = math.cos(2.0 * theta0)
        worst = max(worst, abs(adjoint_norm(plus) - want),
                    abs(adjoint_norm(minus) + want))
        if theta0 == math.pi / 4:
            assert abs(adjoint_norm(plus)) <= 1e-12
    assert worst <= 1e-12
    report(6, f"adjoint norms +-cos(2 theta0) deviation {worst:.2e} <= 1e-12 "
              f"at theta0 in {{0, pi/8, pi/4, pi/2}} including the zero at pi/4")


def test_criterion_7_continuity_convergence():
    start = time.perf_counter()
    samples1 = (PacketSample((0.0, 0.0, 1.0), 0.7, "down"),)

    packet_1p1 = make_wave_packet(1.0, math.pi / 6, (
        PacketSample((0.0, 0.0, 1.0), 1.0),
        PacketSample((0.0, 0.0, 2.0), 0.8),
    ), samples1)
    grid_1p1 = SpacetimeGrid(FourVector(-0.2, 0, 0, 0), (0.2, 1.0, 1.0, BOX / 12),
                             (3, 1, 1, 12), (False, False, False, True))
    conv_1p1 = continuity_convergence(packet_1p1, grid_1p1, levels=3)

    packet_3p1 = make_wave_packet(1.0, math.pi / 6, (
        PacketSample((1.0, 0.0, 0.0), 1.0),
        PacketSample((0.0, 1.0, 1.0), 0.8),
    ), samples1)
    grid_3p1 = SpacetimeGrid(FourVector(-0.2, 0, 0, 0),
                             (0.2, BOX / 6, BOX / 6, BOX / 6),
                             (3, 6, 6, 6), (False, True, True, True))
    conv_3p1 = continuity_convergence(packet_3p1, grid_3p1, levels=3)

    assert tuple(conv_1p1.levels[-1].grid["counts"]) <= (48, 48, 48, 48)
    finest = conv_3p1.levels[-1].grid["counts"]
    assert finest[0] <= 8 and max(finest[1:]) <= 24
    for conv in (conv_1p1, conv_3p1):
        assert 1.8 <= conv.fitted_order <= 2.2
        defects = [r.defect for r in conv.levels]
        assert defects[0] / defects[1] >= 3.5
        assert defects[1] / defects[2] >= 3.5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"fitted orders {conv_1p1.fitted_order:.3f} (1+1D) and "
              f"{conv_3p1.fitted_order:.3f} (3+1D) within 2.0 +- 0.2 over 3 "
              f"refinements, {elapsed:.2f}s < 30s")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(1000):
        kvec = rng.uniform(-2.0, 2.0, size=3)
        mass = rng.uniform(0.3, 2.5)
        esign = 1 if rng.uniform() < 0.5 else -1
        mass_sign = 1 if rng.uniform() < 0.5 else -1
        spin = "up" if rng.uniform() < 0.5 else "down"
        k = FourVector(mass_shell_energy(kvec, mass, esign), *kvec)
        u = build_u_spinor(k, mass, mass_sign, spin)
        basis = null_space(slashed(k) - mass_sign * mass * np.eye(4))
        assert basis.shape[1] == 2
        oracle_vec = basis @ (basis.conj().T @ u)
        worst = max(worst, rank_one_gram_defect(u, oracle_vec))
    assert worst <= 1e-10
    report(8, f"closed forms match the SVD null-space oracle up to scale, "
              f"rank-1 defect {worst:.2e} <= 1e-10 over 1e3 momenta")


def test_criterion_9_massless_theta_constraints():
    rng = np.random.default_rng(2029)
    worst = 0.0
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        scale = rng.uniform(0.5, 2.0)
        theta = FourVector(scale * (1 if rng.uniform() < 0.5 else -1),
                           *(scale * direction))
        spec = MasslessThetaSpec(theta=theta, kappa0=rng.uniform(0.5, 2.0),
                                 kappa1=-rng.uniform(0.5, 2.0),
                                 theta0=rng.uniform(0, 6),
                                 chirality0="L", chirality1="R")
        sol = build_massless_theta_solution(spec)
        worst = max(worst, abs(theta.dot(theta)))
        for k, kappa in ((sol.k0, spec.kappa0), (sol.k1, spec.kappa1)):
            worst = max(worst, float(np.abs(k.as_array() - kappa * theta.as_array()).max()))
        for u in (sol.u0, sol.u1):
            worst = max(worst, float(np.linalg.norm(slashed(theta) @ u))
                        / float(np.linalg.norm(u)))
    assert worst <= 1e-12
    massive_with_theta = check_constraints(
        FourVector(1, 0, 0, 1), FourVector(3, 0, 0, 3), FourVector(-2, 0, 0, -2), 1.0)
    assert not massive_with_theta.all_passed
    report(9, f"theta null, k = kappa theta and slashed(theta) u = 0 to "
              f"{worst:.2e} <= 1e-12; massive spec with nonzero theta rejected")


def test_criterion_10_helicity():
    worst = 0.0
    want = {"u": 0.5, "d": -0.5}
    for kvec in ((0.0, 0.0, 1.2), (0.6, -0.3, 0.9), (1.0, 1.0, 0.0)):
        sols = enumerate_massive_set(1.0, kvec, kvec, 0.4, spin_axis="momentum")
        for s in sols:
            rep = helicity_check(s)
            worst = max(worst, rep.residual0, rep.residual1,
                        abs(rep.h0 - want[s.label[0]]), abs(rep.h1 - want[s.label[1]]))
    assert worst <= 1e-12
    report(10, f"labeled spin states along k_hat give (+-1/2, +-1/2), "
               f"worst deviation {worst:.2e} <= 1e-12")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "qdirac", *args],
                              capture_output=True, text=True)

    cfg = tmp_path / "massive.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "massive", "mass": 1.0,
        "kvec0": [0, 0, 1.0], "kvec1": [0, 0, 1.0], "theta0": 0.5,
    }))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("catalog", "--config", str(cfg), "--out", str(out_a), "--seed", "3").returncode == 0
    assert run("catalog", "--config", str(cfg), "--out", str(out_b), "--seed", "3").returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    vcfg = tmp_path / "verify.json"
    vcfg.write_text(json.dumps({"schema_version": 1}))
    v1 = run("verify", "--config", str(vcfg), "--seed", "5")
    v2 = run("verify", "--config", str(vcfg), "--seed", "5")
    assert v1.returncode == 0 and v1.stdout == v2.stdout

    assert run("verify", "--config", str(vcfg), "--tol", "1e-16").returncode == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert run("catalog", "--config", str(broken)).returncode == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"schema_version": 1, "kind": "massive",
                                   "kvec0": [0, 0, 1], "kvec1": [0, 0, 1],
                                   "theta0": 0.1}))
    proc = run("catalog", "--config", str(missing))
    assert proc.returncode == 2 and "mass" in proc.stderr
    report(11, "byte-identical reports for fixed seed/config; exit codes "
               "0 (pass), 1 (verification failure), 2 (config error) verified")
