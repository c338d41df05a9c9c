import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qdirac import (
    FourVector,
    MassiveSpec,
    MasslessThetaSpec,
    PacketSample,
    PlaneWaveSolution,
    SpacetimeGrid,
    WavePacket,
    adjoint_norm,
    analytic_divergence,
    build_massive_solution,
    build_massless_theta_solution,
    build_u_spinor,
    certify_solution,
    continuity_convergence,
    continuity_residual,
    current,
    dirac_residual,
    enumerate_massive_set,
    enumerate_massless_theta0_set,
    gram_matrix,
    helicity_check,
    inner_product_grid,
    make_wave_packet,
    mass_shell_energy,
    sample,
    slashed,
)
import qdirac.grid
import qdirac.verify as ver
from qdirac.solutions import (
    SPIN_PAIRS, WavePacketSpec, build_massive_solutions, build_wave_packet, packet_spec_from_dict,
)
from qdirac.cli import _default_continuity_setup, run_continuity
from test_golden import CASES as GOLDEN_CASES
from helpers import (
    adjoint_pairing, difference_residual, einsum_current, lattice_sum, oracle_continuity,
    perfbench_module, sampled_gram, sampled_source,
)

POINTS = np.random.default_rng(99).uniform(-3, 3, size=(40, 4))

BOX = 2 * math.pi
CELLS = 12


def periodic_box(cells: int = CELLS, length: float = BOX) -> SpacetimeGrid:
    h = length / cells
    return SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, h, h, h),
                         (1, cells, cells, cells), (False, True, True, True))


def commensurate(n: tuple, length: float = BOX) -> tuple:
    base = 2 * math.pi / length
    return tuple(base * c for c in n)


# --- dirac_residual ---------------------------------------------------------

def test_residual_certified_solutions():
    for s in enumerate_massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77):
        assert dirac_residual(s, points=POINTS) <= 1e-12


def test_residual_gauge_shift():
    # with potential a^mu i, shifting every stored momentum by a keeps
    # the residual at zero
    a = FourVector(0.3, -0.1, 0.2, 0.5)
    sol = build_massive_solution(MassiveSpec(1.0, 0.6, (0.2, 0.1, -0.5), (0, 0.3, 0.4)))
    shifted = dataclasses.replace(sol, k0=sol.k0 + a, k1=sol.k1 + a)
    assert dirac_residual(shifted, a=a, points=POINTS) <= 1e-12
    assert dirac_residual(shifted, points=POINTS) > 0.01


def test_residual_detects_off_shell():
    m = 1.5
    sol = build_massive_solution(MassiveSpec(m, 0.4, (0.3, 0, 0.4), (0.2, -0.1, 0)))
    broken = dataclasses.replace(sol, k0=FourVector(sol.k0.t + 0.3 * m, *sol.k0.spatial()))
    assert dirac_residual(broken, points=POINTS) >= 0.1 * m


def test_residual_phase_map_invariance_massless():
    # for null theta orthogonal to k (m = 0) the phase map combined with
    # the momentum shift k -> k -+ theta leaves the residual at zero
    theta = FourVector(1.2, 0, 1.2, 0)
    spec = MasslessThetaSpec(theta=theta, kappa0=2.0, kappa1=3.0, theta0=0.4,
                             chirality0="R", chirality1="L")
    sol = build_massless_theta_solution(spec)
    assert dirac_residual(sol, points=POINTS) <= 1e-12
    for shift in (1.0, -1.0):
        mapped = PlaneWaveSolution(
            theta0=0.0, k0=sol.k0 + theta.scale(shift), k1=sol.k1 + theta.scale(shift),
            u0=sol.u0, u1=sol.u1, mass=0.0)
        assert dirac_residual(mapped, points=POINTS) <= 1e-12


def _broken_residual_case(name):
    """A descriptor that fails the field equation, and the potential it
    is checked with."""
    a = FourVector(0.3, -0.1, 0.2, 0.5)
    sol = build_massive_solution(MassiveSpec(1.5, 0.4, (0.3, 0, 0.4), (0.2, -0.1, 0)))
    shifted = dataclasses.replace(sol, k0=sol.k0 + a, k1=sol.k1 + a)
    if name == "off_shell_k0":
        return dataclasses.replace(sol, k0=FourVector(sol.k0.t + 0.45, *sol.k0.spatial())), None
    if name == "gauge_shift_without_a":
        return shifted, None
    if name == "gauge_shift_with_a":
        return shifted, a.scale(0.5)
    if name == "packet_mass_mismatch":
        packet = make_wave_packet(1.0, math.pi / 6, (
            PacketSample((1.0, 0.0, 0.0), 1.0),
            PacketSample((0.0, 1.0, 1.0), 0.8, "down", -1),
        ), (PacketSample((0.0, 0.0, 1.0), 0.7, "down"),))
        # terms on the m = 1 shell, checked against m = 1.4
        return dataclasses.replace(packet, mass=1.4), None
    theta = build_massless_theta_solution(MasslessThetaSpec(
        FourVector(1, 0, 0.6, 0.8), kappa0=-1.5, kappa1=2.0, theta0=0.4))
    # running phase with k0 pushed off the null line of theta
    return dataclasses.replace(theta, k0=theta.k0 + FourVector(0.2, 0.1, 0, 0)), None


@pytest.mark.parametrize("name", ["off_shell_k0", "gauge_shift_without_a",
                                  "gauge_shift_with_a", "running_phase",
                                  "packet_mass_mismatch"])
def test_residual_matches_difference_oracle(name):
    field, a = _broken_residual_case(name)
    got = dirac_residual(field, a=a, points=POINTS)
    want = difference_residual(field, POINTS, a=a)
    assert got > 0.01
    assert abs(got - want) <= 1e-6 * want


def test_difference_oracle_rejects_flipped_half_signs():
    # the set a slip in the half sign table would build and certify: each
    # half takes the other half's mass sign and frequency, so u0 is in
    # ker(slashed(k0) - m) and u1 in ker(slashed(k1) + m)
    m = 1.5
    sol = build_massive_solution(MassiveSpec(m, 0.4, (0.3, 0, 0.4), (0.2, -0.1, 0)))
    k0 = FourVector(-sol.k0.t, *sol.k0.spatial())
    k1 = FourVector(-sol.k1.t, *sol.k1.spatial())
    flipped = dataclasses.replace(sol, k0=k0, k1=k1, u0=build_u_spinor(k0, m, 1),
                                  u1=build_u_spinor(k1, m, -1))
    assert np.abs((slashed(k0) - m * np.eye(4)) @ flipped.u0).max() <= 1e-12
    assert np.abs((slashed(k1) + m * np.eye(4)) @ flipped.u1).max() <= 1e-12
    assert difference_residual(flipped, POINTS) > 0.1


def test_builder_and_certifier_read_one_half_sign_table(monkeypatch):
    # a slip in HALF_MASS_SIGN moves the builder and the certifier together,
    # so the set still certifies; only the quaternion oracle, which never
    # splits the field into halves, sees the wrong equation
    monkeypatch.setattr(ver, "HALF_MASS_SIGN", (1, -1))
    sols = enumerate_massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77)
    assert max(certify_solution(sols)) <= 1e-15
    assert min(difference_residual(s, POINTS) for s in sols) > 0.1


def _certified_family(family):
    if family == "massive":
        return enumerate_massive_set(1.3, (0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77)
    if family == "massless":
        return enumerate_massless_theta0_set((0.4, -0.2, 0.7), (0.1, 0.5, -0.3), 0.77)
    return [build_massless_theta_solution(MasslessThetaSpec(
        FourVector(1.2, 0, 1.2, 0), kappa0=k0, kappa1=k1, theta0=0.4,
        chirality0=c0, chirality1=c1))
        for k0, k1, c0, c1 in ((2.0, 3.0, "R", "L"), (-1.5, 0.5, "L", "R"))]


@pytest.mark.parametrize("family", ["massive", "massless", "running_phase"])
def test_certified_bound_covers_sampled_residual(family):
    points = np.random.default_rng(2024).uniform(-50, 50, size=(500, 4))
    for s in _certified_family(family):
        assert certify_solution(s) >= dirac_residual(s, points=points)


# --- current ------------------------------------------------------------------

def test_one_field_uses_its_own_rows_without_spreading():
    # a running phase has two terms per half
    field = build_massless_theta_solution(MasslessThetaSpec(
        FourVector(1.2, 0, 1.2, 0), kappa0=2.0, kappa1=-0.5, theta0=0.4))
    rows = ver._stack_rows([field])
    for (kl, w, owner), (own_kl, own_w) in zip(rows, field.stacked_terms()):
        # the field's own table slices, uncopied: views of one buffer at one place
        for a, own in ((kl, own_kl), (w, own_w)):
            assert a.base is own.base
            assert (a.ctypes.data, a.shape, a.strides) == (own.ctypes.data, own.shape, own.strides)
        assert owner.tolist() == [0] * len(kl)
    # the owner sum equals the spread matmul of a set, bit for bit
    for kl, w, owner in rows:
        spread = np.zeros((len(kl), 1, 4), dtype=complex)
        spread[np.arange(len(kl)), owner] = w
        want = (np.exp(1j * (POINTS @ kl.T)) @ spread.reshape(len(kl), 4)).reshape(len(POINTS), 1, 4)
        assert ver._owner_sums(POINTS, kl, w, owner, 1).tobytes() == want.tobytes()


def test_current_rest_frame():
    sol = build_massive_solution(MassiveSpec(2.0, 0.0, (0, 0, 0), (0, 0, 0)))
    j = current(sol, FourVector(0.3, 1.0, -0.5, 0.2))
    assert j.t == pytest.approx(1.0, abs=1e-14)
    assert (abs(j.x), abs(j.y), abs(j.z)) == (0.0, 0.0, 0.0)


def test_current_time_component_is_density():
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.5, 0.2, -0.3), (0.1, 0, 0.8)))
    for pt in POINTS[:10]:
        x = FourVector(*pt)
        assert current(sol, x).t == pytest.approx(sol.density(x), rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_point_raises_at_every_entry_point(bad):
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.5, 0.2, -0.3), (0.1, 0, 0.8)))
    x = FourVector(0.3, bad, -0.5, 0.2)
    points = [[0.1, 0.2, 0.3, 0.4], x.as_array().tolist()]
    message = re.escape(f"sample points must be finite, got [{x.as_array().tolist()}]")
    for call in (lambda: dirac_residual(sol, points=points), lambda: dirac_residual([sol, sol], points=points),
                 lambda: ver.densities([sol], points), lambda: sol.eval_points(points),
                 lambda: sol.evaluate(x), lambda: sol.density(x), lambda: current(sol, x),
                 lambda: adjoint_norm(sol, x)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("shape", [(4, 3), (5, 3), (3,), (2, 2, 4), (0,)])
def test_points_of_any_other_shape_raise_naming_it(shape):
    # a (4, 3) array is not three points, though its size is a multiple of 4
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.5, 0.2, -0.3), (0.1, 0, 0.8)))
    message = re.escape(f"got shape {shape}")
    for call in (lambda: dirac_residual(sol, points=np.zeros(shape)),
                 lambda: ver.densities([sol], np.arange(float(math.prod(shape))).reshape(shape))):
        with pytest.raises(ValueError, match=message):
            call()


def test_one_point_and_a_point_array_are_read():
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.5, 0.2, -0.3), (0.1, 0, 0.8)))
    rows = [dirac_residual(sol, points=x) for x in POINTS[:3]]
    assert dirac_residual(sol, points=POINTS[:3]) == pytest.approx(max(rows), rel=1e-9, abs=1e-15)
    assert dirac_residual(sol, points=POINTS[:3].tolist()) == dirac_residual(sol, points=POINTS[:3])
    assert ver.densities([sol], POINTS[0]).shape == (1, 1)
    assert ver.densities([sol], POINTS[:5]).shape == (5, 1)
    assert ver.densities([sol], POINTS[:5])[:, 0] == pytest.approx([sol.density(FourVector(*x)) for x in POINTS[:5]],
                                                                   rel=1e-12)


def test_current_spatial_flip():
    kvec = (0.0, 0.0, 0.9)
    flipped = tuple(-c for c in kvec)
    a = build_massive_solution(MassiveSpec(1.0, 0.0, kvec, kvec))
    b = build_massive_solution(MassiveSpec(1.0, 0.0, flipped, flipped))
    x = FourVector(0.2, 0.1, 0.4, -0.3)
    ja, jb = current(a, x), current(b, x)
    assert ja.z == pytest.approx(-jb.z, abs=1e-14)
    assert ja.t == pytest.approx(jb.t, abs=1e-14)


def test_density_nonnegative_everywhere():
    for s in enumerate_massive_set(0.7, (0.3, 0.1, -0.2), (0.4, 0, 0.6), 1.1):
        for pt in POINTS[:10]:
            assert current(s, FourVector(*pt)).t >= 0.0


# --- continuity ------------------------------------------------------------------

def continuity_packet_1p1():
    samples0 = (PacketSample((0, 0, 1.0), 1.0), PacketSample((0, 0, 2.0), 0.8))
    samples1 = (PacketSample((0, 0, 1.0), 0.7),)
    packet = make_wave_packet(1.0, math.pi / 6, samples0, samples1)
    grid = SpacetimeGrid(FourVector(-0.2, 0, 0, 0), (0.2, 1.0, 1.0, BOX / 12),
                         (3, 1, 1, 12), (False, False, False, True))
    return packet, grid


def test_continuity_plane_wave_rounding_level():
    sol = build_massive_solution(MassiveSpec(1.0, 0.5, (0.3, 0, 0.4), (0.3, 0, 0.4)))
    grid = SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, 0.3, 0.3, 0.3), (3, 4, 4, 4))
    rep = continuity_residual(sol, grid)
    assert rep.defect <= 1e-12
    assert rep.rhs_norm == 0.0
    assert rep.defect == rep.lhs_norm


def test_continuity_second_order_defect():
    packet, grid = continuity_packet_1p1()
    conv = continuity_convergence(packet, grid, levels=3)
    defects = [r.defect for r in conv.levels]
    assert defects[0] / defects[1] >= 3.5
    assert defects[1] / defects[2] >= 3.5
    assert 1.8 <= conv.fitted_order <= 2.2


@pytest.mark.parametrize("levels, message", [(2.5, "field 'levels' must be an integer, got 2.5"),
                                             (True, "field 'levels' must be a number, got True")],
                         ids=["float", "bool"])
def test_continuity_convergence_reads_levels(levels, message):
    packet, grid = continuity_packet_1p1()
    with pytest.raises(ValueError, match=re.escape(message)):
        continuity_convergence(packet, grid, levels=levels)


@pytest.mark.parametrize("theta0", [math.nan, math.inf])
def test_adjoint_norm_reads_theta0(theta0):
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.5, 0.2, -0.3), (0.1, 0, 0.8)))
    with pytest.raises(ValueError, match=re.escape(f"field 'theta0' must be finite, got {theta0!r}")):
        adjoint_norm(sol, theta0=theta0)
    assert adjoint_norm(sol, theta0=0.3) == adjoint_norm(dataclasses.replace(sol, theta0=0.3))


def test_continuity_source_diagnostic():
    # the gamma - conj(gamma) difference couples opposite spins, so the
    # diagnostic needs a spin mixture to produce a visible source
    samples0 = (PacketSample((0, 0, 1.0), 1.0, "up"),)
    samples1 = (PacketSample((0, 0, 1.0), 0.7, "down"),)
    packet = make_wave_packet(1.0, math.pi / 6, samples0, samples1)
    grid = SpacetimeGrid(FourVector(-0.2, 0, 0, 0), (0.2, 1.0, 1.0, BOX / 12),
                         (3, 1, 1, 12), (False, False, False, True))
    b = np.array([0.0, 0.0, 0.4 + 0.1j, 0.0])
    rep = continuity_residual(packet, grid, b=b)
    assert rep.rhs_norm > 0.0


# --- pair form of the current, its source and its divergence ----------------------

def _theta_solution():
    # running phase with kappa1 < 0
    theta = FourVector(1.0, 0.6, 0.0, 0.8)
    return build_massless_theta_solution(MasslessThetaSpec(
        theta=theta, kappa0=1.3, kappa1=-0.7, theta0=0.4, chirality0="L"))


def _random_samples(rng, n):
    # both spins, and every third sample at negative frequency
    return tuple(PacketSample(tuple(rng.uniform(-1.5, 1.5, 3)), rng.uniform(0.3, 1.2),
                              ("up", "down")[i % 2], -1 if i % 3 == 2 else 1)
                 for i in range(n))


def _many_term_packet(n: int = 18):
    # 2 * n(n+1)/2 current pairs: more than one pair block for n >= 32
    rng = np.random.default_rng(5)
    return make_wave_packet(0.9, 0.6, _random_samples(rng, n), _random_samples(rng, n))


def _families():
    rng = np.random.default_rng(17)
    fields = [(s.label, s) for s in enumerate_massive_set(1.1, (0.3, -0.4, 0.5), (0.2, 0.6, -0.1), 0.7)]
    fields += [(s.label, s) for s in enumerate_massless_theta0_set((0.4, 0.1, -0.6), (-0.3, 0.5, 0.2), 0.9)]
    fields.append(("theta", _theta_solution()))
    for component in (0, 1):
        spec = WavePacketSpec(component, 1.2, _random_samples(rng, 3))
        fields.append((f"packet{component}", build_wave_packet(spec)))
    fields.append(("packet01", make_wave_packet(0.8, 0.5, _random_samples(rng, 3), _random_samples(rng, 2))))
    fields.append(("many_terms", _many_term_packet()))
    return fields


FAMILIES = _families()
FAMILY_IDS = [label for label, _ in FAMILIES]
PAIR_GRID = SpacetimeGrid(FourVector(-0.3, 0.2, -0.1, 0.4), (0.15, 0.35, 0.3, 0.25), (3, 5, 4, 6))
B = np.array([0.2 - 0.1j, 0.3 + 0.2j, -0.4 + 0.1j, 0.25 - 0.3j])


def _relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("label, field", FAMILIES, ids=FAMILY_IDS)
def test_pair_current_matches_einsum_oracle(label, field):
    sampled = sample(field, PAIR_GRID)
    oracle = einsum_current(sampled.psi0, sampled.psi1)
    assert _relative_gap(lattice_sum(PAIR_GRID.axes(), *ver._current_pairs(field)).real, oracle) <= 1e-14
    # the Pauli form on sampled arrays, used by packet
    assert _relative_gap(ver.current_grid(sampled), oracle) <= 1e-14
    j = current(field, PAIR_GRID.point(1, 2, 3, 4)).as_array()
    assert _relative_gap(j, oracle[1, 2, 3, 4]) <= 1e-14


@pytest.mark.parametrize("label, field", FAMILIES, ids=FAMILY_IDS)
def test_pair_source_matches_sampled_oracle(label, field):
    sampled = sample(field, PAIR_GRID)
    oracle = sampled_source(sampled.psi0, sampled.psi1, B)
    s = ver._source_matrix(B)
    pairs = lattice_sum(PAIR_GRID.axes(), *ver._source_pairs(field, s))[..., 0].real
    # relative to the size of the bilinear form, which stays meaningful
    # where the source cancels (one empty half, or opposite chiralities)
    scale = np.abs(s).max() * np.abs(sampled.psi0).max() * np.abs(sampled.psi1).max()
    assert np.abs(pairs - oracle).max() <= 1e-14 * scale
    assert np.abs(oracle).max() <= 1e-14 * scale or _relative_gap(pairs, oracle) <= 1e-14


def _one_kernel(monkeypatch, field, grid, b):
    """`continuity_residual` with every sampling and stencil entry point
    disabled, checked against the sampled stencil oracle to 1e-14 of the
    current over the smallest spacing."""
    lhs, rhs, defect, j = oracle_continuity(field, grid, b)

    def forbidden(*args, **kwargs):
        raise AssertionError("continuity_residual sampled psi or ran a stencil")

    for module in (ver, qdirac.grid):
        monkeypatch.setattr(module, "sample", forbidden)
        monkeypatch.setattr(module, "central_diff", forbidden)
    monkeypatch.setattr(ver, "current_grid", forbidden)
    monkeypatch.setattr(type(field), "evaluate_grid", forbidden)
    rep = continuity_residual(field, grid, b=b)
    scale = np.abs(j).max() / min(h for h, n in zip(grid.spacing, grid.counts) if n > 1)
    for got, want in ((rep.lhs_norm, lhs), (rep.rhs_norm, rhs), (rep.defect, defect)):
        assert abs(got - want) <= 1e-14 * scale
    return rep, scale


# periodic spatial rings of length 2 pi: only integer momenta wrap, so
# every field here but the single-term uu+- needs the seam terms
SEAM_GRID = SpacetimeGrid(FourVector(-0.2, 0.3, 0.1, -0.2), (0.2, BOX / 5, BOX / 4, BOX / 6),
                          (3, 5, 4, 6), (False, True, True, True))


@pytest.mark.parametrize("label", ["uu+-", "theta", "packet01", "many_terms"])
@pytest.mark.parametrize("block", [7, 10**6])
def test_continuity_one_kernel_on_both_sides_of_pair_block(monkeypatch, label, block):
    monkeypatch.setattr(qdirac.grid, "_MAX_PAIRS", block)
    _one_kernel(monkeypatch, dict(FAMILIES)[label], SEAM_GRID, B)


@pytest.mark.parametrize("slab_bytes", [1, 1500, 3000])
def test_seam_runs_across_slab_boundaries(monkeypatch, slab_bytes):
    # one-line slabs; two-line slabs, which cut the three inner x lines of
    # the runs with two y rows; slabs that hold each run whole
    monkeypatch.setattr(qdirac.grid, "_SLAB_BYTES", slab_bytes)
    _one_kernel(monkeypatch, dict(FAMILIES)["packet01"], SEAM_GRID, B)


def test_many_term_packet_takes_the_one_kernel(monkeypatch):
    packet = _many_term_packet(32)
    assert len(ver._current_pairs(packet)[0]) > qdirac.grid._MAX_PAIRS
    for grid, b in ((PAIR_GRID, None), (SEAM_GRID, B)):
        with monkeypatch.context() as patched:
            _one_kernel(patched, packet, grid, b)


def _ladder(grid, levels=4):
    for _ in range(levels):
        yield grid
        grid = grid.refined()


def _symbol_cases():
    """(id, field, grid, b): grids where every pair wraps whole periods,
    then random spacings, which no pair wraps, on every subset of
    periodic axes."""
    cases = []
    for dim in ("1+1", "3+1"):
        packet, grid = _default_continuity_setup({"dimension": dim})
        cases += [(f"default{dim}-l{i}", packet, g, None) for i, g in enumerate(_ladder(grid))]
    packet, box = _default_continuity_setup({"dimension": "3+1"})
    cases += [(f"default3+1-b-l{i}", packet, g, B) for i, g in enumerate(_ladder(box, 3))]
    # non-periodic spatial axes: any momentum fits
    cases += [(f"open-{label}", dict(FAMILIES)[label], PAIR_GRID, B)
              for label in ("theta", "packet01", "many_terms")]
    # reduced time and y axes, open x, periodic z
    reduced = SpacetimeGrid(FourVector(0.3, -0.4, 0.2, 0.1), (0.1, 0.25, 1.0, BOX / 10),
                            (1, 6, 1, 10), (False, False, False, True))
    cases.append(("reduced", _default_continuity_setup({"dimension": "1+1"})[0], reduced, B))
    rng = np.random.default_rng(2024)
    for i in range(3):
        origin = FourVector(*rng.uniform(-3.0, 3.0, 4))
        cases.append((f"origin{i}", packet, dataclasses.replace(box, origin=origin),
                      B if i % 2 else None))
    # several terms in both halves, so the divergence and the source of b are nonzero
    fields = ("theta", "packet01", "many_terms")
    subsets = itertools.product(itertools.product((False, True), repeat=4), (None, B))
    for i, (periodic, b) in enumerate(subsets):
        grid = SpacetimeGrid(FourVector(*rng.uniform(-1.0, 1.0, 4)), tuple(rng.uniform(0.1, 0.5, 4)),
                             (3, 5, 4, 6), periodic)
        label = fields[i % len(fields)]
        axes = "".join("p" if p else "o" for p in periodic)
        cases.append((f"random-{axes}-{'b' if b is not None else 'no_b'}-{label}",
                      dict(FAMILIES)[label], grid, b))
    return cases


SYMBOL_CASES = _symbol_cases()


@pytest.mark.parametrize("label, field, grid, b", SYMBOL_CASES, ids=[c[0] for c in SYMBOL_CASES])
def test_symbol_path_matches_sampled_stencil_oracle(monkeypatch, label, field, grid, b):
    k, _ = ver._current_pairs(field)
    assert np.abs(k).max() > 0
    rep, scale = _one_kernel(monkeypatch, field, grid, b)
    assert rep.lhs_norm > 1e-6 * scale
    assert (rep.rhs_norm > 0.0) == (b is not None)


@pytest.mark.parametrize("stretch, seams", [(0.0, False), (1e-15, False), (1e-12, True), (1e-9, True)])
def test_periodic_axis_adds_seam_terms_only_off_whole_periods(monkeypatch, stretch, seams):
    # the 1+1 packet has integer momenta on a 12-point ring of length
    # 2 pi (1 + stretch): each pair misses a whole period by 2 pi q stretch,
    # against a bound of ALGEBRA_TOL = 1e-13 relative
    packet, grid = _default_continuity_setup({"dimension": "1+1"})
    h = grid.spacing
    grid = dataclasses.replace(grid, spacing=(h[0], h[1], h[2], h[3] * (1.0 + stretch)))
    sums = []
    real_slabs = ver._real_slabs
    monkeypatch.setattr(ver, "_real_slabs", lambda axes, k, coef: sums.append(
        len(axes[3])) or real_slabs(axes, k, coef))
    _one_kernel(monkeypatch, packet, grid, None)
    # one sum on the whole ring, or one per run: slot 0, the inner slots, slot 11
    assert sums == ([1, 10, 1] if seams else [12])


def _bits(rep):
    return (rep.grid, *(float.hex(v) for v in (rep.lhs_norm, rep.rhs_norm, rep.defect)),
            rep.interior_points)


# one term per half, on a 12-point ring of length 2 pi that its momenta
# 0.5 and 0.8 do not wrap: every current pair is diagonal, so q = 0
ONE_TERM = build_massive_solution(MassiveSpec(1.0, 0.6, (0, 0, 0.5), (0, 0, 0.8), spin1="down"))
ONE_TERM_GRID = SpacetimeGrid(FourVector(-0.2, 0, 0, 0), (0.2, 1, 1, BOX / 12), (3, 1, 1, 12),
                              (False, False, False, True))


def _ladder_cases():
    packet1, grid1 = _default_continuity_setup({"dimension": "1+1"})
    packet3, grid3 = _default_continuity_setup({"dimension": "3+1"})
    return [("1+1", packet1, grid1, None, 4), ("3+1", packet3, grid3, None, 4),
            ("3+1-b", packet3, grid3, B, 3),
            ("seam", dict(FAMILIES)["packet01"], SEAM_GRID, B, 3),
            ("many_terms", _many_term_packet(32), PAIR_GRID, B, 3),
            ("one_term", ONE_TERM, ONE_TERM_GRID, None, 4),
            ("one_term-b", ONE_TERM, ONE_TERM_GRID, B, 3)]


LADDER_CASES = _ladder_cases()


@pytest.mark.parametrize("label, field, grid, b, levels", LADDER_CASES, ids=[c[0] for c in LADDER_CASES])
def test_ladder_levels_equal_standalone_residuals(monkeypatch, label, field, grid, b, levels):
    # each level of one ladder pass is the one-grid check on that grid, bit for bit
    calls = []
    real_slabs = ver._real_slabs
    monkeypatch.setattr(ver, "_real_slabs", lambda axes, k, coef: calls.append(
        len(k)) or real_slabs(axes, k, coef))
    conv = continuity_convergence(field, grid, levels=levels, b=b)
    # one sum per level, or per product of runs on the three seam axes of the
    # seam case; one term per half leaves no current pair with q != 0, so only
    # the source pairs are summed, and without b nothing is
    assert len(calls) == levels * {"seam": 27, "one_term": 0}.get(label, 1)
    if label == "many_terms":
        assert min(calls) > qdirac.grid._MAX_PAIRS
    if label.startswith("one_term"):
        assert all(r.lhs_norm == 0.0 for r in conv.levels)
    assert conv.h_scales == tuple(2.0 ** -i for i in range(levels))
    assert [_bits(r) for r in conv.levels] == [
        _bits(continuity_residual(field, g, b=b)) for g in _ladder(grid, levels)]



# README's example spacing 0.5236 is not 2 pi / 12, so a field of several
# terms per half has a seam on it; the exact seam sum is kept for it
SEAM_PACKET = {"component": 0, "mass": 1.0, "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0},
                                                        {"kvec": [0, 0, 2.0], "amplitude": 0.8}]}


def _near_ring(h_z):
    return {"origin": [-0.2, 0, 0, 0], "spacing": [0.2, 1, 1, h_z], "counts": [3, 1, 1, 12],
            "periodic": [False, False, False, True]}


@pytest.mark.parametrize("levels, order", [(3, 1.98981), (4, 1.99317), (5, 1.99516)])
def test_a_near_commensurate_seam_study_passes_with_the_exact_seam_sum(monkeypatch, levels, order):
    sums = []
    real_slabs = ver._real_slabs
    monkeypatch.setattr(ver, "_real_slabs", lambda axes, k, coef: sums.append(
        len(axes[3])) or real_slabs(axes, k, coef))
    code, report = run_continuity({"schema_version": 1, "levels": levels, "packet": SEAM_PACKET,
                                   "grid": _near_ring(0.5236)}, None, 0)
    assert code == 0 and report["passed"] is True
    assert report["fitted_order"] == pytest.approx(order, abs=1e-5)
    # per level, three runs of the 12 * 2^level slots: slot 0, the inner slots, the last slot
    assert sums == [n for level in range(levels) for n in (1, 12 * 2**level - 2, 1)]
    # at the exact 2 pi / 12 the ring has no seam; the defects are O(h^2), so a
    # relative change delta of h_z moves them by about 2 delta
    packet = build_wave_packet(packet_spec_from_dict(SEAM_PACKET))
    seam, exact = (continuity_convergence(packet, SpacetimeGrid.from_dict(_near_ring(h_z)), levels)
                   for h_z in (0.5236, BOX / 12))
    delta = abs(0.5236 - BOX / 12) / (BOX / 12)
    for got, want in zip(seam.levels, exact.levels, strict=True):
        assert 0.0 < abs(got.defect - want.defect) <= 2.5 * delta * want.defect


def test_only_the_y_component_of_b_adds_a_source():
    # gamma^0, gamma^1 and gamma^3 are real in the Dirac representation, so
    # gamma - conj(gamma) leaves gamma^2 alone
    for mu in range(4):
        b = np.zeros(4, dtype=complex)
        b[mu] = 0.3 + 0.1j
        size = np.abs(ver._source_matrix(b)).max()
        assert size == (pytest.approx(4 * abs(b[mu]), rel=1e-15) if mu == 2 else 0.0)
    # so CI's seam study, with b^x alone, is a passing source diagnostic whose source is 0
    code, report = run_continuity({
        "schema_version": 1, "dimension": "3+1", "levels": 3,
        "grid": {"origin": [-0.2, 0.3, 0.1, -0.2], "spacing": [0.2, 1, 1, 1], "counts": [3, 5, 4, 6],
                 "periodic": [False, True, True, True]},
        "b": [[0, 0], [0.3, 0.1], [0, 0], [0, 0]]}, None, 0)
    assert code == 0 and report["source_active"] is True
    assert [row[report["levels"].header.index("rhs_norm")] for row in report["levels"].rows] == [0.0] * 3


def _all_pair_levels(field, grids, b):
    """Per level, (lhs_norm, rhs_norm, defect) of the divergence summed
    over every current pair, the pairs of q = 0 kept, by `lattice_sum`,
    and the bound 4 eps sum_p |s_p| on each.  At each interior point s_p
    is the pair's coefficients contracted with the difference symbol of
    its slots: i sin(q h)/h, and at the end slots of a seam axis (one
    that some pair does not wrap on the first grid) the wrapped stencil's
    (e^{iqh} - e^{iq(N-1)h}) / 2h and (e^{-iq(N-1)h} - e^{-iqh}) / 2h."""
    k, coef = ver._current_pairs(field)
    eps = np.finfo(float).eps
    first = grids[0]
    seams = []
    for mu, (n, h, per) in enumerate(zip(first.counts, first.spacing, first.periodic)):
        phi = k[:, mu] * (n * h)
        if per and n > 1 and np.any(np.abs(phi - 2 * np.pi * np.round(phi / (2 * np.pi)))
                                    > ver.ALGEBRA_TOL * np.maximum(1.0, np.abs(phi))):
            seams.append(mu)
    levels = []
    for grid in grids:
        axes = [grid.axis(mu) if per or n == 1 else grid.axis(mu)[1:-1]
                for mu, (n, per) in enumerate(zip(grid.counts, grid.periodic))]
        shape = tuple(map(len, axes))
        s = np.zeros(shape + (len(k),), dtype=complex)
        for mu, (n, h) in enumerate(zip(grid.counts, grid.spacing)):
            if n == 1:
                continue
            slots = np.tile(1j * np.sin(k[:, mu] * h) / h, (shape[mu], 1))
            if mu in seams:
                slots[0] = (np.exp(1j * k[:, mu] * h) - np.exp(1j * k[:, mu] * (n - 1) * h)) / (2 * h)
                slots[-1] = (np.exp(-1j * k[:, mu] * (n - 1) * h) - np.exp(-1j * k[:, mu] * h)) / (2 * h)
            s += coef[:, mu] * slots.reshape([-1 if i == mu else 1 for i in range(4)] + [len(k)])
        # the identity's columns are the phases exp(i q_p.x) at every point
        div = np.sum(s * lattice_sum(axes, k, np.eye(len(k))), axis=-1).real
        bound = 4 * eps * np.abs(s).sum(axis=-1).max()
        if b is None:
            levels.append(((np.abs(div).max(), 0.0, np.abs(div).max()), (bound, 0.0, bound)))
            continue
        ks, cs = ver._source_pairs(field, ver._source_matrix(b))
        src = lattice_sum(axes, ks, cs)[..., 0].real
        src_bound = 4 * eps * np.abs(cs).sum()
        levels.append(((np.abs(div).max(), np.abs(src).max(), np.abs(div - src).max()),
                       (bound, src_bound, bound + src_bound)))
    return levels


def _assert_levels_match_all_pairs(reports, field, grids, b):
    levels = _all_pair_levels(field, grids, b)
    for rep, (want, bounds) in zip(reports, levels, strict=True):
        for got, value, bound in zip((rep.lhs_norm, rep.rhs_norm, rep.defect), want, bounds):
            assert abs(got - value) <= bound, (got, value, bound)
    return [defect for (_, _, defect), _ in levels]


@pytest.mark.parametrize("label, field, grid, b", SYMBOL_CASES, ids=[c[0] for c in SYMBOL_CASES])
def test_pruned_pairs_equal_the_all_pair_sum(label, field, grid, b):
    _assert_levels_match_all_pairs([continuity_residual(field, grid, b=b)], field, [grid], b)


def _reference_pairs(field):
    """The current pairs as index arrays and np.where weights select them."""
    ks, coefs = [], []
    for kl, w in field.stacked_terms():
        a, b = np.triu_indices(len(w))
        pair = np.einsum("ai,mij,bj->abm", np.conj(w), ver._BG_STACK, w)[a, b]
        ks.append(kl[b] - kl[a])
        coefs.append(np.where((a == b)[:, None], 1.0, 2.0) * pair)
    return np.concatenate(ks), np.concatenate(coefs)


@pytest.mark.parametrize("label, field, grid, b", SYMBOL_CASES, ids=[c[0] for c in SYMBOL_CASES])
def test_current_pairs_and_interior_axes_equal_the_array_reference(label, field, grid, b):
    for got, want in zip(ver._current_pairs(field), _reference_pairs(field), strict=True):
        assert got.tobytes() == want.tobytes()
    for level in _ladder(grid, 3):
        for mu, axis in enumerate(ver._interior_axes(level)):
            n = level.counts[mu]
            inner = slice(1, -1) if n > 1 and not level.periodic[mu] else slice(None)
            assert np.array(axis).tobytes() == level.axis(mu)[inner].tobytes()


def _workload_studies(seeds):
    """(op key, config, cli seed) of every valid op of the continuity-ladder
    benchmark workload at each seed."""
    workloads = perfbench_module("workloads")
    return [(f"{seed}-{op.key}", json.loads(op.config_text), op.cli_seed)
            for seed in seeds for op in workloads.build("continuity-ladder", seed).ops if not op.probe]


WORKLOAD_STUDIES = _workload_studies((0, 1, 2))


@pytest.mark.parametrize("key, cfg, seed", WORKLOAD_STUDIES, ids=[key for key, _, _ in WORKLOAD_STUDIES])
def test_workload_studies_equal_the_all_pair_sum(monkeypatch, key, cfg, seed):
    # each level within rounding of the sum over every pair, and the same
    # verdicts as the all-pair defects give
    studies = []
    convergence = ver.continuity_convergence

    def recorded(field, grid, levels, b):
        studies.append((field, grid, levels, b))
        return convergence(field, grid, levels=levels, b=b)

    monkeypatch.setattr(ver, "continuity_convergence", recorded)
    _, report = run_continuity(cfg, None, seed)
    ((field, grid, levels, b),) = studies
    rows = report["levels"].rows
    reports = [ver.ContinuityReport(*row[1:]) for row in rows]
    defects = _assert_levels_match_all_pairs(reports, field, list(_ladder(grid, levels)), b)
    rounding = all(d <= ver.QUADRATURE_TOL for d in defects)
    fitted = all(d > 0 for d in defects)
    order = np.polyfit(np.log([row[0] for row in rows]), np.log(defects), 1)[0] if fitted else math.nan
    assert report["defects_at_rounding_level"] == rounding
    assert (report["fitted_order"] is None) == (not fitted)
    assert report["passed"] == (b is not None or rounding or 1.8 <= order <= 2.2)


@pytest.mark.parametrize("levels", range(3, 9))
def test_equal_defects_fit_exactly_zero(levels):
    # for 5, 6 and 7 levels, fsum(ys) / n misses a tenth of these log-defects,
    # so the fit takes them from the first level's
    h_scales = [2.0 ** -lvl for lvl in range(levels)]
    rng = np.random.default_rng(levels)
    for defect in [0.3648262093175443, 1e-300, 1e300, *10.0 ** rng.uniform(-300, 300, 200)]:
        order = ver._fitted_order(h_scales, [defect] * levels)
        assert order == 0.0 and math.copysign(1.0, order) == 1.0, (defect, order)


def test_a_source_study_with_equal_defects_fits_exactly_zero():
    # one term per half: the divergence is 0 and each defect is the source norm itself
    ((key, cfg, seed),) = [study for study in _workload_studies((1,)) if study[0] == "1-solution1-0"]
    code, report = run_continuity(cfg, None, seed)
    defects = [row[4] for row in report["levels"].rows]
    assert code == 0 and len(set(defects)) == 1 and defects[0] > 0
    # np.polyfit reads -4.1e-16 here
    assert report["fitted_order"] == 0.0


@pytest.mark.parametrize("dimension", ["1+1", "3+1"])
def test_a_preset_study_runs_on_the_grid_its_config_gives(dimension):
    grid = {"origin": [0.1, 0.5, 0.25, 1.0], "spacing": [0.2, BOX / 6, BOX / 6, BOX / 6],
            "counts": [3, 6, 6, 6], "periodic": [False, True, True, True]}
    _, preset = _default_continuity_setup({"dimension": dimension})
    _, report = run_continuity({"dimension": dimension, "grid": grid}, None, 0)
    assert report["levels"].rows[0][1] == grid
    _, report = run_continuity({"dimension": dimension}, None, 0)
    assert report["levels"].rows[0][1] == preset.to_dict()


FIT_STUDIES = [(f"golden-{case}", config, 0) for case, (command, config, _, _) in GOLDEN_CASES.items()
               if command == "continuity"] + _workload_studies((0, 1, 2, 3))


@pytest.mark.parametrize("key, cfg, seed", FIT_STUDIES, ids=[key for key, _, _ in FIT_STUDIES])
def test_the_closed_form_order_equals_the_polynomial_fit(key, cfg, seed):
    _, report = run_continuity(cfg, None, seed)
    rows = report["levels"].rows
    defects = [row[4] for row in rows]
    if not all(d > 0 for d in defects):
        assert report["fitted_order"] is None
        return
    order = np.polyfit(np.log([row[0] for row in rows]), np.log(defects), 1)[0]
    assert abs(report["fitted_order"] - order) <= 1e-12


@pytest.mark.parametrize("b", [None, B])
def test_a_non_finite_dropped_pair_still_overflows(monkeypatch, b):
    # the diagonal pair (0, 0) has q = 0; its inf would read 0 * inf = NaN in the sum
    packet, grid = _default_continuity_setup({"dimension": "3+1"})
    current_pairs = ver._current_pairs

    def inf_diagonal(field):
        k, coef = current_pairs(field)
        assert not k[0].any()
        coef = coef.copy()
        coef[0, 0] = np.inf
        return k, coef

    def forbidden(*args):
        raise AssertionError("lattice work on a non-finite pair")

    monkeypatch.setattr(ver, "_current_pairs", inf_diagonal)
    monkeypatch.setattr(ver, "_real_slabs", forbidden)
    with pytest.raises(ValueError, match="^continuity terms overflow: the field or the potential b is too large$"):
        continuity_convergence(packet, grid, levels=3, b=b)


def test_ladder_memory_is_one_slab_not_the_lattice():
    # the 3+1 preset at levels 5 ends on 3 x 96^3 points; a whole-lattice
    # sum of that level peaks at 21 MB, while the slabs stay under 2 MB
    packet, grid = _default_continuity_setup({"dimension": "3+1"})
    tracemalloc.start()
    try:
        conv = continuity_convergence(packet, grid, levels=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # the order fitted from the whole-lattice sums
    assert abs(conv.fitted_order - 1.9601724932456248) <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_running_max_keeps_a_non_finite_slab(bad):
    # a non-finite value in any slab, first or later, reaches the overflow check
    slabs = [np.array([[0.5, -2.0]]), np.array([[bad, 1.0]]), np.array([[3.0, -0.25]])]
    for order in (slabs, slabs[::-1], slabs[1:] + slabs[:1]):
        peak = 0.0
        for values in order:
            peak = ver._running_max(peak, values)
        assert not math.isfinite(peak)
    peak = 0.0
    for values in (slabs[0], slabs[2]):
        peak = ver._running_max(peak, values)
    assert peak == 3.0

def test_ladder_forms_pairs_once(monkeypatch):
    packet, grid = _default_continuity_setup({"dimension": "3+1"})
    counts = dict.fromkeys(("_current_pairs", "_source_matrix", "_source_pairs"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(ver, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ver, name, counted)
    continuity_convergence(packet, grid, levels=4, b=B)
    assert counts == dict.fromkeys(counts, 1)


@pytest.fixture
def no_lattice_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("lattice work on a degenerate ladder")

    monkeypatch.setattr(ver, "_real_slabs", forbidden)
    monkeypatch.setattr(ver, "_current_pairs", forbidden)


@pytest.mark.parametrize("counts, message", [
    ((2, 4, 4, 4), "degenerate grid: axis 0 has 2 points; need >= 3 (or 1 for a reduced axis)"),
    ((1, 1, 1, 1), "degenerate grid: no differentiable axis"),
])
def test_degenerate_ladder_rejected_before_lattice_work(no_lattice_work, counts, message):
    packet, _ = _default_continuity_setup({"dimension": "3+1"})
    grid = SpacetimeGrid(FourVector(), (0.1,) * 4, counts, (False, True, True, True))
    with pytest.raises(ValueError) as err:
        continuity_convergence(packet, grid, levels=3)
    assert str(err.value) == message


def _tiny_t_spacing(h):
    packet, grid = _default_continuity_setup({"dimension": "1+1"})
    return packet, dataclasses.replace(grid, spacing=(h,) + grid.spacing[1:])


# 1/5e-309 overflows, so the 1e-308 ladder fails on its second level
@pytest.mark.parametrize("spacing, named", [(1e-310, 1e-310), (1e-308, 5e-309)])
def test_overflowing_spacing_rejected_before_lattice_work(no_lattice_work, spacing, named):
    # 1/h is inf, so i sin(q h)/h would read 0 * inf = NaN, which is no fault of the field
    packet, grid = _tiny_t_spacing(spacing)
    with pytest.raises(ValueError) as err:
        continuity_convergence(packet, grid, levels=3)
    assert str(err.value) == (f"grid spacing {named!r} on axis 0 is too small: "
                              "its difference symbol overflows")


def test_smallest_spacing_with_a_finite_symbol_runs():
    # 1/h stays finite down to the last level, 1e-308, so the study runs
    packet, grid = _tiny_t_spacing(4e-308)
    assert abs(continuity_convergence(packet, grid, levels=3).fitted_order - 1.9813420743807808) <= 1e-9


def test_ladder_keeps_a_one_point_periodic_axis_reduced():
    # the same study whether or not the reduced x and y axes are flagged periodic
    packet, grid = _default_continuity_setup({"dimension": "1+1"})
    flagged = dataclasses.replace(grid, periodic=(False, True, True, True))
    plain, marked = (continuity_convergence(packet, g, levels=3, b=B) for g in (grid, flagged))
    assert [r.grid["counts"] for r in marked.levels] == [[3, 1, 1, 12], [3, 1, 1, 24], [3, 1, 1, 48]]
    assert [_bits(r)[1:] for r in marked.levels] == [_bits(r)[1:] for r in plain.levels]


@pytest.mark.parametrize("label, field", FAMILIES, ids=FAMILY_IDS)
def test_analytic_divergence_vanishes_on_shell(label, field):
    k, coef = ver._current_pairs(field)
    scale = float(np.sum(np.abs(coef).sum(axis=1) * np.abs(k).sum(axis=1)))
    assert analytic_divergence(field) <= 1e-14 * max(scale, 1.0)


def test_analytic_divergence_flags_a_broken_descriptor():
    # flipping one term's frequency, not its spinor, leaves that term off shell
    packet = make_wave_packet(1.0, 0.0, (PacketSample((0, 0, 1.0), 1.0), PacketSample((0.8, 0, 0), 0.9)), ())
    (a0, k0, u0), (a1, k1, u1) = packet.terms0
    flipped = FourVector(-k1.t, k1.x, k1.y, k1.z)
    broken = WavePacket(1.0, 0.0, ((a0, k0, u0), (a1, flipped, u1)), ())
    assert analytic_divergence(packet) <= 1e-14
    assert analytic_divergence(broken) > 0.1


def test_continuity_degenerate_grid():
    sol = build_massive_solution(MassiveSpec(1.0, 0.5, (0.3, 0, 0.4), (0.3, 0, 0.4)))
    with pytest.raises(ValueError):
        continuity_residual(sol, SpacetimeGrid(FourVector(), (0.1,) * 4, (2, 4, 4, 4)))
    with pytest.raises(ValueError):
        continuity_residual(sol, SpacetimeGrid(FourVector(), (0.1,) * 4, (1, 1, 1, 1)))


# --- the field equation in quaternion arithmetic ---------------------------------

@pytest.mark.parametrize("label, field", FAMILIES + [
    (s.label, s) for s in build_massive_solutions([
        MassiveSpec(1.5, 0.4, (0.3, 0, 0.4), (0.2, -0.1, 0), spin1="down"),
        MassiveSpec(1.5, 1.2, (-0.5, 0.1, 0.2), (0.0, 0.7, -0.4), esign0=-1)])
], ids=FAMILY_IDS + ["built_ud+-", "built_uu-+"])
def test_difference_oracle_vanishes_on_built_fields(label, field):
    # every set builder, the running phase and packets solve the field
    # equation in plain quaternion arithmetic
    assert difference_residual(field, POINTS) <= 1e-8


# --- inner products -----------------------------------------------------------------

def test_inner_product_positive():
    grid = periodic_box()
    kvec = commensurate((1, 0, 1))
    sol = build_massive_solution(MassiveSpec(1.0, 0.8, kvec, kvec))
    assert inner_product_grid(sol, sol, grid) > 0.0


def test_inner_product_equal_momenta_value():
    grid = periodic_box()
    kvec = commensurate((1, 0, 1))
    m, t0 = 1.0, 0.8
    sol = build_massive_solution(MassiveSpec(m, t0, kvec, kvec))
    e = mass_shell_energy(kvec, m) / m
    want = (math.cos(t0) ** 2 * e + math.sin(t0) ** 2 * e) * BOX**3
    assert inner_product_grid(sol, sol, grid) == pytest.approx(want, rel=1e-10)


def test_inner_product_distinct_commensurate_momenta_vanish():
    grid = periodic_box()
    a = build_massive_solution(MassiveSpec(1.0, 0.8, commensurate((1, 0, 1)), commensurate((1, 0, 1))))
    b = build_massive_solution(MassiveSpec(1.0, 0.8, commensurate((2, 1, 0)), commensurate((2, 1, 0))))
    scale = inner_product_grid(a, a, grid)
    assert abs(inner_product_grid(a, b, grid)) <= 1e-10 * scale


# --- gram ---------------------------------------------------------------------------

def eight_state_set(theta0: float, mass: float = 1.0):
    """Spin pairs at distinct commensurate momenta of equal magnitude,
    equal momenta between the two components of each solution; this is
    the configuration realizing the full orthogonality pattern."""
    directions = (commensurate((1, 0, 0)), commensurate((0, 1, 0)),
                  commensurate((0, 0, 1)), commensurate((-1, 0, 0)))
    sols = []
    for (s0, s1), kv in zip(SPIN_PAIRS, directions):
        for esign0 in (1, -1):
            sols.append(build_massive_solution(MassiveSpec(
                mass, theta0, kv, kv, spin0=s0, spin1=s1, esign0=esign0)))
    return sols


@pytest.mark.parametrize("theta0", [0.0, math.pi / 8, math.pi / 4, math.pi / 2])
def test_gram_orthogonality(theta0):
    grid = periodic_box()
    sols = eight_state_set(theta0)
    rep = gram_matrix(sols, grid)
    diag_scale = rep.diagonal.max()
    assert rep.max_offdiag <= 1e-10 * diag_scale
    e = mass_shell_energy(commensurate((1, 0, 0)), 1.0)
    assert np.abs(rep.diagonal - e * BOX**3).max() <= 1e-10 * e * BOX**3


def test_gram_symmetric_and_matches_inner_product():
    grid = periodic_box(cells=8)
    sols = eight_state_set(0.6)[:3]
    rep = gram_matrix(sols, grid)
    assert np.abs(rep.matrix - rep.matrix.T).max() <= 1e-13
    for i in range(3):
        for j in range(3):
            direct = inner_product_grid(sols[i], sols[j], grid)
            assert rep.matrix[i, j] == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_gram_shared_momentum_overlap_formula():
    # with every state at the same momentum the plain product does not
    # vanish between states sharing one spin label: the overlap equals
    # cos^2(theta0) E V (shared complex half) or sin^2 E V (shared j half)
    grid = periodic_box(cells=8)
    t0 = 0.7
    kvec = commensurate((1, 0, 0))
    m = 1.0
    mk = lambda s0, s1: build_massive_solution(
        MassiveSpec(m, t0, kvec, kvec, spin0=s0, spin1=s1, esign0=1))
    e = mass_shell_energy(kvec, m) / m
    vol = BOX**3
    uu, ud, du = mk("up", "up"), mk("up", "down"), mk("down", "up")
    assert inner_product_grid(uu, ud, grid) == pytest.approx(
        math.cos(t0) ** 2 * e * vol, rel=1e-10)
    assert inner_product_grid(uu, du, grid) == pytest.approx(
        math.sin(t0) ** 2 * e * vol, rel=1e-10)
    assert abs(inner_product_grid(ud, du, grid)) <= 1e-10 * e * vol


def test_gram_opposite_branches_orthogonal_at_shared_momentum():
    grid = periodic_box(cells=8)
    kvec = commensurate((1, 0, 0))
    a = build_massive_solution(MassiveSpec(1.0, 0.7, kvec, kvec, esign0=1))
    b = build_massive_solution(MassiveSpec(1.0, 0.7, kvec, kvec, esign0=-1))
    scale = inner_product_grid(a, a, grid)
    assert abs(inner_product_grid(a, b, grid)) <= 1e-12 * scale


def _gram_cases():
    theta = FourVector(1.0, 0.0, 0.0, 1.0)
    running = [_theta_solution(), build_massless_theta_solution(
        MasslessThetaSpec(theta=theta, kappa0=2.0, kappa1=1.0, theta0=0.3))]
    rng = np.random.default_rng(23)
    packets = [build_wave_packet(WavePacketSpec(c, 1.2, _random_samples(rng, 3))) for c in (0, 1)]
    packets.append(make_wave_packet(0.8, 0.5, _random_samples(rng, 3), _random_samples(rng, 2)))
    families = [f for _, f in FAMILIES]
    return {
        "eight_state": (eight_state_set(math.pi / 8), periodic_box()),
        "massless_theta0": (enumerate_massless_theta0_set(
            commensurate((1, 0, 1)), commensurate((0, -1, 1)), 0.6), periodic_box()),
        # two terms per half, kappa1 < 0 in the first
        "running_phase": (running, periodic_box()),
        # 1-component packets have an empty half
        "packets": (packets, periodic_box(cells=8)),
        "non_periodic": (families, SpacetimeGrid(
            FourVector(0.0, 0.2, -0.1, 0.4), (0.1, 0.35, 0.3, 0.25), (1, 7, 6, 5))),
        # nt > 1 and a nonzero t origin: only the first slice counts
        "time_slices": (families, PAIR_GRID),
    }


GRAM_CASES = _gram_cases()


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_pair_gram_matches_sampled_oracle(case):
    fields, grid = GRAM_CASES[case]
    want = sampled_gram(fields, grid)
    scale = float(np.abs(np.diag(want)).max())
    rep = gram_matrix(fields, grid)
    assert np.array_equal(rep.matrix, rep.matrix.T)
    assert np.abs(rep.matrix - want).max() <= 1e-14 * scale
    for i in range(len(fields)):
        for j in range(i, len(fields)):
            got = inner_product_grid(fields[i], fields[j], grid)
            assert abs(got - want[i, j]) <= 1e-14 * scale


def test_gram_memory_does_not_grow_with_box_volume():
    # sampling the eight fields on this box would take about 17 GB; the
    # pair form holds a few (256, 8) phase blocks
    sols = eight_state_set(math.pi / 8)
    grid = periodic_box(cells=256)
    tracemalloc.start()
    try:
        rep = gram_matrix(sols, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    e = mass_shell_energy(commensurate((1, 0, 0)), 1.0)
    assert rep.max_offdiag <= 1e-10 * e * BOX**3
    assert np.abs(rep.diagonal - e * BOX**3).max() <= 1e-10 * e * BOX**3


# --- adjoint norms --------------------------------------------------------------------

@pytest.mark.parametrize("theta0", [0.0, math.pi / 8, math.pi / 4, math.pi / 2])
def test_adjoint_norm_branch_pattern(theta0):
    kvec = (0.4, -0.1, 0.8)
    plus = build_massive_solution(MassiveSpec(1.0, theta0, kvec, kvec, esign0=1))
    minus = build_massive_solution(MassiveSpec(1.0, theta0, kvec, kvec, esign0=-1))
    want = math.cos(2 * theta0)
    assert adjoint_norm(plus) == pytest.approx(want, abs=1e-12)
    assert adjoint_norm(minus) == pytest.approx(-want, abs=1e-12)


def test_adjoint_norm_point_independent():
    sol = build_massive_solution(MassiveSpec(1.0, 0.9, (0.3, 0.2, -0.4), (0.1, 0, 0.5)))
    values = [adjoint_norm(sol, FourVector(*pt)) for pt in POINTS]
    assert max(values) - min(values) <= 1e-12


def test_adjoint_norm_massless_zero():
    from qdirac import enumerate_massless_theta0_set

    for s in enumerate_massless_theta0_set((0, 0, 1.0), (0, 0, 1.0), 0.3):
        assert adjoint_norm(s) == pytest.approx(0.0, abs=1e-13)


def quaternion_adjoint_norm(sol, x: FourVector) -> float:
    """Re sum_a conj(Psi_a) beta_aa Psi_a at x in quaternion arithmetic,
    after the rescaling `adjoint_norm` states: u^dag u = |k.t| / m per
    component, or unit norm when massless."""
    def rescaled(u, k):
        target = abs(k.t) / sol.mass if sol.mass > 0 else 1.0
        return u * math.sqrt(target / np.vdot(u, u).real)

    field = dataclasses.replace(sol, u0=rescaled(sol.u0, sol.k0), u1=rescaled(sol.u1, sol.k1))
    qs = field.evaluate(x).quaternions
    return adjoint_pairing(qs, qs).w


@pytest.mark.parametrize("theta0", [0.0, math.pi / 8, math.pi / 4, math.pi / 2])
def test_adjoint_norm_matches_quaternion_oracle(theta0):
    x = FourVector(0.7, -0.4, 1.1, 0.3)
    for s in eight_state_set(theta0):
        assert adjoint_norm(s, x) == pytest.approx(quaternion_adjoint_norm(s, x), abs=1e-12)
        assert abs(quaternion_adjoint_norm(s, x)) == pytest.approx(abs(math.cos(2 * theta0)), abs=1e-12)
        # a running phase on massive spinors, where the angle at x matters
        running = dataclasses.replace(s, theta=FourVector(0.3, 0.1, -0.2, 0.4))
        assert adjoint_norm(running, x) == pytest.approx(quaternion_adjoint_norm(running, x), abs=1e-12)
        assert adjoint_norm(s, x, theta0=theta0 + 0.3) == pytest.approx(
            quaternion_adjoint_norm(dataclasses.replace(s, theta0=theta0 + 0.3), x), abs=1e-12)
    for s in enumerate_massless_theta0_set((0.4, 0.1, -0.6), (-0.3, 0.5, 0.2), theta0) + [_theta_solution()]:
        assert quaternion_adjoint_norm(s, x) == pytest.approx(0.0, abs=1e-13)
        assert adjoint_norm(s, x) == pytest.approx(0.0, abs=1e-13)


# --- helicity ----------------------------------------------------------------------

def test_helicity_along_z_by_labels():
    sols = enumerate_massive_set(1.0, (0, 0, 1.2), (0, 0, 1.2), 0.4)
    want = {"u": 0.5, "d": -0.5}
    for s in sols:
        rep = helicity_check(s)
        assert rep.residual0 <= 1e-12 and rep.residual1 <= 1e-12
        assert rep.h0 == pytest.approx(want[s.label[0]], abs=1e-12)
        assert rep.h1 == pytest.approx(want[s.label[1]], abs=1e-12)


def test_helicity_off_axis_with_momentum_basis():
    kvec = (0.6, -0.3, 0.9)
    sols = enumerate_massive_set(1.0, kvec, kvec, 0.4, spin_axis="momentum")
    want = {"u": 0.5, "d": -0.5}
    for s in sols:
        rep = helicity_check(s)
        assert rep.residual0 <= 1e-12 and rep.residual1 <= 1e-12
        assert (rep.h0, rep.h1) == (pytest.approx(want[s.label[0]], abs=1e-12),
                                    pytest.approx(want[s.label[1]], abs=1e-12))


def test_helicity_non_eigenvector_reports_nan():
    # z-basis spins with an off-axis momentum are not helicity eigenstates
    kvec = (0.7, 0.0, 0.7)
    sol = build_massive_solution(MassiveSpec(1.0, 0.4, kvec, kvec))
    rep = helicity_check(sol)
    assert math.isnan(rep.h0) and math.isnan(rep.h1)
    assert rep.residual0 > 1e-3 and rep.residual1 > 1e-3


def test_helicity_zero_momentum_rejected():
    sol = build_massive_solution(MassiveSpec(1.0, 0.4, (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        helicity_check(sol)
