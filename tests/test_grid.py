import tracemalloc

import numpy as np
import pytest

from qdirac import (FourVector, MassiveSpec, SampledField, SpacetimeGrid,
                    build_massive_solution, central_diff, integrate_spatial, sample)
import qdirac.grid
from qdirac.grid import _MAX_PAIRS, _SLAB_BYTES, _interleaved, _real_slabs
from qdirac.solutions import _PlaneWaveSum
from helpers import lattice_sum


class ConstantField:
    def __init__(self, value: complex = 1.0):
        self.value = complex(value)

    def evaluate_grid(self, grid: SpacetimeGrid) -> SampledField:
        shape = grid.counts + (4,)
        return SampledField(grid, np.full(shape, self.value), np.zeros(shape, dtype=complex))


def plane_wave(kvec=(0.4, -0.3, 1.1)):
    return build_massive_solution(MassiveSpec(mass=1.0, theta0=0.6, kvec0=kvec, kvec1=kvec))


def small_grid(**kw):
    defaults = dict(
        origin=FourVector(0, 0, 0, 0),
        spacing=(0.5, 0.25, 0.25, 0.25),
        counts=(2, 4, 4, 4),
        periodic=(False, False, False, False),
    )
    defaults.update(kw)
    return SpacetimeGrid(**defaults)


# --- grid construction -----------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        small_grid(spacing=(0.5, 0.0, 0.25, 0.25))
    with pytest.raises(ValueError):
        small_grid(counts=(0, 4, 4, 4))
    with pytest.raises(ValueError):
        small_grid(counts=(2, 4, 4))
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="spacing"):
        small_grid(spacing=(nan, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError, match="spacing"):
        small_grid(spacing=(0.5, inf, 0.25, 0.25))
    with pytest.raises(ValueError, match="origin"):
        small_grid(origin=FourVector(0, inf, 0, 0))
    with pytest.raises(ValueError, match="origin"):
        small_grid(origin=FourVector(nan, 0, 0, 0))
    for bad in (2.7, "4", True):
        with pytest.raises(ValueError, match="counts"):
            small_grid(counts=(2, 4, 4, bad))
    with pytest.raises(ValueError, match="periodic"):
        small_grid(periodic=(False, "false", False, False))
    with pytest.raises(ValueError, match="extent"):
        small_grid(spacing=(0.5, 1e308, 0.25, 0.25))


def test_grid_dict_has_plain_floats():
    d = small_grid(origin=FourVector(0.5, 0, 0, 0)).to_dict()
    assert all(type(v) is float for v in d["origin"] + d["spacing"])


def test_grid_dict_round_trip():
    g = small_grid(periodic=(False, True, False, True))
    assert SpacetimeGrid.from_dict(g.to_dict()) == g


def test_grid_dict_without_periodic_reads_all_false():
    g = SpacetimeGrid.from_dict({"spacing": [0.5, 0.25, 0.25, 0.25], "counts": [2, 4, 4, 4]})
    assert g.periodic == (False, False, False, False)


def test_refined_periodic_keeps_extent():
    g = small_grid(periodic=(False, True, True, True))
    r = g.refined()
    assert r.counts == (2, 8, 8, 8)
    assert r.spacing == (0.25, 0.125, 0.125, 0.125)
    # non-periodic t window shrinks about its center
    center = g.origin.t + 0.5 * (g.counts[0] - 1) * g.spacing[0]
    assert r.origin.t + 0.5 * (r.counts[0] - 1) * r.spacing[0] == pytest.approx(center)


def test_refined_keeps_a_one_point_axis_periodic_or_not():
    g = SpacetimeGrid(FourVector(0.5, -0.25, 0.0, 1.0), (0.5, 0.25, 0.25, 0.125), (3, 1, 1, 8),
                      (False, True, False, True))
    r = g.refined().refined()
    assert r.counts == (3, 1, 1, 32)
    assert r.spacing == (0.125, 0.0625, 0.0625, 0.03125)
    assert (r.origin.x, r.origin.y, r.origin.z) == (-0.25, 0.0, 1.0)
    assert r.periodic == g.periodic



@pytest.mark.parametrize("grid", [
    small_grid(origin=FourVector(-0.3, 0.2, 0.1, -0.4), periodic=(False, True, False, True)),
    SpacetimeGrid(FourVector(1e300, -2.5, 0.0, 3.0), (1e-300, 0.7, 2.0, 0.3), (3, 1, 5, 7),
                  (True, True, False, False)),
], ids=["small", "wide"])
def test_refined_grid_equals_the_validated_grid(grid):
    for _ in range(3):
        grid = grid.refined()
        checked = SpacetimeGrid(grid.origin, grid.spacing, grid.counts, grid.periodic)
        assert grid == checked
        for name in ("spacing", "counts", "periodic"):
            got, want = getattr(grid, name), getattr(checked, name)
            assert type(got) is tuple and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("spacing, counts, message", [
    # a subnormal spacing halves to 0
    ((0.5, 5e-324, 0.25, 0.25), (2, 4, 4, 4), "spacings must be finite and positive"),
    # a doubled periodic count pushes the extent past the float range
    ((0.5, 8.5e307, 0.25, 0.25), (2, 3, 4, 4), "extent overflows"),
    # a doubled periodic count passes the float range itself: 2 * 2^1023
    ((0.5, 1e-300, 0.25, 0.25), (2, 2**1023, 4, 4), "extent overflows"),
])
def test_refined_grid_keeps_the_range_checks(spacing, counts, message):
    grid = small_grid(spacing=spacing, counts=counts, periodic=(False, True, False, False))
    with pytest.raises(ValueError, match=message):
        grid.refined()

# --- sampling ----------------------------------------------------------------

def test_sample_constant_field():
    g = small_grid()
    s = sample(ConstantField(2.0 - 1.0j), g)
    assert np.all(s.psi0 == 2.0 - 1.0j)
    assert np.all(s.psi1 == 0.0)


def test_sample_periodic_wrap_equality():
    # wave period equals the first-to-last extent, so the end samples match
    n = 9
    length = 2.0
    g = small_grid(spacing=(0.5, 1.0, 1.0, length / (n - 1)), counts=(1, 1, 1, n))
    s = sample(plane_wave((0.0, 0.0, 2 * np.pi / length)), g)
    assert np.allclose(s.psi0[0, 0, 0, 0], s.psi0[0, 0, 0, n - 1], atol=1e-13)
    assert np.allclose(s.psi1[0, 0, 0, 0], s.psi1[0, 0, 0, n - 1], atol=1e-13)


def test_sample_spot_check_against_evaluate():
    # the grid routine and the pointwise one multiply the phases in a
    # different order, so they agree to rounding, not bit for bit
    g = small_grid()
    f = plane_wave()
    s = sample(f, g)
    rng = np.random.default_rng(2)
    for _ in range(5):
        idx = tuple(rng.integers(0, c) for c in g.counts)
        direct = f.evaluate(g.point(*idx))
        assert np.allclose(s.psi0[idx], direct.psi0, rtol=0, atol=1e-13)
        assert np.allclose(s.psi1[idx], direct.psi1, rtol=0, atol=1e-13)


def test_sample_deterministic_layout():
    g = small_grid()
    f = plane_wave()
    a = sample(f, g)
    b = sample(f, g)
    assert np.array_equal(a.psi0, b.psi0)
    assert np.array_equal(a.psi1, b.psi1)


# --- plane-wave sums -----------------------------------------------------------

def _pair_terms(p, columns=2):
    rng = np.random.default_rng(8)
    return rng.uniform(-2.0, 2.0, (p, 4)), rng.normal(size=(p, columns)) + 1j * rng.normal(size=(p, columns))


def _slab_sums(axes, k, coef):
    """The slabs of `_real_slabs`, copied and put back together in the
    layout of `lattice_sum`: counts + (C,)."""
    lines = []
    for block in _real_slabs(axes, k, coef):
        lines.extend(block.copy())
    counts = tuple(len(a) for a in axes)
    return np.moveaxis(np.array(lines).reshape(counts[:3] + (coef.shape[1], counts[3])), 3, -1)


# (counts, pairs, coefficient columns, slab bytes or None for the default)
SLAB_CASES = {
    "random": ((2, 3, 4, 5), 7, 1, None),
    "source_column": ((2, 3, 4, 5), 7, 2, None),
    "no_pairs": ((2, 3, 4, 5), 0, 2, None),
    "one_point_axes": ((1, 4, 1, 1), 7, 2, None),
    "one_point_tz": ((1, 3, 4, 1), 7, 1, 1),
    # three-line slabs that do not divide the five x lines of a t slab
    "straddling_slabs": ((3, 5, 4, 5), 7, 2, 3000),
    "full_pair_block": ((2, 3, 4, 5), _MAX_PAIRS, 2, None),
    "pair_blocks": ((2, 3, 4, 5), 2500, 2, None),
    "pair_blocks_one_line_slabs": ((2, 3, 4, 5), 1001, 2, 1),
}


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_real_slabs_equal_the_plane_wave_sum(monkeypatch, case):
    counts, p, columns, slab_bytes = SLAB_CASES[case]
    if slab_bytes is not None:
        monkeypatch.setattr(qdirac.grid, "_SLAB_BYTES", slab_bytes)
    grid = small_grid(origin=FourVector(-0.3, 0.2, 0.1, -0.4), counts=counts)
    k, coef = _pair_terms(p, columns)
    got = _slab_sums(grid.axes(), k, coef)
    want = lattice_sum(grid.axes(), k, coef).real
    assert got.shape == want.shape
    # each side rounds a sum of unit phases times its coefficients
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(coef).sum()
    if p == 0:
        assert not got.any()


def test_interleaved_rows_take_one_output():
    rng = np.random.default_rng(10)
    c = rng.normal(size=(1000, 256)) + 1j * rng.normal(size=(1000, 256))
    tracemalloc.start()
    try:
        rows = _interleaved(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows[0::2], c.real) and np.array_equal(rows[1::2], -c.imag)
    # the (2P, W) float output is 3.9 MiB; a conjugated copy of c would double it
    assert peak < 1.1 * rows.nbytes


class _Halves:
    """A field whose two halves are given as (lowered momenta, c*u) pairs,
    sampled by the grid routine every field in the library shares."""

    _sample_grid = _PlaneWaveSum._sample_grid

    def __init__(self, *halves):
        self.halves = halves

    def stacked_terms(self):
        return self.halves


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_sampled_halves_equal_the_lattice_sum(monkeypatch, case):
    counts, p, _, slab_bytes = SLAB_CASES[case]
    if slab_bytes is not None:
        monkeypatch.setattr(qdirac.grid, "_SLAB_BYTES", slab_bytes)
    grid = small_grid(origin=FourVector(-0.3, 0.2, 0.1, -0.4), counts=counts)
    halves = (_pair_terms(p, 4), _pair_terms(p // 3, 4))
    got = _Halves(*halves)._sample_grid(grid)
    for psi, (k, coef) in zip((got.psi0, got.psi1), halves):
        want = lattice_sum(grid.axes(), k, coef)
        assert psi.shape == want.shape
        # Re and Im each round a sum of unit phases times the coefficients
        gap = (psi - want).view(float)
        assert np.abs(gap).max() <= 4 * np.finfo(float).eps * np.abs(coef).sum()
        if len(k) == 0:
            assert not psi.any()


def test_sampling_memory_is_bounded_by_the_output_one_slab_and_the_axes():
    counts = (1, 24, 24, 8)
    grid = small_grid(counts=counts)
    k, coef = _pair_terms(2500, columns=4)
    none = (np.empty((0, 4)), np.empty((0, 4), dtype=complex))
    tracemalloc.start()
    try:
        _Halves((k, coef), none)._sample_grid(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # both complex halves; the slab budget (or one y line of a pair
    # block); per pair, the axis phases and the z phases times the
    # (Re, Im) coefficient columns, complex and interleaved.  One
    # (t x y points, pairs) complex phase block would take 23 MB.
    output = 2 * np.prod(counts) * 4 * 16
    slab = max(_SLAB_BYTES, counts[2] * (_MAX_PAIRS * 16 + 8 * 8 * counts[3]))
    axes = len(k) * (sum(counts[:3]) + 8 * counts[3]) * 16
    assert peak < output + slab + 2 * axes


def test_real_slab_memory_is_bounded_by_the_axes_and_one_slab():
    # 256 (t, x) lines of 32 y rows, 2500 pairs in three blocks
    grid = small_grid(counts=(16, 16, 32, 4))
    k, coef = _pair_terms(2500, columns=1)
    tracemalloc.start()
    try:
        for _ in _real_slabs(grid.axes(), k, coef):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the axis phases of all pairs take 2.7 MB and a slab of one line
    # 0.5 MB; one (t x y points, pairs) phase block would take 131 MB
    axis_phases = (16 + 16 + 32 + 4) * 2500 * 16
    line = 32 * (_MAX_PAIRS * 16 + 8 * 4)
    assert peak < 2 * axis_phases + 2 * line


# --- central differences ------------------------------------------------------

def test_central_diff_linear_ramp_exact():
    x = np.linspace(0.0, 3.0, 7)
    vals = 2.5 * x
    d = central_diff(vals, axis=0, spacing=x[1] - x[0])
    assert np.allclose(d[1:-1], 2.5, atol=0, rtol=0)
    assert np.isnan(d[0]) and np.isnan(d[-1])


def test_central_diff_sin_taylor_bound():
    k = 3.0
    h = 0.01
    x = np.arange(0, 200) * h
    d = central_diff(np.sin(k * x), axis=0, spacing=h)
    err = np.abs(d[1:-1] - k * np.cos(k * x[1:-1]))
    assert err.max() <= (k * h) ** 2 / 6.0 * k * 1.000001


def test_central_diff_second_order_refinement():
    k = 2.0

    def max_err(h):
        x = np.arange(0, int(4.0 / h)) * h
        d = central_diff(np.sin(k * x), axis=0, spacing=h)
        return np.abs(d[1:-1] - k * np.cos(k * x[1:-1])).max()

    ratio = max_err(0.02) / max_err(0.01)
    assert 3.5 <= ratio <= 4.5


def test_central_diff_periodic_wrap():
    n = 32
    length = 2 * np.pi
    h = length / n
    x = np.arange(n) * h
    d = central_diff(np.sin(x), axis=0, spacing=h, periodic=True)
    assert np.all(np.isfinite(d))
    assert np.abs(d - np.cos(x)).max() <= h**2 / 6 * 1.01


def test_central_diff_too_few_points():
    with pytest.raises(ValueError):
        central_diff(np.zeros(2), axis=0, spacing=0.1)


# --- quadrature -----------------------------------------------------------------

def test_integrate_constant_box():
    g = small_grid(counts=(1, 4, 5, 6), spacing=(1.0, 0.5, 0.5, 0.5))
    vals = np.ones(g.counts[1:])
    vol = 4 * 5 * 6 * 0.5**3
    assert integrate_spatial(vals, g) == pytest.approx(vol, rel=0, abs=0)


def test_integrate_commensurate_wave_vanishes():
    n = 16
    length = 3.0
    g = small_grid(counts=(1, n, 1, 1), spacing=(1.0, length / n, 1.0, 1.0),
                   periodic=(False, True, False, False))
    x = g.axis(1)
    for harmonic in (1, 2, 5):
        vals = np.exp(2j * np.pi * harmonic * x / length)[:, None, None]
        assert abs(integrate_spatial(vals, g)) <= 1e-13 * length


def test_integrate_richardson_reference():
    # smooth integrand: coarse sums stay within an O(h^2) envelope of a
    # high-resolution reference (periodic sums often do much better)
    def value(n):
        length = 1.0
        g = small_grid(counts=(1, n, 1, 1), spacing=(1.0, length / n, 1.0, 1.0),
                       periodic=(False, True, False, False))
        x = g.axis(1)
        vals = np.exp(np.sin(2 * np.pi * x))[:, None, None]
        return integrate_spatial(vals, g)

    ref = value(4096)
    for n in (16, 32, 64):
        h = 1.0 / n
        assert abs(value(n) - ref) <= 10.0 * h**2 * abs(ref)


def test_integrate_linearity():
    g = small_grid(counts=(1, 8, 8, 8), spacing=(1.0, 0.3, 0.3, 0.3))
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.counts[1:])
    h = rng.normal(size=g.counts[1:])
    a, b = 1.7, -0.4
    lhs = integrate_spatial(a * f + b * h, g)
    rhs = a * integrate_spatial(f, g) + b * integrate_spatial(h, g)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_integrate_shape_mismatch():
    g = small_grid()
    with pytest.raises(ValueError):
        integrate_spatial(np.ones((2, 2, 2)), g)
