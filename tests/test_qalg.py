import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdirac.qalg import (
    ComplexPair,
    I,
    J,
    K,
    ONE,
    Quaternion,
    conjugate,
    from_symplectic,
    is_parallel,
    mul,
    mul_symplectic,
    real_inner_pointwise,
    right_mul_i,
    symplectic_split,
)

UNITS = {"1": ONE, "i": I, "j": J, "k": K}

# zeros plus magnitudes well inside the normal range, so property checks
# probe algebra rather than underflow
finite = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1e-6),
)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def bit_equal(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# --- product table -------------------------------------------------------

def test_unit_product_table():
    # e_a e_b = eps_abc e_c - delta_ab, enumerated
    expected = {
        ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
        ("i", "j"): K, ("j", "i"): -K,
        ("j", "k"): I, ("k", "j"): -I,
        ("k", "i"): J, ("i", "k"): -J,
    }
    for (a, b), want in expected.items():
        assert mul(UNITS[a], UNITS[b]) == want, (a, b)
    for name, unit in UNITS.items():
        assert mul(ONE, unit) == unit
        assert mul(unit, ONE) == unit


@given(quaternions)
def test_identity_element(q):
    assert mul(ONE, q) == q
    assert mul(q, ONE) == q


def test_mul_routes_agree():
    rng = np.random.default_rng(11)
    for row in rng.uniform(-3.0, 3.0, size=(10_000, 8)):
        p = Quaternion(*row[:4])
        q = Quaternion(*row[4:])
        a = mul(p, q)
        b = mul_symplectic(p, q)
        scale = max(a.norm(), 1e-300)
        assert (a - b).norm() <= 1e-15 * scale


@given(quaternions, quaternions)
def test_symplectic_route_rounds_as_complex_arithmetic(p, q):
    a, b = symplectic_split(p), symplectic_split(q)
    want = from_symplectic(ComplexPair(a.z0 * b.z0 - a.z1 * b.z1.conjugate(),
                                       a.z0 * b.z1 + a.z1 * b.z0.conjugate()))
    got = mul_symplectic(p, q)
    for x, y in zip((got.w, got.x, got.y, got.z), (want.w, want.x, want.y, want.z)):
        assert bit_equal(x, y)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("product", [mul, mul_symplectic])
def test_array_products_match_quaternion_products_exactly(product, seed):
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-3.0, 3.0, size=(2, 4, 300))
    # signed zeros, so the sign of every zero result is compared too
    p[rng.uniform(size=p.shape) < 0.1] = 0.0
    q[rng.uniform(size=q.shape) < 0.1] = -0.0
    out = product(p, q)
    assert out.shape == (4, 300)
    for col in range(300):
        want = product(Quaternion(*p[:, col]), Quaternion(*q[:, col]))
        for x, y in zip(out[:, col], (want.w, want.x, want.y, want.z)):
            assert bit_equal(float(x), y), (col, x, y)


def test_array_products_reject_other_shapes():
    for product in (mul, mul_symplectic):
        with pytest.raises(ValueError, match="4, N"):
            product(np.zeros((3, 5)), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="4, N"):
            product(1.0, ONE)


# --- conjugation ---------------------------------------------------------

def test_conjugate_definition():
    assert conjugate(Quaternion(1, 1, 1, 1)) == Quaternion(1, -1, -1, -1)


@given(quaternions)
def test_conjugate_involution(q):
    assert conjugate(conjugate(q)) == q


@given(quaternions)
def test_q_times_conjugate_is_norm_squared(q):
    # hand expansion: real slot w^2+x^2+y^2+z^2, imaginary slots cancel
    # pairwise (to rounding, since the sums absorb)
    r = mul(q, conjugate(q))
    tol = 1e-14 * max(q.norm_sq(), 1e-300)
    assert abs(r.x) <= tol and abs(r.y) <= tol and abs(r.z) <= tol
    assert abs(r.w - q.norm_sq()) <= tol


# --- right multiplication by i -------------------------------------------

def test_right_mul_i_examples():
    assert right_mul_i(J) == -K
    assert right_mul_i(right_mul_i(Quaternion(0.3, -1.2, 0.7, 2.0))) == -Quaternion(0.3, -1.2, 0.7, 2.0)


@given(quaternions)
def test_right_mul_i_matches_general_product(q):
    assert right_mul_i(q) == mul(q, I)


@given(quaternions)
def test_right_mul_i_symplectic_pair(q):
    # (z0, z1) -> (i z0, -i z1), expanded via the product table
    pair = symplectic_split(q)
    r = symplectic_split(right_mul_i(q))
    assert r.z0 == 1j * pair.z0
    assert r.z1 == -1j * pair.z1


# --- real inner product ---------------------------------------------------

def test_inner_unit_table_orthonormal():
    names = list(UNITS)
    for a in names:
        for b in names:
            want = 1.0 if a == b else 0.0
            assert real_inner_pointwise(UNITS[a], UNITS[b]) == want


@given(quaternions, quaternions)
def test_inner_symmetry(p, q):
    assert real_inner_pointwise(p, q) == real_inner_pointwise(q, p)


@given(quaternions)
def test_inner_positive_definite(q):
    v = real_inner_pointwise(q, q)
    assert v == q.norm_sq()
    assert v >= 0.0
    if not q.is_zero():
        assert v > 0.0


def test_inner_of_one_and_i_is_zero():
    assert real_inner_pointwise(ONE, I) == 0.0


# --- parallelism ----------------------------------------------------------

def test_parallel_scalar_multiple():
    q = Quaternion(0.2, -1.0, 0.5, 0.3)
    assert is_parallel(q, 3.0 * q, 1e-12)


def test_not_parallel_distinct_units():
    assert not is_parallel(ONE, J, 1e-9)


def test_zero_parallel_to_everything():
    assert is_parallel(Quaternion(), Quaternion(1, 2, 3, 4), 0.0)


def test_parallel_negative_tol_rejected():
    with pytest.raises(ValueError):
        is_parallel(ONE, ONE, -1.0)


def test_parallel_common_unit_direction():
    rng = np.random.default_rng(5)
    for _ in range(200):
        raw = Quaternion(*rng.uniform(-1, 1, size=4))
        lam = raw * (1.0 / raw.norm())
        a, b = rng.uniform(-5, 5, size=2)
        assert is_parallel(a * lam, b * lam, 1e-12)


# --- symplectic split -----------------------------------------------------

@given(quaternions)
def test_symplectic_round_trip_bit_exact(q):
    r = from_symplectic(symplectic_split(q))
    for a, b in zip((q.w, q.x, q.y, q.z), (r.w, r.x, r.y, r.z)):
        assert bit_equal(a, b)


def test_symplectic_split_components():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    pair = symplectic_split(q)
    assert pair == ComplexPair(1.0 + 2.0j, 3.0 + 4.0j)


# --- invariants -----------------------------------------------------------

@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    lhs = mul(p, q).norm()
    rhs = p.norm() * q.norm()
    assert abs(lhs - rhs) <= 1e-14 * max(rhs, 1.0)


@given(quaternions, quaternions, quaternions)
def test_associativity(p, q, r):
    lhs = mul(mul(p, q), r)
    rhs = mul(p, mul(q, r))
    scale = max(lhs.norm(), rhs.norm(), 1.0)
    assert (lhs - rhs).norm() <= 1e-13 * scale


def test_noncommutativity_witness():
    assert mul(I, J) == -mul(J, I)


# --- constructor validation ----------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        Quaternion(bad, 0, 0, 0)
    with pytest.raises(ValueError):
        ComplexPair(complex(bad, 0), 0j)
