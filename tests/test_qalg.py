import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdirac.qalg import I, J, K, ONE, Quaternion, mul, mul_symplectic
from qdirac.spinor import QSpinor4

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
    a0, a1 = complex(p.w, p.x), complex(p.y, p.z)
    b0, b1 = complex(q.w, q.x), complex(q.y, q.z)
    z0 = a0 * b0 - a1 * b1.conjugate()
    z1 = a0 * b1 + a1 * b0.conjugate()
    got = mul_symplectic(p, q)
    for x, y in zip((got.w, got.x, got.y, got.z), (z0.real, z0.imag, z1.real, z1.imag)):
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
    assert Quaternion(1, 1, 1, 1).conjugate() == Quaternion(1, -1, -1, -1)


@given(quaternions)
def test_conjugate_involution(q):
    assert q.conjugate().conjugate() == q


@given(quaternions)
def test_q_times_conjugate_is_norm_squared(q):
    # hand expansion: real slot w^2+x^2+y^2+z^2, imaginary slots cancel
    # pairwise (to rounding, since the sums absorb)
    r = mul(q, q.conjugate())
    tol = 1e-14 * max(q.norm_sq(), 1e-300)
    assert abs(r.x) <= tol and abs(r.y) <= tol and abs(r.z) <= tol
    assert abs(r.w - q.norm_sq()) <= tol


# --- right multiplication by i -------------------------------------------

def test_right_mul_i_examples():
    assert mul(J, I) == -K
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert mul(mul(q, I), I) == -q


@given(quaternions)
def test_right_mul_i_matches_general_product(q):
    # the closed form (w, x, y, z) i = (-x, w, z, -y), from both routes
    want = Quaternion(-q.x, q.w, q.z, -q.y)
    assert mul(q, I) == want
    assert mul_symplectic(q, I) == want


@given(quaternions)
def test_right_mul_i_symplectic_pair(q):
    # (z0, z1) -> (i z0, -i z1): the sign flip on the j half is what
    # tells right from left multiplication by i
    z0, z1 = complex(q.w, q.x), complex(q.y, q.z)
    r = mul(q, I)
    assert complex(r.w, r.x) == 1j * z0
    assert complex(r.y, r.z) == -1j * z1


# --- real inner product ---------------------------------------------------
# the pointwise real inner product is the scalar part of p q*

def inner(p: Quaternion, q: Quaternion) -> float:
    return mul(p, q.conjugate()).w


def test_inner_unit_table_orthonormal():
    names = list(UNITS)
    for a in names:
        for b in names:
            want = 1.0 if a == b else 0.0
            assert inner(UNITS[a], UNITS[b]) == want


@given(quaternions, quaternions)
def test_inner_symmetry(p, q):
    assert inner(p, q) == inner(q, p)


@given(quaternions)
def test_inner_positive_definite(q):
    v = inner(q, q)
    assert v == q.norm_sq()
    assert v >= 0.0
    if not q.is_zero():
        assert v > 0.0


def test_inner_of_one_and_i_is_zero():
    assert inner(ONE, I) == 0.0


# --- symplectic storage ---------------------------------------------------

@given(quaternions)
def test_symplectic_round_trip_bit_exact(q):
    r = QSpinor4.from_quaternions((q, ONE, I, J)).quaternions[0]
    for a, b in zip((q.w, q.x, q.y, q.z), (r.w, r.x, r.y, r.z)):
        assert bit_equal(a, b)


def test_symplectic_split_components():
    s = QSpinor4.from_quaternions((Quaternion(1.0, 2.0, 3.0, 4.0), ONE, J, K))
    assert (s.psi0[0], s.psi1[0]) == (1.0 + 2.0j, 3.0 + 4.0j)
    assert (s.psi0[1:].tolist(), s.psi1[1:].tolist()) == ([1, 0, 0], [0, 1, 1j])


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
