from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_lab.reflection import (
    SingularPointError,
    build_root_system,
    generate_group,
    near_hyperplane,
    reflect,
    reflection_matrix,
    rho,
    weight,
)


def test_root_normalization(rs_a2, rs_b2, rs_z23):
    for rs in (rs_a2, rs_b2, rs_z23):
        for root in rs.positive_roots:
            a = root.vector
            assert np.dot(a, a) == pytest.approx(2.0, abs=1e-14)


def test_group_orders():
    expected = {
        ("A", 2): 6,
        ("A", 3): 24,
        ("B", 2): 8,
        ("Z2", 3): 8,
        ("I2", 4): 8,
    }
    for (family, rank), order in expected.items():
        rs = build_root_system(family, rank, 1)
        assert len(generate_group(rs)) == order


def test_reflection_jacobian_is_minus_one():
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("Z2", 3), ("I2", 4)):
        rs = build_root_system(family, rank, 1)
        for root in rs.positive_roots:
            assert np.linalg.det(
                reflection_matrix(root, exact=False)
            ) == pytest.approx(-1.0, abs=1e-12)


def test_reflection_involution_and_isometry(rs_b2, rng):
    X = rng.normal(size=(40, 2))
    for root in rs_b2.positive_roots:
        Y = reflect(root, X)
        assert np.allclose(reflect(root, Y), X, atol=1e-12)
        assert np.allclose(
            np.linalg.norm(Y, axis=1), np.linalg.norm(X, axis=1), atol=1e-12
        )


def test_z2_reflections_are_exact_sign_flips(rs_z23, rng):
    from dunkl_lab.corpus import shifted_gaussian
    from dunkl_lab.dunklnum import dunkl_gradient

    # sigma_alpha x flips one coordinate exactly, so an even function has
    # zero reflection differences and its Dunkl gradient is its gradient
    X = rng.normal(size=(40, 3))
    u = shifted_gaussian(np.zeros(3), 1.3)
    assert np.array_equal(dunkl_gradient(rs_z23, u, X), u.gradient(X))
    for root in rs_z23.positive_roots:
        assert np.array_equal(reflect(root, reflect(root, X)), X)
        a = root.vector
        assert root.vector is a and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_exact_reflection_matrix_is_rational(rs_a2):
    for root in rs_a2.positive_roots:
        M = reflection_matrix(root, exact=True)
        assert all(isinstance(c, (int, Fraction)) for row in M for c in row)
        arr = np.array([[float(c) for c in row] for row in M])
        assert np.allclose(arr @ arr, np.eye(3), atol=0)


def test_gamma_is_multiplicity_sum(rs_a2, rs_b2):
    assert rs_a2.gamma == 3  # three positive roots, k = 1
    assert rs_b2.gamma == 4


def test_weight_homogeneity(rs_b2, rng):
    X = rng.normal(size=(10, 2))
    g = float(rs_b2.gamma)
    assert np.allclose(
        weight(rs_b2, 3.0 * X), 3.0 ** (2 * g) * weight(rs_b2, X), rtol=1e-12
    )


def test_weight_reflection_invariant(rs_a2, rng):
    X = rng.normal(size=(10, 3))
    for root in rs_a2.positive_roots:
        assert np.allclose(
            weight(rs_a2, reflect(root, X)), weight(rs_a2, X), rtol=1e-12
        )


def test_rho_singular_point_raises(rs_z23):
    with pytest.raises(SingularPointError):
        rho(rs_z23, np.array([[0.0, 1.0, 1.0]]))


def test_rho_shares_the_numeric_hyperplane_cutoff(rs_a2):
    a = rs_a2.positive_roots[0].vector
    base = np.array([0.7, -0.4, 1.3])
    base -= (base @ a) / 2.0 * a
    # <alpha, x> = 0.8e-8 |x|, where dunklnum takes its Taylor limits
    x = base + 0.4e-8 * np.linalg.norm(base) * a
    assert abs(x @ a) == pytest.approx(0.8e-8 * np.linalg.norm(x), rel=1e-6)
    assert near_hyperplane(x @ a, np.linalg.norm(x))
    with pytest.raises(SingularPointError):
        rho(rs_a2, x)
    with pytest.raises(SingularPointError):
        rho(rs_a2, np.zeros(3))
    rho(rs_a2, base + 1e-7 * np.linalg.norm(base) * a)  # off the cut-off


def test_rho_matches_closed_form_z2(rs_z23, rng):
    X = rng.normal(size=(5, 3)) + 2.0
    R = rho(rs_z23, X)
    # for Z2^n with k=1 per axis: rho_i = 2/x_i
    assert np.allclose(R, 2.0 / X, rtol=1e-12)


def test_i2_exactness_flags():
    assert build_root_system("I2", 4, 1).exact
    assert not build_root_system("I2", 3, 1).exact


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_reflect_fixes_hyperplane_points(coords):
    rs = build_root_system("Z2", 3, 1)
    x = np.array(coords)
    x[0] = 0.0  # on the first hyperplane
    root = rs.positive_roots[0]
    assert np.allclose(reflect(root, x), x, atol=1e-12)
