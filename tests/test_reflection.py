import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_lab.reflection import (
    Root,
    SingularPointError,
    build_root_system,
    generate_group,
    near_hyperplane,
    reflect,
    reflection_matrix,
    rho,
    weight,
)

GOLDEN = Path(__file__).parent / "golden" / "root_systems.json"

# (family, rank, multiplicities) for every golden root system: each family
# over a range of ranks with six scalar k, then three per-orbit lists
GOLDEN_CASES = [
    (family, rank, k)
    for family, ranks in (("A", range(1, 7)), ("B", range(2, 7)),
                          ("Z2", range(1, 8)), ("I2", range(1, 41)))
    for rank in ranks
    for k in (1, Fraction(1, 2), 0, 0.5, "1/3", 2)
] + [
    ("B", 3, [Fraction(1, 2), 1]),
    ("Z2", 3, [1, Fraction(1, 3), 2]),
    ("I2", 4, [1, Fraction(1, 2)]),
]


def _golden_key(family, rank, k):
    return f"{family}({rank}) k={k!r}"


def _golden_record(family, rank, k):
    """Every field of the built system as strings, or the exception type
    that building it raises."""
    try:
        rs = build_root_system(family, rank, k)
    except Exception as exc:  # noqa: BLE001 - the type is the record
        return {"raises": type(exc).__name__}
    roots = []
    for root in rs.positive_roots:
        record = {"direction": [str(x) for x in root.direction],
                  "exact": root.exact, "integer_direction": None,
                  "signed_axes": None}
        if root.exact:
            w, s = root.integer_direction
            record["integer_direction"] = [list(w), str(s)]
            axes, plus = root.signed_axes
            record["signed_axes"] = [list(axes), plus]
        roots.append(record)
    return {"family": rs.family, "rank": rs.rank, "dimension": rs.dimension,
            "roots": roots,
            "multiplicities": [str(k) for k in rs.multiplicities],
            "gamma": str(rs.gamma)}


def _golden_records():
    return {_golden_key(*case): _golden_record(*case) for case in GOLDEN_CASES}


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
            assert np.linalg.det(reflection_matrix(root)) == pytest.approx(
                -1.0, abs=1e-12)


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


@pytest.mark.parametrize("direction", [(0, 0), (Fraction(0),) * 3, (0.0, 0.0)],
                         ids=["int", "Fraction", "float"])
def test_zero_root_direction_is_a_value_error(direction):
    # a zero direction is a usage error (exit 2), not the ZeroDivisionError
    # of |v|^2 = 0, which the CLI would report as an arithmetic fault (exit 3)
    with pytest.raises(ValueError, match="is zero"):
        Root(direction, exact=not isinstance(direction[0], float))


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


@pytest.mark.parametrize("family, rank, k", [
    ("I2", 3, float("nan")),
    ("I2", 3, float("inf")),
    ("I2", 3, "inf"),
    ("A", 2, float("inf")),
    ("A", 2, float("nan")),
    ("B", 2, [1, float("inf")]),
    ("Z2", 2, -0.5),
    ("Z2", 2, Fraction(-1, 2)),
], ids=["I2-nan", "I2-inf", "I2-'inf'", "A-inf", "A-nan", "B-[1,inf]",
        "Z2--0.5", "Z2--1/2"])
def test_multiplicities_must_be_finite_and_nonnegative(family, rank, k):
    # a float dihedral system used to accept nan and inf as gamma, and an
    # exact one raised OverflowError on inf
    with pytest.raises(ValueError, match="finite and nonnegative"):
        build_root_system(family, rank, k)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_reflect_fixes_hyperplane_points(coords):
    rs = build_root_system("Z2", 3, 1)
    x = np.array(coords)
    x[0] = 0.0  # on the first hyperplane
    root = rs.positive_roots[0]
    assert np.allclose(reflect(root, x), x, atol=1e-12)


def test_root_systems_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [_golden_key(*case) for case in GOLDEN_CASES]
    for key, record in _golden_records().items():
        assert record == golden[key], key


@pytest.mark.parametrize("m", range(1, 201))
def test_dihedral_roots_are_exact_by_nivens_theorem(m):
    # the root at angle j*pi/m has a rational slope iff the angle is a
    # multiple of pi/4, i.e. iff m divides 4j; any exact direction is
    # parallel to (cos, sin) of that angle
    rs = build_root_system("I2", m, 1)
    for j, root in enumerate(rs.positive_roots):
        assert root.exact == (4 * j % m == 0), (m, j)
        v = np.array([float(x) for x in root.direction])
        t = np.pi * j / m
        assert abs(v[0] * np.sin(t) - v[1] * np.cos(t)) < 1e-12 * np.linalg.norm(v)


if __name__ == "__main__":
    # regenerate the golden file: python tests/test_reflection.py
    lines = [f"{json.dumps(key)}: {json.dumps(record)}"
             for key, record in _golden_records().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
