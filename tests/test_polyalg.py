import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dunkl_lab import polyalg
from dunkl_lab.polyalg import (
    ExactDivisionError,
    Polynomial,
    _divide_by_linear,
    constant,
    divided_difference,
    dunkl_apply,
    dunkl_gradient_sym,
    dunkl_laplacian_fast,
    identity_checks,
    norm_squared,
    reflect_poly,
    sphere_mean,
    variable,
)
from dunkl_lab.reflection import Root, RootSystem, build_root_system

# every positive root of the built-in exact families: e_i, e_i - e_j and
# e_i + e_j, whose reflections are signed permutations
SIGNED_ROOTS = [
    root
    for family, rank in (("A", 3), ("B", 3), ("Z2", 3), ("I2", 4))
    for root in build_root_system(family, rank, 1).positive_roots
]
# a scaled axis root (s = 1/2) and scaled swap roots (s = 2, s = -1/3)
SCALED_ROOTS = [Root((Fraction(2), Fraction(0), Fraction(0))),
                Root((Fraction(1, 2), Fraction(-1, 2))),
                Root((Fraction(-3), Fraction(-3)))]
ALL_ROOTS = SIGNED_ROOTS + SCALED_ROOTS
# a rational root whose reflection is no signed permutation
UNSUPPORTED_ROOT = Root((Fraction(1), Fraction(2)))


def _reflection_matrix(root):
    """sigma_alpha = I - c^2 v v^T as exact Fractions, c^2 = 2/|v|^2."""
    v = root.direction
    c2 = Fraction(2) / sum(x * x for x in v)
    return [[int(i == j) - c2 * v[i] * v[j] for j in range(len(v))]
            for i in range(len(v))]


def _linear_form(root, N):
    p = Polynomial(N)
    for axis, c in enumerate(root.direction):
        if c:
            e = tuple(1 if t == axis else 0 for t in range(N))
            p = p + Polynomial(N, {e: Fraction(c)})
    return p


def _random_poly(rng, N, degree):
    from dunkl_lab.harmonics import homogeneous_exponents

    p = Polynomial(N)
    for d in range(degree + 1):
        for e in homogeneous_exponents(d, N):
            c = int(rng.integers(-3, 4))
            if c:
                p = p + Polynomial(N, {e: Fraction(c, int(rng.integers(1, 4)))})
    return p


def _sum_of_squares(rs, p):
    """sum_l T_l T_l p, the second route to the Dunkl Laplacian."""
    out = Polynomial(rs.dimension)
    for l in range(rs.dimension):
        out = out + dunkl_apply(rs, l, dunkl_apply(rs, l, p))
    return out


def test_arithmetic_and_evaluation(rng):
    x, y = variable(0, 2), variable(1, 2)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    pts = rng.normal(size=(7, 2))
    assert np.allclose(p.evaluate(pts), pts[:, 0] ** 2 - pts[:, 1] ** 2)


def test_partial_derivative():
    x, y = variable(0, 2), variable(1, 2)
    p = x**3 * y + constant(2, Fraction(5))
    assert p.partial(0) == 3 * (x**2 * y)
    assert p.partial(1) == x**3


@pytest.mark.parametrize("exponent", [(-1, 2), (1.0, 2), (True, 2), (1, "2")],
                         ids=repr)
def test_polynomial_rejects_bad_exponents(exponent):
    # a negative or non-int exponent is a usage error, named in the message,
    # even with a zero coefficient
    for coefficient in (1, 0):
        with pytest.raises(ValueError, match=re.escape(repr(exponent))):
            Polynomial(2, {exponent: coefficient})


def test_arithmetic_needs_equal_nvars():
    # a sum across different nvars would hold exponents of the wrong length
    p, q = Polynomial(2, {(1, 0): 1}), Polynomial(3, {(0, 0, 1): 1})
    for a, b in ((p, q), (q, p)):
        for op in (add, sub, mul):
            with pytest.raises(ValueError, match="nvars mismatch"):
                op(a, b)


@pytest.mark.parametrize("op", [
    lambda p: p + 0.5, lambda p: p - 0.5, lambda p: p * 0.5,
    lambda p: 0.5 * p, lambda p: 0.5 + p, lambda p: 0.5 - p,
], ids=["p+0.5", "p-0.5", "p*0.5", "0.5*p", "0.5+p", "0.5-p"])
def test_float_operand_is_a_type_error(op):
    # coefficients are rational: a float operand is refused by Python's
    # operator protocol, not read as a polynomial
    with pytest.raises(TypeError):
        op(variable(0, 2))


@pytest.mark.parametrize("c", [1, Fraction(1, 2)], ids=["int", "Fraction"])
def test_rational_minus_polynomial(c):
    x = variable(0, 2)
    assert c - x == constant(2, c) - x == -(x - c)


def test_polynomial_equals_its_rational_constant():
    x = variable(0, 2)
    assert x - x == 0 and x != 0
    assert constant(2, 3) == 3
    third = constant(2, Fraction(1, 3))
    assert third == Fraction(1, 3) and hash(third) == hash(Fraction(1, 3))
    assert {x - x: 1}[0] == 1


def test_divided_difference_exactness(rs_b2, rng):
    for _ in range(5):
        p = _random_poly(rng, 2, 3)
        for root in rs_b2.positive_roots:
            q = divided_difference(p, root)
            assert (_linear_form(root, 2) * q - (p - reflect_poly(p, root))).is_zero()


def test_division_remainder_raises():
    x, y = variable(0, 2), variable(1, 2)
    rs = build_root_system("Z2", 2, [1, 0])
    # x*y + 1 is not antisymmetric under x -> -x, so no exact quotient exists
    with pytest.raises(ExactDivisionError):
        _divide_by_linear(x * y + constant(2, Fraction(1)), rs.positive_roots[0])


def test_dunkl_reduces_to_partial_when_k_zero(rng):
    rs = build_root_system("A", 2, [0])
    p = _random_poly(rng, 3, 3)
    for i in range(3):
        assert dunkl_apply(rs, i, p) == p.partial(i)


def test_commutativity(rs_a2, rs_b2, rng):
    for rs in (rs_a2, rs_b2):
        p = _random_poly(rng, rs.dimension, 3)
        for i in range(rs.dimension):
            for j in range(i + 1, rs.dimension):
                assert (dunkl_apply(rs, i, dunkl_apply(rs, j, p))
                        == dunkl_apply(rs, j, dunkl_apply(rs, i, p)))


def test_laplacian_formulas_agree(rs_a2, rs_b2, rs_z23, rng):
    for rs in (rs_a2, rs_b2, rs_z23):
        p = _random_poly(rng, rs.dimension, 4)
        assert _sum_of_squares(rs, p) == dunkl_laplacian_fast(rs, p)


def test_identity_checks_report_disagreeing_laplacian_routes(rs_a2, monkeypatch):
    # a fast Laplacian off by one term is a failed verdict, not an exception
    fast = polyalg.dunkl_laplacian_fast
    monkeypatch.setattr(
        polyalg, "dunkl_laplacian_fast", lambda rs, p: fast(rs, p) + constant(3, 1)
    )
    x, y, z = (variable(i, 3) for i in range(3))
    entries = identity_checks(rs_a2, [x**2 * y, y * z**3 + x])
    assert {name for name, ok, _ in entries if not ok} == {
        "laplacian_routes/0", "laplacian_routes/1"
    }
    assert all(res == 1.0 for name, ok, res in entries if not ok)


def test_laplacian_of_norm_squared(rs_b2):
    # lap_k |x|^2 = 2 nbar, nbar = N + 2 gamma
    p = norm_squared(2)
    nbar = Fraction(2) + 2 * rs_b2.gamma
    assert dunkl_laplacian_fast(rs_b2, p) == constant(2, 2 * nbar)
    assert _sum_of_squares(rs_b2, p) == constant(2, 2 * nbar)


def test_leibniz_general_and_invariant(rs_b2, rng):
    u = _random_poly(rng, 2, 3)
    v = _random_poly(rng, 2, 2)
    entries = identity_checks(rs_b2, [u, v])
    assert [ok for name, ok, _ in entries if name.startswith("leibniz")] == [True] * 4
    # with a G-invariant factor the product rule has no correction term
    inv = norm_squared(2) ** 2
    assert all(reflect_poly(inv, r) == inv for r in rs_b2.positive_roots)
    assert dunkl_apply(rs_b2, 1, u * inv) == (
        inv * dunkl_apply(rs_b2, 1, u) + u * dunkl_apply(rs_b2, 1, inv))


def test_subsystem_independence(rs_a2, rng):
    p = _random_poly(rng, 3, 3)
    roots = rs_a2.positive_roots
    for signs in product((1, -1), repeat=len(roots)):
        alt = replace(rs_a2, positive_roots=tuple(
            r if s == 1 else r.negate() for r, s in zip(roots, signs)))
        for i in range(3):
            assert dunkl_apply(alt, i, p) == dunkl_apply(rs_a2, i, p)


def test_rational_multiplicity_stays_exact():
    rs = build_root_system("B", 2, [Fraction(1, 2), Fraction(3, 2)])
    x = variable(0, 2)
    out = dunkl_apply(rs, 0, x**3)
    assert all(isinstance(c, Fraction) for c in out.terms.values())
    assert _sum_of_squares(rs, x**4) == dunkl_laplacian_fast(rs, x**4)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
    st.integers(0, 2), st.integers(0, 2),
)
def test_dunkl_is_linear(a, b, c, da, db):
    rs = build_root_system("B", 2, [1, 1])
    x, y = variable(0, 2), variable(1, 2)
    u = Fraction(a) * (x ** (da + 1) * y**db)
    v = Fraction(b) * (y ** (db + 1))
    lhs = dunkl_apply(rs, 0, u + Fraction(c) * v)
    rhs = dunkl_apply(rs, 0, u) + Fraction(c) * dunkl_apply(rs, 0, v)
    assert lhs == rhs


def test_dunkl_lowers_degree(rs_a2):
    p = norm_squared(3) * variable(0, 3)
    out = dunkl_apply(rs_a2, 0, p)
    assert out.degree() == p.degree() - 1


@pytest.mark.parametrize("root", ALL_ROOTS, ids=repr)
def test_reflect_poly_matches_linear_substitution(root, rng):
    # p(sigma_alpha x), sigma_alpha = I - c^2 v v^T multiplied out term by
    # term; a root and its negation reflect alike
    for alpha in (root, root.negate()):
        matrix = _reflection_matrix(alpha)
        for _ in range(3):
            p = _random_poly(rng, root.dim, 4)
            want = _o_substitute(dict(p.terms), matrix)
            assert reflect_poly(p, alpha).terms == want


_exponent = st.integers(0, 3)
_coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@pytest.mark.parametrize("root", ALL_ROOTS, ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_divide_by_linear_round_trip(root, data):
    N = root.dim
    terms = data.draw(st.dictionaries(
        st.tuples(*[_exponent] * N), _coefficient, max_size=6))
    q = Polynomial(N, terms)
    assert _divide_by_linear(_linear_form(root, N) * q, root) == q


def _rank_one(root, k):
    return RootSystem(family="custom", rank=1, dimension=root.dim,
                      positive_roots=(root,), multiplicities=(k,))


_X, _Y = variable(0, 2), variable(1, 2)
_P = _X**2 * _Y + _Y**2
_UNSUPPORTED = _rank_one(UNSUPPORTED_ROOT, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda: reflect_poly(_P, UNSUPPORTED_ROOT),
    lambda: divided_difference(_P, UNSUPPORTED_ROOT),
    lambda: dunkl_apply(_UNSUPPORTED, 0, _P),
    lambda: dunkl_laplacian_fast(_UNSUPPORTED, _P),
    lambda: sphere_mean(_UNSUPPORTED)(_X * _X),
    lambda: identity_checks(_UNSUPPORTED, [_P, _X]),
], ids=["reflect_poly", "divided_difference", "dunkl_apply",
        "dunkl_laplacian_fast", "sphere_mean", "identity_checks"])
def test_unsupported_root_raises_value_error(call):
    # the exact calculus serves signed-permutation roots only; the error
    # names the root, and the CLI reports a ValueError as a usage error
    with pytest.raises(ValueError, match=re.escape(repr(UNSUPPORTED_ROOT))):
        call()


@pytest.mark.parametrize("nvars", [2, 4])
def test_kernels_check_the_polynomial_dimension(rs_a2, nvars):
    # A2 acts on R^3: a polynomial in any other number of variables is a
    # usage error, not an IndexError or a silent value
    p = norm_squared(nvars) * variable(0, nvars)
    for call in (lambda: dunkl_apply(rs_a2, 0, p),
                 lambda: dunkl_gradient_sym(rs_a2, p),
                 lambda: dunkl_laplacian_fast(rs_a2, p),
                 lambda: sphere_mean(rs_a2)(p)):
        with pytest.raises(ValueError, match=f"{nvars} variables"):
            call()


@pytest.mark.parametrize("rs", [
    build_root_system("A", 3, 1),
    build_root_system("B", 3, [Fraction(1, 2), 1]),
    build_root_system("Z2", 3, [1, Fraction(1, 3), 2]),
    build_root_system("I2", 4, [1, Fraction(1, 2)]),
], ids=["A3", "B3", "Z2^3", "I2(4)"])
def test_gradient_matches_dunkl_apply(rs, rng):
    for degree in (1, 3, 4):
        p = _random_poly(rng, rs.dimension, degree)
        grad = dunkl_gradient_sym(rs, p)
        assert grad == [dunkl_apply(rs, i, p) for i in range(rs.dimension)]


# -- the closed-form kernels against reflect-subtract-divide oracles -----------

ORACLE_FAMILIES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("Z2", 5),
                   ("I2", 1), ("I2", 2), ("I2", 4)]
# (name, roots of one dimension): each family's positive roots and their
# negations, then the scaled roots
DIVIDED_DIFFERENCE_ROOTS = [
    (f"{family}({rank})",
     [r for root in build_root_system(family, rank, 1).positive_roots
      for r in (root, root.negate())])
    for family, rank in ORACLE_FAMILIES
] + [("scaled-axis", SCALED_ROOTS[:1]),
     ("scaled-swap", SCALED_ROOTS[1:])]


def _rational_polys(N):
    """Rational polynomials in N variables of degree <= 7."""
    monomial = st.lists(st.integers(0, N - 1), max_size=7).map(
        lambda axes: tuple(axes.count(i) for i in range(N)))
    return st.dictionaries(monomial, _coefficient, max_size=8).map(
        lambda terms: Polynomial(N, terms))


@pytest.mark.parametrize("roots", [roots for _, roots in DIVIDED_DIFFERENCE_ROOTS],
                         ids=[name for name, _ in DIVIDED_DIFFERENCE_ROOTS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_divided_difference_matches_reflect_subtract_divide(roots, data):
    p = data.draw(_rational_polys(roots[0].dim))
    for root in roots:
        q = divided_difference(p, root)
        _assert_canonical(q)
        assert q == oracles.divided_difference(p, root)


KERNEL_SYSTEMS = [
    (f"{family}({rank})/k={k}", build_root_system(family, rank, k))
    for family, rank in ORACLE_FAMILIES
    for k in (Fraction(2, 3), 0)
] + [
    (f"{root!r}/k=5/4", _rank_one(root, Fraction(5, 4)))
    for root in SCALED_ROOTS
] + [
    # an axis root and two swap roots of scales s = 1/2, 2 and -1/3 in one sum
    ("mixed(2 e2, scaled swaps)",
     RootSystem(family="custom", rank=3, dimension=2,
                positive_roots=(Root((Fraction(0), Fraction(2))), *SCALED_ROOTS[1:]),
                multiplicities=(Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)))),
]


@pytest.mark.parametrize("rs", [rs for _, rs in KERNEL_SYSTEMS],
                         ids=[name for name, _ in KERNEL_SYSTEMS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dunkl_kernels_match_polynomial_oracles(rs, data):
    N = rs.dimension
    p = data.draw(_rational_polys(N))
    i = data.draw(st.integers(0, N - 1))
    grad = dunkl_gradient_sym(rs, p)
    assert grad == oracles.dunkl_terms(rs, p, range(N))
    assert dunkl_apply(rs, i, p) == grad[i]
    lap = dunkl_laplacian_fast(rs, p)
    _assert_canonical(lap)
    assert lap == oracles.dunkl_laplacian(rs, p)


def test_laplacian_closed_forms_match_the_oracle_on_every_monomial():
    # every monomial of degree <= 6 (<= 5 from N = 4 on) on each family, so
    # each parity of e_i and each ordering of (e_i, e_j) reaches every closed
    # form of a signed-permutation root
    from dunkl_lab.harmonics import homogeneous_exponents

    checked, wrong = 0, []
    for family, rank in ORACLE_FAMILIES:
        rs = build_root_system(family, rank, Fraction(2, 3))
        N = rs.dimension
        for degree in range(7 if N <= 3 else 6):
            for e in homogeneous_exponents(degree, N):
                p = Polynomial(N, {e: 1})
                checked += 1
                if dunkl_laplacian_fast(rs, p) != oracles.dunkl_laplacian(rs, p):
                    wrong.append((family, rank, e))
    assert checked == 658 and wrong == []


# -- the integer arithmetic against a dict-of-Fraction oracle ----------------
#
# The oracle updates its dict term by term and drops a coefficient the moment
# it cancels, so its term order is the one the package's reports follow.


def _o_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _o_add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


def _o_partial(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]
            for e, c in a.items() if e[i]}


def _o_substitute(a, matrix):
    """p(Mx), one linear form per variable, multiplied out term by term."""
    N = len(matrix)
    rows = [{tuple(int(t == j) for t in range(N)): c
             for j, c in enumerate(row) if c} for row in matrix]
    out = {}
    for e, c in a.items():
        term = {(0,) * N: c}
        for i, m in enumerate(e):
            for _ in range(m):
                term = _o_mul(term, rows[i])
        out = _o_add(out, term)
    return out


def _assert_canonical(p):
    assert p._den > 0 and all(p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    assert all(isinstance(c, Fraction) for c in p.terms.values())


_small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _fraction_dicts(draw, N):
    return draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * N),
                                _small_fraction, max_size=6))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_arithmetic_matches_fraction_oracle(data):
    N = data.draw(st.integers(2, 4))
    a = {e: c for e, c in data.draw(_fraction_dicts(N)).items() if c}
    b = {e: c for e, c in data.draw(_fraction_dicts(N)).items() if c}
    s = data.draw(_small_fraction)
    i = data.draw(st.integers(0, N - 1))
    p, q = Polynomial(N, a), Polynomial(N, b)
    # ordered comparisons: the term order is part of the contract
    for got, want in (
        (p, a),
        (p + q, _o_add(a, b)),
        (p - q, _o_add(a, b, -1)),
        (p * q, _o_mul(a, b)),
        (p * s, {e: c * s for e, c in a.items()} if s else {}),
        (p.partial(i), _o_partial(a, i)),
    ):
        _assert_canonical(got)
        assert list(got.terms.items()) == list(want.items())
    roots = [r for r in ALL_ROOTS if r.dim == N]
    roots += build_root_system("B", N, 1).positive_roots
    root = data.draw(st.sampled_from(roots))
    reflected = _o_substitute(a, _reflection_matrix(root))
    got = reflect_poly(p, root)
    _assert_canonical(got)
    assert got.terms == reflected
    # <v, x> q = p - p o sigma, multiplied out by the oracle
    dd = divided_difference(p, root)
    _assert_canonical(dd)
    lin = {tuple(int(t == axis) for t in range(N)): c
           for axis, c in enumerate(root.direction) if c}
    assert _o_mul(lin, dict(dd.terms)) == _o_add(a, reflected, -1)


def test_canonical_form_is_unique(rng):
    x, y = variable(0, 2), variable(1, 2)
    p = _random_poly(rng, 2, 3) * Fraction(5, 4)
    routes = [
        (p * 6) * Fraction(1, 6),
        p * Fraction(2, 3) + p * Fraction(1, 3),
        Polynomial(2, dict(p.terms)),
        -(-p),
        (p * (x + y)).partial(0) - p.partial(0) * (x + y),
    ]
    for q in routes:
        assert q == p and hash(q) == hash(p)
        assert (q._num, q._den) == (p._num, p._den)
    half = x * Fraction(1, 2)
    assert half + half == x and (half + half)._den == 1
    assert (x * Fraction(2, 3)) * Fraction(3, 2) == x
    for zero in (p - p, p * 0, Polynomial(2), half * Fraction(0)):
        assert zero.is_zero() and zero._den == 1 and zero == Polynomial(2)
        assert hash(zero) == hash(Polynomial(2))


def _rising(a, m: int):
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def test_sphere_mean_matches_z2_closed_form():
    # for Z2^N, omega_k = prod |x_i|^(2 k_i) and the sphere mean of x^e is
    # prod (k_i + 1/2)_(e_i/2) / (Nbar/2)_(|e|/2) for all-even e, else 0
    from dunkl_lab.harmonics import homogeneous_exponents

    k = Fraction(1, 3)
    rs = build_root_system("Z2", 3, k)
    half_nbar = Fraction(3, 2) + 3 * k
    mean = sphere_mean(rs)
    for d in range(9):
        for e in homogeneous_exponents(d, 3):
            got = mean(Polynomial(3, {e: 1}))
            if any(m % 2 for m in e):
                want = Fraction(0)
            else:
                want = Fraction(1)
                for m in e:
                    want *= _rising(k + Fraction(1, 2), m // 2)
                want /= _rising(half_nbar, d // 2)
            assert isinstance(got, Fraction) and got == want, e


@pytest.mark.parametrize(
    "family, rank, k",
    [
        ("A", 2, [Fraction(1, 2)]),
        ("B", 3, [Fraction(1, 2), 1]),
        ("Z2", 3, Fraction(1, 3)),
        ("I2", 4, Fraction(1, 2)),
    ],
    ids=["A2", "B3", "Z2^3", "I2(4)"],
)
def test_sphere_mean_green_identity(family, rank, k):
    # Green's identity on the sphere: for an h-harmonic p of degree n,
    # mean(sum_i (T_i p)^2) = (Nbar + 2n - 2) mean(p sum_i x_i T_i p)
    from dunkl_lab.harmonics import kernel_basis

    rs = build_root_system(family, rank, k)
    N = rs.dimension
    nbar = N + 2 * rs.gamma
    mean = sphere_mean(rs)
    for n in range(4):
        for p in kernel_basis(rs, n):
            grad = dunkl_gradient_sym(rs, p)
            sq = Polynomial(N)
            radial = Polynomial(N)
            for i, g in enumerate(grad):
                sq = sq + g * g
                radial = radial + variable(i, N) * g
            assert mean(sq) == (nbar + 2 * n - 2) * mean(p * radial), (n, p)
            assert n == 0 or mean(sq) > 0  # not 0 == 0
