from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dunkl_lab.corpus import ball_bump, random_damped_polynomial
from dunkl_lab.harmonics import (
    build_basis,
    eigenvalue,
    expand,
    fraction_kernel,
    hharmonic_dim,
    homogeneous_exponents,
    kernel_basis,
    parseval_residual,
    sphere_eigencheck,
)
from dunkl_lab.polyalg import Polynomial, dunkl_laplacian_fast
from dunkl_lab.quad import (
    RadialGrid,
    jitter_off_hyperplanes,
    polar_values,
    radial_nodes,
    sphere_rule,
    weighted_sphere,
)
from dunkl_lab.reflection import build_root_system, reflect


def test_hharmonic_dim_formula():
    for N in (2, 3, 4):
        for n in range(7):
            expected = comb(n + N - 1, N - 1) - (
                comb(n + N - 3, N - 1) if n + N - 3 >= 0 else 0
            )
            assert hharmonic_dim(n, N) == expected
    assert hharmonic_dim(2, 3) == 5  # classical spherical harmonics count


def test_homogeneous_exponents_complete():
    exps = homogeneous_exponents(3, 3)
    assert len(exps) == comb(5, 2)
    assert all(sum(e) == 3 for e in exps)
    assert len(set(exps)) == len(exps)


def test_fraction_kernel_small_matrix():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    ker = fraction_kernel(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert sum(c * r for c, r in zip(v, rows[0])) == 0


def test_kernel_is_exactly_harmonic(rs_a2, rs_b2, rs_z23):
    for rs in (rs_a2, rs_b2, rs_z23):
        for n in range(1, 5):
            polys = kernel_basis(rs, n)
            assert len(polys) == hharmonic_dim(n, rs.dimension)
            for p in polys:
                assert dunkl_laplacian_fast(rs, p).is_zero()
                assert sphere_eigencheck(rs, p).is_zero()


@pytest.mark.parametrize("family, rank, k", [
    ("A", 2, Fraction(1, 2)),
    ("B", 3, [Fraction(1, 2), 1]),
    ("Z2", 5, Fraction(1, 3)),
])
def test_low_degree_kernel_is_every_monomial(family, rank, k):
    # Delta_k kills every polynomial of degree <= 1
    rs = build_root_system(family, rank, k)
    N = rs.dimension
    for n in (0, 1):
        assert kernel_basis(rs, n) == [
            Polynomial(N, {e: 1}) for e in homogeneous_exponents(n, N)]


def test_kernel_rejects_irrational_system():
    rs = build_root_system("I2", 3, 1)  # tan(pi/3) is irrational
    with pytest.raises(ValueError):
        kernel_basis(rs, 2)


def test_eigenvalue_formula():
    assert eigenvalue(0, 7.0) == 0
    assert eigenvalue(2, 9.0) == -2 * (2 + 9 - 2)


def test_basis_orthonormality(rs_a2, rs_b2, rs_z23):
    # the basis comes from exact sphere means; its Gram matrix is taken here
    # on the weighted rule, exact for Y_i Y_j omega_k (degree 2n + 2 gamma)
    for rs in (rs_a2, rs_b2, rs_z23):
        deg_weight = int(2 * rs.gamma)
        for n in range(5):
            rule = sphere_rule(rs.dimension, 2 * n + deg_weight)
            basis = build_basis(rs, n, rule)
            nodes, wsph = weighted_sphere(rs, rule)
            Y = basis.evaluate(nodes)
            gram = (Y * wsph) @ Y.T
            assert np.max(np.abs(gram - np.eye(basis.dimension))) < 1e-10


def test_build_basis_rejects_degenerate_gram(rs_b2, monkeypatch):
    import dunkl_lab.harmonics as harmonics

    p = kernel_basis(rs_b2, 2)[0]
    monkeypatch.setattr(harmonics, "kernel_basis", lambda rs, n: [p, p])
    with pytest.raises(ArithmeticError):
        build_basis(rs_b2, 2, sphere_rule(2, 12))


def test_expand_single_mode(rs_a2):
    # u = g(r) Y for one orthonormal harmonic: expansion must hit one table
    from dunkl_lab.corpus import bump_radial_profile

    rule = jitter_off_hyperplanes(sphere_rule(3, 16), rs_a2)
    bases = [build_basis(rs_a2, n, rule) for n in (1, 2)]
    prof = bump_radial_profile(1.5, 0.8)
    y1 = bases[0]

    def u(X):
        r = np.linalg.norm(X, axis=1)
        vals = y1.evaluate(X / r[:, None])
        return prof.value(r) * vals[0]

    grid = RadialGrid((0.5, 1.0, 1.5, 2.0, 2.5), nodes_per_interval=32)
    coeffs = expand(rs_a2, u, bases, grid, rule)
    # degree-1 channel 0 carries g(r); every other channel is empty
    r_mid = coeffs.radii[len(coeffs.radii) // 2]
    assert coeffs.tables[(1, 0)][len(coeffs.radii) // 2] == pytest.approx(
        prof.value(r_mid), abs=1e-9
    )
    for (n, i), tab in coeffs.tables.items():
        if (n, i) != (1, 0):
            assert np.max(np.abs(tab)) < 1e-9


def test_parseval_on_damped_polynomials(rs_a2, rng):
    rule = jitter_off_hyperplanes(sphere_rule(3, 18), rs_a2)
    bases = [build_basis(rs_a2, n, rule) for n in range(0, 7)]
    grid = RadialGrid((0.0, 1.0, 2.0, 3.5, 5.0, 7.0), nodes_per_interval=40)
    for _ in range(3):
        u = random_damped_polynomial(rng, 3, 3)
        coeffs = expand(rs_a2, u, bases, grid, rule)
        assert parseval_residual(rs_a2, u, coeffs, grid, rule) < 1e-5


def _reflected_values(rs, u, r, nodes):
    """u and u o sigma_alpha per positive root alpha at the points r_i xi_j,
    stacked as (1 + #roots, len(r), len(nodes))."""
    def fields(X):
        return np.stack([u(X)] + [u(reflect(root, X)) for root in rs.positive_roots])

    return polar_values(fields, r, nodes)


def test_mean_projection_invariance(rs_z23):
    # at every radius, the sphere mean of u o sigma_alpha against
    # omega_k dnu / S_k is that of u
    rule = jitter_off_hyperplanes(sphere_rule(3, 24), rs_z23)
    grid = RadialGrid((0.0, 1.0, 2.0), nodes_per_interval=32)
    u = ball_bump([0.3, 0.1, -0.2], 0.8)
    nodes, wsph = weighted_sphere(rs_z23, rule)
    r, _ = radial_nodes(grid)
    base, *reflected = _reflected_values(rs_z23, u, r, nodes) @ wsph / np.sum(wsph)
    # the bump has a support edge, so the sphere rule is only approximate
    for refl in reflected:
        assert np.max(np.abs(refl - base)) < 1e-6


def test_cross_term_bound(rs_a2):
    # per positive root alpha,
    # int (u - u o sigma_alpha) u / |x|^4 dmu <= 2 int (u - mean u)^2 / |x|^4 dmu;
    # u vanishes near the origin, so both sides converge
    rule = jitter_off_hyperplanes(sphere_rule(3, 12), rs_a2)
    grid = RadialGrid((0.5, 1.0, 1.8, 2.6), nodes_per_interval=32)
    b = ball_bump([0.0, 0.9, 1.8], 0.5)
    sigma = rs_a2.positive_roots[0]
    nodes, wsph = weighted_sphere(rs_a2, rule)
    r, wr = radial_nodes(grid)
    wrad = wr * r ** (rs_a2.dimension + 2.0 * float(rs_a2.gamma) - 5.0)
    # the bump alone uses half of the bound at each root; b - (b o sigma)/2,
    # whose two bumps do not overlap, uses 96% of it at sigma
    for u in (b, lambda X: b(X) - 0.5 * b(reflect(sigma, X))):
        U, *reflected = _reflected_values(rs_a2, u, r, nodes)
        mean = U @ wsph / np.sum(wsph)
        rhs = 2.0 * float(wrad @ ((U - mean[:, None]) ** 2 @ wsph))
        for Us in reflected:
            assert float(wrad @ (((U - Us) * U) @ wsph)) <= rhs + 1e-8


def _fraction_gauss_jordan_kernel(rows, ncols):
    """Reference: Gauss-Jordan on Fractions to the reduced echelon form."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
        if r == len(m):
            break
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, pr in pivots.items():
            v[pc] = -m[pr][fc]
        kernel.append(v)
    return kernel


# every (system, n) of `verify all` (the A2, B3 and Z2^5 multiplicity pools
# of the benchmark, n <= 4) and of the four sharpness mode batches
_KERNEL_CASES = (
    [("A", 2, k, 4) for k in (1, Fraction(1, 2), 2)]
    + [("B", 3, k, 4) for k in (1, [Fraction(1, 2), 1], [1, Fraction(1, 3)])]
    + [("Z2", 5, k, 4) for k in (1, Fraction(1, 2), Fraction(1, 3), 0,
                                 [1, 0, 0, 0, 0])]
    + [("Z2", 7, [1, 0, 0, 0, 0, 0, 0], 2)]
)


def test_fraction_kernel_matches_fraction_gauss_jordan():
    rng = np.random.default_rng(5)
    for shape in ((1, 3), (3, 5), (4, 4), (5, 7), (6, 9)):
        for _ in range(20):
            # small entries and a few zero or repeated rows give rank drops
            rows = [[Fraction(int(a), int(b)) for a, b in zip(
                rng.integers(-3, 4, shape[1]), rng.integers(1, 5, shape[1]))]
                for _ in range(shape[0])]
            if shape[0] > 2:
                rows[1] = [x * Fraction(-3, 2) for x in rows[0]]
                rows[2] = [Fraction(0)] * shape[1]
            assert (fraction_kernel(rows, shape[1])
                    == _fraction_gauss_jordan_kernel(rows, shape[1]))


def test_kernel_basis_matches_fraction_gauss_jordan(monkeypatch):
    import dunkl_lab.harmonics as harmonics

    for family, rank, k, n_max in _KERNEL_CASES:
        rs = build_root_system(family, rank, k)
        got = [kernel_basis(rs, n) for n in range(n_max + 1)]
        with monkeypatch.context() as m:
            m.setattr(harmonics, "fraction_kernel", _fraction_gauss_jordan_kernel)
            want = [kernel_basis(rs, n) for n in range(n_max + 1)]
        assert got == want, (family, rank, k)
