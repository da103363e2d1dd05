from math import exp, lgamma, log, pi, sqrt
from math import gamma as gamma_fn

import numpy as np
import pytest
from scipy.special import roots_jacobi

from dunkl_lab.corpus import ball_bump, shifted_gaussian
from dunkl_lab.dunklnum import dunkl_gradient
from dunkl_lab.quad import (
    DivergenceError,
    RadialGrid,
    _jacobi,
    _legendre_panel,
    _support_points,
    integrate_measure,
    integrate_radial,
    jitter_off_hyperplanes,
    polar_values,
    radial_nodes,
    sphere_rule,
    sphere_weight_integral,
    weighted_sphere,
)
from dunkl_lab.reflection import (
    HYPERPLANE_RTOL,
    build_root_system,
    near_hyperplane,
    reflect,
)
from oracles import support_chord, support_mask


def _sphere_monomial(exponents):
    """Closed form of int_S prod xi_i^e_i dnu (zero for any odd exponent)."""
    if any(e % 2 for e in exponents):
        return 0.0
    num = 2.0
    for e in exponents:
        num *= gamma_fn((e + 1) / 2.0)
    return num / gamma_fn(sum(e + 1 for e in exponents) / 2.0)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_sphere_rule_exact_monomials(N, rng):
    rule = sphere_rule(N, 8)
    assert np.sum(rule.weights) == pytest.approx(_sphere_monomial((0,) * N), rel=1e-13)
    for _ in range(12):
        e = tuple(int(t) for t in rng.integers(0, 4, size=N))
        if sum(e) > 8:
            continue
        approx = float(np.sum(rule.weights * np.prod(rule.nodes**e, axis=1)))
        assert approx == pytest.approx(_sphere_monomial(e), abs=1e-12)


def test_sphere_rule_rejects_out_of_range():
    with pytest.raises(ValueError):
        sphere_rule(1, 4)
    with pytest.raises(ValueError):
        sphere_rule(9, 4)


def test_jitter_moves_nodes_off_hyperplanes(rs_z23):
    rule = jitter_off_hyperplanes(sphere_rule(3, 6), rs_z23)
    for root in rs_z23.positive_roots:
        assert np.min(np.abs(rule.nodes @ root.vector)) > HYPERPLANE_RTOL
    # jitter is a rotation: weights and norms are untouched
    assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


# (family, N, order) whose odd-order nodes lie on several coordinate
# hyperplanes at once; six rotations in the planes (0, j) do not clear them.
# These are all such pairs among the built-in systems with N <= 7 at orders
# 4-12 (4-6 at N = 7).
CROWDED_RULES = [
    ("B", 5, 5), ("B", 5, 7), ("B", 5, 9), ("B", 5, 11),
    ("Z2", 5, 5), ("Z2", 5, 7), ("Z2", 5, 9), ("Z2", 5, 11),
    ("A", 6, 5), ("A", 6, 7), ("A", 6, 9), ("A", 6, 11),
    ("B", 6, 5), ("B", 6, 7), ("B", 6, 9), ("B", 6, 11),
    ("Z2", 6, 5), ("Z2", 6, 7), ("Z2", 6, 9), ("Z2", 6, 11),
    ("A", 7, 5), ("B", 7, 5), ("Z2", 7, 5),
]


@pytest.mark.parametrize("family, N, order", CROWDED_RULES)
def test_jitter_clears_crowded_odd_orders(family, N, order):
    rs = build_root_system(family, N - 1 if family == "A" else N, 1)
    rule = jitter_off_hyperplanes(sphere_rule(N, order), rs)
    for root, _ in rs.active_roots():
        assert not near_hyperplane(rule.nodes @ root.vector, 1.0).any()


def test_sphere_weight_integral_b2_oracle():
    # omega = <e1-e2,x>^2 <e1+e2,x>^2 ... for B(2) with k=(1,1):
    # omega(xi) = (2 xi1 xi2)^2 * ... ; direct angular integral oracle
    rs = build_root_system("B", 2, [1, 1])
    rule = sphere_rule(2, 20)
    got = sphere_weight_integral(rs, rule)
    theta = np.linspace(0.0, 2 * pi, 200001)[:-1]
    x, y = np.cos(theta), np.sin(theta)
    w = ((x - y) ** 2 * (x + y) ** 2) * (2 * x**2) * (2 * y**2)
    oracle = float(np.mean(w)) * 2 * pi
    assert got == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize(
    "alpha,beta",
    [(a, a) for a in (0.0, 0.5, 1.0, 2.5)]
    + [(0.0, b) for b in (-0.9999, -0.999, -0.7, 2.5, 12.5)],
)
def test_jacobi_rule_matches_beta_moments(alpha, beta):
    # int (1-x)^alpha (1+x)^(beta+j) dx = 2^(alpha+beta+j+1) B(alpha+1, beta+j+1),
    # m_0 from lgamma and m_(j+1) = m_j * 2 (beta+j+1) / (alpha+beta+j+2).
    # At beta = -0.9999 rounding x itself costs 1 + x up to 3e-13; without
    # the Newton step on the nodes the worst moment is off by 5e-12
    m0 = exp((alpha + beta + 1.0) * log(2.0) + lgamma(alpha + 1.0)
             + lgamma(beta + 1.0) - lgamma(alpha + beta + 2.0))
    ns = (1, 2, 8, 16, 48, 64)
    if alpha == beta == 0.0:
        # the Gauss-Legendre panels: profiles' 80 points, and 128
        ns += (80, 128)
    for n in ns:
        x, w = _jacobi(n, alpha, beta)
        exact = m0
        for j in range(2 * n):
            assert np.sum(w * (1.0 + x) ** j) == pytest.approx(exact, rel=2e-12), (n, j)
            exact *= 2.0 * (beta + j + 1.0) / (alpha + beta + j + 2.0)
        # scipy only as an oracle for the nodes; its weights lose digits as
        # beta -> -1
        np.testing.assert_allclose(x, roots_jacobi(n, alpha, beta)[0], rtol=0, atol=1e-14)
        if alpha == beta:
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            if n % 2:
                assert x[n // 2] == 0.0


@pytest.mark.parametrize("n", [8, 16, 32, 48, 80])
def test_legendre_panel_matches_numpy_leggauss(n):
    # numpy's leggauss only as an oracle for the nodes
    x, w, half = _legendre_panel(n, -1.0, 1.0)
    assert half == 1.0
    np.testing.assert_allclose(x, np.polynomial.legendre.leggauss(n)[0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,alpha,beta", [(0, 0.0, 0.0), (4, 0.0, -1.0),
                                          (4, -1.5, 0.0)])
def test_jacobi_rule_rejects_empty_or_nonintegrable_weight(n, alpha, beta):
    with pytest.raises(ValueError):
        _jacobi(n, alpha, beta)


def test_radial_closed_form_power():
    grid = RadialGrid((0.0, 1.0, 2.0), nodes_per_interval=32)
    out = integrate_radial(lambda r: r**3, 2.0, grid)
    assert out == pytest.approx(2.0**6 / 6.0, rel=1e-13)


def test_radial_head_jacobi_captures_singular_power():
    eps = 1e-6
    grid = RadialGrid((0.0, 1.0), nodes_per_interval=16)
    out = integrate_radial(
        lambda r: np.ones_like(r), eps - 1.0, grid, head_power=eps - 1.0
    )
    assert out == pytest.approx(1.0 / eps, rel=1e-8)


@pytest.mark.parametrize("eps,rel", [(1e-3, 1e-12), (1e-6, 1e-9), (1e-10, 1e-6)])
def test_radial_substitution_tail_captures_eps_mass(eps, rel):
    grid = RadialGrid((0.0, 1.0), nodes_per_interval=16)
    # check the pure tail mass through a profile vanishing inside the ball
    def tail_only(r):
        return np.where(r >= 1.0, 1.0, 0.0)

    out = integrate_radial(tail_only, -1.0 - eps, grid, tail_power=-1.0 - eps)
    assert out == pytest.approx(1.0 / eps, rel=rel)


def test_measure_integral_factorizes(rs_a2, rule_a2):
    # int_{r<2} |x|^2 dmu = (int_0^2 r^(nbar+1) dr) * S_k
    grid = RadialGrid((0.0, 1.0, 2.0), nodes_per_interval=32)
    nbar = 3 + 2.0 * float(rs_a2.gamma)
    sk = sphere_weight_integral(rs_a2, rule_a2)
    got = integrate_measure(
        rs_a2, lambda X: np.sum(X**2, axis=1), grid, rule_a2
    ).value
    assert got == pytest.approx(2.0 ** (nbar + 2.0) / (nbar + 2.0) * sk, rel=1e-12)


@pytest.mark.parametrize("n", [8, 9, 15, 16])
def test_measure_error_estimate_halves_the_nodes(rs_a2, rule_a2, n):
    # the estimate is the gap to the same rule at n // 2 nodes per interval,
    # so at the smallest grid it is not the rule compared with itself
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=n)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)
    nodes, wsph = weighted_sphere(rs_a2, rule_a2)
    r, wr = radial_nodes(grid, n // 2)
    exponent = rs_a2.dimension + 2.0 * float(rs_a2.gamma) - 1.0
    half = float(wr * r**exponent @ polar_values(u.value, r, nodes) @ wsph)
    res = integrate_measure(rs_a2, u.value, grid, rule_a2)
    assert res.estimated_error == abs(res.value - half)
    assert res.estimated_error > 1e-6 * abs(res.value)


def test_measure_rejects_non_finite_integrand(rs_a2, rule_a2):
    grid = RadialGrid((0.0, 1.0), nodes_per_interval=8)
    with pytest.raises(ValueError, match="not finite"):
        integrate_measure(
            rs_a2, lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0), grid, rule_a2
        )


def _ball_between_rays(nodes, center):
    """A ball around ``center`` that no ray through a node meets."""
    t = np.maximum(nodes @ center, 0.0)
    gap = np.min(np.linalg.norm(center - t[:, None] * nodes, axis=1))
    return center, 0.4 * gap


def test_support_points_are_the_dense_mask(criterion_6_configs):
    """Each chord cut to an index range of the radii gives exactly the points
    of the dense mask, in its row-major order, on both rules of every
    criterion-6 grid and on a linspace that holds a chord's ends."""
    origin = (np.array([0.1, 0.2, 0.0]), 1.5)
    overlapping = [(np.array([1.2, -0.5, 2.0]), 0.8),
                   (np.array([1.6, -0.2, 1.7]), 0.7)]
    edge = (np.array([-0.4, 1.9, -1.2]), 0.5)
    for _, _, _, _, grid, rule in criterion_6_configs:
        nodes = rule.nodes
        gap = _ball_between_rays(nodes, 3.0 * np.array([1.0, 2.0, 3.0]) / sqrt(14.0))
        hit, lo, _ = support_chord(nodes, *origin)
        assert hit.all() and np.all(lo < 0.0)
        assert not support_chord(nodes, *gap)[0].any()
        hit, lo, hi = support_chord(nodes, *edge)
        j = np.flatnonzero(hit)[0]
        line = np.sort(np.r_[np.linspace(0.0, 4.0, 97), lo[j], hi[j]])
        ends = np.searchsorted(line, [lo[j], hi[j]])
        assert np.array_equal(line[ends], [lo[j], hi[j]])
        assert np.any(support_mask(line, nodes, overlapping[:1])
                      & support_mask(line, nodes, overlapping[1:]))
        n = grid.nodes_per_interval
        radii = [radial_nodes(grid, n)[0], radial_nodes(grid, n // 2)[0], line]
        balls = [origin, gap, *overlapping, edge]
        for r, (i, jj) in zip(radii, _support_points(radii, nodes, balls)):
            want_i, want_j = np.nonzero(support_mask(r, nodes, balls))
            assert np.array_equal(i, want_i) and np.array_equal(jj, want_j)
            # every point inside a ball is kept, none well outside them all
            got = np.zeros((len(r), len(nodes)), dtype=bool)
            got[i, jj] = True
            dist = [np.linalg.norm(r[:, None, None] * nodes - c, axis=2)
                    for c, _ in balls]
            assert got[np.any([d < rho for d, (_, rho) in zip(dist, balls)],
                              axis=0)].all()
            assert not got[np.all([d > rho * (1.0 + 1e-5) + 1e-5
                                   for d, (_, rho) in zip(dist, balls)], axis=0)].any()
        # the chord is open: the nodes at its ends are not in it
        assert not support_mask(line, nodes, balls)[ends, j].any()


@pytest.mark.parametrize("support", [False, True])
def test_measure_calls_the_integrand_once(rs_a2, rule_a2, support):
    """One call on the points of both rules: (n + n//2) * panels * M rows on
    the whole grid, the support points of both rules with a support."""
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=16)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)
    balls = [u.support] if support else None
    rows = []

    def f(X):
        rows.append(len(X))
        return u.value(X)

    res = integrate_measure(rs_a2, f, grid, rule_a2, balls)
    assert res == integrate_measure(rs_a2, u.value, grid, rule_a2)
    nodes = weighted_sphere(rs_a2, rule_a2)[0]
    if balls is None:
        want = (16 + 8) * 2 * len(nodes)
    else:
        want = sum(np.count_nonzero(
            support_mask(radial_nodes(grid, n)[0], nodes, balls)) for n in (16, 8))
    assert rows == [want]


@pytest.mark.parametrize("support", [False, True])
def test_measure_sees_a_nan_at_a_node_of_the_half_rule_only(rs_a2, rule_a2,
                                                           support):
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=16)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)
    full, half = (radial_nodes(grid, n)[0] for n in (16, 8))
    # the half-rule radius nearest the ball's center, which no rule-n
    # radius comes near
    hole = half[np.argmin(np.abs(half - np.linalg.norm(u.support[0])))]
    assert np.min(np.abs(full - hole)) > 1e-3

    def f(X):
        at_hole = np.abs(np.linalg.norm(X, axis=1) - hole) < 1e-9
        return np.where(at_hole, np.nan, u.value(X))

    with pytest.raises(ValueError, match="not finite at node"):
        integrate_measure(rs_a2, f, grid, rule_a2,
                          [u.support] if support else None)


def test_measure_support_skips_only_zeros(rs_a2, rule_a2):
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=16)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)
    ball = [u.support]
    whole = integrate_measure(rs_a2, u, grid, rule_a2)
    assert integrate_measure(rs_a2, u, grid, rule_a2, ball) == whole
    c = u.support[0]

    def nan_near_center(X):
        return np.where(np.linalg.norm(X - c, axis=1) < 0.3, np.nan, 0.0)

    # a non-finite value inside the support is still found and named
    with pytest.raises(ValueError, match="not finite at node"):
        integrate_measure(rs_a2, nan_near_center, grid, rule_a2, ball)
    # outside the declared balls nothing is evaluated
    far = [(np.array([-1.5, -1.0, 1.0]), 0.4)]
    assert integrate_measure(rs_a2, nan_near_center, grid, rule_a2, far).value == 0.0


def test_measure_stack_matches_separate_calls(rs_a2, rule_a2):
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=16)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)
    fields = [
        lambda X: u.value(X) ** 2,
        lambda X: np.sum(X**2, axis=1) * u.value(X),
        lambda X: np.abs(u.value(X)) ** 3.5 / (1.0 + X[:, 0] ** 2),
    ]
    stacked = integrate_measure(
        rs_a2, lambda X: np.stack([f(X) for f in fields]), grid, rule_a2
    )
    separate = [integrate_measure(rs_a2, f, grid, rule_a2) for f in fields]
    assert stacked.value.shape == stacked.estimated_error.shape == (3,)
    assert stacked.value.tolist() == [s.value for s in separate]
    assert stacked.estimated_error.tolist() == [s.estimated_error for s in separate]
    with pytest.raises(ValueError, match="not finite"):
        integrate_measure(
            rs_a2,
            lambda X: np.stack(
                [f(X) for f in fields[:2]] + [np.where(X[:, 0] > 0.5, np.nan, 1.0)]
            ),
            grid,
            rule_a2,
        )


def test_integration_by_parts_antisymmetry(rs_a2, rule_a2):
    # int T_i(u) v dmu = -int u T_i(v) dmu for decaying u, v
    grid = RadialGrid((0.0, 1.5, 3.0, 6.0, 9.0), nodes_per_interval=48)
    u = shifted_gaussian([0.2, 0.5, -0.3], 1.1)
    v = shifted_gaussian([-0.4, 0.1, 0.6], 1.3)

    def pairings(X):
        # rows i: T_i(u) v; rows 3 + i: u T_i(v)
        return np.concatenate([
            dunkl_gradient(rs_a2, u, X).T * v.value(X),
            u.value(X) * dunkl_gradient(rs_a2, v, X).T,
        ])

    value = integrate_measure(rs_a2, pairings, grid, rule_a2).value
    tu_v, u_tv = value[:3], value[3:]
    assert np.all(np.abs(tu_v + u_tv) < 1e-8 * (np.abs(tu_v) + 1.0))


def test_reflected_measure_invariance(rs_z23):
    # int f(sigma_alpha x) dmu = int f dmu for every positive root alpha
    rule = jitter_off_hyperplanes(sphere_rule(3, 10), rs_z23)
    grid = RadialGrid((0.0, 1.0, 2.5), nodes_per_interval=32)
    u = ball_bump([0.4, 0.2, -0.3], 0.9)

    def fields(X):
        points = [X] + [reflect(root, X) for root in rs_z23.positive_roots]
        return np.stack([u.value(Y) ** 2 for Y in points])

    base, *reflected = integrate_measure(rs_z23, fields, grid, rule).value
    for refl in reflected:
        assert abs(refl - base) < 1e-8 * (abs(base) + 1.0)


def test_divergent_tail_raises():
    grid = RadialGrid((0.0, 1.0))
    with pytest.raises(DivergenceError):
        integrate_radial(
            lambda r: np.ones_like(r), 1.0, grid, tail_power=1.0
        )


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid((1.0, 0.5))
    with pytest.raises(ValueError):
        RadialGrid((0.0, 1.0), nodes_per_interval=2)
    # a negative start counts the ball twice; a non-finite end gives NaN
    for breakpoints in ((-4.0, 4.0), (0.0, np.inf), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            RadialGrid(breakpoints)


@pytest.mark.parametrize(
    "family, rank, k",
    [("A", 1, 1), ("A", 2, 1), ("A", 3, 0), ("B", 2, [1, 1]), ("B", 3, [0, 1]),
     ("Z2", 3, 1), ("Z2", 4, [1, 0, 0, 1]), ("I2", 4, 1)],
    ids=["A1", "A2", "A3", "B2", "B3", "Z2^3", "Z2^4", "I2(4)"],
)
def test_sphere_rules_are_exact_against_exact_means(family, rank, k):
    # at integer k, omega_k is a polynomial of degree 2 gamma <= 8, so a
    # rule of order m integrates x^e omega_k exactly for |e| <= m - 2 gamma;
    # the oracle is S_k (from a rule of order 16) times the exact mean from
    # powers of the Dunkl Laplacian
    from dunkl_lab.harmonics import homogeneous_exponents
    from dunkl_lab.polyalg import Polynomial, sphere_mean
    from dunkl_lab.quad import weighted_sphere

    rs = build_root_system(family, rank, k)
    N, two_gamma = rs.dimension, int(2 * rs.gamma)
    mean = sphere_mean(rs)
    sk = sphere_weight_integral(rs, sphere_rule(N, 16))
    checked = 0
    for order in range(4, 9):
        nodes, w = weighted_sphere(rs, sphere_rule(N, order))
        for d in range(order - two_gamma + 1):
            for e in homogeneous_exponents(d, N):
                nodal = float(np.sum(w * np.prod(nodes**np.array(e), axis=1)))
                exact = sk * float(mean(Polynomial(N, {e: 1})))
                assert abs(nodal - exact) <= 1e-13 * sk, (order, e)
                checked += 1
    assert checked
