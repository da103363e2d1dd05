from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_lab.corpus import (
    ball_bump,
    bump_radial_profile,
    domain_bump_corpus,
    mode_corpus,
    mode_function,
    radial_shell_bump,
    random_damped_polynomial,
    separable_mode,
    shifted_gaussian,
)
from dunkl_lab.domains import DomainSpec, distance_data
from dunkl_lab.dunklnum import SmoothFunction
from dunkl_lab.polyalg import constant, variable
from dunkl_lab.profiles import mollified_power_profile
from dunkl_lab.quad import (
    jitter_off_hyperplanes,
    sphere_rule,
    sphere_weight_integral,
    weighted_sphere,
)


def test_bumps_register_cleanly(rng):
    # SmoothFunction cross-checks the analytic gradient at registration,
    # so construction succeeding is itself the derivative test
    ball_bump([0.3, -0.2, 0.5], 0.8)
    shifted_gaussian([1.0, 2.0], 0.7)
    radial_shell_bump(1.5, 0.6, 4)
    random_damped_polynomial(rng, 3, 3)


@pytest.mark.parametrize("center, radius", [
    ([0.3, -0.2, 0.5], float("nan")),  # cut no chord: a domain check read 0 >= 0
    ([0.3, -0.2, 0.5], float("inf")),  # u = 1 everywhere
    ([0.3, -0.2, 0.5], -0.5),
    ([0.3, -0.2, 0.5], 0.0),  # divided by zero at registration
    ([0.3, float("nan"), 0.5], 0.8),
    ([0.3, float("inf"), 0.5], 0.8),
])
def test_ball_bump_rejects_a_bad_center_or_radius(center, radius):
    with pytest.raises(ValueError, match="finite"):
        ball_bump(center, radius)


def test_bump_support(rng):
    u = ball_bump([1.0, 0.0], 0.5)
    inside = np.array([[1.1, 0.1]])
    outside = np.array([[2.0, 0.0], [0.2, 0.0]])
    assert u.value(inside)[0] > 0.0
    assert np.all(u.value(outside) == 0.0)
    assert np.all(u.gradient(outside) == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda N: st.tuples(
        st.lists(st.floats(-3, 3), min_size=N, max_size=N),
        st.lists(st.floats(-1, 1), min_size=N, max_size=N),
    )),
    st.floats(0.05, 2.0),
    st.floats(1.0 + 1e-9, 4.0),
)
def test_ball_bump_vanishes_outside_its_declared_support(vectors, radius, scale):
    center, direction = (np.array(v) for v in vectors)
    if np.linalg.norm(direction) < 1e-3:
        direction = np.eye(len(center))[0]
    u = ball_bump(center, radius)
    c, rho = u.support
    assert np.array_equal(c, center) and rho == radius
    # points on rays out of the ball, at |x - c| = scale * rho > rho
    X = c + scale * rho * np.array([direction, -direction]) / np.linalg.norm(direction)
    assert np.all(u.value(X) == 0.0)
    assert np.all(u.gradient(X) == 0.0)
    assert np.all(u.laplacian(X) == 0.0)
    assert np.all(u.hessian(X) == 0.0)


def test_mode_hessians_match_gradient_differences(rng):
    # every builder: the gradient against central differences of the value,
    # the Hessian against central differences of the gradient, and
    # trace(Hessian) against the Laplacian
    x, y, z = (variable(i, 3) for i in range(3))
    prof = bump_radial_profile(1.5, 0.9)
    X = rng.normal(size=(10, 3))
    X *= (rng.uniform(0.7, 2.3, size=10) / np.linalg.norm(X, axis=1))[:, None]
    h = 1e-5
    builders = {
        "ball_bump": ball_bump([0.9, -0.4, 0.6], 1.6),
        "shifted_gaussian": shifted_gaussian([0.3, -0.2, 0.5], 1.1),
        "radial_shell_bump": radial_shell_bump(1.5, 0.9, 3),
        "mode_function": mode_function(prof, x * y - z * z * 2 + x * z),
        "random_damped_polynomial": random_damped_polynomial(rng, 3, 3),
    }
    for name, u in builders.items():
        G, H = u.gradient(X), u.hessian(X)
        assert np.max(np.abs(G)) > 1e-2 and np.max(np.abs(H)) > 1e-2, name
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (u.value(X + e) - u.value(X - e)) / (2.0 * h)
            assert np.allclose(G[:, j], fd, rtol=1e-6, atol=1e-6), name
            fd = (u.gradient(X + e) - u.gradient(X - e)) / (2.0 * h)
            assert np.allclose(H[:, :, j], fd, rtol=1e-6, atol=1e-6), name
        assert np.allclose(np.trace(H, axis1=1, axis2=2), u.laplacian(X),
                           rtol=1e-12, atol=1e-12), name


@pytest.mark.filterwarnings("error")
def test_radial_profile_functions_take_their_limit_at_the_origin(rng):
    # profiles constant near 0: g'/r and (g'' - g'/r)/r^2 tend to 0, so the
    # derivatives at the origin are zeros, with no division warning
    x = variable(0, 3)
    origin = np.zeros((1, 3))
    X = rng.normal(size=(4, 3))
    for u, g0 in ((radial_shell_bump(1.5, 0.9, 3), 0.0),
                  (mode_function(bump_radial_profile(1.5, 0.9), x), 0.0),
                  (mode_function(mollified_power_profile(-3.0),
                                 constant(3, 1)), 1.0)):
        assert np.array_equal(u.value(origin), [g0])
        assert np.array_equal(u.gradient(origin), np.zeros((1, 3)))
        assert np.array_equal(u.laplacian(origin), [0.0])
        assert np.array_equal(u.hessian(origin), np.zeros((1, 3, 3)))
        # the origin leaves the other points of a batch alone
        both = np.vstack([origin, X])
        for f in (u.value, u.gradient, u.laplacian, u.hessian):
            assert np.array_equal(f(both)[1:], f(X))


def test_bump_radial_profile_is_the_mapped_sextic():
    # g(r) = (1 - t^2)^3 with t = (r - c)/w: zero at both ends of the
    # support, flat at the center, and (1 - t^2)^3 to a few ulps in between
    for c, w in ((2.5, 0.6), (1.5, 0.9), (1.4, 0.7)):
        g = bump_radial_profile(c, w)
        assert g.value(c - w) == 0.0 and g.value(c + w) == 0.0
        assert g.deriv(c) == 0.0
        r = np.linspace(c - w, c + w, 41)
        t = (r - c) / w
        assert np.max(np.abs(g.value(r) - (1.0 - t * t) ** 3)) <= 2e-15


def test_bump_radial_profile_needs_offset_support():
    with pytest.raises(ValueError):
        bump_radial_profile(0.5, 0.9)


def test_domain_bump_corpus_respects_domain(rs_a2, rng):
    spec = DomainSpec("exterior_ball", 3, radius=1.0)
    data = distance_data(spec, rs_a2)
    corpus = domain_bump_corpus(data, rng, 6, 4.0)
    assert len(corpus) == 6
    probe = rng.normal(size=(200, 3)) * 4.0
    inside_domain = data.contains(probe)
    for _, u in corpus:
        vals = u.value(probe)
        assert np.all(vals[~inside_domain] == 0.0)


def test_negated_bump_gradient_is_rejected_at_registration(criterion_6_configs):
    # most of these balls hold none of the probes of [-1, 1]^3, where value,
    # gradient and differences all read 0; a declared support moves the
    # probes inside the ball, so the sign error shows for every bump
    rng = np.random.default_rng(77)
    for _, _, _, data, _, _ in criterion_6_configs:
        for _, u in domain_bump_corpus(data, rng, 20, 4.0):
            with pytest.raises(ValueError, match="central differences"):
                SmoothFunction(u.value, lambda X, u=u: -u.gradient(X),
                               dimension=u.dimension, support=u.support)


def test_mode_corpus_and_radial_constants(rs_z23, rng):
    corpus = mode_corpus(rs_z23, rng, 8, degrees=(0, 1, 2))
    assert len(corpus) == 8
    sk = sphere_weight_integral(rs_z23, sphere_rule(3, 12))
    for name, mf in corpus:
        if mf.n == 0:
            assert mf.c1 == pytest.approx(0.0, abs=1e-12)
            assert mf.c2 == pytest.approx(0.0, abs=1e-12)
            assert mf.c0 == pytest.approx(sk, rel=1e-10)
        else:
            assert mf.c0 > 0.0 and mf.c1 > 0.0


def test_separable_mode_classical_consistency(rng):
    # k = 0: c1/c0 restricted to one classical harmonic equals
    # n(n+N-2) + n^2 ... check via the known identity
    # int |grad p|^2 = (2n + N - 2) n/(2n+N-2)... simpler: Euler's relation
    # c2 = n * c0 for homogeneous p when k = 0
    from dunkl_lab.harmonics import kernel_basis
    from dunkl_lab.reflection import build_root_system

    rs = build_root_system("Z2", 3, 0)
    p = kernel_basis(rs, 2)[0]
    prof = bump_radial_profile(1.4, 0.7)
    mf = separable_mode(rs, prof, p)
    assert mf.c2 == pytest.approx(2.0 * mf.c0, rel=1e-10)


def test_separable_mode_rejects_a_non_harmonic_factor(rs_a2):
    # x0^2 is homogeneous but Delta_k x0^2 != 0 on A2 with k = 1, so the
    # Green identity behind c1 does not hold for it
    prof = bump_radial_profile(1.4, 0.7)
    with pytest.raises(ValueError, match="h-harmonic"):
        separable_mode(rs_a2, prof, variable(0, 3) ** 2)


def test_separable_mode_constants_ignore_hyperplane_jitter():
    # the constants are read on quad.weighted_sphere, which moves nodes off
    # the reflection hyperplanes itself: a pre-jittered rule changes nothing
    from dunkl_lab.harmonics import kernel_basis
    from dunkl_lab.reflection import build_root_system

    rs = build_root_system("Z2", 3, ["1/2"] * 3)
    p = kernel_basis(rs, 2)[0]
    prof = bump_radial_profile(1.4, 0.7)
    rule = sphere_rule(3, 10)
    plain = separable_mode(rs, prof, p, rule=rule)
    moved = separable_mode(rs, prof, p, rule=jitter_off_hyperplanes(rule, rs))
    assert (plain.c0, plain.c1, plain.c2) == (moved.c0, moved.c1, moved.c2)


@pytest.mark.parametrize("family, rank, k", [("A", 3, [1])], ids=["A3"])
def test_separable_mode_moments_match_nodal_sums(family, rank, k):
    # at integer k the weight is a polynomial and the default rule is exact,
    # so c0, c1, c2 (S_k times exact sphere means) must equal the sums of
    # w p^2, w |T p|^2 and w p <xi, T p> over the weighted sphere; at
    # fractional k no rule is exact (see tests/test_polyalg.py for the means)
    from dunkl_lab.harmonics import kernel_basis
    from dunkl_lab.polyalg import dunkl_gradient_sym
    from dunkl_lab.reflection import build_root_system

    rs = build_root_system(family, rank, k)
    prof = bump_radial_profile(1.4, 0.7)
    for n in range(4):
        rule = sphere_rule(rs.dimension, max(1, 2 * n + ceil(2 * rs.gamma)))
        xi, w = weighted_sphere(rs, rule)
        for p in kernel_basis(rs, n):
            mf = separable_mode(rs, prof, p, rule=rule)
            pv = p.evaluate(xi)
            G = np.column_stack([q.evaluate(xi) for q in dunkl_gradient_sym(rs, p)])
            nodal = (
                np.sum(w * pv**2),
                np.sum(w * np.sum(G**2, axis=1)),
                np.sum(w * pv * np.einsum("mi,mi->m", xi, G)),
            )
            scale = 1e-14 * (nodal[0] + nodal[1])
            for got, want in zip((mf.c0, mf.c1, mf.c2), nodal):
                assert abs(got - want) <= scale, (n, p, got, want)


def test_mode_corpus_reads_one_weighted_sphere(rs_z23, rng, monkeypatch):
    # every harmonic of a corpus shares one moment table, so omega_k is
    # evaluated on the sphere rule once per call, not once per harmonic
    import dunkl_lab.quad as quad

    calls = []
    inner = quad.weight

    def counted(rs, X):
        calls.append(len(X))
        return inner(rs, X)

    monkeypatch.setattr(quad, "weight", counted)
    mode_corpus(rs_z23, rng, 12, degrees=(0, 1, 2))
    assert len(calls) == 1


@pytest.mark.parametrize("with_rule", [False, True])
def test_mode_corpus_rejects_empty_degrees(rs_z23, rng, monkeypatch, with_rule):
    # a usage error, raised before omega_k is read on any sphere rule
    import dunkl_lab.quad as quad

    calls = []
    monkeypatch.setattr(quad, "weight", lambda rs, X: calls.append(len(X)))
    rule = sphere_rule(3, 4) if with_rule else None
    with pytest.raises(ValueError, match="at least one degree"):
        mode_corpus(rs_z23, rng, 4, degrees=(), rule=rule)
    assert calls == []
