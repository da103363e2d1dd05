import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dunkl_lab.corpus import (
    bump_radial_profile,
    domain_bump_corpus,
    mode_function,
    separable_mode,
)
from dunkl_lab.domains import DomainSpec, distance_data
from dunkl_lab.harmonics import kernel_basis
from dunkl_lab.inequalities import (
    EPSILONS,
    FUNCTIONALS,
    DegenerateInputError,
    ModeFunction,
    extrapolate_to_zero,
    hardy_eps_check,
    hardy_remainder_check,
    mode_coefficients,
    mode_quotient,
    oracle_quotient,
    quadrature_quotient,
    sharp_constant,
    sharpness_sweep,
)
from dunkl_lab.polyalg import Polynomial
from dunkl_lab.profiles import step_power_profile
from dunkl_lab.quad import RadialGrid, integrate_measure
from oracles import full_space_quotient


def _const_poly(N):
    return Polynomial(N, {(0,) * N: Fraction(1)})


def test_sharp_constant_values():
    assert sharp_constant("hardy_2", 9.0) == pytest.approx(12.25)
    assert sharp_constant("rellich", 9.0) == pytest.approx(81.0 * 25.0 / 16.0)
    assert sharp_constant("weighted_hr", 9.0) == pytest.approx(12.25)
    assert sharp_constant("hardy_rellich", 9.0) == pytest.approx(20.25)
    assert sharp_constant("hardy_p", 6.0, 8.0) == pytest.approx((2.0 / 8.0) ** 8)


def test_extrapolation_exact_on_polynomials():
    xs = [0.3, 0.1, 0.03]
    ys = [5.0 + 2.0 * x + 7.0 * x**2 for x in xs]
    assert extrapolate_to_zero(xs, ys) == pytest.approx(5.0, abs=1e-10)


def test_hardy_2_quotient_closed_form():
    # the step-power family gives target + (nbar-2)/4 * eps exactly
    nbar = 9.0
    for eps in (0.3, 0.01):
        q = oracle_quotient("hardy_2", nbar, eps)
        assert q == pytest.approx(
            sharp_constant("hardy_2", nbar) + (nbar - 2.0) / 4.0 * eps,
            rel=1e-12,
        )


@pytest.mark.parametrize("kind", FUNCTIONALS)
def test_oracle_and_quadrature_paths_agree(kind):
    nbar = 9.0
    p = nbar + 1.0 if kind == "hardy_p" else None
    for eps in (0.3, 0.01, 0.001):
        qo = oracle_quotient(kind, nbar, eps, p)
        qq = quadrature_quotient(kind, nbar, eps, p)
        assert abs(qo - qq) / qo < 1e-6


FUNCTIONAL_RULES = [("hardy_p", "p > nbar", None), ("hardy_2", "nbar > 2", 2.0),
                    ("rellich", "nbar > 4", 4.0), ("weighted_hr", "nbar > 2", 2.0),
                    ("hardy_rellich", "nbar > 4", 4.0)]


def test_every_functional_has_a_stated_rule():
    assert [kind for kind, _, _ in FUNCTIONAL_RULES] == list(FUNCTIONALS)


@pytest.mark.parametrize("kind, rule, threshold", FUNCTIONAL_RULES,
                         ids=[kind for kind, _, _ in FUNCTIONAL_RULES])
def test_each_functional_is_admissible_just_above_its_threshold(kind, rule,
                                                                 threshold):
    f = FUNCTIONALS[kind]
    assert f.rule == rule
    if threshold is None:  # p > nbar
        assert not f.admissible(5.0, 5.0) and f.admissible(5.0, 5.0 + 1e-9)
        with pytest.raises(ValueError, match=f"{kind} needs p > nbar"):
            sharpness_sweep(kind, 3, 1.0, p=5.0)
    else:
        assert not f.admissible(threshold, None)
        assert f.admissible(threshold + 1e-9, None)
        # N = 2, gamma = (threshold - 2) / 2: nbar is the threshold itself
        with pytest.raises(ValueError, match=f"{kind} needs {rule} "):
            sharpness_sweep(kind, 2, (threshold - 2.0) / 2.0)


def test_sweep_converges_and_is_monotone():
    sweep = sharpness_sweep("hardy_2", 3, 1.0)
    assert sweep.converged
    assert sweep.rel_gap < 0.01
    assert all(
        b <= a + 1e-10 for a, b in zip(sweep.quotients_oracle,
                                       sweep.quotients_oracle[1:])
    )
    rows = sweep.csv_rows()
    assert len(rows) == len(EPSILONS)
    assert all(len(r) == 5 for r in rows)


def test_sweep_rejects_bad_epsilons():
    with pytest.raises(ValueError):
        sharpness_sweep("hardy_p", 3, 0.0, p=2.0)  # needs p > nbar
    with pytest.raises(ValueError):
        sharpness_sweep("weighted_hr", 2, 0.0)  # needs nbar > 2
    with pytest.raises(ValueError):
        sharpness_sweep("bogus", 3, 0.0)


def test_mode_coefficients_exact():
    for N, g in ((5, 0), (7, 1), (6, Fraction(1, 2))):
        nbar = Fraction(N) + 2 * Fraction(g)
        C = nbar**2 / 4
        co0 = mode_coefficients(N, g, 0, C)
        assert co0.b_n == 0
        co1 = mode_coefficients(N, g, 1, C)
        assert co1.d_n == ((N - 5 - 2 * Fraction(g)) * nbar**2 + 4) / 4
        co2 = mode_coefficients(N, g, 2, C)
        assert co2.d_n == 2 * N * nbar**2 / 4


def test_mode_reduction_matches_full_quadrature(rs_a2, rule_a2):
    """The 1-D single-mode reduction must agree with full 3-D quadrature
    for every quotient, including the r^-2-weighted gradient denominator
    whose naive polar split would miss the reflection cross terms."""
    grid = RadialGrid((0.0, 0.6, 1.0, 1.5, 2.4, 3.0), nodes_per_interval=48)
    prof = bump_radial_profile(1.5, 0.9)
    for n in (0, 1, 2):
        p = _const_poly(3) if n == 0 else kernel_basis(rs_a2, n)[0]
        mf = separable_mode(rs_a2, prof, p)
        u = mode_function(prof, p)
        for kind in ("hardy_2", "rellich", "weighted_hr", "hardy_rellich"):
            full = full_space_quotient(rs_a2, u, kind, grid, rule_a2)
            assert mode_quotient(mf, kind) == pytest.approx(full, rel=1e-10)
        # the L^p row at p = 2 is the L^2 row
        assert full_space_quotient(
            rs_a2, u, "hardy_p", grid, rule_a2, p=2.0
        ) == pytest.approx(mode_quotient(mf, "hardy_2"), rel=1e-10)


def test_mode_function_needs_compact_profile():
    # the closed-form reduction drops boundary terms at 0 and infinity
    with pytest.raises(ValueError, match="vanish"):
        ModeFunction(1, step_power_profile(-3.0), 5.0, 1.0, 1.0, 1.0)


def test_quotients_scale_invariant(rs_a2):
    prof_a = bump_radial_profile(1.5, 0.9)
    prof_b = bump_radial_profile(3.0, 1.8)  # u(x/2)
    p = kernel_basis(rs_a2, 1)[0]
    mf_a = separable_mode(rs_a2, prof_a, p)
    mf_b = separable_mode(rs_a2, prof_b, p)
    for kind in ("hardy_2", "rellich", "weighted_hr", "hardy_rellich"):
        assert mode_quotient(mf_a, kind) == pytest.approx(
            mode_quotient(mf_b, kind), rel=1e-8
        )
    # constant rescaling is exact by homogeneity of both integrals
    mf_c = separable_mode(rs_a2, prof_a, p * 5)
    assert mode_quotient(mf_c, "rellich") == pytest.approx(
        mode_quotient(mf_a, "rellich"), rel=1e-12
    )


def test_mode_quotients_respect_sharp_constants(rs_a2):
    nbar = 3 + 2.0 * float(rs_a2.gamma)
    prof = bump_radial_profile(1.2, 0.7)
    for n in (0, 1, 2):
        p = _const_poly(3) if n == 0 else kernel_basis(rs_a2, n)[0]
        mf = separable_mode(rs_a2, prof, p)
        for kind in ("hardy_2", "rellich", "weighted_hr", "hardy_rellich"):
            assert mode_quotient(mf, kind) >= sharp_constant(kind, nbar) - 1e-9


def test_domain_remainder_and_eps_checks(rs_a2, rule_a2):
    from dunkl_lab.corpus import domain_bump_corpus

    rng = np.random.default_rng(42)
    spec = DomainSpec("exterior_ball", 3, radius=1.0)
    data = distance_data(spec, rs_a2)
    grid = RadialGrid((1.0, 1.5, 2.25, 3.0, 4.0), nodes_per_interval=40)
    corpus = domain_bump_corpus(data, rng, 4, 4.0)
    nbar = 3 + 2.0 * float(rs_a2.gamma)
    for p in (2.0, nbar + 1.0):
        rep = hardy_remainder_check(
            rs_a2, corpus, spec, p, grid, rule_a2
        )
        assert rep.passed, rep.entries
        rep2 = hardy_eps_check(rs_a2, corpus, spec, p, 0.7, grid, rule_a2)
        assert rep2.passed, rep2.entries


@pytest.mark.parametrize("check", ["remainder", "eps"])
def test_domain_extra_term_lowers_rhs(rs_a2, rule_a2, check):
    """On the A2 exterior ball <rho, grad delta> = 2 gamma/r > 0 and
    lap delta, lap_k delta > 0, so each check's extra term is negative and
    its right-hand side lies strictly below the |u|^p/delta^p term alone."""
    from dunkl_lab.corpus import domain_bump_corpus

    spec = DomainSpec("exterior_ball", 3, radius=1.0)
    data = distance_data(spec, rs_a2)
    grid = RadialGrid((1.0, 1.5, 2.25, 3.0, 4.0), nodes_per_interval=40)
    corpus = domain_bump_corpus(data, np.random.default_rng(42), 4, 4.0)
    nbar = 3 + 2.0 * float(rs_a2.gamma)
    eps = 0.7
    for p in (2.0, nbar + 1.0):
        if check == "remainder":
            rep = hardy_remainder_check(rs_a2, corpus, spec, p, grid, rule_a2)
            coef = ((p - 1.0) / p) ** p
        else:
            rep = hardy_eps_check(rs_a2, corpus, spec, p, eps, grid, rule_a2)
            coef = (p - 1.0) * (eps ** (-p) - eps ** (-(p**2) / (p - 1.0)))
        for (name, u), entry in zip(corpus, rep.entries):
            t_p = integrate_measure(
                rs_a2,
                lambda X: np.abs(u.value(X)) ** p / data.delta(X) ** p,
                grid,
                rule_a2,
            ).value
            assert entry["rhs"] < coef * t_p, (name, p, entry)


def _domain_reports(rs, corpus, spec, grid, rule):
    nbar = 3 + 2.0 * float(rs.gamma)
    for p in (2.0, nbar + 1.0):
        yield hardy_remainder_check(rs, corpus, spec, p, grid, rule)
        yield hardy_eps_check(rs, corpus, spec, p, 0.7, grid, rule)


def test_domain_checks_on_the_support_match_the_whole_grid(criterion_6_configs):
    """Skipping the points outside the bumps' balls and their mirror images
    changes no entry: every lhs, rhs and tolerance is bit-for-bit that of the
    same bumps without a declared support, evaluated on the whole grid."""
    rng = np.random.default_rng(5)
    for _, spec, rs, data, grid, rule in criterion_6_configs:
        corpus = domain_bump_corpus(data, rng, 3, 4.0)
        assert all(u.support is not None for _, u in corpus)
        whole = [(name, dataclasses.replace(u, support=None, check=False))
                 for name, u in corpus]
        for fast, slow in zip(_domain_reports(rs, corpus, spec, grid, rule),
                              _domain_reports(rs, whole, spec, grid, rule)):
            assert fast == slow, fast.check_id


def test_domain_check_reads_the_mirror_balls(criterion_6_configs, monkeypatch):
    """On wedge/A2 the mirror images lie outside the domain, where the
    reflection differences of grad_k u are all that is nonzero: dropping
    them lowers every lhs and leaves every rhs."""
    import dunkl_lab.inequalities as inequalities

    _, spec, rs, data, grid, rule = next(
        c for c in criterion_6_configs if c[0] == "wedge/A2"
    )
    corpus = domain_bump_corpus(data, np.random.default_rng(6), 3, 4.0)
    full = list(_domain_reports(rs, corpus, spec, grid, rule))
    monkeypatch.setattr(inequalities, "dunkl_support", lambda rs, u: [u.support])
    own = list(_domain_reports(rs, corpus, spec, grid, rule))
    for a, b in zip(full, own):
        for e, f in zip(a.entries, b.entries):
            assert f["lhs"] < e["lhs"] and f["rhs"] == e["rhs"], (a.check_id, e)


def test_degenerate_denominator_raises():
    # a mode whose sphere constants all vanish has every integral 0
    mf = ModeFunction(1, bump_radial_profile(1.5, 0.9), 5.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateInputError):
        mode_quotient(mf, "rellich")
