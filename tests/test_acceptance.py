"""End-to-end acceptance gate.

Each test pins one headline requirement: sharp-constant sweeps for the five
Rayleigh functionals, corpus lower bounds, domain remainder identities, the
exact symbolic identity suite, h-harmonic structure, geometry, the radial
mode-coefficient algebra, and oracle/quadrature equivalence.  Tolerances and
runtime budgets are asserted explicitly.
"""

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from dunkl_lab.corpus import domain_bump_corpus, mode_corpus
from dunkl_lab.domains import DomainSpec, distance_data
from dunkl_lab.harmonics import (
    hharmonic_dim,
    kernel_basis,
    parseval_residual,
    build_basis,
    expand,
)
from dunkl_lab.inequalities import (
    hardy_eps_check,
    hardy_remainder_check,
    mode_coefficients,
    mode_quotient,
    sharp_constant,
    sharpness_sweep,
)
from dunkl_lab.polyalg import (
    Polynomial,
    dunkl_laplacian_fast,
    identity_checks,
    norm_squared,
)
from dunkl_lab.quad import RadialGrid, jitter_off_hyperplanes, sphere_rule
from dunkl_lab.reflection import (
    build_root_system,
    embed_root_system,
    generate_group,
    reflection_matrix,
)
from oracles import equivariance_check


@lru_cache(maxsize=None)
def _sweep(kind, N, gamma, p=None):
    return sharpness_sweep(kind, N, gamma, p=p)


# the sweeps of criteria 1-5 as (N, gamma, p) per functional; criterion 11
# re-reads them through the cache; hardy_p runs at p = Nbar+1, Nbar+2 and 5
SWEEPS = {
    "hardy_p": ((3, 0.5, 5.0), (3, 1.0, 7.0), (4, 0.0, 5.0)),
    "hardy_2": ((3, 0.5, None), (3, 1.0, None), (4, 0.0, None)),
    "rellich": ((5, 0.0, None), (5, 0.5, None), (6, 1.0, None)),
    "weighted_hr": ((5, 0.0, None), (5, 1.0, None)),
    "hardy_rellich": ((5, 0.0, None), (7, 1.0, None)),
}


# -- 1. sharp L^p Hardy ------------------------------------------------------


def test_criterion_1_sharp_lp_hardy():
    for N, gamma, p in SWEEPS["hardy_p"]:
        nbar = N + 2.0 * gamma
        start = time.monotonic()
        sweep = _sweep("hardy_p", N, gamma, p)
        assert time.monotonic() - start < 10.0
        target = ((p - nbar) / p) ** p
        assert sweep.target == pytest.approx(target, rel=1e-14)
        assert abs(sweep.extrapolated_oracle - target) / target < 0.01
        assert abs(sweep.extrapolated_quadrature - target) / target < 0.015
        assert sweep.converged


# -- 2. sharp L^2 Hardy ------------------------------------------------------


def test_criterion_2_sharp_l2_hardy():
    start = time.monotonic()
    for N, gamma, p in SWEEPS["hardy_2"]:
        nbar = N + 2.0 * gamma
        sweep = _sweep("hardy_2", N, gamma, p)
        target = ((nbar - 2.0) / 2.0) ** 2
        assert abs(sweep.extrapolated_oracle - target) / target < 0.01
        assert sweep.converged
    assert time.monotonic() - start < 5.0


# -- 3. Rellich --------------------------------------------------------------


def test_criterion_3_rellich():
    start = time.monotonic()
    for N, gamma, p in SWEEPS["rellich"]:
        nbar = N + 2.0 * gamma
        sweep = _sweep("rellich", N, gamma, p)
        target = nbar**2 * (nbar - 4.0) ** 2 / 16.0
        assert abs(sweep.extrapolated_oracle - target) / target < 0.02
        assert sweep.converged
    assert time.monotonic() - start < 20.0


# -- 4. weighted Hardy-Rellich -----------------------------------------------


def test_criterion_4_weighted_hardy_rellich():
    start = time.monotonic()
    configs = {
        (5, 0.0): build_root_system("Z2", 5, 0),
        (5, 1.0): build_root_system("Z2", 5, [1, 0, 0, 0, 0]),
    }
    rng = np.random.default_rng(2024)
    for N, gamma, p in SWEEPS["weighted_hr"]:
        rs = configs[N, gamma]
        nbar = N + 2.0 * gamma
        sweep = _sweep("weighted_hr", N, gamma, p)
        target = (nbar - 2.0) ** 2 / 4.0
        assert abs(sweep.extrapolated_oracle - target) / target < 0.02
        assert sweep.converged
        corpus = mode_corpus(rs, rng, 50, degrees=(0, 1, 2, 3),
                             rule=sphere_rule(5, 10))
        assert len(corpus) == 50
        for name, mf in corpus:
            q = mode_quotient(mf, "weighted_hr")
            assert q >= target - 1e-6, (name, q)
    assert time.monotonic() - start < 60.0


# -- 5. Hardy-Rellich --------------------------------------------------------


def test_criterion_5_hardy_rellich():
    start = time.monotonic()
    configs = {
        (5, 0.0): (build_root_system("Z2", 5, 0), (0, 1, 2, 3),
                   sphere_rule(5, 10)),
        (7, 1.0): (build_root_system("Z2", 7, [1, 0, 0, 0, 0, 0, 0]),
                   (0, 1, 2), sphere_rule(7, 6)),
    }
    rng = np.random.default_rng(2025)
    for N, gamma, p in SWEEPS["hardy_rellich"]:
        rs, degrees, rule = configs[N, gamma]
        assert N >= 5 + 2 * gamma
        nbar = N + 2.0 * gamma
        sweep = _sweep("hardy_rellich", N, gamma, p)
        target = nbar**2 / 4.0
        assert abs(sweep.extrapolated_oracle - target) / target < 0.02
        assert sweep.converged
        corpus = mode_corpus(rs, rng, 50, degrees=degrees, rule=rule)
        for name, mf in corpus:
            q = mode_quotient(mf, "hardy_rellich")
            assert q >= target - 1e-6, (name, q)
    assert time.monotonic() - start < 60.0


# -- 6. distance-function Hardy on invariant domains --------------------------


def test_criterion_6_domain_remainder_reports(criterion_6_configs):
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for _, spec, rs, data, grid, rule in criterion_6_configs:
        corpus = domain_bump_corpus(data, rng, 20, 4.0)
        nbar = 3 + 2.0 * float(rs.gamma)
        for p in (2.0, nbar + 1.0):
            report = hardy_remainder_check(rs, corpus, spec, p, grid, rule)
            assert report.passed, (spec.kind, p, report.entries[:3])
            report2 = hardy_eps_check(rs, corpus, spec, p, 0.7, grid, rule)
            assert report2.passed, (spec.kind, p, report2.entries[:3])
    assert time.monotonic() - start < 15.0


# -- 7. exact identity suite --------------------------------------------------


def _identity_corpus(rng, N, count, degree=3):
    from dunkl_lab.harmonics import homogeneous_exponents

    polys = []
    for _ in range(count):
        p = Polynomial(N)
        for d in range(degree + 1):
            for e in homogeneous_exponents(d, N):
                c = int(rng.integers(-2, 3))
                if c:
                    p = p + Polynomial(N, {e: Fraction(c)})
        if p.is_zero():
            p = norm_squared(N)
        polys.append(p)
    return polys


def test_criterion_7_exact_identities():
    start = time.monotonic()
    rng = np.random.default_rng(3141)
    systems = [
        build_root_system("A", 2, 1),
        build_root_system("A", 3, 1),
        build_root_system("B", 2, 1),
        build_root_system("Z2", 3, 1),
        build_root_system("I2", 4, 1),
    ]
    total = 0
    for rs in systems:
        polys = _identity_corpus(rng, rs.dimension, 20)
        total += len(polys)
        entries = identity_checks(rs, polys)
        assert len(entries) == 6 * len(polys)
        for name, ok, residual in entries:
            assert ok and residual == 0.0, (rs.family, name)
    assert total == 100
    assert time.monotonic() - start < 30.0


# -- 8. h-harmonic structure ---------------------------------------------------


def test_criterion_8_hharmonics():
    start = time.monotonic()
    rng = np.random.default_rng(999)
    mult_choices = [0, Fraction(1, 2), 1,
                    Fraction(int(rng.integers(1, 12)), 7)]
    for N in (2, 3, 4):
        for k in mult_choices:
            rs = build_root_system("Z2", N, k)
            nbar = Fraction(N) + 2 * rs.gamma
            for n in range(0, 7):
                if n == 0:
                    assert hharmonic_dim(0, N) == 1
                    continue
                basis = kernel_basis(rs, n)  # raises if dim != d(n)
                assert len(basis) == hharmonic_dim(n, N)
                p = basis[0]
                assert dunkl_laplacian_fast(rs, p).is_zero()
                # exact eigenvalue relation on the sphere restriction
                from dunkl_lab.harmonics import sphere_eigencheck

                assert sphere_eigencheck(rs, p).is_zero()
    # Parseval on a damped-polynomial corpus
    from dunkl_lab.corpus import random_damped_polynomial

    rs = build_root_system("A", 2, 1)
    rule = jitter_off_hyperplanes(sphere_rule(3, 18), rs)
    bases = [build_basis(rs, n, rule) for n in range(0, 7)]
    grid = RadialGrid((0.0, 1.0, 2.0, 3.5, 5.0, 7.0), nodes_per_interval=40)
    for _ in range(3):
        u = random_damped_polynomial(rng, 3, 3)
        coeffs = expand(rs, u, bases, grid, rule)
        assert parseval_residual(rs, u, coeffs, grid, rule) < 1e-5
    assert time.monotonic() - start < 120.0


# -- 9. geometry ---------------------------------------------------------------


def test_criterion_9_geometry():
    start = time.monotonic()
    orders = {("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("Z2", 3): 8,
              ("I2", 4): 8}
    for (family, rank), order in orders.items():
        rs = build_root_system(family, rank, 1)
        assert len(generate_group(rs)) == order
        for root in rs.positive_roots:
            assert np.linalg.det(reflection_matrix(root)) == pytest.approx(
                -1.0, abs=1e-12)
    rs = build_root_system("A", 2, 1)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3)) + np.array([0.2, 1.1, 2.3])
    r = np.linalg.norm(X, axis=1)
    gamma = float(rs.gamma)
    ball = DomainSpec("exterior_ball", 3, radius=0.1)
    pairing = distance_data(ball, rs).rho_pairing(X)
    assert np.max(np.abs(pairing - 2.0 * gamma / r)) < 1e-12
    wedge = DomainSpec("wedge_SN", 3)
    assert np.max(np.abs(distance_data(wedge, rs).rho_pairing(X))) < 1e-12
    half_rs = embed_root_system(build_root_system("Z2", 2, 1), 3)
    half = DomainSpec("halfspace", 3, axis=2)
    assert np.max(np.abs(distance_data(half, half_rs).rho_pairing(X))) < 1e-12
    for spec, sys in ((ball, rs), (wedge, rs), (half, half_rs)):
        assert equivariance_check(spec, sys, X) < 1e-12
    assert time.monotonic() - start < 5.0


# -- 10. exact mode algebra ------------------------------------------------------


def test_criterion_10_mode_algebra():
    start = time.monotonic()
    for gamma in (0, Fraction(1, 2), 1, 2):
        for N in range(2, 10):
            if N < 5 + 2 * gamma:
                continue
            nbar = Fraction(N) + 2 * Fraction(gamma)
            C = nbar**2 / 4
            assert mode_coefficients(N, gamma, 0, C).b_n == 0
            d1 = mode_coefficients(N, gamma, 1, C).d_n
            assert d1 == ((N - 5 - 2 * Fraction(gamma)) * nbar**2 + 4) / 4
            assert d1 >= 0
            d2 = mode_coefficients(N, gamma, 2, C).d_n
            assert d2 == 2 * N * nbar**2 / 4
            assert d2 >= 0
            for n in range(3, 11):
                assert mode_coefficients(N, gamma, n, C).d_n >= d2
    assert time.monotonic() - start < 1.0


# -- 11. oracle equivalence ------------------------------------------------------


def test_criterion_11_oracle_equivalence():
    # every sweep of criteria 1-5 must match its closed-form oracle to 1e-6
    # relative at each epsilon (sharpness_sweep raises
    # OracleMismatchError otherwise); re-assert the agreements
    for kind, cases in SWEEPS.items():
        for N, gamma, p in cases:
            sweep = _sweep(kind, N, gamma, p)
            assert sweep.oracle_agreement <= 1e-6
            assert min(sweep.epsilons) >= 1e-3
