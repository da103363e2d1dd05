from math import inf

import numpy as np
import pytest
from scipy.integrate import quad

from dunkl_lab.profiles import (
    PiecewiseProfile,
    PolyPiece,
    PowerPiece,
    hardy_p_profile,
    integrate_profile_expression,
    mollified_power_profile,
    step_power_profile,
)
from dunkl_lab import quad as dl_quad
from dunkl_lab.inequalities import oracle_quotient
from dunkl_lab.quad import DivergenceError


def test_contiguity_enforced():
    with pytest.raises(ValueError):
        PiecewiseProfile(
            [PowerPiece(0.0, 1.0, 1.0, 0.0), PowerPiece(1.5, inf, 1.0, -2.0)]
        )


def test_value_integral_against_scipy():
    prof = hardy_p_profile(8.0, 6.0, 0.1)
    got = prof.integral_value_power(8.0, -3.0)
    oracle = quad(lambda r: prof.value(r) ** 8 * r**-3.0, 0.0, 1.0)[0]
    oracle += quad(lambda r: r**-3.0, 1.0, np.inf)[0]
    assert got == pytest.approx(oracle, rel=1e-9)


def test_deriv_integral_against_scipy():
    prof = step_power_profile(-3.0)
    got = prof.integral_deriv_power(2.0, 4.0)
    oracle = quad(lambda r: (3.0 * r**-4.0) ** 2 * r**4.0, 1.0, np.inf)[0]
    assert got == pytest.approx(oracle, rel=1e-10)


def test_divergence_detected():
    prof = step_power_profile(-1.0)
    with pytest.raises(DivergenceError):
        prof.integral_value_power(2.0, 1.0)  # tail ~ r^-2 * r = r^-1
    with pytest.raises(DivergenceError):
        prof.integral_value_power(2.0, -1.0)  # head ~ r^-1


def test_mollified_profile_is_c2():
    for power in (-2.5, -3.5):
        prof = mollified_power_profile(power)
        for x in (0.75, 1.25):
            lo, hi = x - 1e-7, x + 1e-7
            assert prof.value(lo) == pytest.approx(prof.value(hi), abs=1e-5)
            assert prof.deriv(lo) == pytest.approx(prof.deriv(hi), abs=1e-4)
            assert prof.deriv2(lo) == pytest.approx(prof.deriv2(hi), abs=1e-3)


def test_mollified_laplacian_integral_finite():
    prof = mollified_power_profile(-2.6)
    val = prof.integral_laplacian_sq(8.0, 9.0)
    assert np.isfinite(val) and val > 0.0


def test_hardy_profile_validation():
    with pytest.raises(ValueError):
        hardy_p_profile(5.0, 6.0, 0.1)  # needs p > nbar


def test_integrate_profile_expression_requires_compact_support():
    prof = step_power_profile(-3.0)
    with pytest.raises(ValueError):
        integrate_profile_expression(prof, lambda r: r, 0.0)


def test_closed_form_matches_quadrature_on_poly_piece():
    prof = mollified_power_profile(-3.0)
    got = prof.integral_value_power(2.0, 4.0)
    oracle = quad(lambda r: prof.value(r) ** 2 * r**4.0, 0.0, 1.25,
                  points=[0.75])[0]
    oracle += quad(lambda r: prof.value(r) ** 2 * r**4.0, 1.25, np.inf)[0]
    assert got == pytest.approx(oracle, rel=1e-9)


def test_gauss_rule_is_built_once(monkeypatch):
    # profile integrals reuse quad's cached Gauss-Legendre rule
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n)
    )
    dl_quad._leggauss.cache_clear()
    oracle_quotient("rellich", 9.0, 0.01)
    first = len(calls)
    oracle_quotient("rellich", 9.0, 0.01)
    assert first == 1
    assert len(calls) == first


def test_poly_piece_derivatives_are_built_once(monkeypatch):
    from dunkl_lab.corpus import bump_radial_profile

    pieces = [pc for prof in (mollified_power_profile(-3.0),
                              bump_radial_profile(1.4, 0.7))
              for pc in prof.pieces if isinstance(pc, PolyPiece)]
    assert len(pieces) == 2
    calls = []
    deriv = np.polynomial.Polynomial.deriv
    monkeypatch.setattr(np.polynomial.Polynomial, "deriv",
                        lambda self, m=1: calls.append(m) or deriv(self, m))
    grids = [np.linspace(pc.lo, pc.hi, 41) for pc in pieces]
    got = [[(pc.deriv(r), pc.deriv2(r)) for _ in range(2)]
           for pc, r in zip(pieces, grids)]
    assert not calls
    for pc, r, values in zip(pieces, grids, got):
        for d1, d2 in values:
            # bit for bit the derivatives numpy builds on demand
            assert np.all(d1 == pc.poly.deriv(1)(r))
            assert np.all(d2 == pc.poly.deriv(2)(r))
        assert repr(pc) == f"PolyPiece(lo={pc.lo!r}, hi={pc.hi!r}, poly={pc.poly!r})"
