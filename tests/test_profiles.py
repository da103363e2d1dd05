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
from dunkl_lab import profiles
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


def test_gauss_rule_is_built_once():
    # profile integrals reuse quad's cached Gauss-Legendre rule; a cache miss
    # of quad._jacobi is one rule built
    dl_quad._jacobi.cache_clear()
    oracle_quotient("rellich", 9.0, 0.01)
    first = dl_quad._jacobi.cache_info().misses
    oracle_quotient("rellich", 9.0, 0.01)
    assert first == 1
    assert dl_quad._jacobi.cache_info().misses == first


def _numpy_oracle(pc):
    # numpy's Polynomial, its derivatives and its domain map serve only as
    # the oracle of a piece
    if (pc.off, pc.scl) == (0.0, 1.0):
        poly = np.polynomial.Polynomial(pc.coef)
    else:
        poly = np.polynomial.Polynomial(pc.coef, domain=[pc.lo, pc.hi])
    assert poly.mapparms() == (pc.off, pc.scl)
    return poly, poly.deriv(1), poly.deriv(2)


def _poly_pieces():
    from dunkl_lab.corpus import bump_radial_profile

    pieces = [pc for prof in (mollified_power_profile(-3.0),
                              bump_radial_profile(1.4, 0.7))
              for pc in prof.pieces if isinstance(pc, PolyPiece)]
    assert len(pieces) == 2
    return pieces


def test_poly_piece_derivatives_are_built_once(monkeypatch):
    pieces = _poly_pieces()
    calls = []
    derivative = profiles._derivative
    monkeypatch.setattr(profiles, "_derivative",
                        lambda c, scl: calls.append(c) or derivative(c, scl))
    grids = [np.linspace(pc.lo, pc.hi, 41) for pc in pieces]
    got = [[(pc.value(r), pc.deriv(r), pc.deriv2(r)) for _ in range(2)]
           for pc, r in zip(pieces, grids)]
    assert not calls
    PolyPiece(pieces[1].lo, pieces[1].hi, pieces[1].coef, pieces[1].off,
              pieces[1].scl)
    assert len(calls) == 2  # g' and g'' tables, at construction
    for pc, r, values in zip(pieces, grids, got):
        poly, d1, d2 = _numpy_oracle(pc)
        for g, g1, g2 in values:
            # bit for bit numpy's evaluation of the same polynomial
            assert np.all(g == poly(r))
            assert np.all(g1 == d1(r))
            assert np.all(g2 == d2(r))
        assert repr(pc) == (f"PolyPiece(lo={pc.lo!r}, hi={pc.hi!r}, "
                            f"coef={pc.coef!r}, off={pc.off!r}, "
                            f"scl={pc.scl!r})")


def _masked_eval(prof, r, attr):
    # per-piece reference: the first piece closed at lo, every other
    # (lo, hi], each evaluated on its own points, 0 elsewhere
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    for i, pc in enumerate(prof.pieces):
        above = r >= pc.lo if i == 0 else r > pc.lo
        mask = above & (r <= pc.hi)
        if np.any(mask):
            out[mask] = getattr(pc, attr)(r[mask])
    return out


# r^a with a < 2 has an infinite derivative at 0, on both paths
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("attr", ["value", "deriv", "deriv2"])
def test_eval_picks_the_piece_of_each_point(attr, rng):
    from dunkl_lab.corpus import bump_radial_profile

    compact = PiecewiseProfile([PowerPiece(0.0, 0.5, 2.0, 0.0),
                                PowerPiece(0.5, 1.0, 3.0, 1.5),
                                PolyPiece(1.0, 2.0, (3.0, -1.0, 0.5))])
    for prof in (mollified_power_profile(-3.0), bump_radial_profile(1.4, 0.7),
                 hardy_p_profile(8.0, 6.0, 0.1), compact):
        field = getattr(prof, attr)
        ends = [pc.hi for pc in prof.pieces[:-1]]
        last = prof.pieces[-1].hi
        past = [last + 0.5] if last != inf else [1e6]
        singles = [0.0, -0.5, *ends, *past]
        for x in singles:
            got = field(x)
            assert isinstance(got, float)
            assert got == _masked_eval(prof, x, attr)[0], (prof, x)
        assert field(-0.5) == 0.0
        if last != inf:
            assert field(last + 0.5) == 0.0
        # the point on a breakpoint belongs to the piece on its left
        for pc, x in zip(prof.pieces, ends):
            assert field(x) == float(getattr(pc, attr)(np.array([x]))[0])
        # one batch over every piece, in random order
        hi = max(prof.breakpoints) + 1.0
        batch = np.concatenate([np.linspace(-0.5, hi, 301), singles])
        batch = rng.permutation(batch)
        assert np.array_equal(field(batch), _masked_eval(prof, batch, attr))
        # a batch inside one piece is that piece on the whole array
        pc = prof.pieces[1]
        inner = np.linspace(pc.lo, min(pc.hi, pc.lo + 1.0), 50)[1:]
        assert np.array_equal(field(inner), getattr(pc, attr)(inner))


def test_piece_integrals_are_legendre_integrals_on_a_cached_panel(monkeypatch):
    from dunkl_lab.corpus import bump_radial_profile

    nbar, n = 9.0, profiles._GL_POINTS
    for prof in (mollified_power_profile(-3.0), bump_radial_profile(1.4, 0.7)):
        (pc,) = [pc for pc in prof.pieces if isinstance(pc, PolyPiece)]
        fields = {
            "value": lambda r: np.abs(pc.value(r)) ** 3.0,
            "deriv": lambda r: np.abs(pc.deriv(r)) ** 2.0,
            "laplacian": lambda r: np.abs(
                pc.deriv2(r) + (nbar - 1.0) * pc.deriv(r) / r) ** 2.0,
        }
        expected = {kind: dl_quad.legendre_integral(f, 4.0, pc.lo, pc.hi, n)
                    for kind, f in fields.items()}
        alone = PiecewiseProfile([pc])
        integrals = {
            "value": lambda p: p.integral_value_power(3.0, 4.0),
            "deriv": lambda p: p.integral_deriv_power(2.0, 4.0),
            "laplacian": lambda p: p.integral_laplacian_sq(4.0, nbar),
        }
        first = {kind: f(alone) for kind, f in integrals.items()}
        assert first == expected
        # the whole profile adds its closed-form power pieces around it
        for kind, f in integrals.items():
            assert f(prof) == sum(
                f(PiecewiseProfile([q])) for q in prof.pieces)
        # called again: the same panel, no new Horner evaluation
        calls = []
        horner = profiles._horner
        monkeypatch.setattr(profiles, "_horner",
                            lambda c, t: calls.append(c) or horner(c, t))
        assert {kind: f(alone) for kind, f in integrals.items()} == first
        assert not calls
        monkeypatch.undo()
