"""Inequality functionals, sharpness sweeps, and remainder-term checks.

``FUNCTIONALS`` is the single description of the five functionals (L^p
Hardy, L^2 Hardy, Rellich, weighted Hardy-Rellich, Hardy-Rellich): one row
each holds the sharp constant in the effective dimension nbar = N + 2*gamma,
the threshold of its admissible range, whether its extremizer is mollified,
and the numerator and denominator as ``Term`` records.  The admissibility
rule and the extremizer family follow from the threshold.  Constants,
extremizers, the closed-form, quadrature and single-mode quotients and the
sweep's admissibility check all read that row.

Sweeps evaluate each quotient twice per epsilon, once from closed-form power
integrals and once by weighted quadrature on the same profile; the two paths
must agree to 1e-6 before the extrapolated limit is compared to the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .domains import DomainSpec, distance_data
from .dunklnum import dunkl_gradient, dunkl_support
from .profiles import (
    PiecewiseProfile,
    _is_zero_piece,
    hardy_p_profile,
    mollified_power_profile,
    step_power_profile,
)
from .quad import RadialGrid, SphericalRule, integrate_measure, integrate_radial
from .reflection import RootSystem

__all__ = [
    "FUNCTIONALS",
    "Functional",
    "Term",
    "RayleighSweep",
    "ModeCoefficients",
    "ModeFunction",
    "VerificationReport",
    "OracleMismatchError",
    "DegenerateInputError",
    "sharp_constant",
    "oracle_quotient",
    "quadrature_quotient",
    "extrapolate_to_zero",
    "sharpness_sweep",
    "mode_coefficients",
    "mode_quotient",
    "hardy_remainder_check",
    "hardy_eps_check",
]

EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)  # every sweep's schedule
QUAD_NODES = 48  # Gauss nodes per panel of a sweep's radial grid
ORACLE_AGREEMENT_RTOL = 1e-6
DOMAIN_RTOL = 1e-6  # domain checks: relative slack on top of quad error


class OracleMismatchError(ArithmeticError):
    """Closed-form and quadrature quotients disagree beyond tolerance."""


class DegenerateInputError(ValueError):
    """A quotient denominator vanished."""


@dataclass(frozen=True)
class Term:
    """One side of a quotient: int ||x|^k F u|^q dmu, F one of value, Dunkl
    gradient or Dunkl Laplacian (``field`` "value", "grad" or "lap").

    ``q = None`` stands for the family exponent p.  The radial shift is
    s = k*q: the weight |x|^s of dmu becomes r^(nbar-1+s) dr in one
    dimension.  ``head`` and ``tail`` give the power law
    of the extremizer's 1-D integrand at r -> 0 and r -> inf: "eps" is the
    r^(eps-1) head or r^(-1-eps) tail that carries the 1/eps mass, "weight"
    is the weight's own power (the extremizer is constant there), and None
    is a plain Gauss head, or an integrand that vanishes past the last
    breakpoint.
    """

    field: str
    k: int = 0
    q: float | None = 2.0
    head: str | None = None
    tail: str | None = "eps"

    def power(self, p):
        return p if self.q is None else self.q

    def shift(self, p):
        return self.k * self.power(p)


@dataclass(frozen=True)
class Functional:
    """One inequality: num >= constant * den for nbar > threshold, or for
    p > nbar when ``threshold`` is None (the L^p Hardy row, which uses p)."""

    constant: Callable  # (nbar, p) -> sharp constant
    threshold: float | None
    mollified: bool  # C^2-joined extremizer: 2% tolerance, 1e-5 slack
    num: Term
    den: Term

    @property
    def uses_p(self) -> bool:
        return self.num.q is None

    @property
    def rule(self) -> str:
        """The admissibility rule, as stated in errors."""
        return "p > nbar" if self.threshold is None else f"nbar > {self.threshold:g}"

    def admissible(self, nbar: float, p) -> bool:
        return p > nbar if self.threshold is None else nbar > self.threshold

    def extremizer(self, nbar: float, eps: float, p) -> PiecewiseProfile:
        """The profile whose quotient tends to the constant as eps -> 0: the
        L^p Hardy profile, or the power r^(-(nbar - threshold + eps)/2)."""
        if self.threshold is None:
            return hardy_p_profile(p, nbar, eps)
        power = mollified_power_profile if self.mollified else step_power_profile
        return power(-(nbar - self.threshold + eps) / 2.0)


# each row: constant(nbar, p), threshold, mollified, numerator, denominator
FUNCTIONALS = {
    "hardy_p": Functional(
        lambda nbar, p: ((p - nbar) / p) ** p, None, False,
        Term("grad", q=None, head="eps", tail=None),
        Term("value", k=-1, q=None, head="eps", tail="weight")),
    "hardy_2": Functional(
        lambda nbar, p: ((nbar - 2.0) / 2.0) ** 2, 2.0, False,
        Term("grad"), Term("value", k=-1, head="weight")),
    "rellich": Functional(
        lambda nbar, p: nbar**2 * (nbar - 4.0) ** 2 / 16.0, 4.0, True,
        Term("lap"), Term("value", k=-2, head="weight")),
    "weighted_hr": Functional(
        lambda nbar, p: (nbar - 2.0) ** 2 / 4.0, 2.0, True,
        Term("lap", k=1), Term("grad")),
    "hardy_rellich": Functional(
        lambda nbar, p: nbar**2 / 4.0, 4.0, True,
        Term("lap"), Term("grad", k=-1)),
}


def _functional(kind: str) -> Functional:
    if kind not in FUNCTIONALS:
        raise ValueError(f"unknown family kind {kind!r}")
    return FUNCTIONALS[kind]


def sharp_constant(kind: str, nbar: float, p: float | None = None) -> float:
    return _functional(kind).constant(nbar, p)


def _closed_form(prof: PiecewiseProfile, term: Term, nbar: float, p) -> float:
    q = term.power(p)
    exponent = nbar - 1.0 + term.shift(p)
    if term.field == "lap":
        return prof.integral_laplacian_sq(exponent, nbar)
    if term.field == "grad":
        return prof.integral_deriv_power(q, exponent)
    return prof.integral_value_power(q, exponent)


def oracle_quotient(
    kind: str, nbar: float, eps: float, p: float | None = None
) -> float:
    """Rayleigh quotient from closed-form power integrals (spherical factors
    cancel for radial profiles, so everything is one-dimensional)."""
    f = _functional(kind)
    prof = f.extremizer(nbar, eps, p)
    return _closed_form(prof, f.num, nbar, p) / _closed_form(prof, f.den, nbar, p)


def _quadrature(prof, term: Term, nbar: float, eps: float, p):
    q = term.power(p)
    exponent = nbar - 1.0 + term.shift(p)
    ends = {None: None, "weight": exponent}
    head = dict(ends, eps=eps - 1.0)[term.head]
    tail = dict(ends, eps=-1.0 - eps)[term.tail]
    grid = RadialGrid(prof.breakpoints, QUAD_NODES)
    field = {
        "value": prof.value,
        "grad": prof.deriv,
        "lap": lambda r: prof.radial_laplacian(r, nbar),
    }[term.field]
    return integrate_radial(
        lambda r: np.abs(field(r)) ** q, exponent, grid, head, tail
    )


def quadrature_quotient(
    kind: str, nbar: float, eps: float, p: float | None = None
) -> float:
    """Same quotient, evaluating the profile pointwise under weighted
    Gauss rules (Jacobi rules absorb the r^(eps-1) head and tail)."""
    f = _functional(kind)
    prof = f.extremizer(nbar, eps, p)
    return _quadrature(prof, f.num, nbar, eps, p) / _quadrature(
        prof, f.den, nbar, eps, p
    )


def extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of y(x) to x = 0."""
    xs = [float(x) for x in xs]
    t = [float(y) for y in ys]
    n = len(t)
    for k in range(1, n):
        for i in range(n - k):
            t[i] = (xs[i + k] * t[i] - xs[i] * t[i + 1]) / (xs[i + k] - xs[i])
    return t[0]


@dataclass
class RayleighSweep:
    kind: str
    nbar: float
    p: float | None
    target: float
    tolerance: float
    epsilons: tuple
    quotients_oracle: tuple
    quotients_quadrature: tuple
    extrapolated_oracle: float
    extrapolated_quadrature: float
    rel_gap: float
    oracle_agreement: float
    verdict: str  # "converged" | "failed"

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    def csv_rows(self):
        """Rows for the epsilon,quotient_oracle,quotient_quadrature,target,
        rel_gap schema."""
        return [
            (e, qo, qq, self.target, abs(qo - self.target) / self.target)
            for e, qo, qq in zip(
                self.epsilons, self.quotients_oracle, self.quotients_quadrature
            )
        ]


def sharpness_sweep(
    kind: str, N: int, gamma: float, p: float | None = None
) -> RayleighSweep:
    """Run the extremizer sweep for one functional and verdict on the limit.

    The sweep runs ``EPSILONS`` with ``QUAD_NODES`` Gauss nodes per panel
    and extrapolates its last three quotients to eps = 0.  The limit must
    lie within 1% of the target for pure-power families and within 2% for
    mollified ones; the oracle and quadrature paths must agree to 1e-6 at
    every eps.  Raises ValueError for an unknown kind and outside the
    functional's admissible range.
    """
    f = _functional(kind)
    nbar = N + 2.0 * gamma
    if not f.uses_p:
        p = None
    elif p is None:
        p = nbar + 1.0
    if not f.admissible(nbar, p):
        raise ValueError(f"{kind} needs {f.rule} (nbar = {nbar:g}, p = {p})")
    tolerance = 0.02 if f.mollified else 0.01
    target = sharp_constant(kind, nbar, p)

    q_oracle, q_quad = [], []
    agreement = 0.0
    for eps in EPSILONS:
        qo = oracle_quotient(kind, nbar, eps, p)
        qq = quadrature_quotient(kind, nbar, eps, p)
        rel = abs(qo - qq) / abs(qo)
        agreement = float(np.maximum(agreement, rel))  # keeps a NaN
        if not rel <= ORACLE_AGREEMENT_RTOL:  # fails on NaN
            raise OracleMismatchError(
                f"{kind}: closed-form {qo!r} vs quadrature {qq!r} at eps={eps}"
            )
        q_oracle.append(qo)
        q_quad.append(qq)

    ex_o = extrapolate_to_zero(EPSILONS[-3:], q_oracle[-3:])
    ex_q = extrapolate_to_zero(EPSILONS[-3:], q_quad[-3:])
    rel_gap = abs(ex_o - target) / target

    slack = 1e-8 * (1.0 + target) if not f.mollified else 1e-5 * target
    monotone = all(
        b <= a + slack for a, b in zip(q_oracle, q_oracle[1:])
    )
    verdict = "converged" if (monotone and rel_gap <= tolerance) else "failed"
    return RayleighSweep(
        kind, nbar, p, target, tolerance, EPSILONS, tuple(q_oracle),
        tuple(q_quad), ex_o, ex_q, rel_gap, agreement, verdict,
    )


# ---------------------------------------------------------------------------
# mode-coefficient algebra


def _rational(x) -> Fraction:
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    f = Fraction(x).limit_denominator(10**6)
    if abs(float(f) - float(x)) > 1e-12:
        raise ValueError(f"{x} is not a small rational")
    return f


@dataclass(frozen=True)
class ModeCoefficients:
    n: int
    lambda_n: Fraction
    a_n: Fraction
    b_n: Fraction
    d_n: Fraction
    c: Fraction


def mode_coefficients(N: int, gamma, n: int, C) -> ModeCoefficients:
    """Exact coefficients of the decomposed fourth-order radial functionals."""
    g = _rational(gamma)
    C = _rational(C)
    nbar = Fraction(N) + 2 * g
    lam = -Fraction(n) * (n + nbar - 2)
    a_n = nbar - 2 * lam - 1 - C
    b_n = Fraction(0) if n == 0 else lam * (lam - 2 * (nbar - 4) + C) - 4 * C * g
    d_n = lam * (lam - (nbar**2 - 8 * nbar) / 4) - nbar**2 * g
    return ModeCoefficients(n, lam, a_n, b_n, d_n, C)


# ---------------------------------------------------------------------------
# single-mode trial functions (radial profile times one h-harmonic)


@dataclass(frozen=True)
class ModeFunction:
    """u = g(r) p(x) for a homogeneous degree-n h-harmonic p.

    Every quotient integral reduces exactly to the profile's closed-form
    one-dimensional integrals.  The Dunkl gradient splits pointwise as
    grad_k u = g grad_k p + g' p x/r, whose squared spherical averages are
    the stored constants

      c0 = int_S p^2 omega dnu,
      c1 = int_S |grad_k p|^2 omega dnu,
      c2 = int_S p <xi, grad_k p> omega dnu.

    With e the weight exponent and g zero near 0 and near infinity:

      int u^2 r^e            = c0 int g^2 r^(e+2n),
      int |lap_k u|^2 r^e    = c0 int (g'' + (nbar+2n-1) g'/r)^2 r^(e+2n),
      int |grad_k u|^2 r^e   = c0 int g'^2 r^(e+2n)
                               + (c1 - (e+2n-1) c2) int g^2 r^(e+2n-2),

    the first two since lap_k(g p) = (g'' + (nbar+2n-1) g'/r) p, the last
    after integrating the cross term 2 c2 g g' r^(e+2n-1) by parts.
    """

    n: int
    profile: PiecewiseProfile  # g(r), compactly supported away from 0
    nbar: float
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        pieces = self.profile.pieces
        if not (_is_zero_piece(pieces[0]) and _is_zero_piece(pieces[-1])):
            raise ValueError("mode profiles must vanish near 0 and near infinity")

    def value_integral(self, exponent: float) -> float:
        return self.c0 * self.profile.integral_value_power(
            2.0, exponent + 2 * self.n
        )

    def gradient_integral(self, exponent: float) -> float:
        """int |grad_k u|^2 r^exponent dr dnu-part, exact per the split."""
        g, s = self.profile, exponent + 2 * self.n
        return self.c0 * g.integral_deriv_power(2.0, s) + (
            self.c1 - (s - 1.0) * self.c2
        ) * g.integral_value_power(2.0, s - 2.0)

    def laplacian_integral(self, exponent: float) -> float:
        return self.c0 * self.profile.integral_laplacian_sq(
            exponent + 2 * self.n, self.nbar + 2 * self.n
        )


def mode_quotient(mf: ModeFunction, kind: str) -> float:
    """The quotient of ``kind`` for a single mode, reduced to one dimension;
    the reduction covers the squared (q = 2) functionals."""
    f = _functional(kind)
    if f.uses_p:
        raise ValueError(f"no single-mode reduction for {kind!r}")
    integrals = {
        "value": mf.value_integral,
        "grad": mf.gradient_integral,
        "lap": mf.laplacian_integral,
    }
    num, den = (
        integrals[t.field](mf.nbar - 1.0 + t.k * t.q) for t in (f.num, f.den)
    )
    if abs(den) < 1e-14:
        raise DegenerateInputError("quotient denominator is numerically zero")
    return num / den


# ---------------------------------------------------------------------------
# remainder-term verification on domains


@dataclass
class VerificationReport:
    check_id: str
    tolerance: float
    entries: list  # dicts with name, lhs, rhs, margin, passed
    passed: bool


def _norms(X):
    return np.linalg.norm(np.atleast_2d(X), axis=1)


def _domain_check(rs, functions, dd, p, grid, rule, a, b, extra,
                  check_id) -> VerificationReport:
    """int |grad_k u|^p >= a T_p + b T_x for each (name, u) in ``functions``,
    with T_p = int |u|^p/delta^p and T_x = int extra(x) |u|^p/delta^(p-1);
    the quadrature's own error estimates widen the tolerance.  Each u is
    evaluated only on ``dunkl_support(rs, u)`` when it declares a support."""
    entries = []
    ok = True
    for name, u in functions:
        def integrands(X):
            u_p = np.abs(u.value(X)) ** p
            delta = dd.delta(X)
            return np.stack([
                _norms(dunkl_gradient(rs, u, X)) ** p,
                u_p / delta**p,
                extra(X) * u_p / delta ** (p - 1.0),
            ])

        res = integrate_measure(rs, integrands, grid, rule,
                                dunkl_support(rs, u))
        lhs, t_p, t_x = (float(v) for v in res.value)
        lhs_err, t_p_err, t_x_err = (float(e) for e in res.estimated_error)
        rhs = a * t_p + b * t_x
        quad_err = lhs_err + abs(a) * t_p_err + abs(b) * t_x_err
        tol = DOMAIN_RTOL * (abs(rhs) + 1.0) + quad_err
        margin = lhs - rhs
        passed = margin >= -tol
        ok = ok and passed
        entries.append(
            {"name": name, "lhs": lhs, "rhs": rhs, "margin": margin,
             "tolerance": tol, "passed": passed}
        )
    return VerificationReport(check_id, DOMAIN_RTOL, entries, ok)


def hardy_remainder_check(
    rs: RootSystem,
    functions,
    domain: DomainSpec,
    p: float,
    grid: RadialGrid,
    rule: SphericalRule,
) -> VerificationReport:
    """Distance-function Hardy inequality with its first-order remainder:

    int |grad_k u|^p >= ((p-1)/p)^p int |u|^p/delta^p
        + ((p-1)/p)^(p-1) int [-lap delta + (p/2-1)<rho,grad delta>
                                - (p/2)|<rho,grad delta>|] |u|^p/delta^(p-1)

    ``functions`` is a sequence of (name, SmoothFunction) supported in the
    domain.
    """
    dd = distance_data(domain, rs)

    def bracket(X):
        pair = dd.rho_pairing(X)
        return (
            -dd.laplacian_delta(X)
            + (p / 2.0 - 1.0) * pair
            - (p / 2.0) * np.abs(pair)
        )

    return _domain_check(
        rs, functions, dd, p, grid, rule,
        ((p - 1.0) / p) ** p, ((p - 1.0) / p) ** (p - 1.0), bracket,
        f"hardy_remainder[{domain.kind},p={p}]",
    )


def hardy_eps_check(
    rs: RootSystem,
    functions,
    domain: DomainSpec,
    p: float,
    eps: float,
    grid: RadialGrid,
    rule: SphericalRule,
) -> VerificationReport:
    """Parameterized Hardy inequality

    int |grad_k u|^p >= (p-1)(eps^-p - eps^(-p^2/(p-1))) int |u|^p/delta^p
        - eps^-p int (lap_k delta) |u|^p/delta^(p-1)

    valid on domains with <rho, grad delta> >= 0.
    """
    dd = distance_data(domain, rs)
    return _domain_check(
        rs, functions, dd, p, grid, rule,
        (p - 1.0) * (eps ** (-p) - eps ** (-(p**2) / (p - 1.0))), -(eps ** (-p)),
        dd.dunkl_laplacian_delta,
        f"hardy_eps[{domain.kind},p={p},eps={eps}]",
    )
