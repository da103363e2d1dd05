"""Builders for test-function corpora.

Everything here is C^2 with analytic gradients, Laplacians and Hessians:
sextic ball bumps, shifted Gaussians, radial shell bumps, separable
radial-times-harmonic modes and damped polynomials.  Each is g(|x - c|) P(x - c)
for a radial part g and an exact polynomial P, and one builder (``_product``)
applies the product rule for all of them.  Bump profiles are exact
polynomials so the 1-D reductions stay quadrature-exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

import numpy as np

from .dunklnum import SmoothFunction
from .inequalities import ModeFunction
from .polyalg import (
    Polynomial,
    dunkl_laplacian_fast,
    reflect_poly,
    sphere_mean,
)
from .profiles import PiecewiseProfile, PolyPiece, PowerPiece
from .quad import sphere_rule, sphere_weight_integral

__all__ = [
    "ball_bump",
    "shifted_gaussian",
    "radial_shell_bump",
    "bump_radial_profile",
    "mode_function",
    "separable_mode",
    "random_damped_polynomial",
    "domain_bump_corpus",
    "mode_corpus",
]

_INF = float("inf")


def _product(center, radial, P: Polynomial | None = None,
             support=None) -> SmoothFunction:
    """u(x) = g(s) P(y) with y = x - c and s = |y|, by the product rule.

    ``radial`` is the radial part as three functions (g, b, c) of q = s^2:
    g, b = g'/s and c = (g'' - g'/s)/s^2; each field calls only those it
    uses.  P is an exact polynomial, or None for the constant 1, which
    evaluates no polynomial at all.  Then

      grad u = b P y + g grad P,
      lap u  = (q c + N b) P + 2 b <y, grad P> + g lap P,
      Hess u = c P y y^T + b P I + b (y grad P^T + grad P y^T) + g Hess P.
    """
    c0 = np.asarray(center, dtype=float)
    N = len(c0)
    g, b, c = radial
    if P is not None:
        grad_P = [P.partial(i) for i in range(N)]
        hess_P = [[d.partial(j) for j in range(N)] for d in grad_P]
        lap_P = sum((hess_P[i][i] for i in range(N)), Polynomial(N))

    def shifted(X):
        Y = np.atleast_2d(np.asarray(X, dtype=float)) - c0
        return Y, np.sum(Y**2, axis=1)

    def gradients(Y):
        return np.column_stack([d.evaluate(Y) for d in grad_P])

    def value(X):
        Y, q = shifted(X)
        return g(q) if P is None else g(q) * P.evaluate(Y)

    def gradient(X):
        Y, q = shifted(X)
        if P is None:
            return b(q)[:, None] * Y
        return (b(q) * P.evaluate(Y))[:, None] * Y + g(q)[:, None] * gradients(Y)

    def laplacian(X):
        Y, q = shifted(X)
        bq, cq = b(q), c(q)
        if P is None:
            return q * cq + N * bq
        return ((q * cq + N * bq) * P.evaluate(Y)
                + 2.0 * bq * np.einsum("mi,mi->m", Y, gradients(Y))
                + g(q) * lap_P.evaluate(Y))

    def hessian(X):
        Y, q = shifted(X)
        bq, cq = b(q), c(q)
        pv = 1.0 if P is None else P.evaluate(Y)
        H = np.einsum("m,mi,mj->mij", cq * pv, Y, Y)
        H += (bq * pv)[:, None, None] * np.eye(N)
        if P is None:
            return H
        YD = np.einsum("m,mi,mj->mij", bq, Y, gradients(Y))
        Hp = np.array([[h.evaluate(Y) for h in row] for row in hess_P])
        return H + YD + YD.transpose(0, 2, 1) + np.einsum("m,ijm->mij", g(q), Hp)

    return SmoothFunction(value, gradient, laplacian, hessian, dimension=N,
                          support=support)


def ball_bump(center, radius: float) -> SmoothFunction:
    """u = (1 - |x-c|^2/rho^2)^3 inside the ball, 0 outside; C^2 everywhere.

    The ball is the function's declared ``support``."""
    rho2 = float(radius) ** 2

    def w(q):
        t = q / rho2
        return np.where(t < 1.0, 1.0 - t, 0.0)

    return _product(center, (lambda q: w(q)**3, lambda q: -6.0 / rho2 * w(q)**2,
                             lambda q: 24.0 / rho2**2 * w(q)),
                    support=(np.asarray(center, dtype=float), float(radius)))


def _gaussian(s2: float):
    """The radial part (g, b, c) of exp(-s^2/scale^2), with s2 = scale^2."""
    def e(q):
        return np.exp(-q / s2)

    return e, lambda q: -2.0 / s2 * e(q), lambda q: 4.0 / s2**2 * e(q)


def shifted_gaussian(center, scale: float) -> SmoothFunction:
    """u = exp(-|x-c|^2/s^2) with full analytic derivatives."""
    return _product(center, _gaussian(float(scale) ** 2))


def bump_radial_profile(center: float, width: float) -> PiecewiseProfile:
    """g(r) = (1 - ((r-c)/w)^2)^3 on [c-w, c+w], 0 elsewhere, as exact
    polynomial pieces; requires c > w so the support avoids the origin.

    The sextic (1 - t^2)^3 is kept in t = off + scl*r with numpy's
    domain-to-window map of [lo, hi] onto [-1, 1], off = (-hi - lo)/(hi - lo)
    and scl = 2/(hi - lo), which is exactly -1 and 1 at the ends (the plain
    (r - c)/w is not), so g vanishes exactly at c - w and c + w."""
    if center <= width:
        raise ValueError("profile support must avoid the origin")
    lo, hi = center - width, center + width
    sextic = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)
    return PiecewiseProfile(
        [
            PowerPiece(0.0, lo, 0.0, 0.0),
            PolyPiece(lo, hi, sextic, (-hi - lo) / (hi - lo), 2.0 / (hi - lo)),
            PowerPiece(hi, _INF, 0.0, 0.0),
        ]
    )


def _over(x, y):
    """x / y, and 0 where y = 0."""
    return np.divide(x, y, out=np.zeros_like(x), where=y != 0.0)


def _profile_radial(profile: PiecewiseProfile):
    """The radial part of u(x) = g(|x|) for a piecewise profile g.

    A profile constant near 0 (a first power piece of power 0, as every
    shell and mode profile has) has g' = g'' = 0 there, so b = g'/r and
    c = (g'' - b)/r^2 take their limit 0 at the origin."""
    first = profile.pieces[0]
    div = (_over if isinstance(first, PowerPiece) and first.power == 0.0
           else np.divide)

    def b(q):
        r = np.sqrt(q)
        return div(profile.deriv(r), r)

    return (lambda q: profile.value(np.sqrt(q)), b,
            lambda q: div(profile.deriv2(np.sqrt(q)) - b(q), q))


def radial_shell_bump(center: float, width: float, dimension: int) -> SmoothFunction:
    """Radial function u(x) = g(|x|) from the polynomial shell profile: the
    degree-0 mode."""
    return _product(np.zeros(dimension),
                    _profile_radial(bump_radial_profile(center, width)))


def mode_function(profile: PiecewiseProfile, p: Polynomial) -> SmoothFunction:
    """u(x) = g(|x|) p(x) for a homogeneous polynomial p, with the classical
    derivatives assembled by the product rule."""
    if not p.is_homogeneous():
        raise ValueError("the angular factor must be homogeneous")
    return _product(np.zeros(p.nvars), _profile_radial(profile), p)


def _default_mode_rule(rs, n: int):
    """The sphere rule of order 2n + ceil(2*gamma), from which
    ``separable_mode`` and ``mode_corpus`` read S_k
    (``quad.sphere_weight_integral``) when no rule is given.  The sphere
    means need no rule; S_k, which cancels in every mode quotient, is exact
    to rounding when the weight is a polynomial (integer k)."""
    return sphere_rule(rs.dimension, max(1, 2 * n + int(ceil(2.0 * float(rs.gamma)))))


def _mode_constants(rs, p: Polynomial, mean, sk: float):
    """(c0, c1, c2) of the degree-n h-harmonic p: S_k times the exact sphere
    means of p^2, sum_i (T_i p)^2 and p * sum_i x_i T_i p.

    Euler's identity sum_i x_i T_i p = n p + sum_alpha k_alpha (p - p o
    sigma_alpha) gives the third without a divided difference.  Green's
    identity on the sphere, mean(sum_i (T_i p)^2) = (Nbar + 2n - 2) *
    mean(p * sum_i x_i T_i p), which needs Delta_k p = 0, gives the second
    from the third's exact mean."""
    n = p.degree()
    euler = p * n
    for root, k in rs.active_roots():
        euler = euler + (p - reflect_poly(p, root)) * k
    mean2 = mean(p * euler)
    nbar = rs.dimension + 2 * rs.gamma
    return (sk * float(mean(p * p)), sk * float((nbar + 2 * n - 2) * mean2),
            sk * float(mean2))


def separable_mode(rs, profile: PiecewiseProfile, p: Polynomial,
                   rule=None) -> ModeFunction:
    """Single-mode trial function u = g(r) p(x) for a homogeneous h-harmonic p.

    The Dunkl gradient of u splits pointwise as g grad_k p + g' p x/r, so the
    quotient integrals need only three omega_k-weighted sphere integrals of
    p.  Each is S_k = int_S omega_k times the exact sphere mean
    (``polyalg.sphere_mean``) of a polynomial:

      c0 = S_k mean(p^2),
      c1 = S_k mean(sum_i (T_i p)^2) = (Nbar + 2n - 2) c2,
      c2 = S_k mean(p * sum_i x_i T_i p),

    c1 by Green's identity and c2 by Euler's (see ``_mode_constants``).
    Raises ValueError unless p is homogeneous with Delta_k p = 0.

    The means are exact for every rational multiplicity.  ``rule`` only
    supplies S_k (``quad.sphere_weight_integral``), which cancels in every
    mode quotient; the default is ``_default_mode_rule(rs, n)``.  The memo
    of monomial means lives for this call only; ``mode_corpus`` shares one
    across a corpus.
    """
    if not p.is_homogeneous():
        raise ValueError("the angular factor must be homogeneous")
    if not dunkl_laplacian_fast(rs, p).is_zero():
        raise ValueError("the angular factor must be h-harmonic (Delta_k p = 0)")
    n = p.degree()
    if rule is None:
        rule = _default_mode_rule(rs, n)
    sk = sphere_weight_integral(rs, rule)
    c0, c1, c2 = _mode_constants(rs, p, sphere_mean(rs), sk)
    return ModeFunction(n, profile, rs.dimension + 2.0 * float(rs.gamma),
                        c0, c1, c2)


def random_damped_polynomial(rng, N: int, degree: int) -> SmoothFunction:
    """Gaussian-damped random polynomial p(x) exp(-|x|^2) with analytic
    derivatives; p has the coefficients rng draws, rounded to 1/64."""
    from .harmonics import homogeneous_exponents

    exps = []
    for d in range(degree + 1):
        exps.extend(homogeneous_exponents(d, N))
    coeffs = rng.uniform(-1.0, 1.0, size=len(exps))
    p = Polynomial(N, {e: Fraction(round(c * 64), 64) for e, c in zip(exps, coeffs)})
    return _product(np.zeros(N), _gaussian(1.0), p)


# ---------------------------------------------------------------------------
# corpora


def domain_bump_corpus(data, rng, count: int, rmax: float):
    """C^2 ball bumps supported strictly inside the domain described by
    ``data`` (a DistanceData), within |x| < rmax.  Returns (name, fn) pairs."""
    spec = data.spec
    N = spec.dimension
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        c = rng.uniform(-1.0, 1.0, size=N)
        c *= rng.uniform(0.3 * rmax, 0.7 * rmax) / (np.linalg.norm(c) + 1e-12)
        d = float(data.delta(c[None, :])[0])
        if d <= 0.15 * rmax:
            continue
        rho = min(0.75 * d, 0.25 * rmax)
        if np.linalg.norm(c) + rho > 0.95 * rmax:
            continue
        out.append((f"bump{len(out)}", ball_bump(c, rho)))
    if len(out) < count:
        raise RuntimeError("could not place enough bumps inside the domain")
    return out


def mode_corpus(rs, rng, count: int, degrees=(0, 1, 2, 3), rule=None):
    """Single-mode trial functions: random shell profiles times h-harmonics
    of the listed degrees (mode 0 entries are plain radial functions).

    The mode constants are those of ``separable_mode``: S_k times the exact
    sphere means of p^2, sum_i (T_i p)^2 and p * sum_i x_i T_i p.  One
    ``polyalg.sphere_mean`` serves the whole call, so each monomial's mean
    is computed once per call and dropped when the call returns.  ``rule``
    only supplies S_k (one ``quad.sphere_weight_integral`` per call); when
    it is None the call uses the rule exact to degree
    2 max(degrees) + ceil(2*gamma).  Constants are computed once per
    harmonic since they do not depend on the radial profile."""
    from .harmonics import kernel_basis

    if not degrees:
        raise ValueError("mode_corpus needs at least one degree")
    bases = {n: kernel_basis(rs, n) for n in set(degrees)}
    if rule is None:
        rule = _default_mode_rule(rs, max(degrees))
    mean = sphere_mean(rs)
    sk = sphere_weight_integral(rs, rule)
    nbar = rs.dimension + 2.0 * float(rs.gamma)
    out = []
    constants = {}
    for i in range(count):
        n = degrees[i % len(degrees)]
        center = rng.uniform(0.8, 2.5)
        width = rng.uniform(0.3, 0.9) * center * 0.8
        prof = bump_radial_profile(center, width)
        idx = int(rng.integers(len(bases[n])))
        key = (n, idx)
        if key not in constants:
            constants[key] = _mode_constants(rs, bases[n][idx], mean, sk)
        out.append((f"mode{n}_{i}", ModeFunction(n, prof, nbar, *constants[key])))
    return out
