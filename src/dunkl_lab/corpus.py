"""Builders for test-function corpora.

Everything here is C^2 with analytic gradients (and Laplacians/Hessians where
the checks need them): sextic ball bumps, shifted Gaussians, radial shell
bumps, and separable radial-times-harmonic modes.  Bump profiles are exact
polynomials so the 1-D reductions stay quadrature-exact.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .dunklnum import SmoothFunction
from .inequalities import ModeFunction
from .polyalg import (
    Polynomial,
    constant,
    dunkl_gradient_sym,
    sphere_mean,
    variable,
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


def ball_bump(center, radius: float) -> SmoothFunction:
    """u = (1 - |x-c|^2/rho^2)^3 inside the ball, 0 outside; C^2 everywhere.

    The ball is the function's declared ``support``."""
    c = np.asarray(center, dtype=float)
    rho2 = float(radius) ** 2
    N = len(c)

    def parts(X):
        D = np.atleast_2d(np.asarray(X, dtype=float)) - c
        q = np.sum(D**2, axis=1) / rho2
        inside = q < 1.0
        w = np.where(inside, 1.0 - q, 0.0)
        return D, q, w, inside

    def value(X):
        _, _, w, _ = parts(X)
        return w**3

    def gradient(X):
        D, _, w, _ = parts(X)
        return -6.0 / rho2 * w[:, None] ** 2 * D

    def laplacian(X):
        _, q, w, _ = parts(X)
        return 24.0 / rho2 * w * q - 6.0 * N / rho2 * w**2

    def hessian(X):
        D, _, w, _ = parts(X)
        H = 24.0 / rho2**2 * w[:, None, None] * np.einsum("mi,mj->mij", D, D)
        H -= 6.0 / rho2 * w[:, None, None] ** 2 * np.eye(N)
        return H

    return SmoothFunction(value, gradient, laplacian, hessian, dimension=N,
                          support=(c, float(radius)))


def shifted_gaussian(center, scale: float) -> SmoothFunction:
    """u = exp(-|x-c|^2/s^2) with full analytic derivatives."""
    c = np.asarray(center, dtype=float)
    s2 = float(scale) ** 2
    N = len(c)

    def value(X):
        D = np.atleast_2d(np.asarray(X, dtype=float)) - c
        return np.exp(-np.sum(D**2, axis=1) / s2)

    def gradient(X):
        D = np.atleast_2d(np.asarray(X, dtype=float)) - c
        return -2.0 / s2 * value(X)[:, None] * D

    def laplacian(X):
        D = np.atleast_2d(np.asarray(X, dtype=float)) - c
        d2 = np.sum(D**2, axis=1)
        return (4.0 * d2 / s2**2 - 2.0 * N / s2) * np.exp(-d2 / s2)

    def hessian(X):
        D = np.atleast_2d(np.asarray(X, dtype=float)) - c
        v = value(X)
        H = 4.0 / s2**2 * v[:, None, None] * np.einsum("mi,mj->mij", D, D)
        H -= 2.0 / s2 * v[:, None, None] * np.eye(N)
        return H

    return SmoothFunction(value, gradient, laplacian, hessian, dimension=N)


def bump_radial_profile(center: float, width: float) -> PiecewiseProfile:
    """g(r) = (1 - ((r-c)/w)^2)^3 on [c-w, c+w], 0 elsewhere, as exact
    polynomial pieces; requires c > w so the support avoids the origin."""
    if center <= width:
        raise ValueError("profile support must avoid the origin")
    s = np.polynomial.Polynomial([-center / width, 1.0 / width])
    poly = (np.polynomial.Polynomial([1.0]) - s**2) ** 3
    return PiecewiseProfile(
        [
            PowerPiece(0.0, center - width, 0.0, 0.0),
            PolyPiece(center - width, center + width, poly),
            PowerPiece(center + width, _INF, 0.0, 0.0),
        ]
    )


def radial_shell_bump(center: float, width: float, dimension: int) -> SmoothFunction:
    """Radial function u(x) = g(|x|) from the polynomial shell profile: the
    degree-0 mode, with Hessian g'' xh xh^T + (g'/r)(I - xh xh^T), xh = x/|x|."""
    return mode_function(bump_radial_profile(center, width), constant(dimension, 1))


def mode_function(profile: PiecewiseProfile, p: Polynomial) -> SmoothFunction:
    """u(x) = g(|x|) p(x) for a homogeneous polynomial p, with the classical
    derivatives assembled by the product rule."""
    if not p.is_homogeneous():
        raise ValueError("the angular factor must be homogeneous")
    n = p.degree()
    N = p.nvars
    grads = [p.partial(i) for i in range(N)]
    hess_p = [[q.partial(j) for j in range(N)] for q in grads]
    lap_p = Polynomial(N)
    for i in range(N):
        lap_p = lap_p + hess_p[i][i]

    def value(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return profile.value(np.linalg.norm(X, axis=1)) * p.evaluate(X)

    def gradient(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X, axis=1)
        g, g1 = profile.value(r), profile.deriv(r)
        pv = p.evaluate(X)
        G = (g1 * pv / r)[:, None] * X
        for i in range(N):
            G[:, i] += g * grads[i].evaluate(X)
        return G

    def laplacian(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X, axis=1)
        g, g1, g2 = profile.value(r), profile.deriv(r), profile.deriv2(r)
        pv = p.evaluate(X)
        # lap(g p) = (g'' + (N-1)g'/r) p + 2 g'/r <x, grad p> + g lap p
        return (
            (g2 + (N - 1.0) * g1 / r) * pv
            + 2.0 * g1 / r * n * pv
            + g * lap_p.evaluate(X)
        )

    def hessian(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        r = np.linalg.norm(X, axis=1)
        g, g1, g2 = profile.value(r), profile.deriv(r), profile.deriv2(r)
        pv = p.evaluate(X)
        dp = np.column_stack([q.evaluate(X) for q in grads])
        # (g'' - g'/r) p xh xh^T + (g'/r)(p I + x dp^T + dp x^T) + g Hess p
        H = np.einsum("m,mi,mj->mij", (g2 - g1 / r) * pv / r**2, X, X)
        H += (g1 / r * pv)[:, None, None] * np.eye(N)
        XD = np.einsum("m,mi,mj->mij", g1 / r, X, dp)
        H += XD + XD.transpose(0, 2, 1)
        Hp = np.array([[q.evaluate(X) for q in row] for row in hess_p])
        return H + g[:, None, None] * np.moveaxis(Hp, -1, 0)

    return SmoothFunction(value, gradient, laplacian, hessian, dimension=N)


def _default_mode_rule(rs, n: int):
    """The sphere rule of order 2n + ceil(2*gamma), from which
    ``separable_mode`` and ``mode_corpus`` read S_k
    (``quad.sphere_weight_integral``) when no rule is given.  The sphere
    means need no rule; S_k, which cancels in every mode quotient, is exact
    to rounding when the weight is a polynomial (integer k)."""
    return sphere_rule(rs.dimension, max(1, 2 * n + int(ceil(2.0 * float(rs.gamma)))))


def _mode_constants(rs, p: Polynomial, mean, sk: float):
    """(c0, c1, c2) of the h-harmonic p: S_k times the exact sphere means
    of p^2, sum_i (T_i p)^2 and p * sum_i x_i T_i p."""
    grad = dunkl_gradient_sym(rs, p)
    N = rs.dimension
    sq = Polynomial(N)
    radial = Polynomial(N)
    for i, g in enumerate(grad):
        sq = sq + g * g
        radial = radial + variable(i, N) * g
    return (sk * float(mean(p * p)), sk * float(mean(sq)),
            sk * float(mean(p * radial)))


def separable_mode(rs, profile: PiecewiseProfile, p: Polynomial,
                   rule=None) -> ModeFunction:
    """Single-mode trial function u = g(r) p(x) for a homogeneous h-harmonic p.

    The Dunkl gradient of u splits pointwise as g grad_k p + g' p x/r, so the
    quotient integrals need only three omega_k-weighted sphere integrals of
    p.  Each is S_k = int_S omega_k times the exact sphere mean
    (``polyalg.sphere_mean``) of a polynomial:

      c0 = S_k mean(p^2),
      c1 = S_k mean(sum_i (T_i p)^2),
      c2 = S_k mean(p * sum_i x_i T_i p).

    The means are exact for every rational multiplicity.  ``rule`` only
    supplies S_k (``quad.sphere_weight_integral``), which cancels in every
    mode quotient; the default is ``_default_mode_rule(rs, n)``.  The memo
    of monomial means lives for this call only; ``mode_corpus`` shares one
    across a corpus.
    """
    if not p.is_homogeneous():
        raise ValueError("the angular factor must be homogeneous")
    n = p.degree()
    if rule is None:
        rule = _default_mode_rule(rs, n)
    sk = sphere_weight_integral(rs, rule)
    c0, c1, c2 = _mode_constants(rs, p, sphere_mean(rs), sk)
    return ModeFunction(n, profile, rs.dimension + 2.0 * float(rs.gamma),
                        c0, c1, c2)


def random_damped_polynomial(rng, N: int, degree: int) -> SmoothFunction:
    """Gaussian-damped random polynomial with analytic derivatives."""
    exps = []
    for d in range(degree + 1):
        from .harmonics import homogeneous_exponents

        exps.extend(homogeneous_exponents(d, N))
    coeffs = rng.uniform(-1.0, 1.0, size=len(exps))
    p = Polynomial(N)
    from fractions import Fraction

    for e, c in zip(exps, coeffs):
        p = p + Polynomial(N, {e: Fraction(round(c * 64), 64)})
    grads = [p.partial(i) for i in range(N)]
    lap_p = Polynomial(N)
    for i in range(N):
        lap_p = lap_p + grads[i].partial(i)

    def value(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return p.evaluate(X) * np.exp(-np.sum(X**2, axis=1))

    def gradient(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        damp = np.exp(-np.sum(X**2, axis=1))
        G = np.column_stack([g.evaluate(X) for g in grads])
        return damp[:, None] * (G - 2.0 * p.evaluate(X)[:, None] * X)

    def laplacian(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        damp = np.exp(-np.sum(X**2, axis=1))
        pv = p.evaluate(X)
        G = np.column_stack([g.evaluate(X) for g in grads])
        xg = np.einsum("mi,mi->m", X, G)
        r2 = np.sum(X**2, axis=1)
        return damp * (lap_p.evaluate(X) - 4.0 * xg + pv * (4.0 * r2 - 2.0 * N))

    return SmoothFunction(value, gradient, laplacian, dimension=N)


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
    from fractions import Fraction

    from .harmonics import kernel_basis

    bases = {}
    for n in set(degrees):
        if n == 0:
            bases[0] = [Polynomial(rs.dimension, {(0,) * rs.dimension: Fraction(1)})]
        else:
            bases[n] = kernel_basis(rs, n)
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
