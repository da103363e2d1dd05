"""Quadrature for the reflection-weighted measure.

Every quadrature rule of the package is built here: the cached Gauss rules,
the sphere rules and the omega_k-weighted polar grid.

The measure is d(mu) = omega_k(x) dx, realized in polar form as
r^(N + 2*gamma - 1) * omega_k(xi) dr dnu(xi) with nu the surface measure on
the unit sphere.  Radial integration handles the two improper ends that the
extremizer sweeps produce: an integrable power singularity at r = 0 and a
power-law tail r^s with s < -1 at infinity.  Both get dedicated Gauss-Jacobi
rules so the 1/eps mass of near-extremal profiles is captured exactly.

The Gauss-Legendre, Gauss-Jacobi and Gauss-Gegenbauer rules (the panels, the
radial head and tail, the sphere) all come from one Golub-Welsch
construction (Math. Comp. 23, 1969) on numpy alone, ``_jacobi``: the
nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of the
three-term recurrence, polished by one Newton step, and each weight is the
weight's total mass times the squared first component of its eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, isfinite, lgamma, log, pi, sqrt

import numpy as np

from .reflection import RootSystem, near_hyperplane, weight

__all__ = [
    "SphericalRule",
    "RadialGrid",
    "WeightedIntegral",
    "DivergenceError",
    "sphere_rule",
    "jitter_off_hyperplanes",
    "weighted_sphere",
    "polar_values",
    "sphere_weight_integral",
    "radial_nodes",
    "legendre_integral",
    "integrate_radial",
    "integrate_measure",
]

MAX_SPHERE_DIM = 8


class DivergenceError(ArithmeticError):
    """An analytic head or tail does not converge."""


@dataclass(frozen=True)
class SphericalRule:
    dimension: int
    order: int
    nodes: np.ndarray  # (M, N) unit vectors
    weights: np.ndarray  # (M,) positive, summing to |S^(N-1)|


@dataclass(frozen=True)
class RadialGrid:
    """Breakpoints tile [0, R_max]; ``integrate_radial`` adds the tail
    beyond R_max when it is given the tail decay exponent."""

    breakpoints: tuple
    nodes_per_interval: int = 64

    def __post_init__(self):
        b = self.breakpoints
        if len(b) < 2 or any(x >= y for x, y in zip(b, b[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if b[0] < 0 or not all(isfinite(x) for x in b):
            raise ValueError("breakpoints must be finite and non-negative")
        if self.nodes_per_interval < 8:
            raise ValueError("need at least 8 nodes per interval")


@dataclass(frozen=True)
class WeightedIntegral:
    """``integrate_measure``'s result: floats for one field, (K,) arrays for
    a stack of K fields."""

    value: float | np.ndarray
    estimated_error: float | np.ndarray


def _legendre_panel(n: int, a: float, b: float):
    """Gauss-Legendre nodes on [a, b], weights on [-1, 1], and (b - a)/2;
    Gauss-Legendre is Gauss-Jacobi at alpha = beta = 0."""
    x, w = _jacobi(n, 0.0, 0.0)
    half = (b - a) / 2.0
    return (a + b) / 2.0 + half * x, w, half


def legendre_integral(g, exponent: float, a: float, b: float, n: int) -> float:
    """int_a^b g(r) r^exponent dr by the n-point Gauss-Legendre rule."""
    r, w, half = _legendre_panel(n, a, b)
    return half * float(np.sum(w * (np.asarray(g(r), dtype=float) * r**exponent)))


@lru_cache(maxsize=None)
def _jacobi(n: int, alpha: float, beta: float):
    """n-point Gauss rule (nodes, weights) for the weight
    (1 - x)^alpha (1 + x)^beta on [-1, 1]."""
    if n < 1 or alpha <= -1.0 or beta <= -1.0:
        raise ValueError("need n >= 1 and alpha, beta > -1")
    a, b = float(alpha), float(beta)
    s = a + b
    # monic recurrence p_(k+1) = (x - diag[k]) p_k - off2[k-1] p_(k-1); the
    # k = 0 terms in closed form: the general ones divide by zero at s = 0 and
    # s = -1
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    k = np.arange(1.0, n)
    diag[1:] = (b * b - a * a) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off2 = np.empty(n)
    off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))
    k = np.arange(2.0, n + 1.0)
    off2[1:] = (4.0 * k * (k + a) * (k + b) * (k + s)
                / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0)))
    # the Jacobi matrix; eigh reads its lower triangle
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2[:-1]), -1))
    # the eigensolver leaves errors of a few ulps of |J| in the nodes; one
    # Newton step on p_n removes them, which counts where 1 + x is tiny
    # (at n = 64, beta = -0.9999 it is 5e-8 at the first node)
    p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
    for i in range(n):
        xa = x - diag[i]
        bi = off2[i - 1] if i else 0.0
        p_prev, p, d_prev, d = p, xa * p - bi * p_prev, d, p + xa * d - bi * d_prev
    x = x - p / d
    # mu_0 = 2^(s+1) B(a+1, b+1), the weight's total mass
    mu0 = exp((s + 1.0) * log(2.0) + lgamma(a + 1.0) + lgamma(b + 1.0)
              - lgamma(s + 2.0))
    w = mu0 * v[0] ** 2
    if a == b:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, w


@lru_cache(maxsize=None)
def sphere_rule(N: int, order: int) -> SphericalRule:
    """Deterministic rule on S^(N-1), exact for polynomials up to ``order``.

    N = 2 uses the uniform angular rule; N >= 3 splits off the first
    coordinate, xi = (c, sqrt(1-c^2) eta), with a Gauss-Gegenbauer rule in c
    of weight (1-c^2)^((N-3)/2) tensored against the rule on S^(N-2).
    """
    if not 2 <= N <= MAX_SPHERE_DIM:
        raise ValueError(f"sphere rule supports 2 <= N <= {MAX_SPHERE_DIM}")
    if order < 1:
        raise ValueError("order must be positive")
    if N == 2:
        m = 2 * (order + 1)
        theta = (np.arange(m) + 0.5) * (2.0 * pi / m)
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * pi / m)
        return SphericalRule(N, order, nodes, weights)
    sub = sphere_rule(N - 1, order)
    lam = (N - 3) / 2.0
    npts = max(order, 2)
    c, w = _jacobi(npts, lam, lam)
    s = np.sqrt(np.clip(1.0 - c**2, 0.0, None))
    nodes = np.empty((len(c) * len(sub.nodes), N))
    weights = np.empty(len(c) * len(sub.nodes))
    m = len(sub.nodes)
    for i in range(len(c)):
        nodes[i * m : (i + 1) * m, 0] = c[i]
        nodes[i * m : (i + 1) * m, 1:] = s[i] * sub.nodes
        weights[i * m : (i + 1) * m] = w[i] * sub.weights
    return SphericalRule(N, order, nodes, weights)


def _rotation(N: int, i: int, j: int, angle: float) -> np.ndarray:
    R = np.eye(N)
    R[i, i] = R[j, j] = np.cos(angle)
    R[i, j] = -np.sin(angle)
    R[j, i] = np.sin(angle)
    return R


def jitter_off_hyperplanes(rule: SphericalRule, rs: RootSystem) -> SphericalRule:
    """Rotate all nodes by a fixed small angle if any node sits on a
    reflection hyperplane (in the sense of ``near_hyperplane``); keeps
    integrands with 1/<alpha,x> factors finite without breaking polynomial
    exactness."""
    active = [root.vector for root, _ in rs.active_roots()]
    if not active:
        return rule
    nodes = rule.nodes
    N = rule.dimension
    # odd orders put nodes on several coordinate hyperplanes at once; on
    # every built-in system with N <= 7 at orders 4-12 (4-6 at N = 7) the
    # cumulative rotations in the planes (0, j) clear them within 3(N-1)
    # attempts (at most 13 rotations at N = 6 and 15 at N = 7)
    for attempt in range(max(6, 3 * (N - 1))):
        # the nodes are unit vectors, so |x| = 1
        if not any(np.any(near_hyperplane(nodes @ a, 1.0)) for a in active):
            break
        R = _rotation(N, 0, 1 + (attempt % (N - 1)), 1e-3 * (attempt + 1))
        nodes = nodes @ R.T
    else:
        raise RuntimeError("could not jitter sphere nodes off all hyperplanes")
    if nodes is rule.nodes:
        return rule
    return SphericalRule(rule.dimension, rule.order, nodes, rule.weights)


def weighted_sphere(rs: RootSystem, rule: SphericalRule):
    """The rule's nodes moved off the reflection hyperplanes, and its weights
    times omega_k at those nodes: the sphere factor of d(mu)."""
    if rule.dimension != rs.dimension:
        raise ValueError("spherical rule dimension mismatches the root system")
    rule = jitter_off_hyperplanes(rule, rs)
    return rule.nodes, rule.weights * weight(rs, rule.nodes)


# A support ball's radius is widened by this share of |c| + rho before its
# chords are cut, so that rounding never drops a point where f is nonzero.
_SUPPORT_PAD = 1e-6


def _support_mask(r, nodes, support) -> np.ndarray:
    """(len(r), len(nodes)) mask of the points r_i xi_j inside any ball
    (c, rho) of ``support``.  On the ray through xi the ball is the chord
    r in <xi,c>/|xi|^2 +- sqrt(<xi,c>^2 - |xi|^2 (|c|^2 - rho^2))/|xi|^2."""
    a = np.sum(nodes**2, axis=1)
    mask = np.zeros((len(r), len(nodes)), dtype=bool)
    for center, radius in support:
        c = np.asarray(center, dtype=float)
        cc = float(c @ c)
        rho = radius + _SUPPORT_PAD * (radius + sqrt(cc))
        b = nodes @ c
        disc = b**2 - a * (cc - rho**2)
        hit = disc > 0.0
        s = np.sqrt(np.where(hit, disc, 0.0))
        lo, hi = (b - s) / a, (b + s) / a
        mask |= hit & (r[:, None] > lo) & (r[:, None] < hi)
    return mask


def polar_values(f, r, nodes, support=None) -> np.ndarray:
    """f at the points r_i * xi_j, as an array of shape (len(r), len(nodes)),
    or (K, len(r), len(nodes)) when f returns a (K, M) stack of fields.

    ``support`` is None or a list of balls (center, radius) outside of which
    every field of f is exactly 0 (as ``dunklnum.dunkl_support`` gives).
    Then f is evaluated only at the points inside some ball, and the array
    is 0 elsewhere.  Each point is computed as r_i * xi_j either way, so as
    long as that contract holds the array is bit for bit the one without
    ``support``.
    """
    if support is None:
        X = (r[:, None, None] * nodes[None, :, :]).reshape(-1, nodes.shape[1])
        vals = np.asarray(f(X), dtype=float)
        return vals.reshape(vals.shape[:-1] + (len(r), len(nodes)))
    i, j = np.nonzero(_support_mask(r, nodes, support))
    vals = np.asarray(f(r[i, None] * nodes[j]), dtype=float)
    out = np.zeros(vals.shape[:-1] + (len(r), len(nodes)))
    out[..., i, j] = vals
    return out


def sphere_weight_integral(rs: RootSystem, rule: SphericalRule) -> float:
    """S_k = integral of omega_k over the unit sphere."""
    return float(np.sum(weighted_sphere(rs, rule)[1]))


# ---------------------------------------------------------------------------
# radial integration


def radial_nodes(grid: RadialGrid, n: int | None = None):
    """Plain composite Gauss nodes/weights for the finite part [0, R_max]."""
    if n is None:
        n = grid.nodes_per_interval
    bps = grid.breakpoints
    panels = [_legendre_panel(n, a, b) for a, b in zip(bps[:-1], bps[1:])]
    return (np.concatenate([r for r, _, _ in panels]),
            np.concatenate([half * w for _, w, half in panels]))


def integrate_radial(
    g,
    exponent: float,
    grid: RadialGrid,
    head_power: float | None = None,
    tail_power: float | None = None,
) -> float:
    """The integral of g(r) r^exponent dr over [0, R_max], plus the tail
    beyond R_max when ``tail_power`` is given.

    ``head_power`` / ``tail_power`` give the combined power behavior of
    g(r) r^exponent at the respective end; the head power switches the first
    interval to a Gauss-Jacobi rule with that weight, and the tail power
    adds the tail by the substitution r = R_max/t under a Gauss-Jacobi rule
    matched to the decay.
    """
    n = grid.nodes_per_interval
    total = 0.0
    bps = grid.breakpoints
    for a, b in zip(bps[:-1], bps[1:]):
        if a == bps[0] == 0.0 and head_power is not None:
            if head_power <= -1.0:
                raise DivergenceError("head exponent <= -1 is not integrable")
            # integral of r^hp * [g(r) r^(exponent-hp)] with the power as weight
            x, w = _jacobi(n, 0.0, head_power)
            r = b * (x + 1.0) / 2.0
            phi = np.asarray(g(r), dtype=float) * r ** (exponent - head_power)
            total += (b / 2.0) ** (head_power + 1.0) * float(np.sum(w * phi))
        else:
            total += legendre_integral(g, exponent, a, b, n)
    if tail_power is not None:
        if tail_power >= -1.0:
            raise DivergenceError("tail exponent >= -1 diverges")
        R = bps[-1]
        # r = R/t; integrand ~ t^beta near t=0 with beta = -tail_power-2
        beta = -tail_power - 2.0
        x, w = _jacobi(n, 0.0, beta)
        t = (x + 1.0) / 2.0
        r = R / t
        psi = np.asarray(g(r), dtype=float) * r**exponent * R / t ** (2.0 + beta)
        total += 0.5 ** (beta + 1.0) * float(np.sum(w * psi))
    return total


# ---------------------------------------------------------------------------
# measure integration over R^N


def integrate_measure(
    rs: RootSystem, f, grid: RadialGrid, rule: SphericalRule, support=None
) -> WeightedIntegral:
    """Integral of f against omega_k(x) dx over the ball of radius R_max.

    f must accept an (M, N) array of points and return either (M,) values or
    a (K, M) stack of K fields; a stack is evaluated in one pass over the
    grid, and the result then holds (K,) arrays, component k being exactly
    the integral of field k alone.  The error estimate is the difference to
    the same rule at half the nodes per interval.

    ``support`` (see ``polar_values``) lists balls outside of which f is
    exactly 0; f is then evaluated only inside them, and the sums, and so
    the result, are the same as without it.  Points outside are never
    evaluated, so a non-finite value there is not seen.
    """
    nodes, wsph = weighted_sphere(rs, rule)
    exponent = rs.dimension + 2.0 * rs.gamma - 1.0

    def total(n):
        r, wr = radial_nodes(grid, n)
        vals = polar_values(f, r, nodes, support)
        if not np.all(np.isfinite(vals)):
            *_, i, j = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"integrand not finite at node {r[i] * nodes[j]}")
        wrad = wr * r**exponent
        if vals.ndim == 2:
            return float(wrad @ vals @ wsph)
        return np.array([wrad @ field @ wsph for field in vals])

    v = total(grid.nodes_per_interval)
    v2 = total(grid.nodes_per_interval // 2)
    return WeightedIntegral(v, abs(v - v2))

