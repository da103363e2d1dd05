"""Numeric Dunkl calculus on black-box functions.

Functions are registered with analytic value/gradient/laplacian callables,
all vectorized over (M, N) batches of points; radial functions take the
same path as any other.  Near a reflection hyperplane each difference
quotient switches to its Taylor limit: the gradient's below |<alpha, x>| =
HYPERPLANE_RTOL |x| (1e-8), reading the classical <grad f, alpha>, and the
Laplacian's below eps^(1/3) |x| (6e-6), reading alpha^T Hess(f) alpha / 2.
The origin lies on every hyperplane, so both limits hold there too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .reflection import (
    HYPERPLANE_RTOL,
    RootSystem,
    SingularPointError,
    near_hyperplane,
    reflect,
)

__all__ = [
    "SmoothFunction",
    "dunkl_gradient",
    "dunkl_laplacian_num",
    "dunkl_support",
]

_PROBE_RNG_SEED = 20240517
_PROBE_STEP = 1e-5  # central-difference step of the registration check
# The Laplacian's quotient has rounding error ~ eps |f| / t^2 and its Taylor
# limit an error ~ t |D^3 f|; they balance at t ~ eps^(1/3).
_SECOND_ORDER_RTOL = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass
class SmoothFunction:
    """value: (M,N)->(M,); gradient: (M,N)->(M,N); laplacian: (M,N)->(M,);
    hessian: (M,N)->(M,N,N), read only by the Laplacian's hyperplane limit.

    ``support`` is None or a ball (center, radius) outside of which value,
    gradient, Laplacian and Hessian are all exactly 0; quadrature may then
    skip the points outside it (see ``dunkl_support``).

    The analytic gradient is spot-checked against central finite differences
    at registration, at four seeded points inside the declared support if
    any; silent finite differencing is never used afterwards.
    """

    value: object
    gradient: object
    laplacian: object | None = None
    hessian: object | None = None
    dimension: int | None = None
    support: tuple | None = None
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        if self.check:
            if self.dimension is None:
                raise ValueError("gradient check requires the dimension")
            self._check_gradient()

    def __call__(self, X):
        """Values at an (M, N) batch, so it serves as a plain function."""
        return self.value(X)

    def _check_gradient(self):
        rng = random.Random(_PROBE_RNG_SEED)
        X = np.array([[rng.uniform(-1.0, 1.0) for _ in range(self.dimension)]
                      for _ in range(4)])
        if self.support is not None:
            # outside its ball the function and its gradient are exactly 0,
            # so the cube is mapped into the ball of 0.9 times its radius
            center, radius = self.support
            X = center + (0.9 * radius / np.sqrt(self.dimension)) * X
        g = np.asarray(self.gradient(X), dtype=float)
        fd = np.empty_like(g)
        for j in range(self.dimension):
            e = np.zeros(self.dimension)
            e[j] = _PROBE_STEP
            fd[:, j] = (
                np.asarray(self.value(X + e)) - np.asarray(self.value(X - e))
            ) / (2.0 * _PROBE_STEP)
        scale = np.max(np.abs(g)) + 1.0
        if np.max(np.abs(g - fd)) > 1e-5 * scale:
            raise ValueError(
                "analytic gradient disagrees with central differences "
                f"(max abs deviation {np.max(np.abs(g - fd)):.3e})"
            )


def _as_batch(x):
    X = np.asarray(x, dtype=float)
    return np.atleast_2d(X), X.ndim == 1


def _reflection_differences(rs: RootSystem, f: SmoothFunction, X, rtol: float):
    """Per active root: (alpha, k_alpha, t, near, f(x) - f(sigma_alpha x)),
    with t = <alpha, x> and near = ``near_hyperplane(t, |x|, rtol)``.  f(x) is
    evaluated once, and only if some root is active."""
    nx = np.linalg.norm(X, axis=1)
    fx = None
    for root, k in rs.active_roots():
        a = root.vector
        t = X @ a
        if fx is None:
            fx = np.asarray(f.value(X), dtype=float)
        fs = np.asarray(f.value(reflect(root, X)), dtype=float)
        yield a, float(k), t, near_hyperplane(t, nx, rtol), fx - fs


def dunkl_gradient(rs: RootSystem, f: SmoothFunction, x) -> np.ndarray:
    """grad f + sum_alpha k_alpha alpha (f(x) - f(sigma_alpha x))/<alpha, x>.

    Accepts a single point or an (M, N) batch; returns matching shape.
    """
    X, single = _as_batch(x)
    G = np.asarray(f.gradient(X), dtype=float)
    D = G.copy()
    for a, k, t, near, d in _reflection_differences(rs, f, X, HYPERPLANE_RTOL):
        ratio = np.where(near, G @ a, d / np.where(near, 1.0, t))
        D += k * np.multiply.outer(ratio, a)
    return D[0] if single else D


def dunkl_laplacian_num(rs: RootSystem, f: SmoothFunction, x) -> np.ndarray:
    """Classical Laplacian plus the reflection-difference correction terms."""
    if f.laplacian is None:
        raise ValueError("function registered without a classical laplacian")
    X, single = _as_batch(x)
    L = np.array(f.laplacian(X), dtype=float)
    G = np.asarray(f.gradient(X), dtype=float)
    H = None
    for a, k, t, near, d in _reflection_differences(rs, f, X, _SECOND_ORDER_RTOL):
        safe_t = np.where(near, 1.0, t)
        bracket = (G @ a) / safe_t - d / safe_t**2
        if np.any(near):
            if f.hessian is None:
                raise SingularPointError(
                    "point near a reflection hyperplane and no Hessian "
                    "supplied for the second-order Taylor fallback"
                )
            if H is None:
                H = np.asarray(f.hessian(X), dtype=float)
            # limit of <grad f,a>/t - (f - f o sigma)/t^2 as t -> 0
            taylor = 0.5 * np.einsum("i,mij,j->m", a, H, a)
            bracket = np.where(near, taylor, bracket)
        L += 2.0 * k * bracket
    return L[0] if single else L


def dunkl_support(rs: RootSystem, f: SmoothFunction):
    """Balls outside of which f, dunkl_gradient(rs, f) and
    dunkl_laplacian_num(rs, f) all vanish, or None if f declares no support.

    The reflection differences are nonlocal: f(sigma_alpha x) is nonzero on
    the mirror image of f's ball.  So the balls are f's own and, for each
    active root, its image (sigma_alpha c, radius).
    """
    if f.support is None:
        return None
    center, radius = f.support
    return [f.support] + [
        (reflect(root, center), radius) for root, _ in rs.active_roots()
    ]
