"""Distance-function geometry for the supported reflection-invariant domains.

All four domains have closed-form distance functions, so every field here is
an exact formula: no numerics beyond float evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .reflection import RootSystem

__all__ = [
    "DomainSpec",
    "DistanceData",
    "distance_data",
]

KINDS = ("punctured_space", "exterior_ball", "halfspace", "wedge_SN")


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    dimension: int
    radius: float | None = None  # exterior_ball
    axis: int | None = None  # halfspace

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "exterior_ball" and not (self.radius and self.radius > 0):
            raise ValueError("exterior ball needs a positive radius")
        if self.kind == "halfspace":
            if self.axis is None or not 0 <= self.axis < self.dimension:
                raise ValueError("halfspace needs a valid axis index")


@dataclass(frozen=True)
class DistanceData:
    spec: DomainSpec
    delta: object  # (M,N) -> (M,)
    grad_delta: object  # (M,N) -> (M,N), unit vectors
    laplacian_delta: object  # classical Laplacian of delta
    dunkl_laplacian_delta: object
    rho_pairing: object  # <rho(x), grad delta(x)> in closed form

    def contains(self, x) -> np.ndarray:
        return self.delta(x) > 0


def _check_compatible(spec: DomainSpec, rs: RootSystem):
    if spec.dimension != rs.dimension:
        raise ValueError("domain and root system dimensions differ")
    if spec.kind == "halfspace":
        for root in rs.positive_roots:
            if abs(root.vector[spec.axis]) > 1e-12:
                raise ValueError(
                    "halfspace requires every root orthogonal to the axis"
                )
    if spec.kind == "wedge_SN":
        if rs.family != "A" or rs.rank != spec.dimension - 1:
            raise ValueError(
                "the symmetric-group wedge needs the A-family root system of "
                "rank N-1"
            )


def distance_data(spec: DomainSpec, rs: RootSystem) -> DistanceData:
    _check_compatible(spec, rs)
    N = spec.dimension
    gamma = float(rs.gamma)
    nbar = N + 2.0 * gamma

    if spec.kind in ("punctured_space", "exterior_ball"):
        r0 = spec.radius if spec.kind == "exterior_ball" else 0.0

        def delta(x):
            return np.linalg.norm(np.atleast_2d(x), axis=1) - r0

        def grad_delta(x):
            X = np.atleast_2d(np.asarray(x, dtype=float))
            return X / np.linalg.norm(X, axis=1)[:, None]

        def lap_delta(x):
            return (N - 1.0) / np.linalg.norm(np.atleast_2d(x), axis=1)

        def dunkl_lap_delta(x):
            return (nbar - 1.0) / np.linalg.norm(np.atleast_2d(x), axis=1)

        def pairing(x):
            return 2.0 * gamma / np.linalg.norm(np.atleast_2d(x), axis=1)

        return DistanceData(spec, delta, grad_delta, lap_delta,
                            dunkl_lap_delta, pairing)

    if spec.kind == "halfspace":
        axis = spec.axis
        e = np.zeros(N)
        e[axis] = 1.0
    else:  # wedge_SN: delta = <x, eta>/sqrt(N), eta = (1, ..., 1)
        e = np.full(N, 1.0 / sqrt(N))

    def delta(x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ e

    def grad_delta(x):
        X = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(e, X.shape).copy()

    def zero(x):
        return np.zeros(len(np.atleast_2d(x)))

    # roots are orthogonal to the normal, so the reflection-difference terms
    # of the Dunkl Laplacian vanish along with the classical Laplacian
    return DistanceData(spec, delta, grad_delta, zero, zero, zero)

