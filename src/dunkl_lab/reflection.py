"""Root systems, finite reflection groups, and the reflection-invariant weight.

Roots are normalized so that |alpha|^2 = 2.  Each root is stored as a rational
direction vector v together with the implied scale c = sqrt(2/|v|^2), so that
alpha = c*v.  All reflection matrices I - c^2 v v^T are then exact rational
matrices whenever v is rational, which is what the exact polynomial calculus
in :mod:`dunkl_lab.polyalg` relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

__all__ = [
    "Root",
    "RootSystem",
    "ReflectionGroup",
    "SingularPointError",
    "build_root_system",
    "embed_root_system",
    "reflect",
    "reflection_matrix",
    "reflection_jacobian",
    "generate_group",
    "weight",
    "near_hyperplane",
    "rho",
    "sign_flip_field_check",
    "root_system_to_json",
    "root_system_from_json",
]

HYPERPLANE_RTOL = 1e-8


class SingularPointError(ValueError):
    """Raised when an operation is evaluated on a reflection hyperplane."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Root:
    """A root alpha = c*direction with |alpha|^2 = 2 and c^2 = 2/|direction|^2.

    ``direction`` entries are Fractions for the exact families; floats are
    allowed for non-crystallographic dihedral groups I2(m) with irrational
    root coordinates, in which case ``exact`` is False.
    """

    direction: tuple
    exact: bool = True

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def norm2_direction(self):
        return sum(v * v for v in self.direction)

    @property
    def c2(self):
        # alpha = c*v with c^2 |v|^2 = 2
        n2 = self.norm2_direction
        return Fraction(2) / n2 if self.exact else 2.0 / n2

    @property
    def vector(self) -> np.ndarray:
        """alpha as a float vector, |alpha|^2 = 2."""
        v = np.array([float(x) for x in self.direction])
        return sqrt(float(self.c2)) * v

    def negate(self) -> "Root":
        return Root(tuple(-x for x in self.direction), self.exact)

    def __repr__(self):
        return f"Root({tuple(str(x) for x in self.direction)})"


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    dimension: int
    positive_roots: tuple
    multiplicities: tuple  # aligned with positive_roots
    orbit_labels: tuple  # orbit index per positive root

    @property
    def exact(self) -> bool:
        return all(r.exact for r in self.positive_roots)

    @property
    def gamma(self) -> float:
        return sum(self.multiplicities)

    @property
    def roots(self) -> tuple:
        return self.positive_roots + tuple(r.negate() for r in self.positive_roots)

    @property
    def n_orbits(self) -> int:
        return max(self.orbit_labels) + 1 if self.orbit_labels else 0

    def active_roots(self):
        """(root, k) pairs with k != 0, the only ones entering Dunkl sums."""
        return [
            (r, k) for r, k in zip(self.positive_roots, self.multiplicities) if k != 0
        ]


@dataclass(frozen=True)
class ReflectionGroup:
    """Closure of the generating reflections under matrix multiplication."""

    elements: tuple  # float (N, N) ndarrays

    @property
    def order(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# construction


def _expand_multiplicities(multiplicities, n_orbits, exact):
    if not isinstance(multiplicities, (list, tuple)):
        multiplicities = [multiplicities] * n_orbits
    if len(multiplicities) != n_orbits:
        raise ValueError(
            f"expected {n_orbits} multiplicities (one per root orbit), "
            f"got {len(multiplicities)}"
        )
    out = []
    for k in multiplicities:
        if isinstance(k, float) and not float(k).is_integer():
            kk = Fraction(k).limit_denominator(10**12) if exact else k
            out.append(kk)
        else:
            out.append(_as_fraction(k) if exact else float(k))
    for k in out:
        if k < 0:
            raise ValueError("multiplicities must be nonnegative")
    return tuple(out)


def build_root_system(family: str, rank: int, multiplicities) -> RootSystem:
    """Construct one of the supported families A(n), B(n), Z2^n, I2(m).

    ``multiplicities`` is one value per conjugacy orbit of roots (a scalar is
    broadcast to all orbits).  A(n) lives in R^(n+1); the others in R^rank
    (I2(m) in R^2 with rank = m).
    """
    family = family.upper()
    if rank < 1:
        raise ValueError("rank must be >= 1")

    roots: list[Root] = []
    orbits: list[int] = []
    if family == "A":
        n = rank + 1
        for i in range(n):
            for j in range(i + 1, n):
                d = [Fraction(0)] * n
                d[i], d[j] = Fraction(1), Fraction(-1)
                roots.append(Root(tuple(d)))
                orbits.append(0)
        dim, n_orbits = n, 1
    elif family == "B":
        if rank < 2:
            raise ValueError("B(n) needs rank >= 2")
        n = rank
        for i in range(n):
            for j in range(i + 1, n):
                for s in (Fraction(-1), Fraction(1)):
                    d = [Fraction(0)] * n
                    d[i], d[j] = Fraction(1), s
                    roots.append(Root(tuple(d)))
                    orbits.append(0)
        for i in range(n):
            d = [Fraction(0)] * n
            d[i] = Fraction(1)  # alpha = sqrt(2) e_i
            roots.append(Root(tuple(d)))
            orbits.append(1)
        dim, n_orbits = n, 2
    elif family == "Z2":
        n = rank
        for i in range(n):
            d = [Fraction(0)] * n
            d[i] = Fraction(1)
            roots.append(Root(tuple(d)))
            orbits.append(i)
        dim, n_orbits = n, n
    elif family == "I2":
        m = rank
        # positive roots at angles j*pi/m, j = 0..m-1; the direction only
        # matters up to scale, so the root is exact whenever tan(theta) is
        # rational (m = 1, 2, 4 and the axis-aligned roots of other m)
        for j in range(m):
            theta = np.pi * j / m
            c, s = np.cos(theta), np.sin(theta)
            if abs(c) < 1e-15:
                roots.append(Root((Fraction(0), Fraction(1))))
            else:
                ratio = Fraction(s / c).limit_denominator(8)
                if abs(float(ratio) - s / c) < 1e-14:
                    roots.append(Root((Fraction(1), ratio)))
                else:
                    roots.append(Root((c, s), exact=False))
            orbits.append(j % 2 if m % 2 == 0 else 0)
        dim = 2
        n_orbits = 2 if (m % 2 == 0 and m >= 2) else 1
    else:
        raise ValueError(f"unknown family {family!r}; expected A, B, Z2 or I2")

    exact = all(r.exact for r in roots)
    mult_per_orbit = _expand_multiplicities(multiplicities, n_orbits, exact)
    mults = tuple(mult_per_orbit[o] for o in orbits)
    return RootSystem(
        family=family,
        rank=rank,
        dimension=dim,
        positive_roots=tuple(roots),
        multiplicities=mults,
        orbit_labels=tuple(orbits),
    )


def embed_root_system(rs: RootSystem, dimension: int) -> RootSystem:
    """Zero-pad the roots into a larger ambient space (span stays the same)."""
    if dimension < rs.dimension:
        raise ValueError("target dimension smaller than current one")
    pad = dimension - rs.dimension
    zero = Fraction(0) if rs.exact else 0.0
    roots = tuple(
        Root(r.direction + (zero,) * pad, r.exact) for r in rs.positive_roots
    )
    return RootSystem(
        family=rs.family,
        rank=rs.rank,
        dimension=dimension,
        positive_roots=roots,
        multiplicities=rs.multiplicities,
        orbit_labels=rs.orbit_labels,
    )


# ---------------------------------------------------------------------------
# reflections


def reflect(root: Root, x):
    """sigma_alpha x = x - <alpha,x> alpha (using |alpha|^2 = 2).

    Accepts a single point (N,) or a batch (M, N); float output.  For exact
    rational input use :func:`reflection_matrix` directly.
    """
    x = np.asarray(x, dtype=float)
    v = np.array([float(c) for c in root.direction])
    c2 = float(root.c2)
    t = x @ v
    return x - c2 * np.multiply.outer(t, v)


def reflection_matrix(root: Root, exact: bool | None = None):
    """Matrix of sigma_alpha = I - c^2 v v^T.

    With ``exact=True`` returns a tuple-of-tuples of Fractions, otherwise a
    float ndarray.
    """
    if exact is None:
        exact = root.exact
    n = root.dim
    if exact:
        if not root.exact:
            raise ValueError("root has irrational coordinates")
        c2 = root.c2
        v = root.direction
        return tuple(
            tuple(
                (Fraction(1) if i == j else Fraction(0)) - c2 * v[i] * v[j]
                for j in range(n)
            )
            for i in range(n)
        )
    v = np.array([float(c) for c in root.direction])
    return np.eye(n) - float(root.c2) * np.outer(v, v)


def reflection_jacobian(root: Root) -> float:
    """det(I - alpha alpha^T); equals -1 for every root with |alpha|^2 = 2."""
    a = root.vector
    return float(np.linalg.det(np.eye(root.dim) - np.outer(a, a)))


def generate_group(rs: RootSystem, max_order: int = 20000) -> ReflectionGroup:
    """Breadth-first closure of the generating reflections in floating
    point; two products are the same element when their entries agree to
    9 decimals."""
    gens = [reflection_matrix(r, exact=False) for r in rs.positive_roots]
    ident = np.eye(rs.dimension)

    def key(m):
        return tuple(np.round(m, 9).ravel())

    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m @ g
                k = key(p)
                if k not in seen:
                    seen[k] = p
                    nxt.append(p)
                    if len(seen) > max_order:
                        raise ValueError(
                            "group closure exceeded max_order; "
                            "input is not a valid finite root system"
                        )
        frontier = nxt
    return ReflectionGroup(elements=tuple(seen.values()))


# ---------------------------------------------------------------------------
# weight, rho


def weight(rs: RootSystem, x):
    """omega_k(x) = prod over positive roots of |<alpha,x>|^(2 k_alpha)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.ones(X.shape[0])
    for root, k in rs.active_roots():
        v = np.array([float(c) for c in root.direction])
        t2 = float(root.c2) * (X @ v) ** 2  # <alpha,x>^2
        out *= t2 ** float(k)
    return float(out[0]) if single else out


def near_hyperplane(t, nx, rtol: float = HYPERPLANE_RTOL) -> np.ndarray:
    """|t| < rtol |x| for t = <alpha, x> with |alpha|^2 = 2 and nx = |x|;
    the origin lies on every hyperplane."""
    return (np.abs(t) < rtol * nx) | (nx == 0.0)


def rho(rs: RootSystem, x):
    """rho(x) = 2 sum k_alpha alpha / <alpha,x>; requires x off hyperplanes,
    in the sense of ``near_hyperplane``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    nx = np.linalg.norm(X, axis=1)
    out = np.zeros_like(X)
    for root, k in rs.active_roots():
        if np.any(near_hyperplane(X @ root.vector, nx)):
            raise SingularPointError(f"point lies on the hyperplane of {root}")
        v = np.array([float(c) for c in root.direction])
        t = X @ v
        # 2 k alpha/<alpha,x> = 2 k v/<v,x>
        out += 2.0 * float(k) * np.multiply.outer(1.0 / t, v)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# checks


@dataclass
class FieldCheckReport:
    ok: bool
    worst: float
    worst_root: Root | None
    tolerance: float


def sign_flip_field_check(rs, field, samples, tol: float = 1e-10) -> FieldCheckReport:
    """Verify <alpha, F(sigma_alpha x)> = -<alpha, F(x)> at the given samples.

    ``field`` maps a batch of points (M, N) to vectors (M, N).  Holds for any
    F = h1*x + h2*grad(delta) with G-invariant h1, h2 on a G-invariant domain.
    """
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    FX = np.atleast_2d(field(X))
    worst, worst_root = 0.0, None
    for root in rs.positive_roots:
        a = root.vector
        FS = np.atleast_2d(field(reflect(root, X)))
        resid = np.max(np.abs(FS @ a + FX @ a))
        if resid > worst:
            worst, worst_root = resid, root
    return FieldCheckReport(ok=worst <= tol, worst=worst, worst_root=worst_root, tolerance=tol)


# ---------------------------------------------------------------------------
# serialization


def root_system_to_json(rs: RootSystem) -> str:
    doc = {
        "family": rs.family,
        "rank": rs.rank,
        "multiplicities": [str(k) for k in rs.multiplicities],
        "roots": [[str(c) for c in r.direction] for r in rs.positive_roots],
        "orbits": list(rs.orbit_labels),
        "dimension": rs.dimension,
    }
    return json.dumps(doc, sort_keys=True)


def root_system_from_json(text: str) -> RootSystem:
    doc = json.loads(text)
    roots = []
    exact = True
    for coords in doc["roots"]:
        try:
            d = tuple(Fraction(c) for c in coords)
            roots.append(Root(d))
        except ValueError:
            roots.append(Root(tuple(float(c) for c in coords), exact=False))
            exact = False
    def _parse_mult(k):
        try:
            return Fraction(k) if exact else float(Fraction(k))
        except ValueError:
            return float(k)

    mults = tuple(_parse_mult(k) for k in doc["multiplicities"])
    return RootSystem(
        family=doc["family"],
        rank=doc["rank"],
        dimension=doc["dimension"],
        positive_roots=tuple(roots),
        multiplicities=mults,
        orbit_labels=tuple(doc["orbits"]),
    )
