"""Root systems, finite reflection groups, and the reflection-invariant weight.

Roots are normalized so that |alpha|^2 = 2.  Each root is stored as a rational
direction vector v together with the implied scale c = sqrt(2/|v|^2), so that
alpha = c*v.  All reflection matrices I - c^2 v v^T are then exact rational
matrices whenever v is rational, which is what the exact polynomial calculus
in :mod:`dunkl_lab.polyalg` relies on.  Float code reads each root's geometry
(|v|^2, c^2, v and alpha), built once when the root is constructed, and forms
sigma_alpha x only through :func:`reflect`.  The exact calculus reads the
root's integer direction and, when sigma_alpha is one, its signed
permutation, each built on first use and kept on the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, sqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "Root",
    "RootSystem",
    "SignedPermutation",
    "SingularPointError",
    "build_root_system",
    "embed_root_system",
    "reflect",
    "reflection_matrix",
    "generate_group",
    "weight",
    "near_hyperplane",
    "rho",
]

HYPERPLANE_RTOL = 1e-8
_MAX_GROUP_ORDER = 20000  # closure guard against an invalid root system


class SingularPointError(ValueError):
    """Raised when an operation is evaluated on a reflection hyperplane."""


class SignedPermutation(NamedTuple):
    """sigma_alpha x = (s_0 x_pi(0), ..., s_(N-1) x_pi(N-1)), s_i = +-1.

    x^e o sigma_alpha = (prod of s_i^(e_i)) x^f with f_pi(i) = e_i; ``perm``
    lists pi^-1, so f = (e_perm[0], ..., e_perm[N-1]), and ``flipped`` lists
    the i with s_i = -1.
    """

    perm: tuple
    flipped: tuple


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
    # derived once in __post_init__ and left out of equality and hash:
    # |v|^2 and c^2 (exact for exact roots), c^2 as a float, and v and alpha
    # as read-only float arrays
    _norm2: object = field(init=False, repr=False, compare=False)
    _c2: object = field(init=False, repr=False, compare=False)
    _fc2: float = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n2 = sum(x * x for x in self.direction)
        c2 = Fraction(2) / n2 if self.exact else 2.0 / n2  # c^2 |v|^2 = 2
        v = np.array([float(x) for x in self.direction])
        alpha = sqrt(float(c2)) * v
        v.flags.writeable = alpha.flags.writeable = False
        for name, value in (("_norm2", n2), ("_c2", c2), ("_fc2", float(c2)),
                            ("_v", v), ("_alpha", alpha)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def norm2_direction(self):
        return self._norm2

    @property
    def c2(self):
        return self._c2

    @property
    def vector(self) -> np.ndarray:
        """alpha as a read-only float vector, |alpha|^2 = 2."""
        return self._alpha

    def negate(self) -> "Root":
        return Root(tuple(-x for x in self.direction), self.exact)

    # exact data, built on first use; cached_property writes the instance
    # dict, so these stay out of equality, hash and repr

    @cached_property
    def integer_direction(self) -> tuple:
        """(w, s) with direction = w / s: w the direction scaled to coprime
        integers whose first nonzero entry is positive, s a Fraction."""
        v = [_as_fraction(x) for x in self.direction]
        den = lcm(*(x.denominator for x in v))
        w = [x.numerator * (den // x.denominator) for x in v]
        g = gcd(*w) if next(x for x in w if x) > 0 else -gcd(*w)
        return tuple(x // g for x in w), Fraction(den, g)

    @cached_property
    def signed_permutation(self) -> SignedPermutation | None:
        """sigma_alpha as a SignedPermutation, or None when it is not one
        (e.g. direction (1, 2)); every built-in exact root has one."""
        rows = [[(j, c) for j, c in enumerate(row) if c]
                for row in reflection_matrix(self, exact=True)]
        if not all(len(r) == 1 and abs(r[0][1]) == 1 for r in rows):
            return None
        inverse = [0] * len(rows)
        for i, ((j, _),) in enumerate(rows):
            inverse[j] = i
        flipped = tuple(i for i, ((_, c),) in enumerate(rows) if c < 0)
        return SignedPermutation(tuple(inverse), flipped)

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

    def active_roots(self):
        """(root, k) pairs with k != 0, the only ones entering Dunkl sums."""
        return [
            (r, k) for r, k in zip(self.positive_roots, self.multiplicities) if k != 0
        ]


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
    v = root._v
    return x - root._fc2 * np.multiply.outer(x @ v, v)


def reflection_matrix(root: Root, exact: bool):
    """Matrix of sigma_alpha = I - c^2 v v^T.

    With ``exact=True`` returns a tuple-of-tuples of Fractions, otherwise a
    float ndarray.
    """
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
    return np.eye(n) - root._fc2 * np.outer(root._v, root._v)


def generate_group(rs: RootSystem) -> tuple:
    """The group elements as float (N, N) matrices: the breadth-first
    closure of the generating reflections under matrix multiplication; two
    products are the same element when their entries agree to 9 decimals."""
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
                    if len(seen) > _MAX_GROUP_ORDER:
                        raise ValueError(
                            f"group closure exceeded {_MAX_GROUP_ORDER} "
                            "elements; input is not a valid finite root system"
                        )
        frontier = nxt
    return tuple(seen.values())


# ---------------------------------------------------------------------------
# weight, rho


def weight(rs: RootSystem, x):
    """omega_k(x) = prod over positive roots of |<alpha,x>|^(2 k_alpha)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    out = np.ones(X.shape[0])
    for root, k in rs.active_roots():
        t2 = root._fc2 * (X @ root._v) ** 2  # <alpha,x>^2
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
        # 2 k alpha/<alpha,x> = 2 k v/<v,x>
        out += 2.0 * float(k) * np.multiply.outer(1.0 / (X @ root._v), root._v)
    return out[0] if single else out
