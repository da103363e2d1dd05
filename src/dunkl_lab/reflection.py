"""Root systems, finite reflection groups, and the reflection-invariant weight.

Roots are normalized so that |alpha|^2 = 2.  Each root is stored as a
direction vector v together with the implied scale c = sqrt(2/|v|^2), so that
alpha = c*v.  Float code reads each root's geometry (c^2, v and alpha), built
once when the root is constructed, and forms sigma_alpha x only through
:func:`reflect`.  The exact calculus in :mod:`dunkl_lab.polyalg` reads the
root's integer direction and its signed axes (``Root.signed_axes``), each
built on first use and kept on the root: every exact root of the built-in
families is a multiple of e_i, e_i - e_j or e_i + e_j, whose reflection is a
signed permutation, and the exact calculus supports no other root.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, inf, lcm, sqrt

import numpy as np

__all__ = [
    "Root",
    "RootSystem",
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
    # derived once in __post_init__ and left out of equality and hash: c^2
    # as a float, and v and alpha as read-only float arrays
    _fc2: float = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n2 = sum(x * x for x in self.direction)
        if not n2:
            raise ValueError(f"root direction {self!r} is zero")
        # c^2 |v|^2 = 2, rounded once from the exact value
        c2 = float(Fraction(2) / n2 if self.exact else 2.0 / n2)
        v = np.array([float(x) for x in self.direction])
        alpha = sqrt(c2) * v
        v.flags.writeable = alpha.flags.writeable = False
        for name, value in (("_fc2", c2), ("_v", v), ("_alpha", alpha)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.direction)

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
    def signed_axes(self) -> tuple | None:
        """(axes, plus) when sigma_alpha is a signed permutation, read off the
        integer direction w: ((i,), False) for w = e_i, whose reflection
        negates x_i, and ((i, j), w_j > 0) for w = e_i -+ e_j, i < j, whose
        reflection swaps x_i and x_j (and negates both for e_i + e_j).  None
        for any other w (e.g. (1, 2)) and for a float root; every built-in
        exact root has one."""
        if not self.exact:
            return None
        w, _ = self.integer_direction
        axes = tuple(i for i, c in enumerate(w) if c)
        if len(axes) > 2 or any(abs(w[i]) != 1 for i in axes):
            return None
        return axes, len(axes) == 2 and w[axes[1]] > 0

    def __repr__(self):
        return f"Root({tuple(str(x) for x in self.direction)})"


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    dimension: int
    positive_roots: tuple
    multiplicities: tuple  # aligned with positive_roots

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


# the exact I2(m) directions, at angles 0, pi/4, pi/2 and 3 pi/4
_DIHEDRAL_EXACT = ((1, 0), (1, 1), (0, 1), (1, -1))


def _root(n, *entries):
    """The exact root in R^n with the given (axis, entry) pairs, 0 elsewhere."""
    d = [Fraction(0)] * n
    for i, c in entries:
        d[i] = Fraction(c)
    return Root(tuple(d))


def _dihedral_root(j, m):
    """The I2(m) root at angle j*pi/m.  By Niven's theorem its slope is
    rational only at multiples of pi/4, i.e. when m divides 4j."""
    if 4 * j % m == 0:
        return _root(2, *enumerate(_DIHEDRAL_EXACT[4 * j // m]))
    theta = np.pi * j / m
    return Root((np.cos(theta), np.sin(theta)), exact=False)


def build_root_system(family: str, rank: int, multiplicities) -> RootSystem:
    """Construct one of the supported families A(n), B(n), Z2^n, I2(m).

    ``multiplicities`` is one value per conjugacy orbit of roots (a scalar is
    broadcast to all orbits), each finite and nonnegative: a Fraction for an
    exact system (a float by its nearest fraction of denominator <= 1e12),
    a float otherwise.  A(n) lives in R^(n+1); the others in R^rank (I2(m)
    in R^2 with rank = m).
    """
    family = family.upper()
    if rank < 1:
        raise ValueError("rank must be >= 1")

    # (root, orbit label) pairs; orbits are labelled 0, 1, ...
    if family == "A":
        dim = rank + 1
        pairs = [(_root(dim, (i, 1), (j, -1)), 0)
                 for i, j in combinations(range(dim), 2)]
    elif family == "B":
        if rank < 2:
            raise ValueError("B(n) needs rank >= 2")
        dim = rank
        pairs = [(_root(dim, (i, 1), (j, s)), 0)
                 for i, j in combinations(range(dim), 2) for s in (-1, 1)]
        pairs += [(_root(dim, (i, 1)), 1) for i in range(dim)]  # sqrt(2) e_i
    elif family == "Z2":
        dim = rank
        pairs = [(_root(dim, (i, 1)), i) for i in range(dim)]
    elif family == "I2":
        dim, m = 2, rank
        pairs = [(_dihedral_root(j, m), j % 2 if m % 2 == 0 else 0)
                 for j in range(m)]
    else:
        raise ValueError(f"unknown family {family!r}; expected A, B, Z2 or I2")

    roots, orbits = zip(*pairs)
    exact = all(r.exact for r in roots)
    n_orbits = 1 + max(orbits)
    if not isinstance(multiplicities, (list, tuple)):
        multiplicities = [multiplicities] * n_orbits
    if len(multiplicities) != n_orbits:
        raise ValueError(
            f"expected {n_orbits} multiplicities (one per root orbit), "
            f"got {len(multiplicities)}"
        )
    ks = []
    for k in multiplicities:
        if not exact:
            k = float(k)
        elif not isinstance(k, float):
            k = _as_fraction(k)
        elif 0 <= k < inf:  # a nan, inf or negative float fails below
            k = Fraction(k).limit_denominator(10**12)
        if not 0 <= k < inf:
            raise ValueError("multiplicities must be finite and nonnegative")
        ks.append(k)
    return RootSystem(family, rank, dim, roots, tuple(ks[o] for o in orbits))


def embed_root_system(rs: RootSystem, dimension: int) -> RootSystem:
    """Zero-pad the roots into a larger ambient space (span stays the same)."""
    if dimension < rs.dimension:
        raise ValueError("target dimension smaller than current one")
    pad = (Fraction(0) if rs.exact else 0.0,) * (dimension - rs.dimension)
    roots = tuple(Root(r.direction + pad, r.exact) for r in rs.positive_roots)
    return replace(rs, dimension=dimension, positive_roots=roots)


# ---------------------------------------------------------------------------
# reflections


def reflect(root: Root, x):
    """sigma_alpha x = x - <alpha,x> alpha (using |alpha|^2 = 2).

    Accepts a single point (N,) or a batch (M, N); float output.
    """
    x = np.asarray(x, dtype=float)
    v = root._v
    return x - root._fc2 * np.multiply.outer(x @ v, v)


def reflection_matrix(root: Root) -> np.ndarray:
    """Float matrix of sigma_alpha = I - c^2 v v^T."""
    return np.eye(root.dim) - root._fc2 * np.outer(root._v, root._v)


def generate_group(rs: RootSystem) -> tuple:
    """The group elements as float (N, N) matrices: the breadth-first
    closure of the generating reflections under matrix multiplication; two
    products are the same element when their entries agree to 9 decimals."""
    gens = [reflection_matrix(r) for r in rs.positive_roots]
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
