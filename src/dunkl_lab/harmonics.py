"""Spherical h-harmonics: exact kernel bases of the Dunkl Laplacian on
homogeneous polynomials, made orthonormal from exact omega_k-weighted
sphere means, plus spectral expansion and the Parseval residual.
Functions u are callables on (M, N) batches of points; the sphere and
polar grids come from ``quad``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .polyalg import (
    Polynomial,
    _require_exact,
    dunkl_laplacian_fast,
    norm_squared,
    sphere_mean,
)
from .quad import (
    RadialGrid,
    SphericalRule,
    integrate_measure,
    polar_values,
    radial_nodes,
    sphere_weight_integral,
    weighted_sphere,
)
from .reflection import RootSystem

__all__ = [
    "HHarmonicBasis",
    "SpectralCoefficients",
    "hharmonic_dim",
    "homogeneous_exponents",
    "fraction_kernel",
    "kernel_basis",
    "build_basis",
    "eigenvalue",
    "sphere_eigencheck",
    "expand",
    "parseval_residual",
]


def hharmonic_dim(n: int, N: int) -> int:
    """Dimension of the degree-n h-harmonic space,
    C(n+N-1, N-1) - C(n+N-3, N-1)."""
    if n < 0 or N < 2:
        raise ValueError("need n >= 0 and N >= 2")

    def c(a, b):
        return comb(a, b) if a >= 0 else 0

    return c(n + N - 1, N - 1) - c(n + N - 3, N - 1)


def eigenvalue(n: int, nbar) -> float:
    """Sphere-restriction eigenvalue -n(n + nbar - 2)."""
    return -n * (n + nbar - 2)


def homogeneous_exponents(n: int, N: int) -> list:
    """All exponent tuples of total degree n, in a fixed canonical order."""
    if N == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        out.extend((first,) + rest for rest in homogeneous_exponents(n - first, N - 1))
    return out


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def fraction_kernel(rows, ncols):
    """Kernel basis of an exact rational matrix given as a list of rows of
    ints and Fractions.

    Gauss-Jordan elimination to the reduced echelon form, run on integer
    rows: each row is scaled to integers, a pivot row clears its column
    from every other row by cross-multiplication, and each row is kept
    divided by the gcd of its entries.  Each row is a nonzero multiple of
    the reduced row with the same pivot, so the kernel vector of free
    column f has -m[r][f]/m[r][p] at each pivot column p (row r) and 1 at f.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    nrows = len(m)
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        a = prow[c]
        for i in range(nrows):
            b = m[i][c]
            if i != r and b:
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], prow)])
        pivots[c] = r
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, pr in pivots.items():
            v[pc] = Fraction(-m[pr][fc], m[pr][pc])
        kernel.append(v)
    return kernel


@dataclass
class HHarmonicBasis:
    degree: int
    dimension: int
    kernel_polys: list  # exact rational kernel of the Dunkl Laplacian
    transform: np.ndarray  # (d, d) inverse Cholesky factor of the Gram matrix

    def evaluate(self, points) -> np.ndarray:
        """Orthonormal basis values, shape (d, M)."""
        raw = np.array([p.evaluate(points) for p in self.kernel_polys])
        return self.transform @ np.atleast_2d(raw)


def kernel_basis(rs: RootSystem, n: int) -> list:
    """Exact basis of homogeneous degree-n polynomials killed by the
    Dunkl Laplacian, the kernel of its matrix on the degree-n monomials.
    For n < 2 the matrix has no rows and the basis is the monomials."""
    _require_exact(rs)
    N = rs.dimension
    src = homogeneous_exponents(n, N)
    tgt = homogeneous_exponents(n - 2, N)
    tgt_index = {e: i for i, e in enumerate(tgt)}
    cols = []
    for e in src:
        lap = dunkl_laplacian_fast(rs, Polynomial(N, {e: 1}))
        col = [Fraction(0)] * len(tgt)
        for ee, c in lap.terms.items():
            col[tgt_index[ee]] = c
        cols.append(col)
    rows = [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]
    kernel = fraction_kernel(rows, len(src))
    polys = [
        Polynomial(N, {e: c for e, c in zip(src, vec) if c != 0})
        for vec in kernel
    ]
    d = hharmonic_dim(n, N)
    if len(polys) != d:
        raise ArithmeticError(
            f"kernel dimension {len(polys)} != expected d({n}) = {d}"
        )
    return polys


def build_basis(rs: RootSystem, n: int, rule: SphericalRule) -> HHarmonicBasis:
    """Exact kernel basis made orthonormal in <f, g> = int_S f g omega_k.

    The Gram matrix is G_ij = S_k mean(p_i p_j), with the exact sphere means
    of ``polyalg.sphere_mean`` and S_k = ``quad.sphere_weight_integral``, the
    one number the rule supplies.  With G = L L^T (Cholesky), the transform
    L^-1 is the lower-triangular map Gram-Schmidt would build.
    """
    polys = kernel_basis(rs, n)
    mean = sphere_mean(rs)
    sk = sphere_weight_integral(rs, rule)
    d = len(polys)
    gram = np.empty((d, d))
    for i in range(d):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = sk * float(mean(polys[i] * polys[j]))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("degenerate h-harmonic Gram matrix") from exc
    return HHarmonicBasis(n, d, polys, np.linalg.inv(chol))


def sphere_eigencheck(rs: RootSystem, p: Polynomial) -> Polynomial:
    """Residual Dunkl-Laplacian(|x|^2 p) - ((n+2)(n+nbar) + lambda_n) p for
    homogeneous p of degree n, with lambda_n = ``eigenvalue(n, nbar)``.

    For p in the degree-n kernel, the polar form of the Dunkl Laplacian
    gives Dunkl-Laplacian(|x|^2 p) = ((n+2)(n+nbar) + lambda_n) p with
    lambda_n the sphere eigenvalue -n(n + nbar - 2), i.e. 2(2n + nbar) p.
    So for p in the kernel the residual is zero iff ``eigenvalue`` is right;
    with the right eigenvalue it is |x|^2 Dunkl-Laplacian(p), zero iff p is
    in the kernel.
    """
    _require_exact(rs)
    if not p.is_homogeneous():
        raise ValueError("eigencheck needs a homogeneous polynomial")
    n = p.degree()
    nbar = Fraction(rs.dimension) + 2 * rs.gamma
    lap = dunkl_laplacian_fast(rs, norm_squared(p.nvars) * p)
    return lap - ((n + 2) * (n + nbar) + eigenvalue(n, nbar)) * p


# ---------------------------------------------------------------------------
# spectral expansion


@dataclass
class SpectralCoefficients:
    radii: np.ndarray
    radial_weights: np.ndarray
    tables: dict  # (n, i) -> coefficient values at radii


def expand(
    rs: RootSystem, u, bases, grid: RadialGrid, rule: SphericalRule
) -> SpectralCoefficients:
    """Tabulate u_{n,i}(r) = int_{S} u(r xi) Y_i^n(xi) omega_k(xi) dnu(xi)."""
    nodes, wsph = weighted_sphere(rs, rule)
    r, wr = radial_nodes(grid)
    U = polar_values(u, r, nodes)
    tables = {}
    for b in bases:
        Y = b.evaluate(nodes)
        coeffs = U @ (Y * wsph).T  # (Mr, d)
        for i in range(b.dimension):
            tables[(b.degree, i)] = coeffs[:, i]
    return SpectralCoefficients(r, wr, tables)


def parseval_residual(
    rs: RootSystem, u, coeffs: SpectralCoefficients, grid: RadialGrid,
    rule: SphericalRule,
) -> float:
    """Relative gap between int u^2 dmu and the summed squared radial
    coefficients against r^(nbar-1) dr."""
    total_sq = integrate_measure(rs, lambda X: np.asarray(u(X)) ** 2, grid, rule).value
    nbar = rs.dimension + 2.0 * rs.gamma
    wpow = coeffs.radial_weights * coeffs.radii ** (nbar - 1.0)
    mode_sum = sum(float(np.sum(wpow * c**2)) for c in coeffs.tables.values())
    return abs(total_sq - mode_sum) / (abs(total_sq) + 1e-300)

