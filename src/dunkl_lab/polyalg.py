"""Exact multivariate polynomials over Q and the symbolic Dunkl calculus.

Everything in this module is exact: coefficients are Fractions, reflections
act on exponents and signs when sigma_alpha is a signed permutation (every
built-in exact family: A, B, Z2, I2(1), I2(2), I2(4)), and a hand-built
rational root whose reflection is not one, such as direction (1, 2), acts by
exact linear substitution (``Polynomial.compose_linear``).  Divided
differences are exact synthetic divisions by a linear form.  A
floating-point value anywhere in here is a bug.

The difference term of a Dunkl operator,
k_alpha * alpha_i * (p - p o sigma_alpha)/<alpha, x>, is computed with the
root's rational direction v (alpha = c v):  alpha_i/<alpha, x> = v_i/<v, x>,
so the sqrt(2) scale cancels and every operator output stays rational.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .reflection import Root, RootSystem, reflection_matrix

__all__ = [
    "Polynomial",
    "ExactDivisionError",
    "variable",
    "constant",
    "norm_squared",
    "reflect_poly",
    "divided_difference",
    "dunkl_apply",
    "dunkl_gradient_sym",
    "dunkl_laplacian_fast",
    "identity_checks",
]


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (arithmetic bug)."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact polynomial coefficients must be rational, got {type(x)}")


class Polynomial:
    """Sparse polynomial: exponent tuple -> Fraction, zero coefficients dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c != 0:
                    if len(e) != nvars:
                        raise ValueError("exponent tuple length != nvars")
                    self.terms[tuple(e)] = c

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(self.nvars, other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, Fraction(0)) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.terms = self.nvars, t
        return out

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return Polynomial(self.nvars)
            out = Polynomial.__new__(Polynomial)
            out.nvars = self.nvars
            out.terms = {e: cc * c for e, cc in self.terms.items()}
            return out
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, Fraction(0)) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.terms = self.nvars, t
        return out

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, i: int) -> "Polynomial":
        t: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
                t[e2] = t.get(e2, Fraction(0)) + c * e[i]
        return Polynomial(self.nvars, t)

    # -- substitution and evaluation ---------------------------------------

    def compose_linear(self, matrix) -> "Polynomial":
        """p(Mx): substitute x_i -> sum_j M[i][j] x_j (exact rational M)."""
        n = self.nvars
        rows = [
            Polynomial(n, {tuple(1 if l == j else 0 for l in range(n)): _frac(matrix[i][j])
                           for j in range(n) if matrix[i][j] != 0})
            for i in range(n)
        ]
        pow_cache: dict = {}

        def lin_pow(i, m):
            key = (i, m)
            if key not in pow_cache:
                pow_cache[key] = (
                    constant(n, 1) if m == 0 else lin_pow(i, m - 1) * rows[i]
                )
            return pow_cache[key]

        out = Polynomial(n)
        for e, c in self.terms.items():
            term = constant(n, c)
            for i, m in enumerate(e):
                if m:
                    term = term * lin_pow(i, m)
            out = out + term
        return out

    def evaluate_exact(self, point):
        vals = [_frac(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, m in zip(vals, e):
                for _ in range(m):
                    t *= v
            total += t
        return total

    def evaluate(self, points) -> np.ndarray:
        """Float evaluation at a batch of points (M, N) (or a single (N,))."""
        X = np.asarray(points, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        out = np.zeros(X.shape[0])
        for e, c in self.terms.items():
            t = np.full(X.shape[0], float(c))
            for i, m in enumerate(e):
                if m:
                    t *= X[:, i] ** m
            out += t
        return float(out[0]) if single else out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}^{m}" if m > 1 else f"x{i}" for i, m in enumerate(e) if m
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"


def variable(i: int, nvars: int) -> Polynomial:
    return Polynomial(nvars, {tuple(1 if j == i else 0 for j in range(nvars)): 1})


def constant(nvars: int, c) -> Polynomial:
    return Polynomial(nvars, {(0,) * nvars: _frac(c)})


def norm_squared(nvars: int) -> Polynomial:
    return Polynomial(
        nvars,
        {tuple(2 if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)},
    )


# ---------------------------------------------------------------------------
# division by a linear form


def _divide_by_linear(p: Polynomial, v) -> Polynomial:
    """Exact quotient p / <v, x>; raises ExactDivisionError on a remainder.

    Synthetic division pivoting on one variable x_j with v_j != 0: from the
    highest power of x_j down, each term c x^e gives the quotient term
    q = c / v_j at e - e_j, and q v_i is subtracted at e - e_j + e_i for
    every other i with v_i != 0, one power of x_j lower.  Whatever is left
    free of x_j is the remainder.
    """
    n = p.nvars
    j = next(i for i, c in enumerate(v) if c != 0)
    vj = _frac(v[j])
    others = [(i, _frac(v[i])) for i in range(n) if i != j and v[i] != 0]
    levels: dict[int, dict] = {}  # power of x_j -> {exponent: coefficient}
    for e, c in p.terms.items():
        levels.setdefault(e[j], {})[e] = c
    quotient: dict = {}
    for d in range(max(levels, default=0), 0, -1):
        level = {
            e[:j] + (d - 1,) + e[j + 1 :]: c / vj
            for e, c in levels.pop(d, {}).items()
            if c
        }
        quotient.update(level)
        below = levels.setdefault(d - 1, {})
        for i, vi in others:
            for e, q in level.items():
                f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                below[f] = below.get(f, 0) - vi * q
    if any(levels.get(0, {}).values()):
        raise ExactDivisionError("polynomial is not divisible by the linear form")
    out = Polynomial.__new__(Polynomial)
    out.nvars, out.terms = n, quotient
    return out


# ---------------------------------------------------------------------------
# Dunkl operators


def _require_exact(rs: RootSystem):
    if not rs.exact:
        raise ValueError(
            "symbolic Dunkl calculus needs rational root data "
            f"(family {rs.family}({rs.rank}) has irrational roots)"
        )
    for k in rs.multiplicities:
        if not isinstance(k, (Fraction, int)):
            raise ValueError("symbolic Dunkl calculus needs rational multiplicities")


class _SignedPermutation(NamedTuple):
    """sigma_alpha x = (s_0 x_pi(0), ..., s_(N-1) x_pi(N-1)), s_i = +-1.

    x^e o sigma_alpha = (prod of s_i^(e_i)) x^f with f_pi(i) = e_i; ``perm``
    lists pi^-1, so f = (e_perm[0], ..., e_perm[N-1]), and ``flipped`` lists
    the i with s_i = -1.
    """

    perm: tuple
    flipped: tuple


@lru_cache(maxsize=None)
def _reflection_data(root: Root):
    """The reflection of ``root`` as a _SignedPermutation when it is one,
    otherwise its exact matrix; built once per root, on first use."""
    m = reflection_matrix(root, exact=True)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in m]
    if not all(len(r) == 1 and abs(r[0][1]) == 1 for r in rows):
        return m
    inverse = [0] * len(rows)
    for i, ((j, _),) in enumerate(rows):
        inverse[j] = i
    flipped = tuple(i for i, ((_, c),) in enumerate(rows) if c < 0)
    return _SignedPermutation(tuple(inverse), flipped)


def reflect_poly(p: Polynomial, root: Root) -> Polynomial:
    """p o sigma_alpha, exactly.

    When sigma_alpha is a signed permutation each term maps in O(N): its
    exponents are permuted and its coefficient changes sign when the
    flipped axes carry an odd total power.  No built-in family has any other
    root; a hand-built rational one (e.g. direction (1, 2)) falls back to
    ``compose_linear`` with the exact reflection matrix.
    """
    data = _reflection_data(root)
    if not isinstance(data, _SignedPermutation):
        return p.compose_linear(data)
    perm, flipped = data
    terms = {}
    for e, c in p.terms.items():
        odd = sum(e[i] for i in flipped) & 1
        terms[tuple(e[i] for i in perm)] = -c if odd else c
    out = Polynomial.__new__(Polynomial)
    out.nvars, out.terms = p.nvars, terms
    return out


def divided_difference(p: Polynomial, root: Root) -> Polynomial:
    """Exact q with <v, x> q = p - p o sigma_alpha, v the rational direction.

    The quotient against <alpha, x> itself is q / c with c = sqrt(2/|v|^2);
    the scale cancels inside Dunkl operators and is left to the caller.
    """
    diff = p - reflect_poly(p, root)
    if diff.is_zero():
        return Polynomial(p.nvars)
    return _divide_by_linear(diff, root.direction)


def _dunkl_terms(rs: RootSystem, p: Polynomial, coords) -> list:
    """[T_i p for i in coords], with one divided difference per active root
    that touches coords:
    T_i p = d_i p + sum_alpha k_alpha alpha_i (p - p o sigma_alpha)/<alpha,x>."""
    _require_exact(rs)
    out = [p.partial(i) for i in coords]
    for root, k in rs.active_roots():
        touched = [(slot, _frac(root.direction[i]))
                   for slot, i in enumerate(coords) if root.direction[i] != 0]
        if not touched:
            continue
        q = divided_difference(p, root)
        for slot, vi in touched:
            out[slot] = out[slot] + (k * vi) * q
    return out


def dunkl_apply(rs: RootSystem, i: int, p: Polynomial) -> Polynomial:
    """T_i p, the i-th Dunkl operator of the positive subsystem of rs."""
    return _dunkl_terms(rs, p, (i,))[0]


def dunkl_gradient_sym(rs: RootSystem, p: Polynomial) -> list:
    """[T_0 p, ..., T_(N-1) p]."""
    return _dunkl_terms(rs, p, range(rs.dimension))


def dunkl_laplacian_fast(rs: RootSystem, p: Polynomial) -> Polynomial:
    """Dunkl Laplacian via the gradient/difference formula (single route)."""
    _require_exact(rs)
    n = rs.dimension
    out = Polynomial(n)
    grad = [p.partial(i) for i in range(n)]
    for i in range(n):
        out = out + grad[i].partial(i)
    for root, k in rs.active_roots():
        v = root.direction
        grad_dot_v = Polynomial(n)
        for i in range(n):
            if v[i] != 0:
                grad_dot_v = grad_dot_v + _frac(v[i]) * grad[i]
        q = divided_difference(p, root)
        # <grad p, alpha>/<alpha,x> - (p - p o sigma)/<alpha,x>^2
        #   = [<grad p, v> - (|v|^2/2) q] / <v, x>
        num = grad_dot_v - (root.norm2_direction * Fraction(1, 2)) * q
        out = out + (2 * k) * _divide_by_linear(num, v)
    return out


# ---------------------------------------------------------------------------
# identity checks


def identity_checks(rs: RootSystem, polys) -> list:
    """The exact identity suite over a list of polynomials.

    Per polynomial p (index idx), with i = idx mod N, j = idx+1 mod N, v the
    next polynomial of the list and alpha the positive root idx mod m:
    T_i T_j p = T_j T_i p; sum_l T_l T_l p against dunkl_laplacian_fast; the
    general product rule for T_i(p v) and the short one for T_i(p |x|^2)
    (|x|^2 is G-invariant); the divided difference of p against alpha; and
    T_i p unchanged when every positive root but alpha is negated.  Each
    polynomial's Dunkl gradient is computed once.  Returns (name, ok,
    residual) entries; an identity holds exactly or not at all, so residual
    is 0.0 or 1.0.
    """
    N = rs.dimension
    roots = rs.positive_roots
    m = len(roots)
    inv = norm_squared(N)
    inv_grad = dunkl_gradient_sym(rs, inv)
    grads = [dunkl_gradient_sym(rs, p) for p in polys]
    out = []
    for idx, (p, grad) in enumerate(zip(polys, grads)):
        i, j = idx % N, (idx + 1) % N
        root = roots[idx % m]
        nxt = (idx + 1) % len(polys)
        v, v_grad = polys[nxt], grads[nxt]
        squares = Polynomial(N)
        for l in range(N):
            squares = squares + dunkl_apply(rs, l, grad[l])
        # T_i(pv) = v T_i p + p T_i v - sum_alpha k alpha_i (p - p o sigma)
        # (v - v o sigma)/<alpha, x>; the correction is built without
        # divided_difference, so that this rule checks it
        corr = Polynomial(N)
        for r, k in rs.active_roots():
            if r.direction[i] == 0:
                continue
            dp, dv = p - reflect_poly(p, r), v - reflect_poly(v, r)
            if not (dp.is_zero() or dv.is_zero()):
                corr = corr + (k * _frac(r.direction[i])) * _divide_by_linear(
                    dp * dv, r.direction)
        general = dunkl_apply(rs, i, p * v) - (v * grad[i] + p * v_grad[i] - corr)
        short = dunkl_apply(rs, i, p * inv) - (inv * grad[i] + p * inv_grad[i])
        lin = Polynomial(N, {tuple(int(t == axis) for t in range(N)): c
                             for axis, c in enumerate(root.direction) if c})
        flipped = replace(rs, positive_roots=tuple(
            r if t == idx % m else r.negate() for t, r in enumerate(roots)))
        checks = (
            ("commutativity",
             dunkl_apply(rs, i, grad[j]) == dunkl_apply(rs, j, grad[i])),
            ("laplacian_routes", squares == dunkl_laplacian_fast(rs, p)),
            ("leibniz_general", general.is_zero()),
            ("leibniz_invariant", short.is_zero()),
            ("divided_difference",
             (lin * divided_difference(p, root) - (p - reflect_poly(p, root)))
             .is_zero()),
            ("subsystem_independence", dunkl_apply(flipped, i, p) == grad[i]),
        )
        out.extend((f"{name}/{idx}", ok, 0.0 if ok else 1.0) for name, ok in checks)
    return out
