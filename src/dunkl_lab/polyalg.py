"""Exact multivariate polynomials over Q and the symbolic Dunkl calculus.

Everything in this module is exact.  A polynomial is stored as integer
numerators over one common integer denominator (the representation of
FLINT's ``fmpq_poly``), kept canonical: the denominator is positive and
coprime to the numerators, no numerator is zero, and the zero polynomial
has denominator 1.  So ``==`` and ``hash`` compare plain integers, and every
sum, product, derivative, reflection and division runs on ints; ``terms``
is a read-only view that gives each coefficient as a ``Fraction``.
The calculus supports the roots whose reflection sigma_alpha is a signed
permutation: those with integer direction (``Root.integer_direction``) e_i,
e_i - e_j or e_i + e_j, which are all the exact roots of the built-in
families (A, B, Z2, I2(1), I2(2), I2(4)).  Any other root, such as a
hand-built direction (1, 2), raises ``ValueError`` naming it.  Reflections
act on exponents and signs, and the divided difference
(p - p o sigma_alpha)/<v, x> is built term by term in closed form: x^e maps
to 2 x^(e - e_i) (e_i odd), to a geometric sum in x_i, x_j, or to that sum
with the signs of x_j -> -x_j (see ``divided_difference``).  A
floating-point value anywhere in here is a bug.

The difference term of a Dunkl operator,
k_alpha * alpha_i * (p - p o sigma_alpha)/<alpha, x>, is computed with the
root's rational direction v (alpha = c v):  alpha_i/<alpha, x> = v_i/<v, x>,
so the sqrt(2) scale cancels and every operator output stays rational.
T_i p and the Dunkl Laplacian each read their derivatives off p's terms and
sum every contribution in one integer dict over a common denominator.  The
Laplacian's term of a root,
k_alpha (2 <grad p, w> - |w|^2 (p - p o sigma_alpha)/<w, x>)/<w, x> for the
integer direction w, is built per monomial in closed form as well:
x^e maps to 2 (e_i - [e_i odd]) x^(e - 2 e_i) for w = e_i, and to a weighted
sum in x_i, x_j for w = e_i -+ e_j (see ``dunkl_laplacian_fast``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

import numpy as np

from .reflection import Root, RootSystem

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
    "sphere_mean",
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


def _wrap(nvars: int, num: dict, den: int) -> "Polynomial":
    """The polynomial num/den, already in canonical form."""
    out = object.__new__(Polynomial)
    out.nvars, out._num, out._den = nvars, num, den
    return out


def _canonical(nvars: int, num: dict, den: int) -> "Polynomial":
    """The polynomial num/den (den > 0, no zero numerator), with
    gcd(den, numerators) divided out."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _wrap(nvars, num, den)


class _Terms(Mapping):
    """Read-only exponent tuple -> Fraction view of a polynomial, in term
    order; each coefficient is built when it is read."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, e) -> Fraction:
        return Fraction(self._num[e], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __contains__(self, e) -> bool:
        return e in self._num

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """Sparse polynomial: exponent tuple -> int numerator over one int
    denominator, in canonical form (see the module docstring).

    Each exponent must be a tuple of nvars non-negative ``int``s (no
    ``bool``); anything else raises ``ValueError``, whatever its coefficient.
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: dict | None = None):
        coeffs = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != nvars:
                    raise ValueError("exponent tuple length != nvars")
                if not all(type(m) is int and m >= 0 for m in e):
                    raise ValueError(
                        f"exponent {e!r} is not a tuple of non-negative ints")
                c = _frac(c)
                if c != 0:
                    coeffs[e] = c
        # reduced Fractions over their lcm have coprime numerators
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars, self._den = nvars, den
        self._num = {e: c.numerator * (den // c.denominator)
                     for e, c in coeffs.items()}

    @property
    def terms(self) -> Mapping:
        """exponent tuple -> Fraction coefficient, zero coefficients dropped."""
        return _Terms(self._num, self._den)

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        return max((sum(e) for e in self._num), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._num}
        return len(degs) <= 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self.degree() == 0:
            # a constant equals its int or Fraction value, so hashes as it
            return hash(Fraction(sum(self._num.values()), self._den))
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = constant(self.nvars, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        elif other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        a, b = self._den, other._den
        if a == b:
            den, t, scale = a, dict(self._num), sign
        else:
            den = lcm(a, b)
            m = den // a
            t = {e: c * m for e, c in self._num.items()}
            scale = sign * (den // b)
        for e, c in other._num.items():
            s = t.get(e, 0) + scale * c
            if s:
                t[e] = s
            else:
                del t[e]
        return _canonical(self.nvars, t, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return _wrap(self.nvars, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a = other.numerator
            if not a:
                return Polynomial(self.nvars)
            return _canonical(self.nvars,
                              {e: c * a for e, c in self._num.items()},
                              self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        t: dict = {}
        right = other._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    del t[e]
        return _canonical(self.nvars, t, self._den * other._den)

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
        return _canonical(self.nvars, _partial(self._num, i), self._den)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Float evaluation at a batch of points (M, N) (or a single (N,))."""
        X = np.asarray(points, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        out = np.zeros(X.shape[0])
        for e, c in self._num.items():
            # int true division is correctly rounded, as float(Fraction) is
            t = np.full(X.shape[0], c / self._den)
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


def _partial(num: dict, i: int) -> dict:
    """Numerators of d_i p, read off the numerators of p (over p's
    denominator)."""
    t: dict = {}
    for e, c in num.items():
        m = e[i]
        if m:
            t[e[:i] + (m - 1,) + e[i + 1 :]] = c * m
    return t


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


def _divide_by_linear(p: Polynomial, root: Root) -> Polynomial:
    """Exact quotient p / <v, x>, v the root's direction; raises
    ExactDivisionError on a remainder.

    Synthetic division of the integer numerators by <w, x> = s <v, x>
    (``Root.integer_direction``), pivoting on x_j, j the first of the root's
    signed axes, where w_j = 1: from the highest power of x_j down, each term
    c x^e gives the quotient term c at e - e_j, and c w_i is subtracted at
    e - e_j + e_i for the other axis i (if any), one power of x_j lower.
    Whatever is left free of x_j is the remainder.
    """
    (j, *others), _ = _signed_axes(root)
    w, s = root.integer_direction
    top = max((e[j] for e in p._num), default=0)
    levels: dict[int, dict] = {}  # power of x_j -> {exponent: numerator}
    for e, c in p._num.items():
        levels.setdefault(e[j], {})[e] = c
    quotient: dict = {}
    for d in range(top, 0, -1):
        level = {
            e[:j] + (d - 1,) + e[j + 1 :]: c
            for e, c in levels.pop(d, {}).items()
            if c
        }
        quotient.update(level)
        below = levels.setdefault(d - 1, {})
        for i in others:
            for e, q in level.items():
                f = e[:i] + (e[i] + 1,) + e[i + 1 :]
                below[f] = below.get(f, 0) - w[i] * q
    if any(levels.get(0, {}).values()):
        raise ExactDivisionError("polynomial is not divisible by the linear form")
    a = s.numerator
    if a != 1:
        quotient = {e: c * a for e, c in quotient.items()}
    return _canonical(p.nvars, quotient, p._den * s.denominator)


# ---------------------------------------------------------------------------
# Dunkl operators


def _require_exact(rs: RootSystem, *polys: Polynomial):
    """Raise ValueError unless rs has rational roots and multiplicities and
    each of polys is a polynomial on its space R^N."""
    if not rs.exact:
        raise ValueError(
            "symbolic Dunkl calculus needs rational root data "
            f"(family {rs.family}({rs.rank}) has irrational roots)"
        )
    for k in rs.multiplicities:
        if not isinstance(k, (Fraction, int)):
            raise ValueError("symbolic Dunkl calculus needs rational multiplicities")
    for p in polys:
        if p.nvars != rs.dimension:
            raise ValueError(
                f"polynomial in {p.nvars} variables, but {rs.family}({rs.rank}) "
                f"acts on R^{rs.dimension}")


def _signed_axes(root: Root) -> tuple:
    """``root.signed_axes``, or ValueError naming a root the exact calculus
    does not support."""
    axes = root.signed_axes
    if axes is None:
        raise ValueError(
            "symbolic Dunkl calculus needs a multiple of e_i, e_i - e_j or "
            f"e_i + e_j, whose reflection is a signed permutation; got {root!r}")
    return axes


def reflect_poly(p: Polynomial, root: Root) -> Polynomial:
    """p o sigma_alpha, exactly, each term mapped in O(N): e_i negates the
    terms odd in x_i, e_i - e_j swaps the exponents of x_i and x_j, and
    e_i + e_j swaps them and negates the terms odd in x_i x_j."""
    axes, plus = _signed_axes(root)
    if len(axes) == 1:
        (i,) = axes
        terms = {e: -c if e[i] & 1 else c for e, c in p._num.items()}
    else:
        i, j = axes
        terms = {}
        for e, c in p._num.items():
            a, b = e[i], e[j]
            f = e[:i] + (b,) + e[i + 1 : j] + (a,) + e[j + 1 :]
            terms[f] = -c if plus and (a + b) & 1 else c
    return _wrap(p.nvars, terms, p._den)


def _add_pair_terms(acc: dict, num: dict, axes, plus: bool, form, odd: bool,
                    scale: int) -> None:
    """Add scale times the image of sum c x^e (the numerators num) under
    the closed form ``form`` of the root e_i - e_j (plus false) or e_i + e_j
    (plus true), (i, j) = axes, to acc; see ``_pair_image``."""
    i, j = axes
    for e, c in num.items():
        head, mid, tail = e[:i], e[i + 1 : j], e[j + 1 :]
        c *= scale
        for ai, aj, x in _pair_image(form, odd, e[i], e[j], plus):
            f = head + (ai,) + mid + (aj,) + tail
            acc[f] = acc.get(f, 0) + c * x


@lru_cache(maxsize=4096)
def _pair_image(form, odd: bool, a: int, b: int, plus: bool) -> tuple:
    """((power of x_i, power of x_j, weight), ...) of the image of
    x_i^a x_j^b under a closed form of the root e_i - e_j (plus false) or
    e_i + e_j (plus true).

    For a >= b, form(b, a - b) gives (top, ((v, x), ...)): the image is
    sum x x_i^(top - v) x_j^v.  When a < b, form(a, b - a) is read with the
    two exponents swapped, and negated if odd (the form is odd under that
    swap).  For e_i + e_j, x_i^a x_j^b = (-1)^b x_i^a y^b with y = -x_j and
    <w, x> = x_i - y, so the image takes the sign (-1)^b and each y^u is
    read back as (-1)^u x_j^u.
    """
    swap = a < b
    top, terms = form(a, b - a) if swap else form(b, a - b)
    sign = -1 if odd and swap else 1
    if plus and b & 1:
        sign = -sign
    image = []
    for v, x in terms:
        u = top - v if swap else v  # the power of x_j
        image.append((top - u, u, -sign * x if plus and u & 1 else sign * x))
    return tuple(image)


def _difference_pair(m: int, d: int) -> tuple:
    """x_i^(m+d) x_j^m -> sum_(t<d) x_i^(m+t) x_j^(m+d-1-t), the divided
    difference by e_i - e_j, in ``_pair_image``'s form."""
    return 2 * m + d - 1, tuple((v, 1) for v in range(m, m + d))


def _laplacian_pair(m: int, d: int) -> tuple:
    """x_i^(m+d) x_j^m -> sum_(t<d-1) (t+1) x_i^(m+t) x_j^(m+d-2-t)
    - m x_i^(m+d-1) x_j^(m-1), half the Laplacian term of e_i - e_j, in
    ``_pair_image``'s form."""
    terms = tuple((m + d - 2 - t, t + 1) for t in range(d - 1))
    if m:
        terms += ((m - 1, -m),)
    return 2 * m + d - 2, terms


def divided_difference(p: Polynomial, root: Root) -> Polynomial:
    """Exact q with <v, x> q = p - p o sigma_alpha, v the rational direction.

    With v = w / s (``Root.integer_direction``), q = s (p - p o sigma)/<w, x>.
    The integer direction w is e_i, e_i - e_j or e_i + e_j (i < j; any other
    root raises ValueError) and q is built term by term in closed form, with
    no reflection, subtraction or division:
    - w = e_i: x^e gives 2 x^(e - e_i) if e_i is odd, 0 otherwise;
    - w = e_i - e_j, with a = e_i, b = e_j, m = min(a, b), d = |a - b|:
      x^e gives sgn(a - b) sum_(t<d) x_i^(m+t) x_j^(m+d-1-t), the other
      exponents unchanged, and 0 if a = b;
    - w = e_i + e_j: with y = -x_j, x^e = (-1)^b x_i^a y^b and <w, x> =
      x_i - y, so x^e gives (-1)^b times the e_i - e_j formula in (x_i, y),
      each y^u read back as (-1)^u x_j^u.

    The quotient against <alpha, x> itself is q / c with c = sqrt(2/|v|^2);
    the scale cancels inside Dunkl operators and is left to the caller.
    """
    axes, plus = _signed_axes(root)
    t: dict = {}
    if len(axes) == 1:
        (i,) = axes
        for e, c in p._num.items():
            if e[i] & 1:
                t[e[:i] + (e[i] - 1,) + e[i + 1 :]] = 2 * c
    else:
        _add_pair_terms(t, p._num, axes, plus, _difference_pair, True, 1)
        t = {f: c for f, c in t.items() if c}
    s = root.integer_direction[1]
    if s.numerator != 1:
        t = {f: c * s.numerator for f, c in t.items()}
    return _canonical(p.nvars, t, p._den * s.denominator)


def _add_scaled(parts) -> tuple:
    """(numerators, denominator) of the sum of c * num/den over (num, den, c)
    parts, num an integer numerator dict and c rational: one dict over the
    lcm of the scaled denominators, zero numerators dropped."""
    den = lcm(*(d * c.denominator for _, d, c in parts))
    acc: dict = {}
    for num, d, c in parts:
        scale = c.numerator * (den // (d * c.denominator))
        for e, x in num.items():
            acc[e] = acc.get(e, 0) + scale * x
    return {e: x for e, x in acc.items() if x}, den


def _dunkl_terms(rs: RootSystem, p: Polynomial, coords) -> list:
    """[T_i p for i in coords], with one divided difference per active root
    that touches coords:
    T_i p = d_i p + sum_alpha k_alpha alpha_i (p - p o sigma_alpha)/<alpha,x>,
    each T_i p summed in one integer dict."""
    _require_exact(rs, p)
    parts = [[(_partial(p._num, i), p._den, 1)] for i in coords]
    for root, k in rs.active_roots():
        w = root.integer_direction[0]
        touched = [(slot, root.direction[i])
                   for slot, i in enumerate(coords) if w[i]]
        if not touched:
            continue
        q = divided_difference(p, root)
        for slot, vi in touched:
            parts[slot].append((q._num, q._den, k * vi))
    return [_canonical(p.nvars, *_add_scaled(slot)) for slot in parts]


def dunkl_apply(rs: RootSystem, i: int, p: Polynomial) -> Polynomial:
    """T_i p, the i-th Dunkl operator of the positive subsystem of rs."""
    return _dunkl_terms(rs, p, (i,))[0]


def dunkl_gradient_sym(rs: RootSystem, p: Polynomial) -> list:
    """[T_0 p, ..., T_(N-1) p]."""
    return _dunkl_terms(rs, p, range(rs.dimension))


def _add_laplacian_root(acc: dict, num: dict, root: Root, scale: int) -> None:
    """Add scale * (2 <grad p, w> - |w|^2 D_w p)/<w, x> to acc, p the
    numerators num and D_w p = (p - p o sigma)/<w, x>, for the root with
    integer direction w (see ``dunkl_laplacian_fast`` for the closed forms)."""
    axes, plus = _signed_axes(root)
    if len(axes) == 2:
        _add_pair_terms(acc, num, axes, plus, _laplacian_pair, False, 2 * scale)
        return
    (i,) = axes
    for e, c in num.items():
        a = e[i]
        if a > 1:
            f = e[:i] + (a - 2,) + e[i + 1 :]
            acc[f] = acc.get(f, 0) + 2 * (a & ~1) * scale * c  # a - [a odd]


def dunkl_laplacian_fast(rs: RootSystem, p: Polynomial) -> Polynomial:
    """Delta_k p = Delta p + sum_alpha k_alpha (2 <grad p, alpha>/<alpha, x>
    - |alpha|^2 (p - p o sigma_alpha)/<alpha, x>^2), summed in one integer
    dict over p's denominator times the multiplicities' common denominator.

    With v = w / s (``Root.integer_direction``) the scale s cancels: root
    alpha adds k_alpha (2 <grad p, w> - |w|^2 D_w p)/<w, x>, with
    D_w p = (p - p o sigma_alpha)/<w, x>.  As w is e_i, e_i - e_j or
    e_i + e_j (i < j; any other root raises ValueError), that term is built
    per monomial in closed form, with no divided difference or division;
    with a = e_i and b = e_j, x^e gives
    - w = e_i: 2 (a - [a odd]) x^(e - 2 e_i);
    - w = e_i - e_j, with m = min(a, b), d = |a - b|:
      2 sum_(t<d-1) (t+1) x_i^(m+t) x_j^(m+d-2-t) - 2m x_i^(m+d-1) x_j^(m-1),
      the other exponents unchanged and the (x_i, x_j) exponents swapped when
      a < b (the term is symmetric under that swap); a = b gives
      -2m (x_i x_j)^(m-1);
    - w = e_i + e_j: with y = -x_j, (-1)^b times the e_i - e_j formula in
      (x_i, y), each y^u read back as (-1)^u x_j^u.
    The swap, sign and read-back rules of e_i -+ e_j are the ones
    ``divided_difference`` uses, applied by the same ``_pair_image``.
    """
    _require_exact(rs, p)
    n = rs.dimension
    active = rs.active_roots()
    scale = lcm(*(k.denominator for _, k in active))
    lap: dict = {}
    for e, c in p._num.items():
        for i, m in enumerate(e):
            if m > 1:
                f = e[:i] + (m - 2,) + e[i + 1 :]
                lap[f] = lap.get(f, 0) + c * scale * m * (m - 1)
    for root, k in active:
        _add_laplacian_root(lap, p._num, root, k.numerator * (scale // k.denominator))
    return _canonical(n, {f: c for f, c in lap.items() if c}, p._den * scale)


def sphere_mean(rs: RootSystem):
    """The omega_k-weighted sphere mean, exactly.

    Returns mean(p) = int_S p omega_k / int_S omega_k as a ``Fraction``.
    For x^e homogeneous of degree 2j,
    mean(x^e) = Delta_k^j x^e / (4^j j! (Nbar/2)_j) (Dunkl & Xu,
    *Orthogonal Polynomials of Several Variables*, ch. 7), so with
    Delta_k x^e = sum_f c_f x^f,
    mean(x^e) = sum_f c_f mean(x^f) / (4j (Nbar/2 + j - 1));
    an odd degree gives 0 (omega_k is even) and degree 0 gives 1.  Each
    monomial's mean is computed the first time it appears and memoised for
    as long as the returned function lives.
    """
    _require_exact(rs)
    N = rs.dimension
    half_nbar = Fraction(N, 2) + rs.gamma
    memo: dict = {(0,) * N: Fraction(1)}

    def monomial(e) -> Fraction:
        m = memo.get(e)
        if m is None:
            deg = sum(e)
            if deg & 1:
                m = Fraction(0)
            else:
                j = deg // 2
                lap = dunkl_laplacian_fast(rs, _wrap(N, {e: 1}, 1))
                m = (sum([c * monomial(f) for f, c in lap._num.items()], Fraction(0))
                     / (lap._den * 4 * j * (half_nbar + j - 1)))
            memo[e] = m
        return m

    def mean(p: Polynomial) -> Fraction:
        _require_exact(rs, p)
        return sum([c * monomial(e) for e, c in p._num.items()], Fraction(0)) / p._den

    return mean


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
    negated = tuple(r.negate() for r in roots)
    inv = norm_squared(N)
    inv_grad = dunkl_gradient_sym(rs, inv)
    grads = [dunkl_gradient_sym(rs, p) for p in polys]
    out = []
    for idx, (p, grad) in enumerate(zip(polys, grads)):
        i, j = idx % N, (idx + 1) % N
        a = idx % m
        root = roots[a]
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
            if not r.integer_direction[0][i]:
                continue
            dp, dv = p - reflect_poly(p, r), v - reflect_poly(v, r)
            if not (dp.is_zero() or dv.is_zero()):
                corr = corr + _divide_by_linear(dp * dv, r) * (k * r.direction[i])
        general = dunkl_apply(rs, i, p * v) - (v * grad[i] + p * v_grad[i] - corr)
        short = dunkl_apply(rs, i, p * inv) - (inv * grad[i] + p * inv_grad[i])
        lin = Polynomial(N, {tuple(int(t == axis) for t in range(N)): c
                             for axis, c in enumerate(root.direction) if c})
        flipped = replace(
            rs, positive_roots=negated[:a] + (root,) + negated[a + 1 :])
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
