"""Piecewise radial profiles for near-extremal trial functions.

A profile is a list of pieces, each either a pure power c*r^a or a polynomial
(the smooth join, the shell bump).  Pure-power pieces admit closed-form
weighted integrals, including the improper head at 0 and tail at infinity
whose 1/eps growth carries the sharpness information.  A polynomial piece is
a tuple of coefficients in t = off + scl*r, evaluated by Horner's rule; it
lives on a fixed finite interval and is integrated with ``quad``'s 80-point
Gauss-Legendre rule, which is exact to machine precision for these smooth
integrands.  Each polynomial piece keeps that panel, with its values and
first two derivatives at the nodes, from its first integral on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

import numpy as np

from .quad import DivergenceError, _legendre_panel, legendre_integral

__all__ = [
    "PowerPiece",
    "PolyPiece",
    "PiecewiseProfile",
    "integrate_profile_expression",
    "hardy_p_profile",
    "step_power_profile",
    "mollified_power_profile",
]

_GL_POINTS = 80  # Gauss-Legendre points per finite piece
JOIN_HALF_WIDTH = 0.25  # mollified profiles join on [1 - h, 1 + h]


@dataclass(frozen=True)
class PowerPiece:
    lo: float
    hi: float
    coef: float
    power: float

    def value(self, r):
        return self.coef * r**self.power

    def deriv(self, r):
        if self.power == 0.0:
            return np.zeros_like(r)
        return self.coef * self.power * r ** (self.power - 1.0)

    def deriv2(self, r):
        a = self.power
        if a in (0.0, 1.0):
            return np.zeros_like(r)
        return self.coef * a * (a - 1.0) * r ** (a - 2.0)


def _horner(c, t):
    """sum_j c[j] t^j by Horner's rule, step for step as numpy's polyval."""
    out = c[-1] + 0.0 * t
    for a in c[-2::-1]:
        out = out * t + a
    return out


def _derivative(c, scl):
    """Coefficients of d/dr of sum_j c[j] t^j with t = off + scl*r: the
    j-th is (j + 1) (c[j + 1] scl), formed as numpy's polyder forms it."""
    return tuple(j * (c[j] * scl) for j in range(1, len(c))) or (0.0,)


@dataclass(frozen=True)
class PolyPiece:
    """g(r) = sum_j coef[j] t^j on [lo, hi], with t = off + scl*r.

    (off, scl) is numpy's map from a polynomial's domain to its window, so
    ``PolyPiece(lo, hi, coef, off, scl)`` agrees bit for bit with numpy's
    ``Polynomial(coef, domain=...)`` and its derivatives; the identity map
    (0, 1) takes coefficients in r.  The tables of g' and g'' are built once,
    here, and all three are evaluated by ``_horner``.
    """

    lo: float
    hi: float
    coef: tuple
    off: float = 0.0
    scl: float = 1.0
    # the coefficient tables of g' and g'', left out of equality, hash and
    # repr
    _d1: tuple = field(init=False, repr=False, compare=False)
    _d2: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coef = tuple(float(c) for c in self.coef)
        d1 = _derivative(coef, self.scl)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_d2", _derivative(d1, self.scl))

    def value(self, r):
        return _horner(self.coef, self.off + self.scl * r)

    def deriv(self, r):
        return _horner(self._d1, self.off + self.scl * r)

    def deriv2(self, r):
        return _horner(self._d2, self.off + self.scl * r)

    @cached_property
    def _panel(self):
        """(r, w, half, g, g', g''): the piece's Gauss-Legendre nodes, the
        weights on [-1, 1], (hi - lo)/2 and the three fields at the nodes,
        computed on first use."""
        r, w, half = _legendre_panel(_GL_POINTS, self.lo, self.hi)
        return r, w, half, self.value(r), self.deriv(r), self.deriv2(r)


def _power_integral(c: float, s: float, lo: float, hi: float) -> float:
    """Closed form of int_lo^hi c r^s dr, allowing lo=0 and hi=inf."""
    if c == 0.0:
        return 0.0
    if hi == inf:
        if s >= -1.0:
            raise DivergenceError(f"tail exponent {s} >= -1 diverges")
        return -c * lo ** (s + 1.0) / (s + 1.0)
    if lo == 0.0:
        if s <= -1.0:
            raise DivergenceError(f"head exponent {s} <= -1 diverges")
        return c * hi ** (s + 1.0) / (s + 1.0)
    if s == -1.0:
        return c * np.log(hi / lo)
    return c * (hi ** (s + 1.0) - lo ** (s + 1.0)) / (s + 1.0)


class PiecewiseProfile:
    """Radial profile u(r) on (0, inf) made of contiguous pieces."""

    def __init__(self, pieces):
        self.pieces = tuple(pieces)
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.hi != b.lo:
                raise ValueError("pieces must be contiguous")
        self._his = np.array([p.hi for p in self.pieces])

    @property
    def breakpoints(self):
        """Finite piece boundaries, starting at 0."""
        pts = [self.pieces[0].lo] + [p.hi for p in self.pieces]
        return tuple(x for x in pts if x != inf)

    def _eval(self, r, attr):
        """Field ``attr`` of the piece holding each point: the first piece
        is closed at lo, every other is (lo, hi]; 0 outside them all."""
        r = np.asarray(r, dtype=float)
        single = r.ndim == 0
        r = np.atleast_1d(r)
        n = len(self.pieces)
        idx = np.searchsorted(self._his, r)
        idx[r < self.pieces[0].lo] = n
        first = idx.flat[0] if idx.size else n
        if first < n and np.all(idx == first):
            out = getattr(self.pieces[first], attr)(r)
        else:
            out = np.zeros_like(r)
            for i in np.unique(idx[idx < n]):
                mask = idx == i
                out[mask] = getattr(self.pieces[i], attr)(r[mask])
        return float(out[0]) if single else out

    def value(self, r):
        return self._eval(r, "value")

    def deriv(self, r):
        return self._eval(r, "deriv")

    def deriv2(self, r):
        return self._eval(r, "deriv2")

    def radial_laplacian(self, r, nbar):
        """u'' + (nbar - 1) u'/r for the radial part of the Dunkl Laplacian."""
        r = np.asarray(r, dtype=float)
        return self._eval(r, "deriv2") + (nbar - 1.0) * self._eval(r, "deriv") / r

    # -- closed-form weighted integrals -------------------------------------

    def _piece_integral(self, piece, kind, p, exponent, nbar):
        if isinstance(piece, PowerPiece):
            c, a = piece.coef, piece.power
            if kind == "value":
                base, shift = c, a
            elif kind == "deriv":
                base, shift = c * a, a - 1.0
            else:  # radial laplacian of a power: a (a + nbar - 2) r^(a-2)
                base, shift = c * a * (a + nbar - 2.0), a - 2.0
            if base == 0.0:
                return 0.0
            return _power_integral(
                abs(base) ** p, shift * p + exponent, piece.lo, piece.hi
            )
        r, w, half, g, g1, g2 = piece._panel
        if kind == "value":
            f = g
        elif kind == "deriv":
            f = g1
        else:
            f = g2 + (nbar - 1.0) * g1 / r
        # legendre_integral's sum on the cached panel
        return half * float(np.sum(w * (np.abs(f) ** p * r**exponent)))

    def integral_value_power(self, p: float, exponent: float) -> float:
        """int |u|^p r^exponent dr in closed form."""
        return sum(
            self._piece_integral(pc, "value", p, exponent, None)
            for pc in self.pieces
        )

    def integral_deriv_power(self, p: float, exponent: float) -> float:
        """int |u'|^p r^exponent dr in closed form."""
        return sum(
            self._piece_integral(pc, "deriv", p, exponent, None)
            for pc in self.pieces
        )

    def integral_laplacian_sq(self, exponent: float, nbar: float) -> float:
        """int |u'' + (nbar-1)u'/r|^2 r^exponent dr in closed form."""
        return sum(
            self._piece_integral(pc, "laplacian", 2.0, exponent, nbar)
            for pc in self.pieces
        )


def _is_zero_piece(piece) -> bool:
    return isinstance(piece, PowerPiece) and piece.coef == 0.0


def integrate_profile_expression(prof: PiecewiseProfile, term, exponent: float) -> float:
    """Integral of term(r) r^exponent over the profile's finite pieces.

    For compactly supported profiles (zero-coefficient power pieces at both
    ends) this covers the whole line; infinite nonzero pieces are rejected.
    """
    total = 0.0
    for piece in prof.pieces:
        if _is_zero_piece(piece):
            continue
        if piece.hi == inf:
            raise ValueError("expression integrals need compact support")
        total += legendre_integral(term, exponent, piece.lo, piece.hi, _GL_POINTS)
    return total


# ---------------------------------------------------------------------------
# profile builders


def hardy_p_profile(p: float, nbar: float, eps: float) -> PiecewiseProfile:
    """r^a inside the unit ball, constant 1 outside, a = (p - nbar + eps)/p.

    Needs p > nbar; both Rayleigh integrals are then finite and the quotient
    approaches ((p - nbar)/p)^p as eps -> 0.
    """
    if p <= nbar:
        raise ValueError("this family needs p > nbar")
    a = (p - nbar + eps) / p
    return PiecewiseProfile(
        [PowerPiece(0.0, 1.0, 1.0, a), PowerPiece(1.0, inf, 1.0, 0.0)]
    )


def step_power_profile(power: float) -> PiecewiseProfile:
    """Constant 1 inside the unit ball, r^power outside (power < 0)."""
    return PiecewiseProfile(
        [PowerPiece(0.0, 1.0, 1.0, 0.0), PowerPiece(1.0, inf, 1.0, power)]
    )


def _quintic_join(x0: float, x1: float, left, right) -> tuple:
    """Coefficients in r of the unique degree-5 polynomial matching
    (value, d1, d2) at both ends."""
    rows, rhs = [], []
    for x, (v, d1, d2) in ((x0, left), (x1, right)):
        rows.append([x**j for j in range(6)])
        rows.append([j * x ** (j - 1) if j >= 1 else 0.0 for j in range(6)])
        rows.append([j * (j - 1) * x ** (j - 2) if j >= 2 else 0.0 for j in range(6)])
        rhs.extend([v, d1, d2])
    return tuple(np.linalg.solve(np.array(rows), np.array(rhs)))


def mollified_power_profile(power: float) -> PiecewiseProfile:
    """Constant 1, then r^power, with a C^2 quintic join on [1-h, 1+h],
    h = ``JOIN_HALF_WIDTH``.

    The kinked profile would put a surface delta into the Laplacian; the
    fixed-width join keeps the second derivative bounded while contributing
    only O(1) against the 1/eps growth of the power-law integrals.
    """
    h = JOIN_HALF_WIDTH
    x1 = 1.0 + h
    b = power
    coef = _quintic_join(
        1.0 - h,
        x1,
        (1.0, 0.0, 0.0),
        (x1**b, b * x1 ** (b - 1.0), b * (b - 1.0) * x1 ** (b - 2.0)),
    )
    return PiecewiseProfile(
        [
            PowerPiece(0.0, 1.0 - h, 1.0, 0.0),
            PolyPiece(1.0 - h, x1, coef),
            PowerPiece(x1, inf, 1.0, b),
        ]
    )
