"""Test-side oracles: independent, slower computations that the tests
compare package results against."""

import numpy as np

from dunkl_lab.domains import distance_data
from dunkl_lab.dunklnum import dunkl_gradient, dunkl_laplacian_num
from dunkl_lab.inequalities import FUNCTIONALS
from dunkl_lab.polyalg import Polynomial, _divide_by_linear, reflect_poly
from dunkl_lab.quad import integrate_measure
from dunkl_lab.reflection import generate_group


def full_space_quotient(rs, u, kind, grid, rule, p=None):
    """Numerator over denominator of ``kind`` for u, each side integrated
    over R^N against dmu with the weight |x|^s: the oracle of the single-mode
    reduction ``mode_quotient``."""
    f = FUNCTIONALS[kind]
    fields = {
        "value": u.value,
        "grad": lambda X: np.linalg.norm(dunkl_gradient(rs, u, X), axis=1),
        "lap": lambda X: dunkl_laplacian_num(rs, u, X),
    }

    def integrands(X):
        r = np.linalg.norm(X, axis=1)
        return np.stack([
            np.abs(fields[t.field](X)) ** t.power(p) * r ** t.shift(p)
            for t in (f.num, f.den)
        ])

    num, den = integrate_measure(rs, integrands, grid, rule).value
    return num / den


def equivariance_check(spec, rs, samples):
    """Max over group elements g and samples x of |grad delta(gx) -
    g grad delta(x)|; the distance gradient must commute with the group."""
    grad_delta = distance_data(spec, rs).grad_delta
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    base = grad_delta(X)
    return max(
        float(np.max(np.abs(grad_delta(X @ g.T) - base @ g.T)))
        for g in generate_group(rs)
    )


# -- the exact Dunkl kernels, built from Polynomial arithmetic ----------------
#
# Each divided difference reflects, subtracts and divides synthetically, and
# every sum goes through Polynomial + and scalar *, so these share none of the
# closed forms or the one-dict sums of the package kernels.


def divided_difference(p, root):
    """q with <v, x> q = p - p o sigma_alpha, by reflection and division."""
    return _divide_by_linear(p - reflect_poly(p, root), root)


def dunkl_terms(rs, p, coords):
    """[T_i p for i in coords]:
    T_i p = d_i p + sum_alpha k_alpha alpha_i (p - p o sigma_alpha)/<alpha,x>."""
    out = [p.partial(i) for i in coords]
    for root, k in rs.active_roots():
        w = root.integer_direction[0]
        touched = [(slot, root.direction[i])
                   for slot, i in enumerate(coords) if w[i]]
        if not touched:
            continue
        q = divided_difference(p, root)
        for slot, vi in touched:
            out[slot] = out[slot] + q * (k * vi)
    return out


def dunkl_laplacian(rs, p):
    """Dunkl Laplacian via the gradient/difference formula."""
    n = rs.dimension
    out = Polynomial(n)
    grad = [p.partial(i) for i in range(n)]
    for i in range(n):
        out = out + grad[i].partial(i)
    for root, k in rs.active_roots():
        v, w = root.direction, root.integer_direction[0]
        grad_dot_v = Polynomial(n)
        for i in range(n):
            if w[i]:
                grad_dot_v = grad_dot_v + grad[i] * v[i]
        q = divided_difference(p, root)
        # 2 <grad p, alpha>/<alpha,x> - 2 (p - p o sigma)/<alpha,x>^2
        #   = [2 <grad p, v> - |v|^2 q] / <v, x>
        num = grad_dot_v * 2 - q * sum(x * x for x in v)
        out = out + _divide_by_linear(num, root) * k
    return out
