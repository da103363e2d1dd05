"""Test-side oracles: independent, slower computations that the tests
compare package results against."""

import numpy as np

from dunkl_lab.domains import distance_data
from dunkl_lab.dunklnum import dunkl_gradient, dunkl_laplacian_num
from dunkl_lab.inequalities import FUNCTIONALS
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
