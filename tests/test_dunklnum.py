import numpy as np
import pytest

from dunkl_lab.corpus import radial_shell_bump
from dunkl_lab.dunklnum import (
    SmoothFunction,
    dunkl_gradient,
    dunkl_laplacian_num,
)
from dunkl_lab.polyalg import dunkl_gradient_sym, dunkl_laplacian_fast
from dunkl_lab.reflection import SingularPointError, build_root_system


def _poly_as_smooth(p):
    N = p.nvars
    grads = [p.partial(i) for i in range(N)]
    lap = sum((g.partial(i) for i, g in enumerate(grads)), start=p * 0)
    hess = [[g.partial(j) for j in range(N)] for g in grads]

    def hessian(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        H = np.empty((len(X), N, N))
        for i in range(N):
            for j in range(N):
                H[:, i, j] = hess[i][j].evaluate(X)
        return H

    return SmoothFunction(
        lambda X: p.evaluate(np.atleast_2d(X)),
        lambda X: np.column_stack(
            [g.evaluate(np.atleast_2d(X)) for g in grads]
        ),
        lambda X: lap.evaluate(np.atleast_2d(X)),
        hessian,
        dimension=N,
    )


def test_registration_rejects_wrong_gradient():
    with pytest.raises(ValueError):
        SmoothFunction(
            lambda X: np.sum(np.atleast_2d(X) ** 2, axis=1),
            lambda X: 3.0 * np.atleast_2d(X),  # should be 2x
            dimension=3,
        )


def test_numeric_matches_symbolic_gradient(rs_b2, rng):
    from dunkl_lab.polyalg import variable

    x, y = variable(0, 2), variable(1, 2)
    p = x**3 * y + y**2 * 2
    u = _poly_as_smooth(p)
    X = rng.normal(size=(25, 2)) + np.array([0.7, 1.9])
    G = dunkl_gradient(rs_b2, u, X)
    sym = dunkl_gradient_sym(rs_b2, p)
    expected = np.column_stack([q.evaluate(X) for q in sym])
    assert np.allclose(G, expected, rtol=1e-11, atol=1e-11)


def test_numeric_matches_symbolic_laplacian(rs_a2, rng):
    from dunkl_lab.polyalg import norm_squared, variable

    p = norm_squared(3) * variable(0, 3) + variable(1, 3) ** 3
    u = _poly_as_smooth(p)
    X = rng.normal(size=(25, 3)) + np.array([0.5, 1.3, 2.6])
    lap = dunkl_laplacian_num(rs_a2, u, X)
    expected = dunkl_laplacian_fast(rs_a2, p).evaluate(X)
    assert np.allclose(lap, expected, rtol=1e-9, atol=1e-9)


def _on_hyperplane(X, root):
    a = root.vector
    return X - np.multiply.outer(X @ a, a) / 2.0


def test_hyperplane_point_uses_taylor_fallback(rs_a2, rs_b2, rng):
    from dunkl_lab.polyalg import variable

    # on each root's hyperplane both quotients take their Taylor limits,
    # which must read the classical gradient, not the partial Dunkl sum
    for rs in (rs_a2, rs_b2):
        x = [variable(i, rs.dimension) for i in range(rs.dimension)]
        p = x[0] ** 3 + x[0] ** 2 * x[1] * 2 - x[1] ** 2 * x[-1] * 3 + x[-1] ** 3
        u = _poly_as_smooth(p)
        grad_sym = dunkl_gradient_sym(rs, p)
        lap_sym = dunkl_laplacian_fast(rs, p)
        for root in rs.positive_roots:
            X = _on_hyperplane(rng.normal(size=(6, rs.dimension)), root)
            expected = np.column_stack([q.evaluate(X) for q in grad_sym])
            assert np.allclose(dunkl_gradient(rs, u, X), expected,
                               rtol=1e-10, atol=1e-10)
            assert np.allclose(dunkl_laplacian_num(rs, u, X),
                               lap_sym.evaluate(X), rtol=1e-10, atol=1e-10)


def test_origin_takes_taylor_limits(rs_a2, rs_b2):
    from dunkl_lab.corpus import shifted_gaussian
    from dunkl_lab.polyalg import variable

    # the origin lies on every hyperplane, so both quotients take their limits
    for rs in (rs_a2, rs_b2):
        x = [variable(i, rs.dimension) for i in range(rs.dimension)]
        p = x[0] * 2 + x[1] * 3 + x[0] ** 2 * 5 + x[0] * x[-1] * 3 - x[-1] ** 2
        u = _poly_as_smooth(p)
        origin = np.zeros((1, rs.dimension))
        expected = np.column_stack(
            [q.evaluate(origin) for q in dunkl_gradient_sym(rs, p)]
        )
        assert np.allclose(dunkl_gradient(rs, u, origin), expected,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(dunkl_laplacian_num(rs, u, origin),
                           dunkl_laplacian_fast(rs, p).evaluate(origin),
                           rtol=1e-12, atol=1e-12)
    g = shifted_gaussian([0.3, 0.1], 1.0)
    assert np.all(np.isfinite(dunkl_gradient(rs_b2, g, np.zeros(2))))
    assert np.isfinite(dunkl_laplacian_num(rs_b2, g, np.zeros(2)))


def test_laplacian_keeps_digits_near_hyperplanes(rs_b2, rng):
    from dunkl_lab.polyalg import variable

    x, y = variable(0, 2), variable(1, 2)
    p = x**3 * y + y**2 * 2 + x**4 + x * y**3 * 3
    u = _poly_as_smooth(p)
    lap_sym = dunkl_laplacian_fast(rs_b2, p)
    for root in rs_b2.positive_roots:
        base = _on_hyperplane(rng.normal(size=(4, 2)), root)
        nb = np.linalg.norm(base, axis=1)
        for rel in np.geomspace(2e-8, 1e-3, 25):
            # <alpha, X> = rel |base| with |alpha|^2 = 2
            X = base + np.multiply.outer(rel * nb / 2.0, root.vector)
            err = np.abs(dunkl_laplacian_num(rs_b2, u, X) - lap_sym.evaluate(X))
            assert np.max(err) <= 1e-3, (root, rel)


def test_laplacian_without_hessian_raises_on_hyperplane(rs_b2):
    u = SmoothFunction(
        lambda X: np.exp(-np.sum(np.atleast_2d(X) ** 2, axis=1)),
        lambda X: -2.0
        * np.exp(-np.sum(np.atleast_2d(X) ** 2, axis=1))[:, None]
        * np.atleast_2d(X),
        lambda X: (4.0 * np.sum(np.atleast_2d(X) ** 2, axis=1) - 4.0)
        * np.exp(-np.sum(np.atleast_2d(X) ** 2, axis=1)),
        dimension=2,
    )
    with pytest.raises(SingularPointError):
        dunkl_laplacian_num(rs_b2, u, np.array([[0.9, 0.9]]))


def test_radial_bump_laplacian_matches_closed_form(rs_a2, rs_b2, rng):
    from dunkl_lab.corpus import bump_radial_profile

    for rs in (rs_a2, rs_b2):
        N = rs.dimension
        nbar = N + 2.0 * float(rs.gamma)
        u = radial_shell_bump(1.5, 0.9, N)
        X = rng.normal(size=(30, N))
        X *= (rng.uniform(0.7, 2.3, size=30) / np.linalg.norm(X, axis=1))[:, None]
        for Y in [X] + [_on_hyperplane(X, root) for root in rs.positive_roots]:
            r = np.linalg.norm(Y, axis=1)
            expected = bump_radial_profile(1.5, 0.9).radial_laplacian(r, nbar)
            assert np.allclose(dunkl_laplacian_num(rs, u, Y), expected,
                               rtol=1e-9, atol=1e-9)


def test_polar_laplacian_matches_full_operator(rs_z23, rng):
    # u = g(r) x1 with x1 h-harmonic for Z2^3: polar form with n = 1
    from dunkl_lab.corpus import bump_radial_profile, mode_function
    from dunkl_lab.polyalg import variable

    nbar = 3 + 2.0 * float(rs_z23.gamma)
    prof = bump_radial_profile(1.4, 0.7)
    u = mode_function(prof, variable(0, 3))
    xi = rng.normal(size=(12, 3))
    # points on each coordinate hyperplane take the Hessian fallback
    xi = np.vstack([xi] + [_on_hyperplane(xi[:4], r) for r in rs_z23.positive_roots])
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    for r in (1.0, 1.4, 1.9):
        X = r * xi
        full = dunkl_laplacian_num(rs_z23, u, X)

        def g(rr):
            return prof.value(rr) * rr  # radial coefficient of the mode

        def g1(rr):
            return prof.deriv(rr) * rr + prof.value(rr)

        def g2(rr):
            return prof.deriv2(rr) * rr + 2.0 * prof.deriv(rr)

        lam = -1.0 * (1.0 + nbar - 2.0)
        expected = (g2(r) + (nbar - 1.0) * g1(r) / r + lam * g(r) / r**2) * xi[
            :, 0
        ]
        assert np.allclose(full, expected, rtol=1e-8, atol=1e-8)
