import numpy as np
import pytest

from dunkl_lab.domains import DomainSpec, distance_data
from dunkl_lab.reflection import build_root_system, embed_root_system
from oracles import equivariance_check


def test_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec("bogus", 3)
    with pytest.raises(ValueError):
        DomainSpec("exterior_ball", 3)  # missing radius
    with pytest.raises(ValueError):
        DomainSpec("halfspace", 3, axis=5)


@pytest.mark.parametrize("kind, field", [
    ("exterior_ball", {"radius": float("inf")}),  # delta would read -inf
    ("halfspace", {"axis": 2.0}),  # distance_data would index with a float
    ("halfspace", {"axis": True}),
])
def test_spec_rejects_a_bad_radius_or_axis(kind, field):
    with pytest.raises(ValueError):
        DomainSpec(kind, 3, **field)


def test_exterior_ball_distance(rs_a2, rng):
    spec = DomainSpec("exterior_ball", 3, radius=1.0)
    data = distance_data(spec, rs_a2)
    X = rng.normal(size=(20, 3)) * 2.0 + 4.0
    r = np.linalg.norm(X, axis=1)
    assert np.allclose(data.delta(X), r - 1.0, atol=1e-12)
    G = data.grad_delta(X)
    assert np.allclose(np.linalg.norm(G, axis=1), 1.0, atol=1e-12)
    nbar = 3 + 2.0 * float(rs_a2.gamma)
    assert np.allclose(data.dunkl_laplacian_delta(X), (nbar - 1.0) / r,
                       atol=1e-12)
    assert np.all(data.contains(X) == (r > 1.0))


def test_rho_pairing_closed_forms(rs_a2, rng):
    X = rng.normal(size=(15, 3)) + np.array([0.5, 1.5, 2.9])
    r = np.linalg.norm(X, axis=1)
    g = float(rs_a2.gamma)
    ball = DomainSpec("exterior_ball", 3, radius=0.5)
    assert np.allclose(distance_data(ball, rs_a2).rho_pairing(X), 2.0 * g / r,
                       atol=1e-12)
    wedge = DomainSpec("wedge_SN", 3)
    assert np.max(np.abs(distance_data(wedge, rs_a2).rho_pairing(X))) == 0.0


def test_rho_pairing_matches_direct_sum(rs_a2, rng):
    # oracle: assemble <rho(x), grad delta(x)> from the raw rho field
    from dunkl_lab.reflection import rho

    spec = DomainSpec("punctured_space", 3)
    data = distance_data(spec, rs_a2)
    X = rng.normal(size=(10, 3)) + np.array([0.4, 1.2, 2.5])
    direct = np.einsum("mi,mi->m", rho(rs_a2, X), data.grad_delta(X))
    assert np.allclose(data.rho_pairing(X), direct, rtol=1e-10)


def test_halfspace_needs_orthogonal_roots(rs_z23):
    spec = DomainSpec("halfspace", 3, axis=0)
    with pytest.raises(ValueError):
        distance_data(spec, rs_z23)  # root e1 is parallel to the axis
    rs2 = embed_root_system(build_root_system("Z2", 2, 1), 3)
    # embedded Z2^2 occupies the first two coordinates; use the last axis
    spec_ok = DomainSpec("halfspace", 3, axis=2)
    data = distance_data(spec_ok, rs2)
    X = np.array([[0.3, 0.4, 2.0]])
    assert data.delta(X)[0] == pytest.approx(2.0)
    assert data.dunkl_laplacian_delta(X)[0] == 0.0
    assert data.rho_pairing(X)[0] == 0.0


def test_wedge_requires_matching_family(rs_z23, rs_a2):
    spec = DomainSpec("wedge_SN", 3)
    with pytest.raises(ValueError):
        distance_data(spec, rs_z23)
    data = distance_data(spec, rs_a2)
    X = np.array([[1.0, 1.0, 1.0]])
    assert data.delta(X)[0] == pytest.approx(np.sqrt(3.0))
    assert data.laplacian_delta(X)[0] == 0.0


def test_gradient_equivariance(rs_a2, rs_z23, rng):
    X = rng.normal(size=(25, 3)) + np.array([0.2, 1.1, 2.3])
    assert equivariance_check(
        DomainSpec("punctured_space", 3), rs_a2, X
    ) < 1e-12
    assert equivariance_check(
        DomainSpec("exterior_ball", 3, radius=1.0), rs_z23, X
    ) < 1e-12
    assert equivariance_check(DomainSpec("wedge_SN", 3), rs_a2, X) < 1e-12
