import numpy as np
import pytest

from dunkl_lab.domains import DomainSpec, distance_data
from dunkl_lab.quad import RadialGrid, jitter_off_hyperplanes, sphere_rule
from dunkl_lab.reflection import build_root_system, embed_root_system


@pytest.fixture(scope="session")
def rs_a2():
    return build_root_system("A", 2, [1])


@pytest.fixture(scope="session")
def rs_b2():
    return build_root_system("B", 2, [1, 1])


@pytest.fixture(scope="session")
def rs_z23():
    return build_root_system("Z2", 3, [1, 1, 1])


@pytest.fixture(scope="session")
def rule_a2(rs_a2):
    return jitter_off_hyperplanes(sphere_rule(3, 14), rs_a2)


@pytest.fixture(scope="session")
def grid_unit():
    return RadialGrid((0.0, 0.5, 1.0, 2.0, 3.0), nodes_per_interval=48)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


@pytest.fixture(scope="session")
def criterion_6_configs(rs_a2):
    """The domain Hardy configs of criterion 6 as (name, spec, rs,
    distance data, radial grid, sphere rule)."""
    ball = DomainSpec("exterior_ball", 3, radius=1.0)
    inner = RadialGrid((0.0, 1.0, 2.0, 3.0, 4.0), nodes_per_interval=32)
    outer = RadialGrid((1.0, 1.5, 2.25, 3.0, 4.0), nodes_per_interval=32)
    configs = [
        ("halfspace/Z2^2", DomainSpec("halfspace", 3, axis=2),
         embed_root_system(build_root_system("Z2", 2, 1), 3), inner),
        ("wedge/A2", DomainSpec("wedge_SN", 3), rs_a2, inner),
        ("exterior_ball/A2", ball, rs_a2, outer),
        ("exterior_ball/Z2^3", ball, build_root_system("Z2", 3, 1), outer),
    ]
    return [
        (name, spec, rs, distance_data(spec, rs), grid,
         jitter_off_hyperplanes(sphere_rule(3, 10), rs))
        for name, spec, rs, grid in configs
    ]
