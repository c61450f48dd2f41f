import numpy as np
import pytest

from theta_shift.harness.suites import GATES
from theta_shift.modforms.theta import (
    random_gamma0_matrix,
    theta_series,
    theta_transform_residual,
)


class TestThetaSeries:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            theta_series(0.3 - 1.1j)

    def test_periodicity(self):
        z = 0.123 + 0.9j
        assert abs(theta_series(z + 1) - theta_series(z)) < 1e-14


class TestMultiplier:
    def test_identity(self):
        assert theta_transform_residual((1, 0, 0, 1), 0.3 + 1.1j) < 1e-14

    def test_translation(self):
        assert theta_transform_residual((1, 1, 0, 1), 0.3 + 1.1j) < 1e-14

    def test_negated_identity(self):
        assert theta_transform_residual((-1, 0, 0, -1), 0.3 + 1.1j) < 1e-12

    def test_non_group_member_rejected(self):
        with pytest.raises(ValueError):
            theta_transform_residual((1, 0, 2, 1), 0.3 + 1.1j)  # c = 2
        with pytest.raises(ValueError):
            theta_transform_residual((2, 0, 0, 1), 0.3 + 1.1j)  # det 2

    def test_random_suite(self, rng):
        worst = 0.0
        for _ in range(100):
            g = random_gamma0_matrix(rng, max_entry=50)
            worst = max(worst, theta_transform_residual(g, 0.3 + 1.1j))
        assert worst <= GATES["c10"]

    def test_cocycle_through_products(self, rng):
        # residual stability under composition: gamma1 * gamma2 stays in the
        # group and satisfies the same transformation
        for _ in range(25):
            g1 = random_gamma0_matrix(rng, max_entry=12)
            g2 = random_gamma0_matrix(rng, max_entry=12)
            a = (g1[0] * g2[0] + g1[1] * g2[2], g1[0] * g2[1] + g1[1] * g2[3],
                 g1[2] * g2[0] + g1[3] * g2[2], g1[2] * g2[1] + g1[3] * g2[3])
            assert theta_transform_residual(a, 0.25 + 1.3j) < GATES["c10"]

    def test_small_imaginary_part(self):
        # slower series convergence, same identity
        g = (1, 0, 4, 1)
        assert theta_transform_residual(g, 0.02 + 0.08j) < GATES["c10"]
