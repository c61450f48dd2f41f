import numpy as np
import pytest
from scipy.special import jv

from theta_shift.specfun.recurrence import levels, miller


def _bessel_step(k, x, f, f_up):
    """f_(k-1) = k x f_k - f_(k+1): the recurrence of J_k(z) at x = 2/z."""
    return k * x * f - f_up


def _neumann_weight(top):
    """1 = J_0(z) + 2 sum_m J_2m(z) (DLMF 10.12.4), so miller returns J_0."""
    w = np.zeros(top + 1)
    w[::2] = 2.0
    w[0] = 1.0
    return w


class TestLevels:
    def test_against_a_brute_force_count(self, rng):
        for depth in (np.array([3, 0, 5, 3, 0, 1, 5, 2]), rng.integers(0, 9, size=40),
                      np.array([4]), np.zeros(5, dtype=np.int64)):
            order, live = levels(depth)
            assert len(live) == depth.max() + 2
            assert live == [int(np.sum(depth >= k)) for k in range(depth.max() + 2)]
            # deepest first; ties keep their input order
            assert order.tolist() == sorted(range(depth.size), key=lambda i: (-depth[i], i))

    def test_float_depths(self):
        order, live = levels(np.array([2.0, 7.0, 2.0]))
        assert order.tolist() == [1, 0, 2] and live == [3, 3, 3, 1, 1, 1, 1, 1, 0]


class TestMiller:
    def test_integer_order_bessel_against_scipy(self):
        # J_0 from the Neumann sum at depth z + 10 z^(1/3) + 30; at depth 0 the
        # result is f_0 / (weight[0] f_0) = 1
        z = np.array([1e-3, 0.5, 2.404825557695773, 5.0, 13.0, 40.0, 120.0])
        depth = np.ceil(z + 10.0 * np.cbrt(z) + 30.0)
        got = miller(2.0 / z, depth, _bessel_step, _neumann_weight(int(depth.max())))
        assert np.all(np.abs(got - jv(0, z)) <= 2e-15)   # measured worst 2.5e-16
        assert miller(2.0 / z, np.zeros(z.size), _bessel_step,
                      _neumann_weight(0)).tolist() == [1.0] * z.size

    def test_permuted_input_same_result(self, rng):
        z = rng.uniform(0.1, 60.0, size=50)
        depth = np.ceil(z + 30.0)
        depth[::7] = 0.0
        w = _neumann_weight(int(depth.max()))
        got = miller(2.0 / z, depth, _bessel_step, w)
        for _ in range(3):
            p = rng.permutation(z.size)
            assert np.array_equal(miller(2.0 / z[p], depth[p], _bessel_step, w), got[p])

    def test_rescaling_keeps_range(self):
        # at z = 1e-3 the recurrence grows about 2k/z per level: 1e595 over
        # 120 levels, past double range without the rescale every 16 levels
        z = np.array([1e-3, 1.0])
        got = miller(2.0 / z, np.array([120.0, 120.0]), _bessel_step, _neumann_weight(120))
        assert np.all(np.abs(got - jv(0, z)) <= 1e-15)
