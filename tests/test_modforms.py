import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift.arith import (
    char_from_kronecker,
    char_from_table,
    kronecker_array,
    primes_upto,
    trivial_character,
)
from theta_shift.modforms import eta
from theta_shift.modforms.eta import (
    eta7_cusp_form,
    eta7_cusp_form_on_demand,
    eta_cubed_pair_coeffs,
    eta_cubed_pair_squares,
)
from theta_shift.modforms.forms import CuspForm, load_form, r1, save_form
from theta_shift.modforms.residual import sym2_residue_estimate
from theta_shift.modforms.sums import shifted_sum


class TestR1:
    def test_examples(self):
        assert r1(0) == 1
        assert r1(4) == 2
        assert r1(3) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_partial_sums_count_lattice_points(self, Y):
        # sum_{n <= Y} r1(n) counts |n| <= sqrt(Y)
        total = 1 + 2 * math.isqrt(Y)
        direct = sum(r1(n) for n in range(min(Y, 3000) + 1))
        if Y <= 3000:
            assert direct == total


class TestEtaCoefficients:
    def test_leading_terms(self):
        c = eta_cubed_pair_coeffs(30)
        assert c[0] == 1       # a(1)
        assert c[1] == -3      # a(2)
        assert list(c[:10]) == [1, -3, 0, 5, 0, 0, -7, -3, 9, 0]

    def test_multiplicativity_spot(self):
        c = eta_cubed_pair_coeffs(200)
        # a is multiplicative: a(2) a(9) = a(18), a(2) a(11) = a(22)
        assert c[17] == c[1] * c[8]
        assert c[21] == c[1] * c[10]

    def test_inert_primes_vanish(self):
        c = eta_cubed_pair_coeffs(200)
        for p in (3, 5, 13, 17, 19):   # (-7/p) = -1
            assert c[p - 1] == 0


def _lattice_count(n: int) -> int:
    """a(n) = 1/2 sum of alpha^2 over alpha = (u + w sqrt(-7))/2 of norm n: the real parts
    (u^2 - 7w^2)/4 over u = w (mod 2), u^2 + 7w^2 = 4n, summed exactly."""
    w = np.arange(-math.isqrt(4 * n // 7), math.isqrt(4 * n // 7) + 1, dtype=np.int64)
    u2 = 4 * n - 7 * w * w
    u = np.sqrt(u2.astype(np.float64)).round().astype(np.int64)
    hit = (u * u == u2) & ((u - w) % 2 == 0)
    total = int(np.sum(np.where(u[hit] > 0, 2, 1) * (u2[hit] - 7 * w[hit] ** 2)))   # +-u
    assert total % 8 == 0
    return total // 8


class TestEtaOnDemand:
    """The sieve a(j^2 + h) against the dense table and an in-test lattice count,
    and the sieve-backed form through the sums the CLI computes from it."""

    @pytest.mark.parametrize("which", ["n^2+h", "n^2", "all", "random"])
    def test_equals_dense_table(self, eta7_big, which):
        # the table's own a_squares is the reference: a(4096^2 + 120000) is in eta7_big
        hs = {"n^2+h": (1, 2, 3, 5, 7, 28), "n^2": (0,), "all": (),
              "random": np.random.default_rng(71).integers(8, 120_000, size=6).tolist()}[which]
        for h in hs:
            assert np.array_equal(eta_cubed_pair_squares(h, 4096), eta7_big.a_squares(h, 4096)), h
        if which == "all":   # the sieve form's arbitrary reads: its dense table
            n = np.arange(1, 20_001)
            assert np.array_equal(eta7_cusp_form_on_demand().a(n), eta7_big.a(n))

    def test_small_passes_equal_dense_table(self, eta7_small):
        # a handful of primes or none: the cofactor left can be 2 or 7
        for J in (*range(8), 40):
            for h in range(61):
                assert np.array_equal(eta_cubed_pair_squares(h, J), eta7_small.a_squares(h, J)), \
                    (J, h)

    def test_a_p_equals_dense_table(self):
        ps = primes_upto(10**5)
        assert np.array_equal(eta._a_prime(ps), eta_cubed_pair_coeffs(10**5)[ps - 1])

    def test_hecke_recurrence_at_p2_and_p3(self):
        ps = primes_upto(65535)
        ap = eta._a_prime(ps)
        chi = kronecker_array(-7, ps)
        a_p2 = eta_cubed_pair_squares(0, 65535)[ps]
        assert np.array_equal(a_p2, ap * ap - chi * ps * ps)
        for p, a1, a2, c in zip(ps[:60].tolist(), ap.tolist(), a_p2.tolist(), chi.tolist()):
            assert eta_cubed_pair_squares(p**3, 0)[0] == a1 * a2 - c * p * p * a1, p

    @pytest.mark.parametrize("h", [1, 7])
    def test_lattice_count_at_random_j(self, h):
        js = np.random.default_rng(73 + h).integers(1, 65536, size=50)
        vals = eta_cubed_pair_squares(h, 65535)[js]
        assert vals.tolist() == [_lattice_count(int(j) ** 2 + h) for j in js]

    def test_memory_bounded_at_large_n(self):
        # J = 65535 reaches n = 2^32 - 131070 + h: every temporary is O(J) or O(hits),
        # ~1.7e5 hits at h = 7, 21 MB at the peak
        eta_cubed_pair_squares.cache_clear()   # a kept row would measure no sieve
        tracemalloc.start()
        try:
            eta_cubed_pair_squares(7, 65535)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_keeps_shape_and_repeats(self):
        eta_cubed_pair_squares.cache_clear()   # so the first (7, 100) below is sieved
        assert eta_cubed_pair_squares(0, 0).tolist() == [0]   # a(0): no constant term
        assert eta_cubed_pair_squares(2, 0).tolist() == [-3]
        assert eta_cubed_pair_squares(0, 3).tolist() == [0, 1, 5, 9]
        out = eta_cubed_pair_squares(7, 100)
        assert out.shape == (101,) and out.dtype == np.int64
        again = eta_cubed_pair_squares(7, 100)
        assert np.array_equal(out, again) and not again.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            again[1] = 0
        f = eta7_cusp_form_on_demand()
        assert f is eta7_cusp_form_on_demand() and not f.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0] = 0

    @pytest.mark.parametrize("h", [1, 7])
    def test_shifted_sums_equal_dense(self, eta7_big, h):
        grid = [2.0**j for j in range(13)]
        lazy = eta7_cusp_form_on_demand()
        assert np.array_equal(shifted_sum(lazy, h, grid), shifted_sum(eta7_big, h, grid))

    def test_sym2_estimate_equals_dense(self, eta7_big):
        grid = np.unique(np.geomspace(40, 4000, 24).astype(int))
        lazy = eta7_cusp_form_on_demand()
        assert sym2_residue_estimate(lazy, grid) == sym2_residue_estimate(eta7_big, grid)

    def test_form_reads_like_the_array(self, eta7_small):
        f = eta7_cusp_form_on_demand()
        assert f.notes == () and f.n_coeffs == 2**32
        assert f.coeffs.dtype == np.float64
        assert f.a(7) == -7 and f.A(2) == eta7_small.A(2)
        ns = np.array([[7, 2], [2, 1]])
        assert np.array_equal(f.A(ns), eta7_small.A(ns))
        for n in (0, 20_001, f.n_coeffs + 1, np.array([3, f.n_coeffs + 1])):
            with pytest.raises(IndexError):
                f.a(n)

    @pytest.mark.parametrize("h, J", [(-1, 5), (-4, 0), (3, -1)])
    def test_negative_arguments_rejected(self, h, J):
        with pytest.raises(ValueError, match=f"h >= 0 and J >= 0, got h = {h}, J = {J}"):
            eta_cubed_pair_squares(h, J)

    def test_beyond_exact_square_test_rejected(self):
        # the moduli of sqrt_mod and Cornacchia stay below 2^32
        eta_cubed_pair_squares(2**32 - 65535**2, 65535)
        with pytest.raises(ValueError, match=r"j\^2 \+ h <= 2\^32, got 4294967297"):
            eta_cubed_pair_squares(1, 65536)

    def test_on_demand_work_budget(self):
        f = eta7_cusp_form_on_demand()
        assert f.n_coeffs == 2**32
        with pytest.raises(IndexError, match=r"a\(4294967297\) unavailable"):
            f.a(2**32 + 1)


class TestCuspForm:
    def test_eta7_construction(self, eta7_small):
        f = eta7_small
        assert f.level == 28 and f.weight == 3
        assert f.character.conductor == 7
        assert f.notes == ()

    def test_normalized_coefficient(self, eta7_small):
        assert eta7_small.A(2) == pytest.approx(-1.5)
        assert eta7_small.A(1) == pytest.approx(1.0)

    def test_deligne_normalization_bound(self, eta7_small):
        f = eta7_small
        for p in (2, 11, 23, 29, 37, 43):
            assert abs(f.A(p)) <= 2.0 + 1e-12

    def test_out_of_range(self, eta7_small):
        with pytest.raises(IndexError):
            eta7_small.a(eta7_small.n_coeffs + 1)

    def test_level_must_be_liftable(self):
        with pytest.raises(ValueError):
            CuspForm(level=7, weight=3, character=trivial_character(7),
                     coeffs=np.array([1.0]))

    def test_weight_floor(self):
        with pytest.raises(ValueError):
            CuspForm(level=4, weight=2, character=trivial_character(4),
                     coeffs=np.array([1.0]))

    def test_non_newform_warning(self):
        f = CuspForm(level=4, weight=3, character=trivial_character(4),
                     coeffs=np.array([0.0, 1.0]))
        assert any("a(1)" in n for n in f.notes)


class TestLoadSave:
    def test_roundtrip_with_lifting(self, tmp_path, eta7_small):
        path = tmp_path / "eta7.txt"
        with open(path, "w") as fh:
            fh.write("level=7\nweight=3\nchar_kronecker=-7\n")
            for n in range(1, 101):
                fh.write(f"a {n} {int(eta7_small.a(n))}\n")
        f = load_form(path)
        assert f.level == 28
        assert any("lifted" in n for n in f.notes)
        assert f.a(2) == -3
        assert f.character.conductor == 7

    def test_save_then_load(self, tmp_path, eta7_small):
        path = tmp_path / "out.txt"
        save_form(path, eta7_cusp_form(50))
        f = load_form(path)
        assert f.level == 28 and f.weight == 3
        assert np.allclose(f.coeffs, eta7_small.coeffs[:50])

    @pytest.mark.parametrize("chi", [
        char_from_kronecker(-7, 28),
        # order-4 character mod 5 (2 -> i) times the trivial character mod 4
        char_from_table(20, [{1: 1, 2: 1j, 4: -1, 3: -1j}[d % 5] if math.gcd(d, 20) == 1
                             else 0 for d in range(20)]),
    ], ids=["kronecker", "table"])
    def test_save_then_load_keeps_character(self, tmp_path, eta7_small, chi):
        path = tmp_path / "out.txt"
        save_form(path, CuspForm(level=chi.modulus, weight=3, character=chi,
                                 coeffs=eta7_small.coeffs[:50]))
        assert load_form(path).character.values.tobytes() == chi.values.tobytes()

    def test_level7_table_lifted_like_kronecker(self, tmp_path, eta7_small):
        path = tmp_path / "eta7.txt"
        path.write_text("level=7\nweight=3\nchar_table=0,1,1,-1,1,-1,-1\n"
                        + "".join(f"a {n} {int(eta7_small.a(n))}\n" for n in range(1, 101)))
        f = load_form(path)
        assert f.level == 28
        assert f.character.values.tobytes() == char_from_kronecker(-7, 28).values.tobytes()

    def test_table_length_must_match_level(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("level=7\nweight=3\nchar_table=0,1,1\na 1 1\n")
        with pytest.raises(ValueError, match="char_table needs 7 values"):
            load_form(path)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("level=4\nweight=3\na 1 1\na 3 5\n")
        with pytest.raises(ValueError, match="gap"):
            load_form(path)

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_index_below_one_rejected(self, tmp_path, n):
        path = tmp_path / "low.txt"
        path.write_text(f"level=4\nweight=3\na 1 1\na {n} 5\na 2 1\n")
        with pytest.raises(ValueError, match=rf"low.txt:4: coefficient index must be >= 1, "
                                             rf"got a\({n}\)"):
            load_form(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("level=4\nweight=3\na 1 1\na 2 3\na 2 4\n")
        with pytest.raises(ValueError, match=r"dup.txt:5: duplicate coefficient a\(2\)"):
            load_form(path)

    def test_far_gap_rejected_without_scanning_it(self, tmp_path):
        # listing every missing index up to 10^6 took 39 MB
        path = tmp_path / "far.txt"
        path.write_text("level=4\nweight=3\na 1 1\na 2 1\na 1000000 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"gaps starting at a\(3\)"):
                load_form(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_low_weight_rejected(self, tmp_path):
        path = tmp_path / "w2.txt"
        path.write_text("level=4\nweight=2\na 1 1\n")
        with pytest.raises(ValueError):
            load_form(path)

    def test_short_file_loads_with_small_M(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("level=4\nweight=3\n" +
                        "\n".join(f"a {n} 1" for n in range(1, 11)))
        f = load_form(path)
        assert f.n_coeffs == 10
        with pytest.raises(IndexError):
            f.a(11)

    def test_zero_a1_loads_with_warning(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("level=4\nweight=3\na 1 0\na 2 1\n")
        f = load_form(path)
        assert any("a(1)" in n for n in f.notes)
