import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift.arith import char_from_kronecker, char_from_table, trivial_character
from theta_shift.modforms import eta
from theta_shift.modforms.eta import (
    eta7_cusp_form,
    eta7_cusp_form_on_demand,
    eta_cubed_pair_at,
    eta_cubed_pair_coeffs,
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


class TestEtaOnDemand:
    """eta_cubed_pair_at against the dense table, entry by entry and through
    the sums the CLI computes from it."""

    @pytest.mark.parametrize("which", ["n^2+h", "n^2", "all", "random"])
    def test_equals_dense_table(self, eta7_big, which):
        n = np.arange(1, 4097)
        ns = {"n^2+h": np.concatenate([n * n + h for h in range(1, 8)]),
              "n^2": n[:4000] ** 2,
              "all": np.arange(1, 20001),
              "random": np.random.default_rng(71).integers(1, 16_900_001, size=2000)}[which]
        assert np.array_equal(eta_cubed_pair_at(ns), eta7_big.coeffs[ns - 1])

    def test_small_passes_equal_dense_table(self, eta7_big, monkeypatch):
        # 50 cells per pass: a few n per block at small n, one n per block beyond
        monkeypatch.setattr(eta, "_CELLS", 50)
        ns = np.concatenate([np.arange(1, 3001),
                             np.random.default_rng(72).integers(1, 16_900_001, size=200)])
        assert np.array_equal(eta_cubed_pair_at(ns), eta7_big.coeffs[ns - 1])

    def test_memory_bounded_at_large_n(self):
        # 35,032 values of b per n: a 256-row pass would hold 72 MB per temporary
        tracemalloc.start()
        try:
            eta_cubed_pair_at(np.arange(2**32 - 255, 2**32 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_keeps_shape_and_repeats(self):
        assert eta_cubed_pair_at(2) == -3
        assert eta_cubed_pair_at(np.array([[7, 2], [2, 1]])).tolist() == [[-7, -3], [-3, 1]]

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
        for n in (0, f.n_coeffs + 1, np.array([3, f.n_coeffs + 1])):
            with pytest.raises(IndexError):
                f.a(n)

    @pytest.mark.parametrize("n", [0, -4])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"n >= 1, got n = {n}"):
            eta_cubed_pair_at(np.array([5, n]))

    def test_beyond_exact_square_test_rejected(self):
        with pytest.raises(ValueError, match=r"n <= 2\^32, got n = 4294967297"):
            eta_cubed_pair_at(np.array([3, 2**32 + 1]))

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
