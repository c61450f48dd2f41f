import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_shift.arith import char_from_kronecker, char_from_table, trivial_character
from theta_shift.modforms.eta import eta7_cusp_form, eta_cubed_pair_coeffs
from theta_shift.modforms.forms import CuspForm, load_form, r1, save_form


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


class TestCuspForm:
    def test_eta7_construction(self, eta7_small):
        f = eta7_small
        assert f.level == 28 and f.weight == 3
        assert f.character.conductor == 7
        assert not f.character.is_even
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
        save_form(path, eta7_small, n_max=50)
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
        assert load_form(path).character.values == chi.values

    def test_level7_table_lifted_like_kronecker(self, tmp_path, eta7_small):
        path = tmp_path / "eta7.txt"
        path.write_text("level=7\nweight=3\nchar_table=0,1,1,-1,1,-1,-1\n"
                        + "".join(f"a {n} {int(eta7_small.a(n))}\n" for n in range(1, 101)))
        f = load_form(path)
        assert f.level == 28
        assert f.character.values == char_from_kronecker(-7, 28).values

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
