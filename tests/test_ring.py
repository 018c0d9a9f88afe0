import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mralab.ring import (GroupElement, LengthMismatchError, Signal, align, align_spectra,
                         integer, number, orbit_index, reflect, residues, rho, shift,
                         std_indices, std_offset, storage_index, varrho)
from oracles import group_elements


def brute_force_rho(theta, phi, dihedral=False):
    best = np.inf
    for g in group_elements(theta.L, dihedral):
        best = min(best, np.linalg.norm(theta.values - g.apply(phi).values))
    return best


class TestIndexing:
    def test_std_indices_odd(self):
        assert list(std_indices(5)) == [-2, -1, 0, 1, 2]
        assert list(storage_index(5, std_indices(5))) == [0, 1, 2, 3, 4]
        assert list(storage_index(5, [3, -3, 7])) == list(storage_index(5, [-2, 2, 2]))

    def test_std_indices_even(self):
        assert list(std_indices(4)) == [-1, 0, 1, 2]
        assert list(storage_index(4, std_indices(4))) == [0, 1, 2, 3]
        assert storage_index(4, [[-2], [6]]).tolist() == [[3], [3]]

    def test_offset(self):
        assert std_offset(4) == 1
        assert std_offset(5) == 2
        assert std_offset(21) == 10

    def test_value_at(self):
        v = Signal([1.0, 2.0, 3.0, 4.0])
        assert v.values[storage_index(4, -1)] == 1.0
        assert v.values[storage_index(4, 0)] == 2.0
        assert v.values[storage_index(4, 2)] == 4.0

    def test_support(self):
        v = Signal([0.0, 2.0, 0.0, 4.0])
        assert v.support == {0, 2}

    def test_natural_round_trip(self):
        rng = np.random.default_rng(0)
        for L in (2, 4, 5, 21):
            v = Signal(rng.normal(size=L))
            assert Signal.from_natural(v.natural()) == v

    def test_too_short(self):
        with pytest.raises(ValueError):
            Signal([1.0])

    def test_values_immutable(self):
        v = Signal([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0


class TestShift:
    def test_identity(self):
        v = Signal([1.0, 2.0, 3.0, 4.0])
        assert shift(v, 0) == v

    def test_L4_by_one(self):
        # v at indices (-1, 0, 1, 2); output(i) = v(i + 1)
        v = Signal([1.0, 2.0, 3.0, 4.0])
        assert list(shift(v, 1).values) == [2.0, 3.0, 4.0, 1.0]

    @given(st.integers(2, 32), st.integers(-40, 40), st.integers(-40, 40),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_group_law(self, L, a, b, seed):
        v = Signal(np.random.default_rng(seed).normal(size=L))
        lhs = shift(shift(v, a), b)
        rhs = shift(v, a + b)
        assert np.allclose(lhs.values, rhs.values)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for L in (4, 5, 21):
            v = Signal(rng.normal(size=L))
            for g in range(L):
                assert shift(v, g).norm() == pytest.approx(v.norm())

    def test_support_translates(self):
        v = Signal.delta(7, 1)
        assert shift(v, 2).support == {-1}


class TestReflect:
    def test_symmetric_fixed(self):
        v = Signal.from_support(7, {0: 1.0, 1: 2.0, -1: 2.0, 3: 0.5, -3: 0.5})
        assert reflect(v) == v

    def test_involution(self):
        rng = np.random.default_rng(2)
        for L in (2, 4, 5, 8, 21):
            v = Signal(rng.normal(size=L))
            assert reflect(reflect(v)) == v

    def test_delta(self):
        assert reflect(Signal.delta(5, 1)) == Signal.delta(5, -1)

    def test_pointwise(self):
        rng = np.random.default_rng(3)
        for L in (4, 5):
            v = Signal(rng.normal(size=L))
            w = reflect(v)
            for i in range(-std_offset(L), L - std_offset(L)):
                assert w.values[storage_index(L, i)] == v.values[storage_index(L, -i)]


class TestGroupElement:
    def test_apply_matches_shift_reflect(self):
        v = Signal(np.random.default_rng(4).normal(size=8))
        g = GroupElement(3, True)
        assert g.apply(v) == shift(reflect(v), 3)

    @pytest.mark.parametrize("flip", [False, True])
    def test_apply_pointwise(self, flip):
        rng = np.random.default_rng(7)
        for L in (4, 5, 8):
            v = Signal(rng.normal(size=L))
            eps = -1 if flip else 1
            for g in range(-L, L):
                w = GroupElement(g, flip).apply(v)
                for i in std_indices(L):
                    assert (w.values[storage_index(L, i)]
                            == v.values[storage_index(L, eps * (i + g))])

    @pytest.mark.parametrize("dihedral", [False, True])
    @pytest.mark.parametrize("L", [2, 7, 8])
    def test_orbit_index_rows_are_group_elements(self, L, dihedral):
        v = Signal(np.random.default_rng(L).normal(size=L))
        orbit = v.values[orbit_index(L, dihedral)]
        elems = group_elements(L, dihedral)
        assert orbit.shape == (len(elems), L)
        for k, g in enumerate(elems):
            assert Signal(orbit[k]) == g.apply(v)

    def test_inverse(self):
        v = Signal(np.random.default_rng(5).normal(size=7))
        for g in group_elements(7, dihedral=True):
            back = g.inverse(7).apply(g.apply(v))
            assert np.allclose(back.values, v.values)


class TestRho:
    def test_orbit_member_zero(self):
        v = Signal(np.random.default_rng(7).normal(size=9))
        for g in range(9):
            assert rho(v, shift(v, g)) == pytest.approx(0.0, abs=1e-12)

    def test_L2_example(self):
        # best alignment puts the 2 under the 1: ||(1,0)-(2,0)|| = 1
        theta = Signal([1.0, 0.0])
        phi = Signal([0.0, 2.0])
        assert rho(theta, phi) == pytest.approx(1.0)

    def test_varrho_scaling(self):
        rng = np.random.default_rng(8)
        for L in (4, 5, 16):
            a, b = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            assert varrho(a, b) == pytest.approx(rho(a, b) / np.sqrt(L))

    @given(st.integers(2, 24), st.booleans(), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, L, dihedral, seed):
        rng = np.random.default_rng(seed)
        a, b = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
        fast = rho(a, b, dihedral=dihedral)
        slow = brute_force_rho(a, b, dihedral=dihedral)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = Signal(rng.normal(size=11)), Signal(rng.normal(size=11))
            assert rho(a, b) == pytest.approx(rho(b, a), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = (Signal(rng.normal(size=8)) for _ in range(3))
            assert rho(a, c) <= rho(a, b) + rho(b, c) + 1e-10

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rho(Signal([1.0, 2.0]), Signal([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("dihedral", [False, True])
    @pytest.mark.parametrize("L", [2, 7, 8, 257])
    def test_align_rows_matches_brute_force(self, L, dihedral):
        rng = np.random.default_rng(L + dihedral)
        v = rng.normal(size=L)
        # phi equals its reflection, so every row ties a rotation with a reflection
        sym = Signal(v + reflect(Signal(v)).values)
        orbit = sym.values[orbit_index(L, dihedral)]
        for phi in (Signal(v), sym):
            near = orbit[rng.integers(len(orbit), size=3)] + 1e-3 * rng.normal(size=(3, L))
            rows = np.vstack([rng.normal(size=(6, L)), sym.values, near])
            g, flip, d = align_spectra(rows, np.fft.rfft(rows), phi, dihedral)
            assert dihedral or not flip.any()
            for row, gk, fk, dk in zip(rows, g, flip, d):
                assert dk == pytest.approx(brute_force_rho(Signal(row), phi, dihedral),
                                           rel=1e-12, abs=1e-12)
                attained = GroupElement(int(gk), bool(fk)).apply(phi).values
                assert np.linalg.norm(row - attained) == pytest.approx(dk, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_align_spectra_equals_align_rows(self, dihedral):
        # the batched alignment finds, for each row, what `align` finds alone
        rng = np.random.default_rng(12 + dihedral)
        phi = Signal(rng.normal(size=64))
        rows = phi.values + 0.1 * rng.normal(size=(50, 64))
        g, flip, d = align_spectra(rows, np.fft.rfft(rows), phi, dihedral)
        for row, gk, fk, dk in zip(rows, g, flip, d):
            elem, dist = align(Signal(row), phi, dihedral)
            assert elem == GroupElement(int(gk), bool(fk))
            assert dist == pytest.approx(dk, rel=1e-14, abs=0)

    def test_align_returns_argmin(self):
        rng = np.random.default_rng(11)
        a, b = Signal(rng.normal(size=13)), Signal(rng.normal(size=13))
        g, d = align(a, b, dihedral=True)
        assert np.linalg.norm(a.values - g.apply(b).values) == pytest.approx(d)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(12)
        for L in (2, 4, 5, 21, 64):
            v = Signal(np.where(rng.random(L) < 0.5, rng.normal(size=L), 0.0))
            if not np.any(v.values):
                v = Signal.delta(L)
            assert Signal.from_json_dict(json.loads(json.dumps(v.to_json_dict()))) == v

    def test_json_fields(self):
        d = Signal.from_support(5, {-1: 0.5, 2: -3.0}).to_json_dict()
        assert d["L"] == 5
        assert d["format"] == "standard-parametrization"
        assert d["support"] == [-1, 2]
        assert d["values"] == [0.5, -3.0]

    def test_unequal_lengths_rejected(self):
        # support [1, 2, 3] with one value would be read as the support [1]
        with pytest.raises(ValueError, match=r"need a list of 3 values, one per support "
                                             r"entry, got \[1\.0\]"):
            Signal.from_json_dict({"L": 21, "format": "standard-parametrization",
                                   "support": [1, 2, 3], "values": [1.0]})

    @pytest.mark.parametrize("support", [[4, 25], [3, 3]])
    def test_residue_twice_rejected(self, support):
        # 4 and 25 are one residue mod 21: the later value would overwrite the earlier
        with pytest.raises(ValueError, match="support entries %d and %d are one residue mod 21"
                           % tuple(support)):
            Signal.from_json_dict({"L": 21, "format": "standard-parametrization",
                                   "support": support, "values": [1.0, 2.0]})

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            Signal.from_json_dict({"L": 4, "format": "other", "support": [], "values": []})


class TestInputRules:
    def test_integer(self):
        got = integer("k", np.int64(3), 1)
        assert got == 3 and type(got) is int
        for bad in (True, 2.0, "2", None):
            with pytest.raises(ValueError, match="^k must be an integer, got %s$" % re.escape(
                    repr(bad))):
                integer("k", bad, 1)
        with pytest.raises(ValueError, match="^need k >= 1, got 0$"):
            integer("k", 0, 1)
        assert integer("k", -7) == -7  # no least value by default

    def test_number(self):
        got = number("x", np.float32(0.5), True)
        assert got == 0.5 and type(got) is float
        assert number("x", -2) == -2.0 and number("x", 0) == 0.0
        for bad in (True, "1.5", None, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^x must be a finite number, got "):
                number("x", bad)
        for bad in (0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="^x must be positive and finite, got "):
                number("x", bad, True)

    def test_residues(self):
        # storage positions, in the order given
        assert residues(5, [2, -2, 0], "support").tolist() == storage_index(5, [2, -2, 0]).tolist()
        assert residues(5, [], "support").tolist() == []
        with pytest.raises(ValueError, match="^support entries -4 and 17 are one residue mod 21$"):
            residues(21, [-4, 3, 17], "support")
        with pytest.raises(ValueError, match="^support entry must be an integer, got True$"):
            residues(21, [1, True], "support")
        with pytest.raises(ValueError, match="^support must be a list of integers, got 5$"):
            residues(21, 5, "support")
