import numpy as np
import pytest

from mralab.gensig import (DiluteClassSpec, _greedy_collision_free, gen_collision_free,
                           gen_symm_bernoulli_gaussian, gen_symm_interval,
                           is_collision_free, lag_counts, positive_part)
from mralab.ring import Signal, reflect
from oracles import cosine_functional_all, difference_multiset, greedy_collision_free


class TestDifferenceMultiset:
    def test_singleton(self):
        assert lag_counts({3}, 7).tolist() == [0] * 7

    def test_pair(self):
        assert lag_counts({0, 1}, 5).tolist() == [0, 1, 0, 0, 1]

    def test_perfect_difference_set(self):
        assert lag_counts({0, 1, 3}, 7).tolist() == [0, 1, 1, 1, 1, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lag_counts(set(), 5)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            L = int(rng.integers(1, 40))
            # repeated points, negative indices and, at even L, lags L/2
            sup = rng.integers(-2 * L, 2 * L, size=int(rng.integers(1, 12)))
            if L % 2 == 0 and rng.random() < 0.5:
                sup = np.append(sup, sup[0] + L // 2)
            got = lag_counts(sup, L)
            assert got.shape == (L,) and got.dtype.kind == "i"
            assert np.array_equal(got, difference_multiset(sup, L)), (L, sup)


class TestCollisionFree:
    def test_examples(self):
        assert is_collision_free({0, 1, 3}, 7)
        assert not is_collision_free({0, 1, 2}, 7)
        assert is_collision_free({4}, 7)

    def test_half_length_difference_collides(self):
        # the difference L/2 is its own negation, so it appears twice
        assert not is_collision_free({0, 3}, 6)
        assert not is_collision_free({0, 1}, 2)

    def test_planar_difference_set(self):
        assert is_collision_free({3, 6, 7, 12, 14}, 21)


class TestDiluteSpec:
    def test_admissibility_enforced(self):
        with pytest.raises(ValueError):
            DiluteClassSpec(L=101, s=8, m=0.5, M=2.0, eps=1.0)

    def test_feasibility_enforced(self):
        with pytest.raises(ValueError):
            DiluteClassSpec(L=8, s=4, m=1.0, M=1.0, eps=1.0)

    def test_curvature_constant(self):
        spec = DiluteClassSpec(L=101, s=8, m=1.0, M=1.0, eps=2.0)
        assert spec.curvature_constant() == pytest.approx(1.0)


class TestGenCollisionFree:
    def test_single_point(self):
        spec = DiluteClassSpec(L=11, s=3, m=1.0, M=1.0, eps=1.0)
        rng = np.random.default_rng(0)
        theta = gen_collision_free(spec, rng)
        assert len(theta.support) == 3

    def test_postconditions(self):
        spec = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = gen_collision_free(spec, rng)
            assert len(theta.support) == 8
            assert is_collision_free(theta.support, 101)
            mags = np.abs(theta.values[theta.values != 0])
            assert np.all(mags >= 1.0) and np.all(mags <= 1.5)

    def test_infeasible_dense_case_uses_greedy(self):
        # maximal collision-free size in Z_21 is 5; s=5 is tight
        spec = DiluteClassSpec(L=21, s=5, m=1.0, M=1.0, eps=1.0)
        rng = np.random.default_rng(2)
        theta = gen_collision_free(spec, rng)
        assert is_collision_free(theta.support, 21)

    def test_greedy_matches_fresh_lag_oracle(self):
        # same picks, same None and the same stream left behind
        for L in range(2, 41):
            for s in range(1, 7):
                for seed in range(3):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert (_greedy_collision_free(L, s, rng)
                            == greedy_collision_free(L, s, ref)), (L, s, seed)
                    assert rng.integers(2**62) == ref.integers(2**62)

    def test_acceptance_rate_decays_with_s(self):
        rng = np.random.default_rng(3)
        L = 101
        rates = []
        for s in (4, 6, 8):
            hits = sum(is_collision_free(rng.choice(L, size=s, replace=False), L)
                       for _ in range(400))
            rates.append(hits / 400)
        assert rates[0] > rates[1] > rates[2]


class TestSymmetricGenerators:
    def test_positive_part(self):
        assert list(positive_part(7)) == [0, 1, 2, 3]
        assert list(positive_part(8)) == [0, 1, 2, 3]

    @pytest.mark.filterwarnings("ignore:Bernoulli-Gaussian")
    def test_bernoulli_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = gen_symm_bernoulli_gaussian(64, 8, 1.0, rng)
            assert f == reflect(f)

    @pytest.mark.filterwarnings("ignore:Bernoulli-Gaussian")
    def test_bernoulli_support_mean(self):
        rng = np.random.default_rng(5)
        L, s = 64, 8
        sizes = [len(set(abs(i) for i in
                         gen_symm_bernoulli_gaussian(L, s, 1.0, rng).support))
                 for _ in range(10_000)]
        expected = (s / L) * len(positive_part(L))
        se = np.sqrt(expected * (1 - s / L) / len(sizes))
        assert abs(np.mean(sizes) - expected) < 3 * se

    def test_bernoulli_empty_support_warns(self):
        import warnings

        rng = np.random.default_rng(6)
        saw_empty = False
        for _ in range(2000):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                f = gen_symm_bernoulli_gaussian(64, 1, 1.0, rng)
            if not f.support:
                saw_empty = True
                assert any("empty support" in str(w.message) for w in caught)
                break
        assert saw_empty

    def test_interval_support(self):
        rng = np.random.default_rng(7)
        f = gen_symm_interval(21, 4, 1.0, rng)
        assert f.support == set(range(-4, 5))
        assert f == reflect(f)

    def test_interval_too_large(self):
        with pytest.raises(ValueError):
            gen_symm_interval(8, 4, 1.0, np.random.default_rng(0))

    def test_interval_value_variance(self):
        rng = np.random.default_rng(8)
        zeta = 1.5
        vals = []
        for _ in range(2000):
            f = gen_symm_interval(32, 3, zeta, rng)
            vals.extend(f.values[f.values != 0][:4])
        vals = np.asarray(vals)
        se = zeta**2 * np.sqrt(2 / len(vals))
        assert abs(np.var(vals) - zeta**2) < 3 * se

    def test_spectrum_variance_matches_cosine_functional(self):
        # fixed symmetric support, Gaussian values: Var f-hat(xi) = zeta^2 V(Xi, xi)
        rng = np.random.default_rng(9)
        L, zeta = 32, 1.0
        sup = [0, 2, 5]
        draws = []
        for _ in range(4000):
            entries = {}
            for k in sup:
                x = rng.normal(0, zeta)
                entries[k] = x
                entries[-k] = x
            draws.append(np.real(np.fft.fft(Signal.from_support(L, entries).natural())))
        draws = np.stack(draws)
        xi_set = sorted(set(sup) | set(-k for k in sup))
        for xi in (0, 1, 3, 7, 15):
            v = cosine_functional_all(xi_set, L)[xi]
            emp = np.var(draws[:, xi])
            se = zeta**2 * v * np.sqrt(2 / draws.shape[0])
            assert abs(emp - zeta**2 * v) < 4 * max(se, 1e-6)


class TestCosineFunctional:
    def test_zero_only(self):
        assert np.allclose(cosine_functional_all({0}, 7), 1.0)

    def test_a_zero(self):
        xi = {0, 1, 3, -2}
        assert cosine_functional_all(xi, 11)[0] == pytest.approx(1 + 2 * 3)

    def test_periodicity_and_symmetry(self):
        xi = {0, 2, 5, -5}
        vals = cosine_functional_all(xi, 13)
        for a in range(13):
            assert vals[-a % 13] == pytest.approx(vals[a])
        assert np.array_equal(cosine_functional_all(xi | {18}, 13), vals)

    def test_all_matches_scalar(self):
        xi = {0, 1, 4}
        vals = cosine_functional_all(xi, 9)
        for a in range(9):
            assert vals[a] == pytest.approx(
                1 + 2 * sum(np.cos(2 * np.pi * a * k / 9) ** 2 for k in (1, 4)))
        # 1 and 12 are one residue in Z_11: V = 2 cos^2(4 pi / 11) = 0.345
        assert cosine_functional_all({1, 12}, 11)[2] == pytest.approx(
            2 * np.cos(4 * np.pi / 11) ** 2, rel=1e-12)

    def test_check_cosine_generic(self):
        # V(a) = 1 + 2 cos^2(2 pi a / 8) is smallest, 1, where the cosine vanishes
        vals = cosine_functional_all({0, 1}, 8)
        assert int(np.argmin(vals)) == 2
        assert vals.min() == pytest.approx(1.0)
        assert vals.min() >= 0.5
