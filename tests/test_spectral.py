import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mralab.ring import Signal, reflect, shift, std_indices
from mralab.spectral import (Spectrum, autocorrelation,
                             convolve, delta_m, dft, empirical_moments, idft,
                             power_spectrum, second_moment,
                             second_moment_difference_expansion,
                             second_moment_expansion_generators,
                             second_moment_generator, toeplitz)


def direct_dft(v: Signal) -> np.ndarray:
    """O(L^2) transform by explicit summation over the natural indexing."""
    L = v.L
    nat = v.natural()
    out = np.zeros(L, dtype=complex)
    for xi in range(L):
        out[xi] = sum(nat[k] * np.exp(-2j * np.pi * xi * k / L) for k in range(L))
    return out


def direct_convolve(u: Signal, v: Signal) -> np.ndarray:
    L = u.L
    un, vn = u.natural(), v.natural()
    out = np.zeros(L)
    for k in range(L):
        out[k] = sum(un[g] * vn[(k - g) % L] for g in range(L))
    return out


def third_moment_dense(theta: Signal) -> np.ndarray:
    """E_G[(G theta)^(x 3)] as an L^3 array, summed shift by shift."""
    L = theta.L
    acc = np.zeros((L, L, L))
    for g in range(L):
        w = np.roll(theta.values, -g)
        acc += np.einsum("i,j,k->ijk", w, w, w)
    return acc / L


def bispectrum_delta3_norm(theta: Signal, phi: Signal) -> float:
    """||Delta_3||_F = sqrt(L^-3 sum |B_theta - B_phi|^2), summed frequency pair
    by frequency pair with B(a, b) = f(a) f(b) conj(f(a + b)) on natural order."""
    L = theta.L
    fa, fb = np.fft.fft(theta.natural()), np.fft.fft(phi.natural())
    total = 0.0
    for a in range(L):
        for b in range(L):
            c = (a + b) % L
            total += abs(fa[a] * fa[b] * np.conj(fa[c]) - fb[a] * fb[b] * np.conj(fb[c])) ** 2
    return float(np.sqrt(total / L**3))


class TestDft:
    def test_delta_flat(self):
        s = dft(Signal.delta(8))
        assert np.allclose(s.values, 1.0)

    def test_constant(self):
        s = dft(Signal(np.ones(6)))
        assert s.value_at(0) == pytest.approx(6.0)
        nat = s.natural()
        assert np.allclose(nat[1:], 0.0, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for L in (4, 5, 8):
            v = Signal(rng.normal(size=L))
            assert np.allclose(dft(v).natural(), direct_dft(v), atol=1e-10)

    def test_conjugate_symmetry(self):
        v = Signal(np.random.default_rng(1).normal(size=9))
        s = dft(v)
        for xi in range(-4, 5):
            assert s.value_at(-xi) == pytest.approx(np.conj(s.value_at(xi)))

    def test_real_symmetric_gives_real_spectrum(self):
        v = Signal.from_support(9, {0: 1.0, 2: 0.5, -2: 0.5})
        assert np.allclose(np.imag(dft(v).values), 0.0, atol=1e-12)

    @given(st.sampled_from([4, 5, 16, 21, 64]), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, L, seed):
        v = Signal(np.random.default_rng(seed).normal(size=L))
        lhs = v.norm() ** 2
        rhs = np.sum(np.abs(dft(v).values) ** 2) / L
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_idft_round_trip(self):
        rng = np.random.default_rng(2)
        for L in (4, 5, 21):
            v = Signal(rng.normal(size=L))
            assert np.allclose(idft(dft(v)).values, v.values, atol=1e-12)

    def test_idft_of_ones(self):
        assert np.allclose(idft(Spectrum.from_natural(np.ones(7))).values,
                           Signal.delta(7).values, atol=1e-12)


class TestConvolve:
    def test_identity_element(self):
        v = Signal(np.random.default_rng(3).normal(size=6))
        assert np.allclose(convolve(v, Signal.delta(6)).values, v.values)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(4)
        for L in (4, 5, 16):
            u, v = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            lhs = dft(convolve(u, v)).values
            rhs = dft(u).values * dft(v).values
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for L in (4, 7):
            u, v = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            assert np.allclose(convolve(u, v).natural(), direct_convolve(u, v))

    def test_self_reflected_spectrum_is_power(self):
        v = Signal(np.random.default_rng(6).normal(size=8))
        lhs = dft(convolve(v, reflect(v))).values
        assert np.allclose(lhs, np.abs(dft(v).values) ** 2, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convolve(Signal([1.0, 2.0]), Signal([1.0, 2.0, 3.0]))


class TestToeplitz:
    def test_delta_is_identity(self):
        assert np.allclose(toeplitz(Signal.delta(5)), np.eye(5))

    def test_entries(self):
        v = Signal(np.random.default_rng(7).normal(size=6))
        M = toeplitz(v)
        idx = std_indices(6)
        for a in range(6):
            for b in range(6):
                assert M[a, b] == pytest.approx(v.value_at(int(idx[a] - idx[b])))

    def test_frobenius_identity(self):
        rng = np.random.default_rng(8)
        for L in (4, 5, 16, 21, 64):
            v = Signal(rng.normal(size=L))
            assert np.linalg.norm(toeplitz(v)) == pytest.approx(
                np.sqrt(L) * v.norm(), rel=1e-12)

    @pytest.mark.parametrize("L", [2, 7, 16, 21, 64])
    def test_bit_equal_to_scipy_circulant(self, L):
        rng = np.random.default_rng(L)
        v, theta, h = (Signal(rng.normal(size=L)) for _ in range(3))
        np.testing.assert_array_equal(toeplitz(v), scipy.linalg.circulant(v.natural()))
        lin, quad = second_moment_difference_expansion(theta, h)
        glin, gquad = second_moment_expansion_generators(theta, h.values)
        np.testing.assert_array_equal(lin, scipy.linalg.circulant(glin))
        np.testing.assert_array_equal(quad, scipy.linalg.circulant(gquad))
        # the adversarial probe reports ||lin||_F as sqrt(L) ||glin||
        assert np.sqrt(L) * np.linalg.norm(glin) == pytest.approx(np.linalg.norm(lin), rel=1e-12)

    def test_trace_inner_product(self):
        rng = np.random.default_rng(9)
        for L in (4, 5, 16, 21, 64):
            v, w = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            lhs = np.trace(toeplitz(v) @ toeplitz(w).T)
            assert lhs == pytest.approx(L * np.dot(v.values, w.values), rel=1e-10)


class TestSecondMoment:
    def test_constant_signal(self):
        M = second_moment(Signal(np.ones(5))).data
        assert np.allclose(M, np.ones((5, 5)))

    def test_delta_signal(self):
        M = second_moment(Signal.delta(6)).data
        assert np.allclose(M, np.eye(6) / 6)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(10)
        for L in (4, 5, 8, 21):
            for _ in range(25):
                theta = Signal(rng.normal(size=L))
                M = second_moment(theta).data
                B = np.zeros((L, L))
                for g in range(L):
                    w = shift(theta, g).values
                    B += np.outer(w, w)
                B /= L
                assert np.allclose(M, B, rtol=1e-12, atol=1e-12)

    def test_frobenius_from_generator(self):
        theta = Signal(np.random.default_rng(11).normal(size=16))
        t = second_moment(theta)
        assert t.frobenius() == pytest.approx(np.linalg.norm(t.data), rel=1e-12)

    def test_shift_invariance(self):
        theta = Signal(np.random.default_rng(12).normal(size=9))
        for g in range(9):
            assert np.allclose(second_moment(theta).data,
                               second_moment(shift(theta, g)).data, atol=1e-12)


class TestDeltaM:
    def test_same_orbit_vanishes(self):
        theta = Signal(np.random.default_rng(13).normal(size=7))
        for g in range(7):
            for m in (1, 2, 3):
                t = delta_m(theta, shift(theta, g), m)
                assert np.allclose(t.data, 0.0, atol=1e-12)

    def test_first_moment_formula(self):
        rng = np.random.default_rng(14)
        a, b = Signal(rng.normal(size=8)), Signal(rng.normal(size=8))
        t = delta_m(a, b, 1)
        assert np.allclose(t.data, (a.mean() - b.mean()) * np.ones(8), atol=1e-12)

    def test_centering_decomposition(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a, b = Signal(rng.normal(size=6)), Signal(rng.normal(size=6))
            ac = Signal(a.values - a.mean())
            bc = Signal(b.values - b.mean())
            full = delta_m(a, b, 2).data
            centered = delta_m(ac, bc, 2).data
            extra = (a.mean() ** 2 - b.mean() ** 2) * np.ones((6, 6))
            assert np.allclose(full, centered + extra, atol=1e-10)

    def test_third_moment_large_L(self):
        rng = np.random.default_rng(30)
        theta, phi = Signal(rng.normal(size=256)), Signal(rng.normal(size=256))
        assert delta_m(theta, phi, 3).frobenius() == pytest.approx(
            bispectrum_delta3_norm(theta, phi), rel=1e-10)
        for L in (4, 5, 8, 13):
            theta, phi = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            t = delta_m(theta, phi, 3)
            dense = third_moment_dense(theta) - third_moment_dense(phi)
            assert t.frobenius() == pytest.approx(np.linalg.norm(dense), rel=1e-12)
            assert np.allclose(t.data, dense, rtol=1e-12, atol=1e-12)

    def test_third_moment_brute_force(self):
        rng = np.random.default_rng(16)
        theta, phi = Signal(rng.normal(size=4)), Signal(rng.normal(size=4))
        t = delta_m(theta, phi, 3).data
        acc = np.zeros((4, 4, 4))
        for g in range(4):
            for sgn, sig in ((1, theta), (-1, phi)):
                w = shift(sig, g).values
                acc += sgn * np.einsum("i,j,k->ijk", w, w, w)
        assert np.allclose(t, acc / 4, atol=1e-12)

    def test_bad_order(self):
        v = Signal([1.0, 2.0])
        with pytest.raises(ValueError):
            delta_m(v, v, 4)


class TestExpansion:
    def test_zero_h(self):
        theta = Signal(np.random.default_rng(17).normal(size=8))
        lin, quad = second_moment_difference_expansion(theta, Signal.zeros(8))
        assert np.allclose(lin, 0.0) and np.allclose(quad, 0.0)

    def test_sums_to_direct_difference(self):
        rng = np.random.default_rng(18)
        for L in (5, 8, 16):
            theta = Signal(rng.normal(size=L))
            h = Signal(rng.normal(size=L))
            lin, quad = second_moment_difference_expansion(theta, h)
            direct = delta_m(Signal(theta.values + h.values), theta, 2).data
            assert np.allclose(lin + quad, direct, rtol=1e-10, atol=1e-10)

    def test_quadratic_part_bound(self):
        rng = np.random.default_rng(19)
        for L in (4, 8, 21):
            h = Signal(rng.normal(size=L))
            _, quad = second_moment_difference_expansion(Signal(rng.normal(size=L)), h)
            assert np.linalg.norm(quad) <= L * h.norm() ** 2 + 1e-9


class TestAutocorrelation:
    def test_delta(self):
        theta = Signal.delta(7)
        assert np.allclose(power_spectrum(theta), 1.0)
        a = autocorrelation(theta)
        assert np.allclose(a, Signal.delta(7).values, atol=1e-12)

    def test_zero_lag_is_energy(self):
        theta = Signal(np.random.default_rng(20).normal(size=9))
        assert Signal(autocorrelation(theta)).value_at(0) == pytest.approx(
            theta.norm() ** 2)

    def test_invariant_under_group(self):
        theta = Signal(np.random.default_rng(21).normal(size=8))
        a = autocorrelation(theta)
        for g in range(8):
            assert np.allclose(autocorrelation(shift(theta, g)), a, atol=1e-12)
        assert np.allclose(autocorrelation(reflect(theta)), a, atol=1e-12)

    def test_direct_sum_oracle(self):
        theta = Signal(np.random.default_rng(22).normal(size=11))
        a = Signal(autocorrelation(theta))
        for lag in range(-5, 6):
            direct = sum(theta.value_at(i) * theta.value_at(i + lag)
                         for i in range(-5, 6))
            assert a.value_at(lag) == pytest.approx(direct, rel=1e-10)

    def test_matches_scaled_generator(self):
        theta = Signal(np.random.default_rng(23).normal(size=10))
        gen = second_moment_generator(theta)
        a_nat = Signal(autocorrelation(theta)).natural()
        assert np.allclose(a_nat, 10 * gen, atol=1e-12)

    def test_power_spectrum_is_dft_of_autocorrelation(self):
        theta = Signal(np.random.default_rng(24).normal(size=12))
        lhs = power_spectrum(theta)
        rhs = np.real(dft(Signal(autocorrelation(theta))).values)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestEmpiricalMoments:
    def test_noiseless_balanced(self):
        theta = Signal(np.random.default_rng(25).normal(size=6))
        rows = np.stack([shift(theta, g).values for g in range(6)])
        t = empirical_moments(rows, 2, sigma=0.0)
        assert np.allclose(t.data, second_moment(theta).data, atol=1e-12)

    def test_single_observation(self):
        theta = Signal(np.random.default_rng(26).normal(size=5))
        t = empirical_moments(theta.values[None, :], 2, sigma=0.0)
        assert np.allclose(t.data, np.outer(theta.values, theta.values))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(27)
        L, n, sigma = 8, 100_000, 1.0
        theta = Signal(rng.normal(size=L))
        shifts = rng.integers(L, size=n)
        rows = np.stack([np.roll(theta.values, -g) for g in range(L)])[shifts]
        rows = rows + sigma * rng.normal(size=(n, L))
        t = empirical_moments(rows, 2, sigma=sigma)
        target = second_moment(theta).data
        # crude per-entry SE scale for a product of two noisy coordinates
        se = 5 * (sigma**2 + theta.norm() ** 2 / np.sqrt(L)) / np.sqrt(n)
        assert np.max(np.abs(t.data - target)) < 5 * se

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_moments(np.zeros((0, 4)), 1, 0.0)
