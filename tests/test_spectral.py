import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mralab import mra
from mralab.mra import Dataset, MraConfig, simulate
from mralab.ring import (LengthMismatchError, Signal, reflect, shift, std_indices,
                         std_offset, storage_index)
from mralab.spectral import (delta_m, empirical_moments, power_spectrum,
                             second_moment_difference_expansion)

from oracles import (convolve, dense, dft, group_elements, sample_moment_dense,
                     second_moment_dense, third_moment_dense, toeplitz)


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


def direct_autocorrelation(theta: Signal, lag: int) -> float:
    """A(lag) = sum_i theta(i) theta(i + lag), summed index by index."""
    v = theta.values
    return sum(v[storage_index(theta.L, i)] * v[storage_index(theta.L, i + lag)]
               for i in range(theta.L))


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


def second_moment(theta: Signal):
    """E_G[(G theta)^(x 2)] as the package holds it: Delta_2 against the zero signal."""
    return delta_m(theta, Signal.zeros(theta.L), 2)


class TestDft:
    """The unnormalized, standard-order DFT convention, read through
    `power_spectrum` and the Fourier form of the moments."""

    def test_delta_flat(self):
        assert np.allclose(power_spectrum(Signal.delta(8)), 1.0)

    def test_constant(self):
        p = Signal(power_spectrum(Signal(np.ones(6))))
        assert p.values[storage_index(6, 0)] == pytest.approx(36.0)
        assert np.allclose(p.natural()[1:], 0.0, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for L in (4, 5, 8):
            v = Signal(rng.normal(size=L))
            assert np.allclose(Signal(power_spectrum(v)).natural(),
                               np.abs(direct_dft(v)) ** 2, atol=1e-10)

    def test_conjugate_symmetry(self):
        # B(-a, -b) = conj B(a, b) for a real signal; the empirical order-3 pass relies on it
        v = Signal(np.random.default_rng(1).normal(size=9))
        b = delta_m(v, Signal.zeros(9), 3).fourier
        neg = -np.arange(9) % 9
        assert np.allclose(b[neg][:, neg], np.conj(b), atol=1e-10)

    def test_real_symmetric_gives_real_spectrum(self):
        v = Signal.from_support(9, {0: 1.0, 2: 0.5, -2: 0.5})
        assert np.allclose(np.imag(delta_m(v, Signal.zeros(9), 3).fourier), 0.0, atol=1e-12)

    @given(st.sampled_from([4, 5, 16, 21, 64]), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, L, seed):
        v = Signal(np.random.default_rng(seed).normal(size=L))
        lhs = v.norm() ** 2
        rhs = np.sum(power_spectrum(v)) / L
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConvolve:
    """The test oracles `convolve` and `dft` against direct sums, and the
    power spectrum as the DFT of v * reflect(v)."""

    def test_dft_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        for L in (4, 5, 21):
            v = Signal(rng.normal(size=L))
            assert np.allclose(np.roll(dft(v), -std_offset(L)), direct_dft(v), atol=1e-10)

    def test_identity_element(self):
        v = Signal(np.random.default_rng(3).normal(size=6))
        assert np.allclose(convolve(v, Signal.delta(6)).values, v.values)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(4)
        for L in (4, 5, 16):
            u, v = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            lhs = dft(convolve(u, v))
            rhs = dft(u) * dft(v)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for L in (4, 7):
            u, v = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            assert np.allclose(convolve(u, v).natural(), direct_convolve(u, v))

    def test_self_reflected_spectrum_is_power(self):
        v = Signal(np.random.default_rng(6).normal(size=8))
        lhs = dft(convolve(v, reflect(v)))
        assert np.allclose(lhs, power_spectrum(v), atol=1e-10)

    def test_length_mismatch(self):
        # the package's two-signal functions reject mismatched lengths
        u, v = Signal([1.0, 2.0]), Signal([1.0, 2.0, 3.0])
        for call in (lambda: delta_m(u, v, 2),
                     lambda: second_moment_difference_expansion(u, v.values)):
            with pytest.raises(LengthMismatchError):
                call()


class TestToeplitz:
    """The dense circulant oracles, `toeplitz` and scipy's, and the dense
    form of the expansion they build from its generators."""

    def test_delta_is_identity(self):
        assert np.allclose(toeplitz(Signal.delta(5)), np.eye(5))
        assert np.allclose(scipy.linalg.circulant(Signal.delta(5).natural()), np.eye(5))

    def test_entries(self):
        v = Signal(np.random.default_rng(7).normal(size=6))
        M = scipy.linalg.circulant(v.natural())
        np.testing.assert_array_equal(M, toeplitz(v))
        idx = std_indices(6)
        for a in range(6):
            for b in range(6):
                assert M[a, b] == pytest.approx(v.values[storage_index(6, idx[a] - idx[b])])

    def test_frobenius_identity(self):
        rng = np.random.default_rng(8)
        for L in (4, 5, 16, 21, 64):
            v = Signal(rng.normal(size=L))
            assert np.linalg.norm(scipy.linalg.circulant(v.natural())) == pytest.approx(
                np.sqrt(L) * v.norm(), rel=1e-12)

    @pytest.mark.parametrize("L", [2, 7, 16, 21, 64])
    def test_bit_equal_to_scipy_circulant(self, L):
        rng = np.random.default_rng(L)
        v, theta, h = (Signal(rng.normal(size=L)) for _ in range(3))
        np.testing.assert_array_equal(toeplitz(v), scipy.linalg.circulant(v.natural()))
        # the expansion's docstring form, term by term, through the oracles
        glin, gquad = second_moment_difference_expansion(theta, h.values)
        lin = scipy.linalg.circulant(glin)
        ref = (toeplitz(convolve(theta, reflect(h))) + toeplitz(convolve(reflect(theta), h))) / L
        assert np.allclose(lin, ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(scipy.linalg.circulant(gquad), toeplitz(convolve(h, reflect(h))) / L,
                           rtol=1e-12, atol=1e-12)
        # the adversarial probe reports ||lin||_F as sqrt(L) ||glin||
        assert np.sqrt(L) * np.linalg.norm(glin) == pytest.approx(np.linalg.norm(lin), rel=1e-12)

    def test_trace_inner_product(self):
        rng = np.random.default_rng(9)
        for L in (4, 5, 16, 21, 64):
            v, w = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
            lhs = np.trace(scipy.linalg.circulant(v.natural())
                           @ scipy.linalg.circulant(w.natural()).T)
            assert lhs == pytest.approx(L * np.dot(v.values, w.values), rel=1e-10)


class TestSecondMoment:
    """The order-2 tensor E_G[(G theta)^(x 2)], as delta_m(theta, 0, 2)."""

    def test_constant_signal(self):
        M = dense(second_moment(Signal(np.ones(5))))
        assert np.allclose(M, np.ones((5, 5)))

    def test_delta_signal(self):
        M = dense(second_moment(Signal.delta(6)))
        assert np.allclose(M, np.eye(6) / 6)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(10)
        for L in (4, 5, 8, 21):
            for _ in range(25):
                theta = Signal(rng.normal(size=L))
                M = dense(second_moment(theta))
                B = np.zeros((L, L))
                for g in range(L):
                    w = shift(theta, g).values
                    B += np.outer(w, w)
                B /= L
                assert np.allclose(M, B, rtol=1e-12, atol=1e-12)

    def test_frobenius_from_generator(self):
        theta = Signal(np.random.default_rng(11).normal(size=16))
        t = second_moment(theta)
        assert t.frobenius() == pytest.approx(np.linalg.norm(dense(t)), rel=1e-12)

    def test_shift_invariance(self):
        theta = Signal(np.random.default_rng(12).normal(size=9))
        for g in range(9):
            assert np.allclose(dense(second_moment(theta)),
                               dense(second_moment(shift(theta, g))), atol=1e-12)


class TestDeltaM:
    def test_same_orbit_vanishes(self):
        theta = Signal(np.random.default_rng(13).normal(size=7))
        for g in range(7):
            for m in (1, 2, 3):
                t = delta_m(theta, shift(theta, g), m)
                assert np.allclose(dense(t), 0.0, atol=1e-12)

    def test_first_moment_formula(self):
        rng = np.random.default_rng(14)
        a, b = Signal(rng.normal(size=8)), Signal(rng.normal(size=8))
        t = delta_m(a, b, 1)
        assert np.allclose(dense(t), (a.mean() - b.mean()) * np.ones(8), atol=1e-12)

    def test_centering_decomposition(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a, b = Signal(rng.normal(size=6)), Signal(rng.normal(size=6))
            ac = Signal(a.values - a.mean())
            bc = Signal(b.values - b.mean())
            full = dense(delta_m(a, b, 2))
            centered = dense(delta_m(ac, bc, 2))
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
            ref = third_moment_dense(theta) - third_moment_dense(phi)
            assert t.frobenius() == pytest.approx(np.linalg.norm(ref), rel=1e-12)
            assert np.allclose(dense(t), ref, rtol=1e-12, atol=1e-12)

    def test_third_moment_brute_force(self):
        rng = np.random.default_rng(16)
        theta, phi = Signal(rng.normal(size=4)), Signal(rng.normal(size=4))
        t = dense(delta_m(theta, phi, 3))
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
    """The generators of Delta_2(theta + h, theta), read as dense circulants
    through scipy."""

    def test_zero_h(self):
        theta = Signal(np.random.default_rng(17).normal(size=8))
        lin, quad = second_moment_difference_expansion(theta, np.zeros(8))
        assert np.allclose(scipy.linalg.circulant(lin), 0.0)
        assert np.allclose(scipy.linalg.circulant(quad), 0.0)

    def test_sums_to_direct_difference(self):
        rng = np.random.default_rng(18)
        for L in (5, 8, 16):
            theta = Signal(rng.normal(size=L))
            h = Signal(rng.normal(size=L))
            lin, quad = second_moment_difference_expansion(theta, h.values)
            direct = dense(delta_m(Signal(theta.values + h.values), theta, 2))
            assert np.allclose(scipy.linalg.circulant(lin + quad), direct, rtol=1e-10, atol=1e-10)

    def test_quadratic_part_bound(self):
        rng = np.random.default_rng(19)
        for L in (4, 8, 21):
            h = Signal(rng.normal(size=L))
            _, quad = second_moment_difference_expansion(Signal(rng.normal(size=L)), h.values)
            assert np.linalg.norm(scipy.linalg.circulant(quad)) <= L * h.norm() ** 2 + 1e-9

    @pytest.mark.parametrize("L", [2, 7, 16, 21, 64])
    def test_stack_matches_single_rows(self, L):
        rng = np.random.default_rng(L + 100)
        theta, rows = Signal(rng.normal(size=L)), rng.normal(size=(6, L))
        lin, quad = second_moment_difference_expansion(theta, rows)
        assert lin.shape == quad.shape == (6, L)
        for i, row in enumerate(rows):
            glin, gquad = second_moment_difference_expansion(theta, row)
            np.testing.assert_array_equal(lin[i], glin)
            np.testing.assert_array_equal(quad[i], gquad)

    def test_rejects_bad_shapes_and_signals(self):
        theta = Signal(np.random.default_rng(25).normal(size=6))
        for h in (np.zeros(5), np.zeros(7), np.zeros((3, 5)), np.zeros((2, 3, 6)),
                  np.zeros(()), Signal(np.zeros(6))):
            with pytest.raises(LengthMismatchError):
                second_moment_difference_expansion(theta, h)


class TestAutocorrelation:
    """The power spectrum as the DFT of the periodic autocorrelation
    A(l) = sum_i theta(i) theta(i + l) = L J(l), J the second-moment generator."""

    def test_delta(self):
        theta = Signal.delta(7)
        assert np.allclose(power_spectrum(theta), 1.0)
        a = np.real(np.fft.ifft(Signal(power_spectrum(theta)).natural()))
        assert np.allclose(a, Signal.delta(7).natural(), atol=1e-12)

    def test_zero_lag_is_energy(self):
        # A(0) = ||theta||^2 sits on the diagonal of E_G[(G theta)^(x 2)] as A(0) / L
        theta = Signal(np.random.default_rng(20).normal(size=9))
        assert np.allclose(np.diag(dense(second_moment(theta))), theta.norm() ** 2 / 9)

    def test_invariant_under_group(self):
        theta = Signal(np.random.default_rng(21).normal(size=8))
        p = power_spectrum(theta)
        for g in range(8):
            assert np.allclose(power_spectrum(shift(theta, g)), p, atol=1e-12)
        assert np.allclose(power_spectrum(reflect(theta)), p, atol=1e-12)

    def test_direct_sum_oracle(self):
        theta = Signal(np.random.default_rng(22).normal(size=11))
        p = power_spectrum(theta)
        for k, xi in enumerate(std_indices(11)):
            direct = sum(direct_autocorrelation(theta, lag) * np.exp(-2j * np.pi * xi * lag / 11)
                         for lag in range(-5, 6))
            assert p[k] == pytest.approx(direct, rel=1e-10)

    def test_matches_scaled_generator(self):
        # the quadratic generator of Delta_2(0 + theta, 0) is J = A / L
        theta = Signal(np.random.default_rng(23).normal(size=10))
        _, gen = second_moment_difference_expansion(Signal.zeros(10), theta.values)
        a_nat = [direct_autocorrelation(theta, lag) for lag in range(10)]
        assert np.allclose(a_nat, 10 * gen, atol=1e-12)
        assert np.allclose(scipy.linalg.circulant(gen), dense(second_moment(theta)), atol=1e-12)

    def test_power_spectrum_is_dft_of_autocorrelation(self):
        theta = Signal(np.random.default_rng(24).normal(size=12))
        lhs = power_spectrum(theta)
        # column 0 of the circulant, in standard order, is J = A / L
        rhs = np.real(dft(Signal(12 * dense(second_moment(theta))[:, std_offset(12)])))
        assert np.allclose(lhs, rhs, atol=1e-9)


def _orbit_rows(theta: Signal, dihedral: bool) -> np.ndarray:
    return np.stack([g.apply(theta).values for g in group_elements(theta.L, dihedral)])


def _line_count(L: int) -> np.ndarray:
    """Number of the lines a = 0, b = 0, a + b = 0 (mod L) through each (a, b)."""
    a, b = np.indices((L, L))
    return (a == 0).astype(float) + (b == 0) + ((a + b) % L == 0)


class TestEmpiricalMoments:
    def test_noiseless_balanced(self):
        # every group element once, no noise drawn, sigma > 0 in the config:
        # what is left after the population moment is exactly the bias removed,
        # sigma^2 L x-hat(0) on each line and 3 sigma^2 L x-hat(0) at the origin
        L, sigma = 7, 0.7
        theta = Signal(np.random.default_rng(25).normal(size=L))
        # a Dataset stores its rows as float32: they are the orbit of theta rounded
        theta = Signal(theta.values.astype(np.float32))
        zero, x0 = Signal.zeros(L), np.sum(theta.values)
        b = delta_m(theta, zero, 3).fourier
        bias = -sigma**2 * L * x0 * _line_count(L)
        assert bias[0, 0] == pytest.approx(-3 * sigma**2 * L * x0)
        for dihedral in (False, True):
            data = Dataset(_orbit_rows(theta, dihedral), MraConfig(L, sigma, dihedral))
            assert np.allclose(dense(empirical_moments(data, 1)),
                               dense(delta_m(theta, zero, 1)), atol=1e-12)
            t2 = empirical_moments(data, 2)
            assert np.allclose(t2.fourier - delta_m(theta, zero, 2).fourier, -L * sigma**2,
                               atol=1e-10)
            # a reflection conjugates B, so the dihedral average is Re B
            t3 = empirical_moments(data, 3)
            assert np.allclose(t3.fourier - (b.real if dihedral else b), bias, atol=1e-10)

    def test_single_observation(self):
        # one row y gives the group average of y y^T, less sigma^2 I
        y = Signal(np.random.default_rng(26).normal(size=5))
        data = Dataset(y.values[None, :], MraConfig(5, 0.3))
        t = empirical_moments(data, 2)
        assert np.allclose(dense(t), second_moment_dense(y) - 0.09 * np.eye(5), atol=1e-12)
        t = empirical_moments(data, 3)
        assert np.allclose(dense(t), sample_moment_dense(data.observations, 3, 0.3), atol=1e-12)

    @pytest.mark.parametrize("L", [7, 8])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_matches_dense_oracle(self, L, dihedral):
        rng = np.random.default_rng(50 + L + dihedral)
        cfg = MraConfig(L, 0.8, dihedral)
        data = simulate(Signal(rng.normal(size=L)), cfg, 3000, rng)
        for m in (2, 3):
            t = empirical_moments(data, m)
            ref = sample_moment_dense(data.observations, m, cfg.sigma)
            assert np.linalg.norm(dense(t) - ref) <= 1e-12 * np.linalg.norm(ref)
            assert t.frobenius() == pytest.approx(np.linalg.norm(ref), rel=1e-12)
        t1 = dense(empirical_moments(data, 1))
        assert np.allclose(t1, data.observations.mean(dtype=np.float64) * np.ones(L),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_float32_rows_summed_in_float64(self, dihedral):
        # the rows are float32, with an offset that a float32 sum or a complex64
        # FFT would round well past 1e-12; each block is upcast first
        rng = np.random.default_rng(29)
        cfg = MraConfig(8, 0.5, dihedral)
        data = simulate(Signal(rng.normal(size=8) + 100.0), cfg, 5000, rng)
        assert data.observations.dtype == np.float32
        y = data.observations.astype(np.float64)
        for m in (1, 2, 3):
            ref = (y.mean() * np.ones(8) if m == 1
                   else sample_moment_dense(y, m, cfg.sigma))
            assert np.linalg.norm(dense(empirical_moments(data, m)) - ref) <= (
                1e-12 * np.linalg.norm(ref))

    def test_streaming_matches_materialised(self, monkeypatch):
        # the mapped draw against the in-memory draw of the same seed, over
        # blocks of 700
        monkeypatch.setattr(mra, "TILE_BYTES", 700 * 72 * 9)
        theta, cfg = Signal(np.random.default_rng(28).normal(size=9)), MraConfig(9, 1.5, True)
        memory = simulate(theta, cfg, 5000, np.random.default_rng(3))
        monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 0)
        spilled = simulate(theta, cfg, 5000, np.random.default_rng(3))
        assert isinstance(spilled.observations.base, np.memmap)
        for m in (1, 2, 3):
            a, b = dense(empirical_moments(spilled, m)), dense(empirical_moments(memory, m))
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_moments_do_not_depend_on_the_tile(self, monkeypatch):
        # 5000 rows of L = 9 in 4 tiles of 72 L bytes a row against one tile:
        # only the float64 sums change order; seen here at most 4e-15 relative
        theta, cfg = Signal(np.random.default_rng(29).normal(size=9)), MraConfig(9, 1.5, True)
        data = simulate(theta, cfg, 5000, np.random.default_rng(4))
        assert len(list(data.blocks(72 * 9))) == 4
        tiled = [dense(empirical_moments(data, m)) for m in (1, 2, 3)]
        monkeypatch.setattr(mra, "TILE_BYTES", 72 * 9 * 5000)
        for m, a in zip((1, 2, 3), tiled):
            b = dense(empirical_moments(data, m))
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(27)
        L, n, sigma = 8, 100_000, 1.0
        theta = Signal(rng.normal(size=L))
        data = simulate(theta, MraConfig(L, sigma), n, rng)
        t = empirical_moments(data, 2)
        # crude per-entry SE scale for a product of two noisy coordinates
        se = 5 * (sigma**2 + theta.norm() ** 2 / np.sqrt(L)) / np.sqrt(n)
        assert np.max(np.abs(dense(t) - second_moment_dense(theta))) < 5 * se
        # order 3 per bispectrum entry: SE from the rows' mean |y(a) y(b) conj(y(a+b))|^2;
        # the bias left on the lines by a missing correction would be over 30 SE here
        a, b = np.indices((L, L))
        f = np.fft.fft(data.observations, axis=1)
        msq = sum(np.sum(np.abs(fb[:, a] * fb[:, b] * np.conj(fb[:, (a + b) % L])) ** 2, axis=0)
                  for fb in np.array_split(f, 20)) / n
        err = np.abs(empirical_moments(data, 3).fourier - delta_m(theta, Signal.zeros(L), 3).fourier)
        assert np.all(err < 5 * np.sqrt(msq / n))

    def test_empty_rejected(self):
        data = Dataset(np.zeros((0, 4)), MraConfig(4, 1.0))
        for m in (1, 2, 3):
            with pytest.raises(ValueError):
                empirical_moments(data, m)

    def test_bad_order(self):
        data = Dataset(np.ones((3, 4)), MraConfig(4, 1.0))
        for m in (0, 4):
            with pytest.raises(ValueError):
                empirical_moments(data, m)
