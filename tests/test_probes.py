import itertools
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from mralab import mra, probes
from mralab.gensig import (DiluteClassSpec, gen_collision_free,
                           gen_symm_bernoulli_gaussian, gen_symm_interval)
from mralab.probes import (FrequencySet, LambdaConstructionError,
                           _sparse_picks, adversarial_direction, curvature_terms,
                           dilute_lower_bound_check, lambda_construct,
                           moderate_curvature_check, moment_sandwich_probe,
                           spectral_floor, support_restricted_min_ratio, uup_check,
                           uup_sample)
from mralab.mra import TILE_BYTES, kl_monte_carlo, tile_rows
from mralab.ring import Signal, align, align_spectra, reflect, shift, std_indices, std_offset
from mralab.spectral import delta_m, second_moment_difference_expansion
from oracles import cosine_functional_all, group_elements

#: the good-set constant C, fitted on calibration runs (seed 20240801) and frozen
GOODSET_C = 1.0


@dataclass(frozen=True)
class GoodSetParams:
    """Threshold exponent kappa, negative-moment order eta, dispersion zeta."""

    kappa: float
    eta: float
    zeta: float = 1.0

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("need 0 < eta < 1")
        if self.kappa <= 0 or self.zeta <= 0:
            raise ValueError("parameters must be positive")


def good_set_report(f: Signal, params: GoodSetParams) -> dict:
    """High-magnitude frequency set {xi : |f-hat(xi)| >= |support|^-kappa}.

    Reports its size fraction and the negative-moment size floor computed
    from the cosine functional of the support.
    """
    sup = f.support
    if not sup:
        raise ValueError("empty support")
    L = f.L
    xi_size = len(sup)
    threshold = xi_size ** (-params.kappa)
    mod = Signal.from_natural(np.abs(np.fft.fft(f.natural())))
    good = frozenset(std_indices(L)[mod.values >= threshold].tolist())
    v_min = float(cosine_functional_all(sup, L).min())
    frak_a = (GOODSET_C / (1 - params.eta) * params.zeta ** (-params.eta)
              * max(v_min, 1e-300) ** (-params.eta / 2))
    floor = 1 - frak_a * xi_size ** (-params.kappa * params.eta / 2)
    frac = len(good) / L
    return {
        "good_set": good,
        "threshold": float(threshold),
        "fraction": float(frac),
        "min_cosine": v_min,
        "frak_a": float(frak_a),
        "size_floor": float(floor),
        "meets_floor": bool(frac >= floor),
    }


def loop_ratios(theta0: Signal, rows: np.ndarray, dihedral: bool = False) -> np.ndarray:
    """Per-row ||Delta_2(theta0 + h, theta0)||_F from a dense circulant, over
    the orbit distance found by trying every group element."""
    def generator(x):  # natural-order circulant generator of E_G[(G x)^(x 2)]
        return np.real(np.fft.ifft(np.abs(np.fft.fft(x.natural())) ** 2)) / x.L

    out = []
    for h in rows:
        theta = Signal(theta0.values + h)
        gen = generator(theta) - generator(theta0)
        r = min(np.linalg.norm(theta.values - g.apply(theta0).values)
                for g in group_elements(theta0.L, dihedral))
        out.append(np.linalg.norm(scipy.linalg.circulant(gen)) / r)
    return np.array(out)


def dense_terms(theta0: Signal, rows: np.ndarray):
    """`curvature_terms` (Delta_2 norm, rho) of dense rows: support all of Z_L."""
    return curvature_terms(theta0, np.arange(theta0.L), rows)[:2]


class TestCurvatureTerms:
    @pytest.mark.parametrize("L", [16, 17])
    @pytest.mark.parametrize("dihedral", [False])
    def test_matches_per_trial_loop(self, L, dihedral):
        rng = np.random.default_rng(40 + L)
        theta0 = Signal(rng.normal(size=L))
        rows = 1e-3 * rng.normal(size=(40, L))
        # rows that move theta0 near another point of its orbit, so the
        # aligning element is neither the identity nor the same for all rows
        for t in range(0, 40, 2):
            g = shift(reflect(theta0) if t % 4 else theta0, t)
            rows[t] += g.values - theta0.values
        d2, r = dense_terms(theta0, rows)
        assert np.allclose(d2 / r, loop_ratios(theta0, rows, dihedral), rtol=1e-10, atol=0)

    def test_row_alone_equals_row_in_tile(self):
        # a row's score does not depend on the tile around it, bit for bit
        rng = np.random.default_rng(44)
        theta0 = Signal(rng.normal(size=257))
        rows = 0.1 * rng.normal(size=(1500, 257))
        d2, r = dense_terms(theta0, rows)
        for t in range(1500):
            d2_t, r_t = dense_terms(theta0, rows[t:t + 1])
            assert d2_t[0] == d2[t] and r_t[0] == r[t], t

    def test_distances_equal_align_rows(self):
        # curvature_terms hands its rfft to align_spectra; each distance is
        # the one `align` finds for its row alone
        rng = np.random.default_rng(48)
        theta0 = Signal(rng.normal(size=101))
        rows = 1e-3 * rng.normal(size=(300, 101))
        want = [align(Signal(theta0.values + h), theta0)[1] for h in rows]
        np.testing.assert_allclose(dense_terms(theta0, rows)[1], want, rtol=1e-14, atol=0)

    @staticmethod
    def check_dilute_draws(monkeypatch, far):
        """dilute-lb against per-trial draws and `loop_ratios`; far puts ||h||
        at twice the identity radius, so that every row is built densely for
        the orbit search, and most (79 of 200) align away from the identity."""
        spec = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(41))
        h_norm = 2 * TestIdentityCertificate.radius(theta0) if far else 1e-3
        rng = np.random.default_rng(42)
        idx = [(i + std_offset(101)) % 101 for i in sorted(theta0.support)]
        rows = np.zeros((200, 101))
        for t in range(200):
            h = rng.normal(size=8)
            rows[t, idx] = h * (h_norm / np.linalg.norm(h))
        ratios = loop_ratios(theta0, rows) / np.sqrt(8 / 101)
        # one tile, then 29 tiles of 7 rows ending in a partial one
        for budget in (TILE_BYTES, 8 * 7 * (101 // 2 + 1)):
            monkeypatch.setattr(mra, "TILE_BYTES", budget)
            rep = dilute_lower_bound_check(theta0, spec, 200, np.random.default_rng(42),
                                           h_norm)
            assert rep["min_ratio"] == pytest.approx(ratios.min(), rel=1e-10)
            assert rep["median_ratio"] == pytest.approx(np.median(ratios), rel=1e-10)

    def test_dilute_check_matches_per_trial_draws(self, monkeypatch):
        self.check_dilute_draws(monkeypatch, far=False)

    def test_dilute_far_rows_match_per_trial_draws(self, monkeypatch):
        self.check_dilute_draws(monkeypatch, far=True)

    @staticmethod
    def check_moderate_draws(monkeypatch, far):
        """moderate-lb against per-trial draws, `loop_ratios` and a dense fft;
        far as in `check_dilute_draws` (40 of 100 rows align away)."""
        rng = np.random.default_rng(21)
        theta0 = gen_symm_interval(128, 6, 1.0, rng)
        lam = lambda_construct(theta0, 13, 64, 50, rng)
        h_norm = 2 * TestIdentityCertificate.radius(theta0) if far else 1e-3
        rng = np.random.default_rng(43)
        rows = []
        for _ in range(100):
            entries = {}
            for i in sorted(i for i in theta0.support if i >= 0):
                entries[i] = entries[-i] = rng.normal()
            h = Signal.from_support(128, entries).values
            rows.append(h * (h_norm / np.linalg.norm(h)))
        th = np.fft.fft(theta0.natural())[lam.natural_indices()]
        m_set = np.abs(np.fft.fft(theta0.natural()))[lam.natural_indices()].min()
        ratios = loop_ratios(theta0, np.array(rows)) * np.sqrt(128) / m_set
        chain = [np.sum(np.abs(th * np.fft.fft(Signal(h).natural())[lam.natural_indices()]) ** 2)
                 / 128 / (m_set**2 * np.sum(h**2)) for h in rows]
        # one tile, then 34 tiles of 3 rows ending in a partial one
        for budget in (TILE_BYTES, 8 * 3 * (128 // 2 + 1)):
            monkeypatch.setattr(mra, "TILE_BYTES", budget)
            rep = moderate_curvature_check(theta0, lam, 100, h_norm, np.random.default_rng(43))
            assert rep["spectral_floor"] == pytest.approx(m_set, rel=1e-12)
            assert rep["min_ratio"] == pytest.approx(ratios.min(), rel=1e-10)
            assert rep["median_ratio"] == pytest.approx(np.median(ratios), rel=1e-10)
            assert rep["chain_min"] == pytest.approx(min(chain), rel=1e-10)

    def test_moderate_check_matches_per_trial_draws(self, monkeypatch):
        self.check_moderate_draws(monkeypatch, far=False)

    def test_moderate_far_rows_match_per_trial_draws(self, monkeypatch):
        self.check_moderate_draws(monkeypatch, far=True)


def brute_force_rho(theta0: Signal, rows: np.ndarray) -> np.ndarray:
    """min over all L rotations g of ||theta0 + h - R_g theta0||, per row h."""
    orbit = np.array([shift(theta0, g).values for g in range(theta0.L)])
    thetas = theta0.values + rows
    return np.linalg.norm(thetas[:, None, :] - orbit[None], axis=2).min(axis=1)


class TestIdentityCertificate:
    """`curvature_terms` skips the orbit search for rows within half of
    theta0's rotation gap; every row's rho still matches all L rotations."""

    @staticmethod
    def radius(theta0):
        return probes._identity_radius(np.abs(np.fft.rfft(theta0.values)) ** 2, theta0.L)

    @staticmethod
    def searched(theta0, rows):
        """rho of each row through the orbit search alone."""
        thetas = theta0.values + rows
        return align_spectra(thetas, np.fft.rfft(thetas), theta0)[2]

    def check(self, theta0, rows, certified):
        d2, r = dense_terms(theta0, rows)
        two_h = 2 * np.linalg.norm(theta0.values + rows - theta0.values, axis=1)
        assert np.array_equal(two_h < self.radius(theta0), certified)
        np.testing.assert_allclose(r, brute_force_rho(theta0, rows), rtol=1e-12, atol=1e-15)
        # bit for bit what the search alone gives
        assert np.array_equal(r, self.searched(theta0, rows))
        return r

    def test_radius_below_rotation_gap(self):
        rng = np.random.default_rng(60)
        for L in (16, 17, 101):
            theta0 = Signal(rng.normal(size=L))
            gap = min(np.linalg.norm(theta0.values - shift(theta0, g).values)
                      for g in range(1, L))
            assert gap * (1 - 1e-9) <= self.radius(theta0) <= gap

    def test_every_row_certified(self):
        rng = np.random.default_rng(61)
        theta0 = Signal(rng.normal(size=64))
        rows = 1e-3 * rng.normal(size=(200, 64))
        self.check(theta0, rows, np.ones(200, dtype=bool))

    def test_no_row_certified(self):
        rng = np.random.default_rng(62)
        # a period of 8: R_8 theta0 = theta0, so the gap is 0
        periodic = Signal(np.tile(rng.normal(size=8), 4))
        assert self.radius(periodic) == 0.0
        self.check(periodic, 1e-3 * rng.normal(size=(50, 32)), np.zeros(50, dtype=bool))
        # rows as long as the radius, so 2 ||h|| is about twice the gap
        theta0 = Signal(rng.normal(size=33))
        rows = rng.normal(size=(50, 33))
        rows *= self.radius(theta0) / np.linalg.norm(rows, axis=1, keepdims=True)
        self.check(theta0, rows, np.zeros(50, dtype=bool))

    def test_mixed_tile(self):
        rng = np.random.default_rng(63)
        theta0 = Signal(rng.normal(size=40))
        rows = 1e-3 * rng.normal(size=(60, 40))
        # every third row moves theta0 next to another point of its orbit
        for t in range(0, 60, 3):
            rows[t] += shift(theta0, 1 + t % 39).values - theta0.values
        certified = np.arange(60) % 3 != 0
        r = self.check(theta0, rows, certified)
        assert np.all(r[~certified] < 1e-2)

    def test_rows_at_the_margin(self):
        # h toward theta0's nearest rotation, with 2 ||h|| just below and just
        # above the radius: theta0 + h is almost as near that rotation
        rng = np.random.default_rng(64)
        theta0 = Signal(rng.normal(size=29))
        g = min(range(1, 29), key=lambda g: np.linalg.norm(theta0.values - shift(theta0, g).values))
        u = shift(theta0, g).values - theta0.values
        u /= np.linalg.norm(u)
        scales = self.radius(theta0) / 2 * np.array([1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6])
        rows = scales[:, None] * u
        self.check(theta0, rows, np.array([True, True, False, False]))


def longdouble_delta2_norms(theta0: Signal, rows: np.ndarray) -> np.ndarray:
    """||Delta_2(theta0 + h, theta0)||_F per dense row h, from a direct DFT over
    all L frequencies in long double: sqrt(sum_xi (|F(theta0 + h)|^2 -
    |F theta0|^2)^2) / L."""
    ld, L = np.longdouble, theta0.L
    n = np.arange(L)
    angle = 8 * np.arctan(ld(1)) * (np.outer(n, n) % L).astype(ld) / L
    cos, sin = np.cos(angle), np.sin(angle)

    def power(x):
        return (x @ cos) ** 2 + (x @ sin) ** 2

    t0 = theta0.values.astype(ld)
    d = power(t0 + rows.astype(ld)) - power(t0)
    return (np.sqrt(np.sum(d * d, axis=1)) / L).astype(float)


def support_rows(L: int, pos: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Dense rows equal to vals at storage positions pos and 0 elsewhere."""
    rows = np.zeros((len(vals), L))
    rows[:, pos] = vals
    return rows


class TestSupportKernel:
    """`curvature_terms` on rows given by their values at a few positions."""

    @staticmethod
    def draw(L, s, trials, h_norm, seed):
        rng = np.random.default_rng(seed)
        pos = np.sort(rng.choice(L, size=s, replace=False))
        vals = rng.normal(size=(trials, s))
        return pos, vals * (h_norm / np.linalg.norm(vals, axis=1, keepdims=True))

    @pytest.mark.parametrize("L, s", [(16, 3), (17, 17), (101, 8), (257, 11)])
    def test_spectra_match_dense_rfft(self, L, s):
        pos, vals = self.draw(L, s, 50, 1.0, 70 + L)
        rows = support_rows(L, pos, vals)
        want = np.fft.rfft(rows)
        got = (vals @ probes._support_table(pos, L)).view(complex)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        # the mass on a set of bins comes from the same spectra
        theta0 = Signal(np.random.default_rng(L).normal(size=L))
        bins = np.array([0, 1, 1, L // 2, L // 3])
        th = np.fft.rfft(theta0.values)[bins]
        mass = curvature_terms(theta0, pos, vals, bins)[2]
        np.testing.assert_allclose(mass, np.sum(np.abs(th * want[:, bins]) ** 2, axis=1),
                                   rtol=1e-12, atol=0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than float64 here")
    def test_delta2_norms_against_long_double(self):
        # the Delta_2 spectrum 2 Re(conj(theta0-hat) h-hat) + |h-hat|^2 does not
        # cancel; |theta0-hat + h-hat|^2 - |theta0-hat|^2 in float64 erred by
        # 1.2e-12 on these rows
        spec = DiluteClassSpec(L=257, s=11, m=1.0, M=1.5, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(257))
        pos = np.flatnonzero(theta0.values)
        _, vals = self.draw(257, 11, 300, 1e-3, 71)
        d2, _, _ = curvature_terms(theta0, pos, vals)
        want = longdouble_delta2_norms(theta0, support_rows(257, pos, vals))
        assert np.max(np.abs(d2 / want - 1)) <= 1e-14

    def test_row_alone_equals_row_in_tile(self, monkeypatch):
        # one-trial tiles against the default tiles, bit for bit, with rows
        # inside and outside the identity radius
        rng = np.random.default_rng(72)
        theta0 = Signal(rng.normal(size=257))
        pos, vals = self.draw(257, 11, 1500, 1e-3, 73)
        vals[::7] *= 2e4  # ||h|| = 20, near theta0's identity radius 20.8
        far = 2 * np.linalg.norm(vals, axis=1) >= TestIdentityCertificate.radius(theta0)
        assert far.sum() == len(vals[::7])
        bins = np.array([2, 5, 128])
        want = curvature_terms(theta0, pos, vals, bins)
        monkeypatch.setattr(mra, "TILE_BYTES", 1)
        got = curvature_terms(theta0, pos, vals, bins)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_sparse_rho_matches_search(self):
        # a certified row sums its squares over its s entries, the search over
        # all L, so they agree to rounding: within 4 ulp (rtol 8.9e-16)
        spec = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(74))
        pos = np.flatnonzero(theta0.values)
        _, vals = self.draw(101, 8, 400, 1e-2, 75)
        _, r, _ = curvature_terms(theta0, pos, vals)
        thetas = theta0.values + support_rows(101, pos, vals)
        searched = align_spectra(thetas, np.fft.rfft(thetas), theta0)[2]
        np.testing.assert_allclose(r, searched, rtol=4 * np.finfo(float).eps, atol=0)
        np.testing.assert_allclose(r, brute_force_rho(theta0, thetas - theta0.values),
                                   rtol=1e-12, atol=0)


class TestProbeSizes:
    """Both curvature probes name a bad trial count or h_norm before drawing."""

    SPEC = DiluteClassSpec(L=101, s=8, m=1.0, M=1.05, eps=1.0)

    @pytest.mark.parametrize("trials, h_norm, msg", [
        (0, 1e-3, "need trials >= 1, got 0"), (-2, 1e-3, "need trials >= 1, got -2"),
        (10, 0.0, "h_norm must be positive and finite, got 0.0"),
        (10, -1e-3, "h_norm must be positive and finite, got -0.001"),
        (10, float("nan"), "got nan"), (10, float("inf"), "got inf")])
    def test_rejected(self, trials, h_norm, msg):
        theta0 = gen_collision_free(self.SPEC, np.random.default_rng(0))
        with pytest.raises(ValueError, match=msg):
            dilute_lower_bound_check(theta0, self.SPEC, trials, np.random.default_rng(1),
                                     h_norm=h_norm)
        sym = gen_symm_interval(32, 3, 1.0, np.random.default_rng(2))
        lam = FrequencySet(L=32, frequencies=frozenset(range(-3, 4)))
        with pytest.raises(ValueError, match=msg):
            moderate_curvature_check(sym, lam, trials, h_norm, np.random.default_rng(3))


class TestDiluteLowerBound:
    SPEC = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)

    def test_passes_on_class_member(self):
        rng = np.random.default_rng(0)
        theta0 = gen_collision_free(self.SPEC, rng)
        rep = dilute_lower_bound_check(theta0, self.SPEC, 300, rng)
        assert rep["passes"]
        assert rep["min_ratio"] >= rep["bound"] * 0.95

    def test_single_coordinate_direction(self):
        rng = np.random.default_rng(1)
        theta0 = gen_collision_free(self.SPEC, rng)
        off = std_offset(101)
        i = sorted(theta0.support)[0]
        h = np.zeros(101)
        h[(i + off) % 101] = 1e-3
        theta = Signal(theta0.values + h)
        ratio = (delta_m(theta, theta0, 2).frobenius()
                 / (np.sqrt(self.SPEC.s / 101) * 1e-3))
        assert ratio >= self.SPEC.curvature_constant() * 0.95

    def test_exact_minimum_respects_bound(self):
        rng = np.random.default_rng(2)
        theta0 = gen_collision_free(self.SPEC, rng)
        exact = support_restricted_min_ratio(theta0)
        assert exact >= self.SPEC.curvature_constant() * 0.95

    def test_exact_minimum_matches_dense_svd(self):
        rng = np.random.default_rng(44)
        for theta0 in (gen_collision_free(self.SPEC, rng),
                       Signal(rng.normal(size=20) * (rng.random(20) < 0.4))):
            idx = [(i + std_offset(theta0.L)) % theta0.L for i in sorted(theta0.support)]
            cols = []
            for j in idx:
                e = np.zeros(theta0.L)
                e[j] = 1.0
                lin, _ = second_moment_difference_expansion(theta0, e)
                cols.append(scipy.linalg.circulant(lin).ravel())
            smin = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)[-1]
            s = len(idx)
            assert support_restricted_min_ratio(theta0) == pytest.approx(
                smin / np.sqrt(s / theta0.L), rel=1e-10)

    def test_colliding_support_violates_bound(self):
        # an interval support repeats every short difference; the curvature
        # floor collapses along a direction in its span
        v = np.zeros(101)
        v[:5] = 1.0
        exact = support_restricted_min_ratio(Signal.from_natural(v))
        spec = DiluteClassSpec(L=101, s=5, m=1.0, M=1.0, eps=1.0)
        assert exact < spec.curvature_constant() * 0.5

    def test_class_check_enforced(self):
        rng = np.random.default_rng(3)
        bad = Signal.from_natural(np.concatenate([np.ones(5), np.zeros(96)]))
        with pytest.raises(ValueError):
            dilute_lower_bound_check(bad, self.SPEC, 10, rng)


class TestAdversarialDirection:
    def test_mean_zero(self):
        rng = np.random.default_rng(4)
        for L in (8, 17, 64):
            theta0 = Signal(np.abs(rng.normal(size=L)) + 0.5)
            h = adversarial_direction(theta0, 1e-3)
            assert abs(h.mean()) < 1e-15

    def test_linear_term_cancels(self):
        rng = np.random.default_rng(5)
        for L in (8, 17, 64):
            for _ in range(10):
                theta0 = Signal(rng.normal(size=L))
                h = adversarial_direction(theta0, 1e-3)
                lin, _ = second_moment_difference_expansion(theta0, h.values)
                scale = np.sqrt(L) * theta0.norm() * h.norm()
                assert np.linalg.norm(scipy.linalg.circulant(lin)) <= 1e-8 * scale

    def test_quadratic_bound(self):
        rng = np.random.default_rng(6)
        for L in (8, 17):
            theta0 = Signal(rng.normal(size=L))
            h = adversarial_direction(theta0, 1e-2)
            theta = Signal(theta0.values + h.values)
            assert delta_m(theta, theta0, 2).frobenius() <= L * h.norm() ** 2 + 1e-12

    def test_even_L_half_frequency_zeroed(self):
        theta0 = Signal(np.random.default_rng(7).normal(size=8))
        h = adversarial_direction(theta0, 1e-2)
        assert abs(np.fft.fft(h.natural())[4]) < 1e-12

    def test_dead_frequency_skipped_with_warning(self):
        # flat spectrum except a dead frequency at xi = +-2
        L = 8
        spec = np.ones(L, dtype=complex)
        spec[2] = spec[L - 2] = 0.0
        theta0 = Signal.from_natural(np.fft.ifft(spec).real * L)
        with pytest.warns(UserWarning):
            h = adversarial_direction(theta0, 1e-3)
        assert abs(np.fft.fft(h.natural())[2]) < 1e-12

    def test_kl_sigma6_band(self):
        theta0 = Signal(np.abs(np.random.default_rng(8).normal(size=8)) + 0.5)
        h = adversarial_direction(theta0, 1.0)
        h = Signal(h.values * (0.1 / h.norm()))
        theta1 = Signal(theta0.values + h.values)
        from mralab.mra import kl_monte_carlo
        grid = (2.0, 4.0, 8.0)
        rows = kl_monte_carlo(theta0, theta1, grid, 200_000, np.random.default_rng(9))
        vals = [kl * sigma**6 for sigma, (kl, _) in zip(grid, rows)]
        assert max(vals) / min(vals) < 4.0


class TestUup:
    def test_full_set_ratio_one(self):
        L = 64
        off = std_offset(L)
        lam = FrequencySet(L=L, frequencies=frozenset(range(-off, L - off)))
        c1, c2 = uup_check(lam, 5, 200, np.random.default_rng(10))
        assert c1 == pytest.approx(1.0, rel=1e-12)
        assert c2 == pytest.approx(1.0, rel=1e-12)

    def test_one_sparse_flat(self):
        lam = uup_sample(64, 20, np.random.default_rng(11))
        c1, c2 = uup_check(lam, 1, 100, np.random.default_rng(12))
        assert c1 == pytest.approx(1.0, rel=1e-10)
        assert c2 == pytest.approx(1.0, rel=1e-10)

    @staticmethod
    def floyd_sparse_picks(L, s, trials, rng):
        """(positions, values) of unit-norm s-sparse rows: the same
        rng.integers draws as `_sparse_picks`, each row then built by Floyd's
        algorithm one pick at a time with a set."""
        draws = [rng.integers(j + 1, size=trials) for j in range(L - s, L)]
        picks = np.empty((trials, s), dtype=int)
        for i in range(trials):
            chosen = set()
            for k, j in enumerate(range(L - s, L)):
                t = int(draws[k][i])
                picks[i, k] = j if t in chosen else t
                chosen.add(int(picks[i, k]))
        vals = rng.normal(size=(trials, s))
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        return picks, vals

    def test_sparse_rows_match_floyd_reference(self):
        # at s = 200 of 512, about 45 of a row's picks take j: t was already picked
        for L, s, trials in ((64, 5, 100), (65, 5, 100), (512, 200, 100),
                             (64, 5, 4099), (512, 200, 515)):
            picks, vals = _sparse_picks(L, s, trials, np.random.default_rng(47))
            ref_picks, ref_vals = self.floyd_sparse_picks(L, s, trials,
                                                          np.random.default_rng(47))
            assert np.array_equal(picks, ref_picks)
            assert np.array_equal(vals, ref_vals)

    @pytest.mark.parametrize("L, s", [(64, 5), (65, 13), (16, 16), (16, 1)])
    def test_sparse_picks_distribution(self, L, s):
        trials = 20_000
        picks, vals = _sparse_picks(L, s, trials, np.random.default_rng(48))
        rows = np.sort(picks, axis=1)
        assert rows[:, 0].min() >= 0 and rows[:, -1].max() < L
        assert np.all(np.diff(rows, axis=1) > 0)
        assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, rtol=1e-14)
        # each position is in a uniform s-subset with probability s / L
        p = s / L
        freq = np.bincount(picks.ravel(), minlength=L) / trials
        assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / trials))
        if s == L:
            assert np.array_equal(rows, np.broadcast_to(np.arange(L), rows.shape))

    def test_sparse_picks_uniform_subsets(self):
        # all C(6, 3) = 20 supports, each with probability 1/20
        L, s, trials = 6, 3, 40_000
        picks, _ = _sparse_picks(L, s, trials, np.random.default_rng(49))
        codes = np.sum(1 << np.sort(picks, axis=1), axis=1)
        counts = np.bincount(codes, minlength=1 << L)
        subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(L), s)]
        assert counts.sum() == counts[subsets].sum() == trials
        p = 1 / len(subsets)
        assert np.all(np.abs(counts[subsets] / trials - p) <= 4 * np.sqrt(p * (1 - p) / trials))

    @pytest.mark.parametrize("L, s", [(64, 5), (65, 5), (128, 13), (512, 8), (65, 1),
                                      (16, 16)])
    def test_matches_full_fft_formula(self, L, s):
        lam = uup_sample(L, L / 2, np.random.default_rng(45))
        # two full tiles of tile_rows(8 s) trials and a partial one
        trials = 2 * tile_rows(8 * s) + 3
        c1, c2 = uup_check(lam, s, trials, np.random.default_rng(46))
        picks, vals = self.floyd_sparse_picks(L, s, trials, np.random.default_rng(46))
        ratios = []
        for lo in range(0, trials, 4096):
            rows = np.zeros((len(picks[lo:lo + 4096]), L))
            np.put_along_axis(rows, picks[lo:lo + 4096], vals[lo:lo + 4096], axis=1)
            spec2 = np.abs(np.fft.fft(rows, axis=1)) ** 2
            ratios.append(spec2[:, lam.natural_indices()].mean(axis=1) / spec2.mean(axis=1))
        ratios = np.concatenate(ratios)
        assert c1 == pytest.approx(ratios.min(), rel=1e-12)
        assert c2 == pytest.approx(ratios.max(), rel=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 8, 13])
    def test_trial_scores_the_same_in_any_tile(self, s, monkeypatch):
        # one trial per tile against the default tiles, bit for bit
        lam = uup_sample(128, 64, np.random.default_rng(50))
        want = uup_check(lam, s, 3001, np.random.default_rng(51))
        monkeypatch.setattr(mra, "TILE_BYTES", 1)
        assert uup_check(lam, s, 3001, np.random.default_rng(51)) == want

    @pytest.mark.parametrize("s, trials", [(0, 10), (17, 10), (2, 0), (2, -1)])
    def test_bad_sizes_rejected(self, s, trials):
        lam = uup_sample(16, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="s=%d, L=16, trials=%d" % (s, trials)):
            uup_check(lam, s, trials, np.random.default_rng(0))

    def test_sample_size_mean(self):
        rng = np.random.default_rng(13)
        L, a = 256, 64
        sizes = [uup_sample(L, a, rng).size() for _ in range(2000)]
        se = np.sqrt(a * (1 - a / L) / len(sizes))
        assert abs(np.mean(sizes) - a) < 4 * se

    def test_a_validation(self):
        with pytest.raises(ValueError):
            uup_sample(16, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            uup_sample(16, 17, np.random.default_rng(0))

    def test_empty_set_has_no_ratio(self):
        lam = FrequencySet(L=16, frequencies=frozenset())
        rng = np.random.default_rng(0)
        assert uup_check(lam, 2, 10, rng) == (None, None)
        # nothing is drawn for an empty set
        assert rng.random() == np.random.default_rng(0).random()
        # the sizes are checked first, so an empty set does not hide a bad one
        for s, trials in ((0, 10), (17, 10), (2, 0)):
            with pytest.raises(ValueError, match="need 1 <= s <= L and trials >= 1"):
                uup_check(lam, s, trials, rng)

    def test_half_density_constants(self):
        rng = np.random.default_rng(14)
        lam = uup_sample(512, 256, rng)
        c1, c2 = uup_check(lam, 8, 2000, rng)
        assert c1 >= 0.05
        assert c2 <= 20.0


class TestGoodSet:
    def test_flat_spike(self):
        f = Signal.delta(32, 0, 1.5)
        rep = good_set_report(f, GoodSetParams(kappa=1.0, eta=0.5))
        assert rep["fraction"] == 1.0

    def test_threshold_monotone(self):
        f = gen_symm_bernoulli_gaussian(128, 16, 1.0, np.random.default_rng(15))
        sizes = []
        for kappa in (0.25, 0.5, 1.0):
            rep = good_set_report(f, GoodSetParams(kappa=kappa, eta=0.5))
            sizes.append(len(rep["good_set"]))
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_bernoulli_gaussian_mass(self):
        rng = np.random.default_rng(16)
        hits = 0
        draws = 0
        while draws < 100:
            f = gen_symm_bernoulli_gaussian(1024, 64, 1.0, rng)
            if not f.support:
                continue
            draws += 1
            rep = good_set_report(f, GoodSetParams(kappa=1.0, eta=0.75))
            hits += rep["fraction"] >= 0.9
        assert hits >= 90

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            good_set_report(Signal.zeros(8), GoodSetParams(kappa=1.0, eta=0.5))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            GoodSetParams(kappa=1.0, eta=1.5)


class TestLambdaConstruct:
    def test_flat_spectrum_first_try(self):
        theta = Signal.delta(64, 0, 2.0)
        rng = np.random.default_rng(17)
        lam = lambda_construct(theta, 3, 48, 10, rng)
        assert lam.rounds == 1

    def test_dead_frequency_excluded(self):
        L = 16
        spec = np.ones(L, dtype=complex)
        spec[3] = spec[L - 3] = 0.0  # theta-hat vanishes at xi = +-3
        theta = Signal.from_natural(np.fft.ifft(spec).real * L)
        rng = np.random.default_rng(18)
        lam = lambda_construct(theta, 3, 8, 200, rng)
        assert 3 not in lam.frequencies and -3 not in lam.frequencies

    def test_budget_error_carries_best(self):
        theta = Signal.delta(32, 0, 1e-9)  # spectrum far below any floor
        rng = np.random.default_rng(19)
        with pytest.raises(LambdaConstructionError) as err:
            lambda_construct(theta, 3, 16, 5, rng)
        assert err.value.best is not None
        assert err.value.stats["tries"] == 5

    def test_symmetric_interval_signal(self):
        rng = np.random.default_rng(20)
        theta = gen_symm_interval(128, 6, 1.0, rng)
        lam = lambda_construct(theta, 13, 64, 50, rng)
        assert lam.c1_hat >= 0.05
        assert lam.spectral_floor >= spectral_floor(13, 1.0)


class TestModerateCurvature:
    def test_symmetric_interval_passes(self):
        rng = np.random.default_rng(21)
        theta0 = gen_symm_interval(128, 6, 1.0, rng)
        lam = lambda_construct(theta0, 13, 64, 50, rng)
        rep = moderate_curvature_check(theta0, lam, 100, 1e-3, rng)
        assert rep["passes"]
        assert rep["chain_min"] > 0

    def test_asymmetric_rejected(self):
        rng = np.random.default_rng(22)
        theta0 = Signal(rng.normal(size=16))
        lam = FrequencySet(L=16, frequencies=frozenset({0, 1, -1}))
        with pytest.raises(ValueError):
            moderate_curvature_check(theta0, lam, 10, 1e-3, rng)

    def test_zero_signal_rejected(self):
        lam = FrequencySet(L=16, frequencies=frozenset({0, 1, -1}))
        with pytest.raises(ValueError):
            moderate_curvature_check(Signal.zeros(16), lam, 10, 1e-3,
                                     np.random.default_rng(0))


class TestSandwich:
    def _centered_pair(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=8)
        v -= v.mean()
        w = v + 0.3 * rng.normal(size=8)
        w -= w.mean()
        return Signal(v), Signal(w)

    def test_identical_pair(self):
        # no Delta_m to compare KL with: the lower series is 0 at every sigma
        theta, _ = self._centered_pair(23)
        kl, se = kl_monte_carlo(theta, theta, 2.0, 20_000, np.random.default_rng(24))
        assert abs(kl) <= max(3 * se, 1e-12)
        for phi in (theta, shift(theta, 3)):
            with pytest.raises(ValueError, match="Delta_1, Delta_2 and Delta_3 all vanish"):
                moment_sandwich_probe(theta, phi, [2.0], 100, np.random.default_rng(24))

    def _underflow_pair(self):
        # theta is 2^-30 from symmetric, so its reflection differs only in
        # Delta_3, by about 1e-8; at sigma = 1e51 the series underflows to 0
        e = 2.0**-30
        theta = Signal([0.5 + e, -1.5, 0.5 - e, 0.5])
        return theta, reflect(theta)

    def test_underflowed_series_has_no_ratio(self):
        theta, phi = self._underflow_pair()
        rep = moment_sandwich_probe(theta, phi, [2.0, 1e51], 1000, np.random.default_rng(0))
        rated, underflow = rep["rows"]
        assert underflow["lower_series"] == 0.0 and underflow["ratio"] is None
        assert rated["lower_series"] > 0 and rep["fitted_C_lower"] == rated["ratio"]

    def test_no_ratio_does_not_pass(self):
        theta, phi = self._underflow_pair()
        rep = moment_sandwich_probe(theta, phi, [1e51], 1000, np.random.default_rng(0))
        assert rep["rows"][0]["ratio"] is None
        assert rep["fitted_C_lower"] is None and rep["passes"] is False

    def test_centered_pair_sandwich(self):
        theta, phi = self._centered_pair(25)
        rep = moment_sandwich_probe(theta, phi, [2.0, 4.0, 8.0], 100_000,
                                    np.random.default_rng(26))
        assert rep["passes"]
        # Delta_1 of centered signals vanishes
        for row in rep["rows"]:
            assert row["delta_norms"][0] == pytest.approx(0.0, abs=1e-12)

    def test_sigma4_dominance(self):
        theta, phi = self._centered_pair(27)
        rep = moment_sandwich_probe(theta, phi, [2.0, 4.0, 8.0], 100_000,
                                    np.random.default_rng(28))
        scaled = [r["kl"] * r["sigma"] ** 4 for r in rep["rows"]]
        assert max(scaled) / min(scaled) < 4.0

    def test_uncentered_rejected(self):
        theta = Signal(np.ones(8))
        with pytest.raises(ValueError):
            moment_sandwich_probe(theta, theta, [2.0], 100,
                                  np.random.default_rng(0))

    def test_large_L(self):
        # Delta_3 comes from bispectra, so L = 32 runs like any other length
        rng = np.random.default_rng(29)
        v = rng.normal(size=32)
        v -= v.mean()
        w = v + 0.3 * rng.normal(size=32)
        w -= w.mean()
        rep = moment_sandwich_probe(Signal(v), Signal(w), [2.0], 2000,
                                    np.random.default_rng(0))
        f, g = np.fft.fft(v), np.fft.fft(w)
        c = (np.arange(32)[:, None] + np.arange(32)[None, :]) % 32
        db = (f[:, None] * f[None, :] * np.conj(f[c])
              - g[:, None] * g[None, :] * np.conj(g[c]))
        row = rep["rows"][0]
        assert row["delta_norms"][2] == pytest.approx(
            np.sqrt(np.sum(np.abs(db) ** 2) / 32**3), rel=1e-10)
        assert np.isfinite(row["kl"])
