"""End-to-end acceptance suite.

Each test exercises one headline numerical claim of the package at the
stated sizes and tolerances.  The EM rate scan is long-running and opt-in:
run it with  MRALAB_RUN_LONG=1 pytest -m longrun.
"""
import os
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from mralab.beltway import (DifferenceProfile, canonical_orbit,
                            recover_from_power_spectrum, solve_beltway)
from mralab.experiments import ExperimentConfig, fit_loglog_slope, run_experiment
from mralab.gensig import (DiluteClassSpec, gen_collision_free, is_collision_free,
                           positive_part)
from mralab.mra import kl_monte_carlo
from mralab.probes import (FrequencySet, adversarial_direction,
                           dilute_lower_bound_check, uup_check, uup_sample)
from mralab.ring import Signal, shift, std_offset, varrho
from mralab.spectral import (delta_m, power_spectrum,
                             second_moment_difference_expansion)

from oracles import (convolve, cosine_functional_all, dense, dft, difference_multiset,
                     max_collision_free_size, toeplitz)

L_GRID = (4, 5, 16, 21, 64)
DILUTE = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)


class TestSpectralIdentities:
    """Fourier-side identities at 1e-10 relative accuracy."""

    def test_identities(self):
        rng = np.random.default_rng(100)
        for L in L_GRID:
            for _ in range(20):
                v = Signal(rng.normal(size=L))
                w = Signal(rng.normal(size=L))
                # Parseval
                assert abs(np.linalg.norm(dft(v)) ** 2 / L
                           - v.norm() ** 2) \
                    <= 1e-10 * v.norm() ** 2
                # convolution theorem
                conv = convolve(v, w)
                lhs = dft(conv)
                rhs = dft(v) * dft(w)
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)
                # circulant Frobenius norm
                M = toeplitz(v)
                assert abs(np.linalg.norm(M, "fro") - np.sqrt(L) * v.norm()) \
                    <= 1e-10 * np.sqrt(L) * v.norm()
                # circulant trace pairing
                tr = np.trace(M @ toeplitz(w).T)
                assert abs(tr - L * float(v.values @ w.values)) \
                    <= 1e-10 * L * v.norm() * w.norm()


class TestSecondMomentOracle:
    """Analytic second moment equals the brute-force shift average."""

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        for L in L_GRID:
            for _ in range(100):
                theta = Signal(rng.normal(size=L))
                brute = np.zeros((L, L))
                for g in range(L):
                    x = shift(theta, g).values
                    brute += np.outer(x, x)
                brute /= L
                M = dense(delta_m(theta, Signal.zeros(L), 2))
                assert np.linalg.norm(M - brute) \
                    <= 1e-12 * max(np.linalg.norm(brute), 1e-300)


class TestDiluteCurvatureLowerBound:
    """Normalized second-moment curvature floor for the
    collision-free magnitude-band class at L=101, s=8."""

    def test_lower_bound(self):
        rng = np.random.default_rng(102)
        theta0 = gen_collision_free(DILUTE, rng)
        report = dilute_lower_bound_check(theta0, DILUTE, 1000, rng,
                                          h_norm=1e-3 * DILUTE.m)
        assert report["passes"]
        assert report["min_ratio"] >= DILUTE.curvature_constant() * 0.95


class TestAdversarialConstruction:
    """The degenerate direction kills the linear second-moment
    term and obeys the quadratic remainder bound."""

    def test_construction(self):
        rng = np.random.default_rng(103)
        for L in (8, 17, 64):
            for _ in range(100):
                theta0 = Signal(rng.normal(size=L))
                if np.any(np.abs(np.fft.fft(theta0.natural())) < 1e-8):
                    continue  # full-support draws only
                h = adversarial_direction(theta0, 1e-3)
                assert abs(h.mean()) <= 1e-14
                lin, _ = second_moment_difference_expansion(theta0, h.values)
                scale = np.sqrt(L) * theta0.norm() * h.norm()
                assert np.linalg.norm(scipy.linalg.circulant(lin)) <= 1e-8 * scale
                theta = Signal(theta0.values + h.values)
                assert delta_m(theta, theta0, 2).frobenius() \
                    <= L * h.norm() ** 2 + 1e-12


class TestKlScalingDichotomy:
    """KL curvature falls like sigma^-4 along in-class
    directions but like sigma^-6 along the degenerate direction (L=8)."""

    SIGMAS = (2.0, 4.0, 8.0)
    N_MC = 1_000_000

    def _slope(self, theta0, h, seed):
        theta1 = Signal(theta0.values + h.values)
        kls = []
        for i, sigma in enumerate(self.SIGMAS):
            kl, se = kl_monte_carlo(theta0, theta1, sigma, self.N_MC,
                                    np.random.default_rng((seed, i)))
            assert kl > 3 * se  # the estimate must beat its own noise
            kls.append(kl)
        return fit_loglog_slope(self.SIGMAS, kls)

    def test_dilute_direction_sigma4(self):
        theta0 = Signal.from_natural(
            np.array([1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
        rng = np.random.default_rng(104)
        off = std_offset(8)
        idx = np.array(sorted((i + off) % 8 for i in theta0.support))
        g = rng.normal(size=idx.size)
        g -= g.mean()
        h = np.zeros(8)
        h[idx] = g / np.linalg.norm(g) * 0.05
        slope = self._slope(theta0, Signal(h), 105)
        assert -4.6 <= slope <= -3.4

    def test_adversarial_direction_sigma6(self):
        rng = np.random.default_rng(106)
        theta0 = Signal(np.abs(rng.normal(size=8)) + 0.5)
        h = adversarial_direction(theta0, 1.0)
        h = Signal(h.values * (0.1 / h.norm()))
        slope = self._slope(theta0, h, 107)
        assert -6.8 <= slope <= -5.2


class TestBeltwaySolver:
    """Solver output matches exhaustive enumeration; size-7
    collision-free supports at L=24 are unique as orbits where they exist."""

    def test_exhaustive_oracle_500_instances(self):
        rng = np.random.default_rng(108)
        checked = 0
        while checked < 500:
            L = int(rng.integers(5, 17))
            s = int(rng.integers(2, 5))
            sup = rng.choice(L, size=s, replace=False)
            profile = DifferenceProfile.from_support(sup, L)
            got = solve_beltway(profile, s)
            want = sorted({canonical_orbit(c, L)
                           for c in combinations(range(L), s)
                           if np.array_equal(difference_multiset(c, L), profile.counts)})
            assert got == want
            checked += 1

    def test_collision_free_orbits_unique_at_L24_s7(self):
        # s=7 would need 42 distinct nonzero differences and Z_24 has only
        # 23, so no instance exists; the uniqueness claim is checked on
        # whatever the search finds (here: nothing).
        assert 7 * 6 > 24 - 1
        rng = np.random.default_rng(109)
        found = 0
        for _ in range(20_000):
            sup = rng.choice(24, size=7, replace=False)
            if is_collision_free(sup, 24):
                found += 1
                profile = DifferenceProfile.from_support(sup, 24)
                sols = solve_beltway(profile, 7)
                assert sols == [canonical_orbit(sup, 24)]
        assert found == 0


class TestPhaseRetrievalRoundTrip:
    """Power-spectrum recovery of 200 dilute signals, exact
    and under 1e-6 relative spectral noise."""

    def _orbit_error(self, theta, cands):
        return min(varrho(theta, Signal(sgn * c.values), dihedral=True)
                   for c in cands for sgn in (1.0, -1.0))

    def test_round_trips(self):
        rng = np.random.default_rng(110)
        for _ in range(200):
            theta = gen_collision_free(DILUTE, rng)
            P = power_spectrum(theta)

            cands = recover_from_power_spectrum(P, DILUTE.s, DILUTE.m, tol=1e-8)
            assert cands
            assert self._orbit_error(theta, cands) <= 1e-8

            noisy = P * (1 + 1e-6 * rng.normal(size=P.size))
            cands = recover_from_power_spectrum(noisy, DILUTE.s, DILUTE.m, tol=1e-4)
            assert cands
            assert self._orbit_error(theta, cands) <= 1e-4


@pytest.mark.longrun
@pytest.mark.skipif(os.environ.get("MRALAB_RUN_LONG") != "1",
                    reason="set MRALAB_RUN_LONG=1 to run the EM rate scan")
class TestEmRateScan:
    """Opt-in: sqrt(n) varrho of the restricted EM estimate
    grows like sigma^alpha with alpha in [1.6, 2.6] at n = 4e4 sigma^4."""

    def test_sigma_exponent(self):
        planar = {3: 1.1, 6: -1.0, 7: 1.05, 12: 1.2, 14: -1.15}
        vals = np.zeros(21)
        for k, x in planar.items():
            vals[k] = x
        theta0 = Signal.from_natural(vals)
        cfg = ExperimentConfig(
            scenario="dilute-rate", L=21, sigma_grid=(1.0, 2.0, 4.0),
            seed=2026, trials=20, n_base=40_000, n_rule="sigma4",
            signal=theta0.to_json_dict(),
            dilute={"m": 1.0, "M": 1.2, "eps": 1.0},
            em={"init": "perturbed-truth", "init_perturb": 0.1,
                "max_iters": 300, "tol": 1e-8})
        result = run_experiment(cfg)
        alpha = result.fits["sigma_exponent"]
        assert alpha is not None
        assert 1.6 <= alpha <= 2.6, result.fits


class TestCosineGenericity:
    """Uniform lower bounds on the cosine functional for the
    symmetric interval and for symmetric Bernoulli supports."""

    def test_interval_exact(self):
        L = 4096
        xi = range(-32, 33)
        v_min = cosine_functional_all(xi, L).min()
        assert v_min >= 2.0

    def test_bernoulli_supports(self):
        L, s = 4096, 64
        rng = np.random.default_rng(111)
        pos = positive_part(L)
        hits = 0
        for _ in range(200):
            chosen = pos[rng.random(pos.size) < s / L]
            xi = set(int(k) for k in chosen) | set(-int(k) for k in chosen)
            if not xi:
                continue
            hits += cosine_functional_all(xi, L).min() >= s / 32
        assert hits >= 190


class TestUupSanity:
    """The full frequency set preserves energy exactly, and a
    half-density random set keeps two-sided sparse energy ratios in band."""

    def test_full_set_exact(self):
        L = 64
        off = std_offset(L)
        lam = FrequencySet(L=L, frequencies=frozenset(range(-off, L - off)))
        c1, c2 = uup_check(lam, 5, 200, np.random.default_rng(112))
        assert c1 == pytest.approx(1.0, rel=1e-12)
        assert c2 == pytest.approx(1.0, rel=1e-12)

    def test_half_density_band(self):
        rng = np.random.default_rng(113)
        lam = uup_sample(512, 256, rng)
        c1, c2 = uup_check(lam, 8, 10_000, rng)
        assert c1 >= 0.05
        assert c2 <= 20.0


class TestCollisionScaling:
    """log P[collision-free support] is linear in s^3/L, and
    exact maximum sizes respect the counting bound."""

    @staticmethod
    def _collision_free_fraction(L, s, n_draws, rng):
        hits = 0
        batch = 5000
        done = 0
        pairs = [(i, j) for i in range(s) for j in range(s) if i != j]
        ii = np.array([p[0] for p in pairs])
        jj = np.array([p[1] for p in pairs])
        while done < n_draws:
            b = min(batch, n_draws - done)
            idx = np.argpartition(rng.random((b, L)), s - 1, axis=1)[:, :s]
            diffs = np.sort((idx[:, ii] - idx[:, jj]) % L, axis=1)
            ok = np.all(diffs[:, 1:] != diffs[:, :-1], axis=1)
            hits += int(ok.sum())
            done += b
        return hits / n_draws

    def test_monte_carlo_fit(self):
        rng = np.random.default_rng(114)
        xs, ys = [], []
        n_draws = 30_000
        for L in (128, 256, 512):
            for s in range(4, 13):
                p = self._collision_free_fraction(L, s, n_draws, rng)
                if p * n_draws >= 5:  # keep cells the MC can resolve
                    xs.append(s**3 / L)
                    ys.append(np.log(p))
        assert len(xs) >= 10
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = np.array(ys) - (slope * np.array(xs) + intercept)
        r2 = 1 - resid.var() / np.var(ys)
        assert slope < 0
        assert r2 >= 0.9

    def test_exact_max_sizes(self):
        for L in range(2, 21):
            s = max_collision_free_size(L)
            assert s * (s - 1) <= L - 1
            # and the bound is honest: some collision-free set of size s exists
            assert any(is_collision_free(c, L)
                       for c in combinations(range(L), s))
