from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from mralab import beltway
from mralab.beltway import (DifferenceProfile, ProfileInconsistencyError,
                            SearchBudgetError, canonical_orbit,
                            recover_from_power_spectrum, solve_beltway)
from mralab.gensig import DiluteClassSpec, gen_collision_free, is_collision_free
from mralab.probes import adversarial_direction, curvature_terms
from mralab.ring import Signal, varrho
from mralab.spectral import power_spectrum
from oracles import difference_multiset, max_collision_free_size


def local_uniqueness_probe(theta0: Signal, radius: float, trials: int,
                           rng: np.random.Generator) -> dict:
    """Ratio ||Delta_2(theta, theta0)||_F / rho(theta, theta0) over random
    support-preserving perturbations with varrho <= radius.

    A strictly positive floor across trials evidences local uniqueness of
    recovery from the second moment (equivalently the power spectrum).
    """
    L = theta0.L
    idx = np.flatnonzero(theta0.values)
    if not idx.size:
        raise ValueError("theta0 must be nonzero")
    vals = np.empty((trials, idx.size))
    for t in range(trials):
        h = rng.normal(size=idx.size)
        vals[t] = h * (radius * np.sqrt(L) * rng.random() / np.linalg.norm(h))
    d2, r, _ = curvature_terms(theta0, idx, vals)
    ratios = d2[r > 0] / r[r > 0]
    return {
        "trials": int(ratios.size),
        "radius": float(radius),
        "min_ratio": float(ratios.min()) if ratios.size else float("nan"),
        "median_ratio": float(np.median(ratios)) if ratios.size else float("nan"),
    }


def brute_force_solutions(profile: DifferenceProfile, s: int):
    """All orbits from exhaustive subset enumeration."""
    L = profile.L
    orbits = set()
    for cand in combinations(range(L), s):
        if np.array_equal(difference_multiset(cand, L), profile.counts):
            orbits.add(canonical_orbit(cand, L))
    return sorted(orbits)


def counts(L: int, mults: dict) -> np.ndarray:
    """Lag counts with the given multiplicities and 0 elsewhere."""
    c = np.zeros(L, dtype=np.int64)
    c[list(mults)] = list(mults.values())
    return c


def orbit_distance(theta, cand, dihedral=True):
    return min(varrho(theta, Signal(sgn * cand.values), dihedral=dihedral)
               for sgn in (1.0, -1.0))


class TestDifferenceProfile:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            DifferenceProfile(7, counts(7, {1: 1}))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            DifferenceProfile(7, counts(7, {0: 1, 1: 1, 6: 1}))

    def test_from_support(self):
        p = DifferenceProfile.from_support({0, 1, 3}, 7)
        assert p.counts.tolist() == [0, 1, 1, 1, 1, 1, 1]
        # one point has no lags
        assert not DifferenceProfile.from_support({4, 11}, 7).counts.any()

    def test_json_round_trip(self):
        p = DifferenceProfile.from_support({0, 2, 3}, 9)
        q = DifferenceProfile.from_json_dict(p.to_json_dict())
        assert q.L == p.L and np.array_equal(q.counts, p.counts)
        assert p.to_json_dict() == {"L": 9, "differences": [1, 2, 3, 6, 7, 8],
                                    "multiplicities": [1, 1, 1, 1, 1, 1]}

    def test_counts_shape_and_sign_enforced(self):
        with pytest.raises(ValueError, match="7 integers"):
            DifferenceProfile(7, np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match="7 integers"):
            DifferenceProfile(7, np.zeros(7))
        with pytest.raises(ValueError, match="need L >= 1, got 0"):
            DifferenceProfile.from_json_dict({"L": 0, "differences": [], "multiplicities": []})
        with pytest.raises(ValueError, match="negative"):
            DifferenceProfile(7, counts(7, {1: -1, 6: -1}))

    def test_json_unequal_lengths_rejected(self):
        # a 7th multiplicity for 6 differences
        with pytest.raises(ValueError, match="need a list of 6 multiplicities, one per "
                                             r"difference, got \[1, 1, 1, 1, 1, 1, 1\]"):
            DifferenceProfile.from_json_dict({"L": 7, "differences": [1, 2, 3, 4, 5, 6],
                                              "multiplicities": [1] * 7})

    def test_json_residue_twice_rejected(self):
        # 1 and 8 are the same residue mod 7
        with pytest.raises(ValueError, match="differences entries 1 and 8 are one residue mod 7"):
            DifferenceProfile.from_json_dict({"L": 7, "differences": [1, 6, 8, 13],
                                              "multiplicities": [1, 1, 1, 1]})

    def test_json_repeated_difference_rejected(self):
        with pytest.raises(ValueError, match="differences entries 1 and 1 are one residue mod 7"):
            DifferenceProfile.from_json_dict({"L": 7, "differences": [1, 6, 1, 6],
                                              "multiplicities": [5, 5, 1, 1]})

    def test_json_boolean_multiplicity_rejected(self):
        # JSON true is a bool, which Python counts as the int 1
        with pytest.raises(ValueError, match="multiplicities entry must be an integer, got True"):
            DifferenceProfile.from_json_dict({"L": 7, "differences": [1, 6],
                                              "multiplicities": [True, 1]})

    def test_json_non_integer_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicities entry must be an integer, got 1.7"):
            DifferenceProfile.from_json_dict({"L": 7, "differences": [1, 6],
                                              "multiplicities": [1.7, 1.2]})


class TestCanonicalOrbit:
    def test_invariant_under_rotation_and_reflection(self):
        L = 11
        sup = (0, 2, 7)
        rep = canonical_orbit(sup, L)
        for g in range(L):
            rot = [(x + g) % L for x in sup]
            assert canonical_orbit(rot, L) == rep
            assert canonical_orbit([(-x) % L for x in rot], L) == rep


class TestSolveBeltway:
    def test_two_point(self):
        p = DifferenceProfile(9, counts(9, {2: 1, 7: 1}))
        assert solve_beltway(p, 2) == [(0, 2)]

    def test_perfect_difference_set(self):
        p = DifferenceProfile.from_support({0, 1, 3}, 7)
        assert solve_beltway(p, 3) == [(0, 1, 3)]

    def test_singleton(self):
        assert solve_beltway(DifferenceProfile(5, counts(5, {})), 1) == [(0,)]

    def test_count_mismatch_rejected(self):
        p = DifferenceProfile.from_support({0, 1, 3}, 7)
        with pytest.raises(ValueError):
            solve_beltway(p, 4)

    def test_infeasible_profile_empty(self):
        # multiplicity 2 at distance 1 but support of size 2 cannot do that
        p = DifferenceProfile(12, counts(12, {1: 1, 11: 1, 2: 1, 10: 1, 5: 1, 7: 1}))
        sols = solve_beltway(p, 3)
        for sup in sols:
            assert np.array_equal(difference_multiset(sup, 12), p.counts)

    def test_budget_error(self, monkeypatch):
        rng = np.random.default_rng(0)
        sup = rng.choice(64, size=8, replace=False)
        p = DifferenceProfile.from_support(sup, 64)
        monkeypatch.setattr(beltway, "DEFAULT_NODE_BUDGET", 3)
        with pytest.raises(SearchBudgetError, match="node budget 3 exceeded"):
            solve_beltway(p, 8)

    def test_exhaustive_oracle_agreement(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 500:
            L = int(rng.integers(5, 17))
            s = int(rng.integers(2, 5))
            if s > L:
                continue
            sup = rng.choice(L, size=s, replace=False)
            p = DifferenceProfile.from_support(sup, L)
            got = solve_beltway(p, s)
            want = brute_force_solutions(p, s)
            assert got == want, (L, sorted(sup))
            assert canonical_orbit(sup, L) in got
            for cand in got:
                assert np.array_equal(difference_multiset(cand, L), p.counts)
            checked += 1

    @pytest.mark.parametrize("L, support", [
        (9, (0, 1, 2)),        # smallest lag 1 occurs twice
        (10, (0, 1, 2, 3)),    # smallest lag 1 occurs three times
        (12, (0, 2, 4, 7)),    # smallest lag 2 occurs twice
        (8, (0, 4)),           # smallest lag is L/2
        (12, (0, 6)),
    ])
    def test_anchor_edge_cases_match_oracle(self, L, support):
        p = DifferenceProfile.from_support(support, L)
        got = solve_beltway(p, len(support))
        assert got == brute_force_solutions(p, len(support))
        assert canonical_orbit(support, L) in got

    def test_half_period_profile_infeasible_for_three_points(self):
        # six copies of the lag L/2 fit no 3-point set
        p = DifferenceProfile(8, counts(8, {4: 6}))
        assert solve_beltway(p, 3) == brute_force_solutions(p, 3) == []

    def test_exhaustive_oracle_agreement_wide(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            L = int(rng.integers(4, 19))
            s = int(rng.integers(2, 6))
            if s > L:
                continue
            sup = rng.choice(L, size=s, replace=False)
            p = DifferenceProfile.from_support(sup, L)
            assert solve_beltway(p, s) == brute_force_solutions(p, s), (L, sorted(sup))
            checked += 1


class TestMirrorPruning:
    """Oracle agreement at s = 6-7, where the mirror rule cuts branches from
    the third point on."""

    def test_random_oracle_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            s = int(rng.integers(6, 8))
            L = int(rng.integers(s + 1, 17))
            sup = rng.choice(L, size=s, replace=False)
            p = DifferenceProfile.from_support(sup, L)
            got = solve_beltway(p, s)
            assert got == brute_force_solutions(p, s), (L, sorted(sup))
            assert canonical_orbit(sup, L) in got

    @pytest.mark.parametrize("L, support", [
        (12, (0, 1, 2, 4, 7, 9)),         # smallest lag 1 occurs twice
        (14, (0, 1, 2, 3, 5, 8, 11)),     # smallest lag 1 occurs three times
        (16, (0, 2, 5, 8, 10, 13)),       # fixed by y -> 2 - y: the gaps tie
        (16, (0, 2, 5, 7, 10, 13)),       # the gaps tie, not fixed by the mirror
        (15, (0, 1, 3, 5, 8, 11, 13)),    # fixed by y -> 1 - y, odd L
        (12, (0, 1, 3, 6, 7, 9)),         # three pairs at lag L/2, each taken twice
        (16, (0, 1, 2, 8, 9, 10, 13)),    # lag 1 four times, lag L/2 six times
    ])
    def test_edge_cases_match_oracle(self, L, support):
        p = DifferenceProfile.from_support(support, L)
        got = solve_beltway(p, len(support))
        assert got == brute_force_solutions(p, len(support))
        assert canonical_orbit(support, L) in got

    @pytest.mark.parametrize("L, s", [(12, 6), (14, 7), (16, 7)])
    def test_half_period_smallest_lag(self, L, s):
        # d_min = L/2 leaves only the lag L/2, which no s >= 3 points realize
        p = DifferenceProfile(L, counts(L, {L // 2: s * (s - 1)}))
        assert solve_beltway(p, s) == brute_force_solutions(p, s) == []


class TestMaxCollisionFreeSize:
    def test_small_values(self):
        assert max_collision_free_size(2) == 1
        assert max_collision_free_size(7) == 3
        assert max_collision_free_size(21) == 5

    def test_guard(self):
        with pytest.raises(ValueError):
            max_collision_free_size(41)

    def test_brute_force_oracle(self):
        for L in range(2, 21):
            best = 1
            for s in range(2, L + 1):
                if any(is_collision_free(c, L) for c in combinations(range(L), s)):
                    best = s
                else:
                    break
            assert max_collision_free_size(L) == best

    def test_counting_bound(self):
        for L in range(2, 31):
            s = max_collision_free_size(L)
            assert s * (s - 1) <= L - 1


class TestRecovery:
    SPEC = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = gen_collision_free(self.SPEC, rng)
            cands = recover_from_power_spectrum(power_spectrum(theta), self.SPEC.s,
                                                self.SPEC.m, tol=1e-8)
            assert cands
            assert min(orbit_distance(theta, c) for c in cands) < 1e-8

    def test_single_spike(self):
        c = 2.5
        theta = Signal.delta(11, 2, -c)
        cands = recover_from_power_spectrum(power_spectrum(theta), s=1, m=2.0, tol=1e-8)
        assert len(cands) == 1
        vals = cands[0].values[cands[0].values != 0]
        assert vals[0] == pytest.approx(c)

    @pytest.mark.parametrize("L, entries", [(7, {0: 1.0, 2: -1.3}), (9, {-1: 1.2, 3: 1.1})])
    def test_two_point_round_trip(self, L, entries):
        # s = 2 solves a quadratic for the magnitudes; the spectrum cannot see
        # the global sign, and at L=7 it returns -(theta reflected and shifted)
        theta = Signal.from_support(L, entries)
        cands = recover_from_power_spectrum(power_spectrum(theta), 2, 1.0, tol=1e-8)
        assert len(cands) == 1
        assert orbit_distance(theta, cands[0]) < 1e-12

    def test_half_period_pair_rejected(self):
        # {0, L/2} has one lag, L/2 = -L/2, where s = 2 needs two
        theta = Signal.from_support(8, {0: 1.0, 4: 1.2})
        with pytest.raises(ProfileInconsistencyError, match="found 1 lags"):
            recover_from_power_spectrum(power_spectrum(theta), 2, 1.0)

    def test_noise_robustness(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = gen_collision_free(self.SPEC, rng)
            P = power_spectrum(theta)
            P = P * (1 + 1e-6 * rng.normal(size=P.size))
            cands = recover_from_power_spectrum(P, self.SPEC.s, self.SPEC.m, tol=1e-4)
            assert cands
            assert min(orbit_distance(theta, c) for c in cands) <= 1e-4

    def test_candidate_spectra_match(self):
        rng = np.random.default_rng(4)
        theta = gen_collision_free(self.SPEC, rng)
        P = power_spectrum(theta)
        for c in recover_from_power_spectrum(P, self.SPEC.s, self.SPEC.m, tol=1e-8):
            assert np.linalg.norm(power_spectrum(c) - P) <= 1e-8 * np.linalg.norm(P)

    def test_canonical_sign(self):
        rng = np.random.default_rng(5)
        theta = gen_collision_free(self.SPEC, rng)
        for c in recover_from_power_spectrum(power_spectrum(theta), self.SPEC.s,
                                             self.SPEC.m, tol=1e-8):
            nz = c.natural()[c.natural() != 0]
            assert nz[0] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        rng = np.random.default_rng(8)
        P = power_spectrum(gen_collision_free(self.SPEC, rng)).copy()
        P[2] = P[7] = bad
        with pytest.raises(ValueError, match=r"P\[2\] = -?(nan|inf) is not finite"):
            recover_from_power_spectrum(P, self.SPEC.s, self.SPEC.m)

    def test_inconsistent_threshold_detected(self):
        # a flat spectrum of the wrong scale thresholds to the wrong lag count
        with pytest.raises(ProfileInconsistencyError):
            recover_from_power_spectrum(np.full(101, 4.0), self.SPEC.s, self.SPEC.m)


def minpack_refine(support, vals, P_nat, L: int):
    """The slow oracle for `_refine_values`: MINPACK's Levenberg-Marquardt
    with a finite-difference Jacobian, on the FFT residual."""
    idx = np.array(support)

    def resid(v):
        x = np.zeros(L)
        x[idx] = v
        return np.abs(np.fft.fft(x)) ** 2 - P_nat

    return scipy.optimize.least_squares(resid, vals, method="lm", xtol=1e-15,
                                        ftol=1e-15).x


class TestRefineValuesOracle:
    """Recovery with the exact-Jacobian LM against recovery with MINPACK,
    on random DILUTE instances at three levels of relative spectrum noise."""

    @pytest.mark.parametrize("noise, tol", [(0.0, 1e-8), (1e-6, 1e-4), (1e-4, 1e-3)])
    def test_matches_minpack(self, noise, tol, monkeypatch):
        rng = np.random.default_rng(17)
        for L, s in ((89, 8), (101, 8), (127, 8), (127, 9)):
            spec = DiluteClassSpec(L=L, s=s, m=1.0, M=1.5, eps=1.0)
            for _ in range(3):
                P = power_spectrum(gen_collision_free(spec, rng))
                P = P * (1 + noise * rng.normal(size=L))
                ours = recover_from_power_spectrum(P, s, spec.m, tol=tol)
                with monkeypatch.context() as m:
                    m.setattr(beltway, "_refine_values", minpack_refine)
                    ref = recover_from_power_spectrum(P, s, spec.m, tol=tol)
                assert ours and len(ours) == len(ref)
                for a, b in zip(ours, ref):
                    if noise == 0.0:
                        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)
                    elif noise == 1e-6:
                        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-10)
                    else:
                        res_a = np.linalg.norm(power_spectrum(a) - P)
                        res_b = np.linalg.norm(power_spectrum(b) - P)
                        assert res_a <= res_b * (1 + 1e-9)


class TestLocalUniqueness:
    def test_dilute_floor(self):
        spec = DiluteClassSpec(L=101, s=8, m=1.0, M=1.5, eps=1.0)
        rng = np.random.default_rng(6)
        theta0 = gen_collision_free(spec, rng)
        rep = local_uniqueness_probe(theta0, 1e-3, 200, rng)
        floor = spec.curvature_constant() * np.sqrt(spec.s / spec.L)
        assert rep["min_ratio"] >= floor * 0.95

    def test_adversarial_direction_degenerates(self):
        rng = np.random.default_rng(7)
        theta0 = Signal(np.abs(rng.normal(size=16)) + 0.5)
        ratios = []
        for r in (1e-1, 1e-2, 1e-3):
            h = adversarial_direction(theta0, 1.0)
            h = Signal(h.values * (r * np.sqrt(16) / h.norm()))
            theta = Signal(theta0.values + h.values)
            from mralab.ring import rho
            from mralab.spectral import delta_m
            ratios.append(delta_m(theta, theta0, 2).frobenius()
                          / rho(theta, theta0))
        # curvature along the degenerate direction collapses linearly in r
        assert ratios[0] > 5 * ratios[1] > 5 * ratios[2]
