import re

import numpy as np
import pytest
import scipy.special

from mralab import mra
from mralab.mra import (EPS32, Dataset, MraConfig, RestrictedClass, _draw_block,
                        em_restricted_mle, kl_monte_carlo, log_likelihood, simulate)
from mralab.ring import Signal, orbit_index, reflect, shift, storage_index, varrho
from oracles import (draw_block_reference, em_fit, em_iteration, group_elements,
                     kl_masked_jackknife, path_log_density, project_reference, traced_peak)

PLANAR = Signal.from_natural(
    np.array([0, 0, 0, 1.1, 0, 0, -1.0, 1.05, 0, 0, 0, 0,
              1.2, 0, -1.15, 0, 0, 0, 0, 0, 0.0]))

# Tolerances against the float64 oracles, in units of EPS32 (2^-23), the
# rounding of the float32 rows, logits and M-step products:
#: relative, on a log-density or log-likelihood (seen: at most 0.31 EPS32)
LL_RTOL = 2 * EPS32
#: absolute, on one EM update of a signal of entries near 1 from at most 2000
#: rows (seen: at most 3.2 EPS32)
THETA_ATOL = 16 * EPS32
#: relative, on the mean effective group size; the entropy of near-tied
#: weights reads logits of size ~|y| |theta| / sigma^2, about 10^3 at
#: sigma = 0.05 (seen: 21 EPS32 there, 0.15 EPS32 at sigma = 0.7)
GROUP_SIZE_RTOL = 64 * EPS32


def log_density(theta, y, sigma, dihedral=False):
    """log p_theta(y) of one observation y, through `log_likelihood`."""
    return log_likelihood(theta, Dataset(y[None, :], MraConfig(theta.L, sigma, dihedral)))


def direct_log_density(theta, y, sigma, dihedral=False):
    """O(L^2) mixture evaluation, one Gaussian per group element."""
    L = theta.L
    terms = []
    for g in group_elements(L, dihedral):
        diff = y - g.apply(theta).values
        terms.append(-np.dot(diff, diff) / (2 * sigma**2))
    terms = np.array(terms)
    m = terms.max()
    return float(m + np.log(np.mean(np.exp(terms - m)))
                 - (L / 2) * np.log(2 * np.pi * sigma**2))


class TestSimulate:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise scale must be positive and finite, got %r"
                           % (sigma,)):
            MraConfig(4, sigma)

    def test_noiseless_orbit(self):
        theta = Signal(np.random.default_rng(0).normal(size=8))
        cfg = MraConfig(8, 1e-300)
        data = simulate(theta, cfg, 64, np.random.default_rng(1))
        # sigma z is far below a float32 ulp: each stored row is an orbit row, rounded
        orbit = {tuple(shift(theta, g).values.astype(np.float32)) for g in range(8)}
        for row in data.observations:
            assert tuple(row) in orbit

    def test_latent_shifts_match_reference(self):
        # the shifts that the reference draws from the same stream
        theta = Signal(np.random.default_rng(2).normal(size=6))
        cfg = MraConfig(6, 1e-300)
        data = simulate(theta, cfg, 50, np.random.default_rng(3))
        _, shifts, _ = draw_block_reference(theta.values[orbit_index(6, False)], cfg, 50,
                                            np.random.default_rng(3))
        for row, g in zip(data.observations, shifts):
            assert np.allclose(row, shift(theta, int(g)).values)

    def test_sample_mean(self):
        rng = np.random.default_rng(4)
        theta = Signal(rng.normal(size=8))
        cfg = MraConfig(8, 1.0)
        data = simulate(theta, cfg, 100_000, rng)
        se = np.sqrt((1.0 + theta.norm() ** 2 / 8) / data.n)
        assert np.max(np.abs(data.observations.mean(axis=0) - theta.mean())) < 5 * se

    def test_per_coordinate_variance(self):
        rng = np.random.default_rng(5)
        theta = Signal(rng.normal(size=8))
        sigma = 0.7
        data = simulate(theta, MraConfig(8, sigma), 100_000, rng)
        orbit_var = theta.norm() ** 2 / 8 - theta.mean() ** 2
        target = sigma**2 + orbit_var
        emp = data.observations.var(axis=0)
        assert np.max(np.abs(emp - target)) < 6 * target / np.sqrt(data.n / 8)

    def test_dihedral_uses_reflections(self):
        theta = Signal(np.random.default_rng(6).normal(size=7))
        cfg = MraConfig(7, 1e-300, dihedral=True)
        data = simulate(theta, cfg, 200, np.random.default_rng(7))
        _, shifts, flips = draw_block_reference(theta.values[orbit_index(7, True)], cfg, 200,
                                                np.random.default_rng(7))
        assert flips.any() and not flips.all()
        for row, g, f in zip(data.observations, shifts, flips):
            base = reflect(theta) if f else theta
            assert np.allclose(row, shift(base, int(g)).values)

    def test_streaming_dataset_deterministic(self, monkeypatch):
        # one seed draws the same rows into the heap and into two mapped files
        monkeypatch.setattr(mra, "DEFAULT_CHUNK", 128)
        theta = Signal(np.random.default_rng(8).normal(size=5))
        cfg = MraConfig(5, 0.5)
        held = simulate(theta, cfg, 1000, np.random.default_rng(99)).observations
        monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 0)
        a, b = (simulate(theta, cfg, 1000, np.random.default_rng(99)).observations
                for _ in range(2))
        assert isinstance(a.base, np.memmap) and not isinstance(held.base, np.memmap)
        assert a.shape == (1000, 5)
        assert np.array_equal(a, b) and np.array_equal(a, held)

    def test_blocks_partition_rows(self, monkeypatch):
        data = simulate(PLANAR, MraConfig(21, 0.7), 300, np.random.default_rng(9))
        monkeypatch.setattr(mra, "TILE_BYTES", 64 * 84)  # five blocks, the last partial
        blocks = list(data.blocks(84))
        assert [len(b) for b in blocks] == [64] * 4 + [44]
        assert np.array_equal(np.concatenate(blocks), data.observations)

    def test_tile_rows_floor_at_one_row(self):
        assert mra.tile_rows(8) == mra.TILE_BYTES // 8
        for row_bytes in (mra.TILE_BYTES, mra.TILE_BYTES + 1, 10 * mra.TILE_BYTES):
            assert mra.tile_rows(row_bytes) == 1

    def test_streaming_em_matches_in_memory(self, monkeypatch):
        # EM over the mapped rows and over the in-memory draw of the same seed
        # agree bit for bit
        monkeypatch.setattr(mra, "DEFAULT_CHUNK", 128)
        theta = Signal(np.random.default_rng(33).normal(size=7))
        init = Signal(theta.values + 0.1)
        rc = RestrictedClass("none")
        for dihedral in (False, True):
            cfg = MraConfig(7, 0.8, dihedral)
            row_bytes = 4 * 7 * (1 + dihedral)  # EM's float32 logits, |G| per row
            monkeypatch.setattr(mra, "TILE_BYTES", 128 * row_bytes)
            memory = simulate(theta, cfg, 1000, np.random.default_rng(5))
            with monkeypatch.context() as mp:
                mp.setattr(mra, "IN_MEMORY_LIMIT", 0)
                spilled = simulate(theta, cfg, 1000, np.random.default_rng(5))
            assert isinstance(spilled.observations.base, np.memmap)
            assert [len(b) for b in spilled.blocks(row_bytes)] == [128] * 7 + [104]
            a, diag_a = em_restricted_mle(spilled, rc, init, max_iters=15)
            b, diag_b = em_restricted_mle(memory, rc, init, max_iters=15)
            assert np.array_equal(a.values, b.values)
            assert diag_a == diag_b
            assert log_likelihood(a, spilled) == log_likelihood(a, memory)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_spill_and_fit_hold_one_chunk(self, dihedral, monkeypatch):
        # the rows sit in the mapped file, which tracemalloc does not count: the
        # draw holds one chunk and the fit one chunk's weights and their
        # entropy temporaries, far below the 4 L n bytes of the float32 rows
        n, L, C = 200_000, 21, 4096
        G = 2 * L if dihedral else L
        monkeypatch.setattr(mra, "DEFAULT_CHUNK", C)
        monkeypatch.setattr(mra, "TILE_BYTES", 4 * G * C)  # EM reads chunks of C rows too
        monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 0)
        cfg = MraConfig(L, 1.0, dihedral)
        data, peak = traced_peak(simulate, PLANAR, cfg, n, np.random.default_rng(3))
        assert data.n == n
        bound = 3 * 8 * (L + G) * C + 2**20
        assert peak <= bound < 4 * L * n / 2
        _, peak = traced_peak(em_restricted_mle, data, RestrictedClass("none"), PLANAR, 3, 0.0)
        assert peak <= bound


    @pytest.mark.parametrize("dihedral", [False, True])
    def test_rows_held_once(self, dihedral):
        # the float32 rows and one chunk of float64 draws, with its orbit picks
        # and one slice of gathered orbit rows: no n x L float64 array
        n, L = 200_000, 21
        data, peak = traced_peak(simulate, PLANAR, MraConfig(L, 1.0, dihedral), n,
                                 np.random.default_rng(3))
        assert data.observations.nbytes == 4 * L * n
        assert peak <= 4 * L * n + 8 * L * mra.DEFAULT_CHUNK + 2**20

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_draw_holds_one_float64_chunk_at_l101(self, dihedral):
        # at L = 101 a chunk of float64 rows is 53 MB: the orbit rows are
        # added to it in slices, not gathered into a second chunk
        n, L = 65_536, 101
        theta = Signal(np.random.default_rng(14).normal(size=L))
        data, peak = traced_peak(simulate, theta, MraConfig(L, 1.0, dihedral), n,
                                 np.random.default_rng(3))
        assert data.n == n
        assert peak <= 4 * L * n + 8 * L * mra.DEFAULT_CHUNK + 8 * 2**20


class TestDrawStream:
    """The draw is pinned bit for bit to `draw_block_reference`: same random
    stream, same rows.  `_draw_block` gives its float64 rows; simulate draws
    one block per chunk from its one generator and stores them rounded to
    float32, in memory or in a mapped file."""

    # 5000 rows take their orbit rows in three slices, the last partial
    @pytest.mark.parametrize("m", [1, 5, 1000, 5000])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("L", [2, 7, 21])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_draw_block_and_simulate_match_reference(self, dihedral, L, sigma, m):
        theta = Signal(np.random.default_rng(L).normal(size=L))
        cfg = MraConfig(L, sigma, dihedral)
        orbit = theta.values[orbit_index(L, dihedral)]
        want = draw_block_reference(orbit, cfg, m, np.random.default_rng(m))[0]
        got = _draw_block(orbit, cfg, m, np.random.default_rng(m))
        data = simulate(theta, cfg, m, np.random.default_rng(m))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        stored = data.observations
        assert stored.dtype == np.float32 and np.array_equal(stored, want.astype(np.float32))

    @staticmethod
    def check_chunks(dihedral, mapped, monkeypatch):
        # 300 rows in chunks of 128, the last partial: the reference draws
        # each chunk in turn from the one generator
        monkeypatch.setattr(mra, "DEFAULT_CHUNK", 128)
        monkeypatch.setattr(mra, "TILE_BYTES", 128 * 28)
        if mapped:
            monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 0)
        theta = Signal(np.random.default_rng(13).normal(size=7))
        cfg = MraConfig(7, 0.8, dihedral)
        orbit = theta.values[orbit_index(7, dihedral)]
        rng = np.random.default_rng(6)
        want = np.concatenate([draw_block_reference(orbit, cfg, m, rng)[0]
                               for m in (128, 128, 44)])
        data = simulate(theta, cfg, 300, np.random.default_rng(6))
        assert isinstance(data.observations.base, np.memmap) == mapped
        assert [len(block) for block in data.blocks(28)] == [128, 128, 44]
        stored = data.observations
        assert stored.dtype == np.float32 and np.array_equal(stored, want.astype(np.float32))

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_draw_across_chunks_matches_reference(self, dihedral, monkeypatch):
        self.check_chunks(dihedral, False, monkeypatch)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_streaming_chunks_match_reference(self, dihedral, monkeypatch):
        # over the limit: the same rows, in a mapped file
        self.check_chunks(dihedral, True, monkeypatch)


class TestLogDensity:
    def test_two_point_closed_form(self):
        theta = Signal([1.0, -1.0])
        y = np.zeros(2)
        direct = np.log(0.5 * (np.exp(-1.0) + np.exp(-1.0)) / (2 * np.pi))
        assert log_density(theta, y, 1.0) == pytest.approx(direct)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(9)
        theta = Signal(rng.normal(size=9))
        y = rng.normal(size=9)
        base = log_density(theta, y, 0.8)
        for g in range(9):
            assert log_density(shift(theta, g), y, 0.8) == pytest.approx(base, rel=LL_RTOL)

    def test_matches_direct_mixture(self):
        rng = np.random.default_rng(10)
        for dihedral in (False, True):
            for _ in range(10):
                theta = Signal(rng.normal(size=7))
                y = rng.normal(size=7)
                sigma = float(rng.uniform(0.2, 3.0))
                assert log_density(theta, y, sigma, dihedral) == pytest.approx(
                    direct_log_density(theta, y, sigma, dihedral), rel=LL_RTOL)

    def test_small_sigma_finite(self):
        theta = Signal(np.random.default_rng(11).normal(size=8))
        y = np.random.default_rng(12).normal(size=8)
        assert np.isfinite(log_density(theta, y, 1e-6))


class TestLogLikelihood:
    def test_empty(self):
        theta = Signal([1.0, 2.0])
        data = Dataset(np.zeros((0, 2)), MraConfig(2, 1.0))
        assert log_likelihood(theta, data) == 0.0

    def test_additivity(self):
        rng = np.random.default_rng(13)
        theta = Signal(rng.normal(size=6))
        cfg = MraConfig(6, 1.0)
        obs = rng.normal(size=(20, 6))
        whole = log_likelihood(theta, Dataset(obs, cfg))
        parts = (log_likelihood(theta, Dataset(obs[:12], cfg))
                 + log_likelihood(theta, Dataset(obs[12:], cfg)))
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_matches_direct_sum(self):
        # odd and even L: std_offset(L) enters the reflected rows' indices
        rng = np.random.default_rng(14)
        for L in (5, 6):
            for dihedral in (False, True):
                theta = Signal(rng.normal(size=L))
                cfg = MraConfig(L, 1.3, dihedral)
                obs = rng.normal(size=(9, L))
                direct = sum(direct_log_density(theta, y, 1.3, dihedral) for y in obs)
                assert log_likelihood(theta, Dataset(obs, cfg)) == pytest.approx(
                    direct, rel=LL_RTOL)


class TestKlMonteCarlo:
    def test_identical_signals(self):
        theta = Signal(np.random.default_rng(15).normal(size=6))
        kl, se = kl_monte_carlo(theta, theta, 1.0, 20_000, np.random.default_rng(16))
        assert abs(kl) <= max(3 * se, 1e-12)

    def test_orbit_member(self):
        theta = Signal(np.random.default_rng(17).normal(size=6))
        for dihedral in (False, True):
            member = shift(reflect(theta) if dihedral else theta, 2)
            kl, se = kl_monte_carlo(theta, member, 1.0, 20_000,
                                    np.random.default_rng(18), dihedral=dihedral)
            assert abs(kl) <= max(3 * se, 1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            a, b = Signal(rng.normal(size=5)), Signal(rng.normal(size=5))
            kl, se = kl_monte_carlo(a, b, 1.5, 20_000, rng)
            assert kl >= -3 * se

    def test_mean_separation_floor(self):
        # KL >= ||Delta_1||^2 / (2 sigma^2) up to higher-order terms
        rng = np.random.default_rng(20)
        L, sigma = 8, 2.0
        theta = Signal(rng.normal(size=L))
        phi = Signal(theta.values + 0.3)
        kl, se = kl_monte_carlo(theta, phi, sigma, 200_000, rng)
        floor = L * 0.3**2 / (2 * sigma**2)
        assert kl >= floor * 0.9 - 3 * se

    def test_sigma4_band_for_dilute_direction(self):
        theta0 = Signal.from_natural(np.array([1.0, 1, 0, -1, 0, 0, 0, 0]))
        h = np.zeros(8)
        h[[0, 1, 3]] = [0.05, -0.03, 0.04]
        h[[0, 1, 3]] -= h[[0, 1, 3]].mean()  # keep the first moment fixed
        theta1 = Signal.from_natural(theta0.natural() + h)
        grid = (2.0, 4.0, 8.0)
        rows = kl_monte_carlo(theta0, theta1, grid, 200_000, np.random.default_rng(21))
        vals = [kl * sigma**4 for sigma, (kl, _) in zip(grid, rows)]
        assert max(vals) / min(vals) < 4.0

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_plain_mean_matches_direct_log_densities(self, dihedral):
        # the samples are theta0 + sigma z, z the first n_mc L normals of the
        # rng, drawn here in one call and by the estimator in tiles
        rng = np.random.default_rng(25)
        L, sigma, n_mc = 8, 0.9, 250
        theta0 = Signal(rng.normal(size=L))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=L))
        kl, _ = kl_monte_carlo(theta0, theta, sigma, n_mc, np.random.default_rng(26),
                               dihedral=dihedral, control_variate=False)
        Y = theta0.values + sigma * np.random.default_rng(26).standard_normal(size=(n_mc, L))
        total = sum(direct_log_density(theta0, y, sigma, dihedral)
                    - direct_log_density(theta, y, sigma, dihedral) for y in Y)
        assert kl == pytest.approx(total / n_mc, rel=1e-12)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_path_log_density_invariant_under_the_group(self, dihedral):
        # log p_theta(G y) = log p_theta(y) for every theta, so every t-derivative
        # along theta0 + t d is invariant too: a draw needs no latent G
        rng = np.random.default_rng(27)
        L, sigma = 7, 0.8
        theta0 = Signal(rng.normal(size=L))
        d = 0.4 * rng.normal(size=L)
        y = theta0.values + sigma * rng.normal(size=L)
        base = np.array(path_log_density(theta0, d, y, sigma, dihedral))
        # the oracle's derivatives against central differences
        t = 1e-4
        logs = [direct_log_density(Signal(theta0.values + u * d), y, sigma, dihedral)
                for u in (-t, 0.0, t)]
        assert base[0] == pytest.approx(logs[1], rel=1e-12)
        assert base[1] == pytest.approx((logs[2] - logs[0]) / (2 * t), rel=1e-6)
        assert base[2] == pytest.approx((logs[2] - 2 * logs[1] + logs[0]) / t**2, rel=1e-4)
        for g in group_elements(L, dihedral):
            moved = path_log_density(theta0, d, g.apply(Signal(y)).values, sigma, dihedral)
            np.testing.assert_allclose(moved, base, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("control_variate", [False, True])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_pick_free_agrees_with_pick_drawn(self, dihedral, control_variate):
        # the same estimand from draws with uniformly picked orbit rows
        # (the oracle's `picks`), within 4 combined standard errors
        rng = np.random.default_rng(28)
        theta0 = Signal(rng.normal(size=8))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=8))
        for sigma in (1.0, 2.0, 4.0):
            kl, se = kl_monte_carlo(theta0, theta, sigma, 20_000, np.random.default_rng(29),
                                    dihedral=dihedral, control_variate=control_variate)
            ref, ref_se = kl_masked_jackknife(theta0, theta, sigma, 20_000,
                                              np.random.default_rng(30), dihedral=dihedral,
                                              control_variate=control_variate, picks=True)
            assert abs(kl - ref) <= 4 * np.hypot(se, ref_se), sigma

    @pytest.mark.parametrize("n_mc", [1001, 20_000, 300_000])
    def test_estimate_does_not_depend_on_the_tile(self, n_mc, monkeypatch):
        # tiles of one block each, of one row each and of a size that splits
        # blocks, against the default tiles; at n_mc = 300 000 each block of
        # 3000 rows is longer than a default tile
        rng = np.random.default_rng(32)
        theta0 = Signal(rng.normal(size=8))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=8))

        def run():
            return kl_monte_carlo(theta0, theta, 1.5, n_mc, np.random.default_rng(33),
                                  dihedral=True)

        kl, se = run()
        for rows in (n_mc // 100, 1, 777):
            if rows == 1 and n_mc > 20_000:
                continue  # 300 000 one-row tiles take too long
            # a row of L = 8 dihedral samples takes 8 (2 L + 3 |G| + 4) bytes
            monkeypatch.setattr(mra, "TILE_BYTES", rows * 8 * (2 * 8 + 3 * 16 + 4))
            got_kl, got_se = run()
            assert got_kl == pytest.approx(kl, rel=1e-13), rows
            assert got_se == pytest.approx(se, rel=1e-9), rows

    @pytest.mark.parametrize("n_mc", [250, 20_000])
    @pytest.mark.parametrize("control_variate", [False, True])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_block_sum_jackknife_matches_masked_loop(self, dihedral, control_variate, n_mc):
        # the oracle replays the same draws; seen here: at most 1.2e-15
        # relative on kl and 1.1e-12 on kl_se
        rng = np.random.default_rng(30)
        theta0 = Signal(rng.normal(size=21))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=21))
        kl, se = kl_monte_carlo(theta0, theta, 0.7, n_mc, np.random.default_rng(31),
                                dihedral=dihedral, control_variate=control_variate)
        ref_kl, ref_se = kl_masked_jackknife(theta0, theta, 0.7, n_mc,
                                             np.random.default_rng(31), dihedral=dihedral,
                                             control_variate=control_variate)
        assert kl == pytest.approx(ref_kl, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-9)

    @pytest.mark.parametrize("n_mc", [2, 3, 4, 5])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_control_variates_need_four_samples_per_fit(self, dihedral, n_mc):
        # the smallest jackknife regression is fitted to n_mc - 1 samples, so
        # control variates start at n_mc = 5; below that, the plain mean
        rng = np.random.default_rng(3)
        theta0 = Signal(rng.normal(size=21))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=21))
        args = (theta0, theta, 2.0, n_mc)
        kl, se = kl_monte_carlo(*args, np.random.default_rng(5), dihedral=dihedral)
        plain = kl_monte_carlo(*args, np.random.default_rng(5), dihedral=dihedral,
                               control_variate=False)
        ref_kl, ref_se = kl_masked_jackknife(*args, np.random.default_rng(5),
                                             dihedral=dihedral)
        assert kl == pytest.approx(ref_kl, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-9)
        assert ((kl, se) == plain) == (n_mc < 5)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n_mc):
        theta = Signal(np.arange(4.0))
        with pytest.raises(ValueError, match="need n_mc >= 2, got %d" % n_mc):
            kl_monte_carlo(theta, Signal(theta.values[::-1]), 1.0, n_mc,
                           np.random.default_rng(0))

    @pytest.mark.parametrize("n_mc", [1001, 20_000, 300_000])
    @pytest.mark.parametrize("control_variate", [False, True])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_grid_rows_equal_scalar_calls(self, dihedral, control_variate, n_mc):
        # one tile, several tiles, and blocks of 3000 rows split across
        # tiles: each row of a grid call is a scalar call on the same seed
        rng = np.random.default_rng(34)
        theta0 = Signal(rng.normal(size=8))
        theta = Signal(theta0.values + 0.3 * rng.normal(size=8))
        grid = (0.7, 1.5, 4.0)
        kw = dict(dihedral=dihedral, control_variate=control_variate)
        rows = kl_monte_carlo(theta0, theta, grid, n_mc, np.random.default_rng(35), **kw)
        assert rows == [kl_monte_carlo(theta0, theta, sigma, n_mc, np.random.default_rng(35),
                                       **kw) for sigma in grid]

    def test_one_sigma_grid_is_the_scalar_pair(self):
        theta0 = Signal(np.random.default_rng(36).normal(size=6))
        theta = Signal(theta0.values[::-1])
        for grid in ([2.5], (2.5,)):
            assert kl_monte_carlo(theta0, theta, grid, 3000, np.random.default_rng(37)) == [
                kl_monte_carlo(theta0, theta, 2.5, 3000, np.random.default_rng(37))]

    @pytest.mark.parametrize("grid", [[], (), [2.0, True], [float("nan")], [0.0], [2.0, 0]])
    def test_bad_sigma_grid_rejected(self, grid):
        theta = Signal(np.arange(4.0))
        with pytest.raises(ValueError, match="sigma_grid"):
            kl_monte_carlo(theta, Signal(theta.values[::-1]), grid, 100,
                           np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scalar_sigma_rejected(self, sigma):
        theta = Signal(np.arange(4.0))
        with pytest.raises(ValueError, match="noise scale must be positive and finite"):
            kl_monte_carlo(theta, Signal(theta.values[::-1]), sigma, 100,
                           np.random.default_rng(0))

    def test_control_variate_reduces_error(self):
        theta0 = Signal(np.random.default_rng(22).normal(size=8))
        theta1 = Signal(theta0.values + 0.05 * np.random.default_rng(23).normal(size=8))
        _, se_cv = kl_monte_carlo(theta0, theta1, 4.0, 50_000,
                                  np.random.default_rng(24))
        _, se_raw = kl_monte_carlo(theta0, theta1, 4.0, 50_000,
                                   np.random.default_rng(24), control_variate=False)
        assert se_cv < se_raw / 3


class TestRestrictedClass:
    def test_projection_idempotent(self):
        rng = np.random.default_rng(25)
        classes = [
            RestrictedClass("none"),
            RestrictedClass("support-fixed", frozenset({-2, 0, 3})),
            RestrictedClass("symmetric-support-fixed", frozenset({-1, 0, 1})),
            RestrictedClass("magnitude-band", frozenset({-2, 0, 3}), m=0.5, M=2.0),
        ]
        for rc in classes:
            theta = Signal(rng.normal(size=9))
            once, _ = rc.project(theta)
            twice, _ = rc.project(once)
            assert np.array_equal(once.values, twice.values)

    def test_support_zeroing(self):
        rc = RestrictedClass("support-fixed", frozenset({0, 1}))
        out, _ = rc.project(Signal(np.ones(5)))
        assert out.support == {0, 1}

    def test_symmetrization(self):
        rc = RestrictedClass("symmetric-support-fixed", frozenset({-1, 1}))
        out, _ = rc.project(Signal.from_support(5, {-1: 1.0, 1: 3.0}))
        assert out.values[storage_index(5, 1)] == pytest.approx(2.0)
        assert out == reflect(out)

    def test_clamp(self):
        rc = RestrictedClass("magnitude-band", frozenset({0, 1}), m=1.0, M=2.0)
        out, clamped = rc.project(Signal.from_support(5, {0: 0.2, 1: -5.0}))
        assert clamped
        assert out.values[storage_index(5, 0)] == pytest.approx(1.0)
        assert out.values[storage_index(5, 1)] == pytest.approx(-2.0)

    def test_asymmetric_support_rejected(self):
        with pytest.raises(ValueError):
            RestrictedClass("symmetric-support-fixed", frozenset({0, 1}))

    def test_cached_projection_matches_uncached_formula(self):
        # one class object per kind serves every L from its per-L positions,
        # L interleaved; each projection equals the whole-vector mask formula
        # bit for bit, with zero entries on the support and clamps both ways
        classes = [
            RestrictedClass("none"),
            RestrictedClass("support-fixed", frozenset({-2, 0, 3})),
            RestrictedClass("symmetric-support-fixed", frozenset({-3, -1, 0, 1, 3})),
            RestrictedClass("magnitude-band", frozenset({-3, -2, 0, 1, 3}), m=0.5, M=1.5),
        ]
        rng = np.random.default_rng(57)
        for L in [7, 8, 21] * 3:
            for rc in classes:
                values = rng.normal(scale=1.5, size=L)
                values[rng.random(L) < 0.3] = 0.0
                theta = Signal(values)
                (got, got_clamped), (want, want_clamped) = rc.project(theta), \
                    project_reference(rc, theta)
                assert np.array_equal(got.values, want.values) and got_clamped is want_clamped
            out, clamped = classes[3].project(
                Signal.from_support(L, {-3: 0.0, -2: -9.0, 0: 0.1, 1: 1.2}))
            assert clamped and [out.values[storage_index(L, i)] for i in (-3, -2, 0, 1, 3)] == [
                0.5, -1.5, 0.5, 1.2, 0.5]

    def test_symmetric_support_holds_half_length(self):
        # at L = 8, 4 and -4 are one point, its own mirror; a symmetric
        # support must name both to pass the symmetry check
        rc = RestrictedClass("symmetric-support-fixed", frozenset({-4, -1, 1, 4}))
        theta = Signal(np.random.default_rng(63).normal(size=8))
        got, want = rc.project(theta)[0], project_reference(rc, theta)[0]
        assert np.array_equal(got.values, want.values) and got.support == {-1, 1, 4}

    @pytest.mark.parametrize("entry", [-4.7, True, 6.0, "4"])
    def test_non_integer_support_entry_rejected(self, entry):
        # a float was truncated to its storage position and a boolean read as
        # 0 or 1, so the class was fitted on other entries than those named
        with pytest.raises(ValueError, match="class support entry must be an integer, got %s"
                                             % re.escape(repr(entry))):
            RestrictedClass("magnitude-band", [entry, -3, 4], m=1.0, M=1.2)

    def test_numpy_integer_support_accepted(self):
        rc = RestrictedClass("support-fixed", [np.int64(-2), 0, 3])
        assert rc.support == frozenset({-2, 0, 3})

    def test_support_entries_of_one_residue_rejected(self):
        # 17 = -4 mod 21: the class would have 3 points, not the 4 named
        rc = RestrictedClass("support-fixed", frozenset({-4, 17, 4, 6}))
        with pytest.raises(ValueError, match="class support entries -4 and 17 are one "
                                             "residue mod 21"):
            rc.project(Signal(np.ones(21)))
        out, _ = rc.project(Signal(np.ones(22)))
        assert out.support == {-5, -4, 4, 6}  # 17 = -5 mod 22


class TestSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("G", [2, 21, 42])
    def test_against_float64_logsumexp(self, dtype, G):
        # columns from near ties to logits spread far past the float32 floor;
        # the mass sums |G| rounded exps and the weights take one reciprocal
        # and one product each, so the log-sum-exps (relative to 1 + |lse|),
        # the weights and the column sums err by at most (|G| + 4) eps, eps
        # EPS32 or float64's (seen: at most 2.0, 2.5 and 6.0 eps)
        eps = float(np.finfo(dtype).eps)
        rng = np.random.default_rng(62 + G)
        scale = rng.choice([1e-3, 1.0, 10.0, 60.0], size=3000)
        c = (rng.normal(size=(G, 3000)) * scale + 100 * rng.normal(size=3000)).astype(dtype)
        wide = c.astype(np.float64)
        ref = scipy.special.logsumexp(wide, axis=0)
        lse, w = mra._softmax(c.copy())
        assert lse.dtype == w.dtype == dtype
        bound = (G + 4) * eps
        assert np.all(np.abs(lse - ref) <= bound * (1 + np.abs(ref)))
        assert np.all(np.abs(w - scipy.special.softmax(wide, axis=0)) <= bound)
        assert np.all(np.abs(w.sum(axis=0, dtype=np.float64) - 1) <= bound)
        if dtype == np.float32:
            assert w.min() >= mra.TINY32


class TestEm:
    CFG_SMALL = MraConfig(21, 1e-3)
    RC = RestrictedClass("magnitude-band", frozenset(PLANAR.support), m=1.0, M=1.2)

    def test_near_noiseless(self):
        data = simulate(PLANAR, self.CFG_SMALL, 100, np.random.default_rng(26))
        theta_hat, diag = em_restricted_mle(data, self.RC, PLANAR)
        assert varrho(theta_hat, PLANAR) <= 1e-3
        assert diag["converged"]
        # PLANAR has no rotational symmetry: each posterior sits on one shift
        assert diag["mean_effective_group_size"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_effective_group_size_uniform_at_zero(self, dihedral):
        cfg = MraConfig(9, 0.5, dihedral)
        data = simulate(Signal(np.random.default_rng(45).normal(size=9)), cfg, 40,
                        np.random.default_rng(46))
        _, diag = em_restricted_mle(data, RestrictedClass("none"), Signal.zeros(9),
                                    max_iters=0)
        assert diag["mean_effective_group_size"] == pytest.approx(18 if dihedral else 9,
                                                                  rel=GROUP_SIZE_RTOL)

    @pytest.mark.parametrize("sigma", [0.05, 0.7])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_effective_group_size_matches_entr_oracle(self, sigma, dihedral):
        # period-3 pattern plus a small bump: at sigma = 0.05 the three near
        # shifts share the posterior and every other weight underflows to 0
        rng = np.random.default_rng(48)
        theta = Signal(np.tile([1.0, -0.5, 0.2], 3) + 0.01 * rng.normal(size=9))
        cfg = MraConfig(9, sigma, dihedral)
        data = simulate(theta, cfg, 60, np.random.default_rng(49))
        _, diag = em_restricted_mle(data, RestrictedClass("none"), theta,
                                    max_iters=0)
        logw = np.array([[-np.sum((y - g.apply(theta).values) ** 2) / (2 * sigma**2)
                          for g in group_elements(9, dihedral)]
                         for y in data.observations])
        w = scipy.special.softmax(logw, axis=1)
        entropy = np.sum(scipy.special.entr(w), axis=1)
        if sigma < 0.1:
            assert np.any(w == 0) and np.all(entropy > 0)
        assert diag["mean_effective_group_size"] == pytest.approx(
            np.mean(np.exp(entropy)), rel=GROUP_SIZE_RTOL)

    def test_steps_are_unaligned(self):
        # a projection that rotates: the aligned distance between iterates
        # is small, the unaligned step is not
        class Rotate:
            def project(self, theta):
                return shift(theta, 1), False

        cfg = MraConfig(21, 0.5)
        data = simulate(PLANAR, cfg, 300, np.random.default_rng(50))
        init = Signal(PLANAR.values + 0.1 * np.random.default_rng(51).normal(size=21))
        iterates = [em_restricted_mle(data, Rotate(), init, max_iters=k, tol=0)[0]
                    for k in range(4)]
        _, diag = em_restricted_mle(data, Rotate(), init, max_iters=3, tol=0)
        for k, step in enumerate(diag["varrho_steps"]):
            new, old = iterates[k + 1], iterates[k]
            assert step == pytest.approx(
                np.linalg.norm(new.values - old.values) / np.sqrt(21), rel=1e-12)
            assert step > 2 * varrho(new, old)

    def test_log_likelihood_decreases_listed(self):
        # shrinking towards 0 is not the nearest point of any class, so it
        # can lower the likelihood; every fall of the trace must be listed
        class Shrink:
            def project(self, theta):
                return Signal(0.5 * theta.values), False

        cfg = MraConfig(21, 0.3)
        data = simulate(PLANAR, cfg, 300, np.random.default_rng(47))
        _, diag = em_restricted_mle(data, Shrink(), Signal(2 * PLANAR.values),
                                    max_iters=10, tol=0)
        trace = diag["log_likelihood_trace"]
        falls = [{"iteration": k, "drop": trace[k - 1] - trace[k]}
                 for k in range(1, len(trace)) if trace[k] < trace[k - 1]]
        assert falls
        assert diag["log_likelihood_decreases"] == falls

    def test_rounding_is_not_a_decrease(self):
        # run past convergence, the iterates agree to float32 rounding and the
        # trace wobbles by the rounding of its float32 log-sum-exps, within
        # the bound EPS32 sqrt(L sum_i lse_i^2) of one pass (here from float64
        # log-sum-exps at theta_hat); no such fall is listed
        data = simulate(PLANAR, MraConfig(21, 1.0), 500, np.random.default_rng(53))
        theta_hat, diag = em_restricted_mle(data, self.RC, PLANAR, max_iters=40, tol=0)
        trace = diag["log_likelihood_trace"]
        falls = [trace[k - 1] - trace[k] for k in range(1, len(trace)) if trace[k] < trace[k - 1]]
        lse = scipy.special.logsumexp(
            theta_hat.values[orbit_index(21, False)] @ data.observations.T.astype(float), axis=0)
        assert falls and max(falls) <= EPS32 * np.sqrt(21 * np.sum(lse**2))
        assert diag["log_likelihood_decreases"] == []

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_fixed_point_matches_float64_oracle(self, dihedral, sigma):
        # the float32 fit runs until its step is exactly 0.0, the float64
        # oracle until its step is below 1e-10; their fixed points agree within
        # 1e-5 varrho (seen: at most 2.7e-7), far below the statistical error
        data = simulate(PLANAR, MraConfig(21, sigma, dihedral), 2000, np.random.default_rng(60))
        init = Signal(PLANAR.values + 0.1 * np.random.default_rng(61).normal(size=21))
        theta_hat, diag = em_restricted_mle(data, self.RC, init, max_iters=2000, tol=1e-10)
        ref, iters = em_fit(self.RC, init, data.observations, sigma, dihedral,
                            max_iters=2000, tol=1e-10)
        assert diag["converged"] and iters < 2000
        assert varrho(theta_hat, ref, dihedral=dihedral) <= 1e-5

    def test_step_reaches_exactly_zero(self):
        # a pass reads theta only through float32(theta / sigma^2): once an
        # update moves theta by less than that rounding, the next step is 0.0
        # and every later pass repeats the same fixed point
        data = simulate(PLANAR, MraConfig(21, 1.0), 500, np.random.default_rng(53))
        _, diag = em_restricted_mle(data, self.RC, PLANAR, max_iters=60, tol=0)
        steps, trace = diag["varrho_steps"], diag["log_likelihood_trace"]
        first = steps.index(0.0)
        assert first < 59 and all(step == 0.0 for step in steps[first:])
        assert len(set(trace[first:])) == 1

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_fit_does_not_depend_on_the_read_tile(self, dihedral, monkeypatch):
        # 40 000 rows read in 4 (cyclic) or 7 (dihedral) tiles against one:
        # each tile's M-step product W @ Y is one float32 GEMM, so the tiles
        # move only its float32 rounding.  Seen here over 10 passes: at most
        # 1.1 EPS32 on theta and 1e-3 EPS32 relative on a log-likelihood
        L, n = 21, 40_000
        data = simulate(PLANAR, MraConfig(L, 1.0, dihedral), n, np.random.default_rng(56))
        assert len(list(data.blocks(4 * L * (1 + dihedral)))) == (7 if dihedral else 4)
        init = Signal(PLANAR.values + 0.05)
        tiled, tiled_diag = em_restricted_mle(data, self.RC, init, max_iters=10, tol=0)
        monkeypatch.setattr(mra, "TILE_BYTES", 4 * 2 * L * n)
        one, one_diag = em_restricted_mle(data, self.RC, init, max_iters=10, tol=0)
        assert np.max(np.abs(tiled.values - one.values)) <= 8 * EPS32
        assert tiled_diag["log_likelihood_trace"] == pytest.approx(
            one_diag["log_likelihood_trace"], rel=EPS32)

    def test_row_norms_summed_once_in_float64(self, monkeypatch):
        # the first pass appends each block's sum_i ||y_i||^2 and max_i ||y_i||
        # in float64; a later pass reads the list and adds nothing
        monkeypatch.setattr(mra, "TILE_BYTES", 64 * 4 * 21)
        data = simulate(PLANAR, MraConfig(21, 0.7), 300, np.random.default_rng(55))
        idx, norms = orbit_index(21, False), []
        for _ in range(2):
            for _ in mra._posteriors(PLANAR.values, data, idx, norms):
                pass
            assert len(norms) == 5
        blocks = [block.astype(np.float64) for block in data.blocks(4 * 21)]
        assert [ysq for ysq, _ in norms] == pytest.approx(
            [np.sum(block**2) for block in blocks], rel=1e-14)
        assert [ymax for _, ymax in norms] == pytest.approx(
            [np.linalg.norm(block, axis=1).max() for block in blocks], rel=1e-14)

    @pytest.mark.parametrize("max_iters", [3, 200])
    def test_final_log_likelihood_at_theta_hat(self, max_iters):
        # the last pass gives the diagnostics, whether the fit converged or
        # ran out of iterations
        data = simulate(PLANAR, MraConfig(21, 0.5), 300, np.random.default_rng(52))
        init = Signal(PLANAR.values + 0.2 * np.random.default_rng(54).normal(size=21))
        theta_hat, diag = em_restricted_mle(data, self.RC, init, max_iters=max_iters)
        assert diag["converged"] is (max_iters == 200)
        assert diag["iterations"] == len(diag["varrho_steps"]) == len(
            diag["log_likelihood_trace"])
        assert (max_iters == 200) is (diag["iterations"] < max_iters)
        assert diag["final_log_likelihood"] == log_likelihood(theta_hat, data)

    def test_self_consistency(self):
        cfg = MraConfig(21, 0.3)
        n = 2000
        data = simulate(PLANAR, cfg, n, np.random.default_rng(27))
        theta_hat, _ = em_restricted_mle(data, self.RC, PLANAR)
        assert varrho(theta_hat, PLANAR) <= 10 / np.sqrt(n)

    def test_surrogate_monotone(self):
        cfg = MraConfig(21, 0.5)
        data = simulate(PLANAR, cfg, 500, np.random.default_rng(28))
        init = Signal(PLANAR.values + 0.2 * np.random.default_rng(29).normal(size=21))
        # the unprojected EM step from each projected iterate theta_k must not
        # lower the likelihood: one unrestricted iteration from theta_k reports
        # l(theta_k) as its trace and l(M-step of theta_k) as its final value
        for k in range(20):
            theta_k = em_restricted_mle(data, self.RC, init, max_iters=k)[0]
            _, diag = em_restricted_mle(data, RestrictedClass("none"), theta_k, max_iters=1)
            assert diag["final_log_likelihood"] >= diag["log_likelihood_trace"][0] - 1e-9

    def test_end_to_end_recovery(self):
        cfg = MraConfig(21, 0.3)
        data = simulate(PLANAR, cfg, 2000, np.random.default_rng(30))
        from mralab.beltway import recover_from_power_spectrum
        from mralab.spectral import power_spectrum
        cands = recover_from_power_spectrum(power_spectrum(PLANAR), s=5, m=1.0, tol=1e-8)
        init = min(
            (Signal(sgn * c.values) for c in cands for sgn in (1.0, -1.0)),
            key=lambda c: varrho(c, PLANAR, dihedral=True))
        theta_hat, _ = em_restricted_mle(data, self.RC, init)
        assert min(varrho(theta_hat, Signal(sgn * PLANAR.values), dihedral=True)
                   for sgn in (1.0, -1.0)) <= 0.05

    def test_nonconvergence_flagged(self):
        cfg = MraConfig(21, 1.0)
        data = simulate(PLANAR, cfg, 200, np.random.default_rng(31))
        _, diag = em_restricted_mle(data, self.RC, PLANAR, max_iters=1,
                                    tol=1e-300)
        assert not diag["converged"]
        assert diag["iterations"] == 1

    def test_empty_dataset_rejected(self):
        data = Dataset(np.empty((0, 21)), self.CFG_SMALL)
        with pytest.raises(ValueError, match="empty"):
            em_restricted_mle(data, self.RC, PLANAR)

    @pytest.mark.parametrize("L", [2, 7, 8])
    @pytest.mark.parametrize("dihedral", [False, True])
    def test_one_iteration_is_posterior_average(self, L, dihedral):
        # brute force: average over rows of sum_G w_i(G) G^-1 y_i, with
        # w_i(G) proportional to exp(<y_i, G theta> / sigma^2)
        rng = np.random.default_rng(40 + L)
        sigma = 0.8
        cfg = MraConfig(L, sigma, dihedral)
        theta = Signal(rng.normal(size=L))
        data = simulate(theta, cfg, 30, rng)
        init = Signal(theta.values + 0.3 * rng.normal(size=L))
        elems = group_elements(L, dihedral)
        acc = np.zeros(L)
        for y in data.observations:
            logits = np.array([np.dot(y, g.apply(init).values) for g in elems]) / sigma**2
            w = np.exp(logits - logits.max())
            w /= w.sum()
            acc += sum(wg * g.inverse(L).apply(Signal(y)).values for wg, g in zip(w, elems))
        theta_hat, diag = em_restricted_mle(data, RestrictedClass("none"), init,
                                            max_iters=1, tol=0)
        assert diag["iterations"] == 1
        np.testing.assert_allclose(theta_hat.values, acc / data.n, rtol=0, atol=THETA_ATOL)

    @pytest.mark.parametrize("dihedral", [False, True])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 0.3, 1.7])
    def test_one_iteration_matches_divide_after_product(self, sigma, dihedral):
        # the oracle runs in float64 on the same stored rows; the fit's float32
        # logits, softmax and M-step products round within THETA_ATOL and LL_RTOL
        rng = np.random.default_rng(45)
        cfg = MraConfig(21, sigma, dihedral)
        data = simulate(PLANAR, cfg, 2000, rng)
        init = Signal(PLANAR.values + 0.2 * rng.normal(size=21))
        theta_hat, diag = em_restricted_mle(data, RestrictedClass("none"), init,
                                            max_iters=1, tol=0)
        update, ll = em_iteration(init, data.observations, sigma, dihedral)
        np.testing.assert_allclose(theta_hat.values, update, rtol=0, atol=THETA_ATOL)
        assert diag["log_likelihood_trace"][0] == pytest.approx(ll, rel=LL_RTOL)

    def test_no_subnormal_weights(self, monkeypatch):
        # a full-support Gaussian theta at L=101, sigma=1: about 39% of the
        # float32 weights would be subnormal, which slows W @ Y some 40-fold
        theta = Signal(np.random.default_rng(0).normal(size=101))
        data = simulate(theta, MraConfig(101, 1.0), 2500, np.random.default_rng(0))
        idx = orbit_index(101, False)
        c = theta.values.astype(np.float32)[idx] @ data.observations.T
        raw = np.exp(c - c.max(axis=0)) / np.exp(c - c.max(axis=0)).sum(axis=0)
        assert np.mean((raw > 0) & (raw < mra.TINY32)) > 0.3
        for *_, w in mra._posteriors(theta.values, data, idx, []):
            assert w.dtype == np.float32 and w.min() >= mra.TINY32
        fits = [em_restricted_mle(data, RestrictedClass("none"), theta, max_iters=k, tol=0)
                for k in (1, 3)]
        update, ll = em_iteration(theta, data.observations, 1.0)
        np.testing.assert_allclose(fits[0][0].values, update, rtol=0, atol=THETA_ATOL)
        assert fits[0][1]["log_likelihood_trace"][0] == pytest.approx(ll, rel=LL_RTOL)
        # against the same fit with subnormal weights (a floor far below them)
        monkeypatch.setattr(mra, "TINY32", 1e-300)
        theta_sub, diag_sub = em_restricted_mle(data, RestrictedClass("none"), theta,
                                                max_iters=3, tol=0)
        np.testing.assert_allclose(fits[1][0].values, theta_sub.values, rtol=0, atol=THETA_ATOL)
        assert fits[1][1]["final_log_likelihood"] == pytest.approx(
            diag_sub["final_log_likelihood"], rel=LL_RTOL)

    @pytest.mark.parametrize("dihedral", [False, True])
    def test_first_trace_is_log_likelihood_at_projected_init(self, dihedral):
        rng = np.random.default_rng(44)
        cfg = MraConfig(8, 0.9, dihedral)
        data = simulate(Signal(rng.normal(size=8)), cfg, 25, rng)
        rc = RestrictedClass("support-fixed", frozenset({-2, 0, 1, 3}))
        init = Signal(rng.normal(size=8))
        _, diag = em_restricted_mle(data, rc, init, max_iters=1, tol=0)
        start, _ = rc.project(init)
        direct = sum(direct_log_density(start, y, 0.9, dihedral) for y in data.observations)
        assert diag["log_likelihood_trace"][0] == pytest.approx(direct, rel=LL_RTOL)

    def test_dihedral_em_runs(self):
        cfg = MraConfig(21, 0.2, dihedral=True)
        data = simulate(PLANAR, cfg, 1000, np.random.default_rng(32))
        theta_hat, _ = em_restricted_mle(data, self.RC, PLANAR)
        assert min(varrho(theta_hat, Signal(s * PLANAR.values), dihedral=True)
                   for s in (1.0, -1.0)) <= 0.05
