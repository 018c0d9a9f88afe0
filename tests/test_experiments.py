import dataclasses
import json

import numpy as np
import pytest

from mralab import experiments, mra
from mralab.experiments import (ExperimentConfig, ExperimentFailureError,
                                ExperimentResult, _fit_medians,
                                _support_perturbation, fit_loglog_slope,
                                run_experiment)
from mralab.gensig import DiluteClassSpec, gen_collision_free
from mralab.mra import Dataset, MraConfig, RestrictedClass, em_restricted_mle, simulate
from mralab.ring import Signal


class TestConfig:
    def test_scenario_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="nope", L=8, sigma_grid=(1.0,), seed=0)

    def test_empty_sigma_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(), seed=0)

    def test_n_rule_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0,),
                             seed=0, n_rule="linear")

    def test_schema_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0,),
                             seed=0, schema=2)

    @pytest.mark.parametrize("grid", [2.0, "2", [True], [None]])
    def test_sigma_grid_not_a_list_of_numbers_rejected(self, grid):
        with pytest.raises(ValueError, match="sigma_grid"):
            ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=grid, seed=0)

    @pytest.mark.parametrize("scenario", ["dilute-rate", "kl-curvature-scan"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_sigma_rejected(self, scenario, bad):
        with pytest.raises(ValueError, match="sigma_grid"):
            ExperimentConfig(scenario=scenario, L=8, sigma_grid=(bad, 1.0), seed=0)

    def test_n_base_below_one_observation_rejected(self):
        # sigma4 rule: round(10 * 0.25^4) = 0 observations
        with pytest.raises(ValueError, match="n_base"):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(0.25, 1.0),
                             seed=0, n_base=10)
        with pytest.raises(ValueError, match="n_base"):
            ExperimentConfig(scenario="sparsity-scan", L=16, sigma_grid=(1.0,), seed=0,
                             s_grid=(2,), n_base=0, n_rule="fixed")
        # KL scans draw n_mc samples, not n_for(sigma) observations
        ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=(0.25, 1.0),
                         seed=0, n_base=10)
        ExperimentConfig(scenario="sparsity-scan", L=16, sigma_grid=(1.0,), seed=0,
                         s_grid=(2,), n_base=0, n_rule="fixed", branch="moderate")

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_kl_n_mc_below_two_rejected(self, n_mc):
        # a scan cell would record the error and go on, so the config checks it
        with pytest.raises(ValueError, match="need kl.n_mc >= 2, got %d" % n_mc):
            ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=(2.0,), seed=0,
                             s_grid=(3,), kl={"n_mc": n_mc})

    def test_settings_read_once_outside_the_hash(self):
        # each sub-dict key is read once, given or defaulted, into `settings`;
        # the hash covers the config as given
        kl = ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=(2.0,), seed=0)
        moderate = ExperimentConfig(scenario="sparsity-scan", L=16, sigma_grid=(1.0,),
                                    seed=0, s_grid=(2,), branch="moderate")
        assert kl.settings["kl.h_norm"] == 0.1 and moderate.settings["kl.h_norm"] == 1e-2
        assert kl.settings == dict(moderate.settings, **{"kl.h_norm": 0.1})
        assert kl.settings["em.max_iters"] == 200 and kl.settings["kl.n_mc"] == 100_000
        given = ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=(2.0,),
                                 seed=0, kl={"h_norm": 0.1})
        assert given.settings == kl.settings and given.hash() != kl.hash()
        assert "settings" not in dataclasses.asdict(kl)

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0, 2.0),
                             seed=0)
        b = ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0, 2.0),
                             seed=0)
        c = ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0, 2.0),
                             seed=1)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert a.hash() == "2d029ce862f66229"

    def test_branch_validated(self):
        with pytest.raises(ValueError, match="branch"):
            ExperimentConfig(scenario="sparsity-scan", L=16, sigma_grid=(1.0,),
                             seed=0, s_grid=(2,), branch="moderat")

    def test_em_init_validated(self):
        with pytest.raises(ValueError, match="em.init"):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0,),
                             seed=0, em={"init": "perturbed_truth"})

    @pytest.mark.parametrize("sub, key", [("em", "max_iter"), ("kl", "nmc"),
                                          ("dilute", "sparsity"), ("dilute", "s")])
    def test_unknown_sub_key_named(self, sub, key):
        # a misspelt key would otherwise leave its default silently in force;
        # dilute.s is none, since a scan's s comes from its signal
        with pytest.raises(ValueError, match="unknown %s key '%s'" % (sub, key)):
            ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(1.0,),
                             seed=0, **{sub: {key: 1}})

    def test_sparsity_scan_needs_one_sigma(self):
        with pytest.raises(ValueError, match="sigma_grid"):
            ExperimentConfig(scenario="sparsity-scan", L=16,
                             sigma_grid=(1.0, 2.0), seed=0, s_grid=(2, 3))

    def test_signal_length_must_match_l(self):
        signal = Signal.from_support(8, {0: 1.0, 1: -1.0}).to_json_dict()
        with pytest.raises(ValueError, match="signal has length 8 but the config has L=21"):
            ExperimentConfig(scenario="kl-curvature-scan", L=21, sigma_grid=(2.0,),
                             seed=0, signal=signal)
        ExperimentConfig(scenario="kl-curvature-scan", L=8, sigma_grid=(2.0,),
                         seed=0, signal=signal)

    def test_sparsity_scan_rejects_signal(self):
        # a sparsity-scan draws one signal per s, so a configured one would be ignored
        signal = Signal.from_support(64, {0: 5.0, 3: 5.0}).to_json_dict()
        with pytest.raises(ValueError, match="'signal'"):
            ExperimentConfig(scenario="sparsity-scan", L=64, sigma_grid=(0.5,), seed=0,
                             s_grid=(3,), signal=signal)

    def test_from_json_dict_round_trip(self):
        a = ExperimentConfig(scenario="kl-curvature-scan", L=8,
                             sigma_grid=(2.0, 4.0), seed=3,
                             kl={"direction": "dilute", "n_mc": 1000})
        b = ExperimentConfig(**json.loads(json.dumps(
            {"scenario": a.scenario, "L": a.L, "sigma_grid": list(a.sigma_grid),
             "seed": a.seed, "kl": a.kl})))
        assert a.hash() == b.hash()

    def test_n_for(self):
        cfg = ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(2.0,),
                               seed=0, n_base=100, n_rule="sigma4")
        assert cfg.n_for(2.0) == 1600
        fixed = ExperimentConfig(scenario="dilute-rate", L=8, sigma_grid=(2.0,),
                                 seed=0, n_base=100, n_rule="fixed")
        assert fixed.n_for(2.0) == 100


class TestSlopeFit:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog_slope(x, 3.0 * x**-2.5) == pytest.approx(-2.5)

    def test_degenerate_grid_none(self):
        assert fit_loglog_slope([2.0, 2.0], [1.0, 3.0]) is None
        assert fit_loglog_slope([2.0], [1.0]) is None

    def test_nonpositive_dropped(self):
        x = [1.0, 2.0, 4.0, -1.0]
        y = [1.0, 4.0, 16.0, 5.0]
        assert fit_loglog_slope(x, y) == pytest.approx(2.0)


class TestSupportPerturbation:
    SPEC = DiluteClassSpec(L=31, s=5, m=1.0, M=1.0, eps=1.0)

    def test_norm_support_and_mean(self):
        rng = np.random.default_rng(0)
        theta0 = gen_collision_free(self.SPEC, rng)
        h = _support_perturbation(theta0, 1e-2, rng)
        assert h.norm() == pytest.approx(1e-2)
        assert h.support <= theta0.support
        assert abs(h.values.sum()) < 1e-15


SMALL_RATE = dict(scenario="dilute-rate", L=11, sigma_grid=(0.5, 1.0), seed=7,
                  trials=2, s_grid=(3,), n_base=300, n_rule="fixed",
                  dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
                  em={"init": "perturbed-truth", "init_perturb": 0.05,
                      "max_iters": 60})


class TestRateScan:
    def test_records_and_reproducibility(self):
        cfg = ExperimentConfig(**SMALL_RATE)
        res1 = run_experiment(cfg)
        res2 = run_experiment(ExperimentConfig(**SMALL_RATE))
        assert len(res1.records) == 4
        assert all(not r["failed"] for r in res1.records)
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time"}
                            for r in rs]
        assert strip(res1.records) == strip(res2.records)
        assert res1.fits["sigma_exponent"] is not None

    def test_single_sigma_slope_none(self):
        d = dict(SMALL_RATE, sigma_grid=(1.0,), trials=1)
        res = run_experiment(ExperimentConfig(**d))
        assert res.fits["sigma_exponent"] is None

    def test_csv_json_round_trip(self, tmp_path):
        res = run_experiment(ExperimentConfig(**SMALL_RATE))
        csv_path = tmp_path / "records.csv"
        res.to_csv(csv_path)
        import csv as csvmod
        with open(csv_path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == len(res.records)
        assert float(rows[0]["sigma"]) == res.records[0]["sigma"]
        summary = json.loads(json.dumps(res.summary_dict(), sort_keys=True))
        assert summary["config_hash"] == res.config_hash
        assert summary["n_records"] == len(res.records)


    def test_failed_cell_leaves_its_trial_running(self, monkeypatch):
        # 2 sigmas x 6 trials: one failed cell of 12 is within the 10% rule
        cfg = dict(SMALL_RATE, trials=6)
        clean = run_experiment(ExperimentConfig(**cfg)).records
        real = experiments._em_cell

        def flaky(cfg, rec, theta0, rclass, sigma, cell_seed):
            if cell_seed[2:] == (1, 2):  # sigma 1.0, trial 2
                raise FloatingPointError("cell (1, 2) failed")
            return real(cfg, rec, theta0, rclass, sigma, cell_seed)

        monkeypatch.setattr(experiments, "_em_cell", flaky)
        res = run_experiment(ExperimentConfig(**cfg))
        strip = lambda r: {k: v for k, v in r.items() if k != "wall_time"}
        # grid-major order: record 8 is sigma 1.0, trial 2, and record 2 its trial's sigma 0.5
        assert [r["failed"] for r in res.records] == [k == 8 for k in range(12)]
        assert res.records[8]["error"] == repr(FloatingPointError("cell (1, 2) failed"))
        for k, (got, want) in enumerate(zip(res.records, clean)):
            if k != 8:
                assert strip(got) == strip(want)
        assert res.records[2]["trial"] == 2 and "sqrt_n_varrho" in res.records[2]
        assert res.fits["failures"] == 1

    @pytest.mark.parametrize("init", ["truth", "perturbed-truth", "adversarial"])
    def test_each_init_policy(self, init):
        res = run_experiment(ExperimentConfig(**dict(SMALL_RATE, em=dict(SMALL_RATE["em"],
                                                                         init=init))))
        assert len(res.records) == 4 and not any(r["failed"] for r in res.records)
        assert res.fits["failures"] == 0

    def test_full_support_scan(self):
        cfg = dict(scenario="fullsupport-rate", L=9, sigma_grid=(0.5, 1.0), seed=3, trials=2,
                   n_base=300, n_rule="fixed", em={"max_iters": 30})
        res = run_experiment(ExperimentConfig(**cfg))
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time"} for r in rs]
        assert [r["s"] for r in res.records] == [9] * 4  # once the 3 of dilute.s
        assert not any(r["failed"] for r in res.records)
        assert strip(res.records) == strip(run_experiment(ExperimentConfig(**cfg)).records)


class TestSigmaScanSignal:
    """A scan over sigma reads its s, and a rate scan its EM class, off its
    one signal, in setup, before any cell draws."""

    FIVE = Signal.from_support(21, {-8: 1.0, -3: 1.02, 0: -1.01, 2: 1.03, 7: -1.0})
    RATE = dict(scenario="dilute-rate", L=21, sigma_grid=(0.5, 1.0), seed=5, n_base=200,
                n_rule="fixed", dilute={"m": 1.0, "M": 1.05, "eps": 0.5}, em={"max_iters": 20})

    def test_configured_signal_records_its_support_size(self):
        res = run_experiment(ExperimentConfig(**self.RATE, signal=self.FIVE.to_json_dict()))
        assert [r["s"] for r in res.records] == [5, 5]  # once the 3 of dilute.s
        assert not any(r["failed"] for r in res.records)

    def test_inadmissible_signal_refused_before_drawing(self, monkeypatch):
        # (2 + 0.5) 1.05^2 = 2.76 > 2: every cell used to draw its rows, then fail
        calls = []
        monkeypatch.setattr(experiments, "simulate", lambda *a: calls.append(a))
        two = Signal.from_support(21, {0: 1.0, 4: 1.0}).to_json_dict()
        with pytest.raises(ValueError, match="class admissibility requires s >= .* got s=2"):
            run_experiment(ExperimentConfig(**self.RATE, signal=two))
        assert calls == []

    @pytest.mark.parametrize("edit", [
        {"s_grid": (3, 4)},
        {"s_grid": (3,), "signal": FIVE.to_json_dict()},
        {"s_grid": (3,), "scenario": "fullsupport-rate"},
        {"s_grid": (3,), "scenario": "kl-curvature-scan", "kl": {"direction": "adversarial"}}],
        ids=["two-entries", "configured-signal", "full-support", "kl-adversarial"])
    def test_unread_s_grid_refused(self, edit):
        # [3, 4] ran only s = 3, and the other three were recorded and not read
        with pytest.raises(ValueError, match=r"reads one s_grid entry for a drawn dilute "
                                             r"signal and none otherwise, got s_grid \[3"):
            run_experiment(ExperimentConfig(**dict(self.RATE, **edit)))


class TestSparsityScan:
    def test_dilute_branch(self):
        cfg = ExperimentConfig(
            scenario="sparsity-scan", L=31, sigma_grid=(0.5,), seed=11,
            trials=2, s_grid=(3, 4, 5), n_base=300, n_rule="fixed",
            dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
            em={"init": "perturbed-truth", "init_perturb": 0.05, "max_iters": 60})
        res = run_experiment(cfg)
        assert len(res.records) == 6
        assert res.fits["branch"] == "dilute"
        assert res.fits["s_exponent"] is not None

    def test_needs_s_grid(self):
        with pytest.raises(ValueError, match="s_grid"):
            ExperimentConfig(scenario="sparsity-scan", L=16,
                             sigma_grid=(1.0,), seed=0)

    def test_moderate_branch(self):
        cfg = ExperimentConfig(
            scenario="sparsity-scan", L=32, sigma_grid=(2.0,), seed=13,
            trials=1, s_grid=(2, 4, 6), branch="moderate",
            kl={"n_mc": 20_000, "h_norm": 1e-2, "zeta": 1.0})
        res = run_experiment(cfg)
        assert all("kl" in r for r in res.records)
        assert res.fits["s_exponent"] is not None


class TestKlCurvatureScan:
    def test_dilute_direction_window(self):
        cfg = ExperimentConfig(
            scenario="kl-curvature-scan", L=8, sigma_grid=(2.0, 4.0), seed=17,
            trials=1, s_grid=(3,), dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
            kl={"direction": "dilute", "n_mc": 200_000, "h_norm": 0.05})
        res = run_experiment(cfg)
        slope = res.fits["curvature_exponent"]
        assert -5.0 <= slope <= -3.0
        assert res.fits["window"] == [-4.6, -3.4]

    def test_adversarial_window_recorded(self):
        cfg = ExperimentConfig(
            scenario="kl-curvature-scan", L=8, sigma_grid=(2.0, 4.0), seed=19,
            trials=1, kl={"direction": "adversarial", "n_mc": 50_000,
                          "h_norm": 0.1})
        res = run_experiment(cfg)
        assert res.fits["window"] == [-6.8, -5.2]
        assert res.fits["curvature_exponent"] < -4.0

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="kl.direction"):
            ExperimentConfig(scenario="kl-curvature-scan", L=8,
                             sigma_grid=(1.0,), seed=0,
                             kl={"direction": "sideways"})

    KL_TEN_CELLS = dict(scenario="kl-curvature-scan", L=8, seed=23, trials=2,
                        sigma_grid=(1.0, 2.0, 3.0, 4.0, 5.0), s_grid=(3,),
                        dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
                        kl={"direction": "dilute", "n_mc": 2000, "h_norm": 0.05})

    def test_failed_cell_recorded(self, monkeypatch):
        # a trial scores its whole sigma grid in one call, so a failure takes
        # out every cell of that trial: 2 of 20 cells, within the 10% rule
        real, calls = experiments.kl_monte_carlo, []

        def flaky(*args):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("trial 2 failed")
            return real(*args)

        monkeypatch.setattr(experiments, "kl_monte_carlo", flaky)
        res = run_experiment(ExperimentConfig(**{**self.KL_TEN_CELLS, "trials": 10,
                                                 "sigma_grid": (2.0, 4.0)}))
        assert len(calls) == 10
        assert len(res.records) == 20
        # grid-major order: records 2 and 12 are trial 2 at both sigmas
        assert [r["failed"] for r in res.records] == [r["trial"] == 2 for r in res.records]
        for r in res.records:
            assert r.get("error") == (repr(FloatingPointError("trial 2 failed"))
                                      if r["failed"] else None)
        assert res.fits["failures"] == 2

    def test_all_cells_failing_raise(self, monkeypatch):
        def broken(*args):
            raise FloatingPointError("no cell runs")

        monkeypatch.setattr(experiments, "kl_monte_carlo", broken)
        with pytest.raises(ExperimentFailureError):
            run_experiment(ExperimentConfig(**self.KL_TEN_CELLS))


class TestDispatch:
    def test_routes_by_scenario(self):
        res = run_experiment(ExperimentConfig(**SMALL_RATE))
        assert isinstance(res, ExperimentResult)
        assert res.scenario == "dilute-rate"


def _fit_medians_loop(values_by_x: dict, seed: int):
    """Reference bootstrap: one rng.integers call per resampling and x."""
    kept = {k: v for k, v in values_by_x.items() if v}
    medians = {k: float(np.median(v)) for k, v in kept.items()}
    slope = fit_loglog_slope(list(medians), list(medians.values()))
    rng = np.random.default_rng((seed, 999))
    xs = sorted(kept)
    slopes = []
    for _ in range(500):
        meds = []
        for x in xs:
            v = np.asarray(kept[x])
            meds.append(np.median(v[rng.integers(v.size, size=v.size)]))
        sl = fit_loglog_slope(xs, meds)
        if sl is not None:
            slopes.append(sl)
    if not slopes:
        return medians, slope, (None, None)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return medians, slope, (float(lo), float(hi))


def _draws(rng, *sizes):
    return [list(rng.lognormal(size=n)) for n in sizes]


class TestFitMedians:
    """The one-draw bootstrap against the per-resampling loop.  Medians,
    slope and random stream are bit-identical; the CI is compared at a
    relative 1e-12, because one polyfit over all resamplings may solve its
    least-squares problem in a different order than 500 separate fits (seen
    as a few-ulp change from about 8 x values on)."""

    RNG = np.random.default_rng(29)
    CASES = {
        "equal-counts": dict(zip([1.0, 2.0, 4.0], _draws(RNG, 5, 5, 5))),
        "unequal-counts": dict(zip([1.0, 2.0, 4.0, 8.0], _draws(RNG, 3, 7, 1, 20))),
        "single-x": {2.0: _draws(RNG, 6)[0]},
        "zero-x": dict(zip([0.0, 1.0, 3.0, 9.0], _draws(RNG, 4, 5, 2, 3))),
        "many-x": dict(zip(np.arange(1.0, 13.0), _draws(RNG, *range(2, 14)))),
        "empty-x": {1.0: [], 2.0: [1.0, 3.0, 2.0], 3.0: [2.0, 5.0]},
        "zero-medians": {1.0: [0.0, 0.0, 1.0], 2.0: [0.0, 2.0, 3.0],
                         4.0: [1.0, 0.5, 0.0]},
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_loop_oracle(self, case):
        values = self.CASES[case]
        medians, slope, ci = _fit_medians(values, seed=5)
        ref_medians, ref_slope, ref_ci = _fit_medians_loop(values, seed=5)
        assert medians == ref_medians
        assert slope == ref_slope
        if ref_ci == (None, None):
            assert ci == ref_ci
        else:
            np.testing.assert_allclose(ci, ref_ci, rtol=1e-12, atol=0)


class TestMakeDataset:
    """An EM cell's dataset: `mra.simulate` keeps rows of at most
    `mra.IN_MEMORY_LIMIT` bytes in memory and maps the rest from a file."""

    @pytest.mark.parametrize("L", [8, 21, 101])
    def test_streams_exactly_beyond_byte_limit(self, monkeypatch, L):
        # a cell over the limit is spilled: a read-only Dataset over a mapped file
        n = 40
        monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 4 * L * n)
        theta0, cfg = Signal(np.ones(L)), MraConfig(L, 1.0)
        held = simulate(theta0, cfg, n, np.random.default_rng((3, 1)))
        spilled = simulate(theta0, cfg, n + 1, np.random.default_rng((3, 1)))
        assert type(held) is type(spilled) is Dataset
        assert held.observations.flags.writeable
        assert not isinstance(held.observations.base, np.memmap)
        assert not spilled.observations.flags.writeable
        assert isinstance(spilled.observations.base, np.memmap)
        assert spilled.observations.shape == (n + 1, L)

    def test_default_limit_keeps_4_2_million_rows_at_l21(self, monkeypatch):
        # the boundary of the L=21 rate scans, at 4 L = 84 bytes of float32
        # per row: 352e6 // 84 rows.  The draw and the temporary file are
        # stubbed to raise, so no row is drawn and no file is made
        class InMemory(Exception):
            pass

        class Mapped(Exception):
            pass

        def raises(exc):
            def stub(*args):
                raise exc
            return stub

        monkeypatch.setattr(mra, "_draw_block", raises(InMemory))
        monkeypatch.setattr(mra.tempfile, "TemporaryFile", raises(Mapped))
        theta0, cfg = Signal(np.ones(21)), MraConfig(21, 1.0)
        with pytest.raises(InMemory):
            simulate(theta0, cfg, 4_190_476, np.random.default_rng(0))
        with pytest.raises(Mapped):
            simulate(theta0, cfg, 4_190_477, np.random.default_rng(0))

    def test_over_limit_cell_is_drawn_once(self, monkeypatch):
        # an over-limit cell draws each chunk once, however many passes EM makes
        # over it: 4 iterations and the pass at theta_hat read 8 chunks 5 times
        calls = []
        draw = mra._draw_block

        def counted(*args):
            calls.append(args[2])
            return draw(*args)

        monkeypatch.setattr(mra, "_draw_block", counted)
        monkeypatch.setattr(mra, "DEFAULT_CHUNK", 128)
        monkeypatch.setattr(mra, "TILE_BYTES", 128 * 4 * 7)  # EM reads the same 8 blocks
        monkeypatch.setattr(mra, "IN_MEMORY_LIMIT", 0)
        theta0 = Signal(np.random.default_rng(4).normal(size=7))
        data = simulate(theta0, MraConfig(7, 0.8), 1000, np.random.default_rng((3, 1)))
        _, diag = em_restricted_mle(data, RestrictedClass("none"), theta0, max_iters=4, tol=0)
        assert diag["iterations"] == 4
        assert calls == [128] * 7 + [104]
