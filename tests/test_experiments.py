import json

import numpy as np
import pytest

from mralab.experiments import (ExperimentConfig, ExperimentFailureError,
                                ExperimentResult, _support_perturbation,
                                fit_loglog_slope, run_experiment,
                                run_kl_curvature_scan, run_rate_scan,
                                run_sparsity_scan)
from mralab.gensig import DiluteClassSpec, gen_collision_free
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

    def test_from_json_dict_round_trip(self):
        a = ExperimentConfig(scenario="kl-curvature-scan", L=8,
                             sigma_grid=(2.0, 4.0), seed=3,
                             kl={"direction": "dilute", "n_mc": 1000})
        b = ExperimentConfig.from_json_dict(json.loads(json.dumps(
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

    def test_demean_off(self):
        rng = np.random.default_rng(1)
        theta0 = gen_collision_free(self.SPEC, rng)
        h = _support_perturbation(theta0, 1e-2, rng, demean=False)
        assert h.norm() == pytest.approx(1e-2)


SMALL_RATE = dict(scenario="dilute-rate", L=11, sigma_grid=(0.5, 1.0), seed=7,
                  trials=2, n_base=300, n_rule="fixed",
                  dilute={"s": 3, "m": 1.0, "M": 1.05, "eps": 0.5},
                  em={"init": "perturbed-truth", "init_perturb": 0.05,
                      "max_iters": 60})


class TestRateScan:
    def test_records_and_reproducibility(self):
        cfg = ExperimentConfig(**SMALL_RATE)
        res1 = run_rate_scan(cfg)
        res2 = run_rate_scan(ExperimentConfig(**SMALL_RATE))
        assert len(res1.records) == 4
        assert all(not r["failed"] for r in res1.records)
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time"}
                            for r in rs]
        assert strip(res1.records) == strip(res2.records)
        assert res1.fits["sigma_exponent"] is not None

    def test_single_sigma_slope_none(self):
        d = dict(SMALL_RATE, sigma_grid=(1.0,), trials=1)
        res = run_rate_scan(ExperimentConfig(**d))
        assert res.fits["sigma_exponent"] is None

    def test_wrong_scenario_rejected(self):
        cfg = ExperimentConfig(scenario="kl-curvature-scan", L=8,
                               sigma_grid=(1.0,), seed=0)
        with pytest.raises(ValueError):
            run_rate_scan(cfg)

    def test_csv_json_round_trip(self, tmp_path):
        res = run_rate_scan(ExperimentConfig(**SMALL_RATE))
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "summary.json"
        res.to_csv(csv_path)
        res.to_json(json_path)
        import csv as csvmod
        with open(csv_path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == len(res.records)
        assert float(rows[0]["sigma"]) == res.records[0]["sigma"]
        summary = json.loads(json_path.read_text())
        assert summary["config_hash"] == res.config_hash
        assert summary["n_records"] == len(res.records)


class TestSparsityScan:
    def test_dilute_branch(self):
        cfg = ExperimentConfig(
            scenario="sparsity-scan", L=31, sigma_grid=(0.5,), seed=11,
            trials=2, s_grid=(3, 4, 5), n_base=300, n_rule="fixed",
            dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
            em={"init": "perturbed-truth", "init_perturb": 0.05, "max_iters": 60})
        res = run_sparsity_scan(cfg)
        assert len(res.records) == 6
        assert res.fits["branch"] == "dilute"
        assert res.fits["s_exponent"] is not None

    def test_needs_s_grid(self):
        cfg = ExperimentConfig(scenario="sparsity-scan", L=16,
                               sigma_grid=(1.0,), seed=0)
        with pytest.raises(ValueError):
            run_sparsity_scan(cfg)

    def test_moderate_branch(self):
        cfg = ExperimentConfig(
            scenario="sparsity-scan", L=32, sigma_grid=(2.0,), seed=13,
            trials=1, s_grid=(2, 4, 6), branch="moderate",
            kl={"n_mc": 20_000, "h_norm": 1e-2, "zeta": 1.0})
        res = run_sparsity_scan(cfg)
        assert all("kl" in r for r in res.records)
        assert res.fits["s_exponent"] is not None


class TestKlCurvatureScan:
    def test_dilute_direction_window(self):
        cfg = ExperimentConfig(
            scenario="kl-curvature-scan", L=8, sigma_grid=(2.0, 4.0), seed=17,
            trials=1, s_grid=(3,), dilute={"m": 1.0, "M": 1.05, "eps": 0.5},
            kl={"direction": "dilute", "n_mc": 200_000, "h_norm": 0.05})
        res = run_kl_curvature_scan(cfg)
        slope = res.fits["curvature_exponent"]
        assert -5.0 <= slope <= -3.0
        assert res.fits["window"] == [-4.6, -3.4]

    def test_adversarial_window_recorded(self):
        cfg = ExperimentConfig(
            scenario="kl-curvature-scan", L=8, sigma_grid=(2.0, 4.0), seed=19,
            trials=1, kl={"direction": "adversarial", "n_mc": 50_000,
                          "h_norm": 0.1})
        res = run_kl_curvature_scan(cfg)
        assert res.fits["window"] == [-6.8, -5.2]
        assert res.fits["curvature_exponent"] < -4.0

    def test_unknown_direction(self):
        cfg = ExperimentConfig(scenario="kl-curvature-scan", L=8,
                               sigma_grid=(1.0,), seed=0,
                               kl={"direction": "sideways"})
        with pytest.raises(ValueError):
            run_kl_curvature_scan(cfg)


class TestDispatch:
    def test_routes_by_scenario(self):
        res = run_experiment(ExperimentConfig(**SMALL_RATE))
        assert isinstance(res, ExperimentResult)
        assert res.scenario == "dilute-rate"
