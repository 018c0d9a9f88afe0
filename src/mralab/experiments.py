"""Reproducible experiment harness: noise-exponent rate scans, sparsity
scans, and KL-curvature scans, with CSV record output and JSON fit summaries.

Every cell derives its RNG deterministically from (seed, grid indices, trial),
so identical configs reproduce identical records bit for bit.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .gensig import DiluteClassSpec, gen_collision_free, gen_symm_interval
from .mra import (MraConfig, RestrictedClass, StreamingDataset, em_restricted_mle,
                  kl_monte_carlo, simulate)
from .probes import adversarial_direction
from .ring import Signal, std_offset, varrho

SCENARIOS = ("dilute-rate", "fullsupport-rate", "sparsity-scan", "kl-curvature-scan")

#: streaming datasets beyond this size are regenerated per pass
IN_MEMORY_LIMIT = 2_000_000


def config_hash(cfg: dict) -> str:
    """First 16 hex digits of the sha256 of the key-sorted JSON of cfg."""
    blob = json.dumps(cfg, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ExperimentFailureError(RuntimeError):
    """Too many cells failed, or an acceptance window was missed."""


@dataclass
class ExperimentConfig:
    scenario: str
    L: int
    sigma_grid: tuple
    seed: int
    trials: int = 1
    s_grid: tuple = ()
    n_base: int = 1000
    n_rule: str = "sigma4"
    signal: dict | None = None
    dilute: dict = field(default_factory=dict)
    em: dict = field(default_factory=dict)
    kl: dict = field(default_factory=dict)
    branch: str = "dilute"
    schema: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError("unknown scenario %r" % (self.scenario,))
        if self.schema != 1:
            raise ValueError("unsupported config schema %r" % (self.schema,))
        self.sigma_grid = tuple(float(x) for x in self.sigma_grid)
        self.s_grid = tuple(int(x) for x in self.s_grid)
        if not self.sigma_grid:
            raise ValueError("sigma grid must be nonempty")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.n_rule not in ("fixed", "sigma4"):
            raise ValueError("n_rule must be 'fixed' or 'sigma4'")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)

    def hash(self) -> str:
        return config_hash(asdict(self))

    def n_for(self, sigma: float) -> int:
        if self.n_rule == "fixed":
            return int(self.n_base)
        return int(round(self.n_base * sigma**4))


@dataclass
class ExperimentResult:
    scenario: str
    config_hash: str
    seed: int
    records: list
    fits: dict

    def to_csv(self, path):
        if not self.records:
            return
        keys = sorted({k for r in self.records for k in r})
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for r in self.records:
                w.writerow(r)

    def summary_dict(self) -> dict:
        return {
            "schema": 1,
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "n_records": len(self.records),
            "fits": self.fits,
        }

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, default=list)


def fit_loglog_slope(x, y):
    """Least-squares slope of log y on log x; None for degenerate grids."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if np.unique(x).size < 2:
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _fit_medians(values_by_x: dict, seed: int):
    """Per-x medians, their log-log slope, and a percentile CI for that slope
    from 500 resamplings of each x's values; an x without values is skipped."""
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


def _count_failures(records: list) -> int:
    """Failed cells; more than 10% of them fails the whole scan."""
    failures = sum(r["failed"] for r in records)
    if failures > 0.10 * len(records):
        raise ExperimentFailureError("cell failure rate %d/%d exceeds 10%%"
                                     % (failures, len(records)))
    return failures


def _dilute_spec(cfg: ExperimentConfig, s: int) -> DiluteClassSpec:
    d = cfg.dilute
    return DiluteClassSpec(L=cfg.L, s=s,
                           m=float(d.get("m", 1.0)),
                           M=float(d.get("M", 1.0)),
                           eps=float(d.get("eps", 1.0)))


def _base_signal(cfg: ExperimentConfig, s: int, rng) -> Signal:
    if cfg.signal is not None:
        return Signal.from_json_dict(cfg.signal)
    if cfg.scenario == "fullsupport-rate" or (cfg.scenario == "kl-curvature-scan"
                                              and cfg.kl.get("direction") == "adversarial"):
        v = rng.normal(size=cfg.L)
        v[v == 0] = 1.0
        return Signal(v)
    return gen_collision_free(_dilute_spec(cfg, s), rng)


def _support_perturbation(theta0: Signal, h_norm: float, rng,
                          demean: bool = True) -> Signal:
    """Random direction on supp(theta0); mean-zero by default so the
    first-moment KL term cannot mask the second-order curvature."""
    off = std_offset(theta0.L)
    idx = np.array(sorted((int(i) + off) % theta0.L for i in theta0.support))
    h = np.zeros(theta0.L)
    g = rng.normal(size=idx.size)
    if demean and idx.size > 1:
        g -= g.mean()
    h[idx] = g / np.linalg.norm(g) * h_norm
    return Signal(h)


def _make_dataset(theta0, mcfg, n, seed):
    if n > IN_MEMORY_LIMIT:
        # StreamingDataset keys its chunks on (seed, chunk index), so flatten
        flat = int(np.random.SeedSequence(list(seed)).generate_state(1)[0])
        return StreamingDataset(theta0, mcfg, n, flat)
    return simulate(theta0, mcfg, n, np.random.default_rng(seed))


def _em_cell(cfg: ExperimentConfig, theta0: Signal, sigma: float, n: int,
             cell_seed: tuple) -> dict:
    mcfg = MraConfig(cfg.L, sigma)
    data = _make_dataset(theta0, mcfg, n, cell_seed)
    em = cfg.em
    policy = em.get("init", "perturbed-truth")
    rng = np.random.default_rng(cell_seed + (7,))
    if policy == "truth":
        init = theta0
    elif policy == "perturbed-truth":
        scale = float(em.get("init_perturb", 0.1))
        init = Signal(theta0.values + _support_perturbation(theta0, scale, rng).values)
    elif policy == "adversarial":
        h = adversarial_direction(theta0, 1.0)
        h_norm = float(em.get("init_perturb", 0.1))
        init = Signal(theta0.values + h.values * (h_norm / h.norm()))
    else:
        raise ValueError("unknown init policy %r" % (policy,))
    if cfg.scenario == "dilute-rate" or cfg.branch == "dilute" and cfg.scenario == "sparsity-scan":
        spec = _dilute_spec(cfg, len(theta0.support))
        rclass = RestrictedClass("magnitude-band", frozenset(theta0.support),
                                 m=spec.m, M=spec.M)
    else:
        rclass = RestrictedClass("none")
    t0 = time.perf_counter()
    theta_hat, diag = em_restricted_mle(
        data, mcfg, rclass, init,
        max_iters=int(em.get("max_iters", 200)),
        tol=float(em.get("tol", 1e-7)))
    err = varrho(theta_hat, theta0)
    return {
        "varrho": float(err),
        "sqrt_n_varrho": float(np.sqrt(n) * err),
        "iterations": diag["iterations"],
        "converged": diag["converged"],
        "wall_time": time.perf_counter() - t0,
    }


def run_rate_scan(cfg: ExperimentConfig) -> ExperimentResult:
    """EM error vs noise scale; fits the slope of log median sqrt(n) varrho."""
    if cfg.scenario not in ("dilute-rate", "fullsupport-rate"):
        raise ValueError("rate scan needs a rate scenario")
    s = cfg.s_grid[0] if cfg.s_grid else int(cfg.dilute.get("s", 3))
    theta0 = _base_signal(cfg, s, np.random.default_rng((cfg.seed, 0)))
    records = []
    values_by_sigma = {sig: [] for sig in cfg.sigma_grid}
    for i, sigma in enumerate(cfg.sigma_grid):
        n = cfg.n_for(sigma)
        for t in range(cfg.trials):
            rec = {"sigma": sigma, "n": n, "s": s, "L": cfg.L, "trial": t,
                   "seed": cfg.seed, "failed": False}
            try:
                rec.update(_em_cell(cfg, theta0, sigma, n, (cfg.seed, 1, i, t)))
                values_by_sigma[sigma].append(rec["sqrt_n_varrho"])
            except Exception as exc:  # cell failures are recorded, not fatal
                rec["failed"] = True
                rec["error"] = repr(exc)
            records.append(rec)
    failures = _count_failures(records)
    medians, slope, ci = _fit_medians(values_by_sigma, cfg.seed)
    fits = {"sigma_exponent": slope, "sigma_exponent_ci": ci,
            "medians": medians, "failures": failures}
    return ExperimentResult(cfg.scenario, cfg.hash(), cfg.seed, records, fits)


def run_sparsity_scan(cfg: ExperimentConfig) -> ExperimentResult:
    """Sparsity dependence of the EM rate (dilute) or of the KL curvature
    (moderate branch, exploratory)."""
    if cfg.scenario != "sparsity-scan":
        raise ValueError("config scenario must be sparsity-scan")
    if not cfg.s_grid:
        raise ValueError("sparsity scan needs a nonempty s grid")
    sigma = cfg.sigma_grid[0]
    records = []
    values_by_s = {s: [] for s in cfg.s_grid}
    for i, s in enumerate(cfg.s_grid):
        gen_rng = np.random.default_rng((cfg.seed, 2, i))
        for t in range(cfg.trials):
            rec = {"sigma": sigma, "s": s, "L": cfg.L, "trial": t,
                   "seed": cfg.seed, "failed": False}
            try:
                if cfg.branch == "dilute":
                    theta0 = gen_collision_free(_dilute_spec(cfg, s), gen_rng)
                    n = cfg.n_for(sigma)
                    rec["n"] = n
                    out = _em_cell(cfg, theta0, sigma, n, (cfg.seed, 3, i, t))
                    rec.update(out)
                    values_by_s[s].append(out["sqrt_n_varrho"] / sigma**2)
                else:
                    zeta = float(cfg.kl.get("zeta", 1.0))
                    theta0 = gen_symm_interval(cfg.L, s, zeta, gen_rng)
                    h_norm = float(cfg.kl.get("h_norm", 1e-2))
                    rng = np.random.default_rng((cfg.seed, 3, i, t))
                    h = _support_perturbation(theta0, h_norm, rng)
                    kl, se = kl_monte_carlo(theta0, Signal(theta0.values + h.values),
                                            sigma, int(cfg.kl.get("n_mc", 100_000)), rng)
                    rec["kl"], rec["kl_se"] = kl, se
                    rec["curvature"] = kl / h_norm**2
                    values_by_s[s].append(max(rec["curvature"], 1e-300))
            except Exception as exc:
                rec["failed"] = True
                rec["error"] = repr(exc)
            records.append(rec)
    failures = _count_failures(records)
    medians, slope, ci = _fit_medians(values_by_s, cfg.seed)
    fits = {"s_exponent": slope, "s_exponent_ci": ci, "medians": medians,
            "failures": failures, "branch": cfg.branch}
    if cfg.branch == "dilute" and slope is not None:
        fits["passes"] = bool(-0.3 <= slope <= 0.3)
    elif slope is not None:
        fits["passes"] = bool(slope <= 3.5 + 0.5)
    return ExperimentResult(cfg.scenario, cfg.hash(), cfg.seed, records, fits)


def run_kl_curvature_scan(cfg: ExperimentConfig) -> ExperimentResult:
    """KL(theta0 || theta0 + h)/||h||^2 across sigma; fits the sigma exponent."""
    if cfg.scenario != "kl-curvature-scan":
        raise ValueError("config scenario must be kl-curvature-scan")
    direction = cfg.kl.get("direction", "dilute")
    s = cfg.s_grid[0] if cfg.s_grid else int(cfg.dilute.get("s", 3))
    rng0 = np.random.default_rng((cfg.seed, 0))
    theta0 = _base_signal(cfg, s, rng0)
    h_norm = float(cfg.kl.get("h_norm", 0.1))
    if direction == "adversarial":
        h = adversarial_direction(theta0, 1.0)
        h = Signal(h.values * (h_norm / h.norm()))
    elif direction == "dilute":
        h = _support_perturbation(theta0, h_norm, rng0)
    else:
        raise ValueError("unknown direction %r" % (direction,))
    theta1 = Signal(theta0.values + h.values)
    n_mc = int(cfg.kl.get("n_mc", 100_000))
    records = []
    values_by_sigma = {sig: [] for sig in cfg.sigma_grid}
    for i, sigma in enumerate(cfg.sigma_grid):
        for t in range(cfg.trials):
            rng = np.random.default_rng((cfg.seed, 4, i, t))
            kl, se = kl_monte_carlo(theta0, theta1, sigma, n_mc, rng)
            curv = kl / h.norm() ** 2
            records.append({"sigma": sigma, "trial": t, "L": cfg.L, "s": s,
                            "direction": direction, "kl": kl, "kl_se": se,
                            "curvature": curv, "seed": cfg.seed, "failed": False})
            values_by_sigma[sigma].append(max(curv, 1e-300))
    medians, slope, ci = _fit_medians(values_by_sigma, cfg.seed)
    window = (-4.6, -3.4) if direction == "dilute" else (-6.8, -5.2)
    fits = {"curvature_exponent": slope, "curvature_exponent_ci": ci,
            "medians": medians, "direction": direction, "window": list(window)}
    if slope is not None:
        fits["passes"] = bool(window[0] <= slope <= window[1])
    return ExperimentResult(cfg.scenario, cfg.hash(), cfg.seed, records, fits)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.scenario in ("dilute-rate", "fullsupport-rate"):
        return run_rate_scan(cfg)
    if cfg.scenario == "sparsity-scan":
        return run_sparsity_scan(cfg)
    return run_kl_curvature_scan(cfg)
