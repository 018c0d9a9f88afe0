"""Reproducible experiment harness: `run_experiment` runs noise-exponent rate,
sparsity and KL-curvature scans, with CSV records and JSON fit summaries.

Every cell derives its RNG deterministically from (seed, grid indices, trial),
so identical configs reproduce identical records bit for bit.  An EM cell
draws its rows from that one generator whether `mra.simulate` keeps them in
memory or, past `mra.IN_MEMORY_LIMIT`, in a mapped file, so both give the
same record.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .gensig import DiluteClassSpec, gen_collision_free, gen_symm_interval
from .mra import (MraConfig, RestrictedClass, check_sigma_grid, em_restricted_mle,
                  kl_monte_carlo, simulate)
from .probes import adversarial_direction
from .ring import Signal, integer, number, read_keys, varrho


def config_hash(cfg: dict) -> str:
    """First 16 hex digits of the sha256 of the key-sorted JSON of cfg."""
    blob = json.dumps(cfg, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ExperimentFailureError(RuntimeError):
    """More than 10% of a scan's cells failed."""


def _check_choice(name: str, value, choices: tuple):
    """value, if it is one of choices."""
    if value not in choices:
        raise ValueError("%s must be one of %s, got %r" % (name, ", ".join(choices), value))
    return value


#: config key -> (rule, arg), the same in every probe and scan config that
#: takes the key: the value is read as rule(name, value, arg), where rule is
#: `ring.integer` (arg: the least value), `ring.number` (arg: positive) or
#: `_check_choice` (arg: the choices).  Signals are read by
#: `Signal.from_json_dict`, and grids where they are used.
RULES = {
    "L": (integer, 2), "seed": (integer, 0), "trials": (integer, 1), "n_base": (integer, 0),
    "s": (integer, 1), "max_tries": (integer, 1), "max_iters": (integer, 0), "n_mc": (integer, 2),
    "m": (number, True), "M": (number, True), "eps": (number, True), "a": (number, True),
    "zeta": (number, True), "h_norm": (number, True), "delta": (number, False),
    "tau": (number, False), "init_perturb": (number, False), "tol": (number, False),
    "init": (_check_choice, ("truth", "perturbed-truth", "adversarial")),
    "direction": (_check_choice, ("dilute", "adversarial")),
}

#: scan sub-dict -> key -> default, each read by its `RULES` rule.
#: kl.h_norm's default is 0.1 in a kl-curvature-scan, and the table's 1e-2
#: in a moderate sparsity-scan.
SETTINGS = {
    "dilute": {"s": 3, "m": 1.0, "M": 1.0, "eps": 1.0},
    "em": {"init": "perturbed-truth", "init_perturb": 0.1, "max_iters": 200, "tol": 1e-7},
    "kl": {"direction": "dilute", "n_mc": 100_000, "zeta": 1.0, "h_norm": 1e-2},
}


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
        """Check every field, all before a cell runs, since a scan records a
        cell's error and goes on.  The scan settings, each sub-dict key given
        or defaulted, are read once into `settings` ("kl.n_mc" -> value) and
        a configured signal into `theta0`; neither is a field, so `hash`
        covers the config as given."""
        _check_choice("scenario", self.scenario, tuple(SCENARIOS))
        if self.schema != 1:
            raise ValueError("unsupported config schema %r" % (self.schema,))
        for name in ("L", "seed", "trials", "n_base"):
            RULES[name][0](name, getattr(self, name), RULES[name][1])
        self.sigma_grid = check_sigma_grid(self.sigma_grid)
        if not isinstance(self.s_grid, (list, tuple)):
            raise ValueError("s_grid must be a list of integers, got %r" % (self.s_grid,))
        self.s_grid = tuple(integer("s_grid entry", x, 1) for x in self.s_grid)
        self.theta0 = None if self.signal is None else Signal.from_json_dict(self.signal)
        if self.theta0 is not None and self.theta0.L != self.L:
            raise ValueError("signal has length %d but the config has L=%d"
                             % (self.theta0.L, self.L))
        settings = SETTINGS
        if self.scenario == "kl-curvature-scan":
            settings = dict(SETTINGS, kl=dict(SETTINGS["kl"], h_norm=0.1))
        self.settings = {sub + "." + key: value for sub, keys in settings.items() for key, value
                         in read_keys(sub, getattr(self, sub), keys, RULES, sub + ".").items()}
        _check_choice("n_rule", self.n_rule, ("fixed", "sigma4"))
        _check_choice("branch", self.branch, ("dilute", "moderate"))
        if self.scenario == "sparsity-scan":
            if self.signal is not None:
                raise ValueError("a sparsity-scan draws its signals; drop the 'signal' field")
            if not self.s_grid:
                raise ValueError("s_grid of a sparsity-scan must be nonempty")
            if len(self.sigma_grid) != 1:
                raise ValueError("sigma_grid of a sparsity-scan must hold one sigma, got %d"
                                 % len(self.sigma_grid))
        # these cells fit EM to n_for(sigma) simulated observations
        if (self.scenario in ("dilute-rate", "fullsupport-rate")
                or (self.scenario == "sparsity-scan" and self.branch == "dilute")):
            small = [x for x in self.sigma_grid if self.n_for(x) < 1]
            if small:
                raise ValueError("n_base %r gives fewer than 1 observation under n_rule %r "
                                 "at sigma %r" % (self.n_base, self.n_rule, small))

    @classmethod
    def from_json_dict(cls, d) -> "ExperimentConfig":
        """Read a scan file's object: its keys are the fields, each defaulted
        as the dataclass defaults it, and required where it has no default
        (`ring.REQUIRED` is the dataclasses marker)."""
        return cls(**read_keys("scan", d, {f.name: f.default if f.default_factory is MISSING
                                           else f.default_factory() for f in fields(cls)}, {}))

    def hash(self) -> str:
        return config_hash(asdict(self))

    def n_for(self, sigma: float) -> int:
        if self.n_rule == "fixed":
            return self.n_base
        return round(self.n_base * sigma**4)


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
    from 500 resamplings of each x's values; an x without values is skipped.

    One draw gives every resample index, row r holding resampling r's for
    each x in sorted-x order, as a loop over resamplings and x's would draw
    them.  An x <= 0, or a resampled median <= 0, drops out of that fit.

    Each x is resampled on its own.  A kl-scan trial scores every sigma on
    one draw, so its cells are positively correlated across x; ignoring that
    pairing leaves the slope's CI wider than a paired bootstrap's, that is
    conservative."""
    kept = {k: v for k, v in values_by_x.items() if v}
    medians = {k: float(np.median(v)) for k, v in kept.items()}
    slope = fit_loglog_slope(list(medians), list(medians.values()))
    xs = sorted(kept)
    grid = np.array(xs, dtype=float)
    if np.count_nonzero(grid > 0) < 2:
        return medians, slope, (None, None)
    sizes = [len(kept[x]) for x in xs]
    rng = np.random.default_rng((seed, 999))
    draws = rng.integers(np.tile(np.repeat(sizes, sizes), (500, 1)))
    ends = np.cumsum(sizes)
    meds = np.stack([np.median(np.asarray(kept[x])[draws[:, e - n:e]], axis=1)
                     for x, n, e in zip(xs, sizes, ends)], axis=1)[:, grid > 0]
    grid = grid[grid > 0]
    whole = (meds > 0).all(axis=1)
    slopes = [fit_loglog_slope(grid, m) for m in meds[~whole]]
    slopes = [sl for sl in slopes if sl is not None]
    slopes.extend(np.polyfit(np.log(grid), np.log(meds[whole]).T, 1)[0])
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
    c = cfg.settings
    return DiluteClassSpec(L=cfg.L, s=s, m=c["dilute.m"], M=c["dilute.M"], eps=c["dilute.eps"])


def _base_signal(cfg: ExperimentConfig, rng, full_support: bool) -> tuple:
    """(s, theta0) of a scan over sigma: the configured signal, else a
    Gaussian one with full support if asked, else a dilute one."""
    s = cfg.s_grid[0] if cfg.s_grid else cfg.settings["dilute.s"]
    if cfg.theta0 is not None:
        return s, cfg.theta0
    if full_support:
        v = rng.normal(size=cfg.L)
        v[v == 0] = 1.0
        return s, Signal(v)
    return s, gen_collision_free(_dilute_spec(cfg, s), rng)


def _support_perturbation(theta0: Signal, h_norm: float, rng) -> Signal:
    """Random direction on supp(theta0), mean-zero when the support has two
    or more points, so the first-moment KL term cannot mask the curvature."""
    idx = np.flatnonzero(theta0.values)
    h = np.zeros(theta0.L)
    g = rng.normal(size=idx.size)
    if idx.size > 1:
        g -= g.mean()
    h[idx] = g / np.linalg.norm(g) * h_norm
    return Signal(h)


def _direction(theta0: Signal, kind: str, h_norm: float, rng) -> Signal:
    """A perturbation of norm h_norm: the adversarial direction of
    `probes.adversarial_direction`, or else a random one on the support."""
    if kind == "adversarial":
        h = adversarial_direction(theta0, 1.0)
        return Signal(h.values * (h_norm / h.norm()))
    return _support_perturbation(theta0, h_norm, rng)


def _em_cell(cfg: ExperimentConfig, rec: dict, theta0: Signal, sigma: float,
             cell_seed: tuple) -> float:
    """One EM fit on n = cfg.n_for(sigma) fresh draws; writes n, the error,
    iterations and time into rec and returns sqrt(n) varrho."""
    n = rec["n"] = cfg.n_for(sigma)
    data = simulate(theta0, MraConfig(cfg.L, sigma), n, np.random.default_rng(cell_seed))
    c = cfg.settings
    policy = c["em.init"]
    init = theta0
    if policy != "truth":
        h = _direction(theta0, policy, c["em.init_perturb"],
                       np.random.default_rng(cell_seed + (7,)))
        init = Signal(theta0.values + h.values)
    rclass = RestrictedClass("none")
    if cfg.scenario != "fullsupport-rate":  # the dilute scans
        spec = _dilute_spec(cfg, len(theta0.support))
        rclass = RestrictedClass("magnitude-band", theta0.support, m=spec.m, M=spec.M)
    t0 = time.perf_counter()
    theta_hat, diag = em_restricted_mle(data, rclass, init, max_iters=c["em.max_iters"],
                                        tol=c["em.tol"])
    err = varrho(theta_hat, theta0)
    rec.update(varrho=float(err), sqrt_n_varrho=float(np.sqrt(n) * err),
               iterations=diag["iterations"], converged=diag["converged"],
               wall_time=time.perf_counter() - t0)
    return rec["sqrt_n_varrho"]


def _kl_pairs(cfg: ExperimentConfig, theta0: Signal, h: Signal, sigma, rng):
    """KL(theta0 || theta0 + h) with its standard error, at sigma, a noise
    scale or a grid of them, as `kl_monte_carlo` takes it."""
    return kl_monte_carlo(theta0, Signal(theta0.values + h.values), sigma,
                          cfg.settings["kl.n_mc"], rng)


def _record_kl(rec: dict, pair: tuple, h_norm: float) -> float:
    """Writes a (KL, SE) pair and the curvature KL / h_norm^2 into rec;
    returns the curvature, floored for the log fit."""
    rec["kl"], rec["kl_se"] = pair
    rec["curvature"] = rec["kl"] / h_norm**2
    return max(rec["curvature"], 1e-300)


def _rate_setup(cfg: ExperimentConfig):
    """EM error vs noise scale; fits the slope of log median sqrt(n) varrho."""
    s, theta0 = _base_signal(cfg, np.random.default_rng((cfg.seed, 0)),
                             cfg.scenario == "fullsupport-rate")

    def cell(rec, i, t):
        return _em_cell(cfg, rec, theta0, rec["sigma"], (cfg.seed, 1, i, t))

    return {"s": s}, cell, {}, None


def _sparsity_setup(cfg: ExperimentConfig):
    """Sparsity dependence of the EM rate (dilute) or of the KL curvature
    (moderate branch, exploratory)."""
    sigma = cfg.sigma_grid[0]
    # one generator per s, shared by that s's trials
    gen_rngs = [np.random.default_rng((cfg.seed, 2, i)) for i in range(len(cfg.s_grid))]

    def dilute_cell(rec, i, t):
        theta0 = gen_collision_free(_dilute_spec(cfg, rec["s"]), gen_rngs[i])
        return _em_cell(cfg, rec, theta0, sigma, (cfg.seed, 3, i, t)) / sigma**2

    def moderate_cell(rec, i, t):
        theta0 = gen_symm_interval(cfg.L, rec["s"], cfg.settings["kl.zeta"], gen_rngs[i])
        h_norm = cfg.settings["kl.h_norm"]
        rng = np.random.default_rng((cfg.seed, 3, i, t))
        h = _support_perturbation(theta0, h_norm, rng)
        return _record_kl(rec, _kl_pairs(cfg, theta0, h, sigma, rng), h_norm)

    if cfg.branch == "dilute":
        return {"sigma": sigma}, dilute_cell, {"branch": cfg.branch}, (-0.3, 0.3)
    return {"sigma": sigma}, moderate_cell, {"branch": cfg.branch}, (-np.inf, 4.0)


def _kl_setup(cfg: ExperimentConfig):
    """KL(theta0 || theta0 + h)/||h||^2 across sigma; fits the sigma exponent.

    Trial t scores its whole sigma grid on one draw, seeded (seed, 4, 0, t),
    in one `kl_monte_carlo` call at its first cell; every cell of the trial
    reads its row, or records the call's error if it raised."""
    direction = cfg.settings["kl.direction"]
    rng0 = np.random.default_rng((cfg.seed, 0))
    s, theta0 = _base_signal(cfg, rng0, direction == "adversarial")
    h = _direction(theta0, direction, cfg.settings["kl.h_norm"], rng0)
    trials = {}

    def cell(rec, i, t):
        if t not in trials:
            try:
                trials[t] = _kl_pairs(cfg, theta0, h, cfg.sigma_grid,
                                      np.random.default_rng((cfg.seed, 4, 0, t)))
            except Exception as exc:  # recorded by every cell of trial t
                trials[t] = exc
        if isinstance(trials[t], Exception):
            raise trials[t]
        return _record_kl(rec, trials[t][i], h.norm())

    window = (-4.6, -3.4) if direction == "dilute" else (-6.8, -5.2)
    return ({"s": s, "direction": direction}, cell,
            {"direction": direction, "window": list(window)}, window)


class Scenario(NamedTuple):
    """A scan over the grid `x` ("sigma" or "s", also the record field) that
    fits `<exponent>_exponent`.  `setup(cfg)` returns the fields of every
    record, the cell, extra fits and the slope's window (None: no window).
    `cell(rec, i, t)` runs trial t at grid index i, writes into `rec` (what
    it wrote before failing stays) and returns the value to fit."""

    subcommand: str
    x: str
    exponent: str
    setup: Callable


#: scenario name -> how it runs, and the CLI subcommand that runs it
SCENARIOS = {
    "dilute-rate": Scenario("rate-scan", "sigma", "sigma", _rate_setup),
    "fullsupport-rate": Scenario("rate-scan", "sigma", "sigma", _rate_setup),
    "sparsity-scan": Scenario("sparsity-scan", "s", "s", _sparsity_setup),
    "kl-curvature-scan": Scenario("kl-scan", "sigma", "curvature", _kl_setup),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (grid value, trial) cell of cfg's scenario in grid order,
    record failed cells (more than 10% of them fail the scan), and fit the
    log-log slope of the per-x medians with its bootstrap CI."""
    scenario = SCENARIOS[cfg.scenario]
    fields, cell, extra_fits, window = scenario.setup(cfg)
    grid = cfg.sigma_grid if scenario.x == "sigma" else cfg.s_grid
    records = []
    values_by_x = {x: [] for x in grid}
    for i, x in enumerate(grid):
        for t in range(cfg.trials):
            rec = {scenario.x: x, **fields, "L": cfg.L, "trial": t,
                   "seed": cfg.seed, "failed": False}
            try:
                values_by_x[x].append(cell(rec, i, t))
            except Exception as exc:  # cell failures are recorded, not fatal
                rec["failed"] = True
                rec["error"] = repr(exc)
            records.append(rec)
    failures = _count_failures(records)
    medians, slope, ci = _fit_medians(values_by_x, cfg.seed)
    key = scenario.exponent + "_exponent"
    fits = {key: slope, key + "_ci": ci, "medians": medians, "failures": failures,
            **extra_fits}
    if window is not None and slope is not None:
        fits["passes"] = bool(window[0] <= slope <= window[1])
    return ExperimentResult(cfg.scenario, cfg.hash(), cfg.seed, records, fits)
