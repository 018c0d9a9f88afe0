"""The four workloads: seeded inputs written at set-up, and the timed tasks.

Set-up writes every input the program reads (containers, spectrum CSVs,
configs) into a fresh directory from the workload seed, and returns the
round: an ordered list of tasks.  A task is one in-process call into mralab
plus a reference check of what that call wrote.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from mralab import cli, gensig, mra, spectral
from mralab.gensig import DiluteClassSpec
from mralab.probes import spectral_floor
from mralab.ring import Signal

import checks


@dataclass
class Task:
    kind: str                      # identity within the round
    call: Callable[[], Any]        # the timed call into the program
    check: Callable[[Any], Any]    # None when correct, else a reason
    work: Callable[[Any], float] = lambda out: 1.0   # work units of a correct run


@dataclass
class Workload:
    name: str
    config: dict                   # every size and setting; hashed into records
    setup: Callable[[str, int], list]
    work_name: str                 # report name of this workload's throughput
    trace_extra: Callable[[int], dict] = field(default=lambda seed: {})

    def config_hash(self) -> str:
        blob = json.dumps({"workload": self.name, **self.config}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _sub_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _support_direction(theta: Signal, norm: float, rng) -> np.ndarray:
    """Random mean-zero direction on supp(theta) with the given norm."""
    idx = np.flatnonzero(theta.values)
    g = rng.normal(size=idx.size)
    g -= g.mean()
    h = np.zeros(theta.L)
    h[idx] = g / np.linalg.norm(g) * norm
    return h


# --------------------------------------------------------------- em-estimate

#: the rate-scan acceptance signal on Z_21 (natural residue -> value)
L21_SIGNAL = {3: 1.1, 6: -1.0, 7: 1.05, 12: 1.2, 14: -1.15}

#: each fit runs a fixed iteration budget (--tol 0), so its work does not vary
#: with the seed; the check asks that the step fell below `tol` within it.
#: Sizes keep a round near 5 s, so several rounds fit in one run.
EM = {
    "legs": {
        "L21-cyclic": {"L": 21, "sigma": 2.0, "n": 5000, "group": "cyclic",
                       "band": [1.0, 1.2], "iters": 250},
        "L21-dihedral": {"L": 21, "sigma": 1.0, "n": 5000, "group": "dihedral",
                         "band": [1.0, 1.2], "iters": 50},
        "L101-cyclic": {"L": 101, "sigma": 1.0, "n": 2500, "group": "cyclic", "s": 8,
                        "band": [1.0, 1.5], "iters": 25},
    },
    "init_perturb": 0.1, "tol": 1e-8,
}


def setup_em(d: str, seed: int) -> list:
    v = np.zeros(21)
    for k, x in L21_SIGNAL.items():
        v[k] = x
    l21 = Signal.from_natural(v)
    tasks = []
    for i, (leg, p) in enumerate(EM["legs"].items()):
        rng = _rng(seed, 1, i)
        if p["L"] == 21:
            truth = l21
        else:
            m, M = p["band"]
            spec = DiluteClassSpec(L=p["L"], s=p["s"], m=m, M=M, eps=1.0)
            truth = gensig.gen_collision_free(spec, rng)
        sig = _write_json(os.path.join(d, leg + ".truth.json"), truth.to_json_dict())
        data = os.path.join(d, leg + ".mra")
        cli.main(["simulate", "--signal", sig, "--sigma", repr(p["sigma"]), "--n", str(p["n"]),
                  "--seed", str(_sub_seed(seed, 2, i)), "--group", p["group"], "--out", data])
        init = Signal(truth.values + _support_direction(truth, EM["init_perturb"], rng))
        init_path = _write_json(os.path.join(d, leg + ".init.json"), init.to_json_dict())
        restr = _write_json(os.path.join(d, leg + ".class.json"), {
            "kind": "magnitude-band", "support": sorted(truth.support),
            "m": p["band"][0], "M": p["band"][1]})
        out_sig = os.path.join(d, leg + ".hat.json")
        out_diag = os.path.join(d, leg + ".diag.json")
        argv = ["estimate", "--data", data, "--restriction", restr, "--init", init_path,
                "--group", p["group"], "--max-iters", str(p["iters"]), "--tol", "0",
                "--out-signal", out_sig, "--out-diagnostics", out_diag]
        dihedral = p["group"] == "dihedral"
        tasks.append(Task(
            kind=leg,
            call=lambda argv=argv: cli.main(argv),
            check=lambda rc, leg=leg, t=truth.values, s=out_sig, g=out_diag, dh=dihedral:
                checks.check_estimate(leg, t, s, g, dh, EM["tol"]),
            work=lambda rc, n=p["n"], g=out_diag: n * checks.load_json(g)["iterations"]))
    return tasks


# ------------------------------------------------------------------- kl-scan

KL = {"L": 8, "sigma_grid": [2.0, 4.0, 8.0], "direction": "dilute", "n_mc": 100000,
      "h_norm": 0.05, "signal_natural": [1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]}


def _kl_theta0() -> Signal:
    return Signal.from_natural(np.array(KL["signal_natural"]))


def setup_kl(d: str, seed: int) -> list:
    cfg = {"scenario": "kl-curvature-scan", "L": KL["L"], "sigma_grid": KL["sigma_grid"],
           "seed": _sub_seed(seed, 3), "signal": _kl_theta0().to_json_dict(),
           "kl": {"direction": KL["direction"], "n_mc": KL["n_mc"], "h_norm": KL["h_norm"]}}
    path = _write_json(os.path.join(d, "kl.json"), cfg)
    out_csv, out_json = os.path.join(d, "kl.csv"), os.path.join(d, "kl.out.json")
    argv = ["kl-scan", "--config", path, "--out-csv", out_csv, "--out-json", out_json]
    samples = KL["n_mc"] * len(KL["sigma_grid"])
    return [Task(kind="kl-scan", call=lambda: cli.main(argv),
                 check=lambda rc: checks.check_kl_scan(rc, out_csv, out_json),
                 work=lambda rc: samples)]


def kl_cv_share(seed: int) -> dict:
    """1 - t(no control variates) / t(control variates) for one sigma=4 estimate."""
    theta0 = _kl_theta0()
    theta1 = Signal(theta0.values + _support_direction(theta0, KL["h_norm"], _rng(seed, 4)))
    t = {}
    for cv in (True, False):
        t0 = time.perf_counter()
        mra.kl_monte_carlo(theta0, theta1, 4.0, KL["n_mc"], _rng(seed, 5),
                           control_variate=cv)
        t[cv] = time.perf_counter() - t0
    return {"mra.kl_cv_share": 1.0 - t[False] / t[True]}


# ---------------------------------------------------------------- pr-recover

#: a fixed set of DILUTE-class signals, drawn back to back from generator
#: seed 110, so every seed times the same searches; the workload seed draws
#: the relative noise of the noisy copies
PR = {"L": 101, "s": 8, "m": 1.0, "M": 1.5, "eps": 1.0, "signal_seed": 110, "spectra": 4,
      "noise": 1e-6, "tol_exact": 1e-8, "tol_noisy": 1e-4}


def _write_spectrum(path, P):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, x in enumerate(P):
            fh.write("%d,%r\n" % (i, float(x)))
    return path


def setup_pr(d: str, seed: int) -> list:
    spec = DiluteClassSpec(L=PR["L"], s=PR["s"], m=PR["m"], M=PR["M"], eps=PR["eps"])
    signals = np.random.default_rng(PR["signal_seed"])
    rng = _rng(seed, 6)
    tasks = []
    for j in range(PR["spectra"]):
        truth = gensig.gen_collision_free(spec, signals)
        P = spectral.power_spectrum(truth)
        noisy = P * (1 + PR["noise"] * rng.normal(size=P.size))
        for label, spectrum, tol in (("exact", P, PR["tol_exact"]),
                                     ("noisy", noisy, PR["tol_noisy"])):
            kind = "spectrum%d-%s" % (j, label)
            csv_path = _write_spectrum(os.path.join(d, kind + ".csv"), spectrum)
            out = os.path.join(d, kind + ".out.json")
            argv = ["pr-recover", "--spectrum", csv_path, "--L", str(PR["L"]),
                    "--s", str(PR["s"]), "--m", repr(PR["m"]), "--M", repr(PR["M"]),
                    "--tol", repr(tol), "--out", out]
            tasks.append(Task(kind=kind, call=lambda argv=argv: cli.main(argv),
                              check=lambda rc, t=truth.values, o=out, tol=tol:
                                  checks.check_recovery(t, o, tol)))
    return tasks


# ------------------------------------------------------------- moments-probe

MOMENTS = {
    "dilute-lb": {"L": 257, "s": 11, "m": 1.0, "M": 1.5, "eps": 1.0, "trials": 1000},
    "uup": {"L": 512, "a": 256, "s": 8, "trials": 10000},
    "lambda": {"L": 128, "s": 13, "a": 64},
    "moderate-lb": {"L": 128, "s": 13, "a": 64, "zeta": 1.0},
    "sandwich": {"L": 16, "sigma_grid": [2, 4, 8], "n_mc": 20000, "phi_offset": 0.3},
    "delta3": {"L": 64, "pairs": 8},
    #: drawing a collision-free signal at L=257 takes 0.01-0.7 s, by draw; the
    #: dilute-lb signal comes from this fixed generator seed so that set-up
    #: costs the same on every workload seed, which draws the probe's trials
    "dilute-lb-signal-seed": 257,
}


def _probe_task(d: str, kind: str, cfg: dict, floor=None) -> Task:
    path = _write_json(os.path.join(d, kind + ".json"), cfg)
    out = os.path.join(d, kind + ".out.json")
    argv = ["probe", kind, "--config", path, "--out", out]
    return Task(kind=kind, call=lambda: cli.main(argv),
                check=lambda rc: checks.check_probe(kind, checks.load_json(out), floor))


def _centered(v) -> Signal:
    return Signal(v - v.mean())


def setup_moments(d: str, seed: int) -> list:
    p = MOMENTS
    rng = _rng(seed, 7)
    dl = p["dilute-lb"]
    spec = DiluteClassSpec(L=dl["L"], s=dl["s"], m=dl["m"], M=dl["M"], eps=dl["eps"])
    signal = gensig.gen_collision_free(
        spec, np.random.default_rng(p["dilute-lb-signal-seed"])).to_json_dict()
    tasks = [_probe_task(d, "dilute-lb", dict(dl, seed=_sub_seed(seed, 8), signal=signal))]
    tasks.append(_probe_task(d, "uup", dict(p["uup"], seed=_sub_seed(seed, 9))))
    lam = p["lambda"]
    tasks.append(_probe_task(d, "lambda", dict(lam, seed=_sub_seed(seed, 10)),
                             floor=spectral_floor(lam["s"], 1.0)))
    mod = p["moderate-lb"]
    theta = Signal.zeros(mod["L"])
    while theta.norm() == 0:  # an empty Bernoulli draw is possible; draw again
        theta = gensig.gen_symm_bernoulli_gaussian(mod["L"], mod["s"], mod["zeta"], rng)
    tasks.append(_probe_task(d, "moderate-lb", {"signal": theta.to_json_dict(), "s": mod["s"],
                                                "a": mod["a"], "seed": _sub_seed(seed, 11)}))
    sw = p["sandwich"]
    base = rng.normal(size=sw["L"])
    h = rng.normal(size=sw["L"])
    h -= h.mean()
    theta, phi = _centered(base), _centered(base + sw["phi_offset"] * h / np.linalg.norm(h))
    tasks.append(_probe_task(d, "sandwich", {
        "theta": theta.to_json_dict(), "phi": phi.to_json_dict(),
        "sigma_grid": sw["sigma_grid"], "n_mc": sw["n_mc"], "seed": _sub_seed(seed, 12)}))
    d3 = p["delta3"]
    pairs = [(Signal(rng.normal(size=d3["L"])), Signal(rng.normal(size=d3["L"])))
             for _ in range(d3["pairs"])]
    _write_json(os.path.join(d, "delta3.json"),
                [[a.to_json_dict(), b.to_json_dict()] for a, b in pairs])
    for k, (a, b) in enumerate(pairs):
        tasks.append(Task(kind="delta3-%d" % k,
                          call=lambda a=a, b=b: spectral.delta_m(a, b, 3).frobenius(),
                          check=lambda val, a=a, b=b: checks.check_delta3(val, a.values,
                                                                          b.values)))
    return tasks


WORKLOADS = {
    "em-estimate": Workload("em-estimate", EM, setup_em, "em_obs_iters_per_s"),
    "kl-scan": Workload("kl-scan", KL, setup_kl, "kl_samples_per_s", kl_cv_share),
    "pr-recover": Workload("pr-recover", PR, setup_pr, "pr_instances_per_s"),
    "moments-probe": Workload("moments-probe", MOMENTS, setup_moments, "probes_per_s"),
}
