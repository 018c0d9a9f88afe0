"""Recompute the golden files under tests/golden/ and write them.

    PYTHONPATH=src python tests/regenerate_golden.py

`tests/test_golden.py` recomputes the same values and compares them with the
files: integers, flags and frequency sets exactly, floats within 1e-12
relative.  Regenerate only on purpose, when a random stream or an output is
meant to change, and say which fields moved and by how much.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from mralab import cli, experiments, gensig, mra
from mralab.beltway import recover_from_power_spectrum
from mralab.mra import kl_monte_carlo
from mralab.probes import _sparse_picks
from mralab.ring import Signal
from mralab.spectral import empirical_moments, power_spectrum

GOLDEN = Path(__file__).resolve().parent / "golden"

#: one small seeded config per probe whose report reads the UUP draw
PROBE_CONFIGS = {
    "uup": {"L": 128, "a": 64, "s": 4, "trials": 2000, "seed": 5},
    "lambda": {"L": 128, "s": 13, "a": 64, "seed": 3},
    "moderate-lb": {"signal": {"L": 64, "format": "standard-parametrization",
                               "support": [-5, -2, 0, 2, 5],
                               "values": [0.8, -1.1, 1.3, -1.1, 0.8]},
                    "s": 5, "a": 32, "trials": 100, "seed": 0},
}


#: the CI smoke configs of the probes that read the Delta_2 expansion
CURVATURE_CONFIGS = {
    "dilute-lb": {"L": 101, "s": 8, "m": 1.0, "M": 1.05, "eps": 1.0, "trials": 200, "seed": 0},
    "adversarial": {"L": 101, "seed": 0, "delta": 1e-3},
}

#: the CI smoke configs of the outputs that read kl_monte_carlo
KL_CONFIGS = {
    "sandwich": {"theta": {"L": 4, "format": "standard-parametrization",
                           "support": [-1, 0, 1, 2], "values": [1.0, -1.0, 0.5, -0.5]},
                 "phi": {"L": 4, "format": "standard-parametrization",
                         "support": [-1, 0, 2], "values": [1.0, -0.5, -0.5]},
                 "sigma_grid": [2, 4], "n_mc": 5000, "seed": 0},
    "kl-scan": {"scenario": "kl-curvature-scan", "L": 8, "sigma_grid": [2.0, 4.0], "seed": 0,
                "s_grid": [3], "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5},
                "kl": {"n_mc": 20000, "h_norm": 0.05}},
}


def probe_reports(configs: dict, workdir) -> dict:
    """The `mralab probe` report of each kind -> config in configs, run in workdir."""
    reports = {}
    for kind, cfg in configs.items():
        cfg_path, out = Path(workdir, kind + ".json"), Path(workdir, kind + "-report.json")
        cfg_path.write_text(json.dumps(cfg))
        if cli.main(["probe", kind, "--config", str(cfg_path), "--out", str(out)]) != 0:
            raise RuntimeError("probe %s failed" % kind)
        reports[kind] = json.loads(out.read_text())
    return reports


def probes_stream(workdir) -> dict:
    """The first 8 rows of `_sparse_picks(512, 8, 10000, default_rng(1))` and
    the report of each config in PROBE_CONFIGS."""
    picks, vals = _sparse_picks(512, 8, 10000, np.random.default_rng(1))
    return {"sparse_picks": {"L": 512, "s": 8, "trials": 10000, "seed": 1,
                             "positions": picks[:8].tolist(), "values": vals[:8].tolist()},
            "reports": probe_reports(PROBE_CONFIGS, workdir)}


def probes_curvature(workdir) -> dict:
    """The report of each config in CURVATURE_CONFIGS."""
    return {"reports": probe_reports(CURVATURE_CONFIGS, workdir)}


def kl_outputs(workdir) -> dict:
    """The sandwich report, and the kl-scan summary and records, of KL_CONFIGS."""
    result = experiments.run_experiment(experiments.ExperimentConfig(**KL_CONFIGS["kl-scan"]))
    scan = {"summary": result.summary_dict(), "records": result.records}
    return {"reports": probe_reports({"sandwich": KL_CONFIGS["sandwich"]}, workdir),
            "kl-scan": json.loads(json.dumps(scan))}


#: the CI smoke signal and class of `mralab simulate` and `mralab estimate`
MRA_SIGNAL = {"L": 21, "format": "standard-parametrization", "support": [-4, -3, 4, 6],
              "values": [1.0, 1.05, -1.08, 1.04]}
MRA_CLASS = {"kind": "support-fixed", "support": [-4, -3, 4, 6]}
#: container name -> its `mralab simulate` arguments after --signal
MRA_CONTAINERS = {
    "cyclic": ["--sigma", "0.5", "--n", "500", "--seed", "1"],
    "dihedral": ["--sigma", "0.7", "--n", "500", "--seed", "2", "--group", "dihedral"],
}


def _cli(*argv):
    if cli.main([str(a) for a in argv]) != 0:
        raise RuntimeError("mralab %s failed" % argv[0])


def mra_outputs(workdir) -> dict:
    """kl_monte_carlo's (kl, se) at both groups, with and without control
    variates, at n_mc 3, 7 and 1001 (the first below the control-variate
    floor, the second just above it, the last with uneven jackknife blocks);
    for each container in MRA_CONTAINERS its sha256, and the `mralab estimate`
    fit and diagnostics from MRA_SIGNAL; and the empirical moments of orders
    1 to 3 of the cyclic container, as real and imaginary parts."""
    theta0 = Signal(np.random.default_rng(40).normal(size=7))
    theta = Signal(theta0.values + 0.4 * np.random.default_rng(41).normal(size=7))
    kl = []
    for dihedral in (False, True):
        for cv in (True, False):
            for n_mc in (3, 7, 1001):
                est, se = kl_monte_carlo(theta0, theta, 1.3, n_mc, np.random.default_rng(42),
                                         dihedral=dihedral, control_variate=cv)
                kl.append({"dihedral": dihedral, "control_variate": cv, "n_mc": n_mc,
                           "kl": est, "kl_se": se})
    work = Path(workdir)
    signal, rclass = work / "signal.json", work / "class.json"
    signal.write_text(json.dumps(MRA_SIGNAL))
    rclass.write_text(json.dumps(MRA_CLASS))
    fits = {}
    for name, args in MRA_CONTAINERS.items():
        data, hat, diag = (work / (name + ext) for ext in (".mra", "-hat.json", "-diag.json"))
        _cli("simulate", "--signal", signal, *args, "--out", data)
        _cli("estimate", "--data", data, "--restriction", rclass, "--init", signal,
             "--max-iters", 20, "--out-signal", hat, "--out-diagnostics", diag)
        fits[name] = {"sha256": hashlib.sha256(data.read_bytes()).hexdigest(),
                      "theta_hat": json.loads(hat.read_text()),
                      "diagnostics": json.loads(diag.read_text())}
    data = cli.read_container(work / "cyclic.mra")
    moments = {}
    for order in (1, 2, 3):
        f = np.asarray(empirical_moments(data, order).fourier)
        moments[str(order)] = {"real": f.real.tolist(), "imag": f.imag.tolist()}
    return {"kl_monte_carlo": {"L": 7, "sigma": 1.3, "theta_seeds": [40, 41], "seed": 42,
                               "theta0": theta0.values.tolist(), "theta": theta.values.tolist(),
                               "cases": kl},
            "containers": fits, "empirical_moments": {"container": "cyclic", "orders": moments}}


#: the pr-recover benchmark's class, signal generator seed, noise and tolerances
PR_RECOVER = {"L": 101, "s": 8, "m": 1.0, "M": 1.5, "eps": 1.0, "signal_seed": 110,
              "noise_seed": 1, "noise": 1e-6, "tol_exact": 1e-8, "tol_noisy": 1e-4}
#: two-point signals (L, {standard index: value}) recovered at s = 2, m = 1
TWO_POINT = [(7, {0: 1.0, 2: -1.3}), (9, {-1: 1.2, 3: 1.1})]


def beltway_outputs(workdir) -> dict:
    """The `mralab pr-recover` candidates of the first signal that generator
    seed PR_RECOVER["signal_seed"] draws, from its exact power spectrum and
    from a copy with relative noise; and the candidates of each TWO_POINT
    signal's exact spectrum."""
    cfg = PR_RECOVER
    spec = gensig.DiluteClassSpec(L=cfg["L"], s=cfg["s"], m=cfg["m"], M=cfg["M"], eps=cfg["eps"])
    truth = gensig.gen_collision_free(spec, np.random.default_rng(cfg["signal_seed"]))
    P = power_spectrum(truth)
    noisy = P * (1 + cfg["noise"] * np.random.default_rng(cfg["noise_seed"]).normal(size=P.size))
    recovered = {}
    for label, spectrum, tol in (("exact", P, cfg["tol_exact"]),
                                 ("noisy", noisy, cfg["tol_noisy"])):
        csv, out = Path(workdir, label + ".csv"), Path(workdir, label + ".json")
        csv.write_text("index,value\n" + "".join("%d,%r\n" % (i, float(x))
                                                 for i, x in enumerate(spectrum)))
        _cli("pr-recover", "--spectrum", csv, "--L", cfg["L"], "--s", cfg["s"], "--m", cfg["m"],
             "--M", cfg["M"], "--tol", tol, "--out", out)
        recovered[label] = json.loads(out.read_text())["candidates"]
    two_point = []
    for L, entries in TWO_POINT:
        theta = Signal.from_support(L, entries)
        cands = recover_from_power_spectrum(power_spectrum(theta), 2, 1.0, tol=1e-8)
        two_point.append({"signal": theta.to_json_dict(),
                          "candidates": [c.to_json_dict() for c in cands]})
    return {"pr_recover": dict(cfg, truth=truth.to_json_dict(), **recovered),
            "two_point": two_point}


#: the CI smoke configs of the EM scans
SCAN_CONFIGS = {
    "rate-scan": {"scenario": "dilute-rate", "L": 21, "sigma_grid": [0.5, 1.0], "seed": 0,
                  "n_base": 2000, "s_grid": [4], "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5},
                  "em": {"max_iters": 20}},
    "sparsity-scan": {"scenario": "sparsity-scan", "L": 64, "sigma_grid": [0.5], "seed": 0,
                      "n_base": 2000, "n_rule": "fixed", "trials": 3, "s_grid": [3, 5],
                      "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5}, "em": {"max_iters": 20}},
}


def _scan(cfg: dict) -> dict:
    result = experiments.run_experiment(experiments.ExperimentConfig(**cfg))
    records = [{k: v for k, v in r.items() if k != "wall_time"} for r in result.records]
    return json.loads(json.dumps({"summary": result.summary_dict(), "records": records}))


def scan_outputs(workdir) -> dict:
    """The summary and records of each config in SCAN_CONFIGS, less each
    record's wall_time; and as "rate-scan-spilled" those of the rate-scan
    with `mra.IN_MEMORY_LIMIT` at 0, so that every cell is drawn into a
    mapped file (from the same stream, so they equal the rate-scan's)."""
    scans = {name: _scan(cfg) for name, cfg in SCAN_CONFIGS.items()}
    limit, mra.IN_MEMORY_LIMIT = mra.IN_MEMORY_LIMIT, 0
    try:
        scans["rate-scan-spilled"] = _scan(SCAN_CONFIGS["rate-scan"])
    finally:
        mra.IN_MEMORY_LIMIT = limit
    return scans


#: golden file -> the function of a work directory that recomputes it
FILES = {"probes_stream.json": probes_stream, "probes_curvature.json": probes_curvature,
         "kl.json": kl_outputs, "mra.json": mra_outputs, "beltway.json": beltway_outputs,
         "scans.json": scan_outputs}


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, compute in FILES.items():
        with tempfile.TemporaryDirectory() as workdir:
            golden = compute(workdir)
        path = GOLDEN / name
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
