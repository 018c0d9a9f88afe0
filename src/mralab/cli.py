"""Command-line entry points: simulation, estimation, support/signal recovery,
probe suites, and experiment scans.

Dataset container format: magic "MRA3", little-endian u32 L, u64 n, f64 sigma,
u8 dihedral (1 for the dihedral group, 0 for the cyclic one), then n*L
row-major f32 observations in standard-parametrization order.  The older
"MRA2" layout (f64 observations) is not read.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import struct
import sys

import numpy as np

from . import beltway, experiments, gensig, probes
from .experiments import config_hash
from .mra import Dataset, MraConfig, RestrictedClass, em_restricted_mle, simulate
from .ring import REQUIRED, Signal, integer, number, read_keys
from .spectral import second_moment_difference_expansion

MAGIC = b"MRA3"
#: header after the magic: u32 L, u64 n, f64 sigma, u8 dihedral
HEADER = struct.Struct("<IQdB")
#: the group byte's names, also the choices of --group
GROUPS = ("cyclic", "dihedral")
#: probe kind -> key -> default (`ring.REQUIRED`: none); any other key is an
#: error, and each value given is read by its `experiments.RULES` rule.
#: dilute-lb's h_norm of None is the probe's own, 1e-3 m.
PROBE_KEYS = {
    "dilute-lb": {"L": REQUIRED, "s": REQUIRED, "m": REQUIRED, "M": REQUIRED, "eps": REQUIRED,
                  "signal": None, "trials": 1000, "h_norm": None, "seed": 0},
    "adversarial": {"L": None, "signal": None, "delta": 1e-3, "seed": 0},
    "uup": {"L": REQUIRED, "a": REQUIRED, "s": REQUIRED, "trials": 10000, "seed": 0},
    "lambda": {"L": None, "s": REQUIRED, "a": REQUIRED, "signal": None, "zeta": 1.0,
               "max_tries": 50, "tau": 1.0, "seed": 0},
    "moderate-lb": {"signal": REQUIRED, "s": REQUIRED, "a": REQUIRED, "max_tries": 50,
                    "tau": 1.0, "trials": 200, "h_norm": 1e-3, "seed": 0},
    "sandwich": {"theta": REQUIRED, "phi": REQUIRED, "sigma_grid": [2, 4, 8], "n_mc": 100000,
                 "seed": 0},
}


def write_container(path, data: Dataset):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(HEADER.pack(data.L, data.n, data.config.sigma, data.config.dihedral))
        fh.write(np.ascontiguousarray(data.observations, dtype="<f4"))


def read_container(path) -> Dataset:
    """Load a container; its header fixes the group."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == b"MRA2":
            raise ValueError("an MRA2 container (f64 observations) is not read; this version "
                             "reads MRA3 (f32 observations): simulate the data again")
        if magic != MAGIC:
            raise ValueError("not a dataset container (bad magic)")
        header = fh.read(HEADER.size)
        if len(header) != HEADER.size:
            raise ValueError("truncated container: header has %d of %d bytes"
                             % (len(header), HEADER.size))
        L, n, sigma, dihedral = HEADER.unpack(header)
        # compare with the bytes on disk before reading, so a corrupt
        # header cannot ask for an unrepresentable or huge read
        need, left = n * L * 4, os.fstat(fh.fileno()).st_size - fh.tell()
        if left != need:
            raise ValueError("%s: expected %d payload bytes (n=%d, L=%d), got %d"
                             % ("truncated container" if left < need
                                else "container has trailing bytes", need, n, L, left))
        obs = np.fromfile(fh, dtype="<f4", count=n * L).reshape(n, L)
    return Dataset(obs, MraConfig(int(L), float(sigma), bool(dihedral)))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(obj, path):
    # NaN and Infinity are not JSON: a non-finite value raises, not written
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_simulate(args):
    theta0 = Signal.from_json_dict(_load_json(args.signal))
    cfg = MraConfig(theta0.L, args.sigma, args.group == "dihedral")
    data = simulate(theta0, cfg, integer("--n", args.n, 0), np.random.default_rng(args.seed))
    write_container(args.out, data)
    return 0


def cmd_estimate(args):
    data = read_container(args.data)
    if args.group is not None and args.group != GROUPS[data.config.dihedral]:
        raise ValueError("container records the %s group, but %s was requested"
                         % (GROUPS[data.config.dihedral], args.group))
    rclass = RestrictedClass(**read_keys("restriction", _load_json(args.restriction),
                                         dict(kind="none", support=None, m=None, M=None), {}))
    if args.init:
        init = Signal.from_json_dict(_load_json(args.init))
    else:
        rng = np.random.default_rng(args.seed)
        init = Signal(rng.normal(size=data.L))
    theta_hat, diag = em_restricted_mle(data, rclass, init,
                                        max_iters=integer("--max-iters", args.max_iters, 0),
                                        tol=number("--tol", args.tol))
    _dump_json(theta_hat.to_json_dict(), args.out_signal)
    if args.out_diagnostics:
        _dump_json(diag, args.out_diagnostics)
    return 0


def cmd_beltway_solve(args):
    profile = beltway.DifferenceProfile.from_json_dict(_load_json(args.profile))
    supports = beltway.solve_beltway(profile, args.s)
    _dump_json({"L": profile.L, "s": args.s,
                "supports": [list(sup) for sup in supports]}, args.out)
    return 0


def cmd_pr_recover(args):
    P, seen = np.zeros(args.L), set()
    with open(args.spectrum) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("index"):
                continue
            try:
                i, v = line.split(",")
                i, v = int(i), float(v)
            except ValueError:
                raise ValueError("%s line %d: expected an 'index,value' row, got %r"
                                 % (args.spectrum, lineno, line)) from None
            if not np.isfinite(v):
                raise ValueError("%s line %d: value %r is not finite"
                                 % (args.spectrum, lineno, v))
            if not 0 <= i < args.L:
                raise ValueError("%s line %d: index %d is outside 0..%d"
                                 % (args.spectrum, lineno, i, args.L - 1))
            if i in seen:
                raise ValueError("%s line %d: index %d is repeated" % (args.spectrum, lineno, i))
            seen.add(i)
            P[i] = v
    if len(seen) < args.L:
        raise ValueError("%s has no row for index %d"
                         % (args.spectrum, min(set(range(args.L)) - seen)))
    # the class check: admissibility and a collision-free s in Z_L
    spec = gensig.DiluteClassSpec(L=args.L, s=args.s, m=args.m, M=args.M, eps=args.eps)
    cands = beltway.recover_from_power_spectrum(P, spec.s, spec.m, tol=args.tol)
    _dump_json({"candidates": [c.to_json_dict() for c in cands]}, args.out)
    return 0


def _probe_signal(kind: str, p: dict, draw) -> Signal:
    """The config's `signal`, whose length must match its `L` if it has one,
    or draw(), which needs `L`."""
    if p["signal"] is None:
        if p["L"] is None:
            raise ValueError("missing %s key 'L', which a config without 'signal' needs" % kind)
        return draw()
    theta = Signal.from_json_dict(p["signal"])
    if p.get("L") is not None and theta.L != p["L"]:
        raise ValueError("signal has length %d but the config has L=%d" % (theta.L, p["L"]))
    return theta


def _probe_report(kind: str, cfg: dict) -> dict:
    p = read_keys(kind, cfg, PROBE_KEYS[kind], experiments.RULES)
    rng = np.random.default_rng(p["seed"])
    if kind == "dilute-lb":
        spec = gensig.DiluteClassSpec(L=p["L"], s=p["s"], m=p["m"], M=p["M"], eps=p["eps"])
        theta0 = _probe_signal(kind, p, lambda: gensig.gen_collision_free(spec, rng))
        report = probes.dilute_lower_bound_check(theta0, spec, p["trials"], rng,
                                                 h_norm=p["h_norm"])
        report["signal"] = theta0.to_json_dict()
    elif kind == "adversarial":
        theta0 = _probe_signal(kind, p, lambda: Signal(rng.normal(size=p["L"])))
        h = probes.adversarial_direction(theta0, p["delta"])
        lin, _ = second_moment_difference_expansion(theta0, h.values)
        report = {
            "h": h.to_json_dict(),
            "h_mean": h.mean(),
            "h_norm": h.norm(),
            # ||circulant(J)||_F = sqrt(L) ||J||, without the dense L x L matrix
            "linear_term_frobenius": float(np.sqrt(theta0.L) * np.linalg.norm(lin)),
        }
    elif kind == "uup":
        lam = probes.uup_sample(p["L"], p["a"], rng)
        c1, c2 = probes.uup_check(lam, p["s"], p["trials"], rng)
        report = {"set_size": lam.size(), "c1_hat": c1, "c2_hat": c2,
                  "frequencies": sorted(lam.frequencies)}
    elif kind == "sandwich":
        report = probes.moment_sandwich_probe(
            Signal.from_json_dict(p["theta"]), Signal.from_json_dict(p["phi"]),
            p["sigma_grid"], p["n_mc"], rng)
    else:  # lambda and moderate-lb (whose signal is required): a frequency set for the signal
        theta = _probe_signal(kind, p, lambda: gensig.gen_symm_bernoulli_gaussian(
            p["L"], p["s"], p["zeta"], rng))
        lam = probes.lambda_construct(theta, p["s"], p["a"], p["max_tries"], rng, tau=p["tau"])
        if kind == "lambda":
            report = {"frequencies": sorted(lam.frequencies), "rounds": lam.rounds,
                      "c1_hat": lam.c1_hat, "c2_hat": lam.c2_hat,
                      "spectral_floor": lam.spectral_floor}
        else:
            report = probes.moderate_curvature_check(theta, lam, p["trials"], p["h_norm"], rng)
    report["probe"] = kind
    report["seed"] = p["seed"]
    report["config_hash"] = config_hash(cfg)
    return report


def cmd_probe(args):
    _dump_json(_probe_report(args.kind, _load_json(args.config)), args.out)
    return 0


def cmd_scan(args):
    cfg = experiments.ExperimentConfig.from_json_dict(_load_json(args.config))
    if experiments.SCENARIOS[cfg.scenario].subcommand != args.command:
        raise ValueError("config scenario %r is not run by %s" % (cfg.scenario, args.command))
    result = experiments.run_experiment(cfg)
    if args.out_csv:
        result.to_csv(args.out_csv)
    _dump_json(result.summary_dict(), args.out_json)
    return 2 if result.fits.get("passes") is False else 0


@functools.cache  # one parser per process: in-process callers reuse it
def build_parser():
    p = argparse.ArgumentParser(prog="mralab",
                                description="alignment-model simulation and probes")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw a dataset and write a container")
    sp.add_argument("--signal", required=True, help="signal JSON file")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--group", choices=GROUPS, default="cyclic")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("estimate", help="restricted MLE via EM from a container")
    sp.add_argument("--data", required=True)
    sp.add_argument("--restriction", required=True, help="restricted-class JSON file")
    sp.add_argument("--init", help="initial signal JSON file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--group", choices=GROUPS, help="default: the container's group")
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--out-signal", default="-")
    sp.add_argument("--out-diagnostics")
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("beltway-solve", help="supports from a difference profile")
    sp.add_argument("--profile", required=True, help="difference profile JSON file")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_beltway_solve)

    sp = sub.add_parser("pr-recover", help="signals from a power spectrum CSV")
    sp.add_argument("--spectrum", required=True, help="CSV of index,value rows")
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_pr_recover)

    sp = sub.add_parser("probe", help="run a verification probe")
    sp.add_argument("kind", choices=list(PROBE_KEYS))
    sp.add_argument("--config", required=True, help="probe config JSON file")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_probe)

    for name in dict.fromkeys(sc.subcommand for sc in experiments.SCENARIOS.values()):
        sp = sub.add_parser(name, help="experiment scan (%s)" % name)
        sp.add_argument("--config", required=True, help="experiment config JSON file")
        sp.add_argument("--out-csv")
        sp.add_argument("--out-json")
        sp.set_defaults(func=cmd_scan)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry_point(argv=None):
    """`main` for the command line: a ValueError or OSError is one `mralab:
    error:` line on stderr and exit status 2; others keep their traceback."""
    try:
        return main(argv)
    except (ValueError, OSError) as e:
        print("mralab: error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry_point())
