"""Per-layer metrics derived from a traced run's spans and task executions.

The benchmark keeps one per-layer list for all workloads, and every traced
run prints all of it.  A figure of a layer or a call the workload never
makes reads 0: "not exercised here", not a measured time; per-layer
metrics carry no bound, so no ratio is ever taken against such a 0.
Per-round figures are normalized by the number of traced rounds, so runs
of different length compare.
"""
from __future__ import annotations

import statistics

from checks import iterations_to_tol
from tracing import LAYERS, self_times
from workloads import EM

LEGS = tuple(EM["legs"])


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond
    it; the maximum when that percentile would not lie above the median."""
    v = sorted(values)
    k = len(v) - 11
    if 2 * (k + 1) <= len(v):
        return v[-1], 100.0
    return v[k], 100.0 * (k + 1) / len(v)


def spec():
    """[(name, unit, better)] in report order."""
    out = []
    for layer in LAYERS:
        out += [(layer + ".self_s", "s", "lower"), (layer + ".calls", "count", "lower")]
    out += [("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "fraction", "lower"),
            ("trace.spans", "count", "lower")]
    for leg in LEGS:
        out += [("em_fit_s." + leg, "s", "lower"),
                ("mra.em_us_per_obs_iter." + leg, "us", "lower"),
                ("mra.em_iterations." + leg, "count", "lower"),
                ("mra.loglik_pass_s." + leg, "s", "lower")]
    out += [("mra.simulate_us_per_obs", "us", "lower"),
            ("mra.kl_us_per_sample", "us", "lower"),
            ("mra.kl_cv_share", "fraction", "lower"),
            ("mra.project_us", "us", "lower"),
            ("beltway.solve_s.p50", "s", "lower"),
            ("beltway.solve_s.tail", "s", "lower"),
            ("beltway.solve_share", "fraction", "lower"),
            ("beltway.refine_s", "s", "lower"),
            ("beltway.orbits_per_instance", "count", "lower"),
            ("beltway.useful_ratio", "ratio", "higher"),
            ("spectral.delta3_s", "s", "lower"),
            ("spectral.delta2_us", "us", "lower"),
            ("spectral.expansion_us", "us", "lower"),
            ("spectral.power_spectrum_us", "us", "lower"),
            ("probes.dilute_lb_s", "s", "lower"),
            ("probes.uup_s", "s", "lower"),
            ("probes.lambda_s", "s", "lower"),
            ("probes.moderate_lb_s", "s", "lower"),
            ("probes.sandwich_s", "s", "lower"),
            ("ring.rho_us", "us", "lower"),
            ("ring.varrho_us", "us", "lower"),
            ("gensig.gen_collision_free_us", "us", "lower"),
            ("cli.read_container_s", "s", "lower"),
            ("cli.write_container_s", "s", "lower"),
            ("cli.container_mb_computed", "MB", "lower")]
    return out


def _kind(span):
    return (span["task"] or "").split("#")[0]


def _dur(span):
    return span["end"] - span["start"]


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def compute(spans, execs, n_round, extras):
    """Every per-layer metric, as {name: value}."""
    selfs = self_times(spans)
    task_idx = [i for i, s in enumerate(spans) if s["task"] != "setup"]
    traced = [e for e in execs if e["traced"]]
    rounds = max(len(traced) / n_round, 1e-12)
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def durs(name, pred=lambda s: True):
        return [_dur(s) for s in by.get(name, []) if pred(s)]

    def per_call(name, scale=1.0):
        return _mean(durs(name)) * scale

    m = {}
    for layer in LAYERS:
        mine = [i for i in task_idx if spans[i]["layer"] == layer]
        m[layer + ".self_s"] = sum(selfs[i] for i in mine) / rounds
        m[layer + ".calls"] = len(mine) / rounds
    # closed_loop appends each task's untraced and traced twins back to back
    pairs = [(a["dur"], b["dur"]) if b["traced"] else (b["dur"], a["dur"])
             for a, b in zip(execs[0::2], execs[1::2])]
    # where tracing costs less than the run-to-run noise the signed difference
    # can come out negative; it is clamped at 0 ("below the noise")
    extra = max(sum(b - a for a, b in pairs), 0.0)
    m["trace.overhead_s"] = extra / rounds
    m["trace.overhead_frac"] = extra / max(sum(a for a, _ in pairs), 1e-12)
    m["trace.spans"] = len(task_idx) / rounds

    for leg in LEGS:
        fits = [e["dur"] for e in execs if e["kind"] == leg and not e["traced"]]
        em = [s for s in by.get("mra.em_restricted_mle", []) if _kind(s) == leg]
        work = sum(s["n"] * s["iterations"] for s in em)
        m["em_fit_s." + leg] = statistics.median(fits) if fits else 0.0
        m["mra.em_us_per_obs_iter." + leg] = (sum(map(_dur, em)) / work * 1e6) if work else 0.0
        # a fit whose step never fell below tol (its task fails the check)
        # reads the whole budget it ran, never a better figure
        m["mra.em_iterations." + leg] = ((iterations_to_tol(em[-1]["steps"], EM["tol"])
                                          or em[-1]["iterations"]) if em else 0)
        ll = durs("mra.log_likelihood", lambda s, leg=leg: _kind(s) == leg)
        m["mra.loglik_pass_s." + leg] = statistics.median(ll) if ll else 0.0

    sims = by.get("mra.simulate", [])
    m["mra.simulate_us_per_obs"] = (sum(map(_dur, sims)) / sum(s["n"] for s in sims) * 1e6
                                    if sims else 0.0)
    kls = by.get("mra.kl_monte_carlo", [])
    m["mra.kl_us_per_sample"] = (sum(map(_dur, kls)) / sum(s["n_mc"] for s in kls) * 1e6
                                 if kls else 0.0)
    m["mra.kl_cv_share"] = extras.get("mra.kl_cv_share", 0.0)
    m["mra.project_us"] = per_call("mra.RestrictedClass.project", 1e6)

    solve = durs("beltway.solve_beltway")
    recover = by.get("beltway.recover_from_power_spectrum", [])
    rec_self = [selfs[i] for i, s in enumerate(spans)
                if s["name"] == "beltway.recover_from_power_spectrum"]
    orbits = sum(s["orbits"] for s in by.get("beltway.solve_beltway", []))
    m["beltway.solve_s.p50"] = statistics.median(solve) if solve else 0.0
    m["beltway.solve_s.tail"] = tail(solve)[0] if solve else 0.0
    m["beltway.solve_share"] = (sum(solve) / sum(map(_dur, recover))) if recover else 0.0
    m["beltway.refine_s"] = _mean(rec_self)
    m["beltway.orbits_per_instance"] = orbits / len(solve) if solve else 0.0
    m["beltway.useful_ratio"] = (sum(s["accepted"] for s in recover) / orbits) if orbits else 0.0

    m["spectral.delta3_s"] = _mean(durs("spectral.delta_m", lambda s: s["m"] == 3))
    m["spectral.delta2_us"] = _mean(durs("spectral.delta_m", lambda s: s["m"] == 2)) * 1e6
    m["spectral.expansion_us"] = per_call("spectral.second_moment_difference_expansion", 1e6)
    m["spectral.power_spectrum_us"] = per_call("spectral.power_spectrum", 1e6)
    m["probes.dilute_lb_s"] = per_call("probes.dilute_lower_bound_check")
    m["probes.uup_s"] = per_call("probes.uup_check")
    m["probes.lambda_s"] = per_call("probes.lambda_construct")
    m["probes.moderate_lb_s"] = per_call("probes.moderate_curvature_check")
    m["probes.sandwich_s"] = per_call("probes.moment_sandwich_probe")
    m["ring.rho_us"] = per_call("ring.rho", 1e6)
    m["ring.varrho_us"] = per_call("ring.varrho", 1e6)
    m["gensig.gen_collision_free_us"] = per_call("gensig.gen_collision_free", 1e6)
    reads = by.get("cli.read_container", [])
    m["cli.read_container_s"] = per_call("cli.read_container")
    m["cli.write_container_s"] = per_call("cli.write_container")
    m["cli.container_mb_computed"] = _mean([s["n"] * s["L"] * 8 / 1e6 for s in reads])
    return m
