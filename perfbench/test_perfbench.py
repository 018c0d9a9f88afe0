"""Tests of the benchmark itself: reference checks, failure counting,
tracing and the tail rule.  Run with  python3 -m pytest perfbench
"""
import json

import numpy as np
import pytest

import checks
import layers
import run
import tracing
import workloads
from mralab import cli, mra, ring
from mralab.ring import Signal
from mralab.spectral import delta_m


def _corrupting(task, corrupt):
    """The same task, with its output file damaged after the program wrote it."""
    def call():
        out = task.call()
        corrupt()
        return out
    return workloads.Task(task.kind, call, task.check, task.work)


def _edit_json(path, fn):
    with open(path) as fh:
        obj = json.load(fh)
    fn(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def test_orbit_distance_ignores_group_action():
    rng = np.random.default_rng(0)
    v = rng.normal(size=9)
    assert checks.orbit_distance(v, np.roll(v, 4), False) == pytest.approx(0, abs=1e-12)
    assert checks.orbit_distance(v, np.roll(v[::-1], 2), True) == pytest.approx(0, abs=1e-12)
    assert checks.orbit_distance(v, np.roll(v[::-1], 2), False) > 0.1


def test_bispectrum_reference_matches_dense_third_moment():
    rng = np.random.default_rng(1)
    for L in (5, 8, 13):
        a, b = Signal(rng.normal(size=L)), Signal(rng.normal(size=L))
        dense = delta_m(a, b, 3).frobenius()
        assert checks.check_delta3(dense, a.values, b.values) is None
        assert checks.check_delta3(dense * (1 + 1e-6), a.values, b.values) is not None
        assert checks.check_delta3(float("nan"), a.values, b.values) is not None


def test_moments_round_passes_and_corrupted_probe_counts_as_failed(tmp_path):
    tasks = {t.kind: t for t in workloads.setup_moments(str(tmp_path), 3)}
    good = run.execute(tasks["lambda"], False, None, "lambda#0")
    assert good["ok"], good["reason"]
    out = str(tmp_path / "lambda.out.json")
    bad = run.execute(_corrupting(tasks["lambda"], lambda: _edit_json(
        out, lambda r: r.update(c1_hat=0.0))), False, None, "lambda#1")
    assert not bad["ok"] and "energy ratios" in bad["reason"]
    d3 = run.execute(tasks["delta3-0"], False, None, "delta3-0#0")
    assert d3["ok"], d3["reason"]
    wrong = workloads.Task("delta3-0", lambda: tasks["delta3-0"].call() + 1e-3,
                           tasks["delta3-0"].check)
    assert not run.execute(wrong, False, None, "delta3-0#1")["ok"]


def test_corrupted_recovery_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PR, "spectra", 1)
    task = workloads.setup_pr(str(tmp_path), 5)[1]  # the noisy spectrum
    assert task.kind.endswith("noisy")
    assert run.execute(task, False, None, "x")["ok"]
    out = str(tmp_path / (task.kind + ".out.json"))

    def shift_value(rep):
        rep["candidates"][0]["values"][0] += 1e-2
    bad = run.execute(_corrupting(task, lambda: _edit_json(out, shift_value)), False, None, "y")
    assert not bad["ok"] and "orbit error" in bad["reason"]
    empty = run.execute(_corrupting(task, lambda: _edit_json(
        out, lambda r: r.update(candidates=[]))), False, None, "z")
    assert not empty["ok"]


def test_estimate_check_flags_far_estimate_and_divergence(tmp_path):
    truth = np.zeros(21)
    truth[[3, 6, 7]] = [1.1, -1.0, 1.05]
    sig, diag = tmp_path / "hat.json", tmp_path / "diag.json"
    sig.write_text(json.dumps(Signal.from_natural(truth).to_json_dict()))

    def write_diag(steps, ll=-1.0):
        diag.write_text(json.dumps({"iterations": len(steps), "varrho_steps": steps,
                                    "final_log_likelihood": ll}))
    std = Signal.from_natural(truth).values
    write_diag([1e-2, 1e-5, 1e-9, 0.0])
    assert checks.iterations_to_tol([1e-2, 1e-5, 1e-9, 0.0], 1e-8) == 3
    assert checks.check_estimate("L21-cyclic", np.roll(std, 5), sig, diag, False, 1e-8) is None
    assert checks.check_estimate("L21-cyclic", std * 1.5, sig, diag, False, 1e-8) is not None
    write_diag([1e-2, 1e-5, 1e-7])
    assert "stayed above" in checks.check_estimate("L21-cyclic", std, sig, diag, False, 1e-8)
    write_diag([1e-9], ll=float("nan"))
    assert "finite" in checks.check_estimate("L21-cyclic", std, sig, diag, False, 1e-8)


def test_kl_check_flags_exit_code_and_noisy_cell(tmp_path):
    csv_path, js = tmp_path / "r.csv", tmp_path / "s.json"
    csv_path.write_text("kl,kl_se,sigma\n1e-3,1e-5,2.0\n1e-5,1e-5,8.0\n")
    js.write_text(json.dumps({"fits": {"passes": True}}))
    assert "3 se" in checks.check_kl_scan(0, csv_path, js)
    assert "exited" in checks.check_kl_scan(2, csv_path, js)


def test_raising_task_is_counted_not_propagated():
    def boom():
        raise RuntimeError("no")
    rec = run.execute(workloads.Task("k", boom, lambda out: None), False, None, "k#0")
    assert not rec["ok"] and "RuntimeError" in rec["reason"]


def test_same_seed_same_inputs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        d.mkdir()
        workloads.setup_kl(str(d), seed)
        workloads.setup_moments(str(d), seed)
        workloads.setup_pr(str(d), seed)
    for name in ("kl.json", "dilute-lb.json", "sandwich.json", "delta3.json",
                 "spectrum0-noisy.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()


def test_tracer_records_nested_spans_and_restores_functions():
    orig_rho, orig_project = ring.rho, mra.RestrictedClass.project
    tracer = tracing.Tracer()
    tracer.install()
    try:
        theta = Signal(np.arange(6.0))
        tracer.task, tracer.enabled = "t#0", True
        ring.varrho(theta, theta)
        tracer.enabled = False
        ring.varrho(theta, theta)  # not recorded
    finally:
        tracer.uninstall()
    assert ring.rho is orig_rho and mra.RestrictedClass.project is orig_project
    assert cli.main.__module__ == "mralab.cli" and not hasattr(cli.main, "__wrapped__")
    names = [s["name"] for s in tracer.spans]
    assert names == ["ring.varrho", "ring.rho", "ring.align"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1]
    assert all(s["task"] == "t#0" for s in tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    total = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert sum(selfs) == pytest.approx(total)


def test_tail_rule():
    assert layers.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert layers.tail(list(range(15))) == (14, 100.0)  # p33 would sit below the median
    vals = list(range(100))
    v, p = layers.tail(vals)
    assert v == 89 and sum(x > v for x in vals) == 10 and p == 90.0


def test_per_layer_spec_matches_compute():
    spans = [{"name": "beltway.recover_from_power_spectrum", "layer": "beltway",
              "parent": None, "task": "a#0", "start": 0.0, "end": 1.0, "accepted": 1},
             {"name": "beltway.solve_beltway", "layer": "beltway", "parent": 0,
              "task": "a#0", "start": 0.1, "end": 0.9, "orbits": 1}]
    execs = [{"kind": "a", "traced": False, "dur": 1.0}, {"kind": "a", "traced": True, "dur": 1.1}]
    m = layers.compute(spans, execs, 1, {})
    assert sorted(m) == sorted(name for name, _, _ in layers.spec())
    assert m["beltway.solve_share"] == pytest.approx(0.8)
    assert m["beltway.refine_s"] == pytest.approx(0.2)
    assert m["trace.overhead_s"] == pytest.approx(0.1)
    # a traced twin that ran faster than its untraced one is noise, not a saving
    faster = [dict(execs[0]), dict(execs[1], dur=0.9)]
    assert layers.compute(spans, faster, 1, {})["trace.overhead_s"] == 0.0


def test_unconverged_fit_reports_its_whole_budget():
    leg = layers.LEGS[0]
    spans = [{"name": "mra.em_restricted_mle", "layer": "mra", "parent": None,
              "task": leg + "#0", "start": 0.0, "end": 1.0, "n": 10, "iterations": 3,
              "steps": [1e-2, 1e-5, 1e-7]}]
    execs = [{"kind": leg, "traced": False, "dur": 1.0}, {"kind": leg, "traced": True, "dur": 1.0}]
    assert checks.iterations_to_tol([1e-2, 1e-5, 1e-7], 1e-8) is None
    assert layers.compute(spans, execs, 1, {})["mra.em_iterations." + leg] == 3
