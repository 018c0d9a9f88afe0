"""Reference checks on the program's outputs, written independently of mralab.

Each check returns None when the output is correct and a one-line reason
when it is not; the runner counts a reason as a failed task.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

#: varrho(theta_hat, theta0) ceiling per EM leg (observed about 0.01, 0.01, 0.005)
EM_VARRHO_BOUND = {"L21-cyclic": 0.08, "L21-dihedral": 0.05, "L101-cyclic": 0.03}
#: acceptance band of the random-frequency energy ratios (as in the tier-1 suite)
UUP_C1_MIN, UUP_C2_MAX = 0.05, 20.0


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def signal_values(d: dict) -> np.ndarray:
    """Standard-order values of a signal JSON dict ({L, support, values})."""
    L = int(d["L"])
    v = np.zeros(L)
    for i, x in zip(d["support"], d["values"]):
        v[(int(i) + (L - 1) // 2) % L] = x
    return v


def orbit_distance(a, b, dihedral: bool) -> float:
    """min over rotations (and reflections) G of ||a - G b||, by brute force."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    bases = (b, b[::-1]) if dihedral else (b,)
    return min(float(np.linalg.norm(a - np.roll(base, g)))
               for base in bases for g in range(b.size))


def iterations_to_tol(steps, tol: float) -> int | None:
    """1-based iteration at which the EM step first fell below tol; None if never."""
    return next((i + 1 for i, step in enumerate(steps) if step < tol), None)


def check_estimate(leg: str, truth, out_signal, out_diag, dihedral: bool, tol: float):
    diag = load_json(out_diag)
    if iterations_to_tol(diag["varrho_steps"], tol) is None:
        return "EM step stayed above %g for all %s iterations" % (tol, diag.get("iterations"))
    ll = diag.get("final_log_likelihood")
    if not isinstance(ll, (int, float)) or not math.isfinite(ll):
        return "final log-likelihood %r is not finite" % (ll,)
    est = signal_values(load_json(out_signal))
    err = orbit_distance(est, truth, dihedral) / math.sqrt(truth.size)
    if not err <= EM_VARRHO_BOUND[leg]:
        return "varrho to truth %.3g exceeds %.3g" % (err, EM_VARRHO_BOUND[leg])
    return None


def check_kl_scan(rc: int, out_csv, out_json):
    if rc != 0:
        return "kl-scan exited with %r" % (rc,)
    fits = load_json(out_json)["fits"]
    if fits.get("passes") is not True:
        return "curvature exponent %r outside %r" % (fits.get("curvature_exponent"),
                                                     fits.get("window"))
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "kl-scan wrote no records"
    for r in rows:
        kl, se = float(r["kl"]), float(r["kl_se"])
        if not kl > 3 * se:
            return "sigma=%s: kl %.3g is not above 3 se (%.3g)" % (r["sigma"], kl, se)
    return None


def check_recovery(truth, out_json, tol: float):
    cands = load_json(out_json)["candidates"]
    if not cands:
        return "no candidate recovered"
    err = min(orbit_distance(truth, sgn * signal_values(c), True)
              for c in cands for sgn in (1.0, -1.0)) / math.sqrt(truth.size)
    if not err <= tol:
        return "orbit error %.3g exceeds %.1g" % (err, tol)
    return None


def check_probe(kind: str, report: dict, floor: float | None = None):
    if kind in ("uup", "lambda"):
        c1, c2 = report.get("c1_hat"), report.get("c2_hat")
        if c1 is None or not (c1 >= UUP_C1_MIN and c2 <= UUP_C2_MAX):
            return "%s energy ratios (%r, %r) leave [%g, %g]" % (kind, c1, c2,
                                                                UUP_C1_MIN, UUP_C2_MAX)
        if kind == "lambda" and not report["spectral_floor"] >= floor:
            return "lambda set floor %.3g below %.3g" % (report["spectral_floor"], floor)
        return None
    if report.get("passes") is not True:
        return "%s probe reports passes=%r" % (kind, report.get("passes"))
    if kind == "sandwich" and not all(math.isfinite(r["kl"]) for r in report["rows"]):
        return "sandwich KL is not finite"
    return None


def bispectrum_delta3_norm(theta, phi) -> float:
    """||Delta_3(theta, phi)||_F from bispectra: L^-3 sum |B_theta - B_phi|^2."""
    L = len(theta)
    idx = (np.arange(L)[:, None] + np.arange(L)[None, :]) % L

    def bispec(v):
        f = np.fft.fft(v)
        return f[:, None] * f[None, :] * np.conj(f[idx])

    return float(np.sqrt(np.sum(np.abs(bispec(theta) - bispec(phi)) ** 2) / L**3))


def check_delta3(value: float, theta, phi):
    if not math.isfinite(value):
        return "third-moment norm is not finite"
    ref = bispectrum_delta3_norm(theta, phi)
    if not abs(value - ref) <= 1e-9 * max(ref, 1.0):
        return "third-moment norm %.12g differs from bispectrum %.12g" % (value, ref)
    return None
