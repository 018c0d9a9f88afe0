"""In-memory spans around calls into mralab's public functions.

The tracer replaces each listed function, in every mralab module that binds
it, with a wrapper that records a span (name, start, end, parent, task id)
while tracing is enabled.  The program itself is not edited: spans are taken
at the boundaries the benchmark can see from outside.
"""
from __future__ import annotations

import functools
import json
import sys
import time

#: layer -> public callables wrapped in traced runs ("Class.method" allowed)
TRACED = {
    "cli": ["main", "read_container", "write_container"],
    "mra": ["simulate", "log_likelihood", "kl_monte_carlo", "em_restricted_mle",
            "RestrictedClass.project"],
    "beltway": ["solve_beltway", "recover_from_power_spectrum"],
    "spectral": ["power_spectrum", "delta_m", "second_moment_difference_expansion"],
    "probes": ["dilute_lower_bound_check", "uup_sample", "uup_check",
               "lambda_construct", "moderate_curvature_check",
               "moment_sandwich_probe", "support_restricted_min_ratio"],
    "ring": ["align", "rho", "varrho"],
    "gensig": ["gen_collision_free", "gen_symm_bernoulli_gaussian"],
    "experiments": ["run_experiment"],
}

LAYERS = tuple(TRACED)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


#: span name -> attrs(args, kwargs, result): counts recorded at the boundary
ANNOTATE = {
    "mra.em_restricted_mle": lambda a, k, r: {
        "n": int(_arg(a, k, 0, "data").n), "iterations": int(r[1]["iterations"]),
        "steps": [float(x) for x in r[1]["varrho_steps"]]},
    "mra.log_likelihood": lambda a, k, r: {"n": int(_arg(a, k, 1, "data").n)},
    "mra.simulate": lambda a, k, r: {"n": int(_arg(a, k, 2, "n"))},
    "mra.kl_monte_carlo": lambda a, k, r: {"n_mc": int(_arg(a, k, 3, "n_mc"))},
    "beltway.solve_beltway": lambda a, k, r: {"orbits": len(r)},
    "beltway.recover_from_power_spectrum": lambda a, k, r: {"accepted": len(r)},
    "spectral.delta_m": lambda a, k, r: {"m": int(_arg(a, k, 2, "m"))},
    "cli.read_container": lambda a, k, r: {"n": int(r.n), "L": int(r.L)},
}


class Tracer:
    """Records spans while `enabled`; install() patches, uninstall() restores."""

    def __init__(self):
        self.enabled = False
        self.task = None
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "mralab" or name.startswith("mralab.")}
        for layer, names in TRACED.items():
            home = modules["mralab." + layer]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(layer, qual, orig))
                    continue
                orig = getattr(home, qual)
                wrapped = self._wrap(layer, qual, orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, orig, new):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def _wrap(self, layer, qual, fn):
        name = "%s.%s" % (layer, qual)
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "layer": layer, "parent": parent,
                    "task": self.task, "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
