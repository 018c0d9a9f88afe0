"""mralab benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload em-estimate --seed 1 --seconds 20 --trace 0

Workloads: em-estimate, kl-scan, pr-recover, moments-probe (see workloads.py).
The load is a closed loop: one client in this process runs the workload's
round of tasks back to back, each an in-process call into mralab, and
checks every output against a reference.  The first round always runs in
full; later tasks start only while they fit in --seconds.  Set-up (importing
the program in a fresh interpreter, then writing the seeded inputs) is timed
several times and its median reported as setup_s.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (one round, each
task at the median of its executions), task_p50_s and peak_rss_mb.  Times
are scaled to the reference host speed (HostClock).  --trace 1 runs every
task twice, untraced and traced, records spans around mralab's public
functions (tracing.py), and reports the per-layer metrics (layers.py),
including the tracing overhead as traced minus untraced time.
Human-readable lines start with '#'; the last line of stdout is one JSON
object.  A full record with machine facts and provenance, and the spans, go
to .perfbench/runs/.

Exits 2 without a result when the mralab sources are not next to it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
#: HostClock's kernel time at the reference host speed: about its median on
#: a quiet 2-vCPU Intel Xeon at 2.0 GHz (scipy-openblas, 2 BLAS threads)
REFERENCE_KERNEL_S = 0.0125
KERNEL_REPEATS = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_p50_s", "s"), ("peak_rss_mb", "MB")]


def _cap_blas_threads():
    """BLAS may use at most as many threads as this process has cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload, seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy
    import mralab
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload.name, "seed": seed, "config_hash": workload.config_hash(),
        "nproc": nproc, "machine": platform.machine(), "system": platform.system(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mralab": mralab.__version__, "git_sha": _git_sha(ROOT),
    }


class HostClock:
    """Host speed, from a fixed kernel timed between measured steps.

    On a shared host the speed of a core drifts by 10-30% over tens of
    seconds, as other tenants come and go.  A fixed kernel of the program's
    kind of work (Python loop, FFT, small GEMM, exp), whose inputs never
    change, slows with it.  It runs before the first step and after every
    step (a set-up or a task execution), and each step's time is scaled by
    REFERENCE_KERNEL_S / (the median kernel time just before and after it):
    seconds at the reference host speed.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np, self._a, self._x = np, rng.normal(size=(128, 128)), rng.normal(size=(64, 4096))
        self.kernel = []

    def sample(self):
        np, a, x = self._np, self._a, self._x
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for _ in range(3):
                np.fft.rfft(x, axis=1)
                a @ a
                np.exp(x).sum()
            acc = 0
            for i in range(100000):
                acc += i * i
            self.kernel.append(time.perf_counter() - t0)

    def local_factor(self) -> float:
        """Scale of the step between the last two samples."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel[-2 * KERNEL_REPEATS:])

    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.kernel)


def load_program(src: Path) -> float:
    """Import the whole program in a fresh interpreter; the import's time.

    The child times its own import, so the interpreter's start and exit
    (the same for any program) stay out of the figure.  BLAS does no work
    during the import; with one BLAS thread its thread pool does not add
    its start-up time (0-100 ms, in 50 ms steps).
    """
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import time; t0 = time.perf_counter(); import mralab.cli; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    return float(out.stdout.split()[-1])


def execute(task, traced: bool, tracer, label: str) -> dict:
    """One timed call; a raised error or a failed check is a failed task."""
    rec = {"kind": task.kind, "traced": traced, "ok": False, "work": 0.0, "reason": None}
    if tracer is not None:
        tracer.task, tracer.enabled = label, traced
    t0 = time.perf_counter()
    try:
        out = task.call()
    except Exception as exc:  # the program failed this task; count it and go on
        rec["dur"] = time.perf_counter() - t0
        rec["reason"] = "raised %r" % (exc,)
        return rec
    finally:
        if tracer is not None:
            tracer.enabled = False
    rec["dur"] = time.perf_counter() - t0
    try:
        rec["reason"] = task.check(out)
        if rec["reason"] is None:
            rec["work"] = float(task.work(out))
            rec["ok"] = True
    except Exception as exc:  # unreadable or malformed output
        rec["reason"] = "check raised %r" % (exc,)
    return rec


def closed_loop(tasks, seconds: float, clock: HostClock, tracer=None) -> list:
    """Run the round in full, then keep cycling while the next task fits.

    Traced runs execute each task twice, traced and untraced, back to back.
    The host clock is sampled between tasks; each execution records the
    speed scale of its step.
    """
    execs, last = [], {}
    t0 = time.perf_counter()
    i = 0
    clock.sample()
    while True:
        task = tasks[i % len(tasks)]
        if i >= len(tasks):
            if time.perf_counter() - t0 + last[task.kind] > seconds:
                break
        label = "%s#%d" % (task.kind, i // len(tasks))
        if tracer is None:
            step = [execute(task, False, None, label)]
        else:
            # alternate which twin runs first, so warm-up favours neither side
            first = bool((i // len(tasks)) % 2)
            step = [execute(task, first, tracer, label), execute(task, not first, tracer, label)]
        clock.sample()
        for e in step:
            e["scale"] = clock.local_factor()
        execs += step
        last[task.kind] = sum(e["dur"] for e in step)
        i += 1
    return execs


def end_to_end(setups, execs, tasks, workload, clock: HostClock) -> tuple[dict, list]:
    """Metrics of one round of the workload's task list, at reference host speed.

    Each task counts with the median of its scaled executions in the run, a figure
    whose expected value does not depend on how many executions fit.  The
    tail over all executions goes to the notes only: its percentile moves
    with the number of tasks a run completes.
    """
    from layers import tail
    by_kind = {}
    for e in execs:
        by_kind.setdefault(e["kind"], []).append(e)
    per_task = {t.kind: statistics.median(e["dur"] * e["scale"] for e in by_kind[t.kind])
                for t in tasks}
    m = {"setup_s": statistics.median(setups),
         "wall_s": sum(per_task.values()), "task_p50_s": statistics.median(per_task.values()),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    # work of one round; a kind whose executions all failed did no useful work
    work = sum(max(e["work"] for e in by_kind[k]) for k in per_task)
    tail_v, tail_p = tail([e["dur"] * e["scale"] for e in execs])
    notes = ["host speed: kernel median %.4g ms against a reference of %.4g ms"
             % (1e3 * statistics.median(clock.kernel), 1e3 * REFERENCE_KERNEL_S),
             "task_tail_s = %.6g s: p%.1f of %d task executions" % (tail_v, tail_p, len(execs)),
             "%s = %.6g (one round's work / wall_s)" % (workload.work_name, work / m["wall_s"]),
             "failed_frac = %.6g" % (sum(not e["ok"] for e in execs) / len(execs))]
    if workload.name == "em-estimate":
        notes += ["em_fit_s.%s = %.6g s (median of %d)" % (k, per_task[k], len(by_kind[k]))
                  for k in per_task]
    return m, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mralab" / "__init__.py").is_file():
        print("perfbench: no mralab sources under %s" % src, file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(src))
    try:
        import layers
        import tracing
        from workloads import WORKLOADS
    except ImportError as exc:
        print("perfbench: cannot import the program: %r" % (exc,), file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    stem = "%s-s%d-t%d" % (workload.name, args.seed, args.trace)
    runs = ROOT / ".perfbench" / "runs"
    work = ROOT / ".perfbench" / "work" / stem
    shutil.rmtree(work, ignore_errors=True)
    runs.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    clock = HostClock()
    try:
        setups, raw_setups = [], []
        clock.sample()
        for k in range(SETUP_REPEATS):
            d = work / ("setup%d" % k)
            d.mkdir(parents=True)
            imported = load_program(src)
            t0 = time.perf_counter()
            tasks = workload.setup(str(d), args.seed)
            raw_setups.append(imported + time.perf_counter() - t0)
            clock.sample()
            setups.append(raw_setups[-1] * clock.local_factor())
        if tracer is not None:
            tracer.install()
            d = work / "setup-traced"
            d.mkdir()
            tracer.task, tracer.enabled = "setup", True
            workload.setup(str(d), args.seed)
            tracer.enabled = False
        execs = closed_loop(tasks, args.seconds, clock, tracer)
        extras = workload.trace_extra(args.seed) if tracer is not None else {}
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    scale = clock.factor()
    e2e, notes = end_to_end(setups, [e for e in execs if not e["traced"]], tasks, workload,
                            clock)
    if tracer is not None:
        values = layers.compute(tracer.spans, execs, len(tasks), extras)
        metrics = {name: {"value": values[name] * (scale if unit in ("s", "us") else 1.0),
                          "unit": unit}
                   for name, unit, _ in layers.spec()}
        tracer.write(runs / (stem + ".spans.jsonl"))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    failed = [e for e in execs if not e["ok"]]
    prov = provenance(workload, args.seed, nproc)
    record = {"provenance": prov, "metrics": metrics, "end_to_end": e2e, "notes": notes,
              "raw_setups_s": raw_setups, "host_kernel_s": clock.kernel,
              "executions": [{k: e[k] for k in ("kind", "traced", "dur", "scale", "ok")}
                             for e in execs],
              "failures": [{"kind": e["kind"], "reason": e["reason"]} for e in failed],
              "config": workload.config}
    with open(runs / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print("# %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for line in notes:
        print("# " + line)
    for e in failed:
        print("# FAILED %s: %s" % (e["kind"], e["reason"]))
    print(json.dumps({"correct": not failed, "attempted": len(execs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
