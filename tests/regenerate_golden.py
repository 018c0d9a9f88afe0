"""Recompute the golden files under tests/golden/ and write them.

    PYTHONPATH=src python tests/regenerate_golden.py

`tests/test_golden.py` recomputes the same values and compares them with the
files: integers, flags and frequency sets exactly, floats within 1e-12
relative.  Regenerate only on purpose, when a random stream or an output is
meant to change, and say which fields moved and by how much.
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from mralab import cli
from mralab.probes import _sparse_picks

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


def probes_stream(workdir) -> dict:
    """The first 8 rows of `_sparse_picks(512, 8, 10000, default_rng(1))` and
    the `mralab probe` report of each config in PROBE_CONFIGS, run in
    workdir."""
    picks, vals = _sparse_picks(512, 8, 10000, np.random.default_rng(1))
    reports = {}
    for kind, cfg in PROBE_CONFIGS.items():
        cfg_path, out = Path(workdir, kind + ".json"), Path(workdir, kind + "-report.json")
        cfg_path.write_text(json.dumps(cfg))
        if cli.main(["probe", kind, "--config", str(cfg_path), "--out", str(out)]) != 0:
            raise RuntimeError("probe %s failed" % kind)
        reports[kind] = json.loads(out.read_text())
    return {"sparse_picks": {"L": 512, "s": 8, "trials": 10000, "seed": 1,
                             "positions": picks[:8].tolist(), "values": vals[:8].tolist()},
            "reports": reports}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        golden = probes_stream(workdir)
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / "probes_stream.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
