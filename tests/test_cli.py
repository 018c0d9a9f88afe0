import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import mralab
from mralab import cli
from mralab.cli import _dump_json, build_parser, main, read_container, write_container
from mralab.gensig import DiluteClassSpec, gen_collision_free
from mralab.mra import MraConfig, simulate
from mralab.ring import Signal, varrho
from mralab.spectral import power_spectrum
from oracles import traced_peak


def _write_json(path, obj):
    path.write_text(json.dumps(obj))


def _run_cli(*args):
    """`python -m mralab.cli args` in a fresh interpreter, importing this mralab."""
    src = os.path.dirname(os.path.dirname(mralab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "mralab.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=60)


class TestContainer:
    def test_round_trip(self, tmp_path):
        theta = Signal(np.arange(5, dtype=float))
        for dihedral in (False, True):
            data = simulate(theta, MraConfig(5, 0.7, dihedral), 13, np.random.default_rng(0))
            p = tmp_path / "d.mra"
            write_container(p, data)
            assert p.read_bytes()[:4] == b"MRA3"
            back = read_container(p)
            assert back.L == 5 and back.n == 13
            assert back.config.sigma == 0.7
            assert back.config.dihedral is dihedral
            assert back.observations.dtype == np.float32
            np.testing.assert_array_equal(back.observations, data.observations)

    def test_write_makes_no_copy(self, tmp_path):
        data = simulate(Signal(np.arange(21.0)), MraConfig(21, 1.0), 200_000,
                        np.random.default_rng(1))
        _, peak = traced_peak(write_container, tmp_path / "d.mra", data)
        assert peak <= 2**20

    def test_read_holds_payload_once(self, tmp_path):
        data = simulate(Signal(np.arange(21.0)), MraConfig(21, 1.0), 200_000,
                        np.random.default_rng(1))
        p = tmp_path / "d.mra"
        write_container(p, data)
        back, peak = traced_peak(read_container, p)
        assert peak <= data.observations.nbytes + 2**20
        np.testing.assert_array_equal(back.observations, data.observations)

    def test_group_mismatch_rejected(self, tmp_path):
        theta = Signal(np.arange(5, dtype=float))
        data = simulate(theta, MraConfig(5, 0.7, dihedral=True), 13, np.random.default_rng(0))
        p = tmp_path / "d.mra"
        write_container(p, data)
        restr = tmp_path / "restr.json"
        _write_json(restr, {"kind": "none"})
        argv = ["estimate", "--data", str(p), "--restriction", str(restr), "--max-iters", "1",
                "--out-signal", str(tmp_path / "hat.json")]
        with pytest.raises(ValueError,
                           match="records the dihedral group, but cyclic was requested"):
            main(argv + ["--group", "cyclic"])
        assert not (tmp_path / "hat.json").exists()
        assert main(argv + ["--group", "dihedral"]) == 0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.mra"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_container(p)

    def test_mra2_layout_named(self, tmp_path):
        # the float64 layout of earlier versions is refused by name, not read as float32
        p = tmp_path / "old.mra"
        p.write_bytes(b"MRA2" + struct.pack("<IQdB", 5, 2, 0.7, 0) + np.zeros(10).tobytes())
        with pytest.raises(ValueError, match="MRA2 container .f64 observations. is not read"):
            read_container(p)

    def test_truncated_payload_rejected(self, tmp_path):
        theta = Signal(np.arange(5, dtype=float))
        data = simulate(theta, MraConfig(5, 0.7), 13, np.random.default_rng(0))
        p = tmp_path / "d.mra"
        write_container(p, data)
        p.write_bytes(p.read_bytes()[:-12])
        with pytest.raises(ValueError, match="expected 260 payload bytes.*got 248"):
            read_container(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "d.mra"
        p.write_bytes(b"MRA3" + b"\x00" * 7)
        with pytest.raises(ValueError, match="truncated container"):
            read_container(p)

    def test_huge_header_rejected_before_reading(self, tmp_path):
        # 25 bytes: magic and a header claiming L = 2^32 - 1, n = 2^63, no payload
        p = tmp_path / "d.mra"
        p.write_bytes(b"MRA3" + struct.pack("<IQdB", 2**32 - 1, 2**63, 1.0, 0))
        assert p.stat().st_size == 25
        with pytest.raises(ValueError, match="truncated container: expected %d payload bytes"
                                             % ((2**32 - 1) * 2**63 * 4)):
            read_container(p)


class TestSimulateEstimate:
    def test_end_to_end_recovery(self, tmp_path):
        spec = DiluteClassSpec(L=21, s=4, m=1.0, M=1.1, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(1))
        sig_path = tmp_path / "theta0.json"
        _write_json(sig_path, theta0.to_json_dict())
        data_path = tmp_path / "data.mra"
        assert main(["simulate", "--signal", str(sig_path), "--sigma", "0.3",
                     "--n", "2000", "--seed", "5", "--out", str(data_path)]) == 0

        restr_path = tmp_path / "restr.json"
        _write_json(restr_path, {"kind": "support-fixed",
                                 "support": sorted(theta0.support)})
        out_sig = tmp_path / "hat.json"
        out_diag = tmp_path / "diag.json"
        assert main(["estimate", "--data", str(data_path),
                     "--restriction", str(restr_path),
                     "--init", str(sig_path),
                     "--out-signal", str(out_sig),
                     "--out-diagnostics", str(out_diag)]) == 0
        theta_hat = Signal.from_json_dict(json.loads(out_sig.read_text()))
        assert varrho(theta_hat, theta0) < 0.05
        diag = json.loads(out_diag.read_text())
        assert diag["iterations"] >= 1
        assert isinstance(diag["log_likelihood_decreases"], list)
        assert 1.0 <= diag["mean_effective_group_size"] <= 21.0

    def test_misspelled_restriction_key_rejected(self, tmp_path):
        data_path, restr_path = tmp_path / "d.mra", tmp_path / "restr.json"
        write_container(data_path, simulate(Signal(np.arange(21.0)), MraConfig(21, 0.5), 20,
                                            np.random.default_rng(0)))
        _write_json(restr_path, {"knd": "support-fixed", "support": [-4, -3, 4, 6]})
        with pytest.raises(ValueError, match=re.escape(
                "unknown restriction key 'knd'; known keys: kind, support, m, M")):
            main(["estimate", "--data", str(data_path), "--restriction", str(restr_path),
                  "--out-signal", str(tmp_path / "hat.json")])
        assert not (tmp_path / "hat.json").exists()

    @pytest.mark.parametrize("support, msg", [
        ([-4.7, -3, 4, 6.2], "class support entry must be an integer, got -4.7"),
        ([True, -3, 4, 6], "class support entry must be an integer, got True"),
        ([-4, 17, 4, 6], "class support entries -4 and 17 are one residue mod 21")],
        ids=["float", "boolean", "residue-twice"])
    def test_estimate_bad_class_support_exits_nonzero(self, tmp_path, support, msg):
        # each was fitted on another class than the one named: floats were
        # truncated, true read as 1, and 17 = -4 mod 21 left 3 support points
        data_path, restr_path = tmp_path / "d.mra", tmp_path / "restr.json"
        out = tmp_path / "hat.json"
        write_container(data_path, simulate(Signal(np.arange(21.0)), MraConfig(21, 0.5), 20,
                                            np.random.default_rng(0)))
        _write_json(restr_path, {"kind": "magnitude-band", "support": support,
                                 "m": 1.0, "M": 1.2})
        run = _run_cli("estimate", "--data", data_path, "--restriction", restr_path,
                       "--max-iters", "2", "--out-signal", out)
        assert (run.returncode, run.stderr) == (2, "mralab: error: %s\n" % msg)
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_simulate_non_finite_sigma_rejected(self, tmp_path, sigma):
        # a container of non-finite rows would only fail later, in estimate
        sig_path, out = tmp_path / "s.json", tmp_path / "d.mra"
        _write_json(sig_path, Signal(np.ones(4)).to_json_dict())
        with pytest.raises(ValueError, match="got %s" % sigma):
            main(["simulate", "--signal", str(sig_path), "--sigma", sigma, "--n", "5",
                  "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("support, values, msg", [
        ([1, 2, 3], [1.0], "need a list of 3 values, one per support entry, got [1.0]"),
        ([4, 25], [1.0, 2.0], "support entries 4 and 25 are one residue mod 21")],
        ids=["unequal-lengths", "residue-twice"])
    def test_simulate_bad_signal_exits_nonzero(self, tmp_path, support, values, msg):
        # unequal lengths, and two indices of one residue mod 21, are refused
        # rather than truncated or overwritten, in one line naming the cause
        sig_path, out = tmp_path / "s.json", tmp_path / "d.mra"
        _write_json(sig_path, {"L": 21, "format": "standard-parametrization",
                               "support": support, "values": values})
        run = _run_cli("simulate", "--signal", sig_path, "--sigma", "1.0", "--n", "5",
                       "--out", out)
        assert (run.returncode, run.stderr) == (2, "mralab: error: %s\n" % msg)
        assert not out.exists()

    @pytest.mark.parametrize("signal, msg", [
        ({"L": 21, "support": [-4.7, True, 4], "values": [1.0, 1.0, 1.0]},
         "support entry must be an integer, got -4.7"),
        ({"L": 21, "support": [-4, True, 4], "values": [1.0, 1.0, 1.0]},
         "support entry must be an integer, got True"),
        ({"L": 21.9, "support": [-4, 1, 4], "values": ["1.5", 1.0, float("nan")]},
         "L must be an integer, got 21.9"),
        ({"L": 21, "support": [-4, 1, 4], "values": ["1.5", 1.0, 1.0]},
         "values entry must be a finite number, got '1.5'"),
        ({"L": 21, "support": [-4, 1, 4], "values": [1.0, 1.0, float("nan")]},
         "values entry must be a finite number, got nan")],
        ids=["float-entry", "boolean-entry", "float-length", "text-value", "nan-value"])
    def test_simulate_malformed_signal_exits_nonzero(self, tmp_path, signal, msg):
        # each was simulated on another signal than the one given: -4.7 was
        # truncated, true read as 1, L = 21.9 as 21 and "1.5" as a number,
        # and a NaN value filled the container with NaN rows
        sig_path, out = tmp_path / "s.json", tmp_path / "d.mra"
        _write_json(sig_path, dict(signal, format="standard-parametrization"))
        run = _run_cli("simulate", "--signal", sig_path, "--sigma", "1.0", "--n", "5",
                       "--out", out)
        assert (run.returncode, run.stderr) == (2, "mralab: error: %s\n" % msg)
        assert not out.exists()

    @pytest.mark.parametrize("m, msg", [
        (True, "m must be positive and finite, got True"),
        ("1", "m must be positive and finite, got '1'")], ids=["boolean", "text"])
    def test_estimate_bad_band_exits_nonzero(self, tmp_path, m, msg):
        # "m": true was fitted as the band [1, M], and "m": "1" failed with a
        # TypeError traceback
        data_path, restr_path = tmp_path / "d.mra", tmp_path / "restr.json"
        out = tmp_path / "hat.json"
        write_container(data_path, simulate(Signal(np.arange(21.0)), MraConfig(21, 0.5), 20,
                                            np.random.default_rng(0)))
        _write_json(restr_path, {"kind": "magnitude-band", "support": [-4, -3, 4, 6],
                                 "m": m, "M": 1.2})
        run = _run_cli("estimate", "--data", data_path, "--restriction", restr_path,
                       "--max-iters", "2", "--out-signal", out)
        assert (run.returncode, run.stderr) == (2, "mralab: error: %s\n" % msg)
        assert not out.exists()

    def test_simulate_deterministic(self, tmp_path):
        sig_path = tmp_path / "s.json"
        _write_json(sig_path, Signal(np.ones(4)).to_json_dict())
        a, b = tmp_path / "a.mra", tmp_path / "b.mra"
        for out in (a, b):
            main(["simulate", "--signal", str(sig_path), "--sigma", "1.0",
                  "--n", "50", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestBeltwaySolve:
    def test_perfect_difference_set(self, tmp_path):
        prof = tmp_path / "p.json"
        _write_json(prof, {"L": 7, "differences": list(range(1, 7)),
                           "multiplicities": [1] * 6})
        out = tmp_path / "sols.json"
        assert main(["beltway-solve", "--profile", str(prof), "--s", "3",
                     "--out", str(out)]) == 0
        sols = json.loads(out.read_text())
        assert sols["supports"] == [[0, 1, 3]]

    def test_fractional_length_refused(self, tmp_path):
        # L = 7.5 was solved at L = 7
        prof, out = tmp_path / "p.json", tmp_path / "sols.json"
        _write_json(prof, {"L": 7.5, "differences": list(range(1, 7)),
                           "multiplicities": [1] * 6})
        with pytest.raises(ValueError, match=re.escape("L must be an integer, got 7.5")):
            main(["beltway-solve", "--profile", str(prof), "--s", "3", "--out", str(out)])
        assert not out.exists()


class TestPrRecover:
    def test_round_trip(self, tmp_path):
        spec = DiluteClassSpec(L=31, s=4, m=1.0, M=1.1, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(2))
        P = power_spectrum(theta0)
        csv_path = tmp_path / "spec.csv"
        csv_path.write_text("index,value\n" + "\n".join(
            "%d,%.17g" % (i, v) for i, v in enumerate(P)))
        out = tmp_path / "cands.json"
        assert main(["pr-recover", "--spectrum", str(csv_path), "--L", "31",
                     "--s", "4", "--m", "1.0", "--M", "1.1", "--tol", "1e-8",
                     "--out", str(out)]) == 0
        cands = [Signal.from_json_dict(d)
                 for d in json.loads(out.read_text())["candidates"]]
        assert cands
        best = min(min(varrho(theta0, Signal(sgn * c.values), dihedral=True)
                       for sgn in (1.0, -1.0)) for c in cands)
        assert best < 1e-8

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: ["-21,1.0"] + rows[1:], "line 2: index -21 is outside 0..20"),
        (lambda rows: rows + ["3,0.0"], "line 23: index 3 is repeated"),
        (lambda rows: rows[:5] + rows[6:], "has no row for index 5"),
        (lambda rows: rows[:2] + ["2;1.0"] + rows[3:],
         "line 4: expected an 'index,value' row, got '2;1.0'"),
        (lambda rows: rows[:2] + ["2,abc"] + rows[3:],
         "line 4: expected an 'index,value' row, got '2,abc'"),
        (lambda rows: rows[:2] + ["2,nan"] + rows[3:], "line 4: value nan is not finite"),
        (lambda rows: rows[:2] + ["2,inf"] + rows[3:], "line 4: value inf is not finite"),
    ], ids=["out-of-range", "repeated", "missing", "no-comma", "not-a-number", "nan", "inf"])
    def test_bad_rows_rejected(self, tmp_path, edit, message):
        rows = ["%d,%.17g" % (i, v) for i, v in enumerate(power_spectrum(Signal.delta(21)))]
        csv_path = tmp_path / "spec.csv"
        csv_path.write_text("\n".join(["index,value"] + edit(rows)))
        with pytest.raises(ValueError, match=message):
            main(["pr-recover", "--spectrum", str(csv_path), "--L", "21", "--s", "4",
                  "--m", "1.0", "--M", "1.1", "--out", str(tmp_path / "cands.json")])


class TestProbe:
    def test_dilute_lb_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 101, "s": 8, "m": 1.0, "M": 1.5, "eps": 1.0,
                          "trials": 100, "seed": 3})
        out = tmp_path / "rep.json"
        assert main(["probe", "dilute-lb", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["probe"] == "dilute-lb"
        assert rep["passes"] is True
        assert "config_hash" in rep and "signal" in rep

    def test_refusal_is_one_line(self, tmp_path):
        # the command line reports a refused config in one line, exit status 2;
        # an unreadable config is one line too
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 101, "s": 8, "m": 1.0, "M": 1.05, "eps": 1.0,
                          "trials": 0, "seed": 0})
        run = _run_cli("probe", "dilute-lb", "--config", cfg, "--out", tmp_path / "rep.json")
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == "mralab: error: need trials >= 1, got 0\n"
        assert not (tmp_path / "rep.json").exists()
        run = _run_cli("probe", "dilute-lb", "--config", tmp_path / "missing.json")
        assert run.returncode == 2 and run.stderr.count("\n") == 1
        assert run.stderr.startswith("mralab: error: [Errno 2] No such file")
        # in process, main still raises
        with pytest.raises(ValueError, match="need trials >= 1, got 0"):
            main(["probe", "dilute-lb", "--config", str(cfg), "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("key, value", [("trials", 20.9), ("seed", 1.9)])
    def test_fractional_count_refused(self, tmp_path, key, value):
        # these ran as 20 trials and as seed 1
        cfg, out = tmp_path / "cfg.json", tmp_path / "rep.json"
        _write_json(cfg, {"L": 101, "s": 8, "m": 1.0, "M": 1.05, "eps": 1.0, "trials": 20,
                          "seed": 0, key: value})
        with pytest.raises(ValueError, match=re.escape(
                "%s must be an integer, got %r" % (key, value))):
            main(["probe", "dilute-lb", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_other_errors_keep_their_traceback(self, monkeypatch):
        def fail(argv):
            raise RuntimeError("not a refusal")

        monkeypatch.setattr(cli, "main", fail)
        with pytest.raises(RuntimeError, match="not a refusal"):
            cli.entry_point([])

    def test_adversarial_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 16, "seed": 4, "delta": 1e-3})
        out = tmp_path / "rep.json"
        assert main(["probe", "adversarial", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config_hash"] == "7e51a7876ff57d84"
        assert abs(rep["h_mean"]) < 1e-15
        assert rep["linear_term_frobenius"] < 1e-12

    def test_uup_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 128, "a": 64, "s": 4, "trials": 500, "seed": 5})
        out = tmp_path / "rep.json"
        assert main(["probe", "uup", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["set_size"] > 0
        assert rep["c1_hat"] > 0

    def test_uup_zero_trials_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 128, "a": 64, "s": 4, "trials": 0, "seed": 5})
        with pytest.raises(ValueError, match="need trials >= 1, got 0"):
            main(["probe", "uup", "--config", str(cfg), "--out", str(tmp_path / "rep.json")])

    def test_uup_bad_sizes_rejected_with_empty_set(self, tmp_path):
        # a = 0.01 at L = 4 samples an empty set, which must not skip the size check
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"L": 4, "a": 0.01, "s": 9, "trials": 0})
        with pytest.raises(ValueError, match="need trials >= 1, got 0"):
            main(["probe", "uup", "--config", str(cfg), "--out", str(tmp_path / "rep.json")])
        assert not (tmp_path / "rep.json").exists()

    def test_uup_empty_set_report(self, tmp_path):
        # a = 0.01 at L = 4 samples an empty set at seed 0: no ratio, no frequencies
        cfg, out = tmp_path / "cfg.json", tmp_path / "rep.json"
        _write_json(cfg, {"L": 4, "a": 0.01, "s": 2, "trials": 10})
        assert main(["probe", "uup", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert (rep["set_size"], rep["c1_hat"], rep["c2_hat"]) == (0, None, None)
        assert rep["frequencies"] == []

    SANDWICH_THETA = {"L": 4, "format": "standard-parametrization", "support": [-1, 0, 1, 2],
                      "values": [1.0, -1.0, 0.5, -0.5]}
    SANDWICH_PHI = {"L": 4, "format": "standard-parametrization", "support": [-1, 0, 2],
                    "values": [1.0, -0.5, -0.5]}

    def test_sandwich_single_sample_rejected(self, tmp_path):
        # one sample has no jackknife standard error
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"theta": self.SANDWICH_THETA, "phi": self.SANDWICH_PHI,
                          "sigma_grid": [2], "n_mc": 1})
        with pytest.raises(ValueError, match="need n_mc >= 2, got 1"):
            main(["probe", "sandwich", "--config", str(cfg), "--out", str(tmp_path / "rep.json")])
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("phi", [SANDWICH_THETA, dict(SANDWICH_THETA, support=[0, 1, 2, -1])])
    def test_sandwich_phi_in_theta_orbit_rejected(self, tmp_path, phi):
        # phi = theta, or a shift of it: every Delta_m vanishes, and the
        # probe once wrote "ratio": Infinity and "fitted_C_lower": NaN
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"theta": self.SANDWICH_THETA, "phi": phi, "sigma_grid": [2],
                          "n_mc": 100})
        with pytest.raises(ValueError, match="Delta_1, Delta_2 and Delta_3 all vanish"):
            main(["probe", "sandwich", "--config", str(cfg), "--out", str(tmp_path / "rep.json")])
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_refused(self, tmp_path, bad):
        # NaN and Infinity are not JSON
        with pytest.raises(ValueError, match="not JSON compliant"):
            _dump_json({"rows": [{"ratio": bad}]}, str(tmp_path / "rep.json"))
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("grid", [[], 4, "24", [2, 0], [2, -1.0], [float("inf")],
                                      [float("nan")], [True], [None]])
    def test_sandwich_bad_sigma_grid_rejected(self, tmp_path, grid):
        # an empty grid has no rows to check, so it must not report a pass
        theta = {"L": 4, "format": "standard-parametrization", "support": [-1, 0, 1, 2],
                 "values": [1.0, -1.0, 0.5, -0.5]}
        cfg = tmp_path / "cfg.json"
        _write_json(cfg, {"theta": theta, "phi": theta, "sigma_grid": grid, "n_mc": 100})
        with pytest.raises(ValueError, match="sigma_grid"):
            main(["probe", "sandwich", "--config", str(cfg), "--out", str(tmp_path / "rep.json")])
        assert not (tmp_path / "rep.json").exists()

    @staticmethod
    def _signal(L):
        # a Golomb ruler: collision-free in Z_L for L > 68
        support = [0, 1, 4, 9, 15, 22, 32, 34]
        return {"L": L, "format": "standard-parametrization", "support": support,
                "values": [1.0] * len(support)}

    @pytest.mark.parametrize("kind, cfg", [
        ("dilute-lb", {"L": 101, "s": 8, "m": 1.0, "M": 1.05, "eps": 1.0, "trials": 10}),
        ("adversarial", {"L": 101}),
        ("lambda", {"L": 101, "s": 8, "a": 50}),
    ])
    def test_signal_length_must_match_L(self, tmp_path, kind, cfg):
        # a length-151 signal under L=101 used to run at the signal's length
        path, out = tmp_path / "cfg.json", tmp_path / "rep.json"
        _write_json(path, dict(cfg, signal=self._signal(151)))
        with pytest.raises(ValueError, match="signal has length 151 but the config has L=101"):
            main(["probe", kind, "--config", str(path), "--out", str(out)])
        assert not out.exists()
        # a matching signal, or one given without L, still runs
        _write_json(path, dict(cfg, signal=self._signal(101)))
        assert main(["probe", kind, "--config", str(path), "--out", str(out)]) == 0
        if kind == "adversarial":
            _write_json(path, {"signal": self._signal(101)})
            assert main(["probe", kind, "--config", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("kind, cfg, bad", [
        ("dilute-lb", {"L": 101, "s": 8, "m": 1.0, "M": 1.5, "eps": 1.0, "trails": 10},
         "trails"),
        ("adversarial", {"L": 16, "detla": 1e-3}, "detla"),
        ("uup", {"L": 512, "a": 256, "s": 8, "trails": 50}, "trails"),
        ("lambda", {"L": 128, "s": 13, "a": 64, "max_try": 5}, "max_try"),
        ("moderate-lb", {"s": 13, "a": 64, "h-norm": 1e-3}, "h-norm"),
        ("sandwich", {"sigmas": [2, 4]}, "sigmas"),
    ])
    def test_misspelled_key_named(self, tmp_path, kind, cfg, bad):
        path = tmp_path / "cfg.json"
        _write_json(path, cfg)
        with pytest.raises(ValueError, match=re.escape(
                "unknown %s key %r; known keys: " % (kind, bad))):
            main(["probe", kind, "--config", str(path)])


class TestScan:
    def _kl_cfg(self, tmp_path, direction, n_mc):
        cfg = {"scenario": "kl-curvature-scan", "L": 8,
               "sigma_grid": [2.0, 4.0], "seed": 21, "trials": 1,
               "s_grid": [3], "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5},
               "kl": {"direction": direction, "n_mc": n_mc, "h_norm": 0.05}}
        p = tmp_path / "cfg.json"
        _write_json(p, cfg)
        return p

    def test_kl_scan_pass_exit_zero(self, tmp_path):
        p = self._kl_cfg(tmp_path, "dilute", 200_000)
        out_json = tmp_path / "fit.json"
        out_csv = tmp_path / "rec.csv"
        code = main(["kl-scan", "--config", str(p), "--out-json", str(out_json),
                     "--out-csv", str(out_csv)])
        summary = json.loads(out_json.read_text())
        assert code == (0 if summary["fits"]["passes"] else 2)
        assert out_csv.exists()

    def test_out_json_is_stdout(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        _write_json(p, {"scenario": "dilute-rate", "L": 11, "sigma_grid": [0.5, 1.0],
                        "seed": 7, "n_base": 200, "n_rule": "fixed",
                        "dilute": {"s": 3, "m": 1.0, "M": 1.05, "eps": 0.5},
                        "em": {"max_iters": 10}})
        out_json = tmp_path / "fit.json"
        main(["rate-scan", "--config", str(p), "--out-json", str(out_json)])
        assert capsys.readouterr().out == ""
        main(["rate-scan", "--config", str(p)])
        assert out_json.read_text() == capsys.readouterr().out

    def test_kl_scan_without_samples_rejected(self, tmp_path):
        p = self._kl_cfg(tmp_path, "dilute", 0)
        with pytest.raises(ValueError, match="need kl.n_mc >= 2, got 0"):
            main(["kl-scan", "--config", str(p), "--out-json", str(tmp_path / "fit.json")])
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command, edit, msg", [
        ("kl-scan", {"kl": {"n_mc": 1000, "h_norm": 0}},
         "kl.h_norm must be positive and finite, got 0"),
        ("rate-scan", {"scenario": "dilute-rate", "em": {"max_iters": "abc"}},
         "em.max_iters must be an integer, got 'abc'"),
        ("kl-scan", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("kl-scan", {"trials": True}, "trials must be an integer, got True"),
        ("kl-scan", {"kl": {"n_mc": 2.7e3}}, "kl.n_mc must be an integer, got 2700.0")],
        ids=["kl-h_norm-zero", "em-max_iters-text", "seed-fraction", "trials-boolean",
             "kl-n_mc-float"])
    def test_malformed_value_refused_at_load(self, tmp_path, command, edit, msg):
        # the first two failed every cell, and the run ended in an
        # ExperimentFailureError traceback; seed 1.5 raised a TypeError; the
        # last two ran as 1 trial and as 2700 samples
        cfg = {"scenario": "kl-curvature-scan", "L": 8, "sigma_grid": [2.0, 4.0], "seed": 21,
               "s_grid": [3], "n_base": 200, "n_rule": "fixed",
               "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5}, "kl": {"n_mc": 1000}}
        p, out = tmp_path / "cfg.json", tmp_path / "fit.json"
        _write_json(p, dict(cfg, **edit))
        with pytest.raises(ValueError, match=re.escape(msg)):
            main([command, "--config", str(p), "--out-json", str(out)])
        assert not out.exists()

    def test_family_mismatch_rejected(self, tmp_path, capsys):
        # a refusal like any other: a ValueError in process, and one
        # `mralab: error:` line with exit status 2 on the command line
        p = self._kl_cfg(tmp_path, "dilute", 1000)
        with pytest.raises(ValueError, match="is not run by rate-scan"):
            main(["rate-scan", "--config", str(p)])
        assert cli.entry_point(["rate-scan", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mralab: error: config scenario") and err.count("\n") == 1


SIGNAL4 = {"L": 4, "format": "standard-parametrization", "support": [0, 1],
           "values": [1.0, 2.0]}
KL_SCAN = {"scenario": "kl-curvature-scan", "L": 8, "sigma_grid": [2.0], "seed": 0,
           "s_grid": [3], "kl": {"n_mc": 1000}}
SPARSITY_SCAN = {"scenario": "sparsity-scan", "L": 16, "sigma_grid": [1.0], "seed": 0,
                 "n_base": 200, "n_rule": "fixed", "s_grid": [3]}


def _argv(command, path, out, data):
    """argv of `command` reading path as its JSON input and writing out."""
    return {"probe uup": ["probe", "uup", "--config", path, "--out", out],
            "probe sandwich": ["probe", "sandwich", "--config", path, "--out", out],
            "kl-scan": ["kl-scan", "--config", path, "--out-json", out],
            "sparsity-scan": ["sparsity-scan", "--config", path, "--out-json", out],
            "simulate": ["simulate", "--signal", path, "--sigma", "1.0", "--n", "5",
                         "--out", out],
            "beltway-solve": ["beltway-solve", "--profile", path, "--s", "2", "--out", out],
            "estimate": ["estimate", "--data", data, "--restriction", path,
                         "--max-iters", "2", "--out-signal", out]}[command]


class TestObjectRefused:
    """Every JSON object is read by `ring.read_keys`: an object that is not
    one, or lacks a required key, or has an unknown one, is one `mralab:
    error:` line naming the object and the key, exit status 2, and no output."""

    @pytest.mark.parametrize("command, obj, msg", [
        ("probe uup", {"L": 128, "a": 64}, "missing uup key 's'"),
        ("probe sandwich", {"phi": SIGNAL4, "n_mc": 100}, "missing sandwich key 'theta'"),
        ("kl-scan", dict(KL_SCAN, sead=0), "unknown scan key 'sead'; known keys: scenario, "),
        ("kl-scan", {k: v for k, v in KL_SCAN.items() if k != "seed"},
         "missing scan key 'seed'"),
        ("kl-scan", dict(KL_SCAN, kl=5), "kl must be a JSON object, got 5"),
        ("sparsity-scan", dict(SPARSITY_SCAN, s_grid=5),
         "s_grid must be a list of integers, got 5"),
        ("simulate", {k: v for k, v in SIGNAL4.items() if k != "L"}, "missing signal key 'L'"),
        ("simulate", [SIGNAL4], "signal must be a JSON object, got [{"),
        ("beltway-solve", {"L": 7, "differences": [1, 6]},
         "missing profile key 'multiplicities'"),
        ("estimate", [{"kind": "none"}],
         "restriction must be a JSON object, got [{'kind': 'none'}]"),
        # these two were fitted with exit 0, the keys neither checked nor used
        ("estimate", {"kind": "support-fixed", "support": [0, 1], "m": "abc", "M": True},
         "class kind 'support-fixed' takes no m or M"),
        ("estimate", {"kind": "none", "support": [0, 1]}, "class kind 'none' takes no support")],
        ids=["uup-no-s", "sandwich-no-theta", "scan-misspelt-seed", "scan-no-seed",
             "scan-kl-not-object", "scan-s_grid-not-list", "signal-no-L", "signal-list",
             "profile-no-multiplicities", "class-list", "class-band-keys-unread",
             "class-none-support"])
    def test_refused_in_one_line(self, tmp_path, capsys, command, obj, msg):
        # each ended in a KeyError, TypeError or AttributeError traceback
        path, out, data = tmp_path / "in.json", tmp_path / "out", tmp_path / "d.mra"
        _write_json(path, obj)
        write_container(data, simulate(Signal(np.arange(4.0)), MraConfig(4, 0.5), 10,
                                       np.random.default_rng(0)))
        assert cli.entry_point([str(a) for a in _argv(command, path, out, data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mralab: error: " + msg) and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, msg", [
        ("estimate", ["--max-iters", "-3"], "need --max-iters >= 0, got -3"),
        ("estimate", ["--tol", "nan"], "--tol must be a finite number, got nan"),
        ("simulate", ["--n", "-2"], "need --n >= 0, got -2")],
        ids=["max-iters-negative", "tol-nan", "n-negative"])
    def test_bad_flag_refused(self, tmp_path, capsys, command, flags, msg):
        # --max-iters -3 wrote a fit of 0 iterations, --tol nan ran silently
        # to the cap, and --n -2 failed on "negative dimensions", naming no flag
        path, out, data = tmp_path / "in.json", tmp_path / "out", tmp_path / "d.mra"
        _write_json(path, {"kind": "none"} if command == "estimate" else SIGNAL4)
        write_container(data, simulate(Signal(np.arange(4.0)), MraConfig(4, 0.5), 10,
                                       np.random.default_rng(0)))
        assert cli.entry_point([str(a) for a in _argv(command, path, out, data)] + flags) == 2
        assert capsys.readouterr().err == "mralab: error: %s\n" % msg
        assert not out.exists()


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path):
        # the parser is built once; a call that exits on a usage error leaves
        # nothing behind for the next call
        probe = tmp_path / "adv.json"
        _write_json(probe, {"L": 16, "seed": 4, "delta": 1e-3})
        prof = tmp_path / "profile.json"
        _write_json(prof, {"L": 7, "differences": [1, 2, 3, 4, 5, 6],
                           "multiplicities": [1, 1, 1, 1, 1, 1]})
        first = ["probe", "adversarial", "--config", str(probe), "--out"]
        assert main(first + [str(tmp_path / "a.json")]) == 0
        assert main(["beltway-solve", "--profile", str(prof), "--s", "3",
                     "--out", str(tmp_path / "b.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["probe", "adversarial", "--out", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert main(first + [str(tmp_path / "d.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "d.json").read_bytes()
        assert build_parser() is build_parser()


#: runs each argv list given as JSON in argv[1] through cli.main, with every
#: import of scipy failing
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from mralab.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit("mralab %s exited nonzero" % argv[0])
"""


class TestWithoutScipy:
    def test_cli_runs_on_numpy_alone(self, tmp_path):
        spec = DiluteClassSpec(L=21, s=4, m=1.0, M=1.1, eps=1.0)
        theta0 = gen_collision_free(spec, np.random.default_rng(3))
        sig = tmp_path / "theta0.json"
        _write_json(sig, theta0.to_json_dict())
        restr = tmp_path / "restr.json"
        _write_json(restr, {"kind": "magnitude-band", "support": sorted(theta0.support),
                            "m": 1.0, "M": 1.1})
        spectrum = tmp_path / "spec.csv"
        spectrum.write_text("index,value\n" + "\n".join(
            "%d,%.17g" % (i, v) for i, v in enumerate(power_spectrum(theta0))))
        probe = tmp_path / "probe.json"
        _write_json(probe, {"L": 16, "seed": 4, "delta": 1e-3})
        scan = tmp_path / "scan.json"
        _write_json(scan, {"scenario": "kl-curvature-scan", "L": 8, "sigma_grid": [2.0],
                           "seed": 1, "trials": 1, "s_grid": [3],
                           "dilute": {"m": 1.0, "M": 1.05, "eps": 0.5},
                           "kl": {"n_mc": 2000, "h_norm": 0.05}})
        p = {k: str(tmp_path / k) for k in ("data.mra", "hat.json", "diag.json",
                                             "cands.json", "probe.out", "scan.out")}
        commands = [
            ["simulate", "--signal", str(sig), "--sigma", "0.5", "--n", "200",
             "--out", p["data.mra"]],
            ["estimate", "--data", p["data.mra"], "--restriction", str(restr),
             "--init", str(sig), "--max-iters", "5", "--out-signal", p["hat.json"],
             "--out-diagnostics", p["diag.json"]],
            ["pr-recover", "--spectrum", str(spectrum), "--L", "21", "--s", "4",
             "--m", "1.0", "--M", "1.1", "--tol", "1e-8", "--out", p["cands.json"]],
            ["probe", "adversarial", "--config", str(probe), "--out", p["probe.out"]],
            ["kl-scan", "--config", str(scan), "--out-json", p["scan.out"]],
        ]
        src = os.path.dirname(os.path.dirname(mralab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(commands)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / "diag.json").read_text())["iterations"] == 5
        assert json.loads((tmp_path / "cands.json").read_text())["candidates"]
        assert json.loads((tmp_path / "probe.out").read_text())["probe"] == "adversarial"
        assert json.loads((tmp_path / "scan.out").read_text())["n_records"] == 1
