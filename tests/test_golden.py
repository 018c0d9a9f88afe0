"""Recomputed outputs against the golden files under tests/golden/.

Integers, flags, strings and frequency sets must match exactly; floats within
1e-12 relative, since another BLAS may round differently.  Regenerate with
`PYTHONPATH=src python tests/regenerate_golden.py`.
"""
import json

import pytest

from regenerate_golden import FILES, GOLDEN


def assert_matches(got, want, path="$"):
    """Compare JSON values: floats within 1e-12 relative, all else exactly."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=1e-12, abs=0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, "%s[%d]" % (path, i))
    else:
        assert type(got) is type(want) and got == want, path


def check_file(name, workdir):
    assert_matches(FILES[name](workdir), json.loads((GOLDEN / name).read_text()))


def test_probes_stream(tmp_path):
    check_file("probes_stream.json", tmp_path)


def test_probes_curvature(tmp_path):
    # dilute-lb and adversarial read the Delta_2 expansion
    check_file("probes_curvature.json", tmp_path)


def test_kl(tmp_path):
    # the sandwich probe and the kl-scan read kl_monte_carlo's estimate and SE
    check_file("kl.json", tmp_path)


def test_mra(tmp_path):
    # kl_monte_carlo, and the draw, EM fit and moments behind simulate and estimate
    check_file("mra.json", tmp_path)


def test_beltway(tmp_path):
    # pr-recover on benchmark-style spectra, and the two-point value solve
    check_file("beltway.json", tmp_path)


def test_scans(tmp_path):
    # rate-scan and sparsity-scan: the EM fits on simulated cells; the rate-scan
    # again with every cell over the in-memory limit
    check_file("scans.json", tmp_path)


def test_spilled_scan_equals_in_memory():
    # a cell draws one stream whether its rows sit in memory or in a mapped file
    scans = json.loads((GOLDEN / "scans.json").read_text())
    assert scans["rate-scan-spilled"] == scans["rate-scan"]


def test_assert_matches_tolerance():
    assert_matches({"a": [1, 0.5, None]}, {"a": [1, 0.5 * (1 + 5e-13), None]})
    for got, want in ((1.0 + 1e-11, 1.0), (2, 3), (1, 1.0), (True, 1), ([1, 2], [1])):
        with pytest.raises(AssertionError):
            assert_matches(got, want)
