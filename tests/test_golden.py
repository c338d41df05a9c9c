"""Every command's report, in every format, compared byte for byte with a
committed golden file.

The files under tests/golden/ are named `<case>.<format>`; each case is
one config (plus CLI arguments) below.  They pin the JSON schema v1
bytes, the CSV sections and the text tables, so any change to a report
shows up here as a diff of the file.
"""

import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from qdirac.cli import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_PERIODIC_Z = [False, False, False, True]
_SPACING_Z12 = [0.2, 1.0, 1.0, 2 * math.pi / 12]
_SOLUTION_GRID = {"origin": [-0.2, 0, 0, 0], "spacing": _SPACING_Z12,
                  "counts": [3, 1, 1, 12], "periodic": _PERIODIC_Z}

# case: (command, config, extra CLI arguments, exit code)
CASES = {
    "catalog_massive": ("catalog", {
        "schema_version": 1, "kind": "massive", "mass": 1.0,
        "kvec0": [0, 0, 1.0], "kvec1": [0, 0, 1.0], "theta0": 0.5236,
        "norm_choice": "E_over_m"}, [], 0),
    "catalog_massive_e": ("catalog", {
        "kind": "massive", "mass": 1.7, "kvec0": [0.3, -0.4, 1.1], "kvec1": [-0.2, 0.5, 0.6],
        "theta0": 1.1, "norm_choice": "E"}, [], 0),
    "catalog_massless": ("catalog", {
        "schema_version": 1, "kind": "massless",
        "kvec0": [0, 0, 1.0], "kvec1": [0, 0.6, 0.8], "theta0": 0.5236}, [], 0),
    "verify_default": ("verify", {}, [], 0),
    "verify_tight_tol": ("verify", {}, ["--tol", "1e-20"], 1),
    # the shape of a benchmark verify op: a 16^3 Gram box and a seed of its own
    "verify_box16": ("verify", {"mass": 1.3, "theta0": 0.4, "box_length": 6.0, "box_cells": 16},
                     ["--seed", "12345"], 0),
    "continuity_1p1": ("continuity", {"schema_version": 1, "dimension": "1+1", "levels": 3},
                       [], 0),
    "continuity_source": ("continuity", {
        "schema_version": 1, "levels": 3,
        "solution": {"mass": 1.0, "theta0": 0.6, "kvec0": [0, 0, 0.5],
                     "kvec1": [0, 0, 0.8], "spin0": "up", "spin1": "down"},
        "grid": _SOLUTION_GRID,
        "b": [[0, 0], [0, 0], [0.3, 0.1], [0, 0]]}, [], 0),
    # a plane wave at rest: every defect is exactly 0, so no order is fitted
    "continuity_plane_wave": ("continuity", {
        "schema_version": 1, "levels": 3,
        "solution": {"mass": 1.0, "theta0": 0.5, "kvec0": [0, 0, 0], "kvec1": [0, 0, 0]},
        "grid": _SOLUTION_GRID}, [], 0),
    "packet": ("packet", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0, "spin": "up", "esign": "+"},
                    {"kvec": [0, 0, 2.0], "amplitude": 0.8}],
        "grid": {"origin": [0, 0, 0, 0], "spacing": [0.4, 1, 1, 0.0982],
                 "counts": [2, 1, 1, 8], "periodic": _PERIODIC_Z}}, [], 0),
}

FORMATS = {"json": "json", "csv": "csv", "text": "txt"}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_file(tmp_path, case, fmt):
    command, config, args, exit_code = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report"
    result = CliRunner().invoke(
        cli, [command, "--config", str(cfg), "--format", fmt, "--out", str(out), *args])
    assert result.exit_code == exit_code, result.output
    assert out.read_bytes() == (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes()
