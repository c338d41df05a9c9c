import json
import math
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from qdirac.cli import (
    Report, Table, _quaternion_sweep, _render, _run_command, _slashed_square_residual, cli,
    run_catalog, run_continuity, run_packet,
)
from qdirac import (
    FourVector, PlaneWaveSolution, build_u_spinor, certify_solution, dispersion_residual,
)
from qdirac.solutions import CertificationError
from helpers import scalar_quaternion_sweep, scalar_slashed_square


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdirac", *args],
        capture_output=True, text=True,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def massive_config(tmp_path):
    return write_json(tmp_path / "massive.json", {
        "schema_version": 1,
        "kind": "massive",
        "mass": 1.0,
        "kvec0": [0.0, 0.0, 1.0],
        "kvec1": [0.0, 0.0, 1.0],
        "theta0": math.pi / 6,
    })


# --- catalog -----------------------------------------------------------------

def test_catalog_massive_eight_records(massive_config, tmp_path):
    out = tmp_path / "catalog.json"
    proc = run_cli("catalog", "--config", massive_config, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["count"] == 8
    labels = [r["label"] for r in report["solutions"]]
    assert labels == ["uu+-", "uu-+", "dd+-", "dd-+",
                      "ud+-", "ud-+", "du+-", "du-+"]
    for rec in report["solutions"]:
        assert rec["residual"] <= 1e-12


def test_catalog_massless_four_records(tmp_path):
    cfg = write_json(tmp_path / "massless.json", {
        "schema_version": 1, "kind": "massless",
        "kvec0": [0, 0, 1.0], "kvec1": [0, 0.6, 0.8], "theta0": 0.4,
    })
    proc = run_cli("catalog", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["count"] == 4
    assert all(r["mass"] == 0.0 for r in report["solutions"])


def test_catalog_missing_field_exit_2(tmp_path):
    cfg = write_json(tmp_path / "bad.json", {
        "schema_version": 1, "kind": "massive",
        "kvec0": [0, 0, 1], "kvec1": [0, 0, 1], "theta0": 0.1,
    })
    proc = run_cli("catalog", "--config", cfg)
    assert proc.returncode == 2
    assert "mass" in proc.stderr


def test_catalog_malformed_json_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    proc = run_cli("catalog", "--config", str(path))
    assert proc.returncode == 2
    assert "JSON" in proc.stderr


def test_catalog_bad_schema_version(tmp_path):
    cfg = write_json(tmp_path / "v9.json", {"schema_version": 9, "kind": "massive"})
    proc = run_cli("catalog", "--config", cfg)
    assert proc.returncode == 2
    assert "schema_version" in proc.stderr


def test_catalog_csv_cells_are_plain_numbers(massive_config):
    proc = run_cli("catalog", "--config", massive_config, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            if name != "label":
                float(cell)


# --- verify ------------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    cfg = write_json(tmp_path_factory.mktemp("verify") / "verify.json", {"schema_version": 1})
    proc = run_cli("verify", "--config", cfg)
    return proc, json.loads(proc.stdout) if proc.returncode == 0 else None


def test_verify_default_all_pass(verify_report):
    proc, report = verify_report
    assert proc.returncode == 0, proc.stderr
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_algebra_sweeps_equal_scalar_oracles():
    # exact equality: the array sweeps must round as the per-draw loops do,
    # and leave the generator where they leave it
    for seed in range(25):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _quaternion_sweep(rng) == scalar_quaternion_sweep(oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert _slashed_square_residual(rng) == scalar_slashed_square(oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_verify_tightened_tolerance_fails(tmp_path):
    cfg = write_json(tmp_path / "verify.json", {"schema_version": 1})
    proc = run_cli("verify", "--config", cfg, "--tol", "1e-16")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed
    assert all(c["value"] > 0 for c in failed)  # measured residuals reported


def test_verify_csv_gram_section(tmp_path):
    cfg = write_json(tmp_path / "verify.json", {"schema_version": 1})
    out = tmp_path / "verify.csv"
    proc = run_cli("verify", "--config", cfg, "--format", "csv", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert "# section: gram" in text
    gram_lines = text.split("# section: gram\n", 1)[1].strip().splitlines()
    header = gram_lines[0].split(",")
    assert header[0] == "label" and len(header) == 9
    assert len(gram_lines) == 9  # header + 8 rows
    for line in gram_lines[1:]:
        assert len(line.split(",")) == 9


# --- continuity ---------------------------------------------------------------

def test_continuity_default_order(tmp_path):
    cfg = write_json(tmp_path / "cont.json", {"schema_version": 1, "dimension": "1+1"})
    proc = run_cli("continuity", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["levels"]) == 3
    assert 1.8 <= report["fitted_order"] <= 2.2


def test_continuity_too_few_levels_exit_2(tmp_path):
    cfg = write_json(tmp_path / "cont.json", {"schema_version": 1, "levels": 2})
    proc = run_cli("continuity", "--config", cfg)
    assert proc.returncode == 2
    assert "levels" in proc.stderr


@pytest.mark.parametrize("dimension", ["1+1", "3+1"])
def test_continuity_huge_levels_exit_2(tmp_path, dimension):
    # a periodic count doubles each level and passes the float range near
    # level 1022, before the halved spacing underflows: the grids are
    # rejected while the ladder is built, before any lattice work
    cfg = write_json(tmp_path / "levels.json", {"schema_version": 1, "dimension": dimension, "levels": 1100})
    assert_rejected(run_cli("continuity", "--config", cfg), "grid extent overflows")


def test_continuity_degenerate_grid_exit_2(tmp_path):
    cfg = write_json(tmp_path / "cont.json", {
        "schema_version": 1,
        "dimension": "1+1",
        "grid": {"origin": [0, 0, 0, 0], "spacing": [0.1, 1, 1, 0.5],
                 "counts": [2, 1, 1, 8], "periodic": [False, False, False, True]},
    })
    proc = run_cli("continuity", "--config", cfg)
    assert proc.returncode == 2


def test_continuity_plane_wave_rounding_level(tmp_path):
    # constant-current plane wave: defects at rounding level, order fit
    # not meaningful, still a pass
    cfg = write_json(tmp_path / "cont.json", {
        "schema_version": 1,
        "levels": 3,
        "solution": {"mass": 1.0, "theta0": 0.5,
                     "kvec0": [0, 0, 0.5], "kvec1": [0, 0, 0.5]},
        "grid": {"origin": [-0.2, 0, 0, 0],
                 "spacing": [0.2, 1.0, 1.0, 0.5235987755982988],
                 "counts": [3, 1, 1, 12],
                 "periodic": [False, False, False, True]},
    })
    proc = run_cli("continuity", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["defects_at_rounding_level"] is True
    assert all(lv["defect"] <= 1e-10 for lv in report["levels"])


def test_continuity_source_column(tmp_path):
    # spec example: nonzero b with a free-solution input populates the
    # source column (diagnostic only); the source couples the two
    # symplectic halves with opposite spins, hence the ud labels
    cfg = write_json(tmp_path / "cont.json", {
        "schema_version": 1,
        "levels": 3,
        "b": [[0, 0], [0, 0], [0.3, 0.1], [0, 0]],
        "solution": {
            "mass": 1.0, "theta0": 0.6,
            "kvec0": [0, 0, 0.5], "kvec1": [0, 0, 0.8],
            "spin0": "up", "spin1": "down",
        },
        "grid": {"origin": [-0.2, 0, 0, 0],
                 "spacing": [0.2, 1.0, 1.0, 0.5235987755982988],
                 "counts": [3, 1, 1, 12],
                 "periodic": [False, False, False, True]},
    })
    proc = run_cli("continuity", "--config", cfg, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    rhs_col = []
    for line in proc.stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 5 and parts[0] not in ("h_scale",) and not line.startswith("#"):
            rhs_col.append(float(parts[2]))
    assert any(v > 0 for v in rhs_col)


@pytest.mark.parametrize("periodic", [[False, False, False, True], [False, True, True, True]])
def test_continuity_one_point_axes_flagged_periodic(tmp_path, periodic):
    # the README explicit-solution example: its 1-point x and y axes stay
    # reduced on every level, whether or not they are flagged periodic
    cfg = write_json(tmp_path / "cont.json", {
        "schema_version": 1, "levels": 3,
        "solution": {"mass": 1.0, "theta0": 0.6, "kvec0": [0, 0, 0.5],
                     "kvec1": [0, 0, 0.8], "spin0": "up", "spin1": "down"},
        "grid": {"origin": [-0.2, 0, 0, 0], "spacing": [0.2, 1, 1, 0.5236],
                 "counts": [3, 1, 1, 12], "periodic": periodic},
        "b": [[0, 0], [0, 0], [0.3, 0.1], [0, 0]],
    })
    proc = run_cli("continuity", "--config", cfg, "--format", "text")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "continuity fitted_order=-0.0003 passed=True"


# --- packet ---------------------------------------------------------------------

# z axis covers 8*pi (four interference periods for |Delta k| = 1) at
# pi/32 resolution, so extracted peak spacings are quantized well below
# the 2% wavelength tolerance
PACKET_GRID = {
    "origin": [0, 0, 0, 0],
    "spacing": [0.4, 1.0, 1.0, 0.09817477042468103],
    "counts": [3, 1, 1, 256],
    "periodic": [False, False, False, True],
}


def test_packet_single_sample_uniform_density(tmp_path):
    cfg = write_json(tmp_path / "packet.json", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0}],
        "grid": PACKET_GRID,
    })
    proc = run_cli("packet", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    densities = [r["density"] for r in report["density"]]
    assert max(densities) - min(densities) <= 1e-12 * max(densities)


def test_packet_two_sample_wavelength(tmp_path):
    # interference wavelength 2 pi / |Delta k| recovered from the output
    k1, k2 = 1.0, 2.0
    cfg = write_json(tmp_path / "packet.json", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [
            {"kvec": [0, 0, k1], "amplitude": 1.0},
            {"kvec": [0, 0, k2], "amplitude": 1.0},
        ],
        "grid": PACKET_GRID,
    })
    proc = run_cli("packet", "--config", cfg, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    z, dens = [], []
    section = None
    for line in proc.stdout.splitlines():
        if line.startswith("# section:"):
            section = line.split(":")[1].strip()
            continue
        if section == "density" and line and not line.startswith("it,"):
            parts = line.split(",")
            if int(parts[0]) == 0:
                z.append(float(parts[7]))
                dens.append(float(parts[8]))
    z = np.array(z)
    dens = np.array(dens)
    peaks = [
        z[i] for i in range(1, len(z) - 1)
        if dens[i] >= dens[i - 1] and dens[i] >= dens[i + 1] and dens[i] > dens.mean()
    ]
    spacings = np.diff(peaks)
    want = 2 * math.pi / abs(k2 - k1)
    assert abs(np.mean(spacings) - want) <= 0.02 * want


def test_packet_norm_constant_in_time(tmp_path):
    cfg = write_json(tmp_path / "packet.json", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [
            {"kvec": [0, 0, 1.0], "amplitude": 1.0},
            {"kvec": [0, 0, 2.0], "amplitude": 0.6, "spin": "down"},
        ],
        "grid": PACKET_GRID,
    })
    proc = run_cli("packet", "--config", cfg)
    assert proc.returncode == 0
    norms = [n["norm"] for n in json.loads(proc.stdout)["norms"]]
    assert max(norms) - min(norms) <= 1e-10 * max(norms)


def test_packet_off_shell_sample_exit_2(tmp_path):
    cfg = write_json(tmp_path / "packet.json", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0, "energy": 2.0}],
        "grid": PACKET_GRID,
    })
    proc = run_cli("packet", "--config", cfg)
    assert proc.returncode == 2
    assert "off shell" in proc.stderr


# --- determinism and exit codes ---------------------------------------------------

def test_reports_byte_identical(massive_config, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli("catalog", "--config", massive_config,
                       "--out", str(out), "--seed", "42")
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "verify.json", {"schema_version": 1})
    a = run_cli("verify", "--config", cfg, "--seed", "7")
    b = run_cli("verify", "--config", cfg, "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_certification_failure_maps_to_exit_3(massive_config):
    def broken_runner(cfg, tol, seed):
        raise CertificationError("synthetic failure")

    with pytest.raises(SystemExit) as exc:
        _run_command(broken_runner, massive_config, None, "json", None, 0)
    assert exc.value.code == 3


def test_packet_with_wrong_kernel_spinors_exits_3(tmp_path, monkeypatch):
    # every term gets the other half's kernel spinor at the same momentum:
    # the j-half build with the opposite label runs at the same frequency
    from qdirac import solutions
    half = solutions._half
    monkeypatch.setattr(solutions, "_half", lambda kvec, mass, halves, esign, *rest: half(
        kvec, mass, [1 - h for h in halves], [-e for e in esign], *rest))
    cfg = write_json(tmp_path / "packet.json", {"schema_version": 1, **_packet_config()})
    with pytest.raises(SystemExit) as exc:
        _run_command(run_packet, cfg, None, "json", None, 0)
    assert exc.value.code == 3


def test_config_error_maps_to_exit_2(massive_config):
    def bad_runner(cfg, tol, seed):
        raise ValueError("field 'x' is wrong")

    with pytest.raises(SystemExit) as exc:
        _run_command(bad_runner, massive_config, None, "json", None, 0)
    assert exc.value.code == 2


# k.t**2 overflows, so the dispersion residual of this momentum is NaN
_OVERFLOWING_K = FourVector(1e300, 0.0, 0.0, 3e299)
_TINY_U = np.array([1e-300, 0, 0, 0], dtype=complex)


@pytest.mark.parametrize("build, message", [
    (lambda: build_u_spinor(_OVERFLOWING_K, 1.0, 1),
     f"config error: four-momentum {_OVERFLOWING_K} is off the mass shell for m=1.0"),
    # the term residuals of this field stay finite and far under its bound
    (lambda: certify_solution(PlaneWaveSolution(
        0.3, _OVERFLOWING_K, _OVERFLOWING_K, _TINY_U, _TINY_U, 1.0, label="far")),
     f"config error: solution 'far' overflows: term momentum {_OVERFLOWING_K} is too large"),
], ids=["build_u_spinor", "certify_solution"])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_nan_dispersion_fails_the_shell_checks_with_exit_2(massive_config, capsys, build, message):
    assert math.isnan(dispersion_residual(_OVERFLOWING_K, 1.0))
    # the same error as a library call, outside the errstate of the CLI
    with pytest.raises(ValueError) as direct:
        build()
    assert f"config error: {direct.value}" == message
    with pytest.raises(SystemExit) as exc:
        _run_command(lambda cfg, tol, seed: build(), massive_config, None, "json", None, 0)
    assert exc.value.code == 2
    assert capsys.readouterr().err == message + "\n"


def _overflowing_packet(cfg, tol, seed):
    return run_packet(_packet_config({"amplitude": 1e308}), tol, seed)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("call", [
    lambda: _overflowing_packet(None, None, 0),
    lambda: run_continuity({"dimension": "3+1", "b": [[0, 0], [0, 0], [1e308, 0], [0, 0]]}, None, 0),
], ids=["packet", "continuity"])
def test_library_overflow_raises_the_error_the_cli_prints(massive_config, capsys, call):
    # the errstate of the command boundary silences warnings only: the
    # finiteness checks raise the same ValueError outside it
    with pytest.raises(ValueError) as direct:
        call()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _run_command(lambda cfg, tol, seed: call(), massive_config, None, "json", None, 0)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"config error: {direct.value}\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_gram_overflow_exits_2_in_every_format(tmp_path, fmt):
    # u^dag u = E/m ~ 1e292 times the box volume 1e24 overflows the Gram products
    cfg = write_json(tmp_path / "verify.json", {"mass": 1e-300, "box_length": 1e8})
    proc = run_cli("verify", "--config", cfg, "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("config error: the Gram products overflow: "
                           "the solutions' norms or the box volume are too large\n")


def _raise_certification(cfg, tol, seed):
    raise CertificationError("planted")


@pytest.mark.parametrize("runner, code", [
    (run_catalog, 0),
    (_overflowing_packet, 2),
    (_raise_certification, 3),
], ids=["exit0", "exit2", "exit3"])
def test_run_command_restores_the_numpy_error_state(massive_config, runner, code):
    before = np.geterr()
    with pytest.raises(SystemExit) as exc:
        _run_command(runner, massive_config, None, "json", None, 0)
    assert exc.value.code == code
    assert np.geterr() == before


def test_json_renders_tables_and_rejects_other_objects():
    table = Table.of_rows("rows", ["a", "b"], [[1, 0.5], [2, 1.5]])
    report = Report("packet", 0, {"rows": table}, [table], "head", table)
    assert json.loads(_render(report, "json"))["rows"] == [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}]
    report["rows"] = np.zeros(2)
    with pytest.raises(TypeError):
        _render(report, "json")


def _packet_config(sample=None, **grid):
    return {"component": 0, "mass": 1.0,
            "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0, **(sample or {})}],
            "grid": {**PACKET_GRID, **grid}}


@pytest.mark.parametrize("command, payload, field", [
    ("verify", {"box_cells": "abc"}, "box_cells"),
    ("verify", {"box_cells": 2.7}, "box_cells"),
    ("verify", {"mass": 0}, "mass"),
    ("verify", {"mass": -1}, "mass"),
    ("verify", {"box_length": 0}, "box_length"),
    ("continuity", {"levels": "x"}, "levels"),
    ("packet", _packet_config({"amplitude": float("nan")}), "amplitude"),
    ("packet", _packet_config({"amplitude": float("inf")}), "amplitude"),
    ("packet", _packet_config(spacing=[float("nan"), 1.0, 1.0, 0.1]), "spacing"),
    ("packet", _packet_config(origin=[0, float("inf"), 0, 0]), "origin"),
    ("packet", {**_packet_config(), "mass": [1]}, "mass"),
    ("packet", {**_packet_config(), "component": []}, "component"),
    ("packet", _packet_config(counts=[3, 1, 1, 2.7]), "counts"),
    ("packet", _packet_config(counts=[3, 1, 1, "4"]), "counts"),
    ("packet", _packet_config(counts=[3, 1, 1, True]), "counts"),
    ("packet", _packet_config(periodic=["false"] * 4), "periodic"),
    ("packet", {**_packet_config(), "mass": "1.5"}, "mass"),
    ("packet", _packet_config({"kvec": ["0", "0", "1"]}), "kvec"),
    ("packet", _packet_config({"amplitude": "2"}), "amplitude"),
    ("packet", _packet_config({"esign": True}), "esign"),
    ("catalog", {"kind": "massless", "kvec0": [0, 0, 1], "kvec1": [0, 0, 1], "theta0": "0.5"},
     "theta0"),
    ("continuity", {"b": [[0, 0], [0, 0], [float("nan"), 0], [0, 0]]}, "b"),
    ("verify", {"mass": 10**400}, "mass"),
    ("catalog", {"kind": "tachyon", "kvec0": [0, 0, 1], "kvec1": [0, 0, 1], "theta0": 0.5},
     "kind"),
    ("continuity", {"dimension": "2+1"}, "dimension"),
    ("catalog", {"kind": "massive", "mass": 1.0, "kvec0": [0, 0, 1], "kvec1": [0, 1, 0],
                 "theta0": 0.5, "norm_choice": "E2"}, "norm_choice"),
    ("packet", _packet_config({"spin": "sideways"}), "spin"),
    ("verify", {"tolerances": {"residual": -1}}, "tolerances.residual"),
    ("verify", {"tolerances": {"gram": 0}}, "tolerances.gram"),
    ("verify", {"tolerances": {"residual": "1e-12"}}, "tolerances.residual"),
    ("verify", {"tolerances": {"gram": float("nan")}}, "tolerances.gram"),
    ("verify", {"tolerances": {"residual": float("inf")}}, "tolerances.residual"),
])
def test_malformed_input_exit_2(tmp_path, command, payload, field):
    cfg = write_json(tmp_path / "bad.json", {"schema_version": 1, **payload})
    assert_rejected(run_cli(command, "--config", cfg), field)


def assert_rejected(proc, field):
    """Exit 2 with one stderr line, the diagnostic naming `field`, and no
    report; so no traceback and no numpy warning either."""
    assert proc.returncode == 2
    assert field in proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-12"])
def test_bad_tol_exit_2(tmp_path, tol):
    cfg = write_json(tmp_path / "verify.json", {"schema_version": 1})
    assert_rejected(run_cli("verify", "--config", cfg, "--tol", tol), "--tol")


@pytest.mark.parametrize("command", ["catalog", "verify", "continuity", "packet"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_exit_2(tmp_path, command, seed):
    # rejected by the option parser before the config is read
    cfg = write_json(tmp_path / "cfg.json", {"schema_version": 1})
    proc = run_cli(command, "--config", cfg, "--seed", seed)
    assert proc.returncode == 2
    assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_largest_u64_seed_accepted(massive_config):
    proc = run_cli("catalog", "--config", massive_config, "--seed", str(2**64 - 1))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seed"] == 2**64 - 1


@pytest.mark.parametrize("command, payload", [
    ("continuity", {}),
    ("packet", _packet_config()),
])
def test_tol_only_on_catalog_and_verify(tmp_path, command, payload):
    cfg = write_json(tmp_path / "cfg.json", {"schema_version": 1, **payload})
    proc = run_cli(command, "--config", cfg, "--tol", "1e-3")
    assert proc.returncode == 2
    assert "--tol" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, payload, cause", [
    ("verify", {"mass": 1e200}, "too large"),
    ("verify", {"box_length": 1e-300}, "box_length"),
    ("verify", {"box_length": 1e103}, "box_length"),
    ("catalog", {"kind": "massive", "mass": 1.0, "kvec0": [0, 0, 1e200],
                 "kvec1": [0, 0, 1], "theta0": 0.5}, "too large"),
    ("packet", {**_packet_config(), "mass": 1e200}, "too large"),
    ("catalog", {"kind": "massive", "mass": 1.0, "kvec0": [0, 0, 1e150],
                 "kvec1": [0, 0, 1], "theta0": 0.5}, "too large"),
    ("packet", _packet_config({"amplitude": 1e154}), "too large"),
    # massless spinors are kernel-checked like massive ones
    ("catalog", {"kind": "massless", "kvec0": [3e150, -5e150, 8e150],
                 "kvec1": [0, 0, 1], "theta0": 0.5}, "too large"),
    ("packet", _packet_config({"kvec": [3e119, -5e119, 8e119]}), "too large"),
    ("packet", {**_packet_config({"kvec": [3e119, -5e119, 8e119]}), "mass": 0.0}, "too large"),
    # a subnormal mass overflows the E_over_m normalization |k.t|/m
    ("catalog", {"kind": "massive", "mass": 1e-310, "kvec0": [0, 0, 1],
                 "kvec1": [0, 1, 0], "theta0": 0.5}, "too small"),
    ("verify", {"mass": 1e-310}, "too small"),
    ("packet", {**_packet_config(), "mass": 1e-310}, "too small"),
])
def test_overflowing_input_names_cause(tmp_path, command, payload, cause):
    cfg = write_json(tmp_path / "big.json", {"schema_version": 1, **payload})
    assert_rejected(run_cli(command, "--config", cfg), cause)


def test_packet_amplitude_overflow_names_the_amplitudes(tmp_path):
    # each amplitude is finite, but the residual sum of the two overflows
    cfg = write_json(tmp_path / "amp.json", {
        "schema_version": 1, "component": 0, "mass": 1.0,
        "samples": [{"kvec": [0, 0, 1], "amplitude": 1e200}, {"kvec": [0, 0, 2], "amplitude": 1e200}],
        "grid": {"spacing": [0.1, 1, 1, 0.1], "counts": [2, 1, 1, 2]}})
    assert_rejected(run_cli("packet", "--config", cfg), "amplitude")


@pytest.mark.parametrize("cells, code", [(2, 2), (3, 0)])
def test_verify_needs_three_box_cells(tmp_path, cells, code):
    # on 2 cells the Gram directions +-2pi/L alias: exp(i pi n) = exp(-i pi n)
    cfg = write_json(tmp_path / "cells.json", {"schema_version": 1, "box_cells": cells})
    proc = run_cli("verify", "--config", cfg)
    if code == 2:
        assert_rejected(proc, "alias")
    else:
        assert proc.returncode == 0, proc.stderr


def _overflowing_continuity_packet(samples: int) -> dict:
    """A continuity config whose current overflows float64: each sample
    has amplitude 1e154, so |psi|^2 and every pair term reach 1e308."""
    return {"packet": {"component": 0, "mass": 1.0,
                       "samples": [{"kvec": [0, 0, 1.0 + n % 3], "amplitude": 1e154,
                                    "spin": ("up", "down")[n % 2]} for n in range(samples)]},
            "grid": {"origin": [0, 0, 0, 0], "spacing": [0.2, 1.0, 1.0, 2 * math.pi / 12],
                     "counts": [3, 1, 1, 12], "periodic": [False, False, False, True]}}


@pytest.mark.parametrize("samples", [2, 45])
def test_continuity_overflow_on_both_sides_of_pair_block(tmp_path, samples):
    import qdirac.grid
    import qdirac.verify as ver
    from qdirac.solutions import build_wave_packet, packet_spec_from_dict
    payload = _overflowing_continuity_packet(samples)
    packet = build_wave_packet(packet_spec_from_dict(payload["packet"]))
    # 2 samples fit in one pair block; 45 samples (1035 pairs) take two
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = len(ver._current_pairs(packet)[0])
    assert (pairs > qdirac.grid._MAX_PAIRS) == (samples == 45)
    cfg = write_json(tmp_path / "big.json", {"schema_version": 1, **payload})
    assert_rejected(run_cli("continuity", "--config", cfg), "too large")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command, payload", [
    ("packet", _packet_config({"amplitude": 1e308})),
    ("continuity", {"dimension": "3+1", "b": [[0, 0], [0, 0], [1e308, 0], [0, 0]]}),
])
def test_non_finite_result_exit_2(tmp_path, command, payload, fmt):
    cfg = write_json(tmp_path / "big.json", {"schema_version": 1, **payload})
    assert_rejected(run_cli(command, "--config", cfg, "--format", fmt), "too large")


def test_unwritable_out_exit_2(massive_config, tmp_path):
    out = tmp_path / "missing" / "catalog.json"
    assert_rejected(run_cli("catalog", "--config", massive_config, "--out", str(out)), "--out")


def test_failed_replace_removes_temp_file(massive_config, tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    assert_rejected(run_cli("catalog", "--config", massive_config, "--out", str(out)), "--out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["massive.json", "taken"]


# --- fuzz: one field of a valid config replaced by an arbitrary JSON value -----

def _fuzz_grid(counts, periodic):
    spacing = [0.2] + [2 * math.pi / n if per else 1.0 for n, per in zip(counts[1:], periodic[1:])]
    return {"origin": [-0.2, 0.0, 0.0, 0.0], "spacing": spacing,
            "counts": list(counts), "periodic": list(periodic)}


FUZZ_BASES = {
    "catalog": {"schema_version": 1, "kind": "massive", "mass": 1.0, "theta0": 0.5,
                "kvec0": [0, 0, 1.0], "kvec1": [0, 0.5, 1.0], "norm_choice": "E"},
    "verify": {"schema_version": 1, "mass": 1.0, "theta0": 0.4, "box_length": 6.0,
               "box_cells": 4, "tolerances": {"residual": 1e-12, "gram": 1e-10}},
    "continuity": {"schema_version": 1, "levels": 3,
                   "solution": {"mass": 1.0, "theta0": 0.6, "kvec0": [0, 0, 1.0],
                                "kvec1": [0, 0, 2.0], "spin0": "up", "spin1": "down",
                                "esign0": "+", "esign1": "-", "norm_choice": "E_over_m"},
                   "grid": _fuzz_grid((3, 1, 1, 8), (False, False, False, True)),
                   "b": [[0, 0], [0, 0], [0.3, 0.1], [0, 0]]},
    "packet": {"schema_version": 1, "component": 0, "mass": 1.0,
               "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0, "spin": "up",
                            "esign": "+", "energy": math.sqrt(2.0)},
                           {"kvec": [0, 0, 2.0], "amplitude": 0.5, "esign": -1}],
               "grid": _fuzz_grid((2, 1, 1, 8), (False, False, False, True))},
}

# There is no point budget yet, so a fuzzed size must stay small: fields
# named here draw numbers only up to their bound, which keeps every run
# at or below levels 4, 4x8^3 grid points and box_cells 8.
_SIZE_BOUNDS = {"levels": 4, "box_cells": 8, "counts": 8}


def _paths(value, prefix=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(cfg, path, new):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return cfg


def _json_values(bound):
    if bound is None:
        numbers = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                                             -1, -0.5, 0, 2.7]),
                            st.floats(), st.integers(-3, 8))
    else:
        numbers = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 2.7]),
                            st.floats(-3, bound), st.integers(-3, bound))
    small = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 8),
                      st.floats(-3, 8))
    return st.one_of(numbers, st.none(), st.booleans(), st.text(max_size=4),
                     st.lists(small, max_size=5),
                     st.dictionaries(st.text(max_size=4), small, max_size=3))


@st.composite
def _fuzzed_config(draw, command):
    base = FUZZ_BASES[command]
    path = draw(st.sampled_from(list(_paths(base))))
    bound = next((b for key, b in _SIZE_BOUNDS.items() if key in path), None)
    return path, _replaced(base, path, draw(_json_values(bound)))


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_exit_contract(tmp_path, command, data):
    path, cfg = data.draw(_fuzzed_config(command), label="path, config")
    cfg_path = write_json(tmp_path / "fuzz.json", cfg)
    result = CliRunner().invoke(cli, [command, "--config", cfg_path])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        path, result.exc_info)
    assert result.exit_code in (0, 1, 2), (path, result.stderr)
    if result.exit_code in (0, 1):
        json.loads(result.stdout, parse_constant=_reject_constant)
    else:
        assert result.stderr.startswith("config error: "), (path, result.stderr)
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), (path, result.stderr)
