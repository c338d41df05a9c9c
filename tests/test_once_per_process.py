"""The values a run builds from no config input are built once per process.

`cli._preset_packet` builds and certifies each continuity preset's packet
on its first use; verify's Clifford residual, massless theta chain and
plane-wave lattice are formed on their first call.  These tests pin that
repeated runs in one process write the same bytes as a fresh process, that
the shared values are read-only and equal their inline forms, and that a
failed build is not kept.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qdirac import cli as qcli
from qdirac import solutions as sol
from qdirac.cli import _run_command, cli, run_continuity, run_verify
from qdirac.grid import SpacetimeGrid
from qdirac.spinor import GAMMA, METRIC_DIAG, FourVector
from test_cli import run_cli, write_json
from test_golden import _SOLUTION_GRID, CASES, FORMATS, GOLDEN

_CACHED = (qcli._preset_packet, qcli._clifford_residual, qcli._theta_chain, qcli._plane_wave_grid)


@pytest.fixture
def cold():
    """Every per-process value unbuilt before the test and after it."""
    for fn in _CACHED:
        fn.cache_clear()
    yield
    for fn in _CACHED:
        fn.cache_clear()


def _invoke(command, cfg, out, fmt, args=()):
    return CliRunner().invoke(cli, [command, "--config", str(cfg), "--format", fmt, "--out", str(out), *args])


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_golden_case_run_twice_in_one_process_writes_the_golden_bytes(tmp_path, cold, case):
    command, config, args, exit_code = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    for fmt in sorted(FORMATS):
        for n in range(2):
            out = tmp_path / f"report.{fmt}.{n}"
            result = _invoke(command, cfg, out, fmt, args)
            assert result.exit_code == exit_code, result.output
            assert out.read_bytes() == (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes(), (fmt, n)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_the_3p1_preset_run_twice_in_one_process_equals_a_fresh_process(tmp_path, cold, fmt):
    cfg = write_json(tmp_path / "config.json", {"schema_version": 1, "dimension": "3+1", "levels": 3})
    fresh = tmp_path / "fresh"
    proc = run_cli("continuity", "--config", cfg, "--format", fmt, "--out", str(fresh))
    assert proc.returncode == 0, proc.stderr
    for n in range(2):
        out = tmp_path / f"report.{n}"
        result = _invoke("continuity", cfg, out, fmt)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == fresh.read_bytes(), n


def test_each_preset_packet_is_built_and_certified_once(monkeypatch, cold):
    builds, certified = [], []
    make, certify = sol.make_wave_packet, sol.certify_solution
    monkeypatch.setattr(sol, "make_wave_packet", lambda *args: builds.append(args) or make(*args))
    monkeypatch.setattr(sol, "certify_solution", lambda field: certified.append(field) or certify(field))
    # the 3+1 preset's grid, shifted: a config's grid is read on every run
    grid = {"origin": [-0.2, 0.3, -0.1, 0.2], "spacing": [0.2] + [2.0 * math.pi / 6] * 3,
            "counts": [3, 6, 6, 6], "periodic": [False, True, True, True]}
    for cfg in ({"dimension": "1+1"}, {"dimension": "3+1"}, {}, {"dimension": "1+1", "grid": _SOLUTION_GRID},
                {"dimension": "3+1", "grid": grid}):
        assert run_continuity(cfg, None, 0)[0] == 0
    assert len(builds) == len(certified) == 2
    first, preset = qcli._default_continuity_setup({"dimension": "3+1"})
    again, shifted = qcli._default_continuity_setup({"dimension": "3+1", "grid": grid})
    assert shifted == SpacetimeGrid.from_dict(grid) != preset
    assert again is first is certified[1]
    assert qcli._default_continuity_setup({})[0] is certified[0] is not first
    # the shared packet's term arrays are read-only
    for _, _, u in first.terms0 + first.terms1:
        assert not u.flags.writeable
    for kl, cu in first.stacked_terms():
        assert not kl.flags.writeable and not cu.flags.writeable


def test_a_failed_preset_build_is_not_kept(tmp_path, monkeypatch, cold):
    # every term gets the other half's kernel spinor at the same momentum,
    # as in test_packet_with_wrong_kernel_spinors_exits_3: certification fails
    cfg = write_json(tmp_path / "config.json", {"schema_version": 1, "dimension": "1+1", "levels": 3})
    half = sol._half
    with monkeypatch.context() as patch:
        patch.setattr(sol, "_half", lambda kvec, mass, halves, esign, *rest: half(
            kvec, mass, [1 - h for h in halves], [-e for e in esign], *rest))
        with pytest.raises(SystemExit) as exc:
            _run_command(run_continuity, cfg, None, "json", None, 0)
        assert exc.value.code == 3
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        _run_command(run_continuity, cfg, str(out), "json", None, 0)
    assert exc.value.code == 0
    assert out.read_bytes() == (GOLDEN / "continuity_1p1.json").read_bytes()


def test_the_clifford_residual_equals_its_16_pair_form(cold):
    fresh = max(float(np.abs(GAMMA[m] @ GAMMA[n] + GAMMA[n] @ GAMMA[m]
                             - 2.0 * (METRIC_DIAG[m] if m == n else 0.0) * np.eye(4)).max())
                for m in range(4) for n in range(4))
    assert qcli._clifford_residual() == fresh
    assert qcli._clifford_residual() == fresh


def test_the_theta_chain_equals_a_fresh_constraint_check(cold):
    theta, k0, k1 = FourVector(1.0, 0.0, 0.0, 1.0), FourVector(2.0, 0.0, 0.0, 2.0), FourVector(1.0, 0.0, 0.0, 1.0)
    fresh = sol.check_constraints(theta, k0, k1, 0.0)
    assert qcli._theta_chain() == (theta, k0, k1, max(c.residual for c in fresh.checks if not c.vacuous))
    assert qcli._plane_wave_grid() == SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, 0.3, 0.3, 0.3), (3, 4, 4, 4))


def test_a_warm_verify_op_checks_only_its_massive_chain(monkeypatch, cold):
    assert run_verify({}, None, 0)[0] == 0
    masses = []
    check = sol.check_constraints
    monkeypatch.setattr(sol, "check_constraints", lambda *args: masses.append(args[3]) or check(*args))
    code, report = run_verify({"mass": 1.3}, None, 0)
    assert code == 0
    assert masses == [1.3]
    assert {row[0]: row[3] for row in report["checks"].rows}["theta_massive_rejected"]
