"""A corrupted report, a NaN token, a wrong exit code and an uncaught
exception each count as a failed op."""

import dataclasses
import json

import pytest

import checks
import run
import workloads

CATALOG = {"kind": "massive", "mass": 1.0, "theta0": 0.5,
           "kvec0": [0.0, 0.0, 1.0], "kvec1": [0.0, 0.5, 1.0]}
PACKET = {"component": 0, "mass": 1.0,
          "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0},
                      {"kvec": [0, 0, 2.0], "amplitude": 0.8}],
          "grid": {"origin": [0, 0, 0, 0], "spacing": [0.4, 1, 1, 0.0982],
                   "counts": [3, 1, 1, 64], "periodic": [False, False, False, True]}}
CONTINUITY = {"dimension": "1+1", "levels": 4}


def make_op(command, fmt="json", cfg=None, **kw):
    return workloads.Op(key=f"{command}-{fmt}", kind=command, command=command, fmt=fmt,
                        config_text=json.dumps({"schema_version": 1, **(cfg or {})}),
                        cli_seed=3, **kw)


def catalog_op(fmt="json"):
    return make_op("catalog", fmt, CATALOG, expect={"count": 8})


def packet_op(fmt="json"):
    return make_op("packet", fmt, PACKET,
                   expect={"nt": 3, "points": 192, "cell_volume": 1.0 * 1.0 * 0.0982})


def continuity_op(fmt="json"):
    return make_op("continuity", fmt, CONTINUITY, expect={"levels": 4, "source_active": False})


def bench_for(cli_module, tmp_path, *ops):
    return run.Bench(cli_module, workloads.Workload("test", ops, 90.0, 1), tmp_path)


def execute(cli_module, tmp_path, op):
    return bench_for(cli_module, tmp_path, op).execute(op)


def with_output(result, text):
    return dataclasses.replace(result, output=text.encode())


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("make", [catalog_op, packet_op, continuity_op])
def test_valid_reports_pass(cli_module, tmp_path, make, fmt):
    op = make(fmt)
    assert checks.check(op, execute(cli_module, tmp_path, op)) is None


def test_verify_report_passes(cli_module, tmp_path):
    op = make_op("verify", "json", {"box_cells": 8})
    assert checks.check(op, execute(cli_module, tmp_path, op)) is None


def _corrupt_passed(rep):
    rep["passed"] = False


def _corrupt_residual(rep):
    rep["solutions"][3]["residual"] = 1e-3


def _corrupt_count(rep):
    del rep["solutions"][-1]


@pytest.mark.parametrize("corrupt, reason", [
    (_corrupt_passed, "passed=False"),
    (_corrupt_residual, "exceeds"),
    (_corrupt_count, "solution records"),
])
def test_corrupted_report_fails(cli_module, tmp_path, corrupt, reason):
    op = catalog_op()
    result = execute(cli_module, tmp_path, op)
    rep = json.loads(result.output)
    corrupt(rep)
    assert reason in checks.check(op, with_output(result, json.dumps(rep)))


def test_truncated_report_fails(cli_module, tmp_path):
    op = catalog_op()
    result = execute(cli_module, tmp_path, op)
    assert "malformed JSON" in checks.check(op, dataclasses.replace(result, output=result.output[:-40]))


def test_cross_checks_do_not_trust_passed(cli_module, tmp_path):
    op = continuity_op()
    result = execute(cli_module, tmp_path, op)
    rep = json.loads(result.output)
    rep["fitted_order"] += 0.01
    assert "differs from the recomputed" in checks.check(op, with_output(result, json.dumps(rep)))

    op = packet_op()
    result = execute(cli_module, tmp_path, op)
    rep = json.loads(result.output)
    rep["density"][5]["density"] *= 1.5
    assert "norm" in checks.check(op, with_output(result, json.dumps(rep)))

    op = make_op("verify", "json", {"box_cells": 8})
    result = execute(cli_module, tmp_path, op)
    rep = json.loads(result.output)
    rep["checks"][0]["value"] = 2 * rep["checks"][0]["tolerance"] + 1e-20
    assert "exceeds its tolerance" in checks.check(op, with_output(result, json.dumps(rep)))


def test_nan_token_fails(cli_module, tmp_path):
    op = packet_op()
    result = execute(cli_module, tmp_path, op)
    text = result.output.decode()
    first_norm = json.loads(text)["norms"][0]["norm"]
    bad = text.replace(repr(first_norm), "NaN", 1)
    assert "non-strict JSON token NaN" in checks.check(op, with_output(result, bad))
    assert "Infinity" in checks.check(op, with_output(result, text.replace(repr(first_norm), "Infinity", 1)))

    op = packet_op("csv")
    result = execute(cli_module, tmp_path, op)
    text = result.output.decode()
    last_row = text.split("\n# section: norms\n")[0].rstrip("\n").rsplit("\n", 1)[1]
    bad_row = last_row.rsplit(",", 1)[0] + ",nan"
    assert "non-finite" in checks.check(op, with_output(result, text.replace(last_row, bad_row)))


def test_wrong_exit_code_fails(cli_module, tmp_path):
    op = catalog_op()
    result = execute(cli_module, tmp_path, op)
    assert "exit code 1, expected 0" in checks.check(op, dataclasses.replace(result, exit_code=1))

    probe = make_op("catalog", "json", {"kind": "massive"}, probe=True, expect_exit=2)
    assert checks.check(probe, execute(cli_module, tmp_path, probe)) is None
    assert "expected 2" in checks.check(probe, dataclasses.replace(result, exit_code=0))


def test_uncaught_exception_fails(cli_module, tmp_path, monkeypatch):
    def boom(cfg, tol, seed):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli_module, "run_catalog", boom)
    op = catalog_op()
    result = execute(cli_module, tmp_path, op)
    assert result.exit_code == 1
    assert checks.check(op, result) == "uncaught exception: RuntimeError: injected"

    probe = dataclasses.replace(op, probe=True, expect_exit=2)
    assert "uncaught exception" in checks.check(probe, result)


def test_bench_counts_failures_and_nondeterminism(cli_module, tmp_path, monkeypatch):
    op = catalog_op()
    bench = bench_for(cli_module, tmp_path, op)
    bench.run_pass(first=True)
    assert (bench.attempted[False], bench.failed[False]) == (1, 0)

    original = cli_module.run_catalog

    def drifting(cfg, tol, seed):
        code, report = original(cfg, tol, seed)
        report["solutions"][0]["density"] += 1e-15
        return code, report

    monkeypatch.setattr(cli_module, "run_catalog", drifting)
    bench.run_pass()
    assert (bench.attempted[False], bench.failed[False]) == (2, 1)
    assert list(bench.failures) == [(op.key, "output differs from the op's first run")]
