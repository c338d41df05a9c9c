"""The benchmark's traced runs patch qdirac functions by module path
(`perfbench/spans.py`, `TARGETS`).  A rename under `src/` that drops
one of those names breaks every traced run, so the table is checked
here, where the library's own suite runs.  The file is only read.
So is the package's public name list, `qdirac.__all__`."""

import ast
from pathlib import Path

import pytest

import qdirac
import qdirac.cli
import qdirac.verify
from helpers import perfbench_module

def test_span_targets_install_and_trace_a_run():
    spans = perfbench_module("spans")
    before = qdirac.verify.dirac_residual
    tracer = spans.Tracer()
    cfg = {"kind": "massive", "mass": 1.0, "kvec0": [0, 0, 1.0], "kvec1": [0, 1.0, 0],
           "theta0": 0.5}
    with spans.install(tracer):
        code, _ = tracer.run_op(lambda: qdirac.cli.run_catalog(cfg, None, 3))
    assert code == 0
    assert qdirac.verify.dirac_residual is before
    (stats,) = tracer.op_stats
    # 8 solutions, certified as one set and checked as one set at 32 sample points
    assert stats["solutions.certify"].calls == 1
    assert stats["verify.dirac_residual"].calls == 1
    assert stats["verify.dirac_residual"].points == 32


def test_span_targets_trace_a_verify_run_without_changing_it():
    spans = perfbench_module("spans")
    tracer = spans.Tracer()
    with spans.install(tracer):
        code, traced = tracer.run_op(lambda: qdirac.cli.run_verify({}, None, 5))
    untraced_code, untraced = qdirac.cli.run_verify({}, None, 5)
    assert code == untraced_code == 0
    assert qdirac.cli._render(traced, "json") == qdirac.cli._render(untraced, "json")
    (stats,) = tracer.op_stats
    # one certified pass over all 29 fields (the 8 massive, 4 massless, running
    # phase, 8 helicity and 8 Gram solutions); the adjoint check re-phases 2
    # of them without a certification
    assert stats["solutions.certify"].calls == 1
    # the pass runs through solutions._build, which no target wraps, so no
    # build span is recorded
    assert "solutions.build" not in stats
    # the quaternion sweep runs its independent products side by side
    assert stats["qalg.mul"].calls == 2
    # one residual call for the massive set, the massless set and the running
    # phase, and one helicity call for the whole helicity set
    assert stats["verify.dirac_residual"].calls == 1
    assert stats["verify.helicity_check"].calls == 1


_CONTINUITY = {"levels": 3, "solution": {"mass": 1.0, "theta0": 0.6, "kvec0": [0, 0, 0.5],
                                         "kvec1": [0, 0, 0.8], "spin0": "up", "spin1": "down"},
               "grid": {"origin": [-0.2, 0, 0, 0], "spacing": [0.2, 1, 1, 0.5236], "counts": [3, 1, 1, 12],
                        "periodic": [False, False, False, True]}}
_PACKET = {"component": 0, "mass": 1.0,
           "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0}, {"kvec": [0, 0.5, 0], "amplitude": 0.5}],
           "grid": {"origin": [0, 0, 0, 0], "spacing": [0.4, 1.0, 1.0, 0.1], "counts": [3, 1, 1, 16]}}


@pytest.mark.parametrize("runner, cfg", [(qdirac.cli.run_continuity, _CONTINUITY),
                                         (qdirac.cli.run_packet, _PACKET)],
                         ids=["continuity", "packet"])
def test_continuity_and_packet_runs_certify_once(runner, cfg):
    spans = perfbench_module("spans")
    tracer = spans.Tracer()
    with spans.install(tracer):
        code, _ = tracer.run_op(lambda: runner(cfg, None, 0))
    assert code == 0
    (stats,) = tracer.op_stats
    # the one field of the op, certified once
    assert stats["solutions.certify"].calls == 1


def test_public_names_are_imported_once():
    # every public name is listed once, resolves, and is bound by an
    # import in __init__.py rather than defined there
    tree = ast.parse(Path(qdirac.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(qdirac.__all__) == len(set(qdirac.__all__))
    for name in qdirac.__all__:
        assert name in imported and hasattr(qdirac, name), name
