import json
import math

import pytest

import qdirac.cli
import qdirac.solutions
import qdirac.verify
import spans
from test_checks import bench_for, continuity_op, make_op, packet_op


def traced(cli_module, tmp_path, op):
    bench = bench_for(cli_module, tmp_path, op)
    plain = bench.execute(op)
    tracer = spans.Tracer()
    with spans.install(tracer):
        result = bench.execute(op, tracer)
    return plain, result, tracer


@pytest.mark.parametrize("make, layer", [
    (lambda: make_op("verify", "json", {"box_cells": 8}), "qalg.mul"),
    (continuity_op, "grid.central_diff"),
    (packet_op, "verify.current_grid"),
])
def test_self_times_sum_to_op_time(cli_module, tmp_path, make, layer):
    plain, result, tracer = traced(cli_module, tmp_path, make())
    (stats,) = tracer.op_stats
    root = stats[spans.ROOT]
    assert root.calls == 1
    assert math.fsum(s.self_s for s in stats.values()) == pytest.approx(root.total_s, rel=1e-9)
    assert all(s.self_s >= 0 for s in stats.values())
    assert root.total_s <= result.seconds
    assert stats[layer].calls > 0
    # tracing changes no byte of the report
    assert result.output == plain.output


def test_span_records_nest_under_the_op(cli_module, tmp_path):
    _, _, tracer = traced(cli_module, tmp_path, make_op("verify", "json", {"box_cells": 8}))
    records = list(tracer.records())
    ids = {r["id"] for r in records if "id" in r}
    roots = [r for r in records if r.get("parent") is None and not r.get("aggregated")]
    assert [r["name"] for r in roots] == [spans.ROOT]
    assert all(r["parent"] in ids for r in records if r.get("parent") is not None)
    assert {r["name"] for r in records if r.get("aggregated")} == spans.AGGREGATED
    json.dumps(records)


def test_work_counts_come_from_array_shapes(cli_module, tmp_path):
    _, _, tracer = traced(cli_module, tmp_path, packet_op())
    (stats,) = tracer.op_stats
    points = 3 * 64
    assert stats["solutions.evaluate_grid"].points == points
    assert stats["solutions.evaluate_grid"].bytes_computed == 2 * points * 4 * 16
    # reads both complex halves, writes four real current components
    assert stats["verify.current_grid"].bytes_computed == 2 * points * 4 * 16 + points * 4 * 8


def _targets():
    return (qdirac.cli.mul, qdirac.verify.central_diff,
            qdirac.solutions.PlaneWaveSolution.__dict__["evaluate_grid"])


def test_install_restores_every_target():
    before = _targets()
    with spans.install(spans.Tracer()):
        assert all(a is not b for a, b in zip(_targets(), before))
    assert _targets() == before


def test_raising_call_counts_as_failure():
    tracer = spans.Tracer()

    def certify():
        raise qdirac.solutions.CertificationError("injected")

    wrapped = tracer.wrap("solutions.certify", certify)
    with pytest.raises(qdirac.solutions.CertificationError):
        tracer.run_op(wrapped)
    (stats,) = tracer.op_stats
    assert stats["solutions.certify"].failures == 1
    assert stats[spans.ROOT].failures == 0
