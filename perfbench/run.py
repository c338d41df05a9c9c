"""Benchmark for the qdirac CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
`src/`, and the benchmark fails (exit 2, no result line) when it is not
there.  One generator process drives `qdirac.cli.cli` in-process through
click, as a closed loop with one client: the next op starts when the
previous one has returned.  Every op writes its report with `--out`, so
an op covers config load, build/certify, sampling, kernels, rendering
and the atomic write.

A run replays the workload's pass (see workloads.py): one untimed pass
whose outputs are fully checked (checks.py), then timed passes until
`--seconds` have elapsed and the workload's least pass count is met.
A timed op is correct when its output is byte-identical to its checked
first run.  Malformed-config probes are timed with the others but kept
out of the latency and throughput figures.

The host's speed swings by up to 1.5x in spells that can outlast a
run, so op times in seconds spread too widely between runs to bound a
regression.  Every op is therefore also timed in *reference units*
(ref): its wall time divided by the mean wall time of a fixed reference
workload (`reference_loop`) run just before and just after it.
The end-to-end latency and throughput metrics are taken over these
ratios; the same figures in seconds are printed above the result line
and stored in the result file.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs one
untraced pass and one pass with layer spans installed (spans.py), and
prints the per-layer metrics as per-op means over the traced pass.  Results, provenance and spans are written under
`.perfbench_out/results/`.  The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
# the same figures in seconds: printed and stored, not bounded
SECONDS_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}

# per-op means over the traced valid ops: (metric, span, LayerStat field, unit)
LAYER_METRICS = (
    ("qalg.mul.calls", "qalg.mul", "calls", "count/op"),
    ("qalg.mul.self_s", "qalg.mul", "self_s", "s/op"),
    ("qalg.mul_symplectic.calls", "qalg.mul_symplectic", "calls", "count/op"),
    ("qalg.mul_symplectic.self_s", "qalg.mul_symplectic", "self_s", "s/op"),
    ("solutions.build.calls", "solutions.build", "calls", "count/op"),
    ("solutions.build.self_s", "solutions.build", "self_s", "s/op"),
    ("solutions.certify.calls", "solutions.certify", "calls", "count/op"),
    ("solutions.certify.self_s", "solutions.certify", "self_s", "s/op"),
    ("solutions.certify.failures", "solutions.certify", "failures", "count/op"),
    ("solutions.evaluate_grid.calls", "solutions.evaluate_grid", "calls", "count/op"),
    ("solutions.evaluate_grid.self_s", "solutions.evaluate_grid", "self_s", "s/op"),
    ("solutions.evaluate_grid.points", "solutions.evaluate_grid", "points", "count/op"),
    ("solutions.evaluate_grid.bytes_computed", "solutions.evaluate_grid", "bytes_computed", "B/op"),
    ("verify.dirac_residual.calls", "verify.dirac_residual", "calls", "count/op"),
    ("verify.dirac_residual.self_s", "verify.dirac_residual", "self_s", "s/op"),
    ("verify.dirac_residual.points", "verify.dirac_residual", "points", "count/op"),
    ("verify.gram_matrix.self_s", "verify.gram_matrix", "self_s", "s/op"),
    ("verify.helicity_check.self_s", "verify.helicity_check", "self_s", "s/op"),
    ("verify.current_grid.calls", "verify.current_grid", "calls", "count/op"),
    ("verify.current_grid.self_s", "verify.current_grid", "self_s", "s/op"),
    ("verify.current_grid.points", "verify.current_grid", "points", "count/op"),
    ("verify.current_grid.bytes_computed", "verify.current_grid", "bytes_computed", "B/op"),
    ("verify.continuity_residual.self_s", "verify.continuity_residual", "self_s", "s/op"),
    ("grid.central_diff.calls", "grid.central_diff", "calls", "count/op"),
    ("grid.central_diff.self_s", "grid.central_diff", "self_s", "s/op"),
    ("grid.central_diff.elements", "grid.central_diff", "elements", "count/op"),
    ("cli.run.self_s", "cli.run", "self_s", "s/op"),
    # the root span's self time: op time outside run_*, i.e. click
    # dispatch, config load, render and the atomic write
    ("cli.render_write.self_s", spans.ROOT, "self_s", "s/op"),
)


class ProgramMissing(RuntimeError):
    pass


class Sample(NamedTuple):
    op: workloads.Op
    seconds: float
    output_bytes: int
    ref_s: float  # mean time of the reference loop run around the op


class _Quad:
    """Four floats with the Hamilton product: small-object arithmetic."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(self, o: "_Quad") -> "_Quad":
        return _Quad(self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
                     self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
                     self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
                     self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w)


_REF_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4) * (1.0 + 0.5j)
_REF_FIELD = np.linspace(0.0, 6.0, 4 * 4096).reshape(4, 4096) + 0j


def reference_loop() -> float:
    """Wall time of a fixed reference workload, about 4 ms on the measuring VM.

    It runs no program code, so its time follows only the host's speed
    at that moment.  Its three parts, an integer loop, small-object
    arithmetic and a small complex numpy kernel, are the kinds of work
    the ops do; together they track the host's speed on both listed
    workloads better than any one of them alone."""
    t0 = perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    q, step, kept = _Quad(1.0, 0.5, 0.25, 0.125), _Quad(0.9, -0.1, 0.2, 0.3), []
    for i in range(500):
        q = q * step
        kept.append(_Quad(q.w, q.x, q.y, q.z))
        if i % 100 == 0:
            q = _Quad(1.0, 0.5, 0.25, 0.125)
    field = _REF_MATRIX @ _REF_FIELD
    field *= np.exp(1j * field.real)
    float(np.abs(field).sum())
    return perf_counter() - t0


def import_cli():
    """Import qdirac.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "qdirac" / "cli.py").is_file():
        raise ProgramMissing(f"no qdirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdirac.cli
    if Path(qdirac.cli.__file__).resolve().parent != SRC / "qdirac":
        raise ProgramMissing(f"qdirac was imported from {qdirac.cli.__file__}, not {SRC}")
    return qdirac.cli


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time for a fresh interpreter to import qdirac.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qdirac.cli"]

    def once() -> float:
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    once()  # writes the bytecode caches of a fresh checkout
    times = [once() for _ in range(SETUP_REPEATS)]
    return statistics.median(times), times


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdirac").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(wl: workloads.Workload, seed: int) -> dict:
    l3 = _l3_bytes()
    largest = max(op.largest_array_bytes for op in wl.ops)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "l3_bytes": l3,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": wl.name,
        "seed": seed,
        "largest_array_bytes": largest,
        "largest_array_over_l3": largest / l3 if l3 else None,
        "array_bytes_note": "one symplectic half of the largest sampled grid, computed from its shape",
    }


class Bench:
    """Runs a workload's ops in-process and checks every result."""

    def __init__(self, cli_module, wl: workloads.Workload, work_dir: Path) -> None:
        from click.testing import CliRunner

        self.cli = cli_module.cli
        self.runner = CliRunner()
        self.wl = wl
        self.paths = {}
        for i, op in enumerate(wl.ops):
            cfg = work_dir / f"op{i:03d}.json"
            cfg.write_text(op.config_text, encoding="utf-8")
            self.paths[op.key] = (str(cfg), work_dir / f"op{i:03d}.out")
        self.first: dict[str, tuple[str, str | None]] = {}
        self.attempted = {False: 0, True: 0}
        self.failed = {False: 0, True: 0}
        self.failures: dict[tuple[str, str], int] = {}

    def execute(self, op, tracer: spans.Tracer | None = None) -> checks.OpResult:
        cfg, out = self.paths[op.key]
        out.unlink(missing_ok=True)
        args = op.args(cfg, str(out))
        def invoke():
            return self.runner.invoke(self.cli, args)

        gc.collect()
        t0 = perf_counter()
        res = invoke() if tracer is None else tracer.run_op(invoke)
        seconds = perf_counter() - t0
        uncaught = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            uncaught = f"{type(res.exception).__name__}: {res.exception}"
        output = out.read_bytes() if out.exists() else None
        return checks.OpResult(res.exit_code, uncaught, seconds, output, res.stderr)

    def run_pass(self, first: bool = False, tracer: spans.Tracer | None = None) -> list[Sample]:
        """One pass over the workload, checking every op."""
        done = []
        for op in self.wl.ops:
            ref_before = reference_loop()
            result = self.execute(op, tracer)
            ref_s = (ref_before + reference_loop()) / 2.0
            digest = hashlib.sha256(
                f"{result.exit_code}\0{result.stderr}\0".encode() + (result.output or b"")
            ).hexdigest()
            if first:
                self.first[op.key] = (digest, checks.check(op, result))
            first_digest, reason = self.first[op.key]
            if digest != first_digest:
                reason = "output differs from the op's first run"
            self.attempted[op.probe] += 1
            if reason is not None:
                self.failed[op.probe] += 1
                self.failures[op.key, reason] = self.failures.get((op.key, reason), 0) + 1
            # reports are not kept: holding them would grow memory with the pass count
            done.append(Sample(op, result.seconds, len(result.output or b""), ref_s))
        return done

    def timed(self, seconds: float, tracer: spans.Tracer | None = None) -> tuple[list[Sample], int]:
        """Whole passes until `seconds` have elapsed and the least pass count is met."""
        done: list[Sample] = []
        passes = 0
        start = perf_counter()
        while passes < self.wl.min_passes or perf_counter() - start < seconds:
            done += self.run_pass(tracer=tracer)
            passes += 1
        return done, passes


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    idx = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def _latency(times: list[float], tail_pct: float) -> tuple[float, float, float, int]:
    """Throughput, median, tail and the samples beyond the tail."""
    tail, beyond = nearest_rank(times, tail_pct)
    return len(times) / math.fsum(times), statistics.median(times), tail, beyond


def end_to_end(wl, samples, setup_s: float) -> tuple[dict, dict]:
    """The bounded metrics (op times in reference units) and, apart, the
    same figures in seconds."""
    valid = [s for s in samples if not s.op.probe]
    ops_per_ref, p50_ref, tail_ref, beyond = _latency(
        [s.seconds / s.ref_s for s in valid], wl.tail_pct)
    ops_per_s, p50_s, tail_s, _ = _latency([s.seconds for s in valid], wl.tail_pct)
    metrics = {
        "setup_s": setup_s,
        "ops_per_kref": 1000.0 * ops_per_ref,
        "latency_p50_ref": p50_ref,
        "latency_tail_ref": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"latency_tail_pct": wl.tail_pct, "samples_beyond_tail": beyond,
             "latency_samples": len(valid),
             "seconds_metrics": {"ops_per_s": ops_per_s, "latency_p50_s": p50_s,
                                 "latency_tail_s": tail_s},
             "reference_loop_s": statistics.median(s.ref_s for s in samples)}
    return metrics, extra


def per_layer(tracer: spans.Tracer, traced, untraced, probe_ratio: float) -> tuple[dict, dict]:
    valid = [(stats, s) for stats, s in zip(tracer.op_stats, traced) if not s.op.probe]
    n = len(valid)
    metrics = {}
    units = {}
    for name, span, field, unit in LAYER_METRICS:
        metrics[name] = math.fsum(getattr(s[span], field) for s, _ in valid if span in s) / n
        units[name] = unit
    metrics["cli.output_bytes"] = sum(s.output_bytes for _, s in valid) / n
    units["cli.output_bytes"] = "B/op"
    op_s = [s.seconds for _, s in valid]
    metrics["trace.op_s"] = math.fsum(op_s) / n
    units["trace.op_s"] = "s/op"
    # means, not medians: the median of a mixed pass sits inside one op
    # class (a catalog op on certify-mix) and would hide the overhead on
    # the heavier classes
    base = [s.seconds for s in untraced if not s.op.probe]
    metrics["trace.overhead_s"] = metrics["trace.op_s"] - math.fsum(base) / len(base)
    units["trace.overhead_s"] = "s"
    metrics["cli.probe_failed_ratio"] = probe_ratio
    units["cli.probe_failed_ratio"] = "ratio"
    return metrics, units


def layer_shares(tracer: spans.Tracer, traced) -> dict:
    """Share of traced valid-op time spent in each span's own code, over
    the whole pass ("all") and per op kind."""
    totals: dict[str, dict[str, float]] = {}
    for stats, sample in zip(tracer.op_stats, traced):
        if sample.op.probe:
            continue
        for group in ("all", sample.op.kind):
            bucket = totals.setdefault(group, {})
            for name, s in stats.items():
                bucket[name] = bucket.get(name, 0.0) + s.self_s
    shares = {}
    for group, bucket in totals.items():
        whole = math.fsum(bucket.values())
        shares[group] = {name: t / whole for name, t in sorted(bucket.items(), key=lambda kv: -kv[1])}
    return shares


def kind_medians(samples) -> dict:
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s.seconds)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli_module = import_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    prov = provenance(wl, args.seed)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov}
    try:
        bench = Bench(cli_module, wl, work_dir)
        bench.run_pass(first=True)
        if args.trace:
            # per-layer figures are per-op means, so one pass of each is enough
            untraced = bench.run_pass()
            tracer = spans.Tracer()
            with spans.install(tracer):
                traced = bench.run_pass(tracer=tracer)
            probes = bench.attempted[True]
            probe_ratio = bench.failed[True] / probes if probes else 0.0
            metrics, units = per_layer(tracer, traced, untraced, probe_ratio)
            record.update(passes=1,
                          layer_shares=layer_shares(tracer, traced),
                          traced_kind_medians=kind_medians(traced))
            samples = untraced
        else:
            setup_s, setup_runs = measure_setup()
            samples, passes = bench.timed(args.seconds)
            metrics, extra = end_to_end(wl, samples, setup_s)
            units = dict(END_TO_END_UNITS)
            record.update(passes=passes, setup_runs=setup_runs, **extra)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = bench.attempted[False] + bench.attempted[True]
    failed_all = bench.failed[False] + bench.failed[True]
    record.update(
        metrics=metrics, units=units,
        valid_ops={"attempted": bench.attempted[False], "failed": bench.failed[False]},
        probe_ops={"attempted": bench.attempted[True], "failed": bench.failed[True]},
        failed_ops_ratio=failed_all / attempted,
        kind_medians=kind_medians(samples),
        pass_seconds=[math.fsum(s.seconds for s in samples[i:i + len(wl.ops)])
                      for i in range(0, len(samples), len(wl.ops))],
        failures=[{"op": key, "reason": reason, "count": n}
                  for (key, reason), n in sorted(bench.failures.items())],
        probe_outcomes={op.key: bench.first[op.key][1] or "exit 2 as documented"
                        for op in wl.ops if op.probe},
        op_sha256={op.key: bench.first[op.key][0] for op in wl.ops},
    )
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")

    print(f"workload {wl.name} seed {args.seed}: {record['passes']} timed passes, "
          f"{bench.attempted[False]} valid ops, {bench.attempted[True]} probe ops")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in record["seconds_metrics"].items():
            print(f"  {name:40s} {value:.6g} {SECONDS_UNITS[name]}")
        print(f"  {'reference_loop_s':40s} {record['reference_loop_s']:.6g} s (median)")
        print(f"  {'latency_tail_pct':40s} {record['latency_tail_pct']:g} "
              f"({record['samples_beyond_tail']} of {record['latency_samples']} samples beyond)")
    print(f"  {'failed_ops_ratio':40s} {record['failed_ops_ratio']:.6g} "
          f"({failed_all} of {attempted} ops, probes included)")
    for f in record["failures"]:
        print(f"  failed {f['count']}x {f['op']}: {f['reason']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = bench.failed[False] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted[False],
        "failed": bench.failed[False],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
