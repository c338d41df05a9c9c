"""Layer spans for the traced benchmark run, recorded from outside the program.

`install(tracer)` replaces public functions of qdirac's modules with
timing wrappers for the duration of a `with` block.  It patches the
module attributes the callers look up at call time (for example
`qdirac.cli.mul`, which `run_verify` reads as a global, and
`qdirac.verify.central_diff`, which `continuity_residual` reads), so
nothing under `src/` changes.

Every CLI op is one root span, `cli.op`.  A span's self time is its
duration minus the durations of its direct children, so the self times
of one op sum to its root duration.  Work counts (lattice points,
array elements, bytes) are computed from the shapes of the arrays a
call reads and writes; they are not measured memory traffic.

Spans are kept in memory and written out by the caller at the end.
The scalar quaternion products run 10^4 times per `verify`, so for
those names only per-op totals are kept, not one record per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from dataclasses import dataclass
from time import perf_counter

ROOT = "cli.op"
AGGREGATED = frozenset({"qalg.mul", "qalg.mul_symplectic"})


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0
    points: int = 0
    elements: int = 0
    bytes_computed: int = 0


class Tracer:
    """In-memory span recorder for a sequence of ops."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_stats: list[dict[str, LayerStat]] = []
        self._stack: list[list] = []
        self._next_id = 0

    def run_op(self, fn):
        """Run one op as a root span; returns fn's result."""
        self.op_stats.append({})
        frame = self._enter(ROOT)
        try:
            return fn()
        finally:
            self._exit(frame, perf_counter(), ok=True, work=None)

    def wrap(self, name: str, fn, work=None):
        """Timing wrapper for fn; `work(args, kwargs, result)` returns
        (points, elements, bytes) for the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, perf_counter(), ok=False, work=None)
                raise
            end = perf_counter()
            self._exit(frame, end, ok=True, work=work(args, kwargs, result) if work else None)
            return result
        return wrapper

    def _enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, parent id, name, start, time covered by direct children]
        frame = [span_id, parent, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list, end: float, ok: bool, work) -> None:
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        span_id, parent, name, start, child_s = frame
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][4] += duration
        stat = self.op_stats[-1].setdefault(name, LayerStat())
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += self_s
        stat.failures += not ok
        if work is not None:
            stat.points += work[0]
            stat.elements += work[1]
            stat.bytes_computed += work[2]
        if name not in AGGREGATED:
            self.spans.append({"op": len(self.op_stats) - 1, "id": span_id, "parent": parent,
                               "name": name, "start": start, "end": end, "self_s": self_s,
                               "ok": ok})

    def records(self):
        """Span records plus per-op totals of the aggregated names."""
        yield from self.spans
        for op_index, stats in enumerate(self.op_stats):
            for name in sorted(AGGREGATED & stats.keys()):
                s = stats[name]
                yield {"op": op_index, "name": name, "aggregated": True, "calls": s.calls,
                       "total_s": s.total_s, "self_s": s.self_s}


# ---------------------------------------------------------------------------
# what to wrap, and how to count each call's work


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _residual_work(args, kwargs, result):
    points = _arg(args, kwargs, 2, "points")
    if points is None:
        import qdirac.verify
        points = qdirac.verify.default_points()
    n = len(points) if hasattr(points, "__len__") else 1
    return n, 0, 0


def _evaluate_grid_work(args, kwargs, result):
    # args: (self, grid); result: SampledField with two (..., 4) complex halves
    return math.prod(result.grid.counts), 0, result.psi0.nbytes + result.psi1.nbytes


def _current_grid_work(args, kwargs, result):
    sampled = _arg(args, kwargs, 0, "sampled")
    read = sampled.psi0.nbytes + sampled.psi1.nbytes
    return math.prod(sampled.grid.counts), 0, read + result.nbytes


def _central_diff_work(args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    return 0, values.size, values.nbytes + result.nbytes


# (module, attribute, span name, work counter)
TARGETS = (
    ("qdirac.cli", "run_catalog", "cli.run", None),
    ("qdirac.cli", "run_verify", "cli.run", None),
    ("qdirac.cli", "run_continuity", "cli.run", None),
    ("qdirac.cli", "run_packet", "cli.run", None),
    ("qdirac.cli", "mul", "qalg.mul", None),
    ("qdirac.cli", "mul_symplectic", "qalg.mul_symplectic", None),
    ("qdirac.verify", "dirac_residual", "verify.dirac_residual", _residual_work),
    ("qdirac.verify", "current_grid", "verify.current_grid", _current_grid_work),
    ("qdirac.verify", "gram_matrix", "verify.gram_matrix", None),
    ("qdirac.verify", "continuity_residual", "verify.continuity_residual", None),
    ("qdirac.verify", "continuity_convergence", "verify.continuity_convergence", None),
    ("qdirac.verify", "helicity_check", "verify.helicity_check", None),
    ("qdirac.verify", "sample", "grid.sample", None),
    ("qdirac.verify", "central_diff", "grid.central_diff", _central_diff_work),
    ("qdirac.verify", "integrate_spatial", "grid.integrate_spatial", None),
    ("qdirac.solutions", "certify_solution", "solutions.certify", None),
    ("qdirac.solutions", "build_massive_solution", "solutions.build", None),
    ("qdirac.solutions", "build_massless_theta_solution", "solutions.build", None),
    ("qdirac.solutions", "build_wave_packet", "solutions.build", None),
    ("qdirac.solutions", "enumerate_massive_set", "solutions.build", None),
    ("qdirac.solutions", "enumerate_massless_theta0_set", "solutions.build", None),
    ("qdirac.solutions", "make_wave_packet", "solutions.build", None),
    ("qdirac.solutions", "PlaneWaveSolution.evaluate_grid", "solutions.evaluate_grid",
     _evaluate_grid_work),
    ("qdirac.solutions", "WavePacket.evaluate_grid", "solutions.evaluate_grid",
     _evaluate_grid_work),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, span, work in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(span, original, work))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
