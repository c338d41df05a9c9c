"""Seeded generators for the benchmark workloads.

A workload is one *pass*: a fixed list of CLI operations that the
benchmark replays until its time is up.  The seed draws every physical
parameter (masses, momenta, mixing angles, grid origins, amplitudes,
the CLI `--seed`), but never a grid size, an output format or the order
of the ops: those are fixed per op slot, so the amount of work in a
pass, and with it every end-to-end metric, does not depend on the seed.

Each workload also fixes the latency percentile reported as its tail
and the least number of timed passes, chosen so that at least ten
samples lie beyond that percentile.  The percentile is fixed rather
than derived from the sample count, so a faster program (more passes
in the same time) does not move the tail into another op class.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

FORMATS = ("json", "csv", "text")
# one symplectic half of a sampled field: 4 complex128 per lattice point
HALF_BYTES_PER_POINT = 4 * 16
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    """One CLI invocation with everything needed to check its output."""

    key: str
    kind: str
    command: str
    fmt: str
    config_text: str
    cli_seed: int
    probe: bool = False
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)
    largest_array_bytes: int = 0

    def args(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_path,
                "--format", self.fmt, "--seed", str(self.cli_seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    tail_pct: float
    min_passes: int

    @property
    def valid_ops(self) -> int:
        return sum(not op.probe for op in self.ops)


def _config(cfg: dict) -> str:
    # allow_nan stays on so the NaN probe can be written as the bare
    # token a user would type
    return json.dumps({"schema_version": 1, **cfg}, sort_keys=True)


def _vec(rng: random.Random, lo: float = -2.0, hi: float = 2.0, min_norm: float = 0.3) -> list[float]:
    while True:
        v = [rng.uniform(lo, hi) for _ in range(3)]
        if math.sqrt(sum(c * c for c in v)) >= min_norm:
            return v


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _grid(origin, spacing, counts, periodic) -> dict:
    return {"origin": list(origin), "spacing": list(spacing),
            "counts": list(counts), "periodic": list(periodic)}


def _points(counts) -> int:
    return math.prod(counts)


def _refined_points(counts, periodic, levels: int) -> int:
    """Lattice points of the finest grid in a continuity ladder."""
    scale = 2 ** (levels - 1)
    return math.prod(n * scale if per else n for n, per in zip(counts, periodic))


def _finish(name: str, ops: list[Op], tail_pct: float) -> Workload:
    valid = sum(not op.probe for op in ops)
    # least passes giving >= 10 valid samples beyond the nearest-rank percentile
    min_passes = 1
    while True:
        n = valid * min_passes
        if n - math.ceil(tail_pct / 100.0 * n) >= 10:
            break
        min_passes += 1
    return Workload(name, tuple(ops), tail_pct, min_passes)


# ---------------------------------------------------------------------------
# certify-mix

# mostly large boxes: the median lands on box 14, where the Gram products
# weigh as much as the Python sweep; the sweep-bound small boxes spread
# twice as much from run to run on a host whose speed drifts.  Fourteen
# large boxes above the six catalog ops and the two small boxes put the
# median three ranks inside the large-box class, not on its lower edge.
VERIFY_BOX_CELLS = (8, 11) + (14,) * 4 + (15,) * 4 + (16,) * 6


def _probes(rng: random.Random) -> list[Op]:
    """Malformed configs; the README contract says each exits 2."""
    theta0 = rng.uniform(0.0, math.pi)
    kvec = _vec(rng)
    mass = rng.uniform(0.5, 2.0)
    probes = [
        # known defects at the seed commit: uncaught ValueError (exit 1)
        ("verify", "box-cells-text", _config({"box_cells": "abc"})),
        ("verify", "mass-zero", _config({"mass": 0, "theta0": theta0})),
        ("verify", "mass-negative", _config({"mass": -1, "theta0": theta0})),
        ("continuity", "levels-text", _config({"levels": "x"})),
        # known defect at the seed commit: exits 0 with NaN in the report
        ("packet", "amplitude-nan", _config({
            "component": 0, "mass": mass,
            "samples": [{"kvec": [0.0, 0.0, 1.0], "amplitude": float("nan")}],
            "grid": _grid((0, 0, 0, 0), (0.4, 1, 1, TWO_PI / 16), (3, 1, 1, 16),
                          (False, False, False, True))})),
        # handled at the seed commit
        ("catalog", "malformed-json", '{"schema_version": 1, "kind": '),
        ("catalog", "missing-kvec1", _config({
            "kind": "massive", "mass": mass, "theta0": theta0, "kvec0": kvec})),
        ("packet", "off-shell-energy", _config({
            "component": 1, "mass": mass,
            "samples": [{"kvec": kvec, "amplitude": 1.0, "energy": 10.0 + mass}],
            "grid": _grid((0, 0, 0, 0), (0.4, 1, 1, TWO_PI / 16), (3, 1, 1, 16),
                          (False, False, False, True))})),
    ]
    return [
        Op(key=f"probe-{label}", kind=f"probe.{label}", command=cmd, fmt="json",
           config_text=text, cli_seed=_cli_seed(rng), probe=True, expect_exit=2)
        for cmd, label, text in probes
    ]


def certify_mix(seed: int) -> Workload:
    """verify and catalog ops on small grids, plus malformed-config probes.

    Python-object-bound layers dominate here: the scalar quaternion
    sweep, solution build+certify, residuals and Gram products.  Verify
    ops are 16 of the 22 valid ops, so the median and the tail
    both fall on verify ops rather than on the few-millisecond catalog
    ops."""
    rng = random.Random(f"certify-mix/{seed}")
    ops: list[Op] = []
    cells = list(VERIFY_BOX_CELLS)
    rng.shuffle(cells)
    for i, box_cells in enumerate(cells):
        fmt = FORMATS[i % 3]
        cfg = {"mass": rng.uniform(0.5, 2.0), "theta0": rng.uniform(0.0, math.pi / 2),
               "box_length": rng.uniform(4.0, 8.0), "box_cells": box_cells}
        ops.append(Op(key=f"verify-{i:02d}", kind=f"verify.{fmt}", command="verify", fmt=fmt,
                      config_text=_config(cfg), cli_seed=_cli_seed(rng),
                      largest_array_bytes=box_cells**3 * HALF_BYTES_PER_POINT))
    for i, fmt in enumerate(FORMATS):
        cfg = {"kind": "massive", "mass": rng.uniform(0.3, 3.0),
               "theta0": rng.uniform(0.0, math.pi), "kvec0": _vec(rng), "kvec1": _vec(rng),
               "norm_choice": rng.choice(("E", "E_over_m"))}
        ops.append(Op(key=f"catalog-massive-{i:02d}", kind=f"catalog.massive.{fmt}",
                      command="catalog", fmt=fmt, config_text=_config(cfg),
                      cli_seed=_cli_seed(rng), expect={"count": 8},
                      largest_array_bytes=32 * HALF_BYTES_PER_POINT))
    for i, fmt in enumerate(FORMATS):
        cfg = {"kind": "massless", "theta0": rng.uniform(0.0, math.pi),
               "kvec0": _vec(rng), "kvec1": _vec(rng)}
        ops.append(Op(key=f"catalog-massless-{i:02d}", kind=f"catalog.massless.{fmt}",
                      command="catalog", fmt=fmt, config_text=_config(cfg),
                      cli_seed=_cli_seed(rng), expect={"count": 4},
                      largest_array_bytes=32 * HALF_BYTES_PER_POINT))
    ops += _probes(rng)
    return _finish("certify-mix", ops, tail_pct=90.0)


# ---------------------------------------------------------------------------
# continuity-ladder

def _continuity_op(rng, key, kind, fmt, cfg, counts, periodic, levels, source=False) -> Op:
    return Op(key=key, kind=kind, command="continuity", fmt=fmt,
              config_text=_config({"levels": levels, **cfg}), cli_seed=_cli_seed(rng),
              expect={"levels": levels, "source_active": source},
              largest_array_bytes=_refined_points(counts, periodic, levels) * HALF_BYTES_PER_POINT)


def continuity_ladder(seed: int) -> Workload:
    """Finite-difference continuity studies; the grid kernels dominate.

    Periodic origins are shifted by the seed (the 3+1 preset keeps its
    2*pi/6 spacing, so its fields stay commensurate), explicit
    solutions and packets use integer momenta on 2*pi boxes."""
    rng = random.Random(f"continuity-ladder/{seed}")
    ops: list[Op] = []
    per3 = (False, True, True, True)
    counts3 = (3, 6, 6, 6)

    def preset3_grid():
        origin = (rng.uniform(-0.5, 0.5),) + tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
        return _grid(origin, (0.2,) + (TWO_PI / 6,) * 3, counts3, per3)

    for i, fmt in enumerate(("json", "csv", "text", "json")):
        ops.append(_continuity_op(rng, f"preset3-l4-{i}", f"preset3.l4.{fmt}", fmt,
                                  {"dimension": "3+1", "grid": preset3_grid()}, counts3, per3, 4))
    for i, fmt in enumerate(("json", "csv", "text", "json")):
        ops.append(_continuity_op(rng, f"preset3-l3-{i}", f"preset3.l3.{fmt}", fmt,
                                  {"dimension": "3+1", "grid": preset3_grid()}, counts3, per3, 3))
    box3 = _grid((-0.2, 0, 0, 0), (0.2,) + (TWO_PI / 6,) * 3, counts3, per3)
    for i, fmt in enumerate(("json", "csv", "text")):
        b = [[0.0, 0.0], [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)],
             [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)], [0.0, 0.0]]
        packet = {"component": rng.choice((0, 1)), "mass": rng.uniform(0.5, 2.0),
                  "samples": [{"kvec": [rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(1, 2)],
                               "amplitude": rng.uniform(0.3, 1.2),
                               "spin": rng.choice(("up", "down")),
                               "esign": rng.choice(("+", "-"))} for _ in range(2)]}
        ops.append(_continuity_op(rng, f"packet-source-{i}", f"packet_source.l3.{fmt}", fmt,
                                  {"packet": packet, "grid": box3, "b": b},
                                  counts3, per3, 3, source=True))
    solution = {"mass": rng.uniform(0.5, 2.0), "theta0": rng.uniform(0.0, math.pi / 2),
                "kvec0": [0, rng.randint(-1, 1), 1], "kvec1": [1, 0, rng.randint(-1, 1)],
                "spin0": rng.choice(("up", "down")), "spin1": rng.choice(("up", "down"))}
    ops.append(_continuity_op(rng, "solution3-l3", "solution3.l3.csv", "csv",
                              {"solution": solution, "grid": box3}, counts3, per3, 3))

    per1 = (False, False, False, True)
    counts1 = (3, 1, 1, 12)
    for i, (fmt, levels) in enumerate((("json", 3), ("csv", 4), ("text", 5), ("json", 4))):
        grid = _grid((rng.uniform(-0.5, 0.5), 0, 0, rng.uniform(0.0, TWO_PI)),
                     (0.2, 1, 1, TWO_PI / 12), counts1, per1)
        ops.append(_continuity_op(rng, f"preset1-{i}", f"preset1.l{levels}.{fmt}", fmt,
                                  {"dimension": "1+1", "grid": grid}, counts1, per1, levels))
    for i, fmt in enumerate(("json", "text", "csv", "json")):
        b = None if i % 2 else [[0, 0], [0, 0], [rng.uniform(0.1, 0.5), rng.uniform(-0.2, 0.2)], [0, 0]]
        solution = {"mass": rng.uniform(0.5, 2.0), "theta0": rng.uniform(0.0, math.pi / 2),
                    "kvec0": [0, 0, rng.choice((0.5, 1.0, 1.5))],
                    "kvec1": [0, 0, rng.choice((0.5, 1.0, 1.5))],
                    "spin0": rng.choice(("up", "down")), "spin1": rng.choice(("up", "down"))}
        # README's explicit-solution example: a 12-point periodic z axis of period 2*pi
        grid = _grid((-0.2, 0, 0, rng.uniform(0.0, TWO_PI)), (0.2, 1, 1, TWO_PI / 12), counts1, per1)
        cfg = {"solution": solution, "grid": grid}
        if b is not None:
            cfg["b"] = b
        ops.append(_continuity_op(rng, f"solution1-{i}", f"solution1.l3.{fmt}", fmt,
                                  cfg, counts1, per1, 3, source=b is not None))
    return _finish("continuity-ladder", ops, tail_pct=90.0)


# ---------------------------------------------------------------------------
# packet-render

PACKET_SIZES = (
    # (label, counts, ops per format in one pass)
    ("768", (3, 1, 1, 256), {"json": 1, "csv": 1, "text": 1}),
    ("16c", (4, 16, 16, 16), {"json": 4, "csv": 4, "text": 4}),
    # json and csv at 131k points take 2-4 s each: one sample per pass
    # cannot give steady percentiles within a run, so the largest grid
    # is timed through text reports, which still build every row
    ("32c", (4, 32, 32, 32), {"text": 2}),
)


def packet_render(seed: int) -> Workload:
    """Packet density reports at three grid sizes.

    JSON and CSV are render-bound; text reports only the norm table and
    is the bypass case for a render change."""
    rng = random.Random(f"packet-render/{seed}")
    ops: list[Op] = []
    for label, counts, per_format in PACKET_SIZES:
        periodic = (False,) + tuple(n > 1 for n in counts[1:])
        spacing = (rng.uniform(0.05, 0.4),) + tuple(TWO_PI / n if n > 1 else 1.0 for n in counts[1:])
        for fmt, repeat in per_format.items():
            for i in range(repeat):
                # massless and massive alternate by slot: which one an op is
                # changes its report's length, so the seed must not pick it
                mass = rng.uniform(0.5, 2.0) if i % 2 else 0.0
                samples = [{"kvec": _vec(rng, -3.0, 3.0, 0.5), "amplitude": rng.uniform(0.2, 1.5),
                            "spin": rng.choice(("up", "down")), "esign": rng.choice(("+", "-"))}
                           for _ in range(2)]
                if counts[1] == 1:
                    # a 1-D lattice along z needs momenta along z
                    for s in samples:
                        s["kvec"] = [0.0, 0.0, rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)]
                origin = (rng.uniform(-1.0, 1.0),) + tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
                cfg = {"component": rng.choice((0, 1)), "mass": mass, "samples": samples,
                       "grid": _grid(origin, spacing, counts, periodic)}
                ops.append(Op(
                    key=f"packet-{label}-{fmt}-{i}", kind=f"packet.{label}.{fmt}",
                    command="packet", fmt=fmt, config_text=_config(cfg), cli_seed=_cli_seed(rng),
                    expect={"nt": counts[0], "points": _points(counts),
                            "cell_volume": spacing[1] * spacing[2] * spacing[3]},
                    largest_array_bytes=_points(counts) * HALF_BYTES_PER_POINT))
    return _finish("packet-render", ops, tail_pct=80.0)


WORKLOADS = {
    "certify-mix": certify_mix,
    "continuity-ladder": continuity_ladder,
    "packet-render": packet_render,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
