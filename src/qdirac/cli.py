"""Batch front-end: build solution catalogs, run the verification suite,
run continuity convergence studies, and evaluate wave-packet densities.

Usage:
    qdirac <catalog|verify|continuity|packet> --config <path>
           [--out <path>] [--format json|csv|text] [--seed <u64>]
    catalog and verify also take [--tol <float>].

Exit codes: 0 all checks pass, 1 verification failure, 2 malformed
config or degenerate input, 3 internal certification failure.  Reports
are deterministic for a fixed seed and config, and output files are
written atomically.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import click
import numpy as np

from . import solutions as sol
from . import verify as ver
from ._fields import choice, number, require, sequence, vector
from .grid import SpacetimeGrid
from .qalg import mul, mul_symplectic
from .spinor import GAMMA, METRIC_DIAG, FourVector, slashed
from .solutions import CertificationError

SCHEMA_VERSION = sol.SCHEMA_VERSION
# draws of the quaternion identity sweep and of the slashed-square check
_SWEEP_DRAWS = 2000
_SLASHED_DRAWS = 200
# temp names tried per --out write before giving up
_TEMP_ATTEMPTS = 100


# ---------------------------------------------------------------------------
# config plumbing


def _tolerance(v, name: str) -> float:
    """A finite tolerance > 0."""
    x = number(v, name)
    if x <= 0:
        raise ValueError(f"field {name!r} must be > 0, got {v!r}")
    return x


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"field 'schema_version' must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


# ---------------------------------------------------------------------------
# report model


@dataclass(frozen=True, slots=True)
class Table:
    """A named table: a header and one sequence of plain values per column."""

    name: str
    header: list
    columns: list

    @classmethod
    def of_rows(cls, name: str, header: list, rows: list) -> "Table":
        """The table of `rows`, each holding one value per column."""
        return cls(name, header, list(zip(*rows)) if rows else [()] * len(header))

    @property
    def rows(self) -> list:
        return list(zip(*self.columns))

    def pick(self, *columns: str) -> "Table":
        """The same rows restricted to `columns`, in that order."""
        return Table(self.name, list(columns), [self.columns[self.header.index(c)] for c in columns])


class Report(dict):
    """A command's report in all three formats.

    The dict itself is the JSON body; a Table value in it renders as a
    list of row objects.  CSV writes `sections` in order; text writes
    `head` on one line, then `table`."""

    def __init__(self, command: str, seed: int, body: dict, sections: list,
                 head: str, table: Table):
        super().__init__(command=command, schema_version=SCHEMA_VERSION, seed=seed, **body)
        self.sections, self.head, self.table = sections, head, table


# the cell types whose %r is their JSON text (for a finite float)
_JSON_REPR = {float, int}


def _json_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(v))
    return float.__repr__(v)


# the JSON text of a value of each exact scalar type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (float, int)) or k is None:
        return '"' + _json(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json(v, pad: str) -> str:
    """v in the bytes of json.dumps(v, indent=2, sort_keys=True,
    allow_nan=False), written from a line indented by `pad`; a Table
    renders as its list of row objects."""
    scalar = _JSON_SCALARS.get(type(v))
    if scalar is not None:
        return scalar(v)
    inner = pad + "  "
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        kinds = set(map(type, v))
        if kinds <= _JSON_REPR and (float not in kinds or all(map(math.isfinite, v))):
            items = map(repr, v)
        else:
            items = [_json(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [(encode_basestring_ascii(k) if type(k) is str else _json_key(k)) + ": " + _json(x, inner)
                 for k, x in sorted(v.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(v, Table):
        return _json_table(v, pad)
    # subclasses of the scalar types, in json's order
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _json_float(v)
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _json_cells(table: Table, key: str, column, pad: str) -> list:
    """Each cell of `column` as JSON; a cell that is not (a non-finite
    float) raises a ValueError naming the table, column and row."""
    cells = []
    for row, x in enumerate(column):
        try:
            cells.append(_json(x, pad))
        except ValueError as exc:
            raise ValueError(f"table {table.name!r} column {key!r} row {row}: {exc}") from None
    return cells


def _json_table(table: Table, pad: str) -> str:
    """The table as the JSON list of its row objects, keys in sorted
    order, from one row template: an int or finite-float column is
    formatted by %r, any other is encoded cell by cell."""
    if not table.columns or not len(table.columns[0]):
        return "[]"
    row_pad, cell_pad = pad + "  ", pad + "    "
    # a repeated header name keeps its last column, as dict(zip(header, row)) does
    last = {h: i for i, h in enumerate(table.header)}
    specs, columns = [], []
    for key in sorted(last):
        column = table.columns[last[key]]
        kinds = set(map(type, column))
        if kinds <= _JSON_REPR and (float not in kinds or all(map(math.isfinite, column))):
            spec = "%r"
        else:
            spec, column = "%s", _json_cells(table, key, column, cell_pad)
        specs.append(_json_key(key).replace("%", "%%") + ": " + spec)
        columns.append(column)
    row = "{\n" + cell_pad + (",\n" + cell_pad).join(specs) + "\n" + row_pad + "}"
    return "[\n" + row_pad + (",\n" + row_pad).join(map(row.__mod__, zip(*columns))) + "\n" + pad + "]"


def _csv_section(table: Table) -> str:
    """`str` of every cell, comma-separated (a float's str is its repr)."""
    row = ",".join(["%s"] * len(table.header))
    lines = [f"# section: {table.name}", ",".join(table.header), *map(row.__mod__, zip(*table.columns))]
    return "\n".join(lines) + "\n"


def _text_table(table: Table) -> str:
    cells = [[h, *(f"{v:.6e}" if isinstance(v, float) else str(v) for v in column)]
             for h, column in zip(table.header, table.columns)]
    widths = [max(map(len, column)) for column in cells]
    padded = [[c.ljust(w) for c in column] for column, w in zip(cells, widths)]
    return "".join("  ".join(row) + "\n" for row in zip(*padded))


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return _json(report, "") + "\n"
    if fmt == "csv":
        return "\n".join(_csv_section(t) for t in report.sections)
    return report.head + "\n" + _text_table(report.table)


def _write_output(text: str, out_path: str | None) -> None:
    """Write `text` to `out_path` through an O_EXCL temp file (mode 0600)
    in its directory, renamed over it; the temp file is removed on any
    failure.  stdout when `out_path` is None."""
    if out_path is None:
        click.echo(text, nl=False)
        return
    data = text.encode("utf-8")
    stem = os.path.join(os.path.dirname(os.path.abspath(out_path)), f".qdirac-{os.getpid()}-")
    try:
        for n in range(_TEMP_ATTEMPTS):
            tmp = stem + str(n)
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
                break
            except FileExistsError:
                if n == _TEMP_ATTEMPTS - 1:
                    raise
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# catalog


def _complex_pairs(u) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(u)]


def _solution_record(index: int, s, density: float, residual: float) -> dict:
    return {
        "index": index,
        "label": s.label,
        "mass": s.mass,
        "theta0": s.theta0,
        "k0": s.k0.as_array().tolist(),
        "k1": s.k1.as_array().tolist(),
        "theta": s.theta.as_array().tolist(),
        "u0": _complex_pairs(s.u0),
        "u1": _complex_pairs(s.u1),
        "density": density,
        "residual": residual,
    }


_SOLUTION_COLUMNS = (["index", "label", "mass", "theta0", "density", "residual"]
                     + [f"{k}_{c}" for k in ("k0", "k1") for c in "txyz"]
                     + [f"{u}_{i}_{part}" for u in ("u0", "u1") for i in range(4)
                        for part in ("re", "im")])


def run_catalog(cfg: dict, tol: float | None, seed: int) -> tuple[int, Report]:
    kind = choice(cfg.get("kind", "massive"), "kind", ("massive", "massless"))
    kvec0, kvec1, theta0 = require(cfg, "kvec0"), require(cfg, "kvec1"), require(cfg, "theta0")
    if kind == "massive":
        sols = sol.enumerate_massive_set(require(cfg, "mass"), kvec0, kvec1, theta0,
                                         cfg.get("norm_choice", "E_over_m"))
    else:
        sols = sol.enumerate_massless_theta0_set(kvec0, kvec1, theta0)
    residual_tol = tol if tol is not None else ver.RESIDUAL_TOL
    densities = ver.densities(sols, FourVector().as_array())[0].tolist()
    residuals = ver.dirac_residual(sols, points=ver.default_points(seed=seed))
    records = [_solution_record(i, *rec) for i, rec in enumerate(zip(sols, densities, residuals))]
    passed = all(r["residual"] <= residual_tol for r in records)
    table = Table.of_rows("solutions", _SOLUTION_COLUMNS, [
        [r["index"], r["label"], r["mass"], r["theta0"], r["density"], r["residual"],
         *r["k0"], *r["k1"], *(x for u in ("u0", "u1") for pair in r[u] for x in pair)]
        for r in records])
    report = Report("catalog", seed, {
        "kind": kind,
        "tolerance": residual_tol,
        "count": len(records),
        "solutions": records,
        "passed": passed,
    }, [table], f"catalog kind={kind} count={len(records)} passed={passed}",
        table.pick("index", "label", "k0_t", "k1_t", "density", "residual"))
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# verify


def _norm(q: np.ndarray) -> np.ndarray:
    """Column norms of a (4, N) quaternion array, summed as `Quaternion.norm` sums."""
    w, x, y, z = q
    return np.sqrt(w * w + x * x + y * y + z * z)


def _quaternion_sweep(rng) -> dict:
    """Worst relative defects of _SWEEP_DRAWS random draws (p, q, r), as (4, N) arrays."""
    n = _SWEEP_DRAWS
    # the draws as column blocks [p | q | r]; the products run side by side
    # on adjoining blocks, and since every column runs the same formulas,
    # each block equals a call of its own; each norm reads its block in place
    x = rng.uniform(-2.0, 2.0, size=(n, 12)).reshape(n, 3, 4).transpose(2, 1, 0).reshape(4, 3 * n)
    p, q, r = np.hsplit(x, 3)
    pq, qr = np.hsplit(mul(x[:, :2 * n], x[:, n:]), 2)
    lhs, rhs = np.hsplit(mul(np.concatenate([pq, p], axis=1), np.concatenate([r, qr], axis=1)), 2)
    alt = mul_symplectic(p, q)
    pq_norm, lhs_norm = _norm(pq), _norm(lhs)
    pnorm_qnorm = _norm(p) * _norm(q)
    defect_norm, route_norm = _norm(lhs - rhs), _norm(pq - alt)
    worst = {
        "multiplicativity": np.abs(pq_norm - pnorm_qnorm) / np.maximum(pnorm_qnorm, 1e-300),
        "associativity": defect_norm / np.maximum(lhs_norm, 1e-300),
        "algorithms": route_norm / np.maximum(pq_norm, 1e-300),
    }
    return {name: max(0.0, float(v.max())) for name, v in worst.items()}


# verify's values that read no config: each is formed on its first call and
# kept for the rest of the process
@functools.cache
def _clifford_residual() -> float:
    """max |{gamma^mu, gamma^nu} - 2 g^{mu nu}| over all 16 pairs at once."""
    prod = GAMMA[:, None] @ GAMMA[None]
    target = 2.0 * np.diag(METRIC_DIAG)[:, :, None, None] * np.eye(4)
    return float(np.abs(prod + prod.transpose(1, 0, 2, 3) - target).max())


@functools.cache
def _theta_chain() -> tuple:
    """The running-phase direction theta = (1, 0, 0, 1), the chain momenta
    (2 theta, theta), and the worst residual of the non-vacuous checks of
    the massless chain check_constraints(theta, 2 theta, theta, 0)."""
    theta = FourVector(1.0, 0.0, 0.0, 1.0)
    k0, k1 = theta.scale(2.0), theta.scale(1.0)
    massless = sol.check_constraints(theta, k0, k1, 0.0)
    return theta, k0, k1, max(c.residual for c in massless.checks if not c.vacuous)


@functools.cache
def _plane_wave_grid() -> SpacetimeGrid:
    """The lattice of the plane-wave continuity check."""
    return SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, 0.3, 0.3, 0.3), (3, 4, 4, 4))


def _slashed_square_residual(rng) -> float:
    v = rng.uniform(-2.0, 2.0, size=(_SLASHED_DRAWS, 4)).T
    t, x, y, z = v[:, :, None, None]
    vv = t * t - x * x - y * y - z * z
    sl = slashed(v)
    err = np.abs(sl @ sl - vv * np.eye(4)).max(axis=(1, 2)) / np.maximum(np.abs(vv[:, 0, 0]), 1.0)
    return max(0.0, float(err.max()))


def run_verify(cfg: dict, tol: float | None, seed: int) -> tuple[int, Report]:
    rng = np.random.default_rng(seed)
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError("field 'tolerances' must be an object")
    residual_tol = _tolerance(tolerances.get("residual", ver.RESIDUAL_TOL), "tolerances.residual")
    gram_tol = _tolerance(tolerances.get("gram", ver.QUADRATURE_TOL), "tolerances.gram")
    if tol is not None:
        residual_tol = tol
    mass = number(cfg.get("mass", 1.0), "mass")
    if mass <= 0:
        raise ValueError(f"field 'mass' must be > 0, got {mass!r}")
    box_length = number(cfg.get("box_length", 2.0 * math.pi), "box_length")
    # keeps the box volume box_length**3 a finite, normal float
    if not 1e-100 <= box_length <= 1e100:
        raise ValueError(f"field 'box_length' must be in [1e-100, 1e100], got {box_length!r}")
    box_cells = number(cfg.get("box_cells", 12), "box_cells", integral=True)
    if box_cells < 3:
        raise ValueError("field 'box_cells' must be >= 3: on 2 cells the Gram directions "
                         "+-2pi/box_length alias, exp(i pi n) = exp(-i pi n)")
    theta0 = number(cfg.get("theta0", math.pi / 8.0), "theta0")

    checks: list[list] = []

    def add(name: str, value: float, tolerance: float):
        checks.append([name, float(value), tolerance, bool(value <= tolerance)])

    algebra_tol = tol if tol is not None else ver.ALGEBRA_TOL
    sweep = _quaternion_sweep(rng)
    add("quaternion_multiplicativity", sweep["multiplicativity"], algebra_tol)
    add("quaternion_associativity", sweep["associativity"], algebra_tol)
    add("quaternion_product_routes", sweep["algorithms"], algebra_tol)
    add("clifford_anticommutators", _clifford_residual(), 0.0)
    add("slashed_square", _slashed_square_residual(rng), algebra_tol)

    base = 2.0 * math.pi / box_length
    kvec = (base, 0.0, base)
    points = ver.default_points(seed=seed)

    directions = ((base, 0.0, 0.0), (0.0, base, 0.0), (0.0, 0.0, base), (-base, 0.0, 0.0))
    gram_pairs = [(theta0, kv, kv, s0, s1, esign0)
                  for (s0, s1), kv in zip(sol.SPIN_PAIRS, directions) for esign0 in (1, -1)]
    theta_dir, chain_k0, chain_k1, chain_residual = _theta_chain()
    running = sol.MasslessThetaSpec(theta=theta_dir, kappa0=2.0, kappa1=1.0, theta0=theta0)
    # every field in one certified pass over one row table, ordered so that the
    # residual set (the first 13 fields), the density set (the first 8) and the
    # Gram set (the next 8) are each one run of it; the last field is uu-+ at the
    # norm E, for the normalization check
    built = sol._build(sol._massive_set(mass, kvec, kvec, theta0) + sol._massless_set(kvec, kvec, theta0)
                       + sol._running_phase(running) + sol._massive_set(mass, kvec, kvec, theta0, "momentum")
                       + sol._massive_pairs(mass, gram_pairs)
                       + sol._massive_pairs(mass, [(theta0, kvec, kvec, "up", "up", -1)], None, "E"))
    massive, massless, hel_sols, gram_sols = built[:8], built[8:12], built[13:21], built[21:29]
    residuals = ver.dirac_residual(built[:13], points=points)
    add("residual_massive_set", max(residuals[:8]), residual_tol)
    add("residual_massless_set", max(residuals[8:12]), residual_tol)
    add("residual_massless_theta", residuals[12], residual_tol)

    all_momenta = [(s.k0, s.mass) for s in massive + massless] + [(s.k1, s.mass) for s in massive + massless]
    add("dispersion", max(sol.dispersion_residual(k, m) for k, m in all_momenta), residual_tol)

    e_plus = sol.mass_shell_energy(kvec, mass)
    norm_err = 0.0
    # the spinors at +E are uu-+'s j half (mass sign +1, spin up, z axis) at each norm
    spinors = built[29].u1, massive[1].u1
    for u, target in zip(spinors, (e_plus, e_plus / mass)):
        norm_err = max(norm_err, abs(float(np.real(np.vdot(u, u))) - target) / target)
    add("normalization", norm_err, residual_tol)

    expected = math.cos(theta0) ** 2 * (e_plus / mass) + math.sin(theta0) ** 2 * (e_plus / mass)
    dens_err = float(np.abs(ver.densities(massive, points[:8]) - expected).max())
    add("density", dens_err, residual_tol * max(1.0, expected))

    grid = SpacetimeGrid(
        origin=FourVector(0, 0, 0, 0),
        spacing=(0.1, box_length / box_cells, box_length / box_cells, box_length / box_cells),
        counts=(1, box_cells, box_cells, box_cells),
        periodic=(False, True, True, True),
    )
    gram = ver.gram_matrix(gram_sols, grid)
    diag_scale = float(gram.diagonal.max())
    add("gram_offdiag", gram.max_offdiag / diag_scale, gram_tol)
    energy_dir = sol.mass_shell_energy(directions[0], mass)
    expected_diag = energy_dir / mass * box_length**3
    add("gram_diagonal", float(np.abs(gram.diagonal - expected_diag).max()) / expected_diag, gram_tol)

    adj_angles = (0.0, math.pi / 8.0, math.pi / 4.0, math.pi / 2.0)
    # uu+- and uu-+ at each theta0: their spinors do not depend on it
    adj = [ver._adjoint_norms(s, adj_angles) for s in massive[:2]]
    adj_err = 0.0
    for n, t0 in enumerate(adj_angles):
        for values, esign0 in zip(adj, (1, -1)):
            adj_err = max(adj_err, abs(values[n] - esign0 * math.cos(2.0 * t0)))
    add("adjoint_norm", adj_err, residual_tol)

    hel_err = 0.0
    spin_eig = {"u": 0.5, "d": -0.5}
    for s, rep in zip(hel_sols, ver.helicity_check(hel_sols)):
        hel_err = max(hel_err, rep.residual0, rep.residual1)
        want = (spin_eig[s.label[0]], spin_eig[s.label[1]])
        hel_err = max(hel_err, abs(rep.h0 - want[0]), abs(rep.h1 - want[1]))
    add("helicity", hel_err, residual_tol)

    add("massless_theta_constraints", chain_residual, residual_tol)
    rejected = sol.check_constraints(theta_dir, chain_k0, chain_k1, mass)
    add("theta_massive_rejected", 0.0 if not rejected.all_passed else 1.0, 0.5)

    add("continuity_plane_wave", ver.continuity_residual(massive[0], _plane_wave_grid()).defect,
        ver.QUADRATURE_TOL)

    passed = all(c[3] for c in checks)
    check_table = Table.of_rows("checks", ["name", "value", "tolerance", "passed"], checks)
    gram_table = Table("gram", ["label", *gram.labels], [gram.labels, *gram.matrix.T.tolist()])
    report = Report("verify", seed, {
        "tolerance": residual_tol,
        "gram_tolerance": gram_tol,
        "checks": check_table,
        "gram": {**gram.to_dict(), "tolerance": gram_tol},
        "passed": passed,
    }, [check_table, gram_table], f"verify seed={seed} passed={passed}",
        Table.of_rows("checks", ["check", "value", "tolerance", "status"],
              [[n, v, t, "PASS" if ok else "FAIL"] for n, v, t, ok in checks]))
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# continuity


# the continuity presets by dimension: the packet samples of each half and
# the grid (origin, spacing, counts, periodic) of a config that gives none
_PRESETS = {
    "1+1": ((sol.PacketSample((0.0, 0.0, 1.0), 1.0), sol.PacketSample((0.0, 0.0, 2.0), 0.8)),
            (sol.PacketSample((0.0, 0.0, 1.0), 0.7, "down"),),
            ((-0.2, 0.0, 0.0, 0.0), (0.2, 1.0, 1.0, 2.0 * math.pi / 12), (3, 1, 1, 12),
             (False, False, False, True))),
    "3+1": ((sol.PacketSample((1.0, 0.0, 0.0), 1.0), sol.PacketSample((0.0, 1.0, 1.0), 0.8)),
            (sol.PacketSample((0.0, 0.0, 1.0), 0.7, "down"),),
            ((-0.2, 0.0, 0.0, 0.0), (0.2,) + (2.0 * math.pi / 6,) * 3, (3, 6, 6, 6),
             (False, True, True, True))),
}


@functools.cache
def _preset_packet(dimension: str):
    """The certified packet of a preset, built on its first use and shared,
    read-only, by every later run of the process; a failed build raises
    and is not kept."""
    samples0, samples1, _ = _PRESETS[dimension]
    return sol.make_wave_packet(1.0, math.pi / 6.0, samples0, samples1)


def _default_continuity_setup(cfg: dict):
    """The preset packet of the config's `dimension` ("1+1" when absent)
    and the config's grid, or the preset's grid when it gives none."""
    dimension = choice(cfg.get("dimension", "1+1"), "dimension", tuple(_PRESETS))
    packet = _preset_packet(dimension)
    if "grid" in cfg:
        return packet, SpacetimeGrid.from_dict(cfg["grid"])
    origin, spacing, counts, periodic = _PRESETS[dimension][2]
    return packet, SpacetimeGrid(FourVector(*origin), spacing, counts, periodic)


def _parse_b(cfg: dict):
    """The potential b as 4 complex entries from [re, im] pairs; None when absent or zero."""
    raw = cfg.get("b")
    if raw is None:
        return None
    b = np.array([complex(*vector(p, "b", 2)) for p in sequence(raw, "b", 4)])
    return b if b.any() else None


def run_continuity(cfg: dict, tol: float | None, seed: int) -> tuple[int, Report]:
    levels = number(cfg.get("levels", 3), "levels", integral=True)
    if levels < 3:
        raise ValueError("field 'levels' must be >= 3")
    b = _parse_b(cfg)
    if "solution" in cfg and "packet" in cfg:
        raise ValueError("give either field 'solution' or field 'packet', not both")
    if "solution" in cfg:
        field = sol.build_massive_solution(sol.massive_spec_from_dict(cfg["solution"]))
        grid = SpacetimeGrid.from_dict(require(cfg, "grid"))
    elif "packet" in cfg:
        field = sol.build_wave_packet(sol.packet_spec_from_dict(cfg["packet"]))
        grid = SpacetimeGrid.from_dict(require(cfg, "grid"))
    else:
        field, grid = _default_continuity_setup(cfg)
    conv = ver.continuity_convergence(field, grid, levels=levels, b=b)
    order_lo, order_hi = 1.8, 2.2
    # a plane wave has constant currents, so its defects sit at rounding
    # level and the order fit is meaningless
    rounding_level = all(r.defect <= ver.QUADRATURE_TOL for r in conv.levels)
    passed = b is not None or rounding_level or (order_lo <= conv.fitted_order <= order_hi)
    order = conv.fitted_order if math.isfinite(conv.fitted_order) else None
    levels = Table.of_rows("levels", ["h_scale", "grid", "lhs_norm", "rhs_norm", "defect", "interior_points"],
                           [[h, r.grid, r.lhs_norm, r.rhs_norm, r.defect, r.interior_points]
                            for h, r in zip(conv.h_scales, conv.levels)])
    order_str = f"{order:.4f}" if order is not None else "n/a (rounding level)"
    report = Report("continuity", seed, {
        "levels": levels,
        "fitted_order": order,
        "order_window": [order_lo, order_hi],
        "defects_at_rounding_level": rounding_level,
        "source_active": b is not None,
        "passed": passed,
    }, [levels.pick("h_scale", "lhs_norm", "rhs_norm", "defect", "interior_points"),
        Table("summary", ["fitted_order", "passed"], [[order], [passed]])],
        f"continuity fitted_order={order_str} passed={passed}",
        levels.pick("h_scale", "lhs_norm", "defect"))
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# packet


def run_packet(cfg: dict, tol: float | None, seed: int) -> tuple[int, Report]:
    spec = sol.packet_spec_from_dict(cfg)
    packet = sol.build_wave_packet(spec)
    grid = SpacetimeGrid.from_dict(require(cfg, "grid"))
    sampled = packet.evaluate_grid(grid)
    density = ver.current_grid(sampled)[..., 0]
    axes = grid.axes()
    norms = [[float(t), float(density[it].sum() * grid.cell_volume)] for it, t in enumerate(axes[0])]
    if not (np.isfinite(density).all() and all(math.isfinite(n) for _, n in norms)):
        raise ValueError("packet density overflows: amplitudes or momenta are too large")
    index = np.indices(grid.counts).reshape(4, -1)
    density_table = Table("density", ["it", "ix", "iy", "iz", "t", "x", "y", "z", "density"],
                          [*index.tolist(), *(axis[i].tolist() for axis, i in zip(axes, index)),
                           density.ravel().tolist()])
    norm_table = Table.of_rows("norms", ["t", "norm"], norms)
    report = Report("packet", seed, {
        "component": spec.component,
        "mass": spec.mass,
        "samples": len(spec.samples),
        "grid": grid.to_dict(),
        "density": density_table,
        "norms": norm_table,
        "passed": True,
    }, [density_table, norm_table],
        f"packet component={spec.component} mass={spec.mass} samples={len(spec.samples)}",
        norm_table)
    return 0, report


# ---------------------------------------------------------------------------
# click wiring

def _run_command(runner, config_path: str, out_path, fmt: str, tol, seed: int) -> None:
    """Run one command; every ValueError (bad input) exits 2.  The one
    overflow policy: an overflow reads inf or NaN without a numpy warning,
    and a finiteness check turns it into a ValueError (one stderr line)."""
    try:
        if tol is not None:
            _tolerance(tol, "--tol")
        with np.errstate(over="ignore", invalid="ignore"):
            code, report = runner(_load_config(config_path), tol, seed)
        _write_output(_render(report, fmt), out_path)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except CertificationError as exc:
        click.echo(f"certification failure: {exc}", err=True)
        sys.exit(3)
    sys.exit(code)


_tol_option = click.option(
    "--tol", type=float, default=None,
    help=f"Override the residual-class tolerance (default {ver.RESIDUAL_TOL:g}); "
         f"on verify, also the algebra bound (default {ver.ALGEBRA_TOL:g}).")


def _common_options(fn):
    fn = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True,
                      help="Seed for randomized sweeps (reports are reproducible).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                      default="json", show_default=True)(fn)
    # plain strings: _load_config and _write_output report their own errors
    fn = click.option("--out", "out_path", metavar="PATH", default=None,
                      help="Output file (atomic write); stdout when omitted.")(fn)
    fn = click.option("--config", "config_path", metavar="PATH", required=True)(fn)
    return fn


@click.group()
@click.version_option(version="0.1.0", prog_name="qdirac")
def cli() -> None:
    """Quaternionic Dirac free-particle solutions and verification."""


@cli.command()
@_common_options
@_tol_option
def catalog(config_path, out_path, fmt, tol, seed) -> None:
    """Build the labeled solution set (8 massive or 4 massless records)."""
    _run_command(run_catalog, config_path, out_path, fmt, tol, seed)


@cli.command()
@_common_options
@_tol_option
def verify(config_path, out_path, fmt, tol, seed) -> None:
    """Run the full verification suite; exit 0 iff every check passes."""
    _run_command(run_verify, config_path, out_path, fmt, tol, seed)


@cli.command()
@_common_options
def continuity(config_path, out_path, fmt, seed) -> None:
    """Finite-difference continuity study over grid refinements."""
    _run_command(run_continuity, config_path, out_path, fmt, None, seed)


@cli.command()
@_common_options
def packet(config_path, out_path, fmt, seed) -> None:
    """Evaluate wave-packet density slices over a grid."""
    _run_command(run_packet, config_path, out_path, fmt, None, seed)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
