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

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import click
import numpy as np

from . import solutions as sol
from . import verify as ver
from ._fields import choice, number, require, sequence, vector
from .grid import SpacetimeGrid
from .qalg import mul, mul_symplectic
from .spinor import FourVector, METRIC_DIAG, slashed
from .solutions import CertificationError

SCHEMA_VERSION = sol.SCHEMA_VERSION


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config plumbing


def _tolerance(v, name: str) -> float:
    """A finite tolerance > 0."""
    x = number(v, name)
    if x <= 0:
        raise ConfigError(f"field {name!r} must be > 0, got {v!r}")
    return x


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"field 'schema_version' must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


# ---------------------------------------------------------------------------
# report model


@dataclass(frozen=True, slots=True)
class Table:
    """A named table: a header and rows that hold one plain value per column."""

    name: str
    header: list
    rows: list

    def pick(self, *columns: str) -> "Table":
        """The same rows restricted to `columns`, in that order."""
        idx = [self.header.index(c) for c in columns]
        return Table(self.name, list(columns), [[row[i] for i in idx] for row in self.rows])


class Report(dict):
    """A command's report in all three formats.

    The dict itself is the JSON body; a Table value in it renders as a
    list of row objects.  CSV writes `sections` in order; text writes
    `head` on one line, then `table`."""

    def __init__(self, command: str, seed: int, body: dict, sections: list,
                 head: str, table: Table):
        super().__init__(command=command, schema_version=SCHEMA_VERSION, seed=seed, **body)
        self.sections, self.head, self.table = sections, head, table


def _csv_section(table: Table) -> str:
    lines = [f"# section: {table.name}", ",".join(table.header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in table.rows]
    return "\n".join(lines) + "\n"


def _text_table(table: Table) -> str:
    cells = [table.header] + [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
                              for row in table.rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n" for row in cells)


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        # Tables become row objects here, not in a `default` hook: the hook
        # nests each table one generator level deeper in json's pure-Python
        # encoder (used because of `indent`), which is slower on large packets
        body = {k: [dict(zip(v.header, row)) for row in v.rows] if isinstance(v, Table) else v
                for k, v in report.items()}
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "csv":
        return "\n".join(_csv_section(t) for t in report.sections)
    return report.head + "\n" + _text_table(report.table)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qdirac-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_path}: {exc}") from exc


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
    table = Table("solutions", _SOLUTION_COLUMNS, [
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


def _quaternion_sweep(rng, n: int = 2000) -> dict:
    """Worst relative defects of n random draws (p, q, r), as (4, n) arrays."""
    p, q, r = rng.uniform(-2.0, 2.0, size=(n, 12)).T.reshape(3, 4, n)
    pq = mul(p, q)
    pq_norm = _norm(pq)
    pnorm_qnorm = _norm(p) * _norm(q)
    lhs = mul(pq, r)
    rhs = mul(p, mul(q, r))
    alt = mul_symplectic(p, q)
    worst = {
        "multiplicativity": np.abs(pq_norm - pnorm_qnorm) / np.maximum(pnorm_qnorm, 1e-300),
        "associativity": _norm(lhs - rhs) / np.maximum(_norm(lhs), 1e-300),
        "algorithms": _norm(pq - alt) / np.maximum(pq_norm, 1e-300),
    }
    return {name: max(0.0, float(v.max())) for name, v in worst.items()}


def _clifford_residual() -> float:
    """max |{gamma^mu, gamma^nu} - 2 g^{mu nu}| over all 16 pairs at once."""
    prod = ver._GAMMA_STACK[:, None] @ ver._GAMMA_STACK[None]
    target = 2.0 * np.diag(METRIC_DIAG)[:, :, None, None] * np.eye(4)
    return float(np.abs(prod + prod.transpose(1, 0, 2, 3) - target).max())


def _slashed_square_residual(rng, n: int = 200) -> float:
    v = rng.uniform(-2.0, 2.0, size=(n, 4)).T
    t, x, y, z = v[:, :, None, None]
    vv = t * t - x * x - y * y - z * z
    sl = slashed(v)
    err = np.abs(sl @ sl - vv * np.eye(4)).max(axis=(1, 2)) / np.maximum(np.abs(vv[:, 0, 0]), 1.0)
    return max(0.0, float(err.max()))


def run_verify(cfg: dict, tol: float | None, seed: int) -> tuple[int, Report]:
    rng = np.random.default_rng(seed)
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("field 'tolerances' must be an object")
    residual_tol = _tolerance(tolerances.get("residual", ver.RESIDUAL_TOL), "tolerances.residual")
    gram_tol = _tolerance(tolerances.get("gram", ver.QUADRATURE_TOL), "tolerances.gram")
    if tol is not None:
        residual_tol = tol
    mass = number(cfg.get("mass", 1.0), "mass")
    if mass <= 0:
        raise ConfigError(f"field 'mass' must be > 0, got {mass!r}")
    box_length = number(cfg.get("box_length", 2.0 * math.pi), "box_length")
    # keeps the box volume box_length**3 a finite, normal float
    if not 1e-100 <= box_length <= 1e100:
        raise ConfigError(f"field 'box_length' must be in [1e-100, 1e100], got {box_length!r}")
    box_cells = number(cfg.get("box_cells", 12), "box_cells", integral=True)
    if box_cells < 3:
        raise ConfigError("field 'box_cells' must be >= 3: on 2 cells the Gram directions "
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

    massive = sol.enumerate_massive_set(mass, kvec, kvec, theta0)
    add("residual_massive_set", max(ver.dirac_residual(massive, points=points)), residual_tol)
    massless = sol.enumerate_massless_theta0_set(kvec, kvec, theta0)
    add("residual_massless_set", max(ver.dirac_residual(massless, points=points)), residual_tol)

    theta_dir = FourVector(1.0, 0.0, 0.0, 1.0)
    mtheta = sol.build_massless_theta_solution(
        sol.MasslessThetaSpec(theta=theta_dir, kappa0=2.0, kappa1=1.0, theta0=theta0))
    add("residual_massless_theta", ver.dirac_residual(mtheta, points=points), residual_tol)

    all_momenta = [(s.k0, s.mass) for s in massive + massless] + [(s.k1, s.mass) for s in massive + massless]
    add("dispersion", max(sol.dispersion_residual(k, m) for k, m in all_momenta), residual_tol)

    e_plus = sol.mass_shell_energy(kvec, mass)
    k_up = FourVector(e_plus, *kvec)
    norm_err = 0.0
    spinors = sol.build_u_spinor([k_up, k_up], mass, mass_sign=1, norm_choice=["E", "E_over_m"])
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
    directions = ((base, 0.0, 0.0), (0.0, base, 0.0), (0.0, 0.0, base), (-base, 0.0, 0.0))
    gram_sols = sol.build_massive_solutions(
        sol.MassiveSpec(mass=mass, theta0=theta0, kvec0=kv, kvec1=kv, spin0=s0, spin1=s1, esign0=esign0)
        for (s0, s1), kv in zip(sol.SPIN_PAIRS, directions) for esign0 in (1, -1))
    gram = ver.gram_matrix(gram_sols, grid)
    diag_scale = float(gram.diagonal.max())
    add("gram_offdiag", gram.max_offdiag / diag_scale, gram_tol)
    energy_dir = sol.mass_shell_energy(directions[0], mass)
    expected_diag = energy_dir / mass * box_length**3
    add("gram_diagonal", float(np.abs(gram.diagonal - expected_diag).max()) / expected_diag, gram_tol)

    adj_err = 0.0
    for t0 in (0.0, math.pi / 8.0, math.pi / 4.0, math.pi / 2.0):
        # uu+- and uu-+ at each theta0: their spinors do not depend on it
        for s, esign0 in zip(massive[:2], (1, -1)):
            want = esign0 * math.cos(2.0 * t0)
            adj_err = max(adj_err, abs(ver.adjoint_norm(s, theta0=t0) - want))
    add("adjoint_norm", adj_err, residual_tol)

    hel_err = 0.0
    hel_sols = sol.enumerate_massive_set(mass, kvec, kvec, theta0, spin_axis="momentum")
    spin_eig = {"u": 0.5, "d": -0.5}
    for s, rep in zip(hel_sols, ver.helicity_check(hel_sols)):
        hel_err = max(hel_err, rep.residual0, rep.residual1)
        want = (spin_eig[s.label[0]], spin_eig[s.label[1]])
        hel_err = max(hel_err, abs(rep.h0 - want[0]), abs(rep.h1 - want[1]))
    add("helicity", hel_err, residual_tol)

    constraints = sol.check_constraints(theta_dir, theta_dir.scale(2.0), theta_dir.scale(1.0), 0.0)
    add("massless_theta_constraints",
        max(c.residual for c in constraints.checks if not c.vacuous),
        residual_tol)
    rejected = sol.check_constraints(theta_dir, theta_dir.scale(2.0), theta_dir.scale(1.0), mass)
    add("theta_massive_rejected", 0.0 if not rejected.all_passed else 1.0, 0.5)

    pw_grid = SpacetimeGrid(FourVector(0, 0, 0, 0), (0.1, 0.3, 0.3, 0.3), (3, 4, 4, 4))
    add("continuity_plane_wave", ver.continuity_residual(massive[0], pw_grid).defect, ver.QUADRATURE_TOL)

    passed = all(c[3] for c in checks)
    check_table = Table("checks", ["name", "value", "tolerance", "passed"], checks)
    gram_table = Table("gram", ["label", *gram.labels],
                       [[lab, *vals] for lab, vals in zip(gram.labels, gram.matrix.tolist())])
    report = Report("verify", seed, {
        "tolerance": residual_tol,
        "gram_tolerance": gram_tol,
        "checks": check_table,
        "gram": {**gram.to_dict(), "tolerance": gram_tol},
        "passed": passed,
    }, [check_table, gram_table], f"verify seed={seed} passed={passed}",
        Table("checks", ["check", "value", "tolerance", "status"],
              [[n, v, t, "PASS" if ok else "FAIL"] for n, v, t, ok in checks]))
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# continuity


def _default_continuity_setup(dimension: str):
    length = 2.0 * math.pi
    if choice(dimension, "dimension", ("1+1", "3+1")) == "1+1":
        samples0 = (sol.PacketSample((0.0, 0.0, 1.0), 1.0),
                    sol.PacketSample((0.0, 0.0, 2.0), 0.8))
        samples1 = (sol.PacketSample((0.0, 0.0, 1.0), 0.7, "down"),)
        grid = SpacetimeGrid(
            FourVector(-0.2, 0.0, 0.0, 0.0), (0.2, 1.0, 1.0, length / 12),
            (3, 1, 1, 12), (False, False, False, True))
    else:
        samples0 = (sol.PacketSample((1.0, 0.0, 0.0), 1.0),
                    sol.PacketSample((0.0, 1.0, 1.0), 0.8))
        samples1 = (sol.PacketSample((0.0, 0.0, 1.0), 0.7, "down"),)
        grid = SpacetimeGrid(
            FourVector(-0.2, 0.0, 0.0, 0.0), (0.2, length / 6, length / 6, length / 6),
            (3, 6, 6, 6), (False, True, True, True))
    packet = sol.make_wave_packet(1.0, math.pi / 6.0, samples0, samples1)
    return packet, grid


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
        raise ConfigError("field 'levels' must be >= 3")
    b = _parse_b(cfg)
    if "solution" in cfg and "packet" in cfg:
        raise ConfigError("give either field 'solution' or field 'packet', not both")
    if "solution" in cfg:
        field = sol.build_massive_solution(sol.massive_spec_from_dict(cfg["solution"]))
        grid = SpacetimeGrid.from_dict(require(cfg, "grid"))
    elif "packet" in cfg:
        field = sol.build_wave_packet(sol.packet_spec_from_dict(cfg["packet"]))
        grid = SpacetimeGrid.from_dict(require(cfg, "grid"))
    else:
        field, grid = _default_continuity_setup(cfg.get("dimension", "1+1"))
        if "grid" in cfg:
            grid = SpacetimeGrid.from_dict(cfg["grid"])
    conv = ver.continuity_convergence(field, grid, levels=levels, b=b)
    order_lo, order_hi = 1.8, 2.2
    # a plane wave has constant currents, so its defects sit at rounding
    # level and the order fit is meaningless
    rounding_level = all(r.defect <= ver.QUADRATURE_TOL for r in conv.levels)
    passed = b is not None or rounding_level or (order_lo <= conv.fitted_order <= order_hi)
    order = conv.fitted_order if math.isfinite(conv.fitted_order) else None
    levels = Table("levels", ["h_scale", "grid", "lhs_norm", "rhs_norm", "defect", "interior_points"],
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
        Table("summary", ["fitted_order", "passed"], [[order, passed]])],
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
    # an overflowing sum is rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [[float(t), float(density[it].sum() * grid.cell_volume)]
                 for it, t in enumerate(axes[0])]
    if not (np.isfinite(density).all() and all(math.isfinite(n) for _, n in norms)):
        raise ConfigError("packet density overflows: amplitudes or momenta are too large")
    index = np.indices(grid.counts).reshape(4, -1)
    columns = [*index.tolist(), *(axis[i].tolist() for axis, i in zip(axes, index)),
               density.ravel().tolist()]
    density_table = Table("density", ["it", "ix", "iy", "iz", "t", "x", "y", "z", "density"],
                          list(zip(*columns)))
    norm_table = Table("norms", ["t", "norm"], norms)
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
    """Run one command; every ValueError (bad input) exits 2."""
    try:
        if tol is not None:
            _tolerance(tol, "--tol")
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
    help=f"Override the residual-class tolerance (default {ver.RESIDUAL_TOL:g}).")


def _common_options(fn):
    fn = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True,
                      help="Seed for randomized sweeps (reports are reproducible).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--out", "out_path", type=click.Path(), default=None,
                      help="Output file (atomic write); stdout when omitted.")(fn)
    fn = click.option("--config", "config_path", type=click.Path(), required=True)(fn)
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
