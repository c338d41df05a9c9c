"""Independent output checks for one CLI operation.

`check(op, result)` returns None for a correct op and a one-line reason
otherwise.  Valid ops must exit 0, raise nothing, write a report whose
numbers are all finite (JSON must parse strictly: a bare NaN or Infinity
token is a failure) and report `passed`.  On top of the program's own
verdict, each command gets one cross-check that does not trust it:

- verify: every expected check name is present and every value is at
  or below the tolerance printed beside it;
- catalog: the record count matches the family and every residual is
  within the residual tolerance;
- continuity: the fitted order is recomputed from the per-level defects
  and the pass window is re-applied;
- packet: each slice norm is recomputed from the density rows times the
  cell volume (json and csv; text has no rows).

Floats are compared with tolerances, never byte for byte against a
stored reference.  Malformed-config probes must exit 2 without an
uncaught exception.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

VERIFY_CHECKS = frozenset({
    "quaternion_multiplicativity", "quaternion_associativity", "quaternion_product_routes",
    "clifford_anticommutators", "slashed_square", "residual_massive_set",
    "residual_massless_set", "residual_massless_theta", "dispersion", "normalization",
    "density", "gram_offdiag", "gram_diagonal", "adjoint_norm", "helicity",
    "massless_theta_constraints", "theta_massive_rejected", "continuity_plane_wave",
})
RESIDUAL_TOL = 1e-12
ORDER_WINDOW = (1.8, 2.2)
ROUNDING_DEFECT = 1e-10
NORM_RTOL = 1e-9


@dataclass(frozen=True)
class OpResult:
    """What one CLI invocation produced."""

    exit_code: int
    uncaught: str | None
    seconds: float
    output: bytes | None
    stderr: str


class CheckFailure(Exception):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        _fail(f"non-finite {what}: {x!r}")
    return x


def _num(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(f"{what} is not a number: {token!r}")
    return _finite(value, what)


def strict_json(text: str):
    def reject(token):
        _fail(f"non-strict JSON token {token}")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        _fail(f"malformed JSON: {exc}")


# how repr() and the text formatter spell non-finite floats
NON_FINITE_TOKENS = frozenset({"nan", "inf", "-inf"})


def csv_sections(text: str) -> dict[str, tuple[list[str], list[list[str]]]]:
    sections: dict[str, tuple[list[str], list[list[str]]]] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    pending = None
    for line in text.splitlines():
        if line.startswith("# section: "):
            pending = line[len("# section: "):]
            continue
        if not line:
            header = None
            continue
        cells = line.split(",")
        if pending is not None:
            header, rows = cells, []
            sections[pending] = (header, rows)
            pending = None
            continue
        if header is None:
            _fail(f"CSV line outside a section: {line[:60]!r}")
        if len(cells) != len(header):
            _fail(f"CSV row width differs from its header: {line[:60]!r}")
        if NON_FINITE_TOKENS.intersection(cells):
            _fail(f"non-finite CSV cell in: {line[:60]!r}")
        rows.append(cells)
    return sections


def _columns(sections, name: str, wanted: list[str]) -> list[dict[str, str]]:
    if name not in sections:
        _fail(f"CSV section {name!r} missing")
    header, rows = sections[name]
    missing = [w for w in wanted if w not in header]
    if missing:
        _fail(f"CSV section {name!r} lacks columns {missing}")
    return [dict(zip(header, r)) for r in rows]


def _text_head(text: str, prefix: str) -> tuple[dict[str, str], list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(prefix + " "):
        _fail(f"text report does not start with {prefix!r}")
    head = {}
    for tok in lines[0].split()[1:]:
        k, _, v = tok.partition("=")
        head[k] = v
    table = [ln.split() for ln in lines[1:] if ln.strip()]
    if any(NON_FINITE_TOKENS.intersection(row) for row in table):
        _fail("non-finite value in the text table")
    if not table:
        _fail("text report has no table")
    return head, table[1:]


def _require_passed(value) -> None:
    if value not in (True, "True"):
        _fail(f"report says passed={value!r}")


# ---------------------------------------------------------------------------
# per command: normalize each format, then cross-check


def _verify(op, text: str) -> None:
    if op.fmt == "json":
        rep = strict_json(text)
        rows = [(c["name"], c["value"], c["tolerance"], c["passed"]) for c in rep["checks"]]
        gram = rep["gram"]
        if len(gram["labels"]) != 8 or any(len(r) != 8 for r in gram["matrix"]):
            _fail("gram matrix is not 8x8")
        _require_passed(rep["passed"])
    elif op.fmt == "csv":
        sections = csv_sections(text)
        rows = [(r["name"], _num(r["value"], r["name"]), _num(r["tolerance"], r["name"]), r["passed"])
                for r in _columns(sections, "checks", ["name", "value", "tolerance", "passed"])]
        if len(_columns(sections, "gram", ["label"])) != 8:
            _fail("gram section does not have 8 rows")
    else:
        head, table = _text_head(text, "verify")
        _require_passed(head.get("passed"))
        rows = [(r[0], _num(r[1], r[0]), _num(r[2], r[0]), r[3] == "PASS") for r in table]
    names = {r[0] for r in rows}
    if not VERIFY_CHECKS <= names:
        _fail(f"verify checks missing: {sorted(VERIFY_CHECKS - names)}")
    for name, value, tol, passed in rows:
        _finite(value, name)
        if not value <= tol:
            _fail(f"check {name} value {value!r} exceeds its tolerance {tol!r}")
        _require_passed(passed)


def _catalog(op, text: str) -> None:
    want = op.expect["count"]
    if op.fmt == "json":
        rep = strict_json(text)
        _require_passed(rep["passed"])
        if rep["count"] != want:
            _fail(f"count {rep['count']} != {want}")
        residuals = [r["residual"] for r in rep["solutions"]]
        tol = rep["tolerance"]
    elif op.fmt == "csv":
        rows = _columns(csv_sections(text), "solutions", ["residual"])
        residuals = [_num(r["residual"], "residual") for r in rows]
        tol = RESIDUAL_TOL
    else:
        head, table = _text_head(text, "catalog")
        _require_passed(head.get("passed"))
        residuals = [_num(r[5], "residual") for r in table]
        tol = RESIDUAL_TOL
    if len(residuals) != want:
        _fail(f"{len(residuals)} solution records, expected {want}")
    for r in residuals:
        if not _finite(r, "residual") <= tol:
            _fail(f"residual {r!r} exceeds {tol!r}")


def fitted_order(h_scales: list[float], defects: list[float]) -> float | None:
    """Least-squares slope of log(defect) against log(h); None when a
    defect is zero (the program then reports no order)."""
    if any(d <= 0 for d in defects):
        return None
    xs = [math.log(h) for h in h_scales]
    ys = [math.log(d) for d in defects]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / math.fsum((x - mx) ** 2 for x in xs))


def _continuity(op, text: str) -> None:
    if op.fmt == "json":
        rep = strict_json(text)
        _require_passed(rep["passed"])
        levels = [(lv["h_scale"], lv["defect"]) for lv in rep["levels"]]
        reported = rep["fitted_order"]
        if rep["source_active"] != op.expect["source_active"]:
            _fail(f"source_active={rep['source_active']!r}, expected {op.expect['source_active']!r}")
        order_tol = 1e-9
    elif op.fmt == "csv":
        sections = csv_sections(text)
        levels = [(_num(r["h_scale"], "h_scale"), _num(r["defect"], "defect"))
                  for r in _columns(sections, "levels", ["h_scale", "defect"])]
        summary = _columns(sections, "summary", ["fitted_order", "passed"])
        if len(summary) != 1:
            _fail("summary section must have one row")
        _require_passed(summary[0]["passed"])
        tok = summary[0]["fitted_order"]
        reported = None if tok == "None" else _num(tok, "fitted_order")
        order_tol = 1e-9
    else:
        head, table = _text_head(text, "continuity")
        _require_passed(head.get("passed"))
        levels = [(_num(r[0], "h_scale"), _num(r[2], "defect")) for r in table]
        tok = head.get("fitted_order", "")
        reported = None if tok.startswith("n/a") else _num(tok, "fitted_order")
        # defects are printed to 7 digits and the order to 4 decimals
        order_tol = 1e-3
    if len(levels) != op.expect["levels"]:
        _fail(f"{len(levels)} levels reported, expected {op.expect['levels']}")
    for i, (h, d) in enumerate(levels):
        if abs(h - 2.0 ** -i) > 1e-6 * 2.0 ** -i:
            _fail(f"level {i} h_scale {h!r} is not 2^-{i}")
        _finite(d, "defect")
    defects = [d for _, d in levels]
    order = fitted_order([h for h, _ in levels], defects)
    rounding = all(d <= ROUNDING_DEFECT for d in defects)
    if order is None:
        if reported is not None and not rounding:
            _fail(f"fitted_order {reported!r} reported for a zero defect")
    elif reported is not None and abs(order - reported) > order_tol * max(1.0, abs(order)):
        _fail(f"fitted_order {reported!r} differs from the recomputed {order!r}")
    in_window = order is not None and ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]
    if not (op.expect["source_active"] or rounding or in_window):
        _fail(f"recomputed order {order!r} outside {ORDER_WINDOW} with no source or rounding cause")


def _packet(op, text: str) -> None:
    nt = op.expect["nt"]
    if op.fmt == "json":
        rep = strict_json(text)
        _require_passed(rep["passed"])
        rows = [(r["it"], r["density"]) for r in rep["density"]]
        norms = [n["norm"] for n in rep["norms"]]
    elif op.fmt == "csv":
        sections = csv_sections(text)
        rows = [(int(r["it"]), _num(r["density"], "density"))
                for r in _columns(sections, "density", ["it", "density"])]
        norms = [_num(r["norm"], "norm") for r in _columns(sections, "norms", ["t", "norm"])]
    else:
        _, table = _text_head(text, "packet")
        norms = [_num(r[1], "norm") for r in table]
        rows = None
    if len(norms) != nt:
        _fail(f"{len(norms)} slice norms, expected {nt}")
    if rows is None:
        for n in norms:
            if not _finite(n, "norm") > 0:
                _fail(f"slice norm {n!r} is not positive")
        return
    if len(rows) != op.expect["points"]:
        _fail(f"{len(rows)} density rows, expected {op.expect['points']}")
    per_slice: list[list[float]] = [[] for _ in range(nt)]
    for it, dens in rows:
        if not _finite(dens, "density") >= 0:
            _fail(f"negative density {dens!r}")
        per_slice[it].append(dens)
    vol = op.expect["cell_volume"]
    for it, (vals, norm) in enumerate(zip(per_slice, norms)):
        want = math.fsum(vals) * vol
        if abs(_finite(norm, "norm") - want) > NORM_RTOL * max(want, 1e-300):
            _fail(f"slice {it} norm {norm!r} != density sum x cell volume {want!r}")


_COMMANDS = {"verify": _verify, "catalog": _catalog, "continuity": _continuity, "packet": _packet}


def check(op, result: OpResult) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if result.uncaught is not None:
        return f"uncaught exception: {result.uncaught}"
    if "Traceback (most recent call last)" in result.stderr:
        return "traceback on stderr"
    if result.exit_code != op.expect_exit:
        return f"exit code {result.exit_code}, expected {op.expect_exit}"
    if op.probe:
        return None
    if not result.output:
        return "no report written"
    try:
        text = result.output.decode("utf-8")
    except UnicodeDecodeError:
        return "report is not UTF-8"
    try:
        _COMMANDS[op.command](op, text)
    except CheckFailure as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"report does not have the expected shape: {exc!r}"
    return None
