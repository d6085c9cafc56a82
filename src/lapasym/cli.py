"""Command-line front door.

Four subcommands: ``expand`` prints the coefficient table of a model's
asymptotic series, ``verify`` compares partial sums against the direct
numeric integral and fits the remainder decay, ``density-sweep``
evaluates both densities numerically and by series over a k list, and
``bell-table`` prints the combinatorial polynomials in exact rational
form.  Output is CSV (default) or JSON, on stdout or ``--out``.

Identical invocations produce byte-identical output: floats are
serialized with 17 significant digits and rationals as ``p/q``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .bell import partial_bell_terms, power_terms
from .engine import convergence_order_fit
from .errors import DomainError, QuadratureError
from .models import density, density_series, geometric_expansion, j_a_numeric, \
    resolve_model

__all__ = ["main", "RunConfig"]

_FLOAT_FMT = "%.17g"
_BELL_BOUND = 20
# relative scale below which a verify row is indistinguishable from the
# oracle's own noise (ODE transport at rtol 1e-13 plus quadrature roundoff)
_ORACLE_FLOOR = 1e-11
_SLOPE_MARGIN = 0.1


# ------------------------------------------------------------ config plumbing

def format_float(value: float) -> str:
    return _FLOAT_FMT % float(value)


def format_number(value: Any) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def parse_half_form(text: str) -> Any:
    t = text.strip()
    try:
        if "/" in t:
            return Fraction(t)
        try:
            return int(t)
        except ValueError:
            value = float(t)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"unreadable weight value {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"weight value must be finite, got {text!r}")
    return value


def parse_k_list(text: str | None) -> tuple:
    if text is None or not text.strip():
        return ()
    values = []
    for piece in text.split(","):
        try:
            value = float(piece)
        except ValueError:
            raise DomainError(f"unreadable k value {piece!r}") from None
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation."""

    command: str
    model_source: str
    half_form: Any
    order: int
    k_values: tuple
    resolution: int
    exact: bool
    out: str | None
    fmt: str
    tol: float

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"output format must be csv or json, not {self.fmt!r}")
        if self.order < 0:
            raise DomainError("order must be nonnegative")
        if self.resolution < 1:
            raise DomainError("resolution must be positive")
        if not self.tol > 0:
            raise DomainError("tolerance must be positive")
        for k in self.k_values:
            if not (math.isfinite(k) and k > 0):
                raise DomainError(f"k values must be positive and finite, got {k!r}")

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"


# ------------------------------------------------------------ serialization

def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_number(value)


def _render(cfg: RunConfig, metadata: dict, columns: tuple, rows: list[tuple]) -> str:
    """One result in the requested format.

    JSON keeps the raw values and turns each row into an object keyed by
    ``columns``; CSV writes ``# key=value`` metadata lines, the header and
    one line per row, each cell formatted by its type.
    """
    if cfg.fmt == "json":
        payload = {**metadata, "rows": [dict(zip(columns, row)) for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}={_cell(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _metadata(cfg: RunConfig, **extra: Any) -> dict:
    return {
        "command": cfg.command,
        "model": cfg.model_source,
        "a": format_number(cfg.half_form),
        "order": cfg.order,
        "resolution": cfg.resolution,
        "mode": cfg.mode,
        **extra,
    }


# ------------------------------------------------------------ commands

def cmd_expand(cfg: RunConfig) -> str:
    model = resolve_model(cfg.model_source)
    result = geometric_expansion(
        model, None, cfg.half_form, cfg.order, cfg.resolution, cfg.mode
    )
    rows = [
        (j, str(result.exponents[j]), result.coefficients[j], result.odd_vanished[j])
        for j in range(cfg.order + 1)
    ]
    return _render(cfg, _metadata(cfg),
                   ("j", "exponent", "coefficient", "odd_vanished"), rows)


def _fit_clean_slope(ks: list[float], errors: list[float]) -> float | None:
    # a slope needs two distinct abscissae
    if len(set(ks)) < 2:
        return None
    if len(ks) >= 3:
        return convergence_order_fit(ks, errors)
    return math.log(errors[1] / errors[0]) / math.log(ks[1] / ks[0])


def cmd_verify(cfg: RunConfig) -> str:
    if len(set(cfg.k_values)) < 3:
        raise DomainError("verify needs at least 3 distinct k values")
    model = resolve_model(cfg.model_source)
    # the oracle runs first: it refuses group dimension above 3 before the
    # series builds a rule of 2 * resolution ** (d - 1) directions
    oracles = j_a_numeric(model, None, cfg.half_form, cfg.k_values, tol=cfg.tol)
    result = geometric_expansion(
        model, None, cfg.half_form, cfg.order, cfg.resolution, cfg.mode
    )
    # first even series index beyond the computed order
    next_even = cfg.order + 2 if cfg.order % 2 == 0 else cfg.order + 1
    expected = Fraction(-(next_even + model.group_dim), 2)

    rows = []
    clean_ks: list[float] = []
    clean_errors: list[float] = []
    for k, oracle in zip(cfg.k_values, oracles):
        partial = result.partial_sum(k)
        error = abs(oracle - partial)
        floored = error < _ORACLE_FLOOR * abs(oracle)
        rows.append((k, oracle, partial, error, floored))
        if not floored:
            clean_ks.append(k)
            clean_errors.append(error)

    slope = _fit_clean_slope(clean_ks, clean_errors)
    # with no slope every informative row sits at the oracle floor: the
    # series is at least as accurate as the oracle can resolve
    passed = slope is None or slope <= float(expected) + _SLOPE_MARGIN
    if slope is None and cfg.fmt == "csv":
        slope = "floor-limited"
    metadata = _metadata(
        cfg,
        tol=cfg.tol,
        expected_slope=str(expected),
        fitted_slope=slope,
        clean_points=len(clean_ks),
        verdict="pass" if passed else "fail",
    )
    return _render(cfg, metadata,
                   ("k", "oracle", "partial_sum", "abs_error", "floor_limited"), rows)


def cmd_density_sweep(cfg: RunConfig) -> str:
    if cfg.exact:
        raise DomainError("density-sweep has no exact mode")
    model = resolve_model(cfg.model_source)
    rows = []
    if cfg.k_values:
        i_numeric, j_numeric = density(model, ("I", "J"), cfg.k_values, tol=cfg.tol)
        ks = [*cfg.k_values, math.inf]
        i_series, j_series = (
            density_series(model, kind, ks, order=cfg.order, resolution=cfg.resolution)
            for kind in ("I", "J")
        )
        rows = list(zip(cfg.k_values, i_numeric, j_numeric, i_series, j_series))
        # closing row: the large-k limits, numeric and series alike; its k is
        # the string "inf" because JSON has no infinity (CSV prints it alike)
        limits = (i_series[-1], j_series[-1])
        rows.append(("inf", *limits, *limits))
    return _render(cfg, _metadata(cfg, tol=cfg.tol),
                   ("k", "I", "J", "I_series", "J_series"), rows)


# ------------------------------------------------------------ bell tables

def _monomial_key(exponents: dict, span: int):
    vector = tuple(exponents.get(i, 0) for i in range(1, span + 1))
    return (max(exponents.values(), default=0), vector)


def _polynomial_string(terms: list[tuple[int, dict]], span: int) -> str:
    if not terms:
        return "0"
    pieces = []
    for coeff, exponents in sorted(terms, key=lambda t: _monomial_key(t[1], span)):
        body = "".join(
            f"x{i}" + (f"^{e}" if e > 1 else "")
            for i, e in sorted(exponents.items())
        )
        if not body:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(body)
        else:
            pieces.append(f"{coeff}{body}")
    return " + ".join(pieces)


def cmd_bell_table(cfg: RunConfig) -> str:
    if cfg.order > _BELL_BOUND:
        raise DomainError(f"bell-table order is capped at {_BELL_BOUND}")
    rows = []

    def add(kind: str, j: int, l: int | None, terms: list[tuple[int, dict]]):
        rows.append((kind, j, l, _polynomial_string(terms, max(j, 1)),
                     sum(coeff for coeff, _ in terms)))

    # (0, 0) is the only index pair of weight 0
    indices = [range(1 if j else 0, j + 1) for j in range(cfg.order + 1)]
    partials = [[partial_bell_terms(j, blocks) for blocks in blocks_range]
                for j, blocks_range in enumerate(indices)]
    for j, blocks_range in enumerate(indices):
        for blocks, terms in zip(blocks_range, partials[j]):
            add("partial", j, blocks, terms)
    # a complete row sums the partial rows of its j
    for j, per_block in enumerate(partials):
        add("complete", j, None, [term for terms in per_block for term in terms])
    for m, r_range in enumerate(indices):
        for r in r_range:
            add("power", m, r, power_terms(m, r))

    return _render(cfg, {"command": cfg.command, "order": cfg.order},
                   ("kind", "j", "l", "polynomial", "value_at_ones"), rows)


# ------------------------------------------------------------ entry point

_COMMANDS = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "density-sweep": cmd_density_sweep,
    "bell-table": cmd_bell_table,
}

_DEFAULT_ORDER = {"expand": 6, "verify": 4, "density-sweep": 6, "bell-table": 6}
_DEFAULT_TOL = {"expand": 1e-12, "verify": 1e-12, "density-sweep": 1e-9,
                "bell-table": 1e-12}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapasym",
        description="Asymptotic expansion toolkit: coefficient tables, "
                    "numeric verification, density sweeps, Bell polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", default="builtin:sphere",
                       help="builtin:<name> or a JSON model config path")
        p.add_argument("--a", default="1/2",
                       help="half-form weight (int, float, or p/q)")
        p.add_argument("--order", type=int, default=None,
                       help="top series index N (bell-table: j bound)")
        p.add_argument("--k", default=None,
                       help="comma-separated k values")
        p.add_argument("--resolution", type=int, default=32,
                       help="sphere rule: circle nodes (d = 2), polar nodes "
                            "per level (d >= 3)")
        p.add_argument("--exact", action="store_true",
                       help="exact rational arithmetic (expand, verify); "
                            "needs rational radial data")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--tol", type=float, default=None,
                       help="numeric oracle tolerance")
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    order = ns.order if ns.order is not None else _DEFAULT_ORDER[ns.command]
    tol = ns.tol if ns.tol is not None else _DEFAULT_TOL[ns.command]
    return RunConfig(
        command=ns.command,
        model_source=ns.model,
        half_form=parse_half_form(ns.a),
        order=order,
        k_values=parse_k_list(ns.k),
        resolution=ns.resolution,
        exact=ns.exact,
        out=ns.out,
        fmt=ns.fmt,
        tol=tol,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = config_from_args(ns)
        text = _COMMANDS[cfg.command](cfg)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    except QuadratureError as exc:
        sys.stderr.write(
            f"error: {exc} (best estimate {format_float(exc.estimate)}, "
            f"bound {format_float(exc.error_bound)})\n"
        )
        return 2
    except (DomainError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
