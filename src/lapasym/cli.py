"""Command-line front door.

Four subcommands: ``expand`` prints the coefficient table of a model's
asymptotic series, ``verify`` compares partial sums against the direct
numeric integral and fits the remainder decay, ``density-sweep``
evaluates both densities numerically and by series over a k list, and
``bell-table`` prints the combinatorial polynomials in exact rational
form.  Output is CSV (default) or JSON, on stdout or ``--out``.  Each
subcommand parses only the flags it reads; any other flag, and any
unreadable value, is a one-line ``error:`` with exit status 2.  A
command imports the layers it uses when it runs, so ``bell-table``
loads neither numpy nor the series and oracle layers, and no other
command loads the Bell layer.  numpy is loaded
only where arrays are made: ``expand`` of group dimension 1, float or
``--exact``, runs on plain numbers without it, and a float ``expand``
of group dimension 2 on a pure-Python vector of the circle's
directions, while ``expand`` of dimension 3 and up, ``verify`` and
``density-sweep`` load it.

Identical invocations produce byte-identical output: floats are
serialized with 17 significant digits and rationals as ``p/q``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError, QuadratureError

__all__ = ["main"]

_FLOAT_FMT = "%.17g"
_BELL_BOUND = 20
# relative scale below which a verify row is indistinguishable from the
# oracle's own noise (ODE transport at rtol 1e-13 plus quadrature roundoff)
_ORACLE_FLOOR = 1e-11
_SLOPE_MARGIN = 0.1


# ------------------------------------------------------------ values

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
        raise argparse.ArgumentTypeError(f"unreadable weight value {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"weight value must be finite, got {text!r}")
    return value


def parse_k_list(text: str) -> tuple:
    if not text.strip():
        return ()
    values = []
    for piece in text.split(","):
        try:
            k = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"unreadable k value {piece!r}") from None
        if not (math.isfinite(k) and k > 0):
            raise argparse.ArgumentTypeError(
                f"k values must be positive and finite, got {k!r}")
        values.append(k)
    return tuple(values)


def _checked(convert, accept, message: str):
    """An argparse type: ``convert`` the text, refusing values not ``accept``-ed.

    It carries ``convert``'s name, so unreadable text is reported as, say,
    ``invalid int value: 'abc'``.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__
    return parse


# ------------------------------------------------------------ serialization

def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_number(value)


def _render(ns: argparse.Namespace, metadata: dict, columns: tuple,
            rows: list[tuple]) -> str:
    """One result in the requested format.

    JSON keeps the raw values and turns each row into an object keyed by
    ``columns``; CSV writes ``# key=value`` metadata lines, the header and
    one line per row, each cell formatted by its type.
    """
    if ns.fmt == "json":
        payload = {**metadata, "rows": [dict(zip(columns, row)) for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}={_cell(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _metadata(ns: argparse.Namespace, **extra: Any) -> dict:
    return {
        "command": ns.command,
        "model": ns.model,
        "a": format_number(ns.a),
        "order": ns.order,
        "resolution": ns.resolution,
        # expand's --exact stores "exact" here; no other command has it
        "mode": getattr(ns, "mode", "float"),
        **extra,
    }


# ------------------------------------------------------------ commands

def cmd_expand(ns: argparse.Namespace) -> str:
    from .models import geometric_expansion, resolve_model

    model = resolve_model(ns.model)
    result = geometric_expansion(
        model, None, ns.a, ns.order, ns.resolution, ns.mode
    )
    rows = [
        (j, str(result.exponents[j]), result.coefficients[j], result.odd_vanished[j])
        for j in range(ns.order + 1)
    ]
    return _render(ns, _metadata(ns),
                   ("j", "exponent", "coefficient", "odd_vanished"), rows)


def _fit_clean_slope(ks: list[float], errors: list[float]) -> float | None:
    # a slope needs two distinct abscissae
    if len(set(ks)) < 2:
        return None
    if len(ks) >= 3:
        from .oracle import convergence_order_fit

        return convergence_order_fit(ks, errors)
    return math.log(errors[1] / errors[0]) / math.log(ks[1] / ks[0])


def cmd_verify(ns: argparse.Namespace) -> str:
    if len(set(ns.k)) < 3:
        raise DomainError("verify needs at least 3 distinct k values")
    from .models import geometric_expansion, resolve_model
    from .oracle import j_a_numeric

    model = resolve_model(ns.model)
    # the oracle refuses group dimension above 3 before the series builds a
    # rule of 2 * resolution ** (d - 1) directions
    oracles = j_a_numeric(model, None, ns.a, ns.k, tol=ns.tol)
    result = geometric_expansion(model, None, ns.a, ns.order, ns.resolution)
    # first even series index beyond the computed order
    next_even = ns.order + 2 if ns.order % 2 == 0 else ns.order + 1
    expected = Fraction(-(next_even + model.group_dim), 2)

    rows = []
    clean_ks: list[float] = []
    clean_errors: list[float] = []
    for k, oracle in zip(ns.k, oracles):
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
    if slope is None and ns.fmt == "csv":
        slope = "floor-limited"
    metadata = _metadata(
        ns,
        tol=ns.tol,
        expected_slope=str(expected),
        fitted_slope=slope,
        clean_points=len(clean_ks),
        verdict="pass" if passed else "fail",
    )
    return _render(ns, metadata,
                   ("k", "oracle", "partial_sum", "abs_error", "floor_limited"), rows)


def cmd_density_sweep(ns: argparse.Namespace) -> str:
    from .models import density_series, resolve_model
    from .oracle import density

    model = resolve_model(ns.model)
    rows = []
    if ns.k:
        i_numeric, j_numeric = density(model, ("I", "J"), ns.k, tol=ns.tol)
        ks = [*ns.k, math.inf]
        i_series, j_series = density_series(model, ("I", "J"), ks, order=ns.order,
                                            resolution=ns.resolution)
        rows = list(zip(ns.k, i_numeric, j_numeric, i_series, j_series))
        # closing row: the large-k limits, numeric and series alike; its k is
        # the string "inf" because JSON has no infinity (CSV prints it alike)
        limits = (i_series[-1], j_series[-1])
        rows.append(("inf", *limits, *limits))
    return _render(ns, _metadata(ns, tol=ns.tol),
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


def cmd_bell_table(ns: argparse.Namespace) -> str:
    if ns.order > _BELL_BOUND:
        raise DomainError(f"bell-table order is capped at {_BELL_BOUND}")
    from .bell import partial_bell_terms, power_terms

    rows = []

    def add(kind: str, j: int, l: int | None, terms: list[tuple[int, dict]]):
        rows.append((kind, j, l, _polynomial_string(terms, max(j, 1)),
                     sum(coeff for coeff, _ in terms)))

    # (0, 0) is the only index pair of weight 0
    indices = [range(1 if j else 0, j + 1) for j in range(ns.order + 1)]
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

    return _render(ns, {"command": ns.command, "order": ns.order},
                   ("kind", "j", "l", "polynomial", "value_at_ones"), rows)


# ------------------------------------------------------------ entry point

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`DomainError`, for ``main``'s one line."""

    def error(self, message: str):
        raise DomainError(message)


_order = _checked(int, lambda n: n >= 0, "order must be nonnegative")
_resolution = _checked(int, lambda n: n >= 1, "resolution must be positive")
_tol = _checked(float, lambda t: 0 < t < math.inf, "tolerance must be positive and finite")

_FLAGS = {
    "--model": dict(default="builtin:sphere",
                    help="builtin:<name> or a JSON model config path"),
    "--a": dict(type=parse_half_form, default="1/2",
                help="half-form weight (int, float, or p/q)"),
    "--order": dict(type=_order, help="top series index N (bell-table: j bound)"),
    "--k": dict(type=parse_k_list, default=(), help="comma-separated k values"),
    "--resolution": dict(type=_resolution, default=32,
                         help="sphere rule: circle nodes (d = 2), polar nodes "
                              "per level (d >= 3)"),
    "--exact": dict(dest="mode", action="store_const", const="exact", default="float",
                    help="exact rational arithmetic; needs rational radial data"),
    "--tol": dict(type=_tol, help="numeric oracle tolerance"),
}

# subcommand: (command, the flags it reads besides --out and --format, defaults)
_COMMANDS = {
    "expand": (cmd_expand, ("--model", "--a", "--order", "--resolution", "--exact"),
               {"order": 6}),
    "verify": (cmd_verify, ("--model", "--a", "--order", "--k", "--resolution", "--tol"),
               {"order": 4, "tol": 1e-12}),
    # I and J fix their own weights; the "# a=" line states J's
    "density-sweep": (cmd_density_sweep, ("--model", "--order", "--k", "--resolution",
                                          "--tol"),
                      {"a": Fraction(1, 2), "order": 6, "tol": 1e-9}),
    "bell-table": (cmd_bell_table, ("--order",), {"order": 6}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lapasym",
        description="Asymptotic expansion toolkit: coefficient tables, "
                    "numeric verification, density sweeps, Bell polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.set_defaults(run=command, **defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        text = ns.run(ns)
        if ns.out is None:
            sys.stdout.write(text)
        else:
            with open(ns.out, "w", encoding="utf-8", newline="\n") as handle:
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
