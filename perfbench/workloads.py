"""Seeded workload generator: JSON models, invocation lists, exact references.

``generate(name, seed)`` returns a plain dictionary (JSON-serializable)
with the model files to write and, for every ``lapasym`` invocation,
its argv and the exact values its output must reproduce.  The seed
draws the model coefficients, weights and ``k`` values; the shape of
each slot (command, group dimension, order, resolution) is fixed, so
every seed asks the program for the same amount of work.

Two fixed inputs that fail at the seed commit ride along in every
workload (see ``KNOWN_FAILURES``).  They are the same at every seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable

import mpmath

import reference as ref

WORKLOADS = ("series", "oracle", "cli-short")

# significant digits kept for references in the generated plan
_REF_DIGITS = 30

# Relative accuracy every checked float must reach, by value kind.  Each
# is tighter than 1e-6, so a change in the 6th significant digit fails.
EXPAND_FLOAT_REL = 1e-9
EXPAND_EXACT_REL = 1e-12
SERIES_SUM_REL = 1e-9
# Oracle values are checked within the invocation's absolute --tol; a plan
# is refused unless that tolerance is below this share of every value.
ORACLE_TOL_REL = 1e-6

# cli-short's exact-mode models: d = 1 polynomial data of degree 7, 6 and 5
# with these coefficient magnitudes; the seed draws only the signs, so the
# exact Fraction work, and with it each call's cost, is the same at every
# seed.  Five order-14 calls make exact-mode compute about 30% of a pass.
EXACT_SLOTS = 5
LINE_PHI = tuple(Fraction(n, d) for n, d in ((3, 2), (2, 3), (1, 4), (2, 5), (1, 6), (1, 7)))
LINE_FIELD = tuple(Fraction(n, d) for n, d in ((1, 2), (2, 3), (1, 4), (1, 5), (1, 6), (1, 7)))
LINE_LAP = tuple(Fraction(n, d) for n, d in ((1, 2), (1, 3), (2, 3), (1, 5), (1, 6), (1, 7)))

KNOWN_FAILURES = {
    "known-tilted-line-verify": (
        "README tilted-line model under verify: the flow x' = 1 + 6x^2 blows up "
        "at t = 0.64, inside the first probe span 1.0, and verify exits 2 with "
        "'flow transport failed'"
    ),
    "known-flat-1-10-expand": (
        "flat 2-d model with axis ratio 1/10 at resolution 32: zeta_0 = 34.056 "
        "against the exact 10 pi = 31.416 (8.4% off), with no error reported"
    ),
}


def _s(value) -> str:
    return mpmath.nstr(value, _REF_DIGITS, min_fixed=1, max_fixed=0)


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _sum(terms: list):
    return terms[0] if len(terms) == 1 else ["+", *terms]


# ------------------------------------------------------------ model configs

def flat_config(name: str, axes: list[Fraction]) -> dict:
    """phi = sum s_i w_i x_i, flow x_i' = s_i w_i: a Gaussian with axes s_i."""
    d = len(axes)
    return {
        "name": name,
        "group_dim": d,
        "chart_dim": d,
        "phi": _sum([["*", str(s), f"w{i}", f"x{i}"] for i, s in enumerate(axes)]),
        "flow_field": [["*", str(s), f"w{i}"] for i, s in enumerate(axes)],
        "laplacian_phi": "0",
        "zero_points": [[0] * d],
        "orbit_volume": "1",
    }


def sphere_product_config(name: str, scales: list[Fraction]) -> dict:
    """T^d acting on (S^2)^d in height charts, generator i scaled by c_i."""
    d = len(scales)
    two_pi_c = [["*", "2", "pi", str(c)] for c in scales]
    volume = ["*", "2", "pi", str(scales[0]),
              ["sqrt", ["-", "1", ["pow", "x0", 2]]]]
    for i in range(1, d):
        volume = ["*", volume, "2", "pi", str(scales[i]),
                  ["sqrt", ["-", "1", ["pow", f"x{i}", 2]]]]
    return {
        "name": name,
        "group_dim": d,
        "chart_dim": d,
        "phi": _sum([["*", tc, f"w{i}", f"x{i}"] for i, tc in enumerate(two_pi_c)]),
        "flow_field": [["*", tc, f"w{i}", ["-", "1", ["pow", f"x{i}", 2]]]
                       for i, tc in enumerate(two_pi_c)],
        "laplacian_phi": _sum([["*", "-2", tc, f"w{i}", f"x{i}"]
                               for i, tc in enumerate(two_pi_c)]),
        "zero_points": [[0] * d],
        "orbit_volume": volume,
    }


def _poly_expr(coeffs: list[Fraction]) -> list:
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = "x0" if i == 1 else ["pow", "x0", i]
        terms.append(str(c) if i == 0 else ["*", str(c), mono])
    if not terms:
        return "0"
    return terms[0] if len(terms) == 1 else ["+", *terms]


def rational_line_config(name: str, phi: list, field: list, lap: list) -> dict:
    """d = 1 model phi = w0 p(x0), flow w0 q(x0), laplacian w0 r(x0)."""
    return {
        "name": name,
        "group_dim": 1,
        "chart_dim": 1,
        "phi": ["*", "w0", _poly_expr(phi)],
        "flow_field": [["*", "w0", _poly_expr(field)]],
        "laplacian_phi": ["*", "w0", _poly_expr(lap)],
        "zero_points": [[0]],
        "orbit_volume": "1",
    }


TILTED_LINE = {
    "name": "tilted-line",
    "group_dim": 1,
    "chart_dim": 1,
    "phi": ["*", "w0", ["+", "x0", ["*", "2", ["pow", "x0", 3]]]],
    "flow_field": [["*", "w0", ["+", "1", ["*", "6", ["pow", "x0", 2]]]]],
    "laplacian_phi": ["*", "w0", ["*", "12", "x0"]],
    "zero_points": [[0]],
    "orbit_volume": "1",
}


# ------------------------------------------------------------ invocations

def _k_text(ks: list[int]) -> str:
    return ",".join(str(k) for k in ks)


def _seeded_ks(rng: random.Random, bases: tuple) -> list[int]:
    return [int(b * (1 + rng.randint(0, 24) / 100)) for b in bases]


def _expand(inv_id: str, model: str, coeffs: list, dim: int, order: int,
            half_form: str, resolution: int = 32, exact: bool = False) -> dict:
    argv = ["expand", "--model", model, "--a", half_form, "--order", str(order),
            "--resolution", str(resolution)]
    if exact:
        argv.append("--exact")
    return {
        "id": inv_id,
        "argv": argv,
        "check": {
            "kind": "expand",
            "dim": dim,
            "coefficients": [_s(c) for c in coeffs[: order + 1]],
            "rel": EXPAND_EXACT_REL if exact else EXPAND_FLOAT_REL,
        },
    }


def _oracle_tol(inv_id: str, tol: float, values: list) -> float:
    """``tol``, if it is below ``ORACLE_TOL_REL`` of every oracle value."""
    smallest = min(abs(mpmath.mpf(v)) for v in values)
    if not tol < ORACLE_TOL_REL * smallest:
        raise ValueError(f"{inv_id}: --tol {tol!r} cannot resolve the 6th digit "
                         f"of an oracle value {mpmath.nstr(smallest, 6)}")
    return tol


def _verify(inv_id: str, model: str, half_form: str, order: int, ks: list[int],
            tol: float | None, dim: int, coeffs: list,
            integral: Callable[[int], object], resolution: int = 32) -> dict:
    argv = ["verify", "--model", model, "--a", half_form, "--order", str(order),
            "--k", _k_text(ks), "--resolution", str(resolution)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    oracle = [_s(integral(k)) for k in ks]
    return {
        "id": inv_id,
        "argv": argv,
        "check": {
            "kind": "verify",
            # lapasym's default verify tolerance is 1e-12
            "tol": _oracle_tol(inv_id, 1e-12 if tol is None else tol, oracle),
            "oracle": oracle,
            "partial_sum": [_s(ref.partial_sum(coeffs[: order + 1], dim, k)) for k in ks],
            "rel": SERIES_SUM_REL,
        },
    }


def _density(inv_id: str, model: str, order: int, ks: list[int], dim: int,
             volume, integral: Callable[[object, int], object],
             coefficients: Callable[[object], list]) -> dict:
    """density-sweep: I = (k/2pi)^(d/2) vol^2 j_1, J = (k/pi)^(d/2) vol j_1/2."""
    half = Fraction(1, 2)
    c_i, c_j = coefficients(1), coefficients(half)
    lead = coefficients(0)[0]
    rows = []
    for k in ks:
        pre_i = (mpmath.mpf(k) / (2 * mpmath.pi)) ** (mpmath.mpf(dim) / 2) * volume ** 2
        pre_j = (mpmath.mpf(k) / mpmath.pi) ** (mpmath.mpf(dim) / 2) * volume
        rows.append([
            _s(pre_i * integral(1, k)),
            _s(pre_j * integral(half, k)),
            _s(pre_i * ref.partial_sum(c_i[: order + 1], dim, k)),
            _s(pre_j * ref.partial_sum(c_j[: order + 1], dim, k)),
        ])
    limit_i = volume ** 2 * lead / (2 * mpmath.pi) ** (mpmath.mpf(dim) / 2)
    limit_j = volume * lead / mpmath.pi ** (mpmath.mpf(dim) / 2)
    return {
        "id": inv_id,
        "argv": ["density-sweep", "--model", model, "--order", str(order),
                 "--k", _k_text(ks)],
        "check": {
            "kind": "density",
            # lapasym's default density-sweep tolerance
            "tol": _oracle_tol(inv_id, 1e-9, [r[c] for r in rows for c in (0, 1)]),
            "rows": rows,
            "limits": [_s(limit_i), _s(limit_j)],
            "rel": SERIES_SUM_REL,
        },
    }


def _bell(inv_id: str, order: int) -> dict:
    return {"id": inv_id, "argv": ["bell-table", "--order", str(order)],
            "check": {"kind": "bell", "order": order}}


def _known_failures(models: dict) -> list[dict]:
    """The two fixed inputs that fail at the seed commit."""
    models["tilted-line.json"] = TILTED_LINE
    axes = [Fraction(1), Fraction(1, 10)]
    models["flat-1-10.json"] = flat_config("flat-1-10", axes)
    half = Fraction(1, 2)
    tilted = ref.rational_line_coefficients(
        [0, 1, 0, 2], [1, 0, 6], [0, 12], half, 4)
    out = [
        _verify("known-tilted-line-verify", "models/tilted-line.json", "1/2", 4,
                [30, 100, 300], None, 1, tilted,
                lambda k: ref.tilted_line_integral(half, k)),
        _expand("known-flat-1-10-expand", "models/flat-1-10.json",
                ref.flat_coefficients(axes, 2), 2, 2, "1/2", 32),
    ]
    for inv in out:
        inv["known_failure"] = KNOWN_FAILURES[inv["id"]]
    return out


def _axes(rng: random.Random, d: int) -> list[Fraction]:
    # Axis factors and generator scales in [3/4, 1]: with anisotropy at most
    # 4/3 the seed code's angular quadrature error at the resolutions used
    # stays below 1e-13, so seeded inputs never trip the angular defect that
    # the fixed flat-1-10 input exposes (at [1/2, 1] it reaches 5e-8).
    return [_frac(rng, 12, 16, 16) for _ in range(d)]


def _series(rng: random.Random, models: dict) -> list[dict]:
    half_forms = ("0", "1/2", "1")
    invs = []
    axes3 = _axes(rng, 3)
    models["flat3.json"] = flat_config("flat3", axes3)
    invs.append(_expand("flat3-o6-r16", "models/flat3.json",
                        ref.flat_coefficients(axes3, 6), 3, 6, "1/2", 16))
    scales2 = _axes(rng, 2)
    a = rng.choice(half_forms)
    models["sphere2.json"] = sphere_product_config("sphere2", scales2)
    # unequal scales need 64 circle nodes for 1e-13 at order 8 (32 give 4e-4)
    invs.append(_expand("sphere2-o8-r64", "models/sphere2.json",
                        ref.sphere_product_coefficients(scales2, Fraction(a), 8),
                        2, 8, a, 64))
    axes2 = _axes(rng, 2)
    models["flat2.json"] = flat_config("flat2", axes2)
    invs.append(_expand("flat2-o6-r32", "models/flat2.json",
                        ref.flat_coefficients(axes2, 6), 2, 6, "1/2", 32))
    # not seeded: its 14th coefficient (about 11 correct digits) sets the
    # workload's min_digits, which must not move with the seed
    invs.append(_expand("builtin-sphere-o14", "builtin:sphere",
                        ref.unit_sphere_coefficients(Fraction(1, 2), 14), 1, 14, "1/2"))
    return invs


def _oracle(rng: random.Random, models: dict) -> list[dict]:
    invs = []
    half = Fraction(1, 2)
    ks = _seeded_ks(rng, (30, 100, 300, 1000))
    invs.append(_verify("builtin-sphere-verify", "builtin:sphere", "1/2", 4, ks, 1e-10,
                        1, ref.unit_sphere_coefficients(half, 4),
                        lambda k: ref.unit_sphere_integral(half, k)))
    ks = _seeded_ks(rng, (100, 1000, 10000))
    invs.append(_verify("builtin-quartic-verify", "builtin:quartic", "0", 4, ks, 1e-10,
                        1, ref.rational_line_coefficients([0, 1, 0, 2], [1], [0], 0, 4),
                        ref.quartic_integral))
    c = _frac(rng, 12, 15, 16)
    models["sphere1.json"] = sphere_product_config("sphere1", [c])
    ks = _seeded_ks(rng, (30, 100, 1000))
    invs.append(_density("sphere1-density", "models/sphere1.json", 4, ks, 1,
                         2 * mpmath.pi * ref.to_mpf(c),
                         lambda a, k: ref.sphere_product_integral([c], a, k),
                         lambda a: ref.sphere_product_coefficients([c], a, 4)))
    # not seeded: this call is over half of each pass, and its ODE work grows
    # with the scale (solve_ivp evaluations 96,678 at 3/4, 107,157 at 15/16),
    # so a seeded scale would move wall_s with the seed; the seed draws the
    # k values only
    c = Fraction(7, 8)
    models["sphere2eq.json"] = sphere_product_config("sphere2eq", [c, c])
    ks = _seeded_ks(rng, (100, 300, 1000))
    # values near 1e-4 at k = 1000: --tol 1e-11 keeps the 7th digit checked
    invs.append(_verify("sphere2eq-verify", "models/sphere2eq.json", "1/2", 2, ks, 1e-11,
                        2, ref.sphere_product_coefficients([c, c], half, 2),
                        lambda k: ref.sphere_product_integral([c, c], half, k)))
    return invs


def _signed(rng: random.Random, magnitudes: tuple) -> list[Fraction]:
    return [m if rng.random() < 0.5 else -m for m in magnitudes]


def _cli_short(rng: random.Random, models: dict) -> list[dict]:
    invs = [_bell("bell-table-o4", 4), _bell("bell-table-o18", 18)]
    half = Fraction(1, 2)
    for idx in range(EXACT_SLOTS):
        phi = [Fraction(0), Fraction(2)] + _signed(rng, LINE_PHI)
        field = [Fraction(1)] + _signed(rng, LINE_FIELD)
        lap = _signed(rng, LINE_LAP)
        name = f"line{idx}"
        models[f"{name}.json"] = rational_line_config(name, phi, field, lap)
        invs.append(_expand(f"{name}-exact-o14", f"models/{name}.json",
                            ref.rational_line_coefficients(phi, field, lap, half, 14),
                            1, 14, "1/2", exact=True))
    invs.append(_expand("builtin-sphere-o4", "builtin:sphere",
                        ref.unit_sphere_coefficients(half, 4), 1, 4, "1/2"))
    invs.append(_expand("builtin-gaussian-o4", "builtin:gaussian",
                        ref.rational_line_coefficients([0, 1], [1], [0], 0, 4), 1, 4, "1/2"))
    invs.append(_expand("builtin-quartic-o6", "builtin:quartic",
                        ref.rational_line_coefficients([0, 1, 0, 2], [1], [0], 0, 6),
                        1, 6, "0"))
    return invs


_BUILDERS = {"series": _series, "oracle": _oracle, "cli-short": _cli_short}


def generate(workload: str, seed: int) -> dict:
    """Models and checked invocation list of one workload at one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    models: dict = {}
    invocations = _BUILDERS[workload](rng, models) + _known_failures(models)
    return {"workload": workload, "seed": seed, "models": models,
            "invocations": invocations}


def write_models(plan: dict, workdir: str) -> None:
    os.makedirs(os.path.join(workdir, "models"), exist_ok=True)
    for filename, config in plan["models"].items():
        with open(os.path.join(workdir, "models", filename), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
            fh.write("\n")


def model_sources(plan: dict) -> list[str]:
    """Distinct --model arguments of a plan, in first-use order."""
    seen: dict = {}
    for inv in plan["invocations"]:
        argv = inv["argv"]
        if "--model" in argv:
            seen.setdefault(argv[argv.index("--model") + 1], None)
    return list(seen)
