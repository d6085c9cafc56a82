"""Output checker: parse one ``lapasym`` CSV output and compare it with its plan.

``check(invocation, returncode, stdout)`` returns a :class:`Verdict`:
whether the invocation passed, why not, and the correct significant
digits of every checked float.  Digits are ``-log10(|got - ref| /
scale)`` with ``scale = |ref|``, or the leading coefficient's ``|ref|``
when ``ref`` is 0; an exact match counts as 17 digits, the most a
double carries.  Bell tables are compared exactly, against polynomials
built here by the textbook recurrences.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

EXACT_DIGITS = 17.0


@dataclass
class Verdict:
    """Outcome of one invocation: pass/fail, reasons, digits of each checked float."""

    passed: bool = True
    reasons: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.passed = False
        self.reasons.append(reason)

    def compare(self, label: str, got: float, ref: float, scale: float,
                max_err: float) -> None:
        """Record digits; fail when ``|got - ref| > max_err``."""
        err = abs(got - ref)
        if not math.isfinite(got):
            self.fail(f"{label}: got {got!r}")
            return
        self.digits.append(EXACT_DIGITS if err == 0 or scale == 0
                           else min(EXACT_DIGITS, -math.log10(err / scale)))
        if not err <= max_err:
            self.fail(f"{label}: got {got!r}, exact {ref!r}")


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """``# key=value`` metadata lines, then a header and data rows."""
    meta: dict = {}
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and lines[pos].startswith("# "):
        key, _, value = lines[pos][2:].partition("=")
        meta[key] = value
        pos += 1
    if pos >= len(lines):
        return meta, []
    header = lines[pos].split(",")
    rows = []
    for line in lines[pos + 1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return meta, rows


# ------------------------------------------------------------ per command

def _check_expand(spec: dict, meta: dict, rows: list, v: Verdict) -> None:
    refs = [float(r) for r in spec["coefficients"]]
    if len(rows) != len(refs):
        v.fail(f"expand printed {len(rows)} rows, expected {len(refs)}")
        return
    lead = abs(refs[0])
    for j, (row, ref) in enumerate(zip(rows, refs)):
        if row["j"] != str(j) or row["exponent"] != str(Fraction(j + spec["dim"], 2)):
            v.fail(f"row {j}: index or exponent {row['j']},{row['exponent']}")
        scale = abs(ref) or lead
        v.compare(f"zeta_{j}", float(row["coefficient"]), ref, scale, spec["rel"] * scale)
        vanished = "true" if j % 2 and ref == 0 else "false"
        if row["odd_vanished"] != vanished:
            v.fail(f"row {j}: odd_vanished={row['odd_vanished']}")


def _check_verify(spec: dict, meta: dict, rows: list, v: Verdict) -> None:
    if meta.get("verdict") != "pass":
        v.fail(f"verdict={meta.get('verdict')}")
    if len(rows) != len(spec["oracle"]):
        v.fail(f"verify printed {len(rows)} rows, expected {len(spec['oracle'])}")
        return
    for row, oracle, partial in zip(rows, spec["oracle"], spec["partial_sum"]):
        k = row["k"]
        oracle, partial = float(oracle), float(partial)
        v.compare(f"oracle(k={k})", float(row["oracle"]), oracle, abs(oracle), spec["tol"])
        v.compare(f"partial_sum(k={k})", float(row["partial_sum"]), partial,
                  abs(partial), spec["rel"] * abs(partial))


def _check_density(spec: dict, meta: dict, rows: list, v: Verdict) -> None:
    if len(rows) != len(spec["rows"]) + 1:
        v.fail(f"density-sweep printed {len(rows)} rows, expected {len(spec['rows']) + 1}")
        return
    tol, rel = spec["tol"], spec["rel"]
    for row, expected in zip(rows, spec["rows"]):
        k = row["k"]
        for col, ref in zip(("I", "J", "I_series", "J_series"), expected):
            ref = float(ref)
            bound = tol if col in ("I", "J") else rel * abs(ref)
            v.compare(f"{col}(k={k})", float(row[col]), ref, abs(ref), bound)
    last = rows[-1]
    if last["k"] != "inf":
        v.fail(f"last density row is k={last['k']}, expected inf")
    for cols, ref in ((("I", "I_series"), spec["limits"][0]),
                      (("J", "J_series"), spec["limits"][1])):
        ref = float(ref)
        for col in cols:
            v.compare(f"{col}(k=inf)", float(last[col]), ref, abs(ref), rel * abs(ref))


# ------------------------------------------------------------ Bell tables

_TERM = re.compile(r"(\d*)((?:x\d+(?:\^\d+)?)*)\Z")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_polynomial(text: str) -> dict:
    """``"3x1x2 + x1^3"`` -> ``{((1, 1), (2, 1)): 3, ((1, 3),): 1}``."""
    poly: dict = {}
    if text == "0":
        return poly
    for term in text.split(" + "):
        m = _TERM.match(term)
        if not m or not term:
            raise ValueError(f"unreadable term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exps: dict = {}
        for idx, power in _FACTOR.findall(m.group(2)):
            exps[int(idx)] = exps.get(int(idx), 0) + int(power or 1)
        key = tuple(sorted(exps.items()))
        poly[key] = poly.get(key, 0) + coeff
    return poly


def _poly_mul_var(poly: dict, var: int, coeff: int) -> dict:
    out: dict = {}
    for key, c in poly.items():
        exps = dict(key)
        exps[var] = exps.get(var, 0) + 1
        nk = tuple(sorted(exps.items()))
        out[nk] = out.get(nk, 0) + c * coeff
    return out


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def bell_reference(order: int) -> dict:
    """``{(kind, j, l): polynomial}`` for every row ``bell-table`` prints.

    Partial rows are the classical ``B_{j,l}`` by ``B_{n,k} = sum_i
    C(n-1, i-1) x_i B_{n-i,k-1}``; power rows are the coefficient of
    ``t^m`` in ``(x1 t + x2 t^2 + ...)^r`` by ``P(m, r) = sum_i x_i
    P(m-i, r-1)``.
    """
    partial = {(0, 0): {(): 1}}
    for n in range(1, order + 1):
        partial[(n, 0)] = {}
        for k in range(1, n + 1):
            acc: dict = {}
            for i in range(1, n - k + 2):
                prev = partial.get((n - i, k - 1), {})
                acc = _poly_add(acc, _poly_mul_var(prev, i, math.comb(n - 1, i - 1)))
            partial[(n, k)] = acc
    power = {(0, 0): {(): 1}}
    for m in range(1, order + 1):
        power[(m, 0)] = {}
        for r in range(1, m + 1):
            acc = {}
            for i in range(1, m - r + 2):
                acc = _poly_add(acc, _poly_mul_var(power.get((m - i, r - 1), {}), i, 1))
            power[(m, r)] = acc
    out = {("partial", 0, "0"): partial[(0, 0)]}
    for j in range(1, order + 1):
        for blocks in range(1, j + 1):
            out[("partial", j, str(blocks))] = partial[(j, blocks)]
    for j in range(order + 1):
        total: dict = {(): 1} if j == 0 else {}
        for blocks in range(1, j + 1):
            total = _poly_add(total, partial[(j, blocks)])
        out[("complete", j, "")] = total
    out[("power", 0, "0")] = power[(0, 0)]
    for m in range(1, order + 1):
        for r in range(1, m + 1):
            out[("power", m, str(r))] = power[(m, r)]
    return out


def _check_bell(spec: dict, meta: dict, rows: list, v: Verdict) -> None:
    expected = bell_reference(spec["order"])
    seen = set()
    for row in rows:
        key = (row["kind"], int(row["j"]), row["l"])
        if key not in expected or key in seen:
            v.fail(f"unexpected bell row {key}")
            continue
        seen.add(key)
        poly = expected[key]
        if parse_polynomial(row["polynomial"]) != poly:
            v.fail(f"bell row {key}: polynomial {row['polynomial']!r}")
        if int(row["value_at_ones"]) != sum(poly.values()):
            v.fail(f"bell row {key}: value_at_ones {row['value_at_ones']}")
        v.digits.append(EXACT_DIGITS)
    if len(seen) != len(expected):
        v.fail(f"bell table has {len(seen)} of {len(expected)} rows")


_CHECKERS = {
    "expand": _check_expand,
    "verify": _check_verify,
    "density": _check_density,
    "bell": _check_bell,
}


def check(invocation: dict, returncode: int, stdout: str) -> Verdict:
    """Compare one invocation's exit status and stdout with its references."""
    v = Verdict()
    if returncode != 0:
        v.fail(f"exit status {returncode}")
        return v
    try:
        meta, rows = parse_csv(stdout)
        spec = invocation["check"]
        _CHECKERS[spec["kind"]](spec, meta, rows, v)
    except (KeyError, ValueError, IndexError) as exc:
        v.fail(f"unreadable output: {exc!r}")
    return v
