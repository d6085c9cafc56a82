"""Read the tracer's span files and turn them into per-layer metrics."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field

LAYERS = ("cli", "bell", "jets", "engine", "exprs", "models")


@dataclass
class InvocationTrace:
    """Per-span-name calls, inclusive and self seconds of one traced process."""

    calls: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)
    root_s: float = 0.0
    import_s: float = 0.0
    import_scipy_s: float = 0.0

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out


def read_trace(prefix: str, stderr: str) -> InvocationTrace:
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["count"]
    name_id, parent = array("i"), array("i")
    start, end = array("d"), array("d")
    with open(prefix + ".spans", "rb") as fh:
        for arr in (name_id, parent, start, end):
            arr.fromfile(fh, n)
    names = meta["names"]
    trace = InvocationTrace(counters=meta["counters"], distinct=meta["distinct"])
    children = [0.0] * n
    durations = [e - s for s, e in zip(start, end)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p] += durations[i]
        else:
            trace.root_s += durations[i]
    for i in range(n):
        name = names[name_id[i]]
        trace.calls[name] = trace.calls.get(name, 0) + 1
        trace.total_s[name] = trace.total_s.get(name, 0.0) + durations[i]
        trace.self_s[name] = trace.self_s.get(name, 0.0) + durations[i] - children[i]
    trace.import_s, trace.import_scipy_s = import_times(stderr)
    return trace


def import_times(stderr: str) -> tuple[float, float]:
    """From ``-X importtime``: seconds importing lapasym, and scipy.integrate.

    The lapasym figure sums the cumulative times of the outermost
    ``lapasym`` entries; ``scipy.integrate`` is counted wherever it is
    first imported, eagerly or lazily.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name_field = parts[2][1:]
        indent = len(name_field) - len(name_field.lstrip(" "))
        entries.append((indent, name_field.strip(), int(parts[1]) * 1e-6))
    if not entries:
        return 0.0, 0.0
    lapasym_s = 0.0
    stack: list[int] = []  # indents of enclosing lapasym entries, innermost last
    # importtime prints children before parents, so walk in reverse
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1] >= indent:
            stack.pop()
        if name == "lapasym" or name.startswith("lapasym."):
            if not stack:
                lapasym_s += cumulative
            stack.append(indent)
    scipy_s = sum(c for _, name, c in entries if name == "scipy.integrate")
    return lapasym_s, scipy_s


def ratio(numerator: float, denominator: float) -> float:
    """Useful share of attempts; 1.0 when nothing was attempted (no waste)."""
    return numerator / denominator if denominator else 1.0


# per-layer metrics of one traced pass, in report order; counts and
# seconds are summed over the pass, ratios are ratios of those sums
PER_LAYER = (
    "cli.import_s", "cli.import_scipy_s", "cli.self_s",
    "bell.partition_tuples.calls", "bell.partition_tuples.distinct_ratio",
    "bell.complete_bell.calls", "bell.complete_bell.s",
    "bell.series_power_coefficient.calls", "bell.series_power_coefficient.s",
    "bell.self_s",
    "jets.exp_series.calls", "jets.exp_series.s",
    "jets.ode_jet_transport.calls", "jets.ode_jet_transport.s",
    "jets.picard_passes", "jets.self_s",
    "engine.directions", "engine.expansion_coefficient.calls",
    "engine.expansion_coefficient.s", "engine.numeric_laplace_integral.calls",
    "engine.numeric_laplace_integral.s", "engine.quad.calls",
    "engine.quad.integrand_evals", "engine.quad.s", "engine.self_s", "engine.errors",
    "exprs.compile_expression.calls", "exprs.eval.calls", "exprs.eval.s", "exprs.self_s",
    "models.resolve_model.s", "models.radial_profile.calls", "models.radial_profile.s",
    "models.geometric_expansion.s", "models.j_a_numeric.calls", "models.j_a_numeric.s",
    "models.solve_ivp.calls", "models.solve_ivp.nfev", "models.solve_ivp.s",
    "models.solve_ivp.distinct_ratio", "models.self_s", "models.errors",
    "trace.unattributed_s", "trace.overhead_frac",
)


def per_layer_metrics(traces: list[InvocationTrace], walls: list[float]) -> dict:
    """Per-layer metrics of one traced pass, given each process's wall time.

    ``trace.overhead_frac`` needs an untraced pass and is left to the caller.
    """
    layer_self = {layer: 0.0 for layer in LAYERS}
    for t in traces:
        for layer, value in t.layer_self().items():
            layer_self[layer] = layer_self.get(layer, 0.0) + value
    special = {
        "cli.import_s": sum(t.import_s for t in traces),
        "cli.import_scipy_s": sum(t.import_scipy_s for t in traces),
        "trace.unattributed_s": sum(walls) - sum(t.root_s for t in traces),
    }
    out = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name == "trace.overhead_frac":
            continue
        elif kind == "self_s":
            out[name] = layer_self[stem]
        elif kind == "calls":
            out[name] = sum(t.calls.get(stem, 0) for t in traces)
        elif kind == "s":
            out[name] = sum(t.total_s.get(stem, 0.0) for t in traces)
        elif kind == "distinct_ratio":
            out[name] = ratio(sum(t.distinct.get(stem, 0) for t in traces),
                              sum(t.calls.get(stem, 0) for t in traces))
        else:  # counters: picard_passes, directions, integrand_evals, nfev, errors
            out[name] = sum(t.counters.get(name, 0) for t in traces)
    return out
