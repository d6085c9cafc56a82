"""Run one ``lapasym`` command with spans recorded at every layer boundary.

Usage: ``python -X importtime perfbench/tracer.py OUT_PREFIX ARGS...`` runs
``lapasym.cli.main(ARGS)`` exactly as ``python -m lapasym.cli ARGS`` would,
with the same stdout and exit status.  Before ``main`` runs, the public
functions of each layer are wrapped at every module attribute that
holds them (``from .jets import exp_series`` binds the name in
``lapasym.models`` too, so both bindings are wrapped), together with
the third-party boundaries ``solve_ivp`` and ``quad``.

Each wrapper records a span (name, start, end, parent) in preallocated
arrays; nothing is aggregated while the command runs.  At exit the
spans are written to ``OUT_PREFIX.spans`` (raw float64/int32 arrays)
and the name table, counters and distinct-argument counts to
``OUT_PREFIX.json``.  The benchmark computes self times from them.
Nothing in ``src/`` is modified.
"""

import sys

# this file's directory must not shadow anything lapasym imports
del sys.path[0]

import functools  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

_clock = time.perf_counter

# Functions wrapped as spans named "<layer>.<function>", by defining module.
# More are wrapped than the metrics name, so that time a layer spends on
# behalf of another (bell-table's partition_multinomial, say) is charged
# to the layer that did the work when self times are taken.
LAYER_FUNCTIONS = {
    "bell": ("partition_tuples", "composition_tuples", "partition_multinomial",
             "partial_bell", "complete_bell", "series_power_coefficient",
             "generalized_binomial"),
    "jets": ("exp_series", "ode_jet_transport", "compose_scalar"),
    "engine": ("sphere_rule", "expansion_series", "expansion_coefficient",
               "numeric_laplace_integral", "convergence_order_fit", "partial_sum"),
    "models": ("resolve_model", "geometric_expansion", "expansion_profile",
               "radial_profile", "j_a_numeric", "density_I", "density_J",
               "density_I_series", "density_J_series", "density_limits"),
}
# submodules whose bindings are rewritten; "" is the package namespace itself
MODULES = ("", "bell", "jets", "engine", "exprs", "models", "cli")


class Recorder:
    """Spans in flat arrays plus named counters; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._raised: set[int] = set()

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def error(self, layer: str, exc: BaseException) -> None:
        # count each exception once, in the innermost layer it left
        if id(exc) not in self._raised:
            self._raised.add(id(exc))
            self.count(f"{layer}.errors")

    def dump(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "count": len(self.start),
                "counters": self.counters,
                "distinct": {k: len(v) for k, v in self.distinct.items()},
            }, fh)


def span(rec: Recorder, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before`` may rewrite args, ``after`` sees the result."""
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.error(layer, exc)
            raise
        finally:
            rec.exit(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapped


def counted(rec: Recorder, counter: str, fn):
    """``fn`` with every call counted (no span: these are the hottest calls)."""

    def inner(*args, **kwargs):
        rec.count(counter)
        return fn(*args, **kwargs)

    return inner


def _closure_vars(fn) -> dict:
    code = getattr(fn, "__code__", None)
    cells = getattr(fn, "__closure__", None) or ()
    if code is None:
        return {}
    return {name: cell.cell_contents for name, cell in zip(code.co_freevars, cells)}


def _replace_everywhere(modules: dict, original, wrapper, skip=()) -> None:
    """Rebind ``original`` to ``wrapper`` in every module attribute holding it."""
    for mod_name, module in modules.items():
        if mod_name in skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _hooks(rec: Recorder) -> dict:
    """Per-function argument and result hooks for counters and ratios."""

    def partition_args(args, kwargs):
        rec.note("bell.partition_tuples", tuple(args[:2]))
        return args, kwargs

    def transport_args(args, kwargs):
        args = list(args)
        args[0] = counted(rec, "jets.picard_passes", args[0])
        return tuple(args), kwargs

    def expansion_args(args, kwargs):
        rec.count("engine.directions", len(args[0].rule))
        return args, kwargs

    return {
        "partition_tuples": (partition_args, None),
        "ode_jet_transport": (transport_args, None),
        "expansion_series": (expansion_args, None),
    }


def install(rec: Recorder) -> None:
    import importlib

    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"lapasym.{name}" if name else "lapasym")
        except ImportError:
            continue
    hooks = _hooks(rec)

    for layer, functions in LAYER_FUNCTIONS.items():
        home = modules.get(layer)
        for fn_name in functions:
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            before, after = hooks.get(fn_name, (None, None))
            wrapper = span(rec, f"{layer}.{fn_name}", original, before, after)
            _replace_everywhere(modules, original, wrapper)

    # expression trees: wrap what callers compile, not exprs' own recursion
    exprs = modules.get("exprs")
    compile_expression = getattr(exprs, "compile_expression", None)
    if compile_expression is not None:
        def compile_wrapped(node):
            return span(rec, "exprs.eval", compile_expression(node))

        wrapper = span(rec, "exprs.compile_expression", compile_wrapped)
        _replace_everywhere(modules, compile_expression, wrapper, skip=("exprs",))

    # Third-party boundaries, wrapped only if lapasym already imported them
    # (importing scipy here would distort the import-time figures).  The
    # package attributes are rebound too, so a later function-level
    # ``from scipy.integrate import quad`` also gets the wrapper.
    integrate = sys.modules.get("scipy.integrate")
    if integrate is None:
        return
    modules = {**modules, "scipy.integrate": integrate}

    def solve_args(args, kwargs):
        fun = args[0] if args else kwargs.get("fun")
        t_span = args[1] if len(args) > 1 else kwargs.get("t_span")
        y0 = args[2] if len(args) > 2 else kwargs.get("y0")
        # the rhs closes over the model and direction; the start point is y0
        free = _closure_vars(fun)
        model = free.get("model")
        key = (getattr(model, "name", None), repr(free.get("omega")),
               repr(list(y0) if y0 is not None else None), repr(tuple(t_span)))
        rec.note("models.solve_ivp", key)
        return args, kwargs

    def solve_result(_args, result):
        rec.count("models.solve_ivp.nfev", int(getattr(result, "nfev", 0)))

    def quad_args(args, kwargs):
        args = list(args)
        args[0] = counted(rec, "engine.quad.integrand_evals", args[0])
        return tuple(args), kwargs

    wrapper = span(rec, "models.solve_ivp", integrate.solve_ivp, solve_args, solve_result)
    _replace_everywhere(modules, integrate.solve_ivp, wrapper)
    wrapper = span(rec, "engine.quad", integrate.quad, quad_args)
    _replace_everywhere(modules, integrate.quad, wrapper)


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    root = rec.enter("cli")
    code = 1
    try:
        imported = rec.enter("cli.import")
        import lapasym.cli

        rec.exit(imported)
        install(rec)
        run = rec.enter("cli.main")
        try:
            code = lapasym.cli.main(argv)
        finally:
            rec.exit(run)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        rec.exit(root)
        rec.dump(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main())
