"""Traced runs: wrap qpot's public functions from outside and record spans.

Run as a script, this is the child of a traced run:

    python3 perfbench/tracer.py SPANS_JSON -- compare --config run.cfg --out out/

It imports `qpot.cli`, replaces each public function of the layer modules
at every name a caller looks it up by (`qpot.experiments.evolve` as well as
`qpot.propagate.evolve`), runs `qpot.cli.main` with the given arguments
and, once main returns, writes the spans it kept in memory to SPANS_JSON.
A span is (name, start, end, parent index, grid points or None); all
spans of one file share the file's run id. Nothing in `src/` is changed.

Imported as a module, it only offers `layer_of` and `self_times` for the
parent to analyse the spans; it never imports qpot then.
"""

import time

T_START = time.monotonic()  # first thing after interpreter start-up

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYERS = ("cli", "config", "core", "potentials", "engineering", "propagate",
          "experiments", "io", "bohmian")
# called once per CSV cell; a span each would dwarf what it measures
SKIP = {"io.format_cell"}
# private, but the unit a sweep schedules
EXTRA = {"experiments": ("_sweep_point",)}
METHODS = {"propagate": {"CrankNicolson": ("__init__", "step_values")}}


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, points=None):
        spans, stack = self.spans, self.stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                points(args) if points else None)

        return traced


def span_cost(n=20000):
    """Seconds one wrapped call adds, from timing a wrapped no-op."""
    def noop():
        pass

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.monotonic()
    for _ in range(n):
        noop()
    t1 = time.monotonic()
    for _ in range(n):
        wrapped()
    t2 = time.monotonic()
    return max(0.0, (t2 - t1 - (t1 - t0)) / n)


def _grid_points(args):
    try:
        return int(args[0].grid.n_points)
    except (AttributeError, IndexError, TypeError, ValueError):
        return None


def install(tracer):
    """Wrap every public function of each layer at every binding of it."""
    import qpot

    modules = {layer: sys.modules[f"qpot.{layer}"] for layer in LAYERS}
    namespaces = [vars(qpot)] + [vars(m) for m in modules.values()]
    wrapped = {}
    for layer, mod in modules.items():
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == mod.__name__]
        extra = [n for n in EXTRA.get(layer, ()) if hasattr(mod, n)]
        for fname in names + extra:
            span = f"{layer}.{fname}"
            if span in SKIP:
                continue
            fn = getattr(mod, fname)
            points = _grid_points if span == "propagate.evolve" else None
            wrapped[id(fn)] = (fn, tracer.wrap(span, fn, points))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                if hasattr(cls, meth):  # a renamed method leaves its metrics empty
                    setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}",
                                                   getattr(cls, meth)))
    for ns in namespaces:
        for key, obj in list(ns.items()):
            hit = wrapped.get(id(obj))
            if hit and hit[0] is obj:
                ns[key] = hit[1]


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- QPOT_ARGS...")
    tracer = Tracer()

    def import_cli():
        import qpot.cli
        return qpot.cli

    cli = tracer.wrap("cli.import", import_cli)()
    install(tracer)
    rc = cli.main(cli_args)
    t_main_end = time.monotonic()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": os.path.basename(spans_path), "t_start": T_START,
                   "t_main_end": t_main_end, "span_cost_s": span_cost(),
                   "qpot_file": sys.modules["qpot"].__file__,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
