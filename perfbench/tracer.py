"""Span recording around the public functions of each pyramid_eq layer.

The tracer lives entirely in the benchmark: it rebinds the program's
public functions to timing wrappers after import and leaves the program
source alone.  A span is [id, parent id, name, start, end] with times from
time.monotonic(); all spans of one interpreter share a run id.  Spans are
kept in a list and written out by the caller when the run ends.

Layer names are the module names of pyramid_eq.  `aggregate` turns one
run's spans into the per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("cli", "model", "wages", "lp", "analysis", "pyramid", "svgplot")

# WageOperator methods that carry the smoothed-dual and envelope work; each
# _SmoothedDual.value_grad makes exactly one splat_from_z call.
OPERATOR_METHODS = ("__init__", "interp_at_z", "splat_from_z", "components")

# cli.main spans the whole process including set-up; the solve window
# starts when load_scenario returns, so main itself is not a span.
UNWRAPPED = {"cli.main"}


class Tracer:
    """In-memory span recorder.  Single-threaded: the traced subcommands
    (solve, phase) never start worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.fields: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, fields = self.spans, self._stack, self.fields
        clock = time.monotonic
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                fields[rec[0]] = observe(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, then rebind each
        module-level name that refers to an original, so names bound by
        `from .x import f` at import time (cli.solve_wages, pyramid's
        pushforward_z, the package re-exports) are traced as well as the
        module attributes that call-time imports read."""
        pkg = importlib.import_module("pyramid_eq")
        mods = {layer: importlib.import_module(f"pyramid_eq.{layer}") for layer in LAYERS}
        swap = {}
        for layer, mod in mods.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n, None)
                name = f"{layer}.{n}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in UNWRAPPED:
                    swap[fn] = self.wrap(name, fn)
        for mod in (pkg, *mods.values()):
            for n, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swap:
                    setattr(mod, n, swap[obj])
        op = mods["wages"].WageOperator
        for meth in OPERATOR_METHODS:
            setattr(op, meth, self.wrap(f"wages.WageOperator.{meth}", getattr(op, meth)))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "fields": {str(k): v for k, v in self.fields.items()}}


# public result fields recorded per span
_OBSERVERS = {
    "wages.solve_wages": lambda prof: {"iterations": int(prof.iterations)},
    "lp.solve_lp": lambda sol: {"pivots": int(sol.iterations)},
    "lp.assemble_primal": lambda lp: {"A_bytes": int(lp.A.nbytes)},
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(trace: dict, t_loaded: float, t_done: float) -> dict:
    """Per-layer metrics of one traced run.

    Times named after a function are inclusive span durations summed over
    its calls; `<layer>.self_s` is the layer's span time minus the part its
    children in other layers cover, over spans inside the solve window
    [t_loaded, t_done].  cli.self_s is the traced solve time minus every
    other layer's self time: artifact writing and orchestration.
    """
    spans = trace["spans"]
    fields = {int(k): v for k, v in trace["fields"].items()}
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child[s[1]] += d

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[2] == name)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def field(name, key):
        return [fields[s[0]][key] for s in spans if s[2] == name]

    solve_s = t_done - t_loaded
    in_window = [s[3] >= t_loaded for s in spans]
    self_s = {layer: 0.0 for layer in LAYERS}
    outer = {layer: 0.0 for layer in LAYERS}
    for s, d, c, w in zip(spans, dur, child, in_window):
        if not w:
            continue
        layer = layer_of(s[2])
        self_s[layer] += d - c
        if s[1] < 0 or layer_of(spans[s[1]][2]) != layer:
            outer[layer] += d
    self_s["cli"] = solve_s - sum(v for k, v in self_s.items() if k != "cli")

    pivots = field("lp.solve_lp", "pivots")
    cert = [fields[s[0]]["pivots"] for s in spans
            if s[2] == "lp.solve_lp" and (s[1] < 0 or layer_of(spans[s[1]][2]) == "cli")]
    a_bytes = field("lp.assemble_primal", "A_bytes")
    solves = calls("wages.solve_wages")
    dual_evals = calls("wages.WageOperator.splat_from_z")
    probe_children = sum(d for s, d in zip(spans, dur)
                         if s[1] >= 0 and spans[s[1]][2] == "analysis.uniqueness_probe")

    m = {
        "trace.solve_s": solve_s,
        "trace.spans": len(spans),
        "cli.load_scenario_s": total("cli.load_scenario"),
        "model.discretize_density_s": total("model.discretize_density"),
        "model.pushforward_z_s": total("model.pushforward_z"),
        "wages.solve_wages_s": total("wages.solve_wages"),
        "wages.delta_continuation_s": total("wages.delta_continuation"),
        "wages.stability_residuals_s": total("wages.stability_residuals"),
        "wages.solves": solves,
        "wages.dual_evals": dual_evals,
        "wages.dual_evals_per_solve": dual_evals / solves if solves else 0.0,
        "wages.splat_s": total("wages.WageOperator.splat_from_z"),
        "wages.interp_evals": calls("wages.WageOperator.interp_at_z"),
        "wages.interp_s": total("wages.WageOperator.interp_at_z"),
        "wages.envelope_evals": calls("wages.WageOperator.components"),
        "wages.envelope_s": total("wages.WageOperator.components"),
        "wages.polish_iters": sum(field("wages.solve_wages", "iterations")),
        "wages.operator_builds": calls("wages.WageOperator.__init__"),
        "lp.assemble_primal_s": total("lp.assemble_primal"),
        "lp.solve_lp_s": total("lp.solve_lp"),
        "lp.solves": len(pivots),
        "lp.pivots": sum(pivots),
        "lp.cert_pivots": sum(cert),
        "lp.duality_report_s": total("lp.duality_report"),
        "lp.A_mb": max(a_bytes) / 2 ** 20 if a_bytes else 0.0,
        "analysis.uniqueness_probe_self_s": total("analysis.uniqueness_probe") - probe_children,
        "analysis.occupation_split_s": total("analysis.occupation_split"),
        "analysis.teacher_map_extract_s": total("analysis.teacher_map_extract"),
        "analysis.adult_density_s": total("analysis.adult_density"),
        "analysis.specialization_report_s": total("analysis.specialization_report"),
        "analysis.specialization_calls": calls("analysis.specialization_report"),
        "pyramid.phase_fit_s": total("pyramid.phase_fit"),
        "svgplot.line_chart_s": total("svgplot.line_chart"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    for layer in ("wages", "lp"):
        m[f"{layer}.share"] = outer[layer] / solve_s if solve_s > 0 else 0.0
    return m


# metrics that count work: they must repeat exactly for a fixed seed
COUNTS = ("trace.spans", "wages.solves", "wages.dual_evals", "wages.interp_evals", "wages.envelope_evals",
          "wages.polish_iters", "wages.operator_builds", "lp.solves", "lp.pivots",
          "lp.cert_pivots", "lp.A_mb", "analysis.specialization_calls")


def combine(runs: list) -> tuple[dict, list]:
    """Median of each timing over traced runs; counts must agree exactly.
    Returns (metrics, names of counts that differed between runs)."""
    out, mismatched = {}, []
    for key in runs[0]:
        vals = [r[key] for r in runs]
        if key in COUNTS:
            if any(v != vals[0] for v in vals):
                mismatched.append(key)
            out[key] = vals[0]
        else:
            out[key] = statistics.median(vals)
    return out, mismatched
