"""Per-layer tracing of pgflow from outside the package.

`install` wraps the public callables of each pgflow module, and the
private hot-path ones the integrator binds, without editing the package:
module functions are swapped in every pgflow namespace that imported
them, class methods are swapped on the class, and the objective's `fn`
and `grad_fn` fields are wrapped as each Objective is built.

Two kinds of record keep memory bounded:

- coarse spans (commands, `execute`, `integrate`, `_assemble`, fits,
  verdicts, CSV writers, ...) are kept whole: id, parent, name, start,
  end and a few attributes;
- fine calls (the per-RHS gradient, schedule and projection calls and
  other small helpers) are aggregated to a count and a sum of seconds
  per (parent, name), where the parent is the enclosing coarse span id or
  [span id, fine name] for a call made inside another fine call.

`derive` turns a written trace into self times and per-layer metrics.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("cli", "config", "flow", "objectives", "schedules", "geometry", "analysis")
HARNESS = "bench"

# Private callables the integrator binds in its inner loop, traced as well.
PRIVATE = {"flow": ("_assemble",), "geometry": ("_project", "_residual")}
# Everything in these sets becomes a whole span; the rest is aggregated.
COARSE = {
    "flow": {"integrate", "_assemble", "discrete_run", "reparam_check", "write_trajectory_csv"},
    "schedules": {"validate"},
    "analysis": {"fit_power", "fit_exponential", "theorem_verdict", "write_report_csv"},
    "objectives": {"grad_check", "gheb_check", "lojasiewicz_check"},
    "geometry": set(),
}
COARSE_LAYERS = ("cli", "config")  # every traced callable of these is coarse


class Tracer:
    def __init__(self):
        self.spans = []
        self.agg = {}
        self.ctx = None
        self._next_id = 1

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        rec = [sid, self.ctx, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self.ctx = sid
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self.ctx = rec[1]

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A coarse span opened by the harness itself."""
        rec = self._open(name)
        rec[5] = attrs or None
        try:
            yield rec
        finally:
            self._close(rec)

    def coarse(self, fn, name, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if attrs is not None:
                    rec[5] = attrs(args, kwargs)

        return _mark(wrapper, fn)

    def fine(self, fn, name, count_positive=False):
        tracer, agg, clock = self, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = tracer.ctx
            tracer.ctx = (parent[0] if parent.__class__ is tuple else parent, name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.ctx = parent
            key = (parent, name)
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if count_positive and out > 0.0:
                rec[2] += 1
            return out

        return _mark(wrapper, fn)

    def write(self, path):
        data = {
            "spans": self.spans,
            "agg": [[list(p) if isinstance(p, tuple) else p, n, c, s, k]
                    for (p, n), (c, s, k) in self.agg.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _mark(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper._traced = True
    return wrapper


def _wanted(layer, attr):
    if attr.startswith("__"):
        return False
    return not attr.startswith("_") or attr in PRIVATE.get(layer, ())


def _file_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _system(args, kwargs):
    return {"system": args[0].system}


ATTRS = {"cli.execute": _system, "flow.write_trajectory_csv": _file_bytes}


def _wrap(tracer, layer, attr, fn):
    name = f"{layer}.{attr}"
    if layer in COARSE_LAYERS or attr in COARSE.get(layer, ()):
        return tracer.coarse(fn, name, ATTRS.get(name))
    return tracer.fine(fn, name, count_positive=(name == "geometry._residual"))


def install(tracer, modules: dict) -> None:
    """Wrap the traced callables of {layer: module} in place."""
    swapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _wanted(layer, attr):
                swapped[id(obj)] = _wrap(tracer, layer, attr, obj)
            elif inspect.isclass(obj):
                for mattr, mobj in list(vars(obj).items()):
                    if inspect.isfunction(mobj) and _wanted(layer, mattr):
                        setattr(obj, mattr, _wrap(tracer, layer, mattr, mobj))
    quad = modules["schedules"].quad
    swapped[id(quad)] = tracer.fine(quad, "schedules.quad")
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in swapped:
                setattr(mod, attr, swapped[id(obj)])
    _wrap_objective_fields(tracer, modules["objectives"].Objective)


def _wrap_objective_fields(tracer, cls):
    """fn and grad_fn are dataclass fields, so wrap them per instance."""
    init = cls.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for field in ("fn", "grad_fn"):
            f = getattr(self, field)
            if not getattr(f, "_traced", False):
                object.__setattr__(self, field, tracer.fine(f, f"objectives.{field}"))

    cls.__init__ = traced_init


# ---------------------------------------------------------------- derivation

def _key(parent):
    return tuple(parent) if isinstance(parent, list) else parent


def _span_id(parent):
    return parent[0] if isinstance(parent, (list, tuple)) else parent


def derive(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics {name: (value, unit)} from a written trace.

    The walls are the harness's own clock around the traced pass and
    around an untraced pass of the same commands.
    """
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    dur = {s[0]: s[4] - s[3] for s in spans}
    child_time = defaultdict(float)
    coarse_child_time = defaultdict(float)
    for s in spans:
        child_time[_key(s[1])] += dur[s[0]]
        coarse_child_time[_key(s[1])] += dur[s[0]]
    fine_total = defaultdict(float)
    for parent, name, _, t, _ in trace["agg"]:
        child_time[_key(parent)] += t
        fine_total[(_span_id(parent), name)] += t

    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    secs = defaultdict(float)
    for s in spans:
        self_by_name[s[2]] += dur[s[0]] - child_time[s[0]]
        calls[s[2]] += 1
        secs[s[2]] += dur[s[0]]
    for node, total in fine_total.items():
        self_by_name[node[1]] += total - child_time[node]
    for parent, name, c, t, _ in trace["agg"]:
        if isinstance(parent, list) and parent[1] == name:
            continue  # a call inside a call of the same name counts once
        calls[name] += c
        secs[name] += t

    integrate_ids = {s[0] for s in spans if s[2] == "flow.integrate"}
    rhs_evals = residual_calls = residual_positive = 0
    for parent, name, c, _, k in trace["agg"]:
        if not (isinstance(parent, int) and parent in integrate_ids):
            continue  # only calls made by the RK4 loop itself
        if name == "objectives.grad_fn":
            rhs_evals += c
        elif name == "geometry._residual":
            residual_calls += c
            residual_positive += k
    steps = rhs_evals // 4
    loop_s = sum(dur[i] - coarse_child_time[i] for i in integrate_ids)

    def ancestors(sid):
        while sid is not None:
            yield sid
            sid = _span_id(by_id[sid][1])

    scaled_runs = {s[0] for s in spans if s[2] == "cli.execute" and s[5]
                   and s[5].get("system") == "scaled"}
    scaled_integrates = sum(1 for i in integrate_ids if scaled_runs & set(ancestors(i)))

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("flow.rk4_steps", steps, "count")
    put("flow.rhs_evals", rhs_evals, "count")
    put("flow.us_per_step", 1e6 * loop_s / steps if steps else 0.0, "us")
    put("flow.integrate.calls", calls["flow.integrate"], "count")
    put("flow.integrate.s", secs["flow.integrate"], "s")
    put("flow.integrate.self_s", self_by_name["flow.integrate"], "s")
    put("flow.integrate.calls_per_scaled_run",
        scaled_integrates / len(scaled_runs) if scaled_runs else 0.0, "count")
    put("flow.reproject_useful_ratio",
        residual_positive / residual_calls if residual_calls else 0.0, "ratio")
    for name in ("objectives.grad_fn", "objectives.fn", "schedules.value", "schedules.gamma",
                 "geometry._project", "geometry._residual", "geometry.project"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.s", secs[name], "s")
    for name in ("flow.reparam_check", "flow._assemble", "flow.discrete_run",
                 "flow.write_trajectory_csv", "analysis.write_report_csv",
                 "objectives.grad_check", "objectives.gheb_check",
                 "objectives.lojasiewicz_check", "geometry.variational_gap",
                 "schedules.validate", "analysis.theorem_verdict", "config.load_config",
                 "cli.execute", "cli.cmd_check"):
        put(f"{name}.s", secs[name], "s")
    put("flow.write_trajectory_csv.bytes",
        sum(s[5]["bytes"] for s in spans if s[2] == "flow.write_trajectory_csv" and s[5]),
        "bytes")
    put("schedules.quad.calls", calls["schedules.quad"], "count")
    put("config.build_config.calls", calls["config.build_config"], "count")
    put("analysis.fit.s", secs["analysis.fit_power"] + secs["analysis.fit_exponential"], "s")
    for layer in (HARNESS,) + LAYERS:
        put(f"{layer}.self_s", sum(v for k, v in self_by_name.items()
                                   if k.split(".", 1)[0] == layer), "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.self_sum_s", sum(self_by_name.values()), "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", len(spans), "count")
    put("trace.aggregates", len(trace["agg"]), "count")
    return m
