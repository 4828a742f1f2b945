"""The workload process: imports pgflow once and drives `pgflow.cli.main`.

It runs a warm-up pass over the plan's warm-up commands (the same
commands on shrunken configs, so every code path and lazy import is
exercised without spending a full pass of the budget), then timed passes
over every command until the time budget is spent, each pass into its
own output directory. When the plan asks for a trace it runs the
warm-up, one untraced pass and one traced pass, then writes the trace.
In an untraced run a `hostclock.HostClock` samples the host's speed
throughout, and every command gets host-normalised times beside its raw
ones.
Results go to a JSON file that the benchmark reads once this process
has exited.

Usage: python3 worker.py PLAN_JSON RESULT_JSON
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, commands, out_dir, label, tracer=None):
    """One closed-loop pass: each command starts when the previous one returns."""
    os.makedirs(out_dir, exist_ok=True)
    span = tracer.span if tracer is not None else (lambda *a, **k: contextlib.nullcontext())
    results = []
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    with span("bench.pass"):
        for cmd in commands:
            buf = io.StringIO()
            t0, c0 = time.perf_counter(), _cpu_seconds()
            with span("bench.command", key=cmd["key"]):
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = cli.main(cmd["argv"] + ["--out-dir", out_dir])
            t1, c1 = time.perf_counter(), _cpu_seconds()
            results.append({"key": cmd["key"], "exit": code, "stdout": buf.getvalue(),
                            "t0": t0, "t1": t1, "wall_s": t1 - t0, "cpu_s": c1 - c0})
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    return {"label": label, "dir": out_dir, "wall_s": wall, "cpu_s": cpu, "commands": results}


def normalize_pass(clock, p) -> None:
    """Take the kernel's time out of a pass and add its host-normalised times."""
    for c in p["commands"]:
        work, norm, kernel_cpu = clock.normalize(c["t0"], c["t1"])
        cpu = c["cpu_s"] - kernel_cpu
        c.update(wall_s=work, cpu_s=cpu, norm_wall_s=norm,
                 norm_cpu_s=cpu * norm / work)
    for field in ("wall_s", "cpu_s", "norm_wall_s", "norm_cpu_s"):
        p[field] = sum(c[field] for c in p["commands"])


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import numpy
    import scipy

    import hostclock

    from pgflow import analysis, cli, config, flow, geometry, objectives, schedules

    commands, out_root, budget = plan["commands"], plan["out_root"], plan["seconds"]
    passes = []

    def next_pass(label, tracer=None, cmds=commands):
        out_dir = os.path.join(out_root, f"pass_{len(passes)}")
        passes.append(run_pass(cli, cmds, out_dir, label, tracer))

    # The host clock samples during untraced passes only: in a traced pass
    # its kernel time would land in whichever span it interrupted.
    clock = None if plan["trace"] else hostclock.HostClock(plan["host_kernel"])
    if clock is not None:
        clock.start()
    start = time.perf_counter()
    next_pass("warmup", cmds=plan["warmup"])
    next_pass("measure")
    trace_path = None
    if plan["trace"]:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr, {"cli": cli, "config": config, "flow": flow,
                             "objectives": objectives, "schedules": schedules,
                             "geometry": geometry, "analysis": analysis})
        next_pass("traced", tr)
        trace_path = os.path.join(out_root, "trace.json")
        tr.write(trace_path)
    else:
        # Start another pass only while it is expected to end inside the budget.
        while True:
            typical = statistics.median(p["wall_s"] for p in passes if p["label"] == "measure")
            if time.perf_counter() - start + typical > budget:
                break
            next_pass("measure")
        clock.stop()
        for p in passes:
            normalize_pass(clock, p)

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace_path,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
