"""pgflow benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload preset_suite --seed 1 --seconds 28 --trace 0

It generates the seed's configs under .bench_work/, times set-up in fresh
interpreters, runs the workload in one worker process, checks every
command's outputs against the references in perfbench/reference/, and
prints one line per metric followed by a JSON result as the last line.
The exit code is 0 when every output matched, 1 when one did not, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gate as gate_mod  # noqa: E402
import hostclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
STARTUP_RUNS = 5  # bare interpreter start-ups before and after each set-up probe
PROBE_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # the whole run, worker included, ends before this
# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
END_TO_END_UNITS = {"norm_wall_s": "s", "norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget for the passes of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every config for smoke tests")
    ap.add_argument("--reference-dir", default=os.path.join(BENCH_DIR, "reference"))
    ap.add_argument("--work-dir", default=".bench_work")
    return ap.parse_args(argv)


def environment(seed, versions) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "seed": seed, **versions}


def time_setup(src, config_files, deadline):
    """Host-normalised wall times of fresh interpreters that import pgflow and
    build every config.

    Each probe is scaled by the median bare interpreter start-up just before
    and just after it, while this process waits for nothing else.
    """
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        startups = hostclock.startup_seconds(STARTUP_RUNS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, src, *config_files], check=True,
                       timeout=min(PROBE_TIMEOUT_S, deadline - time.monotonic()))
        wall = time.perf_counter() - t0
        startups += hostclock.startup_seconds(STARTUP_RUNS)
        times.append(wall * hostclock.STARTUP_REFERENCE_S / statistics.median(startups))
    return times


def run_worker(wl_name, wl, warm, src, work, seconds, trace, deadline):
    plan = {
        "src": src,
        "out_root": os.path.join(work, "passes"),
        "seconds": seconds,
        "trace": bool(trace),
        "host_kernel": workloads.HOST_KERNEL[wl_name],
        "warmup": [{"key": c.key, "argv": list(c.argv)} for c in warm.commands],
        "commands": [{"key": c.key, "argv": list(c.argv)} for c in wl.commands],
    }
    plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "worker.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path,
                    result_path], check=True, timeout=deadline - time.monotonic())
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(result, checked):
    """(attempted, failures) over every command of every pass.

    `checked` maps a pass label to the workload it ran and that workload's gate.
    """
    attempted, failures = 0, []
    for p in result["passes"]:
        wl, gate = checked[p["label"]]
        by_key = {c.key: c for c in wl.commands}
        for obs in p["commands"]:
            cmd = by_key[obs["key"]]
            stem = os.path.splitext(os.path.basename(cmd.config))[0]
            attempted += 1
            why = gate.verify(cmd, p["dir"], obs["exit"], obs["stdout"], wl.transforms[stem])
            if why is not None:
                failures.append(f"{p['label']} {cmd.key}: {why}")
    return attempted, failures


def sample_note(values) -> str:
    """Sample count, median, and the highest percentile with TAIL_SAMPLES samples beyond it."""
    if values is None:
        return ""
    n = len(values)
    note = f" ({n} samples, median {statistics.median(values):.6g}"
    if n <= TAIL_SAMPLES:
        return note + "; too few for a tail percentile)"
    q = 100.0 * (n - TAIL_SAMPLES) / n
    return note + f", p{q:.0f} {sorted(values)[n - TAIL_SAMPLES - 1]:.6g})"


def end_to_end(result, setup_times):
    """Medians over the run's measured passes, and the samples behind them."""
    measured = [p for p in result["passes"] if p["label"] == "measure"]
    samples = {name: [p[name] for p in measured]
               for name in ("norm_wall_s", "norm_cpu_s", "wall_s", "cpu_s")}
    samples["setup_s"] = setup_times
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return metrics, samples


def run(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pgflow", "cli.py")):
        print(f"perfbench: no pgflow sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, args.work_dir, f"{args.workload}_{args.size}_trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, args.size, root, os.path.join(work, "configs"))
    warm = workloads.build(args.workload, args.seed, "tiny", root,
                           os.path.join(work, "warmup_configs"))
    gate = gate_mod.Gate(args.reference_dir, args.workload, args.size)
    warm_gate = gate_mod.Gate(args.reference_dir, args.workload, "tiny")

    setup_times = [] if args.trace else time_setup(src, wl.config_files, deadline)
    result = run_worker(args.workload, wl, warm, src, work, args.seconds, args.trace, deadline)
    attempted, failures = verify(result, {"warmup": (warm, warm_gate), "measure": (wl, gate),
                                          "traced": (wl, gate)})
    env = environment(args.seed, result["versions"])

    for line in failures:
        print(f"MISMATCH {line}")
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(wl.commands)} commands per pass, {len(result['passes']) - 1} passes "
          f"after a warm-up pass at the tiny size")
    print(f"ops_failed_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} commands disagree with the reference)")
    if args.trace:
        with open(result["trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        walls = {p["label"]: p["wall_s"] for p in result["passes"]}
        values = tracer.derive(trace, walls["traced"], walls["measure"])
        for name, (value, unit) in values.items():
            print(f"{name} {value:.6g} {unit}" if isinstance(value, float)
                  else f"{name} {value} {unit}")
    else:
        medians, samples = end_to_end(result, setup_times)
        # The raw times, as this host gave them right now; not bounded.
        for name in ("wall_s", "cpu_s"):
            print(f"{name} {medians[name]:.6g} s (raw)" + sample_note(samples[name]))
        values = {name: (medians[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}
        for name, (value, unit) in values.items():
            print(f"{name} {value:.6g} {unit}" + sample_note(samples.get(name)))
    print("env " + json.dumps(env, sort_keys=True))

    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**out, "env": env, "failures": failures}, fh, indent=1)
    print(json.dumps(out))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
