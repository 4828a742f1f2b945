"""Tests of the benchmark itself, at the tiny size.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(tmp_path, workload, trace=0, reference_dir=None, cwd=ROOT):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            "--work-dir", str(tmp_path / "work")]
    if reference_dir is not None:
        argv += ["--reference-dir", str(reference_dir)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass_prints_the_end_to_end_metrics(tmp_path, workload):
    code, result = bench(tmp_path, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_prints_the_per_layer_metrics(tmp_path):
    code, result = bench(tmp_path, "preset_suite", trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["flow.rk4_steps"] > 0 and m["flow.integrate.calls"] > 0
    # Self times partition the traced pass; only the pass bookkeeping is left over.
    assert abs(m["trace.self_sum_s"] - m["trace.wall_s"]) < 0.01 * m["trace.wall_s"]


@pytest.mark.parametrize("perturb", ["trajectory", "exit_code", "check_row"])
def test_perturbed_reference_fails_the_gate(tmp_path, perturb):
    refs = tmp_path / "refs"
    shutil.copytree(os.path.join(BENCH, "reference"), refs)
    json_path, npz_path = refs / "preset_suite_tiny.json", refs / "preset_suite_tiny.npz"
    if perturb == "trajectory":
        with np.load(npz_path) as npz:
            arrays = {k: npz[k].copy() for k in npz.files}
        key = next(k for k in sorted(arrays) if k.endswith("|rows"))
        arrays[key][-1, -1] += 1e-3
        np.savez_compressed(npz_path, **arrays)
    else:
        refs_json = json.loads(json_path.read_text())
        if perturb == "exit_code":
            refs_json["run:even_box"]["exit"] = 3
        else:
            refs_json["check:even_box"]["rows"][0][1] = "fail"
        json_path.write_text(json.dumps(refs_json))
    code, result = bench(tmp_path, "preset_suite", reference_dir=refs)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_without_pgflow_sources_it_refuses_to_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result = bench(tmp_path, "preset_suite", cwd=tmp_path)
    assert code != 0 and result is None


def test_signed_permutation_round_trips():
    rng = np.random.default_rng(0)
    T = workloads.draw_transform(rng, 7, reflect=True)
    xs = rng.normal(size=(3, 7))
    ys = np.array([T.apply(x) for x in xs])
    assert np.array_equal(T.invert_columns(ys), xs)
    pairs = {"problem.x0": "0, 0", "set.lo": "-1, -2", "set.hi": "3, 4"}
    T2 = workloads.SignedPermutation(np.array([1, 0]), np.array([-1.0, 1.0]))
    out = workloads.transform_pairs(pairs, T2)
    assert out["set.lo"] == "-4.0, -1.0" and out["set.hi"] == "2.0, 3.0"


def test_report_rows_compare_the_recorded_columns():
    import gate

    ref = [["quantity", "model", "fitted", "theoretical", "r2", "verdict"],
           ["f_gap", "exp-in-Gamma", "0.5", "", "0.999", "pass"]]
    near = [ref[0], ["f_gap", "exp-in-Gamma", "0.5000000001", "", "0.999", "pass"]]
    appended = [ref[0] + ["reason"], ref[1] + [""]]
    assert gate.reports_match(near, ref) and gate.reports_match(appended, ref)
    assert not gate.reports_match([ref[0], ref[1][:5] + ["fail"]], ref)
    assert not gate.reports_match([ref[0], ["f_gap", "exp-in-Gamma", "0.6", "", "0.999", "pass"]],
                                  ref)
    assert not gate.reports_match(ref[:1], ref)


def test_host_clock_scales_each_stretch_by_the_kernel_time_around_it():
    import hostclock

    clock = hostclock.HostClock("small")
    ref = clock.reference
    # Kernel runs of 0.001 s at t = 1, 2, 3, 4; the host is twice as slow
    # (kernel CPU 2 ref) up to t = 2 and at reference speed after.
    clock.starts, clock.walls = [1.0, 2.0, 3.0, 4.0], [0.001] * 4
    clock.cpus = [2 * ref, 2 * ref, ref, ref]
    clock.stop()
    work, norm, kernel_cpu = clock.normalize(0.5, 3.5)
    assert abs(work - (3.0 - 3 * 0.001)) < 1e-12
    # [0.5, 1) and [1.001, 2) at half speed, [2.001, 3) and [3.001, 3.5) at full.
    assert abs(norm - (0.5 / 2 + 0.999 / 2 + 0.999 + 0.499)) < 1e-9
    assert abs(kernel_cpu - 5 * ref) < 1e-15
