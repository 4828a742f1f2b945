"""Correctness gate: compare each command's outputs with recorded references.

References live in the canonical frame (before the seed's signed
permutation), one JSON file of exit codes and rows plus one npz file of
trajectory fingerprints per workload and size. A trajectory fingerprint
is the CSV header, the row count, a few evenly spaced rows and the
column sums over every row; after mapping the x columns back through the
seed's permutation, all of them must agree within the tolerances below.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np

# Stated tolerances: |got - ref| <= ATOL + RTOL * |ref|, elementwise.
TRAJ_RTOL, TRAJ_ATOL = 1e-7, 1e-9
REPORT_RTOL, REPORT_ATOL = 1e-6, 1e-9
# Trajectory columns before x_0..x_{n-1}.
SCALAR_COLUMNS = 6
# Stored rows per trajectory: enough to pin the shape, small enough to commit.
STORED_FLOATS = 4096
MIN_ROWS, MAX_ROWS = 3, 64

REPORT_NUMERIC = (2, 3, 4)  # fitted, theoretical, r2


def reference_paths(ref_dir: str, workload: str, size: str):
    stem = os.path.join(ref_dir, f"{workload}_{size}")
    return stem + ".json", stem + ".npz"


def check_rows(stdout: str) -> list:
    """(label, status) for every row `pgflow check` prints."""
    rows = []
    for line in stdout.splitlines():
        if line.startswith("  "):
            parts = re.split(r"\s{2,}", line.strip())
            rows.append([parts[0], parts[1] if len(parts) > 1 else ""])
    return rows


def read_report(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh)]


def read_trajectory(path: str, transform):
    """Header and float matrix of a trajectory CSV, x columns in canonical order."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(c) if c else np.nan for c in line.rstrip("\n").split(",")]
                for line in fh if line.strip()]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    data[:, SCALAR_COLUMNS:] = transform.invert_columns(data[:, SCALAR_COLUMNS:])
    return header, data


def stored_row_indices(n_rows: int, n_cols: int) -> np.ndarray:
    keep = int(np.clip(STORED_FLOATS // max(n_cols, 1), MIN_ROWS, MAX_ROWS))
    return np.unique(np.linspace(0, n_rows - 1, min(keep, n_rows)).round().astype(int))


def fingerprint(data: np.ndarray) -> dict:
    idx = stored_row_indices(*data.shape)
    return {"rows": data[idx], "colsum": np.nansum(data, axis=0)}


def _close(got, ref, rtol, atol) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.isclose(got, ref, rtol=rtol, atol=atol, equal_nan=True)))


def _cell(text: str) -> float:
    return float(text) if text else np.nan


def reports_match(got: list, ref: list) -> bool:
    """The reference's columns: labels exact, numeric cells within tolerance.

    Columns appended after the recorded ones are not compared, so a
    report that gains a column keeps every recorded cell in place.
    """
    if len(got) != len(ref):
        return False
    for i, (g, r) in enumerate(zip(got, ref)):
        if len(g) < len(r):
            return False
        for j, (gc, rc) in enumerate(zip(g, r)):
            same = (_close(_cell(gc), _cell(rc), REPORT_RTOL, REPORT_ATOL)
                    if i > 0 and j in REPORT_NUMERIC else gc == rc)
            if not same:
                return False
    return True


def observe(command, out_dir: str, exit_code: int, stdout: str, transform) -> dict:
    """Everything the gate compares for one command, in the canonical frame."""
    obs = {"exit": exit_code, "rows": check_rows(stdout) if not command.report else None,
           "report": None, "trajectories": {}}
    if command.report:
        obs["report"] = read_report(os.path.join(out_dir, command.report))
    for name in command.trajectories:
        header, data = read_trajectory(os.path.join(out_dir, name), transform)
        obs["trajectories"][name] = (header, data)
    return obs


def expected_header(meta: dict) -> list:
    return meta["columns"] + [f"x_{j}" for j in range(meta["n_x"])]


def mismatch(obs: dict, ref: dict, arrays, key: str):
    """None when the observation matches the reference, else the first reason."""
    if obs["exit"] != ref["exit"]:
        return f"exit code {obs['exit']} != {ref['exit']}"
    if obs["rows"] is not None and obs["rows"] != ref["rows"]:
        return "check rows differ"
    if obs["report"] is not None and not reports_match(obs["report"], ref["report"]):
        return "report rows differ"
    for name, (header, data) in obs["trajectories"].items():
        meta = ref["trajectories"][name]
        if header != expected_header(meta) or data.shape[0] != meta["n_rows"]:
            return f"{name}: header or row count differs"
        fp = fingerprint(data)
        if not _close(fp["rows"], arrays[f"{key}|{name}|rows"], TRAJ_RTOL, TRAJ_ATOL):
            return f"{name}: sampled rows differ"
        sum_atol = TRAJ_ATOL * data.shape[0]
        if not _close(fp["colsum"], arrays[f"{key}|{name}|colsum"], TRAJ_RTOL, sum_atol):
            return f"{name}: column sums differ"
    return None


class Gate:
    def __init__(self, ref_dir: str, workload: str, size: str):
        json_path, npz_path = reference_paths(ref_dir, workload, size)
        with open(json_path, encoding="utf-8") as fh:
            self.refs = json.load(fh)
        with np.load(npz_path) as npz:
            self.arrays = {k: npz[k] for k in npz.files}

    def verify(self, command, out_dir, exit_code, stdout, transform):
        """None when the command's outputs match, else why they do not."""
        ref = self.refs.get(command.key)
        if ref is None:
            return "no reference for this command"
        try:
            obs = observe(command, out_dir, exit_code, stdout, transform)
            return mismatch(obs, ref, self.arrays, command.key)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return f"unreadable output: {exc!r}"


def dumps_one_per_line(refs: dict) -> str:
    """JSON with one command per line, so a re-record diffs by command."""
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}" for k in sorted(refs)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def record(observations: dict, ref_dir: str, workload: str, size: str) -> None:
    """Write references from {command key: observation} in the canonical frame."""
    refs, arrays = {}, {}
    for key, obs in observations.items():
        trajs = {}
        for name, (header, data) in obs["trajectories"].items():
            trajs[name] = {"columns": header[:SCALAR_COLUMNS],
                           "n_x": len(header) - SCALAR_COLUMNS, "n_rows": int(data.shape[0])}
            for part, arr in fingerprint(data).items():
                arrays[f"{key}|{name}|{part}"] = arr
        refs[key] = {"exit": obs["exit"], "rows": obs["rows"], "report": obs["report"],
                     "trajectories": trajs}
    json_path, npz_path = reference_paths(ref_dir, workload, size)
    os.makedirs(ref_dir, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(dumps_one_per_line(refs))
    np.savez_compressed(npz_path, **arrays)
