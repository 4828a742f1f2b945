"""The scripts under scripts/ run against the current API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_order_study_halves_the_error_about_16x(capsys):
    # the script checks the unscaled flow against its closed form by step
    # halving; truncation dominates rounding at its coarse steps
    assert load_script("step_order_study").run(["--levels", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 2
    assert float(rows[-1][2]) > 12.0
    assert min(float(row[3]) for row in rows) >= 3.9


def test_run_all_presets_prints_each_commands_wall_time(capsys, monkeypatch):
    script = load_script("run_all_presets")
    monkeypatch.setattr(script, "list_presets", lambda: ["first", "second"])
    monkeypatch.setattr(script, "cli_main", lambda argv: 2 if argv[:2] == ["run", "second"] else 0)
    assert script.run(["--strict"]) == 2
    timings = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith("--- ")]
    assert [t[1:3] for t in timings] == [["check", "first:"], ["run", "first:"],
                                         ["check", "second:"], ["run", "second:"]]
    assert all(float(t[3]) >= 0.0 and t[4:6] == ["s", "wall,"] for t in timings)
    assert [t[-1] for t in timings] == ["0", "0", "0", "2"]
