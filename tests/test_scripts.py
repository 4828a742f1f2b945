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
