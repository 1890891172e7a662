"""Smoke tests: each experiment script under scripts/ runs to completion at
q = 4 with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_generator_tables_script():
    out = run_script("generator_tables.py", 4)
    for gen in ("E", "g", "h"):
        assert f"## D_n {gen}" in out
        assert f"D_16 {gen} = " in out


def test_series_cross_check_script():
    out = run_script("series_cross_check.py", 4, 22)
    assert "MISMATCH" not in out
    assert ", 0 mismatches," in out


def test_ideal_survey_script():
    out = run_script("ideal_survey.py", 4, 8)
    assert "E: escapes at n = 4" in out
    assert "g: escapes at n = 1" in out
    assert out.count("stable through n = 8") == 7
