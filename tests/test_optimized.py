"""Self-checks and the verification battery under ``python -O``, which
strips assert statements: the checks must raise explicitly."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_optimized(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=300,
    )


def test_serre_self_check_raises_under_O():
    code = """
import sys
import dqmf.qmring as qm
from dqmf.algebra import FieldConfig

assert False, "asserts must be stripped"
cfg = FieldConfig.from_q(5)
qm.d1 = lambda f: qm.QmPoly.zero(f.cfg)
try:
    qm.serre_derivative(qm.QmPoly.gen_g(cfg))
except AssertionError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "raised: the two defining expressions disagree" in proc.stdout


def test_verify_passes_under_O():
    proc = run_optimized("-m", "dqmf.cli", "verify", "--q", "4", "--n-max", "8")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout
