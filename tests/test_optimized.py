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


def test_memo_check_raises_under_O():
    code = """
import sys
from dqmf.algebra import FieldConfig
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly

assert False, "asserts must be stripped"
cfg = FieldConfig.from_q(5)
engine = DerivationEngine(cfg)
engine.derive(QmPoly.monomial(cfg, 1, 1, 0), 3)
engine._memo[((1, 1, 0), 3)] = QmPoly.gen_E(cfg)
try:
    engine.check_memo_isobaric()
except AssertionError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "raised: D_3 of (1, 1, 0) has weight" in proc.stdout


def test_monomial_series_check_raises_under_O():
    # a fresh process: the doctored expansion never reaches a cached series
    code = """
import sys
import dqmf.tseries as ts
from dqmf.algebra import FieldConfig, RatT

assert False, "asserts must be stripped"
cfg = FieldConfig.from_q(5)
ts._expansion = lambda cfg, N, gen: ts.TSeries(cfg, N, {1: RatT(cfg, cfg.poly_one, cfg.poly_T)})
try:
    ts._monomial(cfg, 8, (0, 1, 0))
except AssertionError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "raised: the expansion (0, 1, 0) has a coefficient outside F_q[T]" in proc.stdout


def test_verify_passes_under_O():
    proc = run_optimized("-m", "dqmf.cli", "verify", "--q", "4", "--n-max", "8")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout
