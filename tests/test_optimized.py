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


# the register's entries that a battery record or the memo self-check kills
_BATTERY_KILLED = ("d3_h_plus_g3", "shifted_transport_binomial", "x_scaled_d3_g3",
                   "wrong_weight_memo_entry", "frobenius_skipped", "d5_h_plus_e2g3",
                   "kernel_of_d1_only", "g_without_its_factor")


def test_planted_memo_entry_fails_verify_under_O():
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "tests")!r})
from mutants import planted, unkilled
from dqmf.cli import main

assert False, "asserts must be stripped"
for name in {_BATTERY_KILLED!r}:
    print(name, unkilled(name))
with planted("wrong_weight_memo_entry"):
    sys.exit(main(["verify", "--q", "5", "--n-max", "8", "--suite", "generator_tables"]))
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[:len(_BATTERY_KILLED)] == [f"{name} []" for name in _BATTERY_KILLED]
    assert "[FAIL] memo_isobaric q=5" in proc.stdout
    assert "witness: [((0, 5, 0), 3, 'weight 2')]" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_monomial_series_check_raises_under_O():
    # a fresh process: the doctored lattice sum never reaches a cached series
    code = """
import sys
import dqmf.tseries as ts
from dqmf.algebra import FieldConfig, RatT

assert False, "asserts must be stripped"
cfg = FieldConfig.from_q(5)
ts._lattice_sum = lambda cfg, N, k, weight: ts.TSeries(cfg, N, {1: RatT(cfg, cfg.poly_one, cfg.poly_T)})
try:
    ts._monomial(cfg, 8, (1, 0, 0))
except AssertionError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(1)
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "raised: the expansion (1, 0, 0) has a coefficient outside F_q[T]" in proc.stdout


def test_verify_passes_under_O():
    proc = run_optimized("-m", "dqmf", "verify", "--q", "4", "--n-max", "8")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout
