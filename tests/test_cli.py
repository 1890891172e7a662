"""Command-line surface: the expression grammar, subcommands, JSON output
and exit codes."""

import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dqmf
from dqmf.algebra import FieldConfig, PolyT, RatT, bracket
from dqmf.cli import ParseError, main, parse_qmpoly, parse_ratt
from dqmf.qmring import QmPoly
from dqmf.verify import random_isobaric


@pytest.fixture
def cfg5():
    return FieldConfig.from_q(5)


# ---------------------------------------------------------------------------
# expression grammar


def test_parse_generators(cfg5):
    assert parse_qmpoly(cfg5, "E") == QmPoly.gen_E(cfg5)
    assert parse_qmpoly(cfg5, "E^2 g h^3") == QmPoly.monomial(cfg5, 2, 1, 3)
    assert parse_qmpoly(cfg5, "E*g*h") == QmPoly.monomial(cfg5, 1, 1, 1)


def test_parse_sums_and_signs(cfg5):
    expr = parse_qmpoly(cfg5, "E g + h")
    assert expr == QmPoly.monomial(cfg5, 1, 1, 0) + QmPoly.gen_h(cfg5)
    assert parse_qmpoly(cfg5, "-E + E").is_zero()
    assert parse_qmpoly(cfg5, "E - E").is_zero()


def test_parse_coefficients(cfg5):
    f = parse_qmpoly(cfg5, "(1/(T^5 - T)) h^2")
    inv_b = RatT(cfg5, cfg5.poly_one, bracket(1, cfg5))
    assert f == QmPoly.monomial(cfg5, 0, 0, 2, inv_b)
    g = parse_qmpoly(cfg5, "(T^2 + 1) E + 3 h")
    want = QmPoly.monomial(cfg5, 1, 0, 0, RatT(cfg5, PolyT.from_ints(cfg5, [1, 0, 1])))
    want = want + QmPoly.monomial(cfg5, 0, 0, 1, 3)
    assert g == want


def test_parse_rational_functions(cfg5):
    r = parse_ratt(cfg5, "(T^2 - 1)/(T - 1)")
    assert r == RatT(cfg5, PolyT.from_ints(cfg5, [1, 1]))
    assert parse_ratt(cfg5, "2^3") == RatT.from_int(cfg5, 8)


def test_parse_errors(cfg5):
    with pytest.raises(ParseError):
        parse_qmpoly(cfg5, "E +")
    with pytest.raises(ParseError):
        parse_qmpoly(cfg5, "x")
    with pytest.raises(ParseError):
        parse_qmpoly(cfg5, "E^h")
    # a stray "*" (leading, trailing, doubled) and a generator in a divisor
    for text in ("* E", "E *", "E * * g", "E/g"):
        with pytest.raises(ParseError):
            parse_qmpoly(cfg5, text)


def test_parse_signed_factor(cfg5):
    # a sign after "*" belongs to the factor, not to a new summand
    assert parse_qmpoly(cfg5, "E*-g") == -QmPoly.monomial(cfg5, 1, 1, 0)
    assert parse_qmpoly(cfg5, "2*-E") == QmPoly.monomial(cfg5, 1, 0, 0, -2)


def test_parse_constants_anywhere(cfg5):
    T = RatT(cfg5, cfg5.poly_T)
    assert parse_qmpoly(cfg5, "T E") == QmPoly.monomial(cfg5, 1, 0, 0, T)
    assert parse_qmpoly(cfg5, "[1] E") == QmPoly.gen_E(cfg5)
    assert parse_qmpoly(cfg5, "E/2") == QmPoly.monomial(cfg5, 1, 0, 0, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_printed_elements_parse_back(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q)
    for _ in range(40):
        f = random_isobaric(cfg, rng)
        assert parse_qmpoly(cfg, str(f)) == f
        for _, c in f.items():
            assert parse_ratt(cfg, str(c)) == c


# single-digit integers (the tokens are joined with spaces) bound every exponent
_FUZZ_TOKENS = "E g h T 0 1 2 3 ^ + - * / ( ) [1,0] [2]".split()


@pytest.mark.parametrize("q", [5, 9])
@settings(deadline=None)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12))
def test_parser_fuzz(q, toks):
    # any string parses or fails with one of the two families cli.main reports
    try:
        out = parse_qmpoly(FieldConfig.from_q(q), " ".join(toks))
    except (ValueError, ArithmeticError):
        return
    assert isinstance(out, QmPoly)


def test_textbook_formula_pastes(cfg5):
    # the first-order system for g parses as written
    f = parse_qmpoly(cfg5, "-(E g + h)")
    assert f == -(QmPoly.monomial(cfg5, 1, 1, 0) + QmPoly.gen_h(cfg5))


# ---------------------------------------------------------------------------
# subcommands


def test_cmd_derive_matches_table(capsys):
    rc = main(["derive", "--q", "5", "E", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "E^6" in out and "h^2" in out and "grading: weight 12" in out


def test_cmd_derive_json_roundtrip(capsys):
    rc = main(["derive", "--q", "5", "--json", "E g + h", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    from dqmf.cli import qmpoly_from_json
    from dqmf.hyperd import DerivationEngine

    cfg = FieldConfig.from_q(5)
    back = qmpoly_from_json(cfg, data["result"])
    eng = DerivationEngine(cfg)
    f = QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg)
    assert back == eng.derive(f, 3)


def test_cmd_derive_rejects_excessive_order(capsys):
    rc = main(["derive", "--q", "4", "E", "100"])
    assert rc == 2


def test_cmd_expand_h_leading(capsys):
    rc = main(["expand", "--q", "4", "h", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    # q = 4: h = -t - t^10 + ...; char 2 so -1 prints as 1
    assert out.startswith("t + t^10")


def test_cmd_expand_json(capsys):
    rc = main(["expand", "--q", "5", "--json", "g", "10"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    from dqmf.cli import tseries_from_json
    from dqmf.tseries import expand_g

    cfg = FieldConfig.from_q(5)
    assert tseries_from_json(cfg, data["series"]) == expand_g(cfg, 10)


def test_cmd_basis(capsys):
    rc = main(["basis", "--q", "5", "0", "0", "0"])
    out = capsys.readouterr().out.strip()
    assert rc == 0 and out == "1"
    rc = main(["basis", "--q", "5", "6", "1", "1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and out == ["h", "E g"]


def test_cmd_ideal_pass_and_fail(capsys):
    rc = main(["ideal", "--q", "5", "Pd", "--d", "T", "--n-max", "24"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hyperdifferential" in out
    rc = main(["ideal", "--q", "5", "g", "--n-max", "4"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "fails at n = 1" in out


def test_cmd_field_file(tmp_path, capsys):
    path = tmp_path / "f.cfg"
    path.write_text("p = 3\ne = 2\nmodulus = 1 0 1\n")
    rc = main(["field", "--field-file", str(path)])
    out = capsys.readouterr().out
    assert rc == 0 and "p = 3" in out and "modulus = 1 0 1" in out


def test_cmd_field_prints_the_field_file(tmp_path, capsys):
    """`dqmf field` prints FieldConfig.to_text(), and --modulus splits its
    coefficients as a field file does."""
    (tmp_path / "f.cfg").write_text(FieldConfig(3, 2, (2, 1, 1)).to_text() + "\n")
    assert main(["field", "--p", "3", "--e", "2", "--modulus", "2, 1 1"]) == 0
    assert capsys.readouterr().out == (tmp_path / "f.cfg").read_text()
    assert main(["field", "--field-file", str(tmp_path / "f.cfg")]) == 0
    assert capsys.readouterr().out == (tmp_path / "f.cfg").read_text()


def test_python_dash_m_dqmf_runs_the_cli(capsys):
    """`python -m dqmf` is the `dqmf` command: same output, same exit code."""
    env = dict(os.environ, PYTHONPATH=str(Path(dqmf.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "dqmf", "field", "--q", "3"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert main(["field", "--q", "3"]) == 0
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)


def test_cmd_verify_small_field(capsys):
    rc = main(["verify", "--q", "4", "--n-max", "8",
               "--suite", "generator_tables", "munu_congruence"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 2


def test_prime_field_without_a_shipped_modulus(capsys):
    rc = main(["field", "--p", "11"])
    out = capsys.readouterr().out
    assert rc == 0 and "modulus = 0 1" in out
    rc = main(["verify", "--p", "11", "--n-max", "8"])
    out = capsys.readouterr().out
    assert rc == 0 and "[FAIL]" not in out and out.count("[PASS]") >= 9


def test_cmd_verify_json_determinism(capsys):
    argv = ["verify", "--q", "4", "--json", "--n-max", "6", "--seed", "99",
            "--suite", "generator_tables"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0 and out1 == out2


# ---------------------------------------------------------------------------
# the error boundary: malformed input gives an error line and exit 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "--q", "5", "(1/0)", "1"], "inverting zero"),
        (["derive", "--q", "6", "E", "1"], "not a prime power"),
        (["ideal", "--q", "5", "Pd", "--d", "0"], "nonzero parameter"),
        (["derive", "E", "1"], "specify a field"),
        (["ideal", "--q", "5", "Pd"], "Pd requires --d"),
        (["field", "--field-file", "{tmp}/missing.cfg"], "No such file"),
        (["field", "--field-file", "{tmp}/no-p.cfg"], "no 'p =' line"),
        (["derive", "--q", "5", "(" * 1000 + "E" + ")" * 1000, "0"], "nested too deeply"),
        (["verify", "--q", "5", "--suite", "bogus"], "unknown check 'bogus'"),
        (["verify", "--q", "5", "--order", "5"], "series_leading_terms needs order >= 18"),
        (["verify", "--q", "4", "--order", "0"], "truncation order must be >= 1"),
        (["verify", "--q", "4", "--order", "0", "--suite", "generator_tables"],
         "truncation order must be >= 1"),
        (["verify", "--q", "4", "--n-max", "0"], "n_max must be >= 1"),
        (["verify", "--q", "4", "--n-max", "-3"], "n_max must be >= 1"),
        (["ideal", "--q", "5", "h", "--n-max", "0"], "n_max must be >= 1"),
        (["verify", "--q", "4", "--order", "1", "--suite", "series_commutation"],
         "series_commutation needs order >= 11"),
        (["field", "--p", "2", "--e", "0"], "e must be positive"),
        (["field", "--p", "2", "--e", "-1"], "e must be positive"),
        (["field", "--p", "4"], "not prime"),
        (["field", "--q", "4", "--p", "3", "--e", "5", "--modulus", "1,0,1"],
         "conflicting field flags --q, --p"),
        (["field", "--q", "4", "--field-file", "{tmp}/no-p.cfg"],
         "conflicting field flags --q, --field-file"),
        (["field", "--p", "3", "--field-file", "{tmp}/no-p.cfg"],
         "conflicting field flags --p, --field-file"),
        (["field", "--q", "4", "--e", "2"], "--e and --modulus need --p"),
        (["field", "--q", "4", "--modulus", "1,1,1"], "--e and --modulus need --p"),
        (["field", "--e", "2"], "--e and --modulus need --p"),
        (["verify", "--q", "4", "--suite"], "empty check selection"),
        (["field", "--p", "10007"], "exceeds MAX_Q = 500"),
        (["field", "--q", "1000000007"], "exceeds MAX_Q = 500"),
        (["field", "--p", "2", "--e", "20", "--modulus", "1 0 0 1" + " 0" * 16 + " 1"],
         "exceeds MAX_Q = 500"),
        # 2^e is never formed, and a p = 1 below the bound still reads as not prime
        (["field", "--p", "2", "--e", "1000000000000"], "exceeds MAX_Q = 500"),
        (["field", "--p", "1", "--e", "30"], "not prime"),
    ],
    ids=["zero-denominator", "not-prime-power", "Pd-zero", "no-field", "Pd-no-d",
         "missing-field-file", "field-file-without-p", "deep-nesting", "unknown-check",
         "order-below-leading-terms", "order-zero", "order-zero-one-check", "n-max-zero",
         "n-max-negative", "ideal-n-max-zero", "order-below-series-commutation",
         "e-zero", "e-negative", "p-not-prime", "q-and-p", "q-and-field-file",
         "p-and-field-file", "e-without-p", "modulus-without-p", "e-alone", "empty-suite",
         "p-above-max-q", "q-above-max-q", "degree-20-modulus", "huge-e", "p-one-large-e"],
)
def test_malformed_input_is_an_error_line(capsys, tmp_path, argv, message):
    (tmp_path / "no-p.cfg").write_text("e = 2\nmodulus = 1 0 1\n")
    rc = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_large_integer_exponent_reduces_mod_p(capsys):
    # 3^99999999 = 3^(99999999 mod 4) = 3^3 = 2 in F_5, without the full integer
    rc = main(["derive", "--q", "5", "3^99999999 E", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 E"


# ---------------------------------------------------------------------------
# the README's command examples


def test_readme_command_examples_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines and all(line.startswith("dqmf ") for line in lines)
    for line in lines:
        expected = 1 if line.startswith("dqmf ideal --q 5 g --n-max 4") else 0
        assert main(shlex.split(line, comments=True)[1:]) == expected, line
        assert capsys.readouterr().out, line
