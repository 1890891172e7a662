"""Canonical engine outputs pinned by sha256, one digest per field.

Each digest covers ``str(engine.derive(m, n))`` for every monomial m of
weight <= W and every order n <= min(N, limit), then every entry of the
rows n = -3..3, in that order, of ``h_power_quotients(engine, 3,
min(N, limit))`` on a fresh engine.  The digests were computed with
pairwise RatT products and sums, before the sum-of-products kernel of
``qmring`` took over the Leibniz convolutions.  Canonical forms are
unique, so any arithmetic route that is exact reproduces them byte for
byte.

A second digest covers ``kernel_on_modular(w, m, k)`` for every field
q = 2..9, every weight w <= 10(q-1), every type m and every k <= 2 with
p^k <= limit.  It was computed with the fraction-free Bareiss solver,
before Gauss-Jordan elimination over canonical F_q(T) replaced it; the
pivot columns of a reduced row echelon form are unique, so the normalised
kernel vectors are too.  A third digest covers the ``linear_solve`` kernels
of D_1 on the depth-filtered slices ``qm_basis(w, m, l)``, l = 1, 2, where
most multi-term solutions live.

The last two digests pin the foundations the rest is built on: the add,
mul, neg, inv and frob tables of F_q, and ``str`` of the lattice-sum
expansions of E, g and h.  Both were computed while F_q's tables were
filled through a separate F_p[x] arithmetic and the Carlitz coefficients
through a table of rho_{T^i}.

A battery digest pins ``json.dumps(run_suite(cfg, n_max=48))`` for
q = 2..9: every check's record, its witness and the memo counts of
memo_isobaric, the bytes ``dqmf verify --json --n-max 48`` prints.  It was
computed while ``verify.member`` substituted g through a whole-element ring
power and ``_check_ideals`` could draw the same P_d twice.

A last digest pins the command line's bytes: stdout, stderr and the exit
code of ``dqmf.cli.main`` on every subcommand in text and JSON form, the
negative control and two malformed inputs.  It was computed while each
subcommand resolved its field, built its JSON envelope and printed by
itself.
"""

import hashlib
import json
import random

import pytest

from dqmf.algebra import FieldConfig, linear_solve
from dqmf.cli import main
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly, monomial_signature, qm_basis
from dqmf.suite import run_suite, series_check_orders
from dqmf.tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive
from dqmf.verify import h_power_quotients

from conftest import monic_polys, random_fraction, t_sub

# q -> (weight bound W, order bound N, sha256)
GOLDEN = {
    2: (12, 7, "115ec2bf4a801440ac80a108199be7a3348ada9710cc09ff71cc0d0c45b0be7d"),
    3: (12, 26, "df4d33c0fd4317042885458b4af6b10eba542b8eab0ef215bbef3c4061fe80a2"),
    4: (20, 31, "bd2486d7d5fac14bc8f29ba8bdc3694367e153e084b156b35d751a576bc99166"),
    5: (24, 32, "63fc39a18ceeacb2263a3b00a3b74f2dde0ae2fbb00e8d0db8dd1be0e027dc0e"),
    7: (24, 32, "735e49a8624fc4b61736f52985900d076bec985e6142c8d89bff27d306041bfb"),
    8: (24, 48, "14a95adb732ab80894b7317c38f243092127ab8374b77ad916616f4dc384609e"),
    9: (30, 48, "05fb650e08003705b4a7032ec13b0a8c11c28cd6b95196fcc6c6eef56cef8ff1"),
}


def _digest(q, W, N):
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    top = min(N, engine.limit)
    h = hashlib.sha256()
    for a in range(W // 2 + 1):
        for b in range(W // (q - 1) + 1):
            for c in range(W // (q + 1) + 1):
                if 2 * a + (q - 1) * b + (q + 1) * c > W:
                    continue
                f = QmPoly.monomial(cfg, a, b, c)
                for n in range(top + 1):
                    h.update(f"{a} {b} {c} {n} {engine.derive(f, n)}\n".encode())
    rows = h_power_quotients(DerivationEngine(cfg), 3, top)
    for n in range(-3, 4):
        for r, x in enumerate(rows[n]):
            h.update(f"h^{n} {r} {x}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("q", sorted(GOLDEN), ids=lambda q: f"q{q}")
def test_engine_outputs_match_the_pinned_digests(q):
    W, N, expected = GOLDEN[q]
    assert _digest(q, W, N) == expected


KERNEL_FIELDS = (2, 3, 4, 5, 7, 8, 9)
KERNEL_GOLDEN = "4dc8da36615fab8f0d30abf36d990356464fe924c209e1d54bebaca5248b02c6"


def _kernel_digest():
    h = hashlib.sha256()
    for q in KERNEL_FIELDS:
        cfg = FieldConfig.from_q(q)
        engine = DerivationEngine(cfg)
        for k in range(3):
            if cfg.p**k > engine.limit:
                break
            for w in range(10 * (q - 1) + 1):
                for m in range(max(q - 1, 1)):
                    vecs = engine.kernel_on_modular(w, m, k)
                    h.update(f"{q} {k} {w} {m} {' | '.join(map(str, vecs))}\n".encode())
    return h.hexdigest()


def test_kernel_on_modular_matches_the_pinned_digest():
    assert _kernel_digest() == KERNEL_GOLDEN


DEPTH_KERNEL_GOLDEN = "3e1688c9932e3d761f7e440f13865d082419ed17aeb9253cb4248cac8f147336"


def test_depth_slice_kernels_match_the_pinned_digest():
    """Kernels of D_1 on qm_basis(w, m, l), l = 1, 2, w <= 4(q+1), q = 2..9.

    Each vector is checked to be killed by D_1 through the engine, and the
    count of multi-term vectors is pinned so the digest keeps covering them.
    """
    h = hashlib.sha256()
    count = multi = 0
    for q in KERNEL_FIELDS:
        cfg = FieldConfig.from_q(q)
        engine = DerivationEngine(cfg)
        for w in range(1, 4 * (q + 1) + 1):
            for m in range(max(q - 1, 1)):
                for l in (1, 2):
                    basis = qm_basis(w, m, l, cfg)
                    if not basis:
                        continue
                    images = [engine.derive(QmPoly.monomial(cfg, *b), 1) for b in basis]
                    keys = sorted({mono for img in images for mono in img.terms})
                    rows = [[img.terms.get(k, cfg.rat_zero) for img in images] for k in keys]
                    _, kernel = linear_solve(rows or [[cfg.rat_zero] * len(basis)])
                    for vec in kernel:
                        f = QmPoly(cfg, {b: x for x, b in zip(vec, basis)})
                        assert engine.derive(f, 1).is_zero(), (q, w, m, l, str(f))
                        count += 1
                        multi += len(f.terms) > 1
                        h.update(f"{q} {w} {m} {l} {f}\n".encode())
    assert (count, multi) == (168, 60)
    assert h.hexdigest() == DEPTH_KERNEL_GOLDEN


# (p, e, modulus): the shipped fields, then three with explicit moduli
TABLE_FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None),
                (2, 3, None), (3, 2, None),
                (2, 4, (1, 1, 0, 0, 1)), (5, 2, (2, 1, 1)), (3, 3, (1, 2, 0, 1))]
TABLE_GOLDEN = "a2a3a7cbbcae67e45823bd875b572372857048e02e55585d18bf1e9ff56e2f2e"


def test_field_tables_match_the_pinned_digest():
    h = hashlib.sha256()
    for p, e, modulus in TABLE_FIELDS:
        cfg = FieldConfig(p, e, modulus)
        for name in ("add", "mul", "neg", "inv", "frob"):
            h.update(f"{p} {e} {cfg.modulus} {name} {getattr(cfg, name)}\n".encode())
    assert h.hexdigest() == TABLE_GOLDEN


SERIES_POINTS = [(2, 60), (3, 60), (4, 100), (5, 100), (7, 60), (8, 80), (9, 90)]
SERIES_GOLDEN = "234ccf1aac59c28087d4da289f6329f06918e8d3beb217769149f2bcb218fb19"


def test_lattice_expansions_match_the_pinned_digest():
    h = hashlib.sha256()
    for q, N in SERIES_POINTS:
        cfg = FieldConfig.from_q(q)
        for name, expand in (("E", expand_E), ("g", expand_g), ("h", expand_h)):
            h.update(f"{q} {N} {name} {expand(cfg, N)}\n".encode())
    assert h.hexdigest() == SERIES_GOLDEN


T_SUB_GOLDEN = "bbaf71f56c529bf5d1921c945ff61d4bc06a7b0842de30c38fd95c477d3aa3a6"


def test_t_sub_matches_the_pinned_digest():
    """``str(t_sub(a, N, k))`` for q = 2..9, every monic a of degree <= 2
    (<= 1 for q >= 7), k in {0, 1, 2, q-1, q, q+1, 2q-1} and N one past
    2 q^(d+1), d that degree bound.  Computed while ``t_sub`` inverted the
    k-th power of the unit at full length in pairwise RatT arithmetic."""
    h = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9):
        cfg = FieldConfig.from_q(q)
        d_max = 2 if q < 7 else 1
        N = 2 * q ** (d_max + 1) + 1
        for d in range(d_max + 1):
            for a in monic_polys(cfg, d):
                for k in sorted({0, 1, 2, q - 1, q, q + 1, 2 * q - 1}):
                    h.update(f"{q} {N} {a} {k} {t_sub(a, N, k)}\n".encode())
    assert h.hexdigest() == T_SUB_GOLDEN


EVAL_FIELDS = (2, 3, 4, 5, 7, 8, 9)
EVAL_GOLDEN = "3f8a4ea31b7ef6dead37c175d870817be3a387e6d2af9287444aab9e82acd796"


def _mixed_isobaric(cfg, rng):
    """Up to six monomials of one random weight slice, every coefficient a
    random nonzero fraction, so the denominators differ from term to term."""
    a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
    sig = monomial_signature(cfg, a, b, c)
    basis = qm_basis(sig.w, sig.m, sig.w // 2, cfg)
    terms = {}
    for mono in rng.sample(basis, min(6, len(basis))):
        v = cfg.rat_zero
        while v.is_zero():
            v = random_fraction(cfg, rng)
        terms[mono] = v
    return QmPoly(cfg, terms)


def test_series_evaluation_and_derivative_match_the_pinned_digest():
    """``evaluate`` of seeded random isobaric f and of ``engine.derive(f, n)``, and
    ``hyper_derive`` of the expansions of E, g and h, at N = q^2 + q + 2 and
    every order of ``series_check_orders``.  Computed while ``evaluate``
    scaled and added one monomial at a time and ``hyper_derive`` took one
    RatT product and sum per (r, m) term."""
    h = hashlib.sha256()
    for q in EVAL_FIELDS:
        cfg = FieldConfig.from_q(q)
        engine = DerivationEngine(cfg)
        N = q * q + q + 2
        orders = [n for n in series_check_orders(cfg) if n <= engine.limit]
        rng = random.Random(q)
        for k in range(3):
            f = _mixed_isobaric(cfg, rng)
            h.update(f"{q} f{k} {evaluate(f, N)}\n".encode())
            for n in orders:
                h.update(f"{q} f{k} {n} {evaluate(engine.derive(f, n), N)}\n".encode())
        for name, expand in (("E", expand_E), ("g", expand_g), ("h", expand_h)):
            s = expand(cfg, N)
            for n in orders:
                h.update(f"{q} {name} {n} {hyper_derive(s, n)}\n".encode())
    assert h.hexdigest() == EVAL_GOLDEN


DIGIT_POINTS = [(2, 120), (3, 100), (4, 120), (5, 150), (9, 90)]
DIGIT_GOLDEN = "0561a83264a68a374eb758cda6bc81cfabb4ffb61c3ba096092cd2eb5de98d4c"


def _deep_digit_element(cfg, rng):
    """Four monomials whose exponents have several base-p digits, E's and h's
    kept below the order N of DIGIT_POINTS (E and h vanish at t = 0), each
    with a random nonzero fraction as coefficient."""
    p = cfg.p
    g_exps = (p - 1, p * p + p - 1, p**3 + 1, p**4 + 1, 2 * p**3 + p * p + p - 1)
    low_exps = (0, 1, p - 1, p, p + 1, p * p, p * p + p - 1)
    terms = {}
    for _ in range(4):
        mono = (rng.choice(low_exps), rng.choice(g_exps), rng.choice(low_exps))
        v = cfg.rat_zero
        while v.is_zero():
            v = random_fraction(cfg, rng)
        terms[mono] = v
    return QmPoly(cfg, terms)


def test_deep_digit_evaluation_matches_the_pinned_digest():
    """``str(evaluate(f, N))`` for seeded f over monomials with exponents of
    up to five base-p digits.  Computed while ``evaluate`` multiplied
    generator powers built one factor at a time."""
    h = hashlib.sha256()
    for q, N in DIGIT_POINTS:
        cfg = FieldConfig.from_q(q)
        rng = random.Random(q + 100)
        for k in range(3):
            f = _deep_digit_element(cfg, rng)
            h.update(f"{q} {N} f{k} {evaluate(f, N)}\n".encode())
    assert h.hexdigest() == DIGIT_GOLDEN


ORACLE_POINTS = ((4, 200), (5, 250))
ORACLE_GOLDEN = "c4f5fedbf2564918f40d1fc39866443c01c2115010693401df421fc80d2681c1"


def test_the_two_series_routes_at_the_oracle_truncations_match_the_pinned_digest():
    """``evaluate(engine.derive(f, n), N)`` and ``hyper_derive(evaluate(f, N), n)``
    at the benchmark's truncations, for f in E, g, h and two seeded elements of
    the slice of E g h (weight 2q + 2, depth <= 1), at every order of
    ``series_check_orders``.  Here a series result can have a content: its den
    and every numerator share a factor that its normal form divides out.
    Computed while that normal form divided each numerator by the content
    after the running gcd had divided it once."""
    h = hashlib.sha256()
    for q, N in ORACLE_POINTS:
        cfg = FieldConfig.from_q(q)
        engine = DerivationEngine(cfg)
        sig = monomial_signature(cfg, 1, 1, 1)
        rng = random.Random(q + 200)
        elems = [QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)]
        for _ in range(2):
            terms = {}
            for mono in qm_basis(sig.w, sig.m, 1, cfg):
                while (v := random_fraction(cfg, rng)).is_zero():
                    pass
                terms[mono] = v
            elems.append(QmPoly(cfg, terms))
        for k, f in enumerate(elems):
            base = evaluate(f, N)
            for n in series_check_orders(cfg):
                h.update(f"{q} {N} f{k} {n} {evaluate(engine.derive(f, n), N)}\n".encode())
                h.update(f"{q} {N} f{k} {n} {hyper_derive(base, n)}\n".encode())
    assert h.hexdigest() == ORACLE_GOLDEN


BATTERY_FIELDS = (2, 3, 4, 5, 7, 8, 9)
BATTERY_GOLDEN = "6cdac6e96302bf26bff4b5e0888162536970ce5ce3627d48e764f0393b35fc3f"


def test_the_verify_battery_matches_the_pinned_digest():
    h = hashlib.sha256()
    for q in BATTERY_FIELDS:
        h.update(f"{q} {json.dumps(run_suite(FieldConfig.from_q(q), n_max=48))}\n".encode())
    assert h.hexdigest() == BATTERY_GOLDEN


CLI_RUNS = [
    ["derive", "--q", "5", "E g + h", "3"],
    ["derive", "--q", "5", "E g + h", "3", "--json"],
    ["derive", "--q", "5", "E + g", "1"],  # mixed gradings
    ["derive", "--q", "5", "E - E", "1"],  # zero
    ["expand", "--q", "4", "h", "20"],
    ["expand", "--q", "5", "E g", "30", "--n", "5", "--json"],
    ["basis", "--q", "5", "24", "0", "2"],
    ["basis", "--q", "5", "24", "0", "2", "--json"],
    ["basis", "--q", "5", "1", "0", "0"],  # empty
    ["ideal", "--q", "5", "Pd", "--d", "T+1", "--n-max", "8"],
    ["ideal", "--q", "4", "max", "--c", "T", "--n-max", "8", "--json"],
    ["ideal", "--q", "4", "E", "--n-max", "8"],  # the negative control, exit 1
    ["ideal", "--q", "4", "E", "--n-max", "8", "--json"],
    ["verify", "--q", "3", "--n-max", "8"],
    ["verify", "--q", "4", "--n-max", "8", "--json"],
    ["field", "--q", "9"],
    ["field", "--p", "3", "--e", "2", "--modulus", "2 2 1", "--json"],
    ["derive", "--q", "4", "E +", "1"],  # malformed, exit 2
    ["field", "--q", "6", "--json"],  # malformed, exit 2
]
CLI_GOLDEN = "64faef529916a698a4a2c906786ce517883f74be4b11ef8a2a457ce9768ec378"


def test_the_command_line_output_matches_the_pinned_digest(capsys):
    h = hashlib.sha256()
    codes = []
    for argv in CLI_RUNS:
        codes.append(main(argv))
        out, err = capsys.readouterr()
        h.update(f"{argv} {codes[-1]}\n{out}\n{err}\n".encode())
    assert codes == [0] * 11 + [1, 1] + [0] * 4 + [2, 2]
    assert h.hexdigest() == CLI_GOLDEN
