"""Foundation tests: F_q arithmetic, polynomials, rational functions,
Lucas binomials, brackets, and the exact linear solver."""

import ast
import itertools
import math
import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dqmf
from dqmf import algebra
from dqmf.algebra import (
    DEFAULT_MODULI,
    FieldConfig,
    InconsistentSystem,
    PolyT,
    RatT,
    _coprime_parts,
    _den_pair,
    _den_product,
    _euclid,
    _monic_gcd,
    binom_mod_p,
    bracket,
    common_denominator,
    d_coeff,
    d_power,
    d_rat,
    linear_solve,
    power,
)

from conftest import _reference_add, _reference_mul


SHIPPED_Q = (2, 3, 4, 5, 7, 8, 9)


def all_default_fields():
    return [FieldConfig.from_q(q) for q in SHIPPED_Q]


# ---------------------------------------------------------------------------
# FieldConfig and its element tables


def test_prime_check():
    with pytest.raises(ValueError):
        FieldConfig(4, 1, (0, 1))
    with pytest.raises(ValueError):
        FieldConfig(1, 1, (0, 1))


def test_prime_fields_default_to_the_modulus_x():
    assert not any(e == 1 for _, e in DEFAULT_MODULI)
    for p in (2, 3, 5, 7, 11, 13):
        cfg = FieldConfig(p)
        assert cfg.modulus == (0, 1) and cfg is FieldConfig.from_q(p)


def test_scalar_multiples_of_a_modulus_intern_one_field():
    monic = FieldConfig(3, 2, (1, 0, 1))
    assert FieldConfig(3, 2, (2, 0, 2)) is monic
    assert monic.modulus == (1, 0, 1)
    assert FieldConfig(5, 1, (0, 3)) is FieldConfig(5)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldConfig(2, 2, (1, 0, 1))
    # x^2 - 1 factors over F_3
    with pytest.raises(ValueError):
        FieldConfig(3, 2, (2, 0, 1))


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_reducibility_verdict_matches_root_test(p, e):
    # in degree 2 and 3 a monic polynomial is reducible iff it has a root in F_p
    for low in itertools.product(range(p), repeat=e):
        modulus = low + (1,)
        if any(sum(c * x**i for i, c in enumerate(modulus)) % p == 0 for x in range(p)):
            with pytest.raises(ValueError, match="modulus is reducible over F_p"):
                FieldConfig(p, e, modulus)
        else:
            assert FieldConfig(p, e, modulus).q == p**e


def test_from_q_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        FieldConfig.from_q(6)
    with pytest.raises(ValueError):
        FieldConfig.from_q(12)


@pytest.mark.parametrize("field", all_default_fields(), ids=lambda c: f"q{c.q}")
def test_field_axioms_exhaustive(field):
    """Full associativity/distributivity sweep of the tables; feasible since q <= 9."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    els = range(field.q)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
    for a in els:
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("field", all_default_fields(), ids=lambda c: f"q{c.q}")
def test_frobenius_fixed_points(field):
    # frob is x -> x^p, so its e-th iterate is x -> x^q, the identity on F_q
    for a in range(field.q):
        y = a
        for _ in range(field.e):
            y = field.frob[y]
        assert y == a
        acc = 1
        for _ in range(field.q):
            acc = field.mul[acc][a]
        assert acc == a


@pytest.mark.parametrize("q", [4, 9])
def test_code_packs_coordinates(q):
    cfg = FieldConfig.from_q(q)
    assert [cfg.code(divmod(n, cfg.p)[::-1]) for n in range(q)] == list(range(q))
    assert cfg.code([cfg.p + 1, -1]) == cfg.code([1, cfg.p - 1])
    for coords in ([], [1], [1, 0, 0]):
        with pytest.raises(ValueError, match="need exactly 2 coordinates"):
            cfg.code(coords)


def test_code_str_prints_prime_subfield_bare():
    f4, f9 = FieldConfig.from_q(4), FieldConfig.from_q(9)
    assert [f4.code_str(c) for c in range(4)] == ["0", "1", "[0,1]", "[1,1]"]
    assert [f9.code_str(c) for c in (0, 1, 2)] == ["0", "1", "2"]
    assert [f9.code_str(c) for c in (3, 5, 8)] == ["[0,1]", "[2,1]", "[2,2]"]
    assert str(PolyT(f9, (5, 1, 3))) == "[2,1] + T + [0,1]*T^2"


def test_field_config_file_roundtrip(tmp_path):
    cfg = FieldConfig.from_q(9)
    path = tmp_path / "field.cfg"
    path.write_text(cfg.to_text() + "\n")
    assert FieldConfig.from_file(path) is cfg


def test_field_file_allows_comments_and_blank_lines(tmp_path):
    path = tmp_path / "field.cfg"
    path.write_text("# F_9\n\np = 3  # the characteristic\ne = 2\n  modulus = 1 0 1\n")
    assert FieldConfig.from_file(path) is FieldConfig.from_q(9)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p = 3\ne = 2\nmodulous = 2 2 1\n", "'modulous = 2 2 1' is not"),
        ("p = 3\ne = 2\nmodulus 2 2 1\n", "'modulus 2 2 1' is not"),
        ("p = 3\np = 5\n", "repeated key in 'p = 5'"),
        ("p = abc\n", "p = 'abc' is not an integer"),
        ("p = 3\ne = 2\nmodulus = 1 x 1\n", "modulus = '1 x 1' is not a list of integers"),
    ],
    ids=["misspelled-key", "missing-equals", "repeated-key", "non-integer-p",
         "non-integer-modulus"],
)
def test_field_file_rejects_a_line_it_cannot_read(tmp_path, text, message):
    # the first three used to fall back to the default modulus, or to the
    # last p, silently; the non-integer values named neither key nor file
    path = tmp_path / "field.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"field file {path}: {message}")):
        FieldConfig.from_file(path)


# ---------------------------------------------------------------------------
# Lucas binomials


def test_binom_negative_upper_index_convention():
    # C(n, 0) = 1 for every integer n
    for p in (2, 3, 5):
        for n in range(-12, 12):
            assert binom_mod_p(n, 0, p) == 1


def test_binom_p_power_plus_one_row():
    # C(p^i + 1, j) = 0 mod p for 1 < j < p^i
    for p in (2, 3, 5):
        for i in (1, 2, 3):
            n = p**i + 1
            for j in range(2, p**i):
                assert binom_mod_p(n, j, p) == 0


def test_binom_factorial_oracle_example():
    # oracle: 10! / (4! 6!) = 210, and 210 mod 3 = 0
    assert math.comb(10, 4) % 3 == 0
    assert binom_mod_p(10, 4, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_against_big_integers(p):
    for n in range(200):
        for k in range(0, n + 1):
            assert binom_mod_p(n, k, p) == math.comb(n, k) % p


def test_negative_binom_against_generating_function():
    # (1-X)^{-r} = sum C(r+n-1, n) X^n, equivalently C(-r, n)(-1)^n
    for p in (2, 3, 5):
        for r in range(1, 8):
            for n in range(0, 20):
                lhs = binom_mod_p(-r, n, p)
                rhs = (-1) ** n * math.comb(r + n - 1, n) % p
                assert lhs == rhs % p


def test_binomial_convolution_identity():
    """sum_i (-1)^i C(M, N-i) C(W+i-1, i) = C(M-W, N) mod p, full sweep."""
    for p in (2, 3, 5):
        for M in range(0, 21):
            for W in range(0, 21):
                for N in range(0, 21):
                    total = 0
                    for i in range(N + 1):
                        s = binom_mod_p(M, N - i, p) * binom_mod_p(W + i - 1, i, p)
                        total += -s if i % 2 else s
                    assert total % p == binom_mod_p(M - W, N, p)


# ---------------------------------------------------------------------------
# Polynomials and brackets


def test_bracket_values():
    cfg5 = FieldConfig.from_q(5)
    b1 = bracket(1, cfg5)
    assert b1.degree == 5 and str(b1) == "4*T + T^5"
    cfg2 = FieldConfig.from_q(2)
    b2 = bracket(2, cfg2)
    # char 2: T^4 - T = T^4 + T
    assert b2 == PolyT(cfg2, [0, 1, 0, 0, 1])
    b25 = bracket(2, cfg5)
    assert b25.degree == 25 and b25.c[1] == 4 and b25.c[25] == 1


def test_d_coefficients():
    cfg = FieldConfig.from_q(5)
    assert d_coeff(0, cfg).is_one()
    assert d_coeff(1, cfg) == bracket(1, cfg)
    assert d_coeff(2, cfg) == bracket(2, cfg) * bracket(1, cfg) ** 5


def test_d3_degree_q4():
    # deg d_i = q^i + q * deg d_{i-1}
    cfg = FieldConfig.from_q(4)
    assert d_coeff(1, cfg).degree == 4
    assert d_coeff(2, cfg).degree == 16 + 4 * 4
    assert d_coeff(3, cfg).degree == 64 + 4 * 32


def test_d_rat_is_the_canonical_power_of_d_i():
    for q in (2, 4, 5, 9):
        cfg = FieldConfig.from_q(q)
        for i in (1, 2):
            d = d_coeff(i, cfg)
            assert d_rat(i, 0, cfg) == cfg.rat_one
            for k in (1, 2, 3):
                assert d_rat(i, k, cfg) == RatT(cfg, d**k)
                assert d_rat(i, -k, cfg) == RatT(cfg, cfg.poly_one, d**k)
                assert d_rat(i, k, cfg) * d_rat(i, -k, cfg) == cfg.rat_one


def test_poly_divmod_and_gcd():
    cfg = FieldConfig.from_q(5)
    a = PolyT(cfg, [4, 0, 1])  # T^2 - 1
    b = PolyT(cfg, [4, 1])     # T - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q == PolyT(cfg, [1, 1])
    assert a.gcd(b) == b.monic()


@pytest.mark.parametrize("q", [4, 5, 9])
def test_the_gcd_of_two_linears_is_read_off_their_coefficients(q, monkeypatch):
    """Two linears have the monic one as gcd when they are proportional, and
    1 otherwise: PolyT.gcd gives Euclid's answer on every pair of nonzero
    linears with no division and no entry in the gcd LRU."""
    cfg = FieldConfig.from_q(q)
    lins = [PolyT(cfg, (a0, a1)) for a0 in range(q) for a1 in range(1, q)]
    pairs = [(x, y) for x in lins for y in lins]
    expected = [_euclid(cfg, x.c, y.c) for x, y in pairs]
    divisions = [0]
    divmod_lists = algebra._divmod_lists

    def counting(*args):
        divisions[0] += 1
        return divmod_lists(*args)

    monkeypatch.setattr(algebra, "_divmod_lists", counting)
    before = _monic_gcd.cache_info()
    assert [x.gcd(y) for x, y in pairs] == expected
    assert divisions[0] == 0 and _monic_gcd.cache_info() == before
    assert sum(g.is_one() for g in expected) == len(pairs) - q * (q - 1) ** 2


def test_frobenius_pow_is_the_pth_power():
    cfg = FieldConfig.from_q(9)
    f = PolyT(cfg, [1, 2, 1])
    assert f.frobenius_pow(1) == f * f * f


# ---------------------------------------------------------------------------
# Rational functions


def _random_ratt(cfg, rng, deg=3):
    while True:
        num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, deg + 1))])
        den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, deg + 1))])
        if not den.is_zero():
            return RatT(cfg, num, den)


def test_ratt_canonical_cancellation():
    cfg = FieldConfig.from_q(5)
    val = RatT(cfg, PolyT(cfg, [4, 0, 1]), PolyT(cfg, [4, 1]))
    assert val == RatT(cfg, PolyT(cfg, [1, 1]))  # (T^2-1)/(T-1) = T+1
    assert val.den.is_one()


def test_ratt_unchanged_by_adding_zero():
    cfg = FieldConfig.from_q(5)
    inv_b1 = RatT(cfg, cfg.poly_one, bracket(1, cfg))
    assert inv_b1 + cfg.rat_zero == inv_b1


def test_ratt_inverse_pair():
    cfg = FieldConfig.from_q(5)
    a = RatT(cfg, bracket(1, cfg), bracket(2, cfg))
    b = RatT(cfg, bracket(2, cfg), bracket(1, cfg))
    assert a * b == cfg.rat_one


def test_ratt_division_by_zero():
    cfg = FieldConfig.from_q(5)
    with pytest.raises(ZeroDivisionError):
        cfg.rat_zero.inverse()
    with pytest.raises(ZeroDivisionError):
        RatT(cfg, cfg.poly_one, cfg.poly_zero)


def test_ratt_canonical_form_is_normal_form():
    rng = random.Random(7)
    cfg = FieldConfig.from_q(4)
    for _ in range(200):
        a = _random_ratt(cfg, rng)
        b = _random_ratt(cfg, rng)
        # same value through different routes must be dictionary-identical
        c = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(3)])
        if c.is_zero():
            continue
        scaled = RatT(cfg, a.num * c, a.den * c)
        assert scaled == a and scaled.num.c == a.num.c and scaled.den.c == a.den.c
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) * b.inverse() == a


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
)
def test_ratt_field_axioms_hypothesis(which, xs, ys, zs):
    cfg = FieldConfig.from_q([2, 4, 5, 9][which])
    mk = lambda cs: RatT(cfg, PolyT(cfg, [c % cfg.q for c in cs]))
    a, b, c = mk(xs), mk(ys), mk(zs)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_ratt_equality_compares_the_field():
    f3, f5 = FieldConfig.from_q(3), FieldConfig.from_q(5)
    assert f3.rat_one != f5.rat_one
    assert f3.rat_one == RatT.from_int(f3, 1)
    from dqmf.qmring import QmPoly

    assert QmPoly.gen_E(f3) != QmPoly.gen_E(f5)
    assert QmPoly.gen_E(f3) == QmPoly.gen_E(FieldConfig.from_q(3))
    # arithmetic across fields is an error, never a value in the first field
    # (F_4.rat_one + F_5.rat_one used to come out 0); zero takes no shortcut
    f4 = FieldConfig.from_q(4)
    for a, b in ((f4.rat_one, f5.rat_one), (f5.rat_one, f4.rat_one), (f4.rat_zero, f5.rat_one),
                 (f4.rat_one, f5.rat_zero)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)


def _differential_samples(cfg, rng):
    """RatT values over engine-shaped denominators (products of d_i^k) and
    random monic ones, with numerators that sometimes share a factor."""
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    dens = [cfg.poly_one, d1, d_power(1, 2, cfg), d2, d1 * d2]
    for _ in range(3):
        dens.append(PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))] + [1]))
    out = [cfg.rat_zero]
    for den in dens:
        for shared in (cfg.poly_one, bracket(1, cfg)):
            num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))])
            if num:
                out.append(RatT(cfg, num * shared, den))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_ratt_mul_and_add_match_the_constructor_route(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q)
    samples = _differential_samples(cfg, rng)
    for a in samples:
        for b in samples:
            prod, ref = a * b, _reference_mul(a, b)
            assert prod == ref and prod.den == ref.den
            total, ref = a + b, _reference_add(a, b)
            assert total == ref and total.den == ref.den
        assert (a + -a).is_zero()
    lcm = cfg.poly_one
    for x in samples:
        lcm = (lcm * x.den).exact_div(lcm.gcd(x.den))
    assert common_denominator(cfg, samples) == lcm


def _trim_one_step_at_a_time(coeffs):
    """The trim PolyT used to make: one tuple slice per trailing zero."""
    c = tuple(coeffs)
    while c and c[-1] == 0:
        c = c[:-1]
    return c


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=8), max_size=12),
    st.integers(min_value=0, max_value=40),
)
@example([], 0)
@example([], 40)
@example([0, 0, 0], 5)
def test_polyt_trims_a_zero_tail_like_the_slice_loop(head, zeros):
    cfg = FieldConfig.from_q(9)
    coeffs = head + [0] * zeros
    assert PolyT(cfg, coeffs).c == _trim_one_step_at_a_time(coeffs)
    assert PolyT(cfg, iter(coeffs)).c == _trim_one_step_at_a_time(coeffs)


def test_den_pair_results_stay_in_their_field():
    """Same coefficient tuples in F_2 and F_3: T^2 + 1 = (T + 1)^2 only in F_2,
    so a denominator pair cached for one field must not serve the other."""
    for order in ((2, 3), (3, 2)):
        _den_pair.cache_clear()
        _den_product.cache_clear()
        got = {}
        for q in order:
            cfg = FieldConfig.from_q(q)
            lin, quad = PolyT(cfg, (1, 1)), PolyT(cfg, (1, 0, 1))
            a, b = RatT(cfg, cfg.poly_one, lin), RatT(cfg, cfg.poly_T, quad)
            for x, y in ((a, a), (a, b), (b, a)):
                for op, ref in ((x * y, _reference_mul(x, y)), (x + y, _reference_add(x, y))):
                    assert op == ref and op.num.cfg is cfg and op.den.cfg is cfg
            common = common_denominator(cfg, [a, b])
            assert common == (a + b).den and common.cfg is cfg
            got[q] = ((a * a).den.c, (a + b).den.c, (a * b).den.c)
        assert got[2] == ((1, 0, 1), (1, 0, 1), (1, 1, 1, 1))
        assert got[3] == ((1, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1))


def test_coprime_parts_results_stay_in_their_field():
    """n = T + 1 and d = T^2 + 1 share codes in F_2 and F_3, but gcd(n, d) is
    T + 1 only in F_2: a cancellation cached for one field must not serve the other."""
    for order in ((2, 3), (3, 2)):
        _coprime_parts.cache_clear()
        got = {}
        for q in order:
            cfg = FieldConfig.from_q(q)
            n, d = PolyT(cfg, (1, 1)), PolyT(cfg, (1, 0, 1))
            a, b = RatT(cfg, n, cfg.poly_T), RatT(cfg, cfg.poly_T, d)
            for x, y in ((a, b), (b, a)):
                prod, ref = x * y, _reference_mul(x, y)
                assert prod == ref and prod.num.cfg is cfg and prod.den.cfg is cfg
            got[q] = ((a * b).num.c, (a * b).den.c)
        assert got[2] == ((1,), (1, 1))
        assert got[3] == ((1, 1), (1, 0, 1))


def test_only_algebra_touches_the_canonical_form_shortcut():
    """RatT._raw trusts its caller to pass a canonical form, so only the
    module that owns the form may name it (a call or a reference)."""
    users = set()
    for path in Path(dqmf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr == "_raw" for node in ast.walk(tree)):
            users.add(path.name)
    assert users == {"algebra.py"}


# ---------------------------------------------------------------------------
# Linear solving


def test_linear_solve_identity():
    cfg = FieldConfig.from_q(5)
    one, zero = cfg.rat_one, cfg.rat_zero
    rhs = [RatT.from_int(cfg, 3), RatT(cfg, bracket(1, cfg))]
    sol, kernel = linear_solve([[one, zero], [zero, one]], rhs)
    assert sol == rhs and kernel == []


def test_linear_solve_zero_matrix_full_kernel():
    cfg = FieldConfig.from_q(5)
    zero = cfg.rat_zero
    sol, kernel = linear_solve([[zero, zero], [zero, zero]])
    assert len(kernel) == 2
    with pytest.raises(InconsistentSystem):
        linear_solve([[zero, zero]], [cfg.rat_one])


def test_linear_solve_rank_deficient_kernel_dimension():
    cfg = FieldConfig.from_q(5)
    rng = random.Random(17)
    # three columns built from two independent ones: kernel dimension 1
    for _ in range(10):
        col_a = [_random_ratt(cfg, rng, 2) for _ in range(3)]
        col_b = [_random_ratt(cfg, rng, 2) for _ in range(3)]
        col_c = [a + b for a, b in zip(col_a, col_b)]
        mat = [[col_a[i], col_b[i], col_c[i]] for i in range(3)]
        _, kernel = linear_solve(mat)
        # at least the vector (1, 1, -1); exactly one unless cols degenerate
        assert kernel
        for vec in kernel:
            for i in range(3):
                acc = cfg.rat_zero
                for j in range(3):
                    acc = acc + mat[i][j] * vec[j]
                assert acc.is_zero()


def _free_columns(mat):
    """Columns lying in the span of the columns before them, by solvability."""
    free = []
    for j in range(len(mat[0])):
        col = [row[j] for row in mat]
        if j == 0:
            if not any(col):
                free.append(j)
            continue
        try:
            linear_solve([row[:j] for row in mat], col)
        except InconsistentSystem:
            continue
        free.append(j)
    return free


@pytest.mark.parametrize("q", [4, 5])
def test_linear_solve_reduced_echelon_contract(q):
    """Kernel vector i is 1 at free column i and 0 at the other free columns;
    the particular solution is 0 at every free column."""
    cfg = FieldConfig.from_q(q)
    rng = random.Random(23 + q)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        mat = [[_random_ratt(cfg, rng, 1) for _ in range(n)] for _ in range(m)]
        for j in range(1, n):
            if rng.random() < 0.4:  # a multiple of an earlier column, or zero
                src = rng.randrange(j)
                a = _random_ratt(cfg, rng, 1) if rng.random() < 0.7 else cfg.rat_zero
                for row in mat:
                    row[j] = row[src] * a
        x = [_random_ratt(cfg, rng, 1) for _ in range(n)]
        rhs = []
        for row in mat:
            acc = cfg.rat_zero
            for a, b in zip(row, x):
                acc = acc + a * b
            rhs.append(acc)
        sol, kernel = linear_solve(mat, rhs)
        free = _free_columns(mat)
        assert len(kernel) == len(free)
        for fc, vec in zip(free, kernel):
            assert all(vec[c] == (cfg.rat_one if c == fc else cfg.rat_zero) for c in free)
            assert all(v.is_zero() for v in vec[fc + 1:])
        assert all(sol[c].is_zero() for c in free)


def test_linear_solve_random_roundtrip():
    rng = random.Random(11)
    cfg = FieldConfig.from_q(5)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        mat = [[_random_ratt(cfg, rng, 2) for _ in range(n)] for _ in range(m)]
        x = [_random_ratt(cfg, rng, 2) for _ in range(n)]
        rhs = []
        for i in range(m):
            acc = cfg.rat_zero
            for j in range(n):
                acc = acc + mat[i][j] * x[j]
            rhs.append(acc)
        sol, kernel = linear_solve(mat, rhs)
        # substitute back
        for i in range(m):
            acc = cfg.rat_zero
            for j in range(n):
                acc = acc + mat[i][j] * sol[j]
            assert acc == rhs[i]
        for vec in kernel:
            for i in range(m):
                acc = cfg.rat_zero
                for j in range(n):
                    acc = acc + mat[i][j] * vec[j]
                assert acc.is_zero()


# ---------------------------------------------------------------------------
# Square-and-multiply powers


def _pow_samples(cfg):
    from dqmf.qmring import QmPoly
    from dqmf.tseries import TSeries

    T = RatT(cfg, cfg.poly_T)
    u = RatT(cfg, cfg.poly_one, PolyT(cfg, [1, 1, 1]))
    return {
        "PolyT": (PolyT(cfg, [1, 2 % cfg.p, 0, 1]), cfg.poly_one),
        "RatT": (T * T + u, cfg.rat_one),
        "QmPoly": (
            QmPoly.gen_E(cfg) + QmPoly.monomial(cfg, 0, 1, 1, u) - QmPoly.gen_h(cfg),
            QmPoly.one(cfg),
        ),
        "TSeries": (TSeries(cfg, 12, {0: u, 1: T, 3: cfg.rat_one, 7: u * T}),
                    TSeries.one(cfg, 12)),
    }


@pytest.mark.parametrize("kind", ["PolyT", "RatT", "QmPoly", "TSeries"])
def test_pow_matches_repeated_product(cfg, kind):
    x, one = _pow_samples(cfg)[kind]
    acc = one
    for n in range(7):
        assert power(x, n, one) == acc
        if kind in ("PolyT", "QmPoly"):  # the two types with a ** operator
            assert x**n == acc
        acc = acc * x
