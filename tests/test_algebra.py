"""Foundation tests: F_q arithmetic, polynomials, rational functions,
Lucas binomials, brackets, and the exact linear solver."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dqmf.algebra import (
    DEFAULT_MODULI,
    FieldConfig,
    FqElem,
    InconsistentSystem,
    PolyT,
    RatT,
    binom_mod_p,
    bracket,
    d_coeff,
    linear_solve,
)


def all_default_fields():
    return [FieldConfig(p, e) for (p, e) in DEFAULT_MODULI]


# ---------------------------------------------------------------------------
# FieldConfig / FqElem


def test_prime_check():
    with pytest.raises(ValueError):
        FieldConfig(4, 1, (0, 1))
    with pytest.raises(ValueError):
        FieldConfig(1, 1, (0, 1))


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
    """Full associativity/distributivity sweep; feasible since q <= 9."""
    els = field.elements()
    zero, one = els[0], field.element(1)
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * (one / a) == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("field", all_default_fields(), ids=lambda c: f"q{c.q}")
def test_frobenius_fixed_points(field):
    for a in field.elements():
        assert a ** field.q == a


def test_field_config_file_roundtrip(tmp_path):
    cfg = FieldConfig.from_q(9)
    path = tmp_path / "field.cfg"
    cfg.to_file(path)
    assert FieldConfig.from_file(path) is cfg


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
    assert b2 == PolyT.from_ints(cfg2, [0, 1, 0, 0, 1])
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


def test_poly_divmod_and_gcd():
    cfg = FieldConfig.from_q(5)
    a = PolyT.from_ints(cfg, [4, 0, 1])  # T^2 - 1
    b = PolyT.from_ints(cfg, [4, 1])     # T - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q == PolyT.from_ints(cfg, [1, 1])
    assert a.gcd(b) == b.monic()


def test_frobenius_pow_and_root():
    cfg = FieldConfig.from_q(9)
    f = PolyT.from_ints(cfg, [1, 2, 1])
    cubed = f.frobenius_pow(1)
    assert cubed == f * f * f
    assert cubed.pth_root() == f
    with pytest.raises(ArithmeticError):
        (f * PolyT.from_ints(cfg, [0, 1])).pth_root()


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
    val = RatT(cfg, PolyT.from_ints(cfg, [4, 0, 1]), PolyT.from_ints(cfg, [4, 1]))
    assert val == RatT(cfg, PolyT.from_ints(cfg, [1, 1]))  # (T^2-1)/(T-1) = T+1
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
            assert (a * b) / b == a


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
    u = RatT(cfg, cfg.poly_one, PolyT.from_ints(cfg, [1, 1, 1]))
    return {
        "PolyT": (PolyT.from_ints(cfg, [1, 2, 0, 1]), cfg.poly_one),
        "RatT": (T * T + u, cfg.rat_one),
        "QmPoly": (
            QmPoly.gen_E(cfg) + QmPoly.monomial(cfg, 0, 1, 1, u) - QmPoly.gen_h(cfg),
            QmPoly.one(cfg),
        ),
        "TSeries": (TSeries(cfg, 12, {0: u, 1: T, 3: cfg.rat_one, 7: u * T}),
                    TSeries.one(cfg, 12)),
        "FqElem": (FqElem(cfg, cfg.q - 1), FqElem(cfg, 1)),
    }


@pytest.mark.parametrize("kind", ["PolyT", "RatT", "QmPoly", "TSeries", "FqElem"])
def test_pow_matches_repeated_product(cfg, kind):
    x, one = _pow_samples(cfg)[kind]
    acc = one
    for n in range(7):
        assert x**n == acc
        acc = acc * x
