"""Series oracle tests: Carlitz action, lattice expansions, the alpha
coefficients, the series divided derivative and the evaluation map."""

import random

import pytest

from dqmf.algebra import FieldConfig, PolyT, RatT, d_power
from dqmf.qmring import QmPoly
from dqmf.tseries import (
    TSeries,
    alpha,
    carlitz,
    evaluate,
    expand_E,
    expand_g,
    expand_h,
    hyper_derive,
    nu_infinity,
    t_sub,
)
from dqmf.verify import random_ratt


def _inv_d(cfg, i, k):
    return RatT(cfg, cfg.poly_one, d_power(i, k, cfg))


def _d(cfg, i):
    return RatT(cfg, d_power(i, 1, cfg))


# ---------------------------------------------------------------------------
# Carlitz module


def test_carlitz_T(cfg):
    rho = carlitz(cfg.poly_T)
    assert rho.degree == 1
    assert rho.coeffs[0] == RatT(cfg, cfg.poly_T)
    assert rho.coeffs[1] == cfg.rat_one


def test_carlitz_multiplicativity(cfg):
    """rho_{ab} = rho_a o rho_b, checked through coefficient composition."""
    rng = random.Random(cfg.q)
    for _ in range(5):
        a = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(3)] + [1])
        b = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(2)] + [1])
        rho_ab = carlitz(a * b)
        ra, rb = carlitz(a), carlitz(b)
        # compose: (ra o rb)(X) = sum_i ra_i * (rb(X))^(q^i)
        comp = [cfg.rat_zero] * (rho_ab.degree + 1)
        for i, ci in enumerate(ra.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(rb.coeffs):
                comp[i + j] = comp[i + j] + ci * cj.frobenius_pow(cfg.e * i)
        assert comp == list(rho_ab.coeffs)


def test_t_sub_identity_and_leading(cfg, q):
    N = 40
    assert t_sub(cfg.poly_one, N).terms == {1: cfg.rat_one}
    for d in (1, 2):
        a = PolyT.monomial(cfg, d)  # T^d, monic
        s = t_sub(a, q**d + 5)
        assert nu_infinity(s) == q**d


def test_t_sub_T_geometric(cfg, q):
    # t_T = t^q (1 - T t^(q-1) + T^2 t^(2(q-1)) - ...)
    N = q + 3 * (q - 1) + 1
    s = t_sub(cfg.poly_T, N)
    T = RatT(cfg, cfg.poly_T)
    for k in range(3):
        expect = T**k if k % 2 == 0 else -(T**k)
        assert s.coeff(q + k * (q - 1)) == expect


def test_t_sub_requires_monic(cfg):
    with pytest.raises(ValueError):
        t_sub(cfg.poly_zero, 10)
    if cfg.q > 2:
        nonmonic = PolyT(cfg, (1, 2))  # leading coefficient code 2, not 1
        with pytest.raises(ValueError):
            t_sub(nonmonic, 10)


# ---------------------------------------------------------------------------
# alpha coefficients


def test_alpha_base_cases(cfg):
    assert alpha(0, 0, cfg) == cfg.rat_one
    assert alpha(0, 3, cfg).is_zero()
    assert alpha(1, 1, cfg) == cfg.rat_one  # single part q^0, d_0 = 1


def test_alpha_at_q(cfg, q):
    assert alpha(1, q, cfg) == _inv_d(cfg, 1, 1)
    for r in range(2, q):
        assert alpha(r, q, cfg).is_zero()
    # q = 1 + ... + 1 (q times): all parts q^0 with d_0 = 1
    assert alpha(q, q, cfg) == cfg.rat_one


def test_alpha_at_p_powers(cfg, q):
    p, e = cfg.p, cfg.e
    i = e + 1
    while p**i < q * q:
        s = p ** (i - e)
        for r in range(1, s):
            assert alpha(r, p**i, cfg).is_zero()
        assert alpha(s, p**i, cfg) == _inv_d(cfg, 1, s)
        i += 1


def test_alpha_at_q_squared(cfg, q):
    assert alpha(1, q * q, cfg) == _inv_d(cfg, 2, 1)
    for r in range(2, q):
        assert alpha(r, q * q, cfg).is_zero()
    assert alpha(q, q * q, cfg) == _inv_d(cfg, 1, q)
    for r in range(q + 1, 2 * q - 1):
        assert alpha(r, q * q, cfg).is_zero()
    assert alpha(2 * q - 1, q * q, cfg) == _inv_d(cfg, 1, q - 1)


def test_alpha_brute_force_small(cfg):
    """Oracle: direct enumeration of ordered tuples of q-power parts."""
    from itertools import product as iproduct

    q = cfg.q
    powers = [1, q, q * q]
    for i in range(1, 12):
        for r in range(1, 5):
            total = cfg.rat_zero
            for combo in iproduct([0, 1, 2], repeat=r):
                if sum(powers[j] for j in combo) != i:
                    continue
                den = cfg.poly_one
                for j in combo:
                    den = den * d_power(j, 1, cfg)
                total = total + RatT(cfg, cfg.poly_one, den)
            assert alpha(r, i, cfg) == total


# ---------------------------------------------------------------------------
# expansions


def test_expand_E_leading_terms(cfg, q):
    N = q * q + q + 2
    E = expand_E(cfg, N)
    assert E.coeff(1) == cfg.rat_one
    assert E.coeff(q * q - 2 * q + 2) == cfg.rat_one
    assert nu_infinity(E) == 1
    gap = [n for n in E.terms if 1 < n < q * q - 2 * q + 2]
    assert gap == []


def test_expand_E_coefficients_in_A(cfg):
    E = expand_E(cfg, cfg.q**2 + cfg.q + 2)
    assert all(v.den.is_one() for v in E.terms.values())


def test_expand_E_bootstrap_recursion(cfg, q):
    """(n-1) a_{n-1} = sum_{i+j=n} a_i a_j from the first-order equation."""
    N = q * q + q + 2
    E = expand_E(cfg, N)
    E2 = E * E
    for n in range(2, N):
        lhs = E.coeff(n - 1).scale_int(n - 1)
        assert lhs == E2.coeff(n)


def test_expand_g_leading_terms(cfg, q):
    N = q * q + q + 2
    g = expand_g(cfg, N)
    assert g.coeff(0) == cfg.rat_one
    assert g.coeff(q - 1) == -_d(cfg, 1)
    assert all(v.den.is_one() for v in g.terms.values())


def test_expand_h_leading_terms(cfg, q):
    N = q * q + q + 2
    h = expand_h(cfg, N)
    assert h.coeff(1) == -cfg.rat_one
    assert h.coeff(q * q - 2 * q + 2) == -cfg.rat_one
    assert nu_infinity(h) == 1
    assert all(v.den.is_one() for v in h.terms.values())


def test_h_first_order_identity_on_series(cfg, q):
    # D_1 h = E h to the full truncation order
    N = q * q + q + 2
    E, h = expand_E(cfg, N), expand_h(cfg, N)
    assert hyper_derive(h, 1) == E * h


def test_E_first_order_identity_on_series(cfg, q):
    N = q * q + q + 2
    E = expand_E(cfg, N)
    assert hyper_derive(E, 1) == E * E


# ---------------------------------------------------------------------------
# the series derivative


def test_hyper_derive_d1_shift(cfg):
    rng = random.Random(9)
    N = 25
    terms = {n: random_ratt(cfg, rng, 1) for n in range(0, 12)}
    s = TSeries(cfg, N, terms)
    d = hyper_derive(s, 1)
    for m in range(1, 12):
        assert d.coeff(m + 1) == s.coeff(m).scale_int(m)
    assert d.coeff(1).is_zero()


def test_hyper_derive_kills_constants(cfg):
    one = TSeries.one(cfg, 20)
    for i in (1, 2, 5):
        assert not hyper_derive(one, i).terms


def test_hyper_derive_low_coefficients_vanish(cfg):
    rng = random.Random(13)
    s = TSeries(cfg, 30, {n: random_ratt(cfg, rng, 1) for n in range(0, 10)})
    for i in (1, 2, 3, cfg.q):
        d = hyper_derive(s, i)
        assert 0 not in d.terms and 1 not in d.terms


def test_hyper_derive_iterativity(cfg, q):
    from dqmf.algebra import binom_mod_p

    rng = random.Random(17 + q)
    s = TSeries(cfg, 36, {n: random_ratt(cfg, rng, 1) for n in range(0, 14)})
    for _ in range(6):
        i = rng.randint(1, 16)
        j = rng.randint(1, 16)
        lhs = hyper_derive(hyper_derive(s, j), i)
        rhs = hyper_derive(s, i + j).scale_int(binom_mod_p(i + j, i, cfg.p))
        assert lhs == rhs


def test_support_after_killing_low_derivatives(cfg, q):
    """p^(k+1)-th powers land in exponents divisible by p^(k+1)."""
    rng = random.Random(19)
    p = cfg.p
    for k in (0, 1):
        base = TSeries(cfg, 8, {n: random_ratt(cfg, rng, 1) for n in range(1, 6)})
        s = base ** (p ** (k + 1))
        for j in range(k + 1):
            assert not hyper_derive(s, p**j).terms
        assert all(n % p ** (k + 1) == 0 for n in s.terms)


# ---------------------------------------------------------------------------
# evaluation homomorphism


def test_evaluate_constants(cfg):
    N = 20
    assert evaluate(QmPoly.one(cfg), N) == TSeries.one(cfg, N)
    assert not evaluate(QmPoly.zero(cfg), N).terms
    assert evaluate(QmPoly.gen_g(cfg), N).coeff(0) == cfg.rat_one


def test_evaluate_is_a_homomorphism(cfg):
    rng = random.Random(29)
    from dqmf.verify import random_isobaric

    N = 24
    f = random_isobaric(cfg, rng, 10)
    g = random_isobaric(cfg, rng, 10)
    assert evaluate(f * g, N) == evaluate(f, N) * evaluate(g, N)
    assert evaluate(f + g, N) == evaluate(f, N) + evaluate(g, N)


def test_evaluate_Eg_plus_h(cfg, q):
    # E g + h has vanishing t-coefficient at orders 0 and 1
    N = q + 4
    s = evaluate(QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg), N)
    nu = nu_infinity(s)
    assert nu is None or nu > 1


def test_commutation_on_random_polynomials(cfg, q):
    """evaluate(D_n f) = D_n(evaluate f) beyond the generators: random
    isobaric f exercises linearity and Leibniz through both routes."""
    from dqmf.verify import random_isobaric

    from conftest import engine_for

    engine = engine_for(q)
    rng = random.Random(37 + q)
    N = q + 6
    for _ in range(6):
        f = random_isobaric(cfg, rng, 12)
        n = rng.randint(1, min(2 * q, engine.limit))
        assert evaluate(engine.derive(f, n), N) == hyper_derive(evaluate(f, N), n)


# ---------------------------------------------------------------------------
# The series product against the pairwise RatT formula


ALL_FIELDS = [2, 3, 4, 5, 7, 8, 9]


def _pairwise_product(x, y):
    """Reference: one RatT product and one RatT sum per pair of terms."""
    cfg = x.cfg
    order = min(x.order, y.order)
    out = {}
    for n1, v1 in x.terms.items():
        for n2, v2 in y.terms.items():
            n = n1 + n2
            if n < order:
                out[n] = out.get(n, cfg.rat_zero) + v1 * v2
    return {n: v for n, v in out.items() if not v.is_zero()}


def _random_series(cfg, rng, order, kind):
    """Coefficients with lacunary numerators; ``kind`` picks the denominators."""
    terms = {}
    for n in range(order + 2):
        if rng.random() < 0.4:
            continue
        num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 5))])
        rational = kind == "rational" or (kind == "mixed" and rng.random() < 0.5)
        den = cfg.poly_one
        if rational:
            den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))] + [1])
        terms[n] = RatT(cfg, num, den)
    return TSeries(cfg, order, terms)


@pytest.mark.parametrize("kind", ["integral", "rational", "mixed"])
@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_series_product_matches_pairwise(q, kind):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q * 101 + len(kind))
    for _ in range(12):
        x = _random_series(cfg, rng, rng.randint(1, 12), kind)
        y = _random_series(cfg, rng, rng.randint(1, 12), kind)
        prod = x * y
        assert prod.order == min(x.order, y.order)
        assert prod.terms == _pairwise_product(x, y)


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_series_product_zero_and_cancellation(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q)
    x = _random_series(cfg, rng, 9, "mixed")
    zero = TSeries.zero(cfg, 7)
    assert (x * zero).terms == {} and (zero * x).terms == {}
    assert (x * zero).order == 7
    # (1 + u t)(1 - u t) = 1 - u^2 t^2: the t coefficient cancels and is dropped
    u = RatT(cfg, PolyT(cfg, (1, 0, 1)), PolyT(cfg, (1, 1)))
    a = TSeries(cfg, 6, {0: cfg.rat_one, 1: u})
    b = TSeries(cfg, 8, {0: cfg.rat_one, 1: -u})
    prod = a * b
    assert prod.terms == {0: cfg.rat_one, 2: -(u * u)}
    assert prod.terms == _pairwise_product(a, b)


def test_nu_infinity_basics(cfg):
    assert nu_infinity(TSeries.zero(cfg, 10)) is None
    assert nu_infinity(expand_g(cfg, 12)) == 0
    assert nu_infinity(expand_h(cfg, 12)) == 1


def test_series_json_roundtrip(cfg):
    from dqmf.cli import tseries_from_json

    rng = random.Random(31)
    s = TSeries(cfg, 15, {n: random_ratt(cfg, rng, 2) for n in range(0, 9)})
    assert tseries_from_json(cfg, s.to_json()) == s
