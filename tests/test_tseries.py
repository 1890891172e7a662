"""Series oracle tests: Carlitz action, lattice expansions, the alpha
coefficients, the series divided derivative, the evaluation map and the
sum-of-products kernel behind all series products."""

import ast
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from dqmf import tseries
from dqmf.algebra import FieldConfig, PolyT, RatT, binom_mod_p, d_power, power
from dqmf.qmring import QmPoly
from dqmf.suite import run_suite
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
)
from dqmf.tseries import _monomial, _sum_of_products
from dqmf.verify import random_ratt

from conftest import _inv_d, monic_polys, random_fraction, t_sub


def _pow(s, n):
    """The series s^n by square-and-multiply."""
    return power(s, n, TSeries.one(s.cfg, s.order))


# ---------------------------------------------------------------------------
# Carlitz module


def test_carlitz_T(cfg):
    assert carlitz(cfg.poly_T) == (cfg.poly_T, cfg.poly_one)


def test_carlitz_multiplicativity(cfg):
    """rho_{ab} = rho_a o rho_b, checked through coefficient composition."""
    rng = random.Random(cfg.q)
    for _ in range(5):
        a = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(3)] + [1])
        b = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(2)] + [1])
        rho_ab = carlitz(a * b)
        ra, rb = carlitz(a), carlitz(b)
        # compose: (ra o rb)(X) = sum_i ra_i * (rb(X))^(q^i)
        comp = [cfg.poly_zero] * len(rho_ab)
        for i, ci in enumerate(ra):
            if ci.is_zero():
                continue
            for j, cj in enumerate(rb):
                comp[i + j] = comp[i + j] + ci * cj.frobenius_pow(cfg.e * i)
        assert tuple(comp) == rho_ab


def _carlitz_reference(a):
    """rho_a by Horner in T from the top coefficient of a, one recurrence per a:
    rho_{Tb+c} = T rho_b + rho_b^q + c X, that is c_j <- T c_j + c_{j-1}^q with
    c_{-1} = c."""
    cfg = a.cfg
    rho = ()
    for code in reversed(a.c):
        low = (PolyT(cfg, (code,)),) + tuple(c.frobenius_pow(cfg.e) for c in rho)
        rho = tuple(x + PolyT(cfg, (0,) + y.c) for x, y in zip(low, rho + (cfg.poly_zero,)))
    return rho


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_carlitz_is_the_per_polynomial_horner_recurrence(q):
    """carlitz(a) sums a_i rho_{T^i} over a basis built by one Horner step per
    degree; every a of degree <= 3 (<= 2 for q >= 7), monic or not, and a = 0
    give the per-a recurrence's coefficients."""
    cfg = FieldConfig.from_q(q)
    for coeffs in product(range(q), repeat=4 if q <= 5 else 3):
        a = PolyT(cfg, coeffs)
        assert carlitz(a) == _carlitz_reference(a), str(a)


def test_t_sub_identity_and_leading(cfg, q):
    N = 40
    assert t_sub(cfg.poly_one, N).terms == {1: cfg.rat_one}
    for d in (1, 2):
        a = PolyT(cfg, (0,) * d + (1,))  # T^d, monic
        s = t_sub(a, q**d + 5)
        assert nu_infinity(s) == q**d


def test_t_sub_T_geometric(cfg, q):
    # t_T = t^q (1 - T t^(q-1) + T^2 t^(2(q-1)) - ...)
    N = q + 3 * (q - 1) + 1
    s = t_sub(cfg.poly_T, N)
    for k in range(3):
        expect = RatT(cfg, cfg.poly_T**k)
        assert s.coeff(q + k * (q - 1)) == (expect if k % 2 == 0 else -expect)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_t_sub_pow_is_the_power_of_t_sub(q):
    # t_sub(a, N, k) lifts an inverse of the unit by Frobenius (k = q + 1 and
    # q^2 - 1 recurse twice); the k-th power of the series t_a is the other
    # route.  Two truncations, one of them not a multiple of q, so a lifted
    # inner inverse one coefficient short shows.
    cfg = FieldConfig.from_q(q)
    d_max = 2 if q < 7 else 1
    for N in ((q + 1) * q**d_max, (q + 1) * q**d_max + q - 1):
        for d in range(d_max + 1):
            for a in monic_polys(cfg, d):
                ta = t_sub(a, N)
                for k in sorted({1, 2, q - 1, q, q + 1, q * q - 1}):
                    assert t_sub(a, N, k) == _pow(ta, k), (N, str(a), k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_t_sub_times_the_unit_is_the_leading_power(q):
    # t_a = t^(q^d) / (1 + sum_{j<d} c_j t^(q^d - q^j)): multiplying back by
    # the unit through the series kernel leaves exactly t^(q^d) below N
    cfg = FieldConfig.from_q(q)
    degrees = (1, 2, 3) if q <= 3 else (1, 2) if q < 7 else (1,)
    for d in degrees:
        N = 3 * q**d + 7
        for a in monic_polys(cfg, d):
            rho = carlitz(a)
            terms = {q**d - q**j: RatT(cfg, c) for j, c in enumerate(rho)}
            assert t_sub(a, N) * TSeries(cfg, N, terms) == TSeries(cfg, N, {q**d: cfg.rat_one}), str(a)


def test_t_sub_k_range(cfg, q):
    a = cfg.poly_T
    assert t_sub(a, 12, 0) == TSeries.one(cfg, 12)
    assert t_sub(cfg.poly_one, 1, 0) == TSeries.one(cfg, 1)
    for k in (-1, -q):
        with pytest.raises(ValueError, match=f"k = {k}"):
            t_sub(a, 12, k)


def test_t_sub_requires_monic(cfg):
    with pytest.raises(ValueError):
        t_sub(cfg.poly_zero, 10)
    if cfg.q > 2:
        nonmonic = PolyT(cfg, (1, 2))  # leading coefficient code 2, not 1
        with pytest.raises(ValueError):
            t_sub(nonmonic, 10)


LATTICE_FIELDS = [FieldConfig.from_q(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [
    FieldConfig(2, 3, (1, 0, 1, 1)), FieldConfig(3, 2, (2, 1, 1))]


@pytest.mark.parametrize("cfg", LATTICE_FIELDS, ids=lambda c: f"q{c.q}-" + "".join(map(str, c.modulus)))
def test_the_orbit_folded_lattice_sum_is_the_sum_over_every_monic(cfg):
    """_lattice_sum(cfg, N, j, k) traces one term per Frobenius orbit of the
    monic a; the reference adds a^j t_a^k for every monic a in public TSeries
    arithmetic.  Two non-shipped moduli move the Frobenius table; (q, 1) is
    the weight of h's A-expansion."""
    q = cfg.q
    N = q * q + q + 2
    for j, k in ((1, 1), (0, q - 1), (q, 1)):
        reference, d = TSeries(cfg, N), 0
        while k * q**d < N:
            for a in monic_polys(cfg, d):
                reference = reference + TSeries(cfg, N, {0: RatT(cfg, a**j)}) * t_sub(a, N, k)
            d += 1
        assert tseries._lattice_sum(cfg, N, j, k) == reference, (j, k)


def test_a_lattice_sum_inverts_one_unit_per_frobenius_orbit(monkeypatch):
    """E's sum at q = 4, N = 200 reads the 85 monic a of degree <= 3 in their
    50 orbits under Frobenius: one unit inversion per orbit, each rho_a a
    combination of rho_1, rho_T, rho_{T^2}, rho_{T^3}, one carlitz call per
    degree.  Every a ran its own inversion and its own recurrence before."""
    calls = {"_t_power": 0, "carlitz": 0}
    for name in calls:
        def counted(*args, _f=getattr(tseries, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(tseries, name, counted)
    tseries._lattice_sum(FieldConfig.from_q(4), 200, 1, 1)
    assert calls == {"_t_power": 50, "carlitz": 4}


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


def test_expansions_reject_an_order_below_1(cfg):
    # every raw series, a sum of products among them, is built by one
    # constructor, which checks the order
    E_plus_1 = QmPoly.gen_E(cfg) + QmPoly.one(cfg)
    for N in (0, -3):
        for build in (expand_E, expand_g, expand_h, TSeries.one):
            with pytest.raises(ValueError, match="truncation order must be >= 1"):
                build(cfg, N)
        with pytest.raises(ValueError, match="truncation order must be >= 1"):
            evaluate(E_plus_1, N)


def test_expand_E_bootstrap_recursion(cfg, q):
    """(n-1) a_{n-1} = sum_{i+j=n} a_i a_j from the first-order equation."""
    N = q * q + q + 2
    E = expand_E(cfg, N)
    E2 = E * E
    for n in range(2, N):
        lhs = E.coeff(n - 1).scale_int(n - 1)
        assert lhs == E2.coeff(n)


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
    terms = {n: random_ratt(cfg, rng) for n in range(0, 12)}
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
    s = TSeries(cfg, 30, {n: random_ratt(cfg, rng) for n in range(0, 10)})
    for i in (1, 2, 3, cfg.q):
        d = hyper_derive(s, i)
        assert 0 not in d.terms and 1 not in d.terms


def test_hyper_derive_iterativity(cfg, q):
    from dqmf.algebra import binom_mod_p

    rng = random.Random(17 + q)
    s = TSeries(cfg, 36, {n: random_ratt(cfg, rng) for n in range(0, 14)})
    for _ in range(6):
        i = rng.randint(1, 16)
        j = rng.randint(1, 16)
        lhs = hyper_derive(hyper_derive(s, j), i)
        rhs = hyper_derive(s, i + j) * RatT.from_int(cfg, binom_mod_p(i + j, i, cfg.p))
        assert lhs == rhs


def test_support_after_killing_low_derivatives(cfg, q):
    """p^(k+1)-th powers land in exponents divisible by p^(k+1)."""
    rng = random.Random(19)
    p = cfg.p
    for k in (0, 1):
        base = TSeries(cfg, 8, {n: random_ratt(cfg, rng) for n in range(1, 6)})
        s = _pow(base, p ** (k + 1))
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
    out, y_terms = {}, y.terms  # terms is rebuilt on every read
    for n1, v1 in x.terms.items():
        for n2, v2 in y_terms.items():
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


def _pairwise_sum_of_products(cfg, order, pairs):
    """Reference: pairwise RatT products, summed term by term below order."""
    out = {}
    for x, y in pairs:
        for n, v in _pairwise_product(x, y).items():
            if n < order:
                out[n] = out.get(n, cfg.rat_zero) + v
    return {n: v for n, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_kernel_matches_pairwise_on_several_pairs(q):
    """Mixed denominators on both sides, operands of unequal orders at or
    above the kernel's order, whole cancellation and the empty sum."""
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q * 7 + 3)
    for _ in range(8):
        order = rng.randint(1, 10)
        pairs = [
            (_random_series(cfg, rng, order + rng.randint(0, 4), "mixed"),
             _random_series(cfg, rng, order + rng.randint(0, 4), "mixed"))
            for _ in range(rng.randint(1, 4))
        ]
        got = _sum_of_products(cfg, order, iter(pairs))
        assert got.cfg is cfg and got.order == order
        assert got.terms == _pairwise_sum_of_products(cfg, order, pairs)
        x, y = pairs[0]
        gone = _sum_of_products(cfg, order, pairs + [(-x, y) for x, y in pairs])
        assert gone.terms == {} and gone.order == order
    empty = _sum_of_products(cfg, 5, [])
    assert empty == TSeries(cfg, 5)


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_series_product_zero_and_cancellation(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q)
    x = _random_series(cfg, rng, 9, "mixed")
    zero = TSeries(cfg, 7)
    assert (x * zero).terms == {} and (zero * x).terms == {}
    assert (x * zero).order == 7
    # (1 + u t)(1 - u t) = 1 - u^2 t^2: the t coefficient cancels and is dropped
    u = RatT(cfg, PolyT(cfg, (1, 0, 1)), PolyT(cfg, (1, 1)))
    a = TSeries(cfg, 6, {0: cfg.rat_one, 1: u})
    b = TSeries(cfg, 8, {0: cfg.rat_one, 1: -u})
    prod = a * b
    assert prod.terms == {0: cfg.rat_one, 2: -(u * u)}
    assert prod.terms == _pairwise_product(a, b)


# ---------------------------------------------------------------------------
# The normal form: one monic denominator over numerators prime to it


def _raw_series(cfg, rng, order):
    """(den, t-exponent -> numerator) below order: den a unit times d_i powers
    and linear factors that need not be monic, some numerators zero, and in
    about half the draws every numerator sharing one of den's factors."""
    q = cfg.q
    factors = [d_power(rng.randint(1, 2), 1, cfg) for _ in range(rng.randint(0, 1))]
    factors += [d_power(1, 2, cfg)] * rng.randint(0, 1)
    factors += [PolyT(cfg, [rng.randrange(q), rng.randrange(1, q)]) for _ in range(rng.randint(0, 3))]
    den = PolyT(cfg, [rng.randrange(1, q)])
    for f in factors:
        den = den * f
    content = rng.choice(factors) if factors and rng.random() < 0.5 else cfg.poly_one
    nums = {}
    for n in rng.sample(range(order), rng.randint(0, order)):
        num = PolyT(cfg, [rng.randrange(q) for _ in range(rng.randint(0, 4))])
        if factors and rng.random() < 0.4:
            num = num * rng.choice(factors)
        nums[n] = num * content
    return den, nums


def _canonical_of(cfg, order, den, nums):
    """The kernel's reduction of nums/den, fed code lists with zero tails over
    den made monic, as the kernel's dens are."""
    unit = cfg.inv[den.lead()]
    raw = {n: list(v.scale(unit).c) + [0] * (n % 3) for n, v in nums.items()}
    return tseries._canonical(cfg, order, raw, den.scale(unit))


def _reference_str(ref, order):
    """TSeries.__str__ of the canonical coefficients ``ref``, written out here."""
    parts = []
    for n, v in sorted(ref.items()):
        vs = str(v)
        coeff = f"({vs})" if ("+" in vs or "/" in vs or "*" in vs) else vs
        tp = "" if n == 0 else "t" if n == 1 else f"t^{n}"
        parts.append(coeff if n == 0 else tp if v.is_one() else f"{coeff} * {tp}")
    return " + ".join(parts + [f"O(t^{order})"])


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_the_normal_form_matches_per_coefficient_canonicalisation(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q * 13 + 5)
    seen, series = set(), []
    for _ in range(20):
        order = rng.randint(1, 9)
        den, nums = _raw_series(cfg, rng, order)
        ref = {n: RatT(cfg, v, den) for n, v in nums.items() if v}
        s = _canonical_of(cfg, order, den, nums)
        assert s.den.c[-1] == 1 and all(s.nums.values())
        content = s.den
        for v in s.nums.values():
            content = content.gcd(v)
        assert content.is_one(), (str(den), str(s))
        assert s.terms == ref and s.items() == sorted(ref.items())
        assert all(s.coeff(n) == ref.get(n, cfg.rat_zero) for n in range(order))
        assert str(s) == _reference_str(ref, order)
        assert s.to_json() == {"order": order, "terms": [
            {"n": n, "num": str(v.num), "den": str(v.den)} for n, v in sorted(ref.items())]}
        # the same coefficients over another denominator, and by the constructor
        extra = PolyT(cfg, [rng.randrange(q), rng.randrange(1, q)])
        assert _canonical_of(cfg, order, den * extra, {n: v * extra for n, v in nums.items()}) == s
        assert TSeries(cfg, order, ref) == s
        seen |= {"unit den" if den.lead() != 1 else "monic den",
                 "content" if s.den.degree < den.degree else "no content",
                 "den 1" if s.den.is_one() else "den", "zero coefficient" if not all(nums.values()) else ""}
        series.append(s)
    assert {"content", "no content", "den 1", "den", "zero coefficient"} <= seen
    assert "unit den" in seen or q == 2  # F_2 has no unit but 1
    # == is coefficient-wise equality, in both directions
    series += [_canonical_of(cfg, s.order, s.den, {**s.nums, 0: s.nums.get(0, cfg.poly_zero) + s.den})
               for s in series[:4]]
    for a in series:
        for b in series:
            assert (a == b) is (a.order == b.order and a.terms == b.terms)
    # the kernels on operands in this form
    for x, y in zip(series, series[1:]):
        order = min(x.order, y.order)
        assert (x * y).terms == _pairwise_product(x, y)
        assert _sum_of_products(cfg, order, [(x, y), (y, x), (x, x)]).terms == \
            _pairwise_sum_of_products(cfg, order, [(x, y), (y, x), (x, x)])
        for i in (1, 2, q, q + 1):
            assert hyper_derive(x, i) == _per_term_hyper_derive(x, i)


def test_negative_t_exponents_are_rejected(cfg):
    # t^-2 * t^4 would land at t^2, and a product then claims O(t^5) where it
    # is exact only below t^3
    for terms in ({-2: cfg.rat_one}, {0: cfg.rat_one, -1: cfg.rat_zero}):
        with pytest.raises(ValueError, match="negative t-exponent"):
            TSeries(cfg, 5, terms)


# ---------------------------------------------------------------------------
# evaluate and hyper_derive against pairwise routes


def _pairwise_evaluate(f, N):
    """Reference: TSeries powers and products, one scaling and one sum per monomial."""
    cfg = f.cfg
    gens = (expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N))
    total = TSeries(cfg, N)
    for mono, v in f.terms.items():
        term = TSeries.one(cfg, N)
        for base, n in zip(gens, mono):
            term = term * _pow(base, n)
        total = total + term * v
    return total


def _per_term_hyper_derive(s, i):
    """Reference: one RatT product and one RatT sum per (r, m) term."""
    cfg, p = s.cfg, s.cfg.p
    if i == 0:
        return s
    out, terms = {}, s.terms
    for r in range(1, s.order - 1):
        al = alpha(r, i, cfg)
        if al.is_zero():
            continue
        sign_al = al if (i + r) % 2 == 0 else -al
        for m, a in terms.items():
            n = m + r
            if m == 0 or n >= s.order:
                continue
            bm = binom_mod_p(n - 1, r, p)
            if bm:
                out[n] = out.get(n, cfg.rat_zero) + (sign_al * a).scale_int(bm)
    return TSeries(cfg, s.order, out)


def _mixed_element(cfg, rng, terms=5, exponents=range(4)):
    """Random monomials with exponents drawn from ``exponents`` (degree <= 3
    by default) and random fractions as coefficients."""
    f = QmPoly.zero(cfg)
    for _ in range(terms):
        mono = tuple(rng.choice(exponents) for _ in range(3))
        v = random_fraction(cfg, rng)
        if not v.is_zero():
            f.terms[mono] = v
    return f


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_evaluate_matches_the_pairwise_route(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q + 41)
    for N in (1, 7, q * q + 2):
        for _ in range(3):
            f = _mixed_element(cfg, rng)
            assert evaluate(f, N) == _pairwise_evaluate(f, N)
    # exponents next to the base-p digit boundaries, where the monomial series
    # take a Frobenius lift, and orders at and next to a multiple of p
    p = cfg.p
    exponents = (0, 1, p - 1, p, p + 1, p * p, p * p + p - 1)
    for N in (q * q + 2, p * (q + 3), p * (q + 3) + 1):
        for _ in range(4):
            f = _mixed_element(cfg, rng, exponents=exponents)
            assert evaluate(f, N) == _pairwise_evaluate(f, N), (str(f), N)


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_evaluate_leaves_out_only_the_monomials_that_vanish_below_N(q):
    """E^a g^b h^c has valuation a + c: a term with a + c = N vanishes below N,
    one with a + c = N - 1 does not, and neither does a power of g past N."""
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q + 47)
    N = q + 3
    monos = [(2, 1, N - 2), (N, 0, 0), (1, 2, N - 2), (N - 1, 1, 0), (1, 2 * N, 0), (0, N + 1, 1)]
    f = QmPoly.zero(cfg)
    for mono in monos:
        while (v := random_fraction(cfg, rng)).is_zero():
            pass
        f.terms[mono] = v
    parts = [QmPoly(cfg, {mono: v}) for mono, v in f.terms.items()]
    for g in parts + [f]:
        assert evaluate(g, N) == _pairwise_evaluate(g, N), str(g)
    assert [nu_infinity(evaluate(g, N)) for g in parts] == [None, None, N - 1, N - 1, 1, 1]


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_hyper_derive_matches_the_per_term_loop(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(q + 43)
    N = q * q + q + 2
    series = [expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N),
              _random_series(cfg, rng, N, "mixed"), _random_series(cfg, rng, 3, "rational")]
    for s in series:
        for i in sorted({0, 1, 2, q - 1, q, q + 1, 2 * q, q * q, rng.randint(1, 3 * q)}):
            assert hyper_derive(s, i) == _per_term_hyper_derive(s, i), (str(s), i)


def test_power_cache_separates_fields_and_orders():
    """Two moduli of F_9 and two truncation orders at one field each get
    their own monomial series."""
    fields = [FieldConfig(3, 2, (1, 0, 1)), FieldConfig(3, 2, (2, 1, 1))]
    assert fields[0] is not fields[1]
    for cfg in fields:
        for N in (12, 30):
            for mono, base in (((3, 0, 0), expand_E), ((0, 2, 0), expand_g), ((0, 0, 2), expand_h)):
                n = max(mono)
                got = evaluate(QmPoly.monomial(cfg, *mono), N)
                assert got.cfg is cfg and got.order == N
                assert got == _pow(base(cfg, N), n)
                assert _monomial(cfg, N, mono) == {k: v.num for k, v in got.terms.items()}


@pytest.mark.parametrize("q", ALL_FIELDS, ids=lambda q: f"q{q}")
def test_mixed_monomials_match_repeated_products(q):
    """_monomial splits a mixed monomial below p into generator blocks (g^b,
    then E^a against h^c) and one at or above p into base-p digits; either
    way it is the product of its generators taken one at a time."""
    cfg = FieldConfig.from_q(q)
    p, N = cfg.p, q * q + q + 2
    gens = (expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N))
    monos = {(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (p - 1, 1, p - 1), (1, p - 1, 2),
             (p + 1, 1, 1), (2, p + 2, p - 1), (p, 2 * p + 1, 1), (0, p + 1, 1)}
    for mono in sorted(monos):
        ref = TSeries.one(cfg, N)
        for gen, e in zip(gens, mono):
            for _ in range(e):
                ref = ref * gen
        assert ref.den.is_one() and _monomial(cfg, N, mono) == ref.nums, mono


def test_mutating_a_result_does_not_reach_the_caches(cfg):
    # ``terms`` is built anew on every read, so the stored numerators are
    # what a caller could reach into
    N = 15
    for mono in ((1, 0, 0), (0, 1, 0), (2, 0, 1), (0, 0, 0)):
        f = QmPoly.monomial(cfg, *mono)
        first = evaluate(f, N)
        expected = str(first)
        first.nums.clear()
        first.nums[3] = cfg.poly_one
        assert str(evaluate(f, N)) == expected
        assert str(evaluate(f + f, N)) == str(_pairwise_evaluate(f + f, N))
    # the expansions and D_0 hand out copies, never the cached series
    for mono, build in (((1, 0, 0), expand_E), ((0, 1, 0), expand_g), ((0, 0, 1), expand_h)):
        first = build(cfg, N)
        expected = str(first)
        hyper_derive(first, 0).nums.clear()
        assert str(first) == expected
        first.nums.clear()
        assert str(build(cfg, N)) == expected
        assert str(hyper_derive(build(cfg, N), 0)) == expected
        assert str(evaluate(QmPoly.monomial(cfg, *mono), N)) == expected


@pytest.mark.parametrize("q", [2, 4, 9], ids=lambda q: f"q{q}")
def test_huge_generator_powers_do_not_recurse(q):
    cfg = FieldConfig.from_q(q)
    N = 10
    for mono, base in (((0, 5000, 0), expand_g), ((5000, 0, 0), expand_E)):
        assert evaluate(QmPoly.monomial(cfg, *mono), N) == _pow(base(cfg, N), 5000)


# ---------------------------------------------------------------------------
# exact counts of the series work


# An oracle-shaped cross-check in a fresh interpreter, so no cache of an
# earlier test is warm: the expansions of E, g and h at q = argv[1], N = 60 are
# built first, then E, g, h and one seeded element of the slice of E g h are
# compared through both routes at every order of series_check_orders.  It
# prints the count that argv[2] names: the _divmod_lists calls, or the nonzero
# coefficient pairs that tseries._product multiplies.
_CROSS_CHECK = """
import random
import sys
from dqmf import algebra, tseries
from dqmf.algebra import FieldConfig
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly, qm_basis
from dqmf.suite import series_check_orders
from dqmf.tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive
from dqmf.verify import random_ratt

cfg, N = FieldConfig.from_q(int(sys.argv[1])), 60
engine = DerivationEngine(cfg)
for expand in (expand_E, expand_g, expand_h):
    expand(cfg, N)
rng = random.Random(1)
terms = {}
for t in qm_basis(2 * cfg.q + 2, 2, 1, cfg):
    while (v := random_ratt(cfg, rng)).is_zero():
        pass
    terms[t] = v
elems = [QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg), QmPoly(cfg, terms)]
count = 0
divmod_lists, product = algebra._divmod_lists, tseries._product

def counted_divmod(*args):
    global count
    count += 1
    return divmod_lists(*args)

def counted_product(cfg, x, y, M):
    global count
    ys = [(n, sum(map(bool, w.c))) for n, w in y.items()]
    count += sum(sum(map(bool, v.c)) * k for n1, v in x.items() for n2, k in ys if n1 + n2 < M)
    return product(cfg, x, y, M)

if sys.argv[2] == "divmod":
    algebra._divmod_lists = counted_divmod
else:
    tseries._product = counted_product
for f in elems:
    base = evaluate(f, N)
    for n in series_check_orders(cfg):
        if evaluate(engine.derive(f, n), N) != hyper_derive(base, n):
            raise SystemExit(f"routes disagree at n = {n}")
print(count)
"""


def _cross_check_count(q, counter):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _CROSS_CHECK, str(q), counter], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return int(run.stdout)


def test_a_cross_check_divides_once_per_series_coefficient():
    """Each series result is brought to its normal form by one running gcd of
    its denominator with the numerators, which keeps each quotient by the
    gcd so far, so a content that is not 1 divides again only the numerators
    read before the gcd last shrank: mostly one division per numerator.  No
    coefficient is made canonical unless it is read.  Reducing every
    coefficient by one division made 747 _divmod_lists calls here (q = 4),
    dividing twice when the denominator divides the numerator 778.  Dividing
    every numerator again by the content, after the running gcd, made 435,
    and keeping the quotients through a shrink (multiplied by g/g') 338.  The
    insertion order of the engine's output terms moves where the running gcd
    reaches 1, and with it this count."""
    assert _cross_check_count(4, "divmod") <= 323


def test_a_cross_check_multiplies_mixed_monomials_by_generator_blocks():
    """At q = 5 the cross-check's monomial series multiply at most 2,521
    nonzero coefficient pairs in tseries._product: a mixed monomial below p is
    the product of its generator blocks, g's lacunary series first, then E^a
    against h^c.  Halving every exponent, so that both halves carry part of g,
    made 5,081."""
    assert _cross_check_count(5, "pairs") <= 2_521


@pytest.mark.parametrize("q", [4, 5, 9], ids=lambda q: f"q{q}")
def test_hyper_derive_reads_alpha_only_up_to_its_order(q):
    """alpha(r, i) = 0 for r > i, so D_i reads alpha(r, i) for r <= i only,
    not for every r below the truncation order."""
    cfg = FieldConfig.from_q(q)
    s = expand_E(cfg, 3 * q * q)
    alpha.cache_clear()
    for i in (1, 2, q - 1, q, q + 1, 2 * q, q * q):
        before = alpha.cache_info().currsize
        hyper_derive(s, i)
        assert alpha.cache_info().currsize - before <= i


def test_the_battery_scales_no_coefficient_by_a_zero_binomial(monkeypatch):
    """A binomial C(m + r - 1, r) that is 0 mod p drops its term before any
    scaling.  Scaling every coefficient first made 725 scalings by a multiple
    of p in this battery, all in hyper_derive."""
    zeros = []
    scale, scale_int = PolyT.scale, RatT.scale_int

    def counted_scale(self, code):
        if code == 0:
            zeros.append(("PolyT.scale", code))
        return scale(self, code)

    def counted_scale_int(self, n):
        if n % self.cfg.p == 0:
            zeros.append(("RatT.scale_int", n))
        return scale_int(self, n)

    monkeypatch.setattr(PolyT, "scale", counted_scale)
    monkeypatch.setattr(RatT, "scale_int", counted_scale_int)
    for q in (4, 5, 7, 8, 9):
        assert all(r["pass"] for r in run_suite(FieldConfig.from_q(q), n_max=48, seed=1))
    assert zeros == []


# ---------------------------------------------------------------------------
# series over different fields


def test_a_huge_power_takes_few_monomial_entries():
    """g^30000 is fifteen base-2 digits deep: each digit level adds one cached
    monomial series (and at most one below p), not one per power."""
    cfg = FieldConfig.from_q(4)
    before = tseries._monomial.cache_info().currsize
    got = evaluate(QmPoly.monomial(cfg, 0, 30000, 0), 40)
    assert tseries._monomial.cache_info().currsize - before <= 64
    assert got == _pow(expand_g(cfg, 40), 30000)


def test_the_part_below_p_recurses_shallowly():
    """At q = 499 every exponent of E^498 g^498 h^498 is one base-p digit; it
    is g^498 times E^498 h^498, that is E^498 times h^498, and each pure power
    is halved, not built one generator at a time (about 1,500 frames; peeling
    one g at a time went 508 entries deep).  evaluate leaves the monomial out
    (its valuation 996 is above N), so its entry is built directly."""
    cfg = FieldConfig.from_q(499)
    assert str(evaluate(QmPoly.monomial(cfg, 498, 498, 498), 3)) == "O(t^3)"
    assert _monomial(cfg, 3, (498, 498, 498)) == {}


def test_series_of_different_fields_never_mix():
    F3, F4, F5 = (FieldConfig.from_q(q) for q in (3, 4, 5))
    assert TSeries(F3, 5) != TSeries(F5, 5)
    assert TSeries.one(F3, 5) != TSeries.one(F5, 5)
    a, b = expand_E(F4, 10), expand_E(F5, 10)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        _sum_of_products(F4, 10, [(a, a), (a, b)])
    with pytest.raises(ValueError):
        _sum_of_products(F5, 10, [(b, b), (a, b)])
    # a coefficient of F_5 read as F_7 codes would print as the same numbers
    F7 = FieldConfig.from_q(7)
    x = RatT(F5, PolyT(F5, (3, 4)))
    for cfg in (F4, F7):
        with pytest.raises(ValueError):
            expand_E(cfg, 10) * x
        with pytest.raises(ValueError):
            QmPoly.monomial(cfg, 1, 0, 0, x)
        with pytest.raises(ValueError):
            QmPoly.from_scalar(cfg, x)
    assert str(expand_E(F5, 10) * x) == "(3 + 4*T) * t + O(t^10)"
    assert QmPoly.from_scalar(F5, x) == QmPoly.monomial(F5, 0, 0, 0, x)


def test_a_coefficient_of_another_field_is_rejected():
    """TSeries and evaluate read every coefficient, so they check its field:
    an F_5 value was kept under F_4 and squared in F_5 arithmetic.  QmPoly's
    constructor stays unchecked (the kernel builds every product with it), so
    evaluate sees the value."""
    F4, F5 = FieldConfig.from_q(4), FieldConfig.from_q(5)
    x = RatT(F5, F5.poly_T, PolyT(F5, (1, 1)))
    with pytest.raises(ValueError, match="coefficient from a different field"):
        TSeries(F4, 5, {0: x, 1: F4.rat_one})
    for terms in ({(0, 0, 1): x}, {(0, 0, 0): F4.rat_one, (0, 0, 1): x}, {(0, 0, 9): x}):
        with pytest.raises(ValueError, match="coefficient from a different field"):
            evaluate(QmPoly(F4, terms), 5)


# ---------------------------------------------------------------------------
# independence of the oracle


def test_tseries_borrows_nothing_from_the_engine():
    """The series oracle may import the arithmetic and the ring's element
    type, never the engine, its kernel or the checks built on it."""
    tree = ast.parse(Path(tseries.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            imported.setdefault(module, set()).update(a.name for a in node.names)
            if module in ("", "dqmf"):  # from . import hyperd
                for a in node.names:
                    imported.setdefault(a.name, set())
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.name.rsplit(".", 1)[-1], set())
    assert not {"hyperd", "verify", "suite", "dqmf"} & set(imported), imported
    assert imported["qmring"] == {"QmPoly"}


def test_nu_infinity_basics(cfg):
    assert nu_infinity(TSeries(cfg, 10)) is None
    assert nu_infinity(expand_g(cfg, 12)) == 0


def test_series_json_roundtrip(cfg):
    """Each JSON record rebuilds its coefficient: n and parse_ratt of num/den."""
    from dqmf.cli import parse_ratt

    rng = random.Random(31)
    s = TSeries(cfg, 15, {n: random_fraction(cfg, rng) for n in range(0, 9)})
    data = s.to_json()
    terms = {t["n"]: parse_ratt(cfg, t["num"]) * parse_ratt(cfg, t["den"]).inverse()
             for t in data["terms"]}
    assert TSeries(cfg, data["order"], terms) == s
