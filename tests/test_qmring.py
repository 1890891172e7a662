"""Grading, bases, depth polynomials and the first-order derivation on
K[E,g,h]."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from dqmf.algebra import FieldConfig, PolyT, RatT, bracket, d_power
from dqmf.qmring import (
    GradingSignature,
    NotIsobaric,
    QmPoly,
    d1,
    grading,
    modular_basis,
    qm_basis,
    sum_of_products,
)
from dqmf.tseries import evaluate, hyper_derive
from dqmf.verify import random_isobaric

from conftest import associated_polynomial, engine_for


def test_grading_of_generators(cfg, q):
    assert grading(QmPoly.gen_E(cfg)) .w == 2
    assert grading(QmPoly.gen_E(cfg)).m == 1 and grading(QmPoly.gen_E(cfg)).l == 1
    sg = grading(QmPoly.gen_g(cfg))
    assert (sg.w, sg.m, sg.l) == (q - 1, 0, 0)
    sh = grading(QmPoly.gen_h(cfg))
    assert (sh.w, sh.m, sh.l) == (q + 1, 1 % (q - 1), 0)


def test_grading_signature_is_a_frozen_value(cfg):
    sig = grading(QmPoly.gen_E(cfg))
    assert sig == GradingSignature(2, 1, 1) and hash(sig) == hash(GradingSignature(w=2, m=1, l=1))
    assert sig != GradingSignature(2, 1, 0)
    assert repr(sig) == "GradingSignature(w=2, m=1, l=1)"
    with pytest.raises(AttributeError):
        sig.w = 3
    with pytest.raises(AttributeError):
        sig.extra = 0


def test_grading_zero_and_not_isobaric(cfg, q):
    assert grading(QmPoly.zero(cfg)) is None
    # E + g mixes weights for q != 3 and types for q = 3
    with pytest.raises(NotIsobaric):
        grading(QmPoly.gen_E(cfg) + QmPoly.gen_g(cfg))
    # E g + T h is isobaric: weight q+1, type 1 on both monomials
    f = QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.monomial(
        cfg, 0, 0, 1, RatT(cfg, cfg.poly_T)
    )
    s = grading(f)
    assert (s.w, s.m, s.l) == (q + 1, 1 % (q - 1), 1)


def test_grading_multiplicativity(cfg, q):
    rng = random.Random(100 + q)
    for _ in range(30):
        f = random_isobaric(cfg, rng, 16)
        g = random_isobaric(cfg, rng, 16)
        prod = f * g
        if prod.is_zero():
            continue
        sf, sg, sp = grading(f), grading(g), grading(prod)
        assert sp.w == sf.w + sg.w
        assert q == 2 or sp.m == (sf.m + sg.m) % (q - 1)
        assert sp.l <= sf.l + sg.l


def test_modular_basis_examples(cfg, q):
    if q >= 4:
        w = 2 * q * q + 2
        m = (q * q + 1) % (q - 1)
        assert modular_basis(w, m, cfg) == [(q - 1, q + 1), (2 * q, 2)]
        assert modular_basis(2, 0, cfg) == []
        assert modular_basis(2, 1, cfg) == []
    assert modular_basis(0, 0, cfg) == [(0, 0)]


def test_qm_basis_examples(cfg, q):
    if q >= 4:
        assert qm_basis(2, 1, 1, cfg) == [(1, 0, 0)]
    assert qm_basis(q + 1, 1, 1, cfg) == sorted([(0, 0, 1), (1, 1, 0)])
    # depth-0 slice is the modular basis
    for w in range(0, 20):
        for m in range(max(q - 1, 1)):
            assert qm_basis(w, m, 0, cfg) == [(0, b, c) for b, c in modular_basis(w, m, cfg)]
    # a negative weight or depth is an empty slice here; `dqmf basis` rejects it
    assert qm_basis(-2, 0, 1, cfg) == qm_basis(q + 1, 1, -1, cfg) == []


def test_qm_basis_dimension_is_sum_of_modular_dims(cfg, q):
    for w in range(0, 25):
        for l in range(0, 4):
            m = w % max(q - 1, 1)
            dim = sum(len(modular_basis(w - 2 * i, m - i, cfg)) for i in range(l + 1) if w - 2 * i >= 0)
            assert len(qm_basis(w, m, l, cfg)) == dim


def test_associated_polynomial_generators(cfg):
    E = QmPoly.gen_E(cfg)
    P = associated_polynomial(E)
    assert P == (E, QmPoly.one(cfg))
    h = QmPoly.gen_h(cfg)
    Ph = associated_polynomial(h)
    assert Ph == (h,)
    assert associated_polynomial(QmPoly.zero(cfg)) == ()


def test_associated_polynomial_multiplicative(cfg):
    rng = random.Random(42)
    for _ in range(20):
        f = random_isobaric(cfg, rng, 12)
        g = random_isobaric(cfg, rng, 12)
        P, Q = associated_polynomial(f), associated_polynomial(g)
        # P * Q coefficientwise: Y^k takes the sum of P_i Q_{k-i}
        rhs = tuple(sum_of_products(cfg, ((P[i], Q[k - i]) for i in range(k + 1)
                                          if i < len(P) and k - i < len(Q)))
                    for k in range(len(P) + len(Q) - 1))
        assert associated_polynomial(f * g) == rhs
        assert associated_polynomial(f)[0] == f


def test_associated_polynomial_additive_on_equal_gradings(cfg):
    rng = random.Random(cfg.q * 13)
    for _ in range(12):
        f = random_isobaric(cfg, rng, 14)
        s = grading(f)
        basis = qm_basis(s.w, s.m, s.l + 1, cfg)
        g = QmPoly.zero(cfg)
        for expo in basis:
            g.terms[expo] = RatT(cfg, cfg.poly_T)
        P, Q = associated_polynomial(f), associated_polynomial(g)
        zero = QmPoly.zero(cfg)
        rhs = [(P[j] if j < len(P) else zero) + (Q[j] if j < len(Q) else zero)
               for j in range(max(len(P), len(Q)))]
        while rhs and rhs[-1].is_zero():
            rhs.pop()
        assert associated_polynomial(f + g) == tuple(rhs)


def test_associated_polynomial_square_example(cfg):
    E = QmPoly.gen_E(cfg)
    g = QmPoly.gen_g(cfg)
    P = associated_polynomial(E * E * g)
    # (E+Y)^2 g
    assert P == (E * E * g, (E * g).scale_int(2), g)


def test_depth_poly_coefficients_carry_shifted_grading(cfg, q):
    """Y has weight 2, type 1, depth 1: coefficient j of the depth polynomial
    of an isobaric f is isobaric of weight w - 2j and type m - j."""
    rng = random.Random(cfg.q * 7)
    for _ in range(15):
        f = random_isobaric(cfg, rng, 14)
        s = grading(f)
        P = associated_polynomial(f)
        for j, cj in enumerate(P):
            if cj.is_zero():
                continue
            sj = grading(cj)
            assert sj.w == s.w - 2 * j
            assert q == 2 or sj.m == (s.m - j) % (q - 1)
            assert sj.l <= s.l - j


def test_top_coefficient_is_modular(cfg):
    rng = random.Random(cfg.q * 31)
    for _ in range(25):
        f = random_isobaric(cfg, rng, 14)
        P = associated_polynomial(f)
        assert all(k[0] == 0 for k in P[-1].terms)


def test_d1_system(cfg):
    E, g, h = QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)
    assert d1(E) == E * E
    assert d1(g) == -(E * g + h)
    assert d1(h) == E * h


def test_d1_is_a_derivation(cfg):
    rng = random.Random(cfg.q)
    for _ in range(20):
        f = random_isobaric(cfg, rng, 12)
        g = random_isobaric(cfg, rng, 12)
        assert d1(f * g) == d1(f) * g + f * d1(g)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_d1_matches_the_engine(q):
    # the engine's order 1 is d1 on each monomial; both are checked against
    # the series oracle, whose D_1 reads no formula of qmring or hyperd
    cfg = FieldConfig.from_q(q)
    engine = engine_for(q)
    rng = random.Random(q)
    N = q * q + q + 2
    for _ in range(10):
        f = random_isobaric(cfg, rng, 14)
        assert d1(f) == engine.derive(f, 1), str(f)
        assert evaluate(d1(f), N) == hyper_derive(evaluate(f, N), 1), str(f)


def test_qmpoly_str_and_json_roundtrip(cfg):
    """Each JSON record rebuilds its term: the exponents and parse_ratt of
    num/den."""
    from dqmf.cli import parse_ratt

    rng = random.Random(3)
    for _ in range(10):
        f = random_isobaric(cfg, rng, 12)
        terms = {(t["alpha"], t["beta"], t["gamma"]):
                 parse_ratt(cfg, t["num"]) * parse_ratt(cfg, t["den"]).inverse()
                 for t in f.to_json()}
        assert QmPoly(cfg, terms) == f
    assert str(QmPoly.zero(cfg)) == "0"
    assert str(QmPoly.one(cfg)) == "1"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_monomial_products_grade_additively(a1, b1, c1, a2, b2, c2):
    cfg = FieldConfig.from_q(5)
    m1 = QmPoly.monomial(cfg, a1, b1, c1)
    m2 = QmPoly.monomial(cfg, a2, b2, c2)
    s1, s2, sp = grading(m1), grading(m2), grading(m1 * m2)
    assert sp.w == s1.w + s2.w
    assert sp.m == (s1.m + s2.m) % (cfg.q - 1)
    assert sp.l == s1.l + s2.l


def test_equality_compares_the_field():
    f3, f5 = FieldConfig.from_q(3), FieldConfig.from_q(5)
    assert QmPoly.zero(f3) != QmPoly.zero(f5)
    assert QmPoly.zero(f3) == QmPoly.zero(FieldConfig.from_q(3))
    assert associated_polynomial(QmPoly.gen_E(f3)) != associated_polynomial(QmPoly.gen_E(f5))
    # arithmetic across fields is an error: E over F_4 plus E over F_5 used
    # to print 0, and products ran on the first field's tables
    f4 = FieldConfig.from_q(4)
    e4, e5 = QmPoly.gen_E(f4), QmPoly.gen_E(f5)
    for a, b in ((e4, e5), (e5, e4), (QmPoly.zero(f4), e5), (e4, QmPoly.zero(f5))):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)
    # a pair with an empty side is checked too
    z4, z5 = QmPoly.zero(f4), QmPoly.zero(f5)
    for cfg, pairs in ((f4, [(e4, e4), (e4, e5)]), (f4, [(e5, e4)]), (f5, [(e4, e4)]),
                       (f4, [(e4, z5)]), (f4, [(e4, e4), (z5, e4)]), (f4, [(z5, z5)]),
                       (f4, [(z4, z5)])):
        with pytest.raises(ValueError, match="different fields"):
            sum_of_products(cfg, pairs)
    assert sum_of_products(f4, [(z4, e4), (e4, e4), (e4, z4)]) == e4 * e4


def test_a_product_rejects_a_coefficient_from_another_field():
    """The QmPoly constructor does not check its coefficients, so the kernel
    does where it reads them: an F_5 coefficient in an F_4 element used to
    multiply as F_4 codes, (3 + T) h * E printing ([1,1] + T) E h."""
    f4, f5 = FieldConfig.from_q(4), FieldConfig.from_q(5)
    stray = QmPoly(f4, {(0, 0, 1): RatT(f5, PolyT(f5, [3, 1]))})
    e4 = QmPoly.gen_E(f4)
    for a, b in ((stray, e4), (e4, stray), (stray, stray)):
        with pytest.raises(ValueError, match="coefficient from a different field"):
            a * b
    with pytest.raises(ValueError, match="coefficient from a different field"):
        sum_of_products(f4, [(e4, e4), (e4, stray)])


def test_scale_rejects_a_coefficient_from_another_field():
    """A term whose coefficient is 1 takes scale's factor without a RatT
    product, so scale checks the factor's field itself: E over F_4 scaled by
    T over F_5 used to return T E over F_4 holding an F_5 coefficient."""
    f4, f5 = FieldConfig.from_q(4), FieldConfig.from_q(5)
    e4 = QmPoly.gen_E(f4)
    for f in (e4, e4 + QmPoly.gen_g(f4), QmPoly.zero(f4)):
        for x in (RatT(f5, f5.poly_T), f5.rat_one, f5.rat_zero):
            with pytest.raises(ValueError, match="coefficient from a different field"):
                f.scale(x)


# sum_of_products against a pairwise reference that canonicalises every
# term product and every partial sum through RatT * and +


def _pairwise_sum_of_products(pairs):
    out = {}
    for x, y in pairs:
        for (a1, b1, c1), v1 in x.terms.items():
            for (a2, b2, c2), v2 in y.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = out[k] + v1 * v2 if k in out else v1 * v2
    return {k: v for k, v in out.items() if not v.is_zero()}


def _kernel_samples(cfg, rng):
    """QmPolys on a few overlapping monomials whose coefficients sit over
    engine-shaped denominators (products of d_i^k) and random monic ones,
    with numerators that are units, constants or share a bracket factor."""
    d1, d2 = d_power(1, 1, cfg), d_power(2, 1, cfg)
    dens = [cfg.poly_one, d1, d_power(1, 2, cfg), d2, d1 * d2]
    for _ in range(2):
        dens.append(PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))] + [1]))
    monos = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]

    def coeff():
        kind = rng.randrange(3)
        if kind == 0:
            return cfg.rat_one
        if kind == 1:
            return RatT(cfg, PolyT(cfg, (rng.randrange(1, cfg.q),)), rng.choice(dens))
        num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 3))])
        return RatT(cfg, num * rng.choice((cfg.poly_one, bracket(1, cfg))), rng.choice(dens))

    out = []
    for _ in range(8):
        f = QmPoly(cfg, {m: coeff() for m in rng.sample(monos, rng.randint(1, 4))})
        out.append(f)
    return out


def _assert_syntactically_equal(got, ref, cfg):
    assert got.cfg is cfg
    assert sorted(got.terms) == sorted(ref)
    for k, v in ref.items():
        assert got.terms[k].num.c == v.num.c and got.terms[k].den.c == v.den.c, k


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_sum_of_products_matches_the_pairwise_route(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(1000 + q)
    samples = _kernel_samples(cfg, rng)
    for _ in range(40):
        pairs = [(rng.choice(samples), rng.choice(samples)) for _ in range(rng.randint(1, 5))]
        _assert_syntactically_equal(sum_of_products(cfg, pairs), _pairwise_sum_of_products(pairs), cfg)
    # sums that cancel, wholly and in part
    x, y, z = samples[:3]
    assert sum_of_products(cfg, [(x, y), (-x, y)]).is_zero()
    assert sum_of_products(cfg, [(x, y), (y, -x)]).is_zero()
    pairs = [(x, y), (x, z), (-x, y)]
    _assert_syntactically_equal(sum_of_products(cfg, pairs), _pairwise_sum_of_products(pairs), cfg)
    assert sum_of_products(cfg, []) == QmPoly.zero(cfg)
    assert sum_of_products(cfg, [(x, QmPoly.zero(cfg))]).is_zero()
