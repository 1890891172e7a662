"""Engine tests: generator tables, Leibniz/iterativity/Frobenius laws,
depth drop, the depth-polynomial transport, residues and kernels."""

import math
import random

import pytest

from dqmf.algebra import FieldConfig, RatT, binom_mod_p, d_power
from dqmf.hyperd import DerivationEngine, OrderOutOfRange, depth_drop, generator_table
from dqmf.qmring import (
    QmPoly,
    associated_polynomial,
    grading,
    qm_basis,
)
from dqmf.suite import p_powers_upto
from dqmf.verify import random_isobaric

from conftest import engine_for, expected_generator_value


def _inv_d(cfg, i, k):
    return RatT(cfg, cfg.poly_one, d_power(i, k, cfg))


def test_engine_limit(engine, q):
    assert engine.limit == engine.cfg.p * q * q - 1
    with pytest.raises(OrderOutOfRange):
        engine.derive(QmPoly.gen_E(engine.cfg), engine.limit + 1)
    with pytest.raises(OrderOutOfRange):
        engine.d_generator("E", -1)


def test_generator_small_orders(engine, q):
    cfg = engine.cfg
    for n in range(q):
        assert engine.d_generator("E", n) == QmPoly.monomial(cfg, n + 1, 0, 0)
        assert engine.d_generator("h", n) == QmPoly.monomial(cfg, n, 0, 1)
    for n in range(2, q):
        assert engine.d_generator("g", n).is_zero()
    assert engine.d_generator("g", 1) == -(
        QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg)
    )


def test_generator_p_power_tables(engine, q):
    for gen in ("E", "g", "h"):
        for n in p_powers_upto(engine.cfg, q * q):
            assert engine.d_generator(gen, n) == expected_generator_value(engine.cfg, gen, n)


def test_prime_field_systems_verbatim():
    """For q = p the first two p-power layers read exactly as the displayed systems."""
    for q in (5, 7):
        cfg = FieldConfig.from_q(q)
        eng = engine_for(q)
        mono = QmPoly.monomial
        d1_inv = _inv_d(cfg, 1, 1)
        d2_inv = _inv_d(cfg, 2, 1)
        d1 = RatT(cfg, d_power(1, 1, cfg))
        p = q
        assert eng.d_generator("E", p) == mono(cfg, p + 1, 0, 0) + mono(cfg, 0, 0, 2, d1_inv)
        assert eng.d_generator("g", p) == mono(cfg, p, 1, 0)
        assert eng.d_generator("h", p) == mono(cfg, p, 0, 1).scale_int(2) - mono(cfg, 0, 1, 2, d1_inv)
        assert eng.d_generator("E", p * p) == (
            mono(cfg, p * p + 1, 0, 0)
            + mono(cfg, 0, p - 1, p + 1, _inv_d(cfg, 1, p))
            + mono(cfg, 0, 2 * p, 2, d2_inv)
        )
        assert eng.d_generator("g", p * p) == (
            mono(cfg, p * p, 1, 0)
            - mono(cfg, 0, p + 1, p, d1 * d2_inv)
            + mono(cfg, 0, 0, 2 * p - 1, _inv_d(cfg, 1, p - 1) - d1 * d1 * d2_inv)
        )
        assert eng.d_generator("h", p * p) == (
            mono(cfg, p * p, 0, 1)
            + mono(cfg, p, p - 1, p, _inv_d(cfg, 1, p - 1))
            - mono(cfg, 0, 2 * p + 1, 2, d2_inv)
            - mono(cfg, 0, p, p + 1, d1 * d2_inv + _inv_d(cfg, 1, p))
        )


def test_derive_is_identity_at_zero(engine):
    rng = random.Random(1)
    f = random_isobaric(engine.cfg, rng, 12)
    assert engine.derive(f, 0) == f


def test_E_power_rule(engine, q):
    # D_{p^i - 1} E = E^{p^i}, up to and including the boundary p^i = limit + 1
    cfg = engine.cfg
    n = 1
    while n * cfg.p - 1 <= engine.limit:
        n *= cfg.p
        assert engine.derive(QmPoly.gen_E(cfg), n - 1) == QmPoly.monomial(cfg, n, 0, 0)
    assert n == engine.limit + 1


def test_h_shifted_derivative(engine, q):
    # D_{p^i - q} h = (1/d_1^(s-1)) g^(s-1) h^s with s = p^(i-e), for q < p^i <= q^2
    cfg = engine.cfg
    for n in p_powers_upto(cfg, q * q):
        if n <= q:
            continue
        s = n // q
        expected = QmPoly.monomial(cfg, 0, s - 1, s, _inv_d(cfg, 1, s - 1))
        assert engine.derive(QmPoly.gen_h(cfg), n - q) == expected


def test_h_squared_leibniz_example(engine, q):
    # hand Leibniz: D_2(h^2) = 2 h D_2 h + (D_1 h)^2 = 3 E^2 h^2 for q >= 4
    cfg = engine.cfg
    h = QmPoly.gen_h(cfg)
    expected = (QmPoly.monomial(cfg, 2, 0, 2)).scale_int(3)
    assert engine.derive(h * h, 2) == expected


def test_leibniz_random(engine, q):
    rng = random.Random(23 + q)
    for _ in range(8):
        f = random_isobaric(engine.cfg, rng, 10)
        g = random_isobaric(engine.cfg, rng, 10)
        n = rng.randint(1, min(16, engine.limit))
        lhs = engine.derive(f * g, n)
        rhs = QmPoly.zero(engine.cfg)
        for r in range(n + 1):
            rhs = rhs + engine.derive(f, r) * engine.derive(g, n - r)
        assert lhs == rhs


def test_iterativity_random(engine, q):
    rng = random.Random(31 + q)
    for _ in range(8):
        f = random_isobaric(engine.cfg, rng, 10)
        i = rng.randint(0, 8)
        j = rng.randint(0, 8)
        lhs = engine.derive(engine.derive(f, j), i)
        rhs = engine.derive(f, i + j).scale_int(binom_mod_p(i + j, i, engine.cfg.p))
        assert lhs == rhs


def test_frobenius_rule(engine, q):
    rng = random.Random(47 + q)
    for k in (1, 2):
        f = random_isobaric(engine.cfg, rng, 8)
        n = rng.randint(1, 2)
        if n * engine.cfg.p**k > engine.limit:
            continue
        lhs = engine.derive(f.frobenius_pow(k), n * engine.cfg.p**k)
        rhs = engine.derive(f, n).frobenius_pow(k)
        assert lhs == rhs


def test_digit_composition_matches_factorial_form(engine, q):
    """D_n = (1/(n_s! ... n_0!)) D_{p^s}^{n_s} o ... o D_1^{n_0} directly,
    against the engine's digit-splitting recursion."""
    cfg = engine.cfg
    p = cfg.p
    rng = random.Random(83 + q)
    for _ in range(6):
        f = random_isobaric(cfg, rng, 10)
        n = rng.randint(2, min(3 * q, engine.limit))
        digits = []
        m = n
        while m:
            digits.append(m % p)
            m //= p
        out = f
        scalar = 1
        for pos, digit in enumerate(digits):
            for _ in range(digit):
                out = engine.derive(out, p**pos)
            scalar = scalar * math.factorial(digit) % p
        expected = engine.derive(f, n).scale_int(scalar)
        assert out == expected, (str(f), n)


def test_grading_contract(engine, q):
    rng = random.Random(53 + q)
    cfg = engine.cfg
    for _ in range(10):
        f = random_isobaric(cfg, rng, 12)
        s = grading(f)
        n = rng.randint(1, min(24, engine.limit))
        d = engine.derive(f, n)
        if d.is_zero():
            continue
        sd = grading(d)
        assert sd.w == s.w + 2 * n
        assert q == 2 or sd.m == (s.m + n) % (q - 1)
        assert sd.l <= s.l + n


def test_kernel_generators_killed(engine, q):
    """D_1 annihilates E^p, g^p, h^p, Eg + h and E^k h^(p-k)."""
    cfg = engine.cfg
    p = cfg.p
    killed = [
        QmPoly.monomial(cfg, p, 0, 0),
        QmPoly.monomial(cfg, 0, p, 0),
        QmPoly.monomial(cfg, 0, 0, p),
        QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg),
    ]
    killed += [QmPoly.monomial(cfg, k, 0, p - k) for k in range(1, p)]
    for f in killed:
        assert engine.derive(f, 1).is_zero()


# ---------------------------------------------------------------------------
# depth drop


def test_depth_drop_trivial_and_digit_cases(engine, q):
    p = engine.cfg.p
    # constants: w - l = 0, C(n-1, n) = 0, always drops
    for n in range(1, 20):
        assert depth_drop(0, 0, n, p)
    # w - l = beta * p^k against n = p^k: drop iff beta = 0 mod p
    for k in (0, 1, 2):
        for beta in range(0, 2 * p):
            assert depth_drop(beta * p**k, 0, p**k, p) == (beta % p == 0)


def test_depth_drop_matches_generic_elements(engine, q):
    """deg_E of the derivative of a generic element tracks the predicate."""
    rng = random.Random(61 + q)
    cfg = engine.cfg
    tried = 0
    while tried < 8:
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        from dqmf.qmring import monomial_signature

        sig = monomial_signature(cfg, a, b, c)
        basis = qm_basis(sig.w, sig.m, a, cfg)
        if not basis or max(e[0] for e in basis) != a:
            tried += 1
            continue
        # generic: all slots filled with distinct nonzero scalars
        f = QmPoly.zero(cfg)
        for idx, expo in enumerate(basis):
            f.terms[expo] = RatT(cfg, cfg.poly_T) ** (idx + 1) + RatT.from_int(cfg, 1)
        n = rng.randint(1, min(12, engine.limit))
        d = engine.derive(f, n)
        dropped = d.deg_E() < a + n
        assert dropped == engine.depth_drop(sig.w, a, n)
        tried += 1


# ---------------------------------------------------------------------------
# depth polynomial transport


def test_transform_depth_poly_identity_at_zero(engine):
    rng = random.Random(3)
    f = random_isobaric(engine.cfg, rng, 10)
    P = associated_polynomial(f)
    assert engine.transform_depth_poly(P, grading(f).w, 0) == P


def test_transform_depth_poly_h_row(engine, q):
    """For depth-0 f the transform reduces to binomial-shifted derivatives."""
    cfg = engine.cfg
    h = QmPoly.gen_h(cfg)
    n = min(q + 2, engine.limit)
    P = engine.transform_depth_poly(associated_polynomial(h), q + 1, n)
    for j in range(n + 1):
        expected = engine.derive(h, n - j).scale_int(binom_mod_p(n + q, j, cfg.p))
        assert P.coeff(j) == expected


def test_transform_depth_poly_dual_route(engine, q):
    rng = random.Random(71 + q)
    for _ in range(6):
        f = random_isobaric(engine.cfg, rng, 12)
        s = grading(f)
        n = rng.randint(1, min(10, engine.limit))
        lhs = engine.transform_depth_poly(associated_polynomial(f), s.w, n)
        rhs = associated_polynomial(engine.derive(f, n))
        assert lhs == rhs


def test_transform_depth_poly_E_p_power(engine, q):
    cfg = engine.cfg
    E = QmPoly.gen_E(cfg)
    for n in p_powers_upto(cfg, q * q):
        lhs = engine.transform_depth_poly(associated_polynomial(E), 2, n)
        assert lhs == associated_polynomial(engine.derive(E, n))


# ---------------------------------------------------------------------------
# residues mod modular forms


def test_derivative_mod_h_residue_i0(engine):
    rE, rg, rh = engine.derivative_mod_h_residue(0)
    assert rE.is_zero()
    assert rg == -QmPoly.gen_h(engine.cfg)
    assert rh.is_zero()


def test_derivative_mod_h_residue_all_i(engine, q):
    cfg = engine.cfg
    i = 0
    while cfg.p**i <= engine.limit and cfg.p**i <= q * q:
        rE, rg, rh = engine.derivative_mod_h_residue(i)
        n = cfg.p**i
        if q <= n < q * q:
            s = n // q
            assert rE == QmPoly.monomial(cfg, 0, s - 1, s + 1, _inv_d(cfg, 1, s))
        if n < q and n > 1:
            assert rh.is_zero()
        i += 1


# ---------------------------------------------------------------------------
# kernels of D_1 .. D_{p^k} on modular forms


def test_kernel_contains_gp(engine, q):
    cfg = engine.cfg
    basis = engine.kernel_on_modular(cfg.p * (q - 1), 0, 0)
    gp = QmPoly.monomial(cfg, 0, cfg.p, 0)
    assert any(_proportional(v, gp) for v in basis)


def _proportional(u, v):
    if set(u.terms) != set(v.terms):
        return False
    ratio = None
    for k, val in u.terms.items():
        r = val / v.terms[k]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def test_kernel_elements_are_p_powers(engine, q):
    cfg = engine.cfg
    for k in (0, 1):
        if cfg.p**k > engine.limit:
            continue
        for w in range(0, 8 * (q - 1) + 1):
            for m in (0, 1):
                for v in engine.kernel_on_modular(w, m, k):
                    root = v
                    for _ in range(k + 1):
                        root = root.pth_root()  # raises if not a p-th power
                    assert root.frobenius_pow(k + 1) == v


def test_kernel_empty_without_weight_divisibility(engine, q):
    cfg = engine.cfg
    for k in (0, 1):
        for w in range(1, 6 * (q - 1)):
            if w % cfg.p ** (k + 1) == 0:
                continue
            for m in range(max(q - 1, 1)):
                assert engine.kernel_on_modular(w, m, k) == []


def test_kernel_of_everything_is_constants(engine, q):
    """Positive weights below (q-1) p^(k+1) leave no modular survivors: a
    p^(k+1)-th power needs a root of weight w / p^(k+1) > 0, but there is no
    nonzero modular form of weight below q-1."""
    cfg = engine.cfg
    for k in (0, 1):
        pk1 = cfg.p ** (k + 1)
        if cfg.p**k > engine.limit:
            continue
        for w in range(1, (q - 1) * pk1):
            for m in range(max(q - 1, 1)):
                assert engine.kernel_on_modular(w, m, k) == [], (w, m, k)


def test_memo_entries_isobaric(engine):
    engine.check_memo_isobaric()


def _composed_generator(engine, gen, n, memo):
    """D_n gen by the older three-way rule, kept as a second route: the table
    for n < q and at p-powers, digit^{-1} D_{p^k} o D_{n - p^k} when n has one
    nonzero base-p digit, and D_rest o D_low (C(n, rest) = 1, low the lowest
    nonzero digit times its place) otherwise."""
    key = (gen, n)
    if key in memo:
        return memo[key]
    cfg, p = engine.cfg, engine.cfg.p
    pos, m = 0, n
    while n and m % p == 0:
        m //= p
        pos += 1
    digit = m % p
    low = digit * p**pos
    if n < cfg.q or (low == n and digit == 1):
        out = generator_table(cfg, gen, n)
    elif low == n:
        prev = _composed_generator(engine, gen, n - p**pos, memo)
        out = engine.derive(prev, p**pos).scale_int(pow(digit, p - 2, p))
    else:
        out = engine.derive(_composed_generator(engine, gen, low, memo), n - low)
    memo[key] = out
    return out


# D_rest o D_low costs minutes over the whole range at q = 5 and 7 (it is the
# cost the one digit step removes), so those two fields stop at n = 48
_COMPOSED_HORIZON = {2: 128, 3: 128, 4: 128, 5: 48, 7: 48, 8: 128, 9: 128}


@pytest.mark.parametrize("q", sorted(_COMPOSED_HORIZON), ids=lambda q: f"q{q}")
def test_digit_step_matches_the_older_composition(q):
    cfg = FieldConfig.from_q(q)
    composer, engine = DerivationEngine(cfg), DerivationEngine(cfg)
    memo = {}
    for n in range(min(engine.limit, _COMPOSED_HORIZON[q]) + 1):
        for gen in "Egh":
            assert engine.d_generator(gen, n) == _composed_generator(composer, gen, n, memo), (gen, n)


def _peeled_power(engine, x, m, n, memo):
    """D_n(x^m) by the Leibniz rule on x^{p^k} * x^{m - p^k}, p^k the lowest
    base-p place of m, peeling one p-power atom at a time with
    D_r(x^{p^k}) = (D_{r/p^k} x)^{p^k}, zero unless p^k | r."""
    cfg = engine.cfg
    if m == 0:
        return QmPoly.one(cfg) if n == 0 else QmPoly.zero(cfg)
    key = (m, n)
    if key in memo:
        return memo[key]
    p, k = cfg.p, 0
    while m % p**(k + 1) == 0:
        k += 1
    out = QmPoly.zero(cfg)
    for r in range(0, n + 1, p**k):
        rest = _peeled_power(engine, x, m - p**k, n - r, memo)
        if not rest.is_zero():
            out = out + engine.d_generator(x, r // p**k).frobenius_pow(k) * rest
    memo[key] = out
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 9], ids=lambda q: f"q{q}")
def test_squared_powers_match_the_peeled_convolution(q):
    # every pure power x^m, 2 <= m <= 2(q - 1), the squaring rule's domain
    # (even m) and the odd powers built on it
    cfg = FieldConfig.from_q(q)
    peeler, engine = DerivationEngine(cfg), DerivationEngine(cfg)
    for x, mono in (("E", (1, 0, 0)), ("g", (0, 1, 0)), ("h", (0, 0, 1))):
        memo = {}
        for m in range(2, 2 * (q - 1) + 1):
            f = QmPoly.monomial(cfg, *(m * e for e in mono))
            for n in range(min(engine.limit, 48) + 1):
                assert engine.derive(f, n) == _peeled_power(peeler, x, m, n, memo), (x, m, n)


@pytest.mark.parametrize("q", [5, 9], ids=lambda q: f"q{q}")
def test_every_generator_order_up_to_the_limit(q):
    engine = DerivationEngine(FieldConfig.from_q(q))
    for n in range(engine.limit + 1):
        for gen in "Egh":
            engine.d_generator(gen, n)
    assert len(engine._memo) > 3 * engine.limit
    assert engine.check_memo_isobaric()


def test_memo_check_covers_product_monomials():
    # the walk checks every entry against its own monomial's grading, not
    # only the generators': a wrong weight on D_3(E g) is caught
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    engine.derive(QmPoly.monomial(cfg, 1, 1, 0), 3)
    assert engine.check_memo_isobaric()
    engine._memo[((1, 1, 0), 3)] = QmPoly.gen_E(cfg)
    with pytest.raises(AssertionError, match=r"D_3 of \(1, 1, 0\) has weight"):
        engine.check_memo_isobaric()
