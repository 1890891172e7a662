"""Engine tests: the D_1 step, the digit step and the depth transport
against test-owned references, depth drop, the depth-polynomial transport,
residues, kernels and the memo.  The paper's generator tables, the series
route at every generator order, and the paper's laws on random elements
(iterativity, Leibniz, Frobenius, the grading, the depth drop and the dual
route) are criteria 1, 2 and 4 of the acceptance gate."""

import hashlib
import math
import random
import sys
import threading

import pytest

from dqmf import hyperd, verify
from dqmf.algebra import (
    FieldConfig, PolyT, RatT, _coprime_parts, _den_pair, _den_product, binom_mod_p,
)
from dqmf.hyperd import DerivationEngine, OrderOutOfRange, generator_table, p_powers_upto
from dqmf.qmring import (
    GENERATORS,
    NotIsobaric,
    QmPoly,
    d1,
    sum_of_products,
)
from dqmf.suite import CHECKS, run_suite
from dqmf.tseries import expand_E, expand_g, expand_h
from dqmf.verify import random_isobaric

from conftest import (
    _inv_d, _ratio_of_linears, _reference_add, _reference_mul, associated_polynomial,
    check_every_generator_order_against_the_series, depth_drop, engine_for,
    generator_codes, pth_root, sigma_mismatches, transform_depth_poly,
)
from mutants import REGISTER, planted


def test_engine_limit(engine, q):
    assert engine.limit == engine.cfg.p * q * q - 1
    with pytest.raises(OrderOutOfRange):
        engine.derive(QmPoly.gen_E(engine.cfg), engine.limit + 1)
    with pytest.raises(OrderOutOfRange):
        engine.d_generator("E", -1)


def test_derive_is_identity_at_zero(engine):
    rng = random.Random(1)
    f = random_isobaric(engine.cfg, rng, 12)
    assert engine.derive(f, 0) == f


def test_stats_count_memo_entries_hits_and_misses():
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    assert engine.stats() == {"entries": 0, "hits": 0, "misses": 0}
    f = QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg)
    engine.derive(f, 7)
    first = engine.stats()
    assert first["entries"] == first["misses"] > 0
    engine.derive(f, 7)
    second = engine.stats()
    # a repeat misses nothing and hits once per term of f
    assert second == {**first, "hits": first["hits"] + 2}
    assert all(type(v) is int for v in second.values())
    # D_10(E^5 h) is transported from i = 5 alone: C(5, i) = 0 mod 5 for
    # 0 < i < 5, and N(E^{5-i} h) starts at X^{5(5-i)} > 10 for i = 0.  So it
    # reads N(h) through X^10.  With D_1 h .. D_10 h in the memo, and N(h)
    # already read through X^5 by D_10 h's digit step (D_5 of E^5 h in D_5 h),
    # the new series reads are D_6 h .. D_10 h (a hit apiece), and only
    # E^5 h itself misses
    for n in range(1, 11):
        engine.derive(QmPoly.gen_h(cfg), n)
    third = engine.stats()
    engine.derive(QmPoly.monomial(cfg, 5, 0, 1), 10)
    assert engine.stats() == {"entries": third["entries"] + 1, "hits": third["hits"] + 5,
                              "misses": third["misses"] + 1}


def _monomials(q, w_max):
    """Every E^a g^b h^c of weight 0 < 2a + (q-1)b + (q+1)c <= w_max, in
    lexicographic order."""
    return [(a, b, c) for a in range(w_max // 2 + 1) for b in range(w_max + 1)
            for c in range(w_max + 1) if 0 < 2 * a + (q - 1) * b + (q + 1) * c <= w_max]


def _isobaric_requests(cfg, rng, count, w_max=20, n_max=24):
    """Seeded multi-term isobaric elements with (a + bT)/(c + dT) coefficients,
    each with an order, built from the grading formula."""
    q = cfg.q

    def sig(t):
        return 2 * t[0] + (q - 1) * t[1] + (q + 1) * t[2], (t[0] + t[2]) % (q - 1)

    monos = _monomials(q, w_max)
    slices = {}
    for t in monos:
        slices.setdefault(sig(t), []).append(t)
    anchors = [t for t in monos if any(u != t and u[0] <= t[0] for u in slices[sig(t)])]
    out = []
    for _ in range(count):
        anchor = rng.choice(anchors)
        mates = [u for u in slices[sig(anchor)] if u != anchor and u[0] <= anchor[0]]
        support = [anchor] + rng.sample(mates, rng.randint(1, min(3, len(mates))))
        terms = [(t, _ratio_of_linears(cfg, rng)) for t in support]
        out.append((terms, rng.randint(1, min(n_max, cfg.p * q * q - 1))))
    return out


def _derive_against_reference(engine, terms, n):
    """derive(f, n) for f = sum_i v_i m_i, asserted equal to sum_i v_i D_n(m_i)
    with every product and sum canonicalised by the RatT constructor.  Also
    returns, per output monomial, the (i, memo coefficient) pairs that reach it."""
    cfg = engine.cfg
    f = QmPoly.zero(cfg)
    ref, hits = {}, {}
    for i, (mono, v) in enumerate(terms):
        f = f + QmPoly.monomial(cfg, *mono, v)
        for key, c in engine.derive(QmPoly.monomial(cfg, *mono), n).terms.items():
            prod = _reference_mul(v, c)
            ref[key] = _reference_add(ref[key], prod) if key in ref else prod
            hits.setdefault(key, []).append((i, c))
    out = engine.derive(f, n)
    ref = {k: c for k, c in ref.items() if c}
    assert out.terms.keys() == ref.keys()
    for k, c in out.terms.items():
        assert (c.num.c, c.den.c) == (ref[k].num.c, ref[k].den.c), (cfg.q, n, k)
    return out, hits


def test_derive_matches_a_constructor_route_sum():
    """derive(f, n) equals the constructor-route sum; the outputs are pinned by
    sha256.  The second stream adds q = 2 and 3, orders at p-powers, and for
    each request whose memo terms share a denominator at some monomial, a
    twin request that cancels that coefficient; it must reach groups of
    several terms over one denominator D != 1 (at q = 5 with non-constant
    numerators) and coefficients that mix denominators."""
    digest = hashlib.sha256()
    for q in (4, 5, 7, 8, 9):
        engine = engine_for(q)
        for terms, n in _isobaric_requests(engine.cfg, random.Random(f"derive-sum:{q}"), 12):
            out, _ = _derive_against_reference(engine, terms, n)
            digest.update(f"{q} {n} {out}\n".encode())
    assert digest.hexdigest() == "ebc7f2c489568bfe2d78c9e5d61332d0f5cc6d3544a0d99b3473a0eee6992be1"

    digest = hashlib.sha256()
    seen = set()
    for q in (2, 3, 4, 5, 7, 8, 9):
        engine = engine_for(q)
        cfg = engine.cfg
        rng = random.Random(f"derive-groups:{q}")
        requests = _isobaric_requests(cfg, rng, 16, n_max=32)
        orders = [n for n in p_powers_upto(cfg, 32) if n <= engine.limit]
        extra = _isobaric_requests(cfg, rng, len(orders), n_max=32)
        requests += [(terms, n) for (terms, _), n in zip(extra, orders)]
        for terms, n in requests:
            out, hits = _derive_against_reference(engine, terms, n)
            digest.update(f"{q} {n} {out}\n".encode())
            for pairs in hits.values():
                dens = {c.den.c for _, c in pairs}
                if len(dens) > 1:
                    seen.add("mixed")
                elif len(pairs) > 1 and dens != {(1,)}:
                    seen.add("shared")
                    if q == 5 and any(len(c.num.c) > 1 for _, c in pairs):
                        seen.add("shared, q = 5, non-constant numerator")
            key, pairs = next(((k, ps) for k, ps in sorted(hits.items())
                               if len(ps) == 2 and ps[0][1].den == ps[1][1].den), (None, None))
            if key is None:
                continue
            (i, c1), (j, c2) = pairs
            twin = list(terms)
            twin[j] = (terms[j][0], -(terms[i][1] * c1) * c2.inverse())
            out, _ = _derive_against_reference(engine, twin, n)
            assert key not in out.terms
            seen.add("cancelled")
            digest.update(f"{q} {n} {out}\n".encode())
    assert seen == {"mixed", "shared", "shared, q = 5, non-constant numerator", "cancelled"}
    assert digest.hexdigest() == "0a3ed01161705b79296d9750e32a3eddbc38ac04369978562e46ddb0d99b1774"


def test_one_engine_per_thread_matches_a_single_thread():
    """Four threads, each with its own q = 5 engine, derive one seeded list of
    requests while racing on the shared per-field LRUs; every output equals
    the single-threaded one."""
    cfg = FieldConfig.from_q(5)
    requests = _isobaric_requests(cfg, random.Random("threads:5"), 16)

    def run():
        engine = DerivationEngine(cfg)
        outs = []
        for terms, n in requests:
            f = QmPoly.zero(cfg)
            for mono, v in terms:
                f = f + QmPoly.monomial(cfg, *mono, v)
            outs.append([(k, c.num.c, c.den.c) for k, c in engine.derive(f, n).terms.items()])
        return outs

    expected = run()
    assert sum(len(out) > 1 for out in expected) >= 8
    for cache in (_coprime_parts, _den_pair, _den_product):
        cache.cache_clear()
    barrier = threading.Barrier(4)
    got = [None] * 4

    def worker(i):
        barrier.wait(timeout=30)
        got[i] = run()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(outs == expected for outs in got)


@pytest.mark.parametrize("q", [4, 5], ids=lambda q: f"q{q}")
def test_mutating_a_result_does_not_reach_the_memo(q):
    """d_generator and derive return fresh elements, never a memo entry or
    the input (D_0 f included), whatever the request's coefficients and
    number of terms.  A private engine keeps a failure local."""
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    for gen, mono in GENERATORS.items():
        f = QmPoly.monomial(cfg, *mono)
        for n in (0, 1, q, q + 1, 5):
            expected = str(engine.d_generator(gen, n))
            engine.d_generator(gen, n).terms.clear()
            engine.derive(f, n).terms.clear()
            assert str(engine.d_generator(gen, n)) == expected
            assert str(engine.derive(f, n)) == expected
        assert str(f) == gen
    # a one-term request with v != 1, and several terms, which derive groups
    v = RatT(cfg, cfg.poly_T + cfg.poly_one, cfg.poly_T)
    Eg = QmPoly.monomial(cfg, 1, 1, 0)
    for f in (QmPoly.monomial(cfg, 1, 1, 0, v), Eg + QmPoly.monomial(cfg, 0, 0, 1, v)):
        for n in (1, q, q + 1):
            expected = [str(engine.derive(f, n)), str(engine.derive(Eg, n))]
            engine.derive(f, n).terms.clear()
            assert [str(engine.derive(f, n)), str(engine.derive(Eg, n))] == expected
    g = random_isobaric(cfg, random.Random(q), 12)
    expected = str(g)
    engine.derive(g, 0).terms.clear()
    assert str(g) == expected and engine.derive(g, 0) == g
    # every zero memo entry and list row is the engine's one empty value:
    # writing into or clearing the result of a monomial whose entry is zero
    # (D_2 g), or nonzero (D_1 E g), reaches no entry and no row
    def stored():
        return (sorted((k, str(x)) for k, x in engine._memo.items()),
                sorted((k, [str(x) for x in xs]) for k, xs in engine._lists.items()))

    assert engine.derive(QmPoly.gen_g(cfg), 2).is_zero() and not engine.derive(Eg, 1).is_zero()
    zeros = [x for x in engine._memo.values() if x.is_zero()]
    expected = stored()
    for f, n in ((QmPoly.gen_g(cfg), 2), (Eg, 1)):
        engine.derive(f, n).terms[(0, 0, 0)] = v
        engine.derive(f, n).terms.clear()
    assert all(x.is_zero() for x in zeros) and stored() == expected


def test_derive_rejects_an_element_of_another_field():
    # constants and zero too: they carry their field but no generator
    engine, cfg5 = engine_for(4), FieldConfig.from_q(5)
    for f in (QmPoly.one(cfg5), QmPoly.zero(cfg5), QmPoly.gen_E(cfg5) + QmPoly.gen_g(cfg5)):
        for n in (0, 1, 5):
            with pytest.raises(ValueError, match="different fields"):
                engine.derive(f, n)


def test_derive_rejects_a_coefficient_of_another_field():
    # an element of F_4 holding F_5 coefficients, which QmPoly's constructor
    # leaves unchecked: the one-term path scaled the memo entry by the F_5
    # value, and the grouped path kept it wherever the memo coefficient is 1
    engine, cfg5 = engine_for(4), FieldConfig.from_q(5)
    x = RatT(cfg5, cfg5.poly_T, PolyT(cfg5, (1, 1)))
    one = engine.cfg.rat_one
    for terms in ({(0, 0, 1): x}, {(1, 0, 0): x, (0, 0, 1): x}, {(1, 0, 0): one, (0, 1, 0): x}):
        with pytest.raises(ValueError, match="coefficient from a different field"):
            engine.derive(QmPoly(engine.cfg, terms), 1)


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
    """The test-owned criterion of conftest, which criterion 4 checks against
    the engine, on the cases the binomial decides by hand."""
    p = engine.cfg.p
    # constants: w - l = 0, C(n-1, n) = 0, always drops
    for n in range(1, 20):
        assert depth_drop(0, 0, n, p)
    # w - l = beta * p^k against n = p^k: drop iff beta = 0 mod p
    for k in (0, 1, 2):
        for beta in range(0, 2 * p):
            assert depth_drop(beta * p**k, 0, p**k, p) == (beta % p == 0)


# ---------------------------------------------------------------------------
# depth polynomial transport


def test_transform_depth_poly_identity_at_zero(engine):
    rng = random.Random(3)
    f = random_isobaric(engine.cfg, rng, 10)
    assert transform_depth_poly(engine, f, 0) == associated_polynomial(f)


def test_transform_depth_poly_reads_the_weight_of_f(engine):
    # zero has every grading and the empty depth polynomial; E + g mixes
    # weights, so it has no one weight w to transport with
    cfg = engine.cfg
    for n in (0, 1):
        assert transform_depth_poly(engine, QmPoly.zero(cfg), n) == ()
        with pytest.raises(NotIsobaric):
            transform_depth_poly(engine, QmPoly.gen_E(cfg) + QmPoly.gen_g(cfg), n)


def test_transform_depth_poly_h_row(engine, q):
    """For depth-0 f the transform reduces to binomial-shifted derivatives."""
    cfg = engine.cfg
    h = QmPoly.gen_h(cfg)
    n = min(q + 2, engine.limit)
    P = transform_depth_poly(engine, h, n)
    zero = QmPoly.zero(cfg)
    for j in range(n + 1):
        expected = engine.derive(h, n - j).scale_int(binom_mod_p(n + q, j, cfg.p))
        assert (P[j] if j < len(P) else zero) == expected


def test_transform_depth_poly_E_p_power(engine, q):
    """E reads the tables at a p-power; E g h, E^2 h and E^p g are derived by
    the engine's transport there, which the test reference codes apart."""
    cfg = engine.cfg
    mono = QmPoly.monomial
    fs = (QmPoly.gen_E(cfg), mono(cfg, 1, 1, 1), mono(cfg, 2, 0, 1), mono(cfg, cfg.p, 1, 0))
    for n in p_powers_upto(cfg, q * q):
        for f in fs:
            lhs = transform_depth_poly(engine, f, n)
            assert lhs == associated_polynomial(engine.derive(f, n)), (str(f), n)


# ---------------------------------------------------------------------------
# residues mod modular forms


def _residues_mod_h(engine, i):
    """D_{p^i} of E, g and h, n = p^i, less E^{n+1}, C(q-2+n, n) E^n g and
    E^n h + E^q D_{n-q} h; each residue is modular and lies in the ideal (h)."""
    cfg = engine.cfg
    n = cfg.p**i
    mono = QmPoly.monomial
    rE = engine.d_generator("E", n) - mono(cfg, n + 1, 0, 0)
    cg = binom_mod_p(cfg.q - 2 + n, n, cfg.p)
    rg = engine.d_generator("g", n) - mono(cfg, n, 1, 0).scale_int(cg)
    rh = engine.d_generator("h", n) - mono(cfg, n, 0, 1)
    if n >= cfg.q:
        rh = rh - mono(cfg, cfg.q, 0, 0) * engine.d_generator("h", n - cfg.q)
    for r in (rE, rg, rh):
        assert all(k[0] == 0 and k[2] >= 1 for k in r.terms)
    return rE, rg, rh


def test_derivative_mod_h_residue_i0(engine):
    rE, rg, rh = _residues_mod_h(engine, 0)
    assert rE.is_zero()
    assert rg == -QmPoly.gen_h(engine.cfg)
    assert rh.is_zero()


def test_derivative_mod_h_residue_all_i(engine, q):
    cfg = engine.cfg
    i = 0
    while cfg.p**i <= engine.limit and cfg.p**i <= q * q:
        rE, rg, rh = _residues_mod_h(engine, i)
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
    # some basis element is a nonzero multiple of g^p
    assert any(set(v.terms) == {(0, cfg.p, 0)} for v in basis)


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
                        root = pth_root(root)  # raises if not a p-th power
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
    assert not engine.check_memo_isobaric()


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_every_generator_order_matches_the_series(q):
    """The engine's side of acceptance criterion 2: every generator order up
    to the limit meets the series route, and the filled memo is isobaric.
    The comparison itself runs once per field, in conftest."""
    check_every_generator_order_against_the_series(q)


def _changed_orders(name, gen):
    """The orders 1 <= n <= limit at which the register's mutant `name`
    changes D_n of the generator gen at q = 5."""
    cfg = FieldConfig.from_q(5)
    clean = DerivationEngine(cfg)
    expected = [clean.d_generator(gen, n) for n in range(1, clean.limit + 1)]
    with planted(name):
        engine = DerivationEngine(cfg)
        return [n for n, x in enumerate(expected, 1) if engine.d_generator(gen, n) != x]


def _killed_orders(name):
    """The orders at which the register's kills of `name`, the series at N_n
    and the transport check, fail together."""
    return sorted(set().union(*(orders for _, orders in REGISTER[name].kills)))


def test_the_transport_check_and_the_series_together_kill_the_g_mutant():
    """The g mutant at q = 5 adds the E-free part of D_n g once more at the
    digit-step orders above 100 (105, 110, 115, 120) and so changes D_n g at
    8 orders.  The transport check fails at 110, 111, 115, 116, 120 and 121,
    where the E-terms are transported from a wrong E-free part; the series
    at N_n fails at 105, 106, 110, 111, 115 and 120 (at the fixed N = 32 it
    failed only 105, 106 and 110); together they fail every changed order
    (the register pins each)."""
    changed = _changed_orders("g_e_free_double", "g")
    assert changed == [105, 106, 110, 111, 115, 116, 120, 121]
    assert _killed_orders("g_e_free_double") == changed


def test_the_transport_check_and_the_series_together_kill_the_h_mutant():
    """Doubling the E-free part of D_105 h at q = 5 changes every order from
    105 to the limit 124.  The series at N_n fails 105...123 (14 orders at
    N = 32), the transport check 110...124; together, every changed order."""
    changed = _changed_orders("h_e_free_double", "h")
    assert changed == list(range(105, 125))
    assert _killed_orders("h_e_free_double") == changed


def test_memo_check_covers_product_monomials():
    # the walk checks every entry against its own monomial's grading, not
    # only the generators': a wrong weight on D_3(E g) is caught
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    engine.derive(QmPoly.monomial(cfg, 1, 1, 0), 3)
    assert not engine.check_memo_isobaric()
    engine._memo[((1, 1, 0), 3)] = QmPoly.gen_E(cfg)
    assert engine.check_memo_isobaric() == [((1, 1, 0), 3, "weight 2")]


def test_memo_check_names_what_is_wrong():
    # q = 5: D_1 g has weight 6, type 1 and depth <= 1; D_1 g^2 weight 10,
    # type 1 and depth <= 1
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    mono = QmPoly.monomial
    engine._memo[((0, 1, 0), 1)] = mono(cfg, 3, 0, 0)  # weight 6, type 3
    engine._memo[((0, 2, 0), 1)] = mono(cfg, 5, 0, 0)  # weight 10, type 1, depth 5
    engine._memo[((0, 1, 1), 1)] = QmPoly.gen_E(cfg) + QmPoly.gen_g(cfg)
    engine._memo[((1, 0, 0), 1)] = QmPoly.zero(cfg)  # zero has every grading
    assert engine.check_memo_isobaric() == [
        ((0, 1, 0), 1, "type 3"),
        ((0, 2, 0), 1, "depth 5"),
        ((0, 1, 1), 1, "mixed gradings"),
    ]


# ---------------------------------------------------------------------------
# The prime field: every D_n of a monomial, and every generator expansion,
# lies over F_p(T)


@pytest.mark.parametrize("cfg", [
    FieldConfig.from_q(4), FieldConfig.from_q(8), FieldConfig.from_q(9),
    FieldConfig(2, 3, (1, 0, 1, 1)), FieldConfig(3, 2, (2, 1, 1)),
], ids=lambda cfg: f"q{cfg.q}-{''.join(map(str, cfg.modulus))}")
def test_derive_and_evaluate_commute_with_the_coefficient_frobenius(cfg):
    rng = random.Random(f"sigma {cfg.modulus}")
    elements = [random_isobaric(cfg, rng) for _ in range(30)]
    # most inputs carry a code outside F_p, which sigma moves
    assert sum(any(c >= cfg.p for v in f.terms.values() for c in v.num.c + v.den.c)
               for f in elements) > 20
    assert sigma_mismatches(DerivationEngine(cfg), elements) == []


_TWO_MODULI = [(3, 2, (1, 0, 1), (2, 1, 1)), (2, 3, (1, 1, 0, 1), (1, 0, 1, 1)),
               (2, 4, (1, 1, 0, 0, 1), (1, 0, 0, 1, 1))]


@pytest.mark.parametrize("p, e, one, other", _TWO_MODULI, ids=["q9", "q8", "q16"])
def test_two_moduli_give_the_same_codes(p, e, one, other):
    """F_p's codes 0..p-1 do not depend on the modulus, so over F_p(T) the
    generator memos, and at q = 8 and 9 the expansions, are equal code for
    code over two moduli of one q."""
    cfg, cfg2 = FieldConfig(p, e, one), FieldConfig(p, e, other)
    assert generator_codes(cfg) == generator_codes(cfg2)
    if cfg.q < 16:
        N = cfg.q**2 + cfg.q + 2
        for expand in (expand_E, expand_g, expand_h):
            a, b = expand(cfg, N), expand(cfg2, N)
            assert a.den.c == b.den.c
            assert {n: v.c for n, v in a.nums.items()} == {n: v.c for n, v in b.nums.items()}


def _leibniz_reference(engine, mono, n, first="gEh"):
    """D_n(E^a g^b h^c), n >= 1, with every factor read from `engine`.  A
    generator x is, for p not dividing n, n^{-1} D_1(D_{n-1} x), D_1 taken by
    the chain rule (_d1_by_partials), not by qmring.d1, the engine's order 1;
    for p | n it is `engine`'s own D_n x, by the table or the digit step.  Any
    other monomial is x * rest, x one factor of its first generator in the
    order `first`: the Leibniz sum over r <= n of D_r x D_{n-r}(rest).  The
    reference raises nothing to a p-th power, so it shares no Frobenius
    with the engine's p-th-power rows."""
    cfg, p = engine.cfg, engine.cfg.p
    i = next(i for i in map("Egh".index, first) if mono[i])
    gen = "Egh"[i]
    if sum(mono) == 1:
        if n % p == 0:
            return engine.d_generator(gen, n)
        return _d1_by_partials(engine.d_generator(gen, n - 1)).scale_int(pow(n, p - 2, p))
    rest = QmPoly.monomial(cfg, *(e - (j == i) for j, e in enumerate(mono)))
    lefts = [(r, engine.d_generator(gen, r)) for r in range(n + 1)]
    return sum_of_products(cfg, ((left, engine.derive(rest, n - r))
                                 for r, left in lefts if not left.is_zero()))


def _match_the_leibniz_rule(q, monos, at, n_max=48, first="gEh"):
    """Each monomial of `monos` at each order 1 <= n <= min(limit, n_max)
    with at(n, p) equals _leibniz_reference on a second engine, peeling the
    generators in the order `first`, and vanishes unless p^j | n for p^j the
    highest p-power dividing all its exponents; every memo entry is isobaric."""
    cfg = FieldConfig.from_q(q)
    p = cfg.p
    engine, reference = DerivationEngine(cfg), DerivationEngine(cfg)
    for n in range(1, min(engine.limit, n_max) + 1):
        if at(n, p):
            for mono in monos:
                out = engine.derive(QmPoly.monomial(cfg, *mono), n)
                assert out == _leibniz_reference(reference, mono, n, first), (mono, n)
                # a p^j-th power derives to 0 unless p^j | n (p^n does not divide n)
                assert out.is_zero() or n % math.gcd(*mono, p**n) == 0, (mono, n)
    assert engine.check_memo_isobaric() == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_the_d1_step_matches_the_leibniz_rule(q):
    # every monomial of weight <= 26 at every order prime to p, where
    # D_n = n^{-1} D_1(D_{n-1}), against a reference engine that derives its
    # factors the same way
    _match_the_leibniz_rule(q, _monomials(q, 26), lambda n, p: n % p)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_the_transport_matches_the_leibniz_rule(q):
    # every monomial of weight <= 26 whose E exponent p divides (the others
    # are in the E-first test) at every order p | n, where every monomial but
    # a generator is transported; the reference's generator factors come
    # from the table and the digit step, so the smallest monomial at the
    # lowest order that the transport gets wrong has every factor right
    p = FieldConfig.from_q(q).p
    monos = [m for m in _monomials(q, 26) if m[0] % p == 0]
    _match_the_leibniz_rule(q, monos, lambda n, p: n % p == 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_the_transport_matches_the_E_first_leibniz_rule(q):
    # every monomial of weight <= 26 whose E exponent p does not divide, at
    # every order p | n, where the transport reads N(E^{a-i} g^b h^c) for
    # every i <= a, against the Leibniz split that peels E first
    p = FieldConfig.from_q(q).p
    monos = [m for m in _monomials(q, 26) if m[0] % p]
    _match_the_leibniz_rule(q, monos, lambda n, p: n % p == 0, first="Egh")


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_the_d1_step_matches_the_E_first_leibniz_rule(q):
    # every E^a g^b h^c with a, b >= 1 up to the weight of E g^p (at most 26)
    # at every order n <= 40 prime to p, against the split that peels E
    # first; the D_1-step test checks them against the split that peels g
    # first, and the two tests above cover the orders p | n
    p = FieldConfig.from_q(q).p
    monos = [m for m in _monomials(q, min(2 + p * (q - 1), 26)) if m[0] and m[1]]
    _match_the_leibniz_rule(q, monos, lambda n, p: n % p, n_max=40, first="Egh")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_p_powers_of_a_generator_match_the_leibniz_rule(q):
    # every p-power atom x^{p^j}, j >= 1, of x in {E, g, h} with p^j <= 2q,
    # above weight 26 too, at every order n <= min(limit, 48); it derives to
    # 0 unless p^j | n
    cfg = FieldConfig.from_q(q)
    atoms = [tuple(pj * e for e in x) for x in GENERATORS.values()
             for pj in p_powers_upto(cfg, 2 * q)[1:]]
    _match_the_leibniz_rule(q, atoms, lambda n, p: True)


@pytest.mark.parametrize("q", [3, 5, 7, 9], ids=lambda q: f"q{q}")
def test_pure_powers_match_the_leibniz_rule(q):
    # every pure power x^m, 2 <= m <= 2(q - 1), at every order
    # n <= min(limit, 48); the reference peels one factor x, one Leibniz
    # convolution at a time
    powers = [tuple(m * e for e in x) for x in GENERATORS.values() for m in range(2, 2 * q - 1)]
    _match_the_leibniz_rule(q, powers, lambda n, p: True)


def _vanishes_by_iterativity(a, c, n, q, p):
    """True if iterativity forces D_n(E^a h^c) = 0: D_j E = E^{j+1} and
    D_j h = E^j h for j < q give D_j(E^{a-j} h^c) = C(a+c-1, j) E^a h^c, so
    C(a+c-1, j) D_n(E^a h^c) = C(n+j, j) D_{n+j}(E^{a-j} h^c), and
    D_n(E^a h^c) = 0 if some 1 <= j <= min(a, q-1) has C(a+c-1, j) != 0
    and C(n+j, j) = 0 mod p."""
    return any(binom_mod_p(a + c - 1, j, p) and not binom_mod_p(n + j, j, p)
               for j in range(1, min(a, q - 1) + 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 499], ids=lambda q: f"q{q}")
def test_derivatives_that_iterativity_forces_to_zero_vanish(q):
    # the engine derives D_n(E^a h^c) = 0 wherever the binomial loop
    # _vanishes_by_iterativity fires, by the D_1 step, the digit step and
    # the transport, with no zero test of its own: a, c <= 2q at
    # n <= min(limit, 48) for q <= 9, a, c <= 3 at n <= 2q for q = 499
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    top, n_max = (2 * q, min(engine.limit, 48)) if q <= 9 else (3, 2 * q)
    fired = [(a, c, n) for a in range(1, top + 1) for c in range(top + 1)
             for n in range(1, n_max + 1) if _vanishes_by_iterativity(a, c, n, q, cfg.p)]
    assert fired
    for a, c, n in fired:
        assert engine.derive(QmPoly.monomial(cfg, a, 0, c), n).is_zero(), (a, c, n)
    assert engine.check_memo_isobaric() == []


def _partial(f, idx):
    """The formal partial derivative of f in the generator at exponent slot idx."""
    terms = {}
    for k, v in f.terms.items():
        if k[idx] % f.cfg.p:
            terms[k[:idx] + (k[idx] - 1,) + k[idx + 1:]] = v.scale_int(k[idx])
    return QmPoly(f.cfg, terms)


def _d1_by_partials(f):
    """D_1 f as the sum over the generators x of (df/dx) D_1 x."""
    cfg = f.cfg
    images = [QmPoly.monomial(cfg, 2, 0, 0),
              -(QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg)),
              QmPoly.monomial(cfg, 1, 0, 1)]
    return sum_of_products(cfg, ((_partial(f, idx), image) for idx, image in enumerate(images)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_d1_matches_the_partials_route(q):
    cfg = FieldConfig.from_q(q)
    rng = random.Random(f"d1:{q}")
    for _ in range(40):
        f = random_isobaric(cfg, rng, 30)
        assert d1(f) == _d1_by_partials(f), str(f)
    # E h and E^2 g both reach E^2 h, with 2 and -1 times their coefficients
    f = QmPoly.monomial(cfg, 1, 0, 1) + QmPoly.monomial(cfg, 2, 1, 0, 2)
    assert (2, 0, 1) not in d1(f).terms
    assert d1(f) == _d1_by_partials(f)
    # the factor scales each term once, as scaling D_1 f afterwards would
    for s in range(-1, 2 * cfg.p):
        assert d1(f, s) == d1(f).scale_int(s), s


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_g_derivatives_vanish_unless_the_order_is_0_or_1_mod_q(q):
    # the pattern of the table at n < q holds at every order checked
    engine = engine_for(q)
    for n in range(min(engine.limit, 130) + 1):
        if n % q not in (0, 1):
            assert engine.d_generator("g", n).is_zero(), n


def _count_term_pairs(monkeypatch, modules=(hyperd,)):
    """Count the term pairs of each kernel call that `modules` make (by
    default the engine's) into the returned list."""
    counted = []

    def counting(cfg, pairs):
        pairs = list(pairs)
        counted.append(sum(len(x.terms) * len(y.terms) for x, y in pairs))
        return sum_of_products(cfg, pairs)

    for module in modules:
        monkeypatch.setattr(module, "sum_of_products", counting)
    return counted


def _warm_up(cfg, n_max):
    """A cold engine that has derived every monomial of weight <= 20 at
    every order 1 <= n <= n_max, orders outermost."""
    engine = DerivationEngine(cfg)
    monos = _monomials(cfg.q, 20)
    for n in range(1, n_max + 1):
        for mono in monos:
            engine.derive(QmPoly.monomial(cfg, *mono), n)
    return engine


@pytest.mark.parametrize("q, n_max", [(4, 31), (7, 32)], ids=["q4", "q7"])
def test_the_engine_stores_one_copy_of_each_coefficient_value(q, n_max):
    """After a warm-up the memo and the E-free lists hold one RatT object per
    coefficient value (num, den), and every zero memo entry or list row is
    one object, the engine's empty value."""
    engine = _warm_up(FieldConfig.from_q(q), n_max)
    memo = list(engine._memo.values())
    rows = [x for xs in engine._lists.values() for x in xs]
    coeffs = [v for x in memo + rows for v in x.terms.values()]
    assert len({id(v) for v in coeffs}) == len({(v.num.c, v.den.c) for v in coeffs}) < len(coeffs)
    assert {id(x) for x in memo + rows if x.is_zero()} == {id(engine._empty)}
    assert any(x.is_zero() for x in memo) and any(x.is_zero() for x in rows)


@pytest.mark.parametrize("q, n_max", [(4, 31), (7, 32)], ids=["q4", "q7"])
def test_the_engine_stores_one_copy_of_each_monomial_key(q, n_max):
    """After a warm-up the monomials of the memo keys and the (a, b, c) keys
    of the memo entries and E-free list rows are one object per value."""
    engine = _warm_up(FieldConfig.from_q(q), n_max)
    rows = [x for xs in engine._lists.values() for x in xs]
    keys = [mono for mono, _ in engine._memo]
    keys += [k for x in list(engine._memo.values()) + rows for k in x.terms]
    assert len({id(k) for k in keys}) == len(set(keys)) < len(keys)


def test_warm_up_term_pairs_are_the_e_free_series_products(monkeypatch):
    """A q = 5 warm-up, every monomial of weight <= 20 at every order
    1 <= n <= 32 (orders outermost), multiplies exactly 1,730 term pairs
    in the engine's kernel calls, all in the Cauchy products that build the
    E-free series: at orders prime to p every monomial takes the D_1 step,
    which makes no kernel call, and the transport reads the series'
    coefficients without a product.  A mixed monomial below p is the product
    of its generator blocks, g^b first, whose series is nonzero only at orders
    0 and 1 mod q; halving every exponent made 2,737."""
    counted = _count_term_pairs(monkeypatch)
    _warm_up(FieldConfig.from_q(5), 32)
    assert sum(counted) == 1_730


def test_warm_up_frobenius_images_are_taken_once_per_series_coefficient(monkeypatch):
    """A q = 4 warm-up, every monomial of weight <= 20 at every order
    1 <= n <= 31 (orders outermost), calls QmPoly.frobenius_pow exactly 91
    times: once per nonzero coefficient of the E-free series of a p-th power,
    y^p from N(y) with X -> X^p, when that coefficient is first computed;
    every later transport reads it from the engine's list.  Raising a
    generator derivative anew at each use made 2,792 calls."""
    calls = [0]
    frobenius_pow = QmPoly.frobenius_pow

    def counting(self, k):
        calls[0] += 1
        return frobenius_pow(self, k)

    monkeypatch.setattr(QmPoly, "frobenius_pow", counting)
    engine = _warm_up(FieldConfig.from_q(4), 31)
    images = [x for mono, xs in engine._lists.items()
              if sum(mono) > 1 and not any(e % engine.cfg.p for e in mono) for x in xs if x.terms]
    assert calls[0] == len(images) == 91


def test_h_quotient_check_term_pairs_stay_at_one_inverse(monkeypatch):
    """The battery's h_power_quotients check at q = 5, n_max 48, multiplies
    at most 12,737 term pairs in the kernel calls of the engine and of
    verify: the rows n < 0 invert h's quotient row once and convolve with
    it, leaving out the pairs with a zero factor.  Inverting the row of
    each h^{|n|} on its own, with every pair passed, made 26,504."""
    cfg = FieldConfig.from_q(5)
    counted = _count_term_pairs(monkeypatch, (hyperd, verify))
    check = CHECKS["h_power_quotients"]
    assert check(cfg, DerivationEngine(cfg), random.Random(0), 48, None)["pass"]
    assert sum(counted) <= 12_737


def _count_rat_products(monkeypatch):
    """Count the RatT.__mul__ calls into the returned one-element list."""
    calls = [0]
    mul = RatT.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(RatT, "__mul__", counting)
    return calls


def test_battery_rat_products_stay_at_the_memo_copy_count(monkeypatch):
    """run_suite(F_5, n_max=16) makes at most 419 RatT products: derive
    copies a memo coefficient where its request coefficient is 1, and the
    D_1 step scales by integers only.  Multiplying by 1 made 1,959."""
    calls = _count_rat_products(monkeypatch)
    assert all(r["pass"] for r in run_suite(FieldConfig.from_q(5), n_max=16))
    assert calls[0] <= 419


def test_warm_up_rat_products_stay_at_the_memo_copy_count(monkeypatch):
    """The q = 5 warm-up of test_warm_up_term_pairs_are_the_e_free_series_products
    makes at most 47 RatT products: each request is one monomial with
    coefficient 1, so derive copies the memo entry's coefficients.  Multiplying
    every memo coefficient by 1 made 10,853."""
    calls = _count_rat_products(monkeypatch)
    _warm_up(FieldConfig.from_q(5), 32)
    assert calls[0] <= 47


def test_warm_requests_multiply_by_no_unit_memo_operand(monkeypatch):
    """400 warm q = 5 requests, 200 seeded multi-term elements and their
    anchor terms on their own, make at most 3,877 RatT products: neither
    derive nor QmPoly.scale multiplies by a memo coefficient 1, and derive's
    grouped sum multiplies by no memo numerator 1 and no 1/D for a memo
    denominator D = 1, each unit read off its coefficient tuple.
    Multiplying by those units made 4,490."""
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    requests = []
    for terms, n in _isobaric_requests(cfg, random.Random("unit-operands:5"), 200, n_max=32):
        f = QmPoly.zero(cfg)
        for mono, v in terms:
            f = f + QmPoly.monomial(cfg, *mono, v)
            engine.derive(QmPoly.monomial(cfg, *mono), n)  # warms the memo
        requests += [(f, n), (QmPoly.monomial(cfg, *terms[0][0], terms[0][1]), n)]
    calls = _count_rat_products(monkeypatch)
    for f, n in requests:
        engine.derive(f, n)
    assert calls[0] <= 3_877


def test_generator_table_rejects_an_unknown_name():
    cfg = FieldConfig.from_q(5)
    for n in (1, 5, 25):
        with pytest.raises(ValueError, match="unknown generator 'x'"):
            generator_table(cfg, "x", n)
    assert str(generator_table(cfg, "h", 1)) == "E h"


def test_the_transport_of_a_pth_power_makes_no_kernel_call(monkeypatch):
    """D_{7k}((E^2 h)^7) = (D_k(E^2 h))^7 on a cold q = 7 engine, k <= 6,
    with no kernel call: the D_1 step makes none for D_k(E^2 h), and the
    transport of E^14 h^7 reads only i = 14, as C(14, i) = 0 mod 7 unless
    7 | i and N(E^7 h^7) starts at X^49, where N(h^7) is the Frobenius
    image of N(h)."""
    cfg = FieldConfig.from_q(7)
    engine = DerivationEngine(cfg)
    counted = _count_term_pairs(monkeypatch)
    x = QmPoly.monomial(cfg, 2, 0, 1)
    for k in range(7):
        assert engine.derive(x.frobenius_pow(1), 7 * k) == engine.derive(x, k).frobenius_pow(1)
    assert counted == []


def test_the_transport_reads_no_chain_through_lower_powers_of_E():
    # q = 499: D_499(E^498 h) is transported from N(E h) and N(h) through
    # X^499 alone, since N(E^{498-i} h) starts at X^{499(498-i)}; a cold
    # engine derives it with no chain through E^497 h, ..., E h
    cfg = FieldConfig.from_q(499)
    engine = DerivationEngine(cfg)
    out = engine.derive(QmPoly.monomial(cfg, 498, 0, 1), 499)
    assert not out.is_zero()
    assert engine.check_memo_isobaric() == []


# The sha256 over the lines "q a b c n D_n(E^a g^b h^c)" of the reach grid
# below, in its order, as the rules before the transport derived them in a
# thread with a 512 MB stack and a raised recursion limit; at the default
# limit they failed 41 of these inputs (47 with a cold engine per input).
_REACH_GRID_SHA256 = "7cf1467e68cd70fd53eb7e1da2c528bb25d28482a2be523c33d1ac26be8b039b"


def test_the_reach_grid_derives_at_the_default_recursion_limit():
    # q in {251, 499}, a in {p - 1, p - 2, p//2, 2, 1}, b in {0, 1, 3},
    # c in {0, 1, 2} and n in {p - 1, p, 2p, p + p//2}: 360 inputs, one
    # engine per field, the highest powers of E first, so the deepest
    # derivations meet the emptiest memo
    digest = hashlib.sha256()
    for q in (251, 499):
        cfg, p = FieldConfig.from_q(q), q
        engine = DerivationEngine(cfg)
        for a in (p - 1, p - 2, p // 2, 2, 1):
            for b in (0, 1, 3):
                for c in (0, 1, 2):
                    for n in (p - 1, p, 2 * p, p + p // 2):
                        out = engine.derive(QmPoly.monomial(cfg, a, b, c), n)
                        digest.update(f"{q} {a} {b} {c} {n} {out}\n".encode())
        assert engine.check_memo_isobaric() == []
    assert digest.hexdigest() == _REACH_GRID_SHA256
