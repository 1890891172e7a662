"""Engine tests: generator tables, Leibniz/iterativity/Frobenius laws,
depth drop, the depth-polynomial transport, residues and kernels."""

import hashlib
import math
import random
import sys
import threading

import pytest

from dqmf import hyperd
from dqmf.algebra import (
    FieldConfig, RatT, _coprime_parts, _den_pair, _den_product, binom_mod_p, d_power,
)
from dqmf.hyperd import (
    _GENERATORS, DerivationEngine, OrderOutOfRange, depth_drop, generator_table,
)
from dqmf.qmring import (
    QmPoly,
    associated_polynomial,
    d1,
    grading,
    qm_basis,
    sum_of_products,
)
from dqmf.suite import p_powers_upto
from dqmf.verify import random_isobaric

from conftest import (
    _ratio_of_linears, _reference_add, _reference_mul, engine_for, expected_generator_value,
)


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


def _isobaric_requests(cfg, rng, count, w_max=20, n_max=24):
    """Seeded multi-term isobaric elements with (a + bT)/(c + dT) coefficients,
    each with an order, built from the grading formula."""
    q = cfg.q

    def sig(t):
        return 2 * t[0] + (q - 1) * t[1] + (q + 1) * t[2], (t[0] + t[2]) % (q - 1)

    monos = [(a, b, c) for a in range(w_max // 2 + 1) for b in range(w_max // (q - 1) + 1)
             for c in range(w_max // (q + 1) + 1) if 0 < sig((a, b, c))[0] <= w_max]
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
            twin[j] = (terms[j][0], -(terms[i][1] * c1) / c2)
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
    the input (D_0 f included).  A private engine keeps a failure local."""
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    for gen, mono in _GENERATORS.items():
        f = QmPoly.monomial(cfg, *mono)
        for n in (0, 1, q, q + 1, 5):
            expected = str(engine.d_generator(gen, n))
            engine.d_generator(gen, n).terms.clear()
            engine.derive(f, n).terms.clear()
            assert str(engine.d_generator(gen, n)) == expected
            assert str(engine.derive(f, n)) == expected
        assert str(f) == gen
    g = random_isobaric(cfg, random.Random(q), 12)
    expected = str(g)
    engine.derive(g, 0).terms.clear()
    assert str(g) == expected and engine.derive(g, 0) == g


def test_derive_rejects_an_element_of_another_field():
    # constants and zero too: they carry their field but no generator
    engine, cfg5 = engine_for(4), FieldConfig.from_q(5)
    for f in (QmPoly.one(cfg5), QmPoly.zero(cfg5), QmPoly.gen_E(cfg5) + QmPoly.gen_g(cfg5)):
        for n in (0, 1, 5):
            with pytest.raises(ValueError, match="different fields"):
                engine.derive(f, n)
            with pytest.raises(ValueError, match="different fields"):
                engine.transform_depth_poly(associated_polynomial(f), 2, n)


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
        assert dropped == depth_drop(sig.w, a, n, cfg.p)
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
        assert r.deg_E() <= 0 and all(k[2] >= 1 for k in r.terms)
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


def _E_peeled(engine, mono, n):
    """D_n(E^a g^b h^c), a >= 1, by the Leibniz rule on E^{p^k} * rest, p^k
    the lowest base-p place of a: the sum over p^k | r of
    (D_{r/p^k} E)^{p^k} D_{n-r}(rest), each factor read from `engine`."""
    cfg, p = engine.cfg, engine.cfg.p
    a, b, c = mono
    k = 0
    while a % p**(k + 1) == 0:
        k += 1
    rest = QmPoly.monomial(cfg, a - p**k, b, c)
    out = QmPoly.zero(cfg)
    for r in range(0, n + 1, p**k):
        out = out + engine.d_generator("E", r // p**k).frobenius_pow(k) * engine.derive(rest, n - r)
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_peeling_g_matches_peeling_E(q):
    # every E^a g^b h^c with a, b >= 1 up to the weight of E g^p, whose g
    # atom is a p-th power, so a peeled g atom's Frobenius twist is covered;
    # the cap at weight 26 leaves E g^7 out at q = 7 only
    cfg = FieldConfig.from_q(q)
    engine, reference = DerivationEngine(cfg), DerivationEngine(cfg)
    w_max = min(2 + cfg.p * (q - 1), 26)
    monos = [(a, b, c) for a in range(1, w_max) for b in range(1, w_max) for c in range(w_max)
             if 2 * a + (q - 1) * b + (q + 1) * c <= w_max]
    for mono in monos:
        f = QmPoly.monomial(cfg, *mono)
        for n in range(min(engine.limit, 40) + 1):
            assert engine.derive(f, n) == _E_peeled(reference, mono, n), (mono, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_lifted_monomials_match_peeling_E(q):
    # every g-free E^a h^c with p not dividing a up to weight 26, the lift
    # rule's domain, at every order up to min(limit, 48): at q = 2, 3 and 4
    # that reaches the orders near the limit, where the rule falls back to
    # the peel
    cfg = FieldConfig.from_q(q)
    engine, reference = DerivationEngine(cfg), DerivationEngine(cfg)
    monos = [(a, 0, c) for a in range(1, 14) for c in range(26 // (q + 1) + 1)
             if a % cfg.p and 2 * a + (q + 1) * c <= 26]
    for mono in monos:
        f = QmPoly.monomial(cfg, *mono)
        for n in range(min(engine.limit, 48) + 1):
            assert engine.derive(f, n) == _E_peeled(reference, mono, n), (mono, n)


def _leibniz_reference(engine, mono, n):
    """D_n(E^a g^b h^c), p not dividing n, with every factor read from
    `engine`.  A generator x is n^{-1} D_1(D_{n-1} x), D_1 taken through the
    engine's order-1 rules (tables, lift, peel) and not qmring.d1.  Any other
    monomial is x^{p^k} * rest, x its first generator in the order g, E, h
    and p^k the lowest base-p place of x's exponent: the Leibniz sum over
    p^k | r of (D_{r/p^k} x)^{p^k} D_{n-r}(rest)."""
    cfg, p = engine.cfg, engine.cfg.p
    i = next(i for i in (1, 0, 2) if mono[i])
    gen = "Egh"[i]
    if sum(mono) == 1:
        return engine.derive(engine.d_generator(gen, n - 1), 1).scale_int(pow(n, p - 2, p))
    k = 0
    while mono[i] % p**(k + 1) == 0:
        k += 1
    rest = QmPoly.monomial(cfg, *(e - p**k * (j == i) for j, e in enumerate(mono)))
    lefts = [(r, engine.d_generator(gen, r // p**k)) for r in range(0, n + 1, p**k)]
    return sum_of_products(cfg, ((left.frobenius_pow(k) if k else left, engine.derive(rest, n - r))
                                 for r, left in lefts if not left.is_zero()))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_the_d1_step_matches_the_leibniz_rule(q):
    # every monomial of weight <= 26 at every order n <= min(limit, 48) with
    # p not dividing n, where D_n = n^{-1} D_1(D_{n-1}) (the step), checked
    # against a reference engine that derives its factors the same way
    cfg = FieldConfig.from_q(q)
    engine, reference = DerivationEngine(cfg), DerivationEngine(cfg)
    monos = [(a, b, c) for a in range(14) for b in range(27) for c in range(27)
             if 0 < 2 * a + (q - 1) * b + (q + 1) * c <= 26]
    for n in range(1, min(engine.limit, 48) + 1):
        if n % cfg.p:
            for mono in monos:
                f = QmPoly.monomial(cfg, *mono)
                assert engine.derive(f, n) == _leibniz_reference(reference, mono, n), (mono, n)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_g_derivatives_vanish_unless_the_order_is_0_or_1_mod_q(q):
    # the premise of peeling g: its atom has fewer nonzero left factors
    engine = engine_for(q)
    for n in range(min(engine.limit, 130) + 1):
        if n % q not in (0, 1):
            assert engine.d_generator("g", n).is_zero(), n


def _count_term_pairs(monkeypatch):
    """Count the term pairs of each engine kernel call into the returned list."""
    counted = []

    def counting(cfg, pairs):
        pairs = list(pairs)
        counted.append(sum(len(x.terms) * len(y.terms) for x, y in pairs))
        return sum_of_products(cfg, pairs)

    monkeypatch.setattr(hyperd, "sum_of_products", counting)
    return counted


def test_warm_up_term_pairs_stay_at_the_g_peel_count(monkeypatch):
    """A q = 5 warm-up, every monomial of weight <= 20 at every order
    1 <= n <= 32 (orders outermost), multiplies at most 10,934 term pairs
    in the engine's kernel calls: at orders prime to p every monomial takes
    the D_1 step, which makes no kernel call.  Without that step the g peel
    and the lift make 66,805, without the lift too 111,251, and an E-first
    peel without either 222,241."""
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    counted = _count_term_pairs(monkeypatch)
    monos = [(a, b, c) for a in range(11) for b in range(6) for c in range(4)
             if 0 < 2 * a + 4 * b + 6 * c <= 20]
    for n in range(1, 33):
        for mono in monos:
            engine.derive(QmPoly.monomial(cfg, *mono), n)
    assert sum(counted) <= 10_934


def test_lifts_keep_frobenius_sparsity(monkeypatch):
    """D_{7k}((E^2 h)^7) = (D_k(E^2 h))^7 on a cold q = 7 engine, k <= 6, in
    at most 125 term pairs (90 with the lift): E^14 h^7 has p | a, so it is
    peeled by its E^7 atom, and lifting it instead makes 1,064."""
    cfg = FieldConfig.from_q(7)
    engine = DerivationEngine(cfg)
    counted = _count_term_pairs(monkeypatch)
    x = QmPoly.monomial(cfg, 2, 0, 1)
    for k in range(7):
        assert engine.derive(x.frobenius_pow(1), 7 * k) == engine.derive(x, k).frobenius_pow(1)
    assert sum(counted) <= 125
