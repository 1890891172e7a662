"""Acceptance gate: every criterion at its stated (exact) tolerance.

All arithmetic is exact, so every comparison below is equality of canonical
forms; there are no numeric tolerances anywhere.  Main suites run over the
desk-scale fields q in {4, 5, 7, 8, 9}; criteria 2, 3 and 5
(``every_field``) add q = 2 and 3.  Each check prints one PASS/FAIL
line (visible with pytest -s, and in captured output on failure).

Where a stated horizon exceeds the engine's computable range
(n <= p q^2 - 1), the horizon is capped at the range, mirroring the
min(64, limit) convention used by the invariants.
"""

import random
import time
from contextlib import contextmanager

import pytest

from dqmf.algebra import FieldConfig, RatT, binom_mod_p, power
from dqmf.hyperd import DerivationEngine, p_powers_upto
from dqmf.qmring import (
    QmPoly,
    grading,
    monomial_signature,
    qm_basis,
)
from dqmf.tseries import (
    evaluate,
    expand_E,
    expand_g,
    expand_h,
    hyper_derive,
    nu_infinity,
)
from dqmf.verify import (
    IdealId,
    check_hyperstable,
    h_power_quotients,
    member,
    munu_congruence,
    random_isobaric,
    random_ratt,
)

from conftest import (
    _d, _inv_d, associated_polynomial, check_every_generator_order_against_the_series,
    depth_drop, engine_for, expected_generator_value, pth_root, transform_depth_poly,
)

SEED = 20260808
CASES_PER_FIELD = 200  # x 5 fields = 1000 randomized cases per property suite


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _rng(q, salt):
    return random.Random(SEED * 1000 + q * 10 + salt)


every_field = pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")


# ---------------------------------------------------------------------------
# 1. Golden generator tables
# ---------------------------------------------------------------------------


def test_criterion_1_generator_tables(q):
    with criterion(f"1 generator tables [q={q}]"):
        start = time.monotonic()
        engine = DerivationEngine(FieldConfig.from_q(q))  # fresh: timing is honest
        cfg = engine.cfg
        for gen in ("E", "g", "h"):
            for n in range(q):
                assert engine.d_generator(gen, n) == expected_generator_value(cfg, gen, n)
            for n in p_powers_upto(cfg, q * q):
                assert engine.d_generator(gen, n) == expected_generator_value(cfg, gen, n)
        if q == cfg.p and q in (5, 7):
            # prime-field systems, verbatim (both displayed layers)
            p = q
            mono = QmPoly.monomial
            d1, d2 = _d(cfg, 1), _d(cfg, 2)

            def d1_to(k):
                return power(d1, k, cfg.rat_one)

            assert engine.d_generator("E", p) == mono(cfg, p + 1, 0, 0) + mono(
                cfg, 0, 0, 2, _inv_d(cfg, 1, 1)
            )
            assert engine.d_generator("g", p) == mono(cfg, p, 1, 0)
            assert engine.d_generator("h", p) == mono(cfg, p, 0, 1).scale_int(2) - mono(
                cfg, 0, 1, 2, _inv_d(cfg, 1, 1)
            )
            assert engine.d_generator("E", p * p) == (
                mono(cfg, p * p + 1, 0, 0)
                + mono(cfg, 0, p - 1, p + 1, _inv_d(cfg, 1, p))
                + mono(cfg, 0, 2 * p, 2, _inv_d(cfg, 2, 1))
            )
            assert engine.d_generator("g", p * p) == (
                mono(cfg, p * p, 1, 0)
                - mono(cfg, 0, p + 1, p, d1 * d2.inverse())
                + mono(cfg, 0, 0, 2 * p - 1, (d2 - d1_to(p + 1)) * (d1_to(p - 1) * d2).inverse())
            )
            assert engine.d_generator("h", p * p) == (
                mono(cfg, p * p, 0, 1)
                + mono(cfg, p, p - 1, p, _inv_d(cfg, 1, p - 1))
                - mono(cfg, 0, 2 * p + 1, 2, _inv_d(cfg, 2, 1))
                - mono(cfg, 0, p, p + 1, (d1_to(p + 1) + d2) * (d1_to(p) * d2).inverse())
            )
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"table check took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Series cross-validation
# ---------------------------------------------------------------------------


@every_field
def test_criterion_2_series_cross_validation(q):
    """D_n x for x in {E, g, h} at every order 1 <= n <= limit, t-expanded,
    equals the series D_n of x's lattice-sum expansion: the tables and the
    digit step's orders above them meet an independent route.  A fresh
    engine per field, so every generator order is filled here."""
    with criterion(f"2 series cross-validation [q={q}]"):
        check_every_generator_order_against_the_series(q)


# ---------------------------------------------------------------------------
# 3. The thirteen listed leading terms
# ---------------------------------------------------------------------------


@every_field
def test_criterion_3_expansion_leading_terms(q):
    with criterion(f"3 expansion leading terms [q={q}]"):
        cfg = FieldConfig.from_q(q)
        p, e = cfg.p, cfg.e
        one = cfg.rat_one
        N = q * q + q + 2
        E, g, h = expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N)
        d1 = _d(cfg, 1)

        # E, g and h have their coefficients in A = F_q[T]; E and h vanish at
        # infinity to order 1 (no constant term)
        assert all(v.den.is_one() for s in (E, g, h) for v in s.terms.values())
        assert nu_infinity(E) == nu_infinity(h) == 1

        # (i) E = t + t^(q^2-2q+2) + ...
        assert E.coeff(1) == one and E.coeff(q * q - 2 * q + 2) == one
        assert not [n for n in E.terms if 1 < n < q * q - 2 * q + 2]
        # (ii) g = 1 - d1 t^(q-1) - d1 t^(q^3-2q^2+2q-1) + ..., deep order
        deep = q**3 - 2 * q * q + 2 * q - 1
        g_deep = expand_g(cfg, deep + 1)
        assert g_deep.coeff(0) == one
        assert g_deep.coeff(q - 1) == -d1
        assert g_deep.coeff(deep) == -d1
        assert not [n for n in g_deep.terms if q - 1 < n < deep]
        # (iii) h = -t - t^(q^2-2q+2) + ...
        assert h.coeff(1) == -one and h.coeff(q * q - 2 * q + 2) == -one
        assert not [n for n in h.terms if 1 < n < q * q - 2 * q + 2]
        # (iv)-(vi) order q
        DqE, Dqg, Dqh = hyper_derive(E, q), hyper_derive(g, q), hyper_derive(h, q)
        assert DqE.coeff(2) == _inv_d(cfg, 1, 1) and DqE.coeff(q + 1) == one
        assert not [n for n in DqE.terms if n < 2]
        assert Dqg.coeff(q) == one and not [n for n in Dqg.terms if n < q]
        assert Dqh.coeff(2) == -_inv_d(cfg, 1, 1) and Dqh.coeff(q + 1) == -one
        # (vii)-(ix) strict p-powers between q and q^2 (extension fields only)
        for i in range(e + 1, 2 * e):
            n = p**i
            s = p ** (i - e)
            DE, Dg, Dh = hyper_derive(E, n), hyper_derive(g, n), hyper_derive(h, n)
            assert DE.coeff(s + 1) == _inv_d(cfg, 1, s)
            assert not [m for m in DE.terms if m < s + 1]
            assert not [m for m in Dg.terms if m < s + 1]  # O(t^(s+1))
            assert Dh.coeff(s + 1) == -_inv_d(cfg, 1, s)
            assert not [m for m in Dh.terms if m < s + 1]
        # (x) D_(p^j - q) h = -(1/d1^(s-1)) t^s + ... for q < p^j <= q^2
        for j in range(e + 1, 2 * e + 1):
            n = p**j - q
            s = p ** (j - e)
            Dh = hyper_derive(h, n)
            assert Dh.coeff(s) == -_inv_d(cfg, 1, s - 1)
            assert not [m for m in Dh.terms if m < s]
        # (xi)-(xiii) order q^2
        D2E, D2g, D2h = (
            hyper_derive(E, q * q),
            hyper_derive(g, q * q),
            hyper_derive(h, q * q),
        )
        assert D2E.coeff(2) == _inv_d(cfg, 2, 1)
        assert D2E.coeff(q + 1) == _inv_d(cfg, 1, q)
        assert D2g.coeff(q) == d1 * _inv_d(cfg, 2, 1)
        assert D2g.coeff(2 * q - 1) == -_inv_d(cfg, 1, q - 1)
        assert not [m for m in D2g.terms if m < q]
        assert D2h.coeff(2) == -_inv_d(cfg, 2, 1)
        assert D2h.coeff(q + 1) == -_inv_d(cfg, 1, q)


# ---------------------------------------------------------------------------
# 4. Property suites (1000 randomized cases each, fixed seed)
# ---------------------------------------------------------------------------


def _order_sample(rng, cap):
    # mixed distribution: mostly small orders, a tail up to the cap
    if rng.random() < 0.75:
        return rng.randint(0, min(16, cap))
    return rng.randint(0, cap)


def test_criterion_4_iterativity(q):
    with criterion(f"4a iterativity [q={q}]"):
        engine = engine_for(q)
        rng = _rng(q, 1)
        cap = min(64, engine.limit)
        for _ in range(CASES_PER_FIELD):
            f = random_isobaric(engine.cfg, rng, 30)
            i = _order_sample(rng, cap)
            j = _order_sample(rng, cap - i)
            lhs = engine.derive(engine.derive(f, j), i)
            rhs = engine.derive(f, i + j).scale_int(binom_mod_p(i + j, i, engine.cfg.p))
            assert lhs == rhs, (str(f), i, j)


def test_criterion_4_leibniz(q):
    with criterion(f"4b Leibniz [q={q}]"):
        engine = engine_for(q)
        rng = _rng(q, 2)
        for _ in range(CASES_PER_FIELD):
            f = random_isobaric(engine.cfg, rng, 16)
            g = random_isobaric(engine.cfg, rng, 16)
            n = _order_sample(rng, min(32, engine.limit))
            lhs = engine.derive(f * g, n)
            rhs = QmPoly.zero(engine.cfg)
            for r in range(n + 1):
                rhs = rhs + engine.derive(f, r) * engine.derive(g, n - r)
            assert lhs == rhs, (str(f), str(g), n)


def test_criterion_4_frobenius(q):
    with criterion(f"4c Frobenius [q={q}]"):
        engine = engine_for(q)
        cfg = engine.cfg
        rng = _rng(q, 3)
        for _ in range(CASES_PER_FIELD):
            k = rng.randint(1, 2)
            n = rng.randint(1, q)
            if n * cfg.p**k > engine.limit:
                k = 1
                n = min(n, engine.limit // cfg.p)
            f = random_isobaric(cfg, rng, 12)
            # both p^k-th powers by square-and-multiply (**), not by
            # QmPoly.frobenius_pow, which the engine's p-th-power rows use
            pk = cfg.p**k
            lhs = engine.derive(f**pk, n * pk)
            rhs = engine.derive(f, n) ** pk
            assert lhs == rhs, (str(f), k, n)


def test_criterion_4_grading_contract(q):
    with criterion(f"4d grading contract [q={q}]"):
        engine = engine_for(q)
        cfg = engine.cfg
        rng = _rng(q, 4)
        for _ in range(CASES_PER_FIELD):
            f = random_isobaric(cfg, rng, 24)
            s = grading(f)
            n = _order_sample(rng, min(48, engine.limit))
            d = engine.derive(f, n)
            if d.is_zero():
                continue
            sd = grading(d)
            assert sd.w == s.w + 2 * n
            assert q == 2 or sd.m == (s.m + n) % (q - 1)
            assert sd.l <= s.l + n


def test_criterion_4_depth_poly_dual_route(q):
    with criterion(f"4e depth polynomial dual route [q={q}]"):
        engine = engine_for(q)
        rng = _rng(q, 5)
        for _ in range(CASES_PER_FIELD):
            f = random_isobaric(engine.cfg, rng, 16)
            n = _order_sample(rng, min(20, engine.limit))
            lhs = transform_depth_poly(engine, f, n)
            assert lhs == associated_polynomial(engine.derive(f, n)), (str(f), n)


def test_criterion_4_depth_drop(q):
    with criterion(f"4f depth drop on generic elements [q={q}]"):
        engine = engine_for(q)
        cfg = engine.cfg
        rng = _rng(q, 6)
        done = 0
        while done < CASES_PER_FIELD:
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            sig = monomial_signature(cfg, a, b, c)
            if sig.w > 30:
                continue
            basis = qm_basis(sig.w, sig.m, a, cfg)
            if not basis or max(x[0] for x in basis) != a:
                continue
            # generic element: every slot holds a distinct nonzero coefficient
            f = QmPoly.zero(cfg)
            for idx, expo in enumerate(basis):
                f.terms[expo] = RatT(cfg, cfg.poly_T ** (idx + 1)) + RatT.from_int(
                    cfg, 1 + idx % (cfg.p - 1) if cfg.p > 2 else 1
                )
            n = rng.randint(1, min(24, engine.limit))
            d = engine.derive(f, n)
            dropped = max((k[0] for k in d.terms), default=-1) < a + n
            assert dropped == depth_drop(sig.w, a, n, cfg.p), (str(f), n)
            done += 1


def test_criterion_4_coefficient_transform(q):
    with criterion(f"4g coefficient-form transform [q={q}]"):
        cfg = FieldConfig.from_q(q)
        rng = _rng(q, 7)
        for _ in range(CASES_PER_FIELD):
            f = random_isobaric(cfg, rng, 20)
            P = associated_polynomial(f)
            # the depth polynomial of coefficient i is sum_j C(j, i) P_j Y^(j-i)
            for i in range(len(P)):
                transform = [P[j].scale_int(binom_mod_p(j, i, cfg.p)) for j in range(i, len(P))]
                while transform and transform[-1].is_zero():
                    transform.pop()
                assert tuple(transform) == associated_polynomial(P[i])


def test_criterion_4_binomial_identity_sweep():
    with criterion("4h binomial convolution identity sweep"):
        for p in (2, 3, 5):
            for M in range(21):
                for W in range(21):
                    for N in range(21):
                        total = 0
                        for i in range(N + 1):
                            s = binom_mod_p(M, N - i, p) * binom_mod_p(W + i - 1, i, p)
                            total += -s if i % 2 else s
                        assert total % p == binom_mod_p(M - W, N, p)


# ---------------------------------------------------------------------------
# 5. Ideal classification
# ---------------------------------------------------------------------------


@every_field
def test_criterion_5_ideal_classification(q):
    with criterion(f"5 ideal classification [q={q}]"):
        engine = engine_for(q)
        cfg = engine.cfg
        rng = _rng(q, 8)
        n_max = min(64, engine.limit)

        ideals = [IdealId("h"), IdealId("P0"), IdealId("Pinf")]
        ds = []
        while len(ds) < 5:
            d = random_ratt(cfg, rng)
            if not d.is_zero():
                ds.append(d)
        cs = [random_ratt(cfg, rng) for _ in range(3)]
        ideals += [IdealId("Pd", d) for d in ds]
        ideals += [IdealId("max", c) for c in cs]
        for ideal in ideals:
            report = check_hyperstable(engine, ideal, n_max)
            assert report.passed, report.to_json()

        # negative controls with recorded witnesses: (g) escapes at n = 1
        # (residue -h); (E) escapes at its first p-power >= q (D_n E = E^(n+1)
        # keeps it inside below q)
        rep_g = check_hyperstable(engine, IdealId("g"), n_max)
        assert not rep_g.passed
        gen_g, fail_g, wit_g = rep_g.entries[0]
        assert fail_g == 1 and wit_g == -QmPoly.gen_h(cfg)
        rep_E = check_hyperstable(engine, IdealId("E"), n_max)
        assert not rep_E.passed
        gen_E, fail_E, wit_E = rep_E.entries[0]
        assert fail_E == q and wit_E is not None and not wit_E.is_zero()

        # diagram of inclusions, on generators: (h) lies in P_0, P_inf and
        # every P_d; these lie in (E, g, h), and P_0 in every (E, g - c, h)
        def inside(small, big):
            return all(member(big, G)[0] for G in small.generators(cfg))

        princ_h, p0, pinf = ideals[:3]
        pds = [IdealId("Pd", d) for d in ds]
        maximal0 = IdealId("max", cfg.rat_zero)
        inclusions = ([(princ_h, big) for big in [p0, pinf] + pds]
                      + [(small, maximal0) for small in [p0, pinf] + pds]
                      + [(p0, IdealId("max", c)) for c in cs])
        assert [pair for pair in inclusions if not inside(*pair)] == []
        assert not inside(p0, pinf) and not inside(pinf, p0)


# ---------------------------------------------------------------------------
# 6. The mod-h congruence
# ---------------------------------------------------------------------------


def test_criterion_6_munu_congruence(q):
    with criterion(f"6 mod-h congruence [q={q}]"):
        engine = engine_for(q)
        n_max = min(32, engine.limit)
        for mu in range(7):
            for nu in range(7):
                for n in range(n_max + 1):
                    assert munu_congruence(engine, mu, nu, n), (mu, nu, n)


# ---------------------------------------------------------------------------
# 7. Kernel suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qk", [4, 5], ids=lambda v: f"q{v}")
def test_criterion_7_kernel_suite(qk):
    with criterion(f"7 kernel suite [q={qk}]"):
        engine = engine_for(qk)
        cfg = engine.cfg
        q, p = cfg.q, cfg.p
        N = q * q + q + 2
        for k in (0, 1):
            pk1 = p ** (k + 1)
            for w in range(0, 12 * (q - 1) + 1):
                for m in range(q - 1):
                    kernel = engine.kernel_on_modular(w, m, k)
                    if w % pk1 != 0 or w == 0:
                        if w == 0:
                            # constants survive every derivative
                            continue
                        assert kernel == [], (w, m, k)
                        continue
                    for v in kernel:
                        root = v
                        for _ in range(k + 1):
                            root = pth_root(root)
                        assert root.frobenius_pow(k + 1) == v
                        sv = evaluate(v, N)
                        assert all(n % pk1 == 0 for n in sv.terms), (w, m, k)


# ---------------------------------------------------------------------------
# 8. Derivative quotients of powers of h
# ---------------------------------------------------------------------------


def test_criterion_8_h_power_quotients(q):
    with criterion(f"8 h-power derivative quotients [q={q}]"):
        engine = engine_for(q)
        r_max = min(64, engine.limit)
        rows = h_power_quotients(engine, 5, r_max)
        for n in range(-5, 6):
            missing = [r for r, x in enumerate(rows[n]) if x is None]
            assert not missing, (n, missing)
