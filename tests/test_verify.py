"""Ideal membership, the stability report, weight divisibility, derivative
quotients of powers of h and the battery's checks catching wrong values; the
classified ideals, their inclusions and the mod-h congruence are criteria 5
and 6 of the acceptance gate."""

import random
from itertools import count

import pytest

from dqmf import suite
from dqmf.algebra import FieldConfig, PolyT, RatT
from dqmf.hyperd import DerivationEngine, p_powers_upto
from dqmf.qmring import QmPoly, grading, sum_of_products
from dqmf.suite import CHECKS
from dqmf.verify import (
    IdealId,
    check_hyperstable,
    h_power_quotients,
    member,
    random_isobaric,
    random_ratt,
    weight_divisibility_check,
)

from conftest import check_hyperstable_every_order, engine_for


def _rand_d(cfg, rng):
    d = cfg.rat_zero
    while d.is_zero():
        d = random_ratt(cfg, rng)
    return d


def test_ideal_id_validation(cfg):
    with pytest.raises(ValueError):
        IdealId("nope")
    with pytest.raises(ValueError):
        IdealId("Pd", cfg.rat_zero)
    with pytest.raises(ValueError):
        IdealId("max")
    with pytest.raises(ValueError):  # only Pd and max take a parameter
        IdealId("h", cfg.rat_one)


def test_ideal_id_is_a_frozen_value(cfg):
    # two equal parameters built apart, so equality and hashing go by value
    d, d_again = (RatT(cfg, PolyT(cfg, [1, 1]), cfg.poly_one) for _ in range(2))
    pd = IdealId("Pd", d)
    assert d is not d_again and pd == IdealId("Pd", d_again)
    assert hash(pd) == hash(IdealId("Pd", d_again))
    assert pd != IdealId("max", d) and IdealId("h") == IdealId("h") != IdealId("P0")
    assert repr(IdealId("h")) == "IdealId(tag='h', param=None)"
    assert repr(pd) == "IdealId(tag='Pd', param=1 + T)"  # RatT.__repr__ is its str()
    with pytest.raises(AttributeError):
        pd.param = d_again
    with pytest.raises(AttributeError):
        pd.extra = 0


def test_member_basics(cfg):
    E, g, h = QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)
    ok, res = member(IdealId("P0"), g)
    assert not ok and res == g
    assert member(IdealId("P0"), E)[0]
    assert member(IdealId("Pinf"), g * E + h * h)[0]
    assert member(IdealId("h"), h * (E + g) if cfg.q == 3 else h * E)[0]
    assert not member(IdealId("h"), g)[0]


def test_member_pd_generator(cfg):
    rng = random.Random(cfg.q)
    d = _rand_d(cfg, rng)
    gen = QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - QmPoly.gen_g(cfg).scale(d)
    assert member(IdealId("Pd", d), gen)[0]
    assert member(IdealId("Pd", d), QmPoly.gen_h(cfg))[0]
    assert not member(IdealId("Pd", d), QmPoly.gen_g(cfg))[0]


def test_member_pd_random_combinations(cfg):
    """Soundness: u*h + v*(E^(q-1) - d g) is always detected as a member."""
    rng = random.Random(7 * cfg.q)
    d = _rand_d(cfg, rng)
    ideal = IdealId("Pd", d)
    gen = QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - QmPoly.gen_g(cfg).scale(d)
    for _ in range(10):
        u = random_isobaric(cfg, rng, 10)
        v = random_isobaric(cfg, rng, 10)
        f = u * QmPoly.gen_h(cfg) + v * gen
        assert member(ideal, f)[0]
        # and adding a non-member residue breaks it
        assert not member(ideal, f + QmPoly.one(cfg))[0]


def _pd_witness_decomposition(cfg, f, d):
    """Explicit (u, v) with f = h u + (E^(q-1) - d g) v, or None.

    The h-part is the gamma >= 1 slice; the rest is synthetic division by
    g - E^(q-1)/d in the variable g (remainder theorem: the substitution
    residue is the division remainder, so membership is exactly residue 0).
    """
    h_part = QmPoly(cfg)
    h_part.terms = {
        (a, b, c - 1): val for (a, b, c), val in f.terms.items() if c >= 1
    }
    flat = f.kill("h")
    # view flat as a polynomial in g with coefficients in K[E]
    by_g = {}
    for (a, b, _), val in flat.terms.items():
        by_g.setdefault(b, {})[a] = val
    deg = max(by_g, default=0)
    root = QmPoly.monomial(cfg, cfg.q - 1, 0, 0, d.inverse())  # E^(q-1)/d
    quotient = QmPoly.zero(cfg)
    carry = QmPoly.zero(cfg)
    for b in range(deg, 0, -1):
        coeff = QmPoly(cfg)
        coeff.terms = {(a, 0, 0): v for a, v in by_g.get(b, {}).items()}
        carry = coeff + carry
        quotient = quotient + QmPoly.monomial(cfg, 0, b - 1, 0) * carry
        carry = carry * root
    coeff0 = QmPoly(cfg)
    coeff0.terms = {(a, 0, 0): v for a, v in by_g.get(0, {}).items()}
    remainder = coeff0 + carry
    if not remainder.is_zero():
        return None
    # flat = (g - root) * quotient = -(1/d) (E^(q-1) - d g) * quotient
    v = quotient.scale(-d.inverse())
    return h_part, v


def test_member_pd_complete_with_constructive_witness(engine, q):
    """member(Pd, f) is equivalent to an explicit ideal representation."""
    cfg = engine.cfg
    rng = random.Random(43 + q)
    d = _rand_d(cfg, rng)
    ideal = IdealId("Pd", d)
    gen = QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - QmPoly.gen_g(cfg).scale(d)
    h = QmPoly.gen_h(cfg)
    for trial in range(12):
        u = random_isobaric(cfg, rng, 12)
        v = random_isobaric(cfg, rng, 12)
        f = u * h + v * gen
        if trial % 3 == 2:
            f = f + QmPoly.monomial(cfg, trial % 2, (trial // 2) % 2, 0)
        ok, _ = member(ideal, f)
        decomp = _pd_witness_decomposition(cfg, f, d)
        assert ok == (decomp is not None)
        if decomp is not None:
            uu, vv = decomp
            assert uu * h + vv * gen == f


def test_member_monomial_ideals_complete_on_slices(engine, q):
    """For the monomial-kernel ideals, the substitution kernel on a graded
    slice is exactly the span of the basis monomials lying in the ideal."""
    from dqmf.qmring import qm_basis

    cfg = engine.cfg
    cases = {
        "P0": lambda a, b, c: a >= 1 or c >= 1,
        "Pinf": lambda a, b, c: b >= 1 or c >= 1,
        "h": lambda a, b, c: c >= 1,
    }
    for w in (2 * (q - 1), 2 * q + 2, q + 3):
        for m in (0, 1):
            basis = qm_basis(w, m, 3, cfg)
            for tag, inside in cases.items():
                ideal = IdealId(tag)
                for (a, b, c) in basis:
                    got, _ = member(ideal, QmPoly.monomial(cfg, a, b, c))
                    assert got == inside(a, b, c)


def test_member_max_ideal(cfg):
    rng = random.Random(13)
    c = random_ratt(cfg, rng)
    ideal = IdealId("max", c)
    assert member(ideal, QmPoly.gen_g(cfg) - QmPoly.from_scalar(cfg, c))[0]
    assert member(ideal, QmPoly.gen_E(cfg))[0]
    assert not member(ideal, QmPoly.one(cfg))[0]


def test_weight_divisibility(engine, q):
    cfg = engine.cfg
    samples = [
        QmPoly.gen_E(cfg),
        QmPoly.gen_g(cfg),
        QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg),
    ]
    for k in (0, 1):
        if cfg.p ** (k + 1) <= engine.limit:
            assert weight_divisibility_check(engine, k, samples)
        # a p^(k+1)-th power has p^(k+1) | w - l
        for f in samples:
            s = grading(f.frobenius_pow(k + 1))
            assert (s.w - s.l) % cfg.p ** (k + 1) == 0, (str(f), k)


def test_h_power_quotient_nonnegative(engine, q):
    cfg = engine.cfg
    rows = h_power_quotients(engine, 3, min(20, engine.limit))
    for n in (0, 1, 3):
        for r, out in enumerate(rows[n]):
            assert out is not None
            # cross-check: out * h^n = D_r(h^n)
            lhs = out * QmPoly.monomial(cfg, 0, 0, n)
            assert lhs == engine.derive(QmPoly.monomial(cfg, 0, 0, n), r)


def test_h_power_quotient_negative(engine, q):
    """D_r(h^-m) h^m stays polynomial; verified against h^m * h^-m = 1."""
    cfg = engine.cfg
    r_max = min(12, engine.limit)
    rows = h_power_quotients(engine, 3, r_max)
    for m in (1, 2, 3):
        quotients = rows[-m]
        assert None not in quotients
        # Leibniz on h^m * h^(-m) = 1: sum_j D_j(h^m) D_(r-j)(h^(-m)) = 0
        hm = QmPoly.monomial(cfg, 0, 0, m)
        for r in range(1, r_max + 1):
            acc = QmPoly.zero(cfg)
            for j in range(r + 1):
                # D_(r-j)(h^(-m)) = quotients[r-j] * h^(-m)
                acc = acc + engine.derive(hm, j) * quotients[r - j]
            # acc = h^m * sum ... / h^m must vanish
            assert acc.is_zero()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_negative_h_powers_match_the_convolution_of_h_inverse(q):
    """The quotient row of h^-m, which the engine gives as the row of
    h^(P-m), equals the inverse of h^m's own quotient row, built here in the
    ring as u_0 = 1 and u_r = -sum_(j=1..r) Q_j u_(r-j), with every pair
    passed: the reference for the engine route."""
    engine = engine_for(q)
    cfg = engine.cfg
    r_max = min(48, engine.limit)
    k = 5 if q in (4, 5) else 3
    rows = h_power_quotients(engine, k, r_max)
    for m in range(1, k + 1):
        quo = rows[m]
        inverse = [QmPoly.one(cfg)]
        for r in range(1, r_max + 1):
            pairs = ((quo[j], inverse[r - j]) for j in range(1, r + 1))
            inverse.append(-sum_of_products(cfg, pairs))
        assert rows[-m] == inverse, m


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_h_to_each_picked_p_power_has_no_derivative_below_it(q):
    """D_r(h^P) = 0 for 0 < r < P (the Frobenius lemma), so h's quotient
    series Q has Q^P = 1 mod X^P and h_power_quotients reads the row of h^-m
    as that of h^(P-m).  Checked at every p-power P the check picks, the
    least above max(r_max, 3) for some r_max <= limit, through order
    min(P - 1, limit)."""
    engine = engine_for(q)
    cfg = engine.cfg
    picked = {next(cfg.p**j for j in count() if cfg.p**j > max(r_max, 3))
              for r_max in range(engine.limit + 1)}
    for big in sorted(picked):
        h_big = QmPoly.monomial(cfg, 0, 0, big)
        orders = range(1, min(big - 1, engine.limit) + 1)
        assert [r for r in orders if engine.derive(h_big, r).terms] == [], big


def test_stability_report_json(engine):
    rep = check_hyperstable(engine, IdealId("h"), 4)
    data = rep.to_json()
    assert data["pass"] and data["ideal"] == "h" and data["failures"] == []
    assert rep.passed and rep.entries == [(QmPoly.gen_h(engine.cfg), None, None)]


def test_stability_report_of_a_failing_ideal(engine):
    # (g) is not hyperdifferential: D_1 g = -(E g + h), whose residue mod g is -h
    cfg = engine.cfg
    rep = check_hyperstable(engine, IdealId("g"), 4)
    (gen, fail_n, witness), = rep.entries
    assert not rep.passed and (gen, fail_n, witness) == (QmPoly.gen_g(cfg), 1, -QmPoly.gen_h(cfg))
    assert rep.ideal == IdealId("g") and rep.n_max == 4
    assert rep.to_json() == {"ideal": "g", "n_max": 4, "pass": False,
                             "failures": [{"generator": str(gen), "n": 1, "witness": str(witness)}]}


def _stability_ideals(cfg, rng):
    """(h), P0, Pinf, two seeded Pd and one seeded max, then the negative
    controls (E) and (g)."""
    seeded = [IdealId("Pd", _rand_d(cfg, rng)), IdealId("Pd", _rand_d(cfg, rng)),
              IdealId("max", random_ratt(cfg, rng))]
    return [IdealId("h"), IdealId("P0"), IdealId("Pinf"), *seeded, IdealId("E"), IdealId("g")]


every_field = pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")


@every_field
def test_p_power_stability_equals_the_every_order_reference(q):
    engine = engine_for(q)
    n_max = min(engine.limit, 64)
    for ideal in _stability_ideals(engine.cfg, random.Random(q)):
        got = check_hyperstable(engine, ideal, n_max).to_json()
        assert got == check_hyperstable_every_order(engine, ideal, n_max).to_json(), got


@every_field
def test_stability_derives_only_the_p_power_rows(q, monkeypatch):
    # on a warm engine every derive is a memo hit, so the recorded calls are
    # the check's own: each generator at the p-powers <= n_max, or up to its
    # first failure
    cfg = FieldConfig.from_q(q)
    engine = DerivationEngine(cfg)
    n_max = min(engine.limit, 64)
    ideals = _stability_ideals(cfg, random.Random(q))
    for ideal in ideals:
        check_hyperstable(engine, ideal, n_max)
    orders = []
    derive = engine.derive
    monkeypatch.setattr(engine, "derive", lambda f, n: orders.append(n) or derive(f, n))
    for ideal in ideals:
        orders.clear()
        rep = check_hyperstable(engine, ideal, n_max)
        assert orders == [n for _, fail_n, _ in rep.entries
                          for n in p_powers_upto(cfg, fail_n or n_max)], ideal
        if rep.passed:
            assert orders == p_powers_upto(cfg, n_max) * len(rep.entries)


@pytest.mark.parametrize("q", [2, 5], ids=lambda q: f"q{q}")
def test_the_battery_checks_two_distinct_pd(q, monkeypatch):
    # at the default seed the two P_d draws coincide at q = 2 and 5; the
    # battery then checks d and d T, with no further draw
    seen = []

    def recording(engine, ideal, n_max):
        seen.append(ideal)
        return check_hyperstable(engine, ideal, n_max)

    monkeypatch.setattr(suite, "check_hyperstable", recording)
    assert all(r["pass"] for r in suite.run_suite(FieldConfig.from_q(q), n_max=8))
    pds = [ideal for ideal in seen if ideal.tag == "Pd"]
    assert len(pds) == len(set(pds)) == 2, pds


def test_generator_tables_check_catches_a_wrong_composed_value():
    # D_2 E at q = 5 is composed from digits, not read from the table, so a
    # corrupted memo entry there must fail the battery check
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    assert CHECKS["generator_tables"](cfg, engine, random.Random(0), 8, None)["pass"]
    engine._memo[((1, 0, 0), 2)] = QmPoly.zero(cfg)
    out = CHECKS["generator_tables"](cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False and "('E', 2)" in out["witness"]
    # order 1 is qmring.d1, not the table row, so it is compared too
    engine = DerivationEngine(cfg)
    engine._memo[((0, 0, 1), 1)] = QmPoly.zero(cfg)
    out = CHECKS["generator_tables"](cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False and "('h', 1)" in out["witness"]


def test_h_power_quotients_check_catches_a_wrong_generator_value():
    # with D_5 h replaced by g^2, h no longer divides D_5 h, so n = 1 fails
    # from r = 5, and so do h^2 and h^3, whose quotients read D_5 h; at
    # r_max = 8 the rows n < 0 are those of h^24, h^23 and h^22 (P = 25),
    # which read it through the engine's own products of h's series
    cfg = FieldConfig.from_q(5)
    check = CHECKS["h_power_quotients"]
    assert check(cfg, DerivationEngine(cfg), random.Random(0), 8, None)["pass"]
    engine = DerivationEngine(cfg)
    engine._memo[((0, 0, 1), 5)] = QmPoly.monomial(cfg, 0, 2, 0)
    out = check(cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False
    assert out["witness"] == (
        "[(-3, 5), (-3, 6), (-2, 5), (-1, 5), (-1, 6), (-1, 7), (-1, 8), "
        "(1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5)]")
    # a wrong D_5(h^2) with h's row intact fails h^2 alone: h^3 and the
    # powers of the rows n < 0 do not read that entry
    engine = DerivationEngine(cfg)
    engine._memo[((0, 0, 2), 5)] = QmPoly.monomial(cfg, 0, 2, 0)
    out = check(cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False and out["witness"] == "[(2, 5), (2, 6), (2, 7)]"


@pytest.mark.parametrize("t_num, t_den, b, at, passes", [
    (1, 0, 2, (6, 0, 0), False),   # T g^2
    (0, 1, 2, (6, 0, 0), False),   # g^2 / T
    (2, 0, 4, (12, 0, 1), False),  # T^2 g^4, a square but no fourth power
    (2, 0, 2, (6, 0, 0), True),    # T^2 g^2 = (T g)^2
], ids=["T-g2", "g2-over-T", "T2-g4", "T2-g2-passes"])
def test_kernel_suite_check_catches_a_vector_that_is_not_a_p_power(t_num, t_den, b, at, passes):
    # at q = 4 (p = 2) one engine's kernel at (w, m, k) = at is the planted
    # T^t_num g^b / T^t_den; the check must read the exponents of T in the
    # numerator and in the denominator, not only those of E, g and h, and
    # test them against p^{k+1}, not p^k
    cfg = FieldConfig.from_q(4)
    engine = DerivationEngine(cfg)
    coeff = RatT(cfg, PolyT(cfg, [0] * t_num + [1]), PolyT(cfg, [0] * t_den + [1]))
    planted = QmPoly.monomial(cfg, 0, b, 0, coeff)
    kernel_on_modular = engine.kernel_on_modular
    engine.kernel_on_modular = lambda *wmk: [planted] if wmk == at else kernel_on_modular(*wmk)
    out = CHECKS["kernel_suite"](cfg, engine, random.Random(0), 48, None)
    if passes:
        assert out == {"check": "kernel_suite", "params": "q=4", "pass": True}
    else:
        assert out["pass"] is False and out["witness"] == str([(*at, "not a p-power")])
