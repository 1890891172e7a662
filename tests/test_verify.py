"""Ideal membership, hyperdifferential stability, the mod-h congruence,
bracket probes and derivative quotients of powers of h."""

import random

import pytest

from dqmf.algebra import FieldConfig
from dqmf.hyperd import DerivationEngine
from dqmf.qmring import QmPoly, sum_of_products
from dqmf.suite import CHECKS
from dqmf.verify import (
    IdealId,
    check_hyperstable,
    diagram_inclusions,
    h_power_quotients,
    member,
    munu_congruence,
    random_isobaric,
    random_ratt,
    weight_divisibility_check,
)

from conftest import engine_for


def _rand_d(cfg, rng):
    d = cfg.rat_zero
    while d.is_zero():
        d = random_ratt(cfg, rng, 1)
    return d


def test_ideal_id_validation(cfg):
    with pytest.raises(ValueError):
        IdealId("nope")
    with pytest.raises(ValueError):
        IdealId("Pd", cfg.rat_zero)
    with pytest.raises(ValueError):
        IdealId("max")


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
    c = random_ratt(cfg, rng, 1)
    ideal = IdealId("max", c)
    assert member(ideal, QmPoly.gen_g(cfg) - QmPoly.from_scalar(cfg, c))[0]
    assert member(ideal, QmPoly.gen_E(cfg))[0]
    assert not member(ideal, QmPoly.one(cfg))[0]


def test_check_hyperstable_classified_ideals(engine, q):
    rng = random.Random(17 + q)
    cfg = engine.cfg
    n_max = min(24, engine.limit)
    ideals = [IdealId("h"), IdealId("P0"), IdealId("Pinf"),
              IdealId("Pd", _rand_d(cfg, rng)), IdealId("max", random_ratt(cfg, rng, 1))]
    for ideal in ideals:
        report = check_hyperstable(engine, ideal, n_max)
        assert report.passed, report.to_json()
        assert report.to_json()["pass"]


def test_negative_controls_fail(engine, q):
    cfg = engine.cfg
    rep_g = check_hyperstable(engine, IdealId("g"), 4)
    assert not rep_g.passed
    gen, fail_n, witness = rep_g.entries[0]
    assert fail_n == 1
    # D_1 g = -(Eg + h): the residue after killing g-multiples is -h
    assert witness == -QmPoly.gen_h(cfg)
    # D_n E = E^(n+1) stays inside (E) below q; the first escape is at n = q
    rep_E = check_hyperstable(engine, IdealId("E"), q)
    assert not rep_E.passed and rep_E.entries[0][1] == q
    assert rep_E.entries[0][2] is not None


def test_diagram_inclusions(engine):
    rng = random.Random(23)
    cfg = engine.cfg
    ds = [_rand_d(cfg, rng) for _ in range(3)]
    cs = [random_ratt(cfg, rng, 1) for _ in range(2)]
    checks = diagram_inclusions(engine, ds, cs)
    assert checks and all(ok for _, ok in checks)


def test_munu_congruence_small(engine, q):
    assert munu_congruence(engine, 0, 0, 5)
    # mu=1: C(1+n-1, n) = 1 for n < q, giving E^(1+n)
    for n in range(1, min(q, engine.limit)):
        assert munu_congruence(engine, 1, 0, n)
    rng = random.Random(29 + q)
    for _ in range(12):
        mu, nu = rng.randint(0, 5), rng.randint(0, 5)
        n = rng.randint(0, min(24, engine.limit))
        assert munu_congruence(engine, mu, nu, n)


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


def test_h_power_quotient_nonnegative(engine, q):
    cfg = engine.cfg
    for n in (0, 1, 3):
        for r, out in enumerate(h_power_quotients(engine, n, min(20, engine.limit))):
            assert out is not None
            # cross-check: out * h^n = D_r(h^n)
            lhs = out * QmPoly.monomial(cfg, 0, 0, n)
            assert lhs == engine.derive(QmPoly.monomial(cfg, 0, 0, n), r)


def test_h_power_quotient_negative(engine, q):
    """D_r(h^-m) h^m stays polynomial; verified against h^m * h^-m = 1."""
    cfg = engine.cfg
    r_max = min(12, engine.limit)
    for m in (1, 2, 3):
        quotients = h_power_quotients(engine, -m, r_max)
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


@pytest.mark.parametrize(
    "q", [pytest.param(3, marks=pytest.mark.experimental), 4, 5, 7, 9], ids=lambda q: f"q{q}"
)
def test_negative_h_powers_match_the_convolution_of_h_inverse(q):
    """The quotient sequence of h^-m, the inverse of h^m's, equals the m-fold
    Leibniz convolution D_r(xy)/xy = sum_i (D_i x/x)(D_(r-i) y/y) of h^-1's."""
    engine = engine_for(q)
    cfg = engine.cfg
    r_max = min(24, engine.limit)
    u = h_power_quotients(engine, -1, r_max)
    conv = u
    for m in (2, 3):
        conv = [sum_of_products(cfg, ((conv[i], u[r - i]) for i in range(r + 1)))
                for r in range(r_max + 1)]
        assert h_power_quotients(engine, -m, r_max) == conv, m


def test_stability_report_json(engine):
    rep = check_hyperstable(engine, IdealId("h"), 4)
    data = rep.to_json()
    assert data["pass"] and data["ideal"] == "h" and data["failures"] == []


def test_generator_tables_check_catches_a_wrong_composed_value():
    # D_2 E at q = 5 is composed from digits, not read from the table, so a
    # corrupted memo entry there must fail the battery check
    cfg = FieldConfig.from_q(5)
    engine = DerivationEngine(cfg)
    assert CHECKS["generator_tables"](cfg, engine, random.Random(0), 8, None)["pass"]
    engine._memo[((1, 0, 0), 2)] = QmPoly.zero(cfg)
    out = CHECKS["generator_tables"](cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False and "('E', 2)" in out["witness"]


def test_h_power_quotients_check_catches_a_wrong_generator_value():
    # with D_1 h replaced by g, h no longer divides D_1 h, so n = 1 fails
    # and, through the inverted quotient sequence, so does every negative n
    cfg = FieldConfig.from_q(5)
    check = CHECKS["h_power_quotients"]
    assert check(cfg, DerivationEngine(cfg), random.Random(0), 8, None)["pass"]
    engine = DerivationEngine(cfg)
    engine._memo[((0, 0, 1), 1)] = QmPoly.gen_g(cfg)
    out = check(cfg, engine, random.Random(0), 8, None)
    assert out["pass"] is False
    for n in (1, -1, -2, -3):
        assert f"({n}, 1)" in out["witness"]
