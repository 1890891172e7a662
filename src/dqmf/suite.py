"""The runnable verification battery behind `dqmf verify`.

Each check returns {check, params, pass, witness?}; the CLI exits nonzero
if any fails.  The pytest acceptance suite runs the same material at full
scale; this battery is sized to finish in seconds per field.
"""

from __future__ import annotations

import random

from .algebra import RatT, d_power
from .hyperd import DerivationEngine, _inv_d, generator_table
from .qmring import QmPoly, associated_polynomial, grading
from .tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive, nu_infinity
from .verify import (
    IdealId,
    check_hyperstable,
    diagram_inclusions,
    h_power_quotients,
    munu_congruence,
    random_isobaric,
    random_ratt,
    weight_divisibility_check,
)

__all__ = ["run_suite", "CHECKS"]


def _d(cfg, i):
    return RatT(cfg, d_power(i, 1, cfg))


def p_powers_upto(cfg, bound):
    out = []
    v = 1
    while v <= bound:
        out.append(v)
        v *= cfg.p
    return out


def generator_table_orders(cfg):
    """The orders generator_table covers: n < q and the p-powers <= q^2."""
    return sorted(set(range(cfg.q)).union(p_powers_upto(cfg, cfg.q**2)))


def series_check_orders(cfg):
    q = cfg.q
    ns = set(range(1, q + 1))
    for pk in p_powers_upto(cfg, q * q):
        ns.add(pk)
        if pk - 1 >= 1:
            ns.add(pk - 1)
        if pk - q >= 1:
            ns.add(pk - q)
    return sorted(ns)


def _series_order(cfg, order):
    """The truncation order of the series checks: ``order``, or q^2 + q + 2."""
    return cfg.q**2 + cfg.q + 2 if order is None else order


def _result(check, params, bad):
    """One battery record; a nonempty ``bad`` fails it and becomes the witness."""
    out = {"check": check, "params": params, "pass": not bad}
    if bad:
        out["witness"] = str(bad)
    return out


def _check_generator_tables(cfg, engine, rng, n_max, order):
    # the engine reads the p-power rows from generator_table itself, so only
    # the orders it composes from digits are compared; the p-powers are
    # checked against the series oracle by series_commutation
    powers = p_powers_upto(cfg, cfg.q)
    bad = []
    for gen in ("E", "g", "h"):
        for n in range(cfg.q):
            if n not in powers and engine.d_generator(gen, n) != generator_table(cfg, gen, n):
                bad.append((gen, n))
    return _result("generator_tables", f"q={cfg.q}", bad)


def _check_series_commutation(cfg, engine, rng, n_max, order):
    N = _series_order(cfg, order)
    gens = {"E": QmPoly.gen_E(cfg), "g": QmPoly.gen_g(cfg), "h": QmPoly.gen_h(cfg)}
    series = {"E": expand_E(cfg, N), "g": expand_g(cfg, N), "h": expand_h(cfg, N)}
    bad = []
    for name, f in gens.items():
        for n in series_check_orders(cfg):
            if evaluate(engine.derive(f, n), N) != hyper_derive(series[name], n):
                bad.append((name, n))
    return _result("series_commutation", f"q={cfg.q} N={N}", bad)


def _check_leading_terms(cfg, engine, rng, n_max, order):
    N = _series_order(cfg, order)
    q = cfg.q
    E, g, h = expand_E(cfg, N), expand_g(cfg, N), expand_h(cfg, N)
    one = cfg.rat_one
    probes = [
        ("E t", E.coeff(1), one),
        ("E t^(q^2-2q+2)", E.coeff(q * q - 2 * q + 2), one),
        ("g 1", g.coeff(0), one),
        ("g t^(q-1)", g.coeff(q - 1), -_d(cfg, 1)),
        ("h t", h.coeff(1), -one),
        ("h t^(q^2-2q+2)", h.coeff(q * q - 2 * q + 2), -one),
        ("DqE t^2", hyper_derive(E, q).coeff(2), _inv_d(cfg, 1, 1)),
        ("Dqg t^q", hyper_derive(g, q).coeff(q), one),
        ("Dqh t^2", hyper_derive(h, q).coeff(2), -_inv_d(cfg, 1, 1)),
        ("Dq2E t^2", hyper_derive(E, q * q).coeff(2), _inv_d(cfg, 2, 1)),
        ("Dq2g t^q", hyper_derive(g, q * q).coeff(q), _d(cfg, 1) * _inv_d(cfg, 2, 1)),
        ("Dq2h t^2", hyper_derive(h, q * q).coeff(2), -_inv_d(cfg, 2, 1)),
    ]
    bad = [name for name, got, want in probes if got != want]
    if nu_infinity(h) != 1:
        bad.append("nu(h)")
    return _result("series_leading_terms", f"q={cfg.q} N={N}", bad)


def _check_ideals(cfg, engine, rng, n_max, order):
    n_max = min(n_max, engine.limit)
    ideals = [IdealId("h"), IdealId("P0"), IdealId("Pinf")]
    for _ in range(2):
        d = cfg.rat_zero
        while d.is_zero():
            d = random_ratt(cfg, rng, 1)
        ideals.append(IdealId("Pd", d))
    ideals.append(IdealId("max", random_ratt(cfg, rng, 1)))
    failures = []
    for ideal in ideals:
        rep = check_hyperstable(engine, ideal, n_max)
        if not rep.passed:
            failures.append(rep.to_json())
    # negative controls: (g) escapes at n = 1, (E) at n = q
    for tag, horizon in (("g", 1), ("E", cfg.q)):
        rep = check_hyperstable(engine, IdealId(tag), horizon)
        if rep.passed:
            failures.append({"ideal": tag, "unexpected": "stable"})
    diag = diagram_inclusions(engine, [i.param for i in ideals if i.tag == "Pd"],
                              [i.param for i in ideals if i.tag == "max"])
    failures.extend([name for name, ok in diag if not ok])
    return _result("ideal_stability", f"q={cfg.q} n_max={n_max}", failures)


def _check_munu(cfg, engine, rng, n_max, order):
    bad = []
    for mu in range(0, 4):
        for nu in range(0, 4):
            for n in range(0, min(16, engine.limit) + 1):
                if not munu_congruence(engine, mu, nu, n):
                    bad.append((mu, nu, n))
    return _result("munu_congruence", f"q={cfg.q}", bad)


def _check_h_quotients(cfg, engine, rng, n_max, order):
    r_max = min(n_max, engine.limit)
    bad = []
    for n in range(-3, 4):
        quotients = h_power_quotients(engine, n, r_max)
        bad.extend((n, r) for r, quo in enumerate(quotients) if quo is None)
    return _result("h_power_quotients", f"q={cfg.q} r<={r_max}", bad)


def _check_dual_route(cfg, engine, rng, n_max, order):
    bad = []
    for _ in range(10):
        f = random_isobaric(cfg, rng, w_max=14)
        s = grading(f)
        n = rng.randint(1, min(12, engine.limit))
        lhs = engine.transform_depth_poly(associated_polynomial(f), s.w, n)
        rhs = associated_polynomial(engine.derive(f, n))
        if lhs != rhs:
            bad.append((str(f), n))
    return _result("depth_poly_dual_route", f"q={cfg.q}", bad)


def _check_weight_divisibility(cfg, engine, rng, n_max, order):
    samples = [
        QmPoly.gen_E(cfg),
        QmPoly.gen_g(cfg),
        QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg),
        random_isobaric(cfg, rng, 12),
    ]
    bad = [k for k in (0, 1) if cfg.p**k <= engine.limit
           and not weight_divisibility_check(engine, k, samples)]
    return _result("weight_divisibility", f"q={cfg.q}", bad)


def _check_kernels(cfg, engine, rng, n_max, order):
    bad = []
    for k in (0, 1):
        pk1 = cfg.p ** (k + 1)
        if cfg.p**k > engine.limit:
            continue
        for w in range(1, 6 * (cfg.q - 1) + 1):
            for m in (0, 1):
                kernel = engine.kernel_on_modular(w, m, k)
                if w % pk1 != 0:
                    if kernel:
                        bad.append((w, m, k, "nonempty"))
                    continue
                for v in kernel:
                    root = v
                    try:
                        for _ in range(k + 1):
                            root = root.pth_root()
                    except ArithmeticError:
                        bad.append((w, m, k, "not a p-power"))
    return _result("kernel_suite", f"q={cfg.q}", bad)


CHECKS = {
    "generator_tables": _check_generator_tables,
    "series_commutation": _check_series_commutation,
    "series_leading_terms": _check_leading_terms,
    "ideal_stability": _check_ideals,
    "munu_congruence": _check_munu,
    "h_power_quotients": _check_h_quotients,
    "depth_poly_dual_route": _check_dual_route,
    "weight_divisibility": _check_weight_divisibility,
    "kernel_suite": _check_kernels,
}


def run_suite(cfg, n_max=32, order=None, seed=20260808, names=None):
    selected = names or list(CHECKS)
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if order is not None and order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    # series_leading_terms reads the t-coefficient q^2 - 2q + 2, and below
    # that series_commutation compares too few (at order 1 only t^0)
    least = cfg.q**2 - 2 * cfg.q + 3
    series = [c for c in ("series_leading_terms", "series_commutation") if c in selected]
    if order is not None and order < least and series:
        raise ValueError(f"{series[0]} needs order >= {least}, got {order}")
    engine = DerivationEngine(cfg)
    rng = random.Random(seed)
    return [CHECKS[name](cfg, engine, rng, n_max, order) for name in selected]
