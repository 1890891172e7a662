"""The runnable verification battery behind `dqmf verify`.

Each check returns {check, params, pass, witness?}; the CLI exits nonzero
if any fails.  Per check: the paper's statement; its second route; what a
PASS proves ("exhaustive" means every case in the stated range is compared,
so a PASS is a proof there; "sample" means it is not).
- generator_tables: the tables of D_n E, D_n g, D_n h; ``generator_table``
  against the engine's D_1 and digit steps; exhaustive at n < q off the
  p-powers, whose rows are the engine's own input.
- series_commutation: D_n is the hyperderivative of t-expansions; the
  lattice-sum series of ``tseries``; a sample: E, g and h at
  ``series_check_orders``, truncated at N = q^2 + q + 2.
- series_leading_terms: the leading t-coefficients of E, g, h and of their
  D_q, D_{q^2}, and nu_inf(h) = 1; the paper's closed forms in [1], [2]
  against the lattice sums; a sample of twelve coefficients.
- ideal_stability: (h), P_0, P_inf, P_d, (E, g - c, h) are hyperdifferential,
  (E) and (g) are not; ``member`` on the engine's D_n of each generator;
  exhaustive to n_max per ideal (Leibniz on generators, the p-power rows
  compose every order), a sample of two distinct d and one c.
- munu_congruence: D_n(E^mu g^nu) = C(mu + nu(q-1) + n - 1, n) E^(mu+n)
  g^nu mod h; the binomial; exhaustive for mu, nu <= 3 and n <= 16 only.
- h_power_quotients: (h) is hyperdifferential, so D_r(h^n)/h^n lies in the
  ring; h^m dividing the engine's D_r(h^m), m = n, or P + n for n < 0 by
  the Frobenius lemma (``h_power_quotients``); exhaustive for |n| <= 3 and
  r <= n_max.
- depth_poly_dual_route: D_n transports depth polynomials; ``derive``
  against the sum of v * ``_transport``, a second route at orders prime to
  p (the D_1 step) and on generator terms; a sample of ten elements.
- weight_divisibility: the Frobenius lemma, D_{p^j}(f^(p^(k+1))) = 0 for
  j <= k; a p^(k+1)-th power by ``frobenius_pow``, against 0; a sample of
  four f at k = 0, 1.
- kernel_suite: the joint kernel of D_1 .. D_{p^k} on a modular slice of
  weight w is p^(k+1)-th powers, none unless p^(k+1) | w; the kernel
  vectors' supports; exhaustive for w <= 6(q - 1), type 0, 1 and k = 0, 1.
``run_suite`` ends with one more record, memo_isobaric: the engine's
grading self-check of every memo entry the selected checks filled
(exhaustive over them), with its memo counts.  The pytest acceptance suite
runs the same material at full scale; this battery is sized to finish in
seconds per field.
"""

from __future__ import annotations

import random

from .algebra import RatT, d_rat
from .hyperd import DerivationEngine, generator_table, p_powers_upto
from .qmring import GENERATORS, QmPoly
from .tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive, nu_infinity
from .verify import (
    IdealId,
    check_hyperstable,
    h_power_quotients,
    munu_congruence,
    random_isobaric,
    random_ratt,
    weight_divisibility_check,
)

__all__ = ["run_suite", "CHECKS"]


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
    # the engine reads the rows p, p^2, ... from generator_table itself, so
    # only the orders it composes by the D_1 or the digit step (order 1
    # included) are compared; those rows are checked against the series
    # oracle by series_commutation
    powers = p_powers_upto(cfg, cfg.q)[1:]
    bad = []
    for gen in GENERATORS:
        for n in range(cfg.q):
            if n not in powers and engine.d_generator(gen, n) != generator_table(cfg, gen, n):
                bad.append((gen, n))
    return _result("generator_tables", f"q={cfg.q}", bad)


def _check_series_commutation(cfg, engine, rng, n_max, order):
    N = _series_order(cfg, order)
    gens = {x: QmPoly.monomial(cfg, *mono) for x, mono in GENERATORS.items()}
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
        ("g t^(q-1)", g.coeff(q - 1), -d_rat(1, 1, cfg)),
        ("h t", h.coeff(1), -one),
        ("h t^(q^2-2q+2)", h.coeff(q * q - 2 * q + 2), -one),
        ("DqE t^2", hyper_derive(E, q).coeff(2), d_rat(1, -1, cfg)),
        ("Dqg t^q", hyper_derive(g, q).coeff(q), one),
        ("Dqh t^2", hyper_derive(h, q).coeff(2), -d_rat(1, -1, cfg)),
        ("Dq2E t^2", hyper_derive(E, q * q).coeff(2), d_rat(2, -1, cfg)),
        ("Dq2g t^q", hyper_derive(g, q * q).coeff(q), d_rat(1, 1, cfg) * d_rat(2, -1, cfg)),
        ("Dq2h t^2", hyper_derive(h, q * q).coeff(2), -d_rat(2, -1, cfg)),
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
            d = random_ratt(cfg, rng)
        if ideals[-1] == IdealId("Pd", d):  # drawn twice: d T is another P_d, with no draw
            d = d * RatT(cfg, cfg.poly_T)
        ideals.append(IdealId("Pd", d))
    ideals.append(IdealId("max", random_ratt(cfg, rng)))
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
    bad = [(n, r) for n, quotients in sorted(h_power_quotients(engine, 3, r_max).items())
           for r, quo in enumerate(quotients) if quo is None]
    return _result("h_power_quotients", f"q={cfg.q} r<={r_max}", bad)


def _check_dual_route(cfg, engine, rng, n_max, order):
    bad = []
    for _ in range(10):
        f = random_isobaric(cfg, rng, w_max=14)
        n = rng.randint(1, min(12, engine.limit))
        derived, transported = engine.derive(f, n), QmPoly.zero(cfg)
        for mono, v in f.terms.items():
            transported = transported + engine._transport(mono, n).scale(v)
        if derived != transported:
            bad.append((str(f), n))
    return _result("depth_poly_dual_route", f"q={cfg.q}", bad)


def _check_weight_divisibility(cfg, engine, rng, n_max, order):
    samples = [
        QmPoly.gen_E(cfg),
        QmPoly.gen_g(cfg),
        QmPoly.monomial(cfg, 1, 1, 0) + QmPoly.gen_h(cfg),
        random_isobaric(cfg, rng, 12),
    ]
    bad = [k for k in (0, 1) if not weight_divisibility_check(engine, k, samples)]
    return _result("weight_divisibility", f"q={cfg.q}", bad)


def _check_kernels(cfg, engine, rng, n_max, order):
    bad = []
    for k in (0, 1):
        pk1 = cfg.p ** (k + 1)
        for w in range(1, 6 * (cfg.q - 1) + 1):
            for m in (0, 1):
                kernel = engine.kernel_on_modular(w, m, k)
                if w % pk1 != 0:
                    if kernel:
                        bad.append((w, m, k, "nonempty"))
                    continue
                # v is a p^{k+1}-th power iff p^{k+1} divides every exponent
                # of E, g, h and of T in its support: F_q is perfect, and
                # y^{p^{k+1}} has canonical form num(y)^{p^{k+1}} / den(y)^{p^{k+1}}
                for v in kernel:
                    if any(e % pk1 for mono in v.terms for e in mono) or any(
                            i % pk1 for x in v.terms.values() for poly in (x.num, x.den)
                            for i, c in enumerate(poly.c) if c):
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
    selected = list(CHECKS) if names is None else list(names)
    if not selected:
        raise ValueError("empty check selection: name at least one check")
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
    results = [CHECKS[name](cfg, engine, rng, n_max, order) for name in selected]
    memo = " ".join(f"{key}={count}" for key, count in engine.stats().items())
    return results + [_result("memo_isobaric", f"q={cfg.q} {memo}", engine.check_memo_isobaric())]
