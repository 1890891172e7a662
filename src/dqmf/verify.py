"""Hyperdifferential ideals and the identity/classification checks.

Membership in the classified ideals is decided by substitution (each ideal
is the kernel of an evaluation map), stability is certified on generators
(Leibniz closes the argument for arbitrary multiples), and the remaining
checks are the computable directions of the classification results:
the mod-h congruence for monomials in E and g, Rankin-bracket derivation
probes, kernel weight divisibility, and membership of every derivative
quotient of powers of h in the ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import RatT, binom_mod_p
from .hyperd import DerivationEngine
from .qmring import NotIsobaric, QmPoly, grading, rankin_bracket

__all__ = [
    "IdealId",
    "StabilityReport",
    "member",
    "check_hyperstable",
    "munu_congruence",
    "rankin_stability_probe",
    "weight_divisibility_check",
    "diagram_inclusions",
    "h_power_quotient",
    "h_power_quotients",
]


@dataclass(frozen=True)
class IdealId:
    """One of the classified ideals of K[E,g,h].

    tags: "h" (the principal ideal (h)), "P0" = (E,h), "Pinf" = (g,h),
    "Pd" = (h, E^{q-1} - d g) with d != 0, "max" = (E, g - c, h);
    the extra tags "E" and "g" name the ad-hoc principal negative controls.
    """

    tag: str
    param: RatT | None = None

    def __post_init__(self):
        if self.tag not in ("h", "P0", "Pinf", "Pd", "max", "E", "g"):
            raise ValueError(f"unknown ideal tag {self.tag!r}")
        if self.tag == "Pd" and (self.param is None or self.param.is_zero()):
            raise ValueError("Pd requires a nonzero parameter d")
        if self.tag == "max" and self.param is None:
            raise ValueError("the maximal ideal requires a parameter c")

    def generators(self, cfg):
        E, g, h = QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)
        if self.tag == "h":
            return [h]
        if self.tag == "P0":
            return [E, h]
        if self.tag == "Pinf":
            return [g, h]
        if self.tag == "Pd":
            return [h, QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - g.scale(self.param)]
        if self.tag == "max":
            return [E, g - QmPoly.from_scalar(cfg, self.param), h]
        if self.tag == "E":
            return [E]
        return [g]

    def describe(self):
        if self.param is not None:
            return f"{self.tag}({self.param})"
        return self.tag


def member(ideal: IdealId, f: QmPoly):
    """Membership test by substitution; returns (bool, residue witness).

    The witness is the image of f under the substitution whose kernel is
    the ideal; it is zero exactly on members.
    """
    cfg = f.cfg
    tag = ideal.tag
    if tag == "h":
        res = f.kill(kill_h=True)
    elif tag == "P0":
        res = f.kill(kill_E=True, kill_h=True)
    elif tag == "Pinf":
        res = f.kill(kill_g=True, kill_h=True)
    elif tag == "E":
        res = f.kill(kill_E=True)
    elif tag == "g":
        res = f.kill(kill_g=True)
    elif tag == "max":
        val = f.eval_point(cfg.rat_zero, ideal.param, cfg.rat_zero)
        res = QmPoly.from_scalar(cfg, val)
    else:  # Pd: reduce mod h, then g -> E^{q-1}/d
        nohc = f.kill(kill_h=True)
        repl = QmPoly.monomial(cfg, cfg.q - 1, 0, 0, ideal.param.inverse())
        res = nohc.subs_g(repl)
    return res.is_zero(), res


@dataclass
class StabilityReport:
    """Outcome of check_hyperstable: per-generator first failure with witness."""

    ideal: IdealId
    n_max: int
    entries: list = field(default_factory=list)  # (generator, fail_n | None, witness | None)

    @property
    def passed(self):
        return all(fail_n is None for _, fail_n, _ in self.entries)

    def to_json(self):
        return {
            "ideal": self.ideal.describe(),
            "n_max": self.n_max,
            "pass": self.passed,
            "failures": [
                {"generator": str(g), "n": n, "witness": str(w)}
                for g, n, w in self.entries
                if n is not None
            ],
        }


def check_hyperstable(engine: DerivationEngine, ideal: IdealId, n_max: int) -> StabilityReport:
    """Test D_n G in the ideal for every generator G and 1 <= n <= n_max.

    Generator stability suffices: D_n(u G) = sum (D_r u)(D_{n-r} G) stays in
    the ideal once every D_{n-r} G does.
    """
    report = StabilityReport(ideal, n_max)
    for gen in ideal.generators(engine.cfg):
        fail_n, witness = None, None
        for n in range(1, n_max + 1):
            ok, res = member(ideal, engine.derive(gen, n))
            if not ok:
                fail_n, witness = n, res
                break
        report.entries.append((gen, fail_n, witness))
    return report


def munu_congruence(engine: DerivationEngine, mu: int, nu: int, n: int) -> bool:
    """D_n(E^mu g^nu) = C(mu + nu(q-1) + n - 1, n) E^(mu+n) g^nu mod h."""
    cfg = engine.cfg
    lhs = engine.derive(QmPoly.monomial(cfg, mu, nu, 0), n).kill(kill_h=True)
    bm = binom_mod_p(mu + nu * (cfg.q - 1) + n - 1, n, cfg.p)
    rhs = QmPoly.monomial(cfg, mu + n, nu, 0).scale_int(bm)
    return lhs == rhs


def rankin_stability_probe(engine: DerivationEngine, M: QmPoly, ideal: IdealId) -> bool:
    """First-order probes for the bracket derivation d_M = [., M].

    Checks the expansion of d_M through the partials of the arguments on a
    monomial sample, and that d_M keeps isobaric sample members of a
    D_1-stable ideal inside the ideal.
    """
    cfg = engine.cfg
    grading(M)  # raises NotIsobaric on mixed input, per the contract
    d_of = {gen: rankin_bracket(QmPoly.monomial(cfg, *expo), M)
            for gen, expo in (("E", (1, 0, 0)), ("g", (0, 1, 0)), ("h", (0, 0, 1)))}
    samples = [
        QmPoly.monomial(cfg, 1, 1, 1),
        QmPoly.monomial(cfg, 2, 0, 1),
        QmPoly.monomial(cfg, 0, 2, 1),
        QmPoly.monomial(cfg, 1, 0, 2),
    ]
    for X in samples:
        direct = rankin_bracket(X, M)
        via_partials = QmPoly.zero(cfg)
        for gen in ("E", "g", "h"):
            via_partials = via_partials + d_of[gen] * X.partial(gen)
        if direct != via_partials:
            return False
    # stable-ideal direction: isobaric members stay in the ideal
    iso_gens = [G for G in ideal.generators(cfg) if not G.is_zero() and _is_isobaric(G)]
    for G in iso_gens:
        for mult in samples:
            X = G * mult
            if not _is_isobaric(X):
                continue
            ok, _ = member(ideal, rankin_bracket(X, M))
            if not ok:
                return False
    return True


def _is_isobaric(f):
    try:
        grading(f)
        return True
    except NotIsobaric:
        return False


def weight_divisibility_check(engine: DerivationEngine, k: int, samples) -> bool:
    """f^(p^(k+1)) is killed by D_{p^j}, j <= k, and its w - l is divisible by p^(k+1)."""
    cfg = engine.cfg
    pk1 = cfg.p ** (k + 1)
    for f in samples:
        s = grading(f)
        if s is None:
            continue
        F = f.frobenius_pow(k + 1)
        for j in range(k + 1):
            if not engine.derive(F, cfg.p**j).is_zero():
                return False
        sF = grading(F)
        if (sF.w - sF.l) % pk1 != 0:
            return False
    return True


def diagram_inclusions(engine: DerivationEngine, d_values, c_values):
    """Generator-membership form of the classified-ideal inclusion diagram.

    (h) lies in every P_d, in P_0 and in P_inf; P_0, P_inf and every P_d lie
    in (E, g, h); P_0 lies in (E, g - c, h) for every c.
    """
    cfg = engine.cfg
    p0 = IdealId("P0")
    pinf = IdealId("Pinf")
    maximal0 = IdealId("max", cfg.rat_zero)
    checks = []

    def add(name, small: IdealId, big: IdealId):
        ok = all(member(big, G)[0] for G in small.generators(cfg))
        checks.append((name, ok))

    princ_h = IdealId("h")
    add("(h) in P0", princ_h, p0)
    add("(h) in Pinf", princ_h, pinf)
    add("P0 in (E,g,h)", p0, maximal0)
    add("Pinf in (E,g,h)", pinf, maximal0)
    for d in d_values:
        pd = IdealId("Pd", d)
        add(f"(h) in Pd(d={d})", princ_h, pd)
        add(f"Pd(d={d}) in (E,g,h)", pd, maximal0)
    for c in c_values:
        add(f"P0 in (E,g-({c}),h)", p0, IdealId("max", c))
    return checks


# ---------------------------------------------------------------------------
# Derivative quotients of powers of h (the easy direction of the
# classification of elements with all quotients in the ring).


def _strip_h(num: QmPoly, k: int):
    """Normalize num / h^k by cancelling common powers of h."""
    if num.is_zero():
        return num, 0
    s = min(key[2] for key in num.terms)
    t = min(s, k)
    if t == 0:
        return num, k
    out = QmPoly(num.cfg)
    out.terms = {(a, b, c - t): v for (a, b, c), v in num.terms.items()}
    return out, k - t


def _add_over_h(a: QmPoly, ka: int, b: QmPoly, kb: int):
    """a / h^ka + b / h^kb as (num, k), over the larger power of h."""
    if a.is_zero():
        return b, kb
    if ka < kb:
        a = a * QmPoly.monomial(a.cfg, 0, 0, kb - ka)
    elif kb < ka:
        b = b * QmPoly.monomial(b.cfg, 0, 0, ka - kb)
    return a + b, max(ka, kb)


def _h_inverse_sequence(engine: DerivationEngine, r_max: int):
    """Pairs (num, k) with D_r(h^{-1}) = num / h^k, from the product rule
    applied to h * h^{-1} = 1.  Cached on the engine."""
    cfg = engine.cfg
    seq = engine._h_inv_seq
    if seq is None:
        seq = engine._h_inv_seq = [(QmPoly.one(cfg), 1)]
    if len(seq) > r_max:
        return seq[: r_max + 1]
    h = QmPoly.gen_h(cfg)
    for r in range(len(seq), r_max + 1):
        acc, acc_k = QmPoly.zero(cfg), 0
        for j in range(1, r + 1):
            dh = engine.derive(h, j)
            if dh.is_zero():
                continue
            num, k = seq[r - j]
            acc, acc_k = _add_over_h(acc, acc_k, dh * num, k)
        acc, acc_k = _strip_h(-acc, acc_k + 1)
        seq.append((acc, acc_k))
    return seq


def h_power_quotients(engine: DerivationEngine, n: int, r_max: int):
    """D_r(h^n) / h^n for r = 0..r_max, as ring elements (None where outside).

    Negative n is handled in the localization at h: the sequence for h^{-1}
    comes from the product rule on h * h^{-1} = 1, and h^{-m} is its m-fold
    derivative convolution.
    """
    cfg = engine.cfg
    if n >= 0:
        out = []
        for r in range(r_max + 1):
            d = engine.derive(QmPoly.monomial(cfg, 0, 0, n), r)
            if d.is_zero():
                out.append(QmPoly.zero(cfg))
                continue
            if min(k[2] for k in d.terms) < n:
                out.append(None)
                continue
            quo = QmPoly(cfg)
            quo.terms = {(a, b, c - n): v for (a, b, c), v in d.terms.items()}
            out.append(quo)
        return out
    m = -n
    seq = _h_inverse_sequence(engine, r_max)
    # convolution power: D_r(h^{-m}) for all r at once
    cur = {0: (QmPoly.one(cfg), 0)}
    for _ in range(m):
        nxt = {}
        for r1, (num1, k1) in cur.items():
            for r2 in range(0, r_max - r1 + 1):
                num2, k2 = seq[r2]
                if num2.is_zero():
                    continue
                prod = num1 * num2
                if prod.is_zero():
                    continue
                key = r1 + r2
                if key in nxt:
                    nxt[key] = _strip_h(*_add_over_h(*nxt[key], prod, k1 + k2))
                else:
                    nxt[key] = (prod, k1 + k2)
        cur = nxt
    out = []
    for r in range(r_max + 1):
        num, k = _strip_h(*cur.get(r, (QmPoly.zero(cfg), 0)))
        if num.is_zero():
            out.append(QmPoly.zero(cfg))
        elif k > m:
            out.append(None)
        else:
            out.append(num * QmPoly.monomial(cfg, 0, 0, m - k))
    return out


def h_power_quotient(engine: DerivationEngine, n: int, r: int):
    """Single-order form of h_power_quotients."""
    return h_power_quotients(engine, n, r)[r]


# ---------------------------------------------------------------------------
# Sample generators for the randomized probes (seeded, reproducible).


def random_ratt(cfg, rng: random.Random, max_deg=2):
    from .algebra import PolyT

    num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, max_deg + 1))])
    den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, max_deg + 1))])
    if den.is_zero():
        den = cfg.poly_one
    return RatT(cfg, num, den)


def random_isobaric(cfg, rng: random.Random, w_max=20):
    """A random nonzero isobaric element of small weight.

    Anchored on a random monomial so the grading slice is never empty."""
    from .qmring import monomial_signature, qm_basis

    for _ in range(200):
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        if a + b + c == 0:
            continue
        sig = monomial_signature(cfg, a, b, c)
        if sig.w > w_max:
            continue
        f = QmPoly.zero(cfg)
        for expo in qm_basis(sig.w, sig.m, a, cfg):
            if rng.random() < 0.7:
                coeff = random_ratt(cfg, rng, 1)
                if not coeff.is_zero():
                    f.terms[expo] = coeff
        if not f.is_zero():
            return f
    raise RuntimeError("could not sample an isobaric element")
