"""Hyperdifferential ideals and the identity/classification checks.

Membership in the classified ideals is decided by substitution (each ideal
is the kernel of an evaluation map), stability is certified on generators
(Leibniz closes the argument for arbitrary multiples), and the remaining
checks are the computable directions of the classification results:
the mod-h congruence for monomials in E and g, kernel weight divisibility,
and membership of every derivative quotient of powers of h in the ring.
For n < 0 the quotients of h^n are the inverse of the quotient sequence of
h^{|n|}, computed in the ring, so a row with n < 0 can fail only where the
row of h^{|n|} fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import PolyT, RatT, binom_mod_p
from .hyperd import DerivationEngine
from .qmring import QmPoly, grading, monomial_signature, qm_basis, sum_of_products

__all__ = [
    "IDEAL_TAGS",
    "IdealId",
    "StabilityReport",
    "member",
    "check_hyperstable",
    "munu_congruence",
    "weight_divisibility_check",
    "diagram_inclusions",
    "h_power_quotients",
]


IDEAL_TAGS = ("h", "P0", "Pinf", "Pd", "max", "E", "g")

# the ideals generated by some of E, g, h: which ones (member substitutes 0)
_KILLED = {"h": "h", "P0": "Eh", "Pinf": "gh", "E": "E", "g": "g"}


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
        if self.tag not in IDEAL_TAGS:
            raise ValueError(f"unknown ideal tag {self.tag!r}")
        if self.tag == "Pd" and (self.param is None or self.param.is_zero()):
            raise ValueError("Pd requires a nonzero parameter d")
        if self.tag == "max" and self.param is None:
            raise ValueError("the maximal ideal requires a parameter c")

    def generators(self, cfg):
        E, g, h = QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)
        if self.tag == "Pd":
            return [h, QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - g.scale(self.param)]
        if self.tag == "max":
            return [E, g - QmPoly.from_scalar(cfg, self.param), h]
        return [{"E": E, "g": g, "h": h}[x] for x in _KILLED[self.tag]]

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
    if ideal.tag in _KILLED:
        res = f.kill(_KILLED[ideal.tag])
    elif ideal.tag == "max":  # E, h -> 0, then g -> c
        res = f.kill("Eh").subs_g(QmPoly.from_scalar(cfg, ideal.param))
    else:  # Pd: reduce mod h, then g -> E^{q-1}/d
        repl = QmPoly.monomial(cfg, cfg.q - 1, 0, 0, ideal.param.inverse())
        res = f.kill("h").subs_g(repl)
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
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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
    lhs = engine.derive(QmPoly.monomial(cfg, mu, nu, 0), n).kill("h")
    bm = binom_mod_p(mu + nu * (cfg.q - 1) + n - 1, n, cfg.p)
    rhs = QmPoly.monomial(cfg, mu + n, nu, 0).scale_int(bm)
    return lhs == rhs


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


def h_power_quotients(engine: DerivationEngine, n: int, r_max: int):
    """D_r(h^n) / h^n for r = 0..r_max, as ring elements (None where outside).

    Negative n stays in the ring: by Leibniz, quotient sequences multiply
    like power series, and (h) is hyperdifferential, so the quotients Q_j of
    h^m are ring elements and those of h^{-m} are their inverse sequence,
    u_0 = 1 and u_r = -sum_{j=1..r} Q_j u_{r-j}.
    """
    cfg = engine.cfg
    if n < 0:
        quo = h_power_quotients(engine, -n, r_max)
        u = [QmPoly.one(cfg)]
        for r in range(1, r_max + 1):
            if quo[r] is None:
                return u + [None] * (r_max + 1 - r)
            u.append(-sum_of_products(cfg, ((quo[j], u[r - j]) for j in range(1, r + 1))))
        return u
    out = []
    for r in range(r_max + 1):
        d = engine.derive(QmPoly.monomial(cfg, 0, 0, n), r)
        if any(c < n for _, _, c in d.terms):
            out.append(None)
        else:
            out.append(QmPoly(cfg, {(a, b, c - n): v for (a, b, c), v in d.terms.items()}))
    return out


# ---------------------------------------------------------------------------
# Sample generators for the randomized probes (seeded, reproducible).


def random_ratt(cfg, rng: random.Random, max_deg=2):
    num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, max_deg + 1))])
    den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, max_deg + 1))])
    if den.is_zero():
        den = cfg.poly_one
    return RatT(cfg, num, den)


def random_isobaric(cfg, rng: random.Random, w_max=20):
    """A random nonzero isobaric element of small weight.

    Anchored on a random monomial so the grading slice is never empty."""
    for _ in range(200):
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        if a + b + c == 0:
            continue
        sig = monomial_signature(cfg, a, b, c)
        if sig.w > w_max:
            continue
        terms = {}
        for expo in qm_basis(sig.w, sig.m, a, cfg):
            if rng.random() < 0.7:
                terms[expo] = random_ratt(cfg, rng, 1)
        f = QmPoly(cfg, terms)
        if not f.is_zero():
            return f
    raise RuntimeError("could not sample an isobaric element")
