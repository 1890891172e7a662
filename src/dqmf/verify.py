"""Hyperdifferential ideals and the identity/classification checks.

Membership in the classified ideals is decided by substitution (each ideal
is the kernel of an evaluation map), stability is certified on generators
(Leibniz closes the argument for arbitrary multiples) at the p-power rows
(which compose every order, ``hyperd.p_powers_upto``), and the remaining
checks are the computable directions of the classification results: the
mod-h congruence for monomials in E and g, the Frobenius lemma (D_{p^j}
kills every p^(k+1)-th power for j <= k), and membership of every
derivative quotient of powers of h, negative powers too, in the ring.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .algebra import PolyT, RatT, binom_mod_p, power
from .hyperd import DerivationEngine, p_powers_upto
from .qmring import GENERATORS, QmPoly, monomial_signature, qm_basis

__all__ = [
    "IDEAL_TAGS",
    "IdealId",
    "StabilityReport",
    "member",
    "check_hyperstable",
    "munu_congruence",
    "weight_divisibility_check",
    "h_power_quotients",
]


IDEAL_TAGS = ("h", "P0", "Pinf", "Pd", "max", "E", "g")

# the ideals generated by some of E, g, h: which ones (member substitutes 0)
_KILLED = {"h": "h", "P0": "Eh", "Pinf": "gh", "E": "E", "g": "g"}


class IdealId(namedtuple("IdealId", "tag param")):
    """One of the classified ideals of K[E,g,h], a (tag, param) value.

    tags: "h" (the principal ideal (h)), "P0" = (E,h), "Pinf" = (g,h),
    "Pd" = (h, E^{q-1} - d g) with d != 0, "max" = (E, g - c, h);
    the extra tags "E" and "g" name the ad-hoc principal negative controls.
    """

    __slots__ = ()

    def __new__(cls, tag: str, param: RatT | None = None):
        if tag not in IDEAL_TAGS:
            raise ValueError(f"unknown ideal tag {tag!r}")
        if (param is None) == (tag in ("Pd", "max")):
            raise ValueError(f"the ideal {tag} takes {'a' if param is None else 'no'} parameter")
        if tag == "Pd" and param.is_zero():
            raise ValueError("Pd requires a nonzero parameter d")
        return super().__new__(cls, tag, param)

    def generators(self, cfg):
        if self.tag in _KILLED:
            return [QmPoly.monomial(cfg, *GENERATORS[x]) for x in _KILLED[self.tag]]
        E, g, h = QmPoly.gen_E(cfg), QmPoly.gen_g(cfg), QmPoly.gen_h(cfg)
        if self.tag == "Pd":
            return [h, QmPoly.monomial(cfg, cfg.q - 1, 0, 0) - g.scale(self.param)]
        return [E, g - QmPoly.from_scalar(cfg, self.param), h]  # max

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
    else:  # g -> s E^k takes v E^a g^b h^c to v s^b E^(a+kb) h^c
        pd = ideal.tag == "Pd"  # h -> 0, then g -> E^{q-1}/d; max: E, h -> 0, then g -> c
        k, s = (cfg.q - 1, ideal.param.inverse()) if pd else (0, ideal.param)
        terms = {}
        for (a, b, c), v in f.kill("h" if pd else "Eh").terms.items():
            key, v = (a + k * b, 0, c), v * power(s, b, cfg.rat_one)
            terms[key] = terms[key] + v if key in terms else v
        res = QmPoly(cfg, terms)
    return res.is_zero(), res


class StabilityReport:
    """Outcome of check_hyperstable: per-generator first failure with witness."""

    def __init__(self, ideal: IdealId, n_max: int):
        self.ideal = ideal
        self.n_max = n_max
        self.entries = []  # (generator, fail_n | None, witness | None)

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
    """Test D_n G in the ideal for every generator G and p-power n <= n_max.

    Generator stability suffices: D_n(u G) = sum (D_r u)(D_{n-r} G) stays in
    the ideal once every D_{n-r} G does, and the p-power rows decide every
    order (``p_powers_upto``): the verdict, the least failing order and its
    witness are those of all orders 1..n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    report = StabilityReport(ideal, n_max)
    for gen in ideal.generators(engine.cfg):
        fail_n, witness = None, None
        for n in p_powers_upto(engine.cfg, n_max):
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
    """The Frobenius lemma: D_{p^j}(f^(p^(k+1))) = 0 for every j <= k."""
    cfg = engine.cfg
    orders = p_powers_upto(cfg, cfg.p**k)
    return not any(engine.derive(f.frobenius_pow(k + 1), pj).terms
                   for f in samples for pj in orders)


# ---------------------------------------------------------------------------
# Derivative quotients of powers of h (the easy direction of the
# classification of elements with all quotients in the ring).


def h_power_quotients(engine: DerivationEngine, k: int, r_max: int):
    """{n: [D_r(h^n) / h^n for r = 0..r_max]} for |n| <= k, as ring elements
    (None where outside).

    Every row is the engine's.  Quotient sequences multiply like power
    series (Leibniz: D_r(xy)/xy = sum_i (D_i x/x)(D_{r-i} y/y)), so row n
    is Q^n for h's quotient series Q = sum_r (D_r h/h) X^r.  At a p-power
    P, D_r(h^P) is (D_{r/P} h)^P where P divides r and 0 elsewhere (the
    Frobenius lemma), so Q^P = 1 mod X^P and Q^-m = Q^(P-m) below X^P:
    with P the least p-power above max(r_max, k), row -m is the engine's
    row of h^(P-m).  An entry is None exactly where the engine's D_r(h^m),
    m = n or P + n, leaves (h^m), so a row n < 0 can fail where row 1
    passes.
    """
    cfg = engine.cfg
    big = cfg.p * p_powers_upto(cfg, max(r_max, k, 1))[-1]  # P
    rows = {}
    for n in range(-k, k + 1):
        m = n if n >= 0 else big + n
        h_m = QmPoly.monomial(cfg, 0, 0, m)
        rows[n] = []
        for r in range(r_max + 1):
            d = engine.derive(h_m, r)
            if any(c < m for _, _, c in d.terms):
                rows[n].append(None)
            else:
                rows[n].append(QmPoly(cfg, {(a, b, c - m): v for (a, b, c), v in d.terms.items()}))
    return rows


# ---------------------------------------------------------------------------
# Sample generators for the randomized probes (seeded, reproducible).


def random_ratt(cfg, rng: random.Random):
    """A random element of F_q(T), numerator and denominator of degree <= 1."""
    num = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
    den = PolyT(cfg, [rng.randrange(cfg.q) for _ in range(rng.randint(1, 2))])
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
                terms[expo] = random_ratt(cfg, rng)
        f = QmPoly(cfg, terms)
        if not f.is_zero():
            return f
    raise RuntimeError("could not sample an isobaric element")
