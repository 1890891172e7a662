"""Hyperdifferential ideals and the identity/classification checks.

Membership in the classified ideals is decided by substitution (each ideal
is the kernel of an evaluation map), stability is certified on generators
(Leibniz closes the argument for arbitrary multiples) at the p-power rows
(which compose every order, ``hyperd.p_powers_upto``), and the remaining
checks are the computable directions of the classification results: the
mod-h congruence for monomials in E and g, kernel weight divisibility, and
membership of every derivative quotient of powers of h in the ring.
For n < 0 the quotients of h^n are built in the ring from one inverse of
the quotient sequence of h, row -m as the convolution of row -(m-1) with
row -1, so a row with n < 0 can fail only where the row of h fails.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .algebra import PolyT, RatT, binom_mod_p
from .hyperd import DerivationEngine, p_powers_upto
from .qmring import GENERATORS, QmPoly, grading, monomial_signature, qm_basis, sum_of_products

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
    elif ideal.tag == "max":  # E, h -> 0, then g -> c
        res = f.kill("Eh").subs_g(QmPoly.from_scalar(cfg, ideal.param))
    else:  # Pd: reduce mod h, then g -> E^{q-1}/d
        repl = QmPoly.monomial(cfg, cfg.q - 1, 0, 0, ideal.param.inverse())
        res = f.kill("h").subs_g(repl)
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
    """f^(p^(k+1)) is killed by D_{p^j}, j <= k, and its w - l is divisible by p^(k+1)."""
    cfg = engine.cfg
    pk1 = cfg.p ** (k + 1)
    for f in samples:
        s = grading(f)
        if s is None:
            continue
        F = f.frobenius_pow(k + 1)
        if any(engine.derive(F, pj).terms for pj in p_powers_upto(cfg, cfg.p**k)):
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


def h_power_quotients(engine: DerivationEngine, k: int, r_max: int):
    """{n: [D_r(h^n) / h^n for r = 0..r_max]} for |n| <= k, as ring elements
    (None where outside).

    Rows n >= 0 come from the engine.  The rows n < 0 stay in the ring: by
    Leibniz, quotient sequences multiply like power series,
    D_r(xy)/xy = sum_i (D_i x/x)(D_{r-i} y/y), and (h) is hyperdifferential,
    so row 1's quotients Q_j are ring elements.  Row -1 is their inverse
    sequence, u_0 = 1 and u_r = -sum_{j=1..r} Q_j u_{r-j}, and row -m is the
    convolution of row -(m-1) with row -1.  Both sums leave out the pairs
    with a zero factor.  A row n < 0 is None from the first r at which
    row 1 is, so it re-reports no failure of the rows of h^2, h^3, ...
    """
    cfg = engine.cfg
    rows = {}
    for n in range(k + 1):
        rows[n] = []
        for r in range(r_max + 1):
            d = engine.derive(QmPoly.monomial(cfg, 0, 0, n), r)
            if any(c < n for _, _, c in d.terms):
                rows[n].append(None)
            else:
                rows[n].append(QmPoly(cfg, {(a, b, c - n): v for (a, b, c), v in d.terms.items()}))
    for m in range(1, k + 1):
        row = rows[-m] = [QmPoly.one(cfg)]
        # row -1 from row 1 and itself (j >= 1), row -m from row -(m-1) and row -1
        left, right, lo = (rows[1], row, 1) if m == 1 else (rows[1 - m], rows[-1], 0)
        for r in range(1, r_max + 1):
            if rows[1][r] is None:
                row += [None] * (r_max + 1 - r)
                break
            s = sum_of_products(cfg, ((left[i], right[r - i]) for i in range(lo, r + 1)
                                      if left[i].terms and right[r - i].terms))
            row.append(-s if m == 1 else s)
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
